"""Property tests of the CLI contract on random, valid and invalid, model files.

Whatever the model file holds, ``gfrag`` exits 0, 1 or 2, never with a
traceback, and every nonzero exit prints exactly one line on stderr.  The
second test draws magnitudes across the float range and also asks that no
warning is raised, that a run ending in 0 wrote only finite values, and
that every run ends within a wall-clock budget.
"""

import io
import json
import math
import signal
import tempfile
import warnings
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from gfrag.cli import main

COMMANDS = ("validate", "solve-closed", "solve-pde", "eigen", "irreducible", "aeg")


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_positive = _num(0.1, 3.0)
# zero is drawn often: a coefficient that vanishes somewhere is the edge case
_nonnegative = st.one_of(st.just(0.0), _positive)


@st.composite
def _tabulated(draw, steps, key_x="nodes", key_y="values"):
    n = draw(st.integers(2, 5))
    nodes = [draw(_num(0.0, 1.0))]
    for _ in range(n - 1):
        nodes.append(nodes[-1] + draw(steps))
    values = draw(st.lists(st.one_of(_positive, _nonnegative), min_size=n, max_size=n))
    return {"type": "tabulated", key_x: nodes, key_y: values}


_node_steps = _num(0.05, 20.0)


def _coefficient(level):
    return st.one_of(
        level,
        st.fixed_dictionaries({"type": st.just("constant"), "c": level}),
        st.fixed_dictionaries({"type": st.just("linear"), "c0": level, "c1": _nonnegative}),
        st.fixed_dictionaries({"type": st.just("power"), "c0": level, "p": _num(0.0, 2.0)}),
        _tabulated(_node_steps),
    )


_kernel = st.one_of(
    st.just({"type": "uniform_binary"}),
    st.fixed_dictionaries({"type": st.just("power_law"), "nu": _num(-0.9, 3.0)}),
    st.fixed_dictionaries({"type": st.just("shrinking_binary"), "eps": _num(0.05, 0.5)}),
    st.fixed_dictionaries({"type": st.just("shrinking_binary"),
                           "eps": st.fixed_dictionaries({"type": st.just("inverse"),
                                                         "scale": _num(0.1, 5.0)})}),
    _tabulated(_num(0.05, 0.4), "ratios", "densities"),
)

_SUPPORT = {
    "supp_a": [[0.0, "inf"]],
    "envelope": [{"left": 0.0, "right": 1.0, "value_left": 0.0, "value_right": 0.0}],
    "beta_sup": "inf",
    "tail": {"kind": "envelope_extends"},
}
_GAP_SUPPORT = {
    "supp_a": [[2.0, "inf"]],
    "envelope": [{"left": 2.0, "right": 4.0, "value_left": 1.0, "value_right": 2.0}],
    "beta_sup": 0.5,
    "tail": {"kind": "envelope_extends"},
}
# geometry the reader must refuse: json writes and reads a bare NaN, and
# support values are JSON numbers, with "inf" only as a right end or beta_sup
_BAD_SUPPORTS = (
    {**_GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": 2.0},
     "envelope": [{"left": 2.0, "right": 4.0, "value_left": float("nan"), "value_right": 2.0}]},
    {**_GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": float("nan")}},
    {**_GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": float("inf")}},
    {**_GAP_SUPPORT, "beta_sup": True},
    {**_GAP_SUPPORT, "beta_sup": "0.4"},
    {**_GAP_SUPPORT, "beta_sup": "Infinity"},
    {**_GAP_SUPPORT, "supp_a": [["2", "inf"]]},
    {**_GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": True}},
)

_DROP = object()
# values that are wrong for some or all keys: bad types, bad ranges, bad forms
_BAD_VALUES = st.sampled_from([
    _DROP, None, "fast", -1.0, 0.5, [], {"nu": 1.0}, {"type": "cubic"},
    {"type": "constant", "c": "two"}, {"type": "linear", "c0": [1.0]},
    {"type": "power", "c0": 1.0}, {"type": "tabulated", "nodes": [0.0, 1.0], "values": [1.0]},
    {"type": "power_law", "nu": "one"}, {"type": "shrinking_binary", "eps": 0.75},
    {"type": "shrinking_binary", "eps": {"type": "inverse", "scale": "s"}},
    True, "30", {"type": "shrinking_binary", "eps": "0.3"}, {"type": "power_law", "nu": True},
    {"type": "tabulated", "nodes": [0.0, 1.0], "values": [1.0, True]},
])


@st.composite
def model_docs(draw):
    x_max = draw(_num(1.0, 40.0))
    # a table on the quarter points of the domain: with an even cell count its
    # middle node is a cell face, where the quadrature of 1/r samples r
    quarters = st.lists(st.one_of(_positive, _nonnegative), min_size=5, max_size=5).map(
        lambda v: {"type": "tabulated", "nodes": [x_max * k / 4 for k in range(5)], "values": v}
    )
    doc = {
        # growth-rate tables may vanish at or between their nodes
        "r": draw(st.one_of(quarters, _tabulated(_node_steps), _coefficient(_positive))),
        "a": draw(_coefficient(_nonnegative)),
        "kernel": draw(_kernel),
        "beta": draw(_coefficient(_nonnegative)),
        "m": draw(_num(1.1, 4.0)),
        "bc_convention": draw(st.sampled_from(["flux", "value"])),
        "x_max": x_max,
        "support": draw(st.sampled_from([None, _SUPPORT, _GAP_SUPPORT, *_BAD_SUPPORTS])),
        "initial": draw(st.one_of(st.none(), _coefficient(_nonnegative))),
    }
    if draw(st.integers(0, 3)) == 0:
        # the binary family, which solve-closed needs
        doc.update(r=draw(_positive), kernel={"type": "uniform_binary"},
                   a={"type": "linear", "c0": 0.0, "c1": draw(_positive)},
                   beta={"type": "linear", "c0": draw(_nonnegative), "c1": draw(_nonnegative)})
    # about half the files carry one defect
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        bad = draw(_BAD_VALUES)
        if bad is _DROP:
            del doc[key]
        else:
            doc[key] = "dirichlet" if key == "bc_convention" else bad
    return doc


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=model_docs(), cells=st.integers(16, 100), t_end=st.sampled_from([0.25, 0.5, 1.0]))
def test_cli_exits_0_1_or_2_with_one_line_on_failure(doc, command, cells, t_end):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--model", str(path), "--out", tmp, "--cells", str(cells),
                "--t-end", str(t_end)]
        err = io.StringIO()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError("main returned without exiting")
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if any(doc.get("support") is bad for bad in _BAD_SUPPORTS):
        assert code == 1
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith(("error:", "numeric failure:"))


# ---------------------------------------------------------------------------
# magnitudes across the float range
#
# The same contract holds for sizes, rates and horizons anywhere from 1e-300
# to 1e300, where grids underflow, coefficients overflow and explicit steps
# shrink below any useful size.  Each run also has a wall-clock budget: it
# must end, by a result or by a refusal, before the alarm fires.

# seconds a run may take before the alarm fails it
_ALARM_S = 30


class Overrun(BaseException):
    """Raised by the alarm; no handler in the CLI catches a BaseException."""


@contextmanager
def wall_clock_budget(seconds: int, what: str):
    """Fail what runs inside with Overrun once ``seconds`` have passed."""

    def overrun(signum, frame):
        raise Overrun(f"{what} still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _magnitude(lo, hi):
    """Log-uniform on [10**lo, 10**hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


_size = _magnitude(-300.0, 300.0)
_size_or_zero = st.one_of(st.just(0.0), _size)


def _coefficient_at_scale(level):
    return st.one_of(
        level,
        st.fixed_dictionaries({"type": st.just("linear"), "c0": level, "c1": _size_or_zero}),
        st.fixed_dictionaries({"type": st.just("power"), "c0": level, "p": _num(0.0, 60.0)}),
        st.lists(_size_or_zero, min_size=2, max_size=4).flatmap(
            lambda values: st.fixed_dictionaries({
                "type": st.just("tabulated"),
                "nodes": st.lists(_size, min_size=len(values), max_size=len(values),
                                  unique=True).map(sorted),
                "values": st.just(values),
            })
        ),
    )


_kernel_at_scale = st.one_of(
    st.just({"type": "uniform_binary"}),
    st.fixed_dictionaries({"type": st.just("power_law"), "nu": _num(-0.9, 60.0)}),
    st.fixed_dictionaries({"type": st.just("shrinking_binary"), "eps": _num(0.05, 0.5)}),
)


@st.composite
def extreme_model_docs(draw):
    doc = {
        "r": draw(_coefficient_at_scale(_size)),
        "a": draw(_coefficient_at_scale(_size_or_zero)),
        "kernel": draw(_kernel_at_scale),
        "beta": draw(_coefficient_at_scale(_size_or_zero)),
        "m": draw(_magnitude(math.log10(1.1), math.log10(500.0))),
        "bc_convention": draw(st.sampled_from(["flux", "value"])),
        "x_max": draw(_size),
        "support": draw(st.sampled_from([None, _SUPPORT, _GAP_SUPPORT])),
        "initial": draw(st.one_of(st.none(), _coefficient_at_scale(_size_or_zero))),
    }
    if draw(st.integers(0, 3)) == 0:
        # the binary family, which solve-closed needs
        doc.update(r=draw(_size), kernel={"type": "uniform_binary"},
                   a={"type": "linear", "c0": 0.0, "c1": draw(_size)},
                   beta={"type": "linear", "c0": draw(_size_or_zero), "c1": draw(_size_or_zero)})
    return doc


def _csv_values(path):
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [float(v) for line in lines for v in line.split(",")]


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=extreme_model_docs(), cells=st.integers(16, 64), t_end=_magnitude(-300.0, 3.0))
def test_cli_at_extreme_magnitudes_ends_within_its_contract(doc, command, cells, t_end):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command, "--model", str(path), "--out", tmp, "--cells", str(cells),
                "--t-end", repr(t_end)]
        err = io.StringIO()
        try:
            with wall_clock_budget(_ALARM_S, command), \
                    warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(io.StringIO()), redirect_stderr(err):
                warnings.simplefilter("always")
                main(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            raise AssertionError("main returned without exiting")
        values = [v for csv_path in Path(tmp).glob("*.csv") for v in _csv_values(csv_path)]
    event(f"exit {code}")
    assert code in (0, 1, 2)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
    if code == 0:
        assert all(math.isfinite(v) for v in values)
    else:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith(("error:", "numeric failure:"))
