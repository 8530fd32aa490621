"""Property test of the CLI contract on random, valid and invalid, model files.

Whatever the model file holds, ``gfrag`` exits 0, 1 or 2, never with a
traceback, and every nonzero exit prints exactly one line on stderr.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
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
# json writes and reads a bare NaN: geometry the reader must refuse
_NON_FINITE_SUPPORTS = (
    {**_GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": 2.0},
     "envelope": [{"left": 2.0, "right": 4.0, "value_left": float("nan"), "value_right": 2.0}]},
    {**_GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": float("nan")}},
    {**_GAP_SUPPORT, "tail": {"kind": "constant_floor", "value": float("inf")}},
)

_DROP = object()
# values that are wrong for some or all keys: bad types, bad ranges, bad forms
_BAD_VALUES = st.sampled_from([
    _DROP, None, "fast", -1.0, 0.5, [], {"nu": 1.0}, {"type": "cubic"},
    {"type": "constant", "c": "two"}, {"type": "linear", "c0": [1.0]},
    {"type": "power", "c0": 1.0}, {"type": "tabulated", "nodes": [0.0, 1.0], "values": [1.0]},
    {"type": "power_law", "nu": "one"}, {"type": "shrinking_binary", "eps": 0.75},
    {"type": "shrinking_binary", "eps": {"type": "inverse", "scale": "s"}},
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
        "support": draw(st.sampled_from([None, _SUPPORT, _GAP_SUPPORT, *_NON_FINITE_SUPPORTS])),
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
    if any(doc.get("support") is bad for bad in _NON_FINITE_SUPPORTS):
        assert code == 1
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith(("error:", "numeric failure:"))
