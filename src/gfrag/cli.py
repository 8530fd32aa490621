"""Command line front end.

Model files are UTF-8 JSON documents.  Keys:

``r``
    growth speed; a number or a coefficient object such as
    ``{"type": "linear", "c0": 0.0, "c1": 1.0}`` (types: constant,
    linear, power, tabulated; a bare number or ``constant`` is a
    ``linear`` with c1 = 0).
``a``
    splitting rate, same forms as ``r``.
``kernel``
    daughter-size distribution, e.g. ``{"type": "uniform_binary"}``
    (types: uniform_binary, power_law, shrinking_binary, tabulated;
    ``uniform_binary`` is ``power_law`` with nu = 0).
``beta``
    renewal weight, same forms as ``r``.
``m``
    exponent of the working weight 1 + x^m.
``bc_convention``
    "flux" (default) or "value" for the renewal boundary pairing.
``x_max``
    default domain truncation (overridable with --x-max).
``initial``
    optional coefficient object sampled as the initial datum; the
    default datum is exp(-x).
``support``
    optional splitting-support geometry for the ``irreducible``
    command: ``{"supp_a": [[2.0, "inf"]], "envelope": [{"left": 2.0,
    "right": 4.0, "value_left": 1.0, "value_right": 2.0}], "beta_sup":
    0.5, "tail": {"kind": "envelope_extends"}}``.

The file is read once, and the model and both blocks are parsed before
any command runs, so a malformed block fails every command.  Every command
needs only ``--model``; outputs are CSV files (RFC 4180, CRLF line ends,
floats at 17 significant digits), written to ``--out`` (created with the
first CSV), plus a short stdout summary.  Exit codes: 0 success, 1
validation failure or bad input (a bad command line included), 2 numeric
failure; a failure prints one stderr line.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .closed_form import (
    binary_params_from_model,
    evaluate_solution,
    is_binary_model,
    moments_from_grid,
    propagate_moments,
)
from .errors import (
    DegenerateModelError,
    DivergentNormError,
    GfragError,
    InvalidInputError,
    InvalidModelError,
    MissingTailError,
    NonFiniteOutputError,
)
from .irreducibility import compute_c_bar, decide_irreducibility, support_model_from_config
from .model import (
    ModelDefinition,
    coefficient_from_config,
    grid_eval,
    midpoint_grid,
    model_from_config,
    quad_weights,
    read_config,
    validate_assumptions,
)
from .pde import solve
from .spectral import aeg_diagnostics, closed_form_eigenpair, perron_eigenpair

__all__ = ["RunConfig", "emit_csv", "main", "run"]

@dataclass(frozen=True)
class RunConfig:
    """One resolved CLI invocation."""

    command: str
    model_path: str
    output_dir: str = "."
    x_max: float | None = None
    n_cells: int = 2000
    t_end: float = 2.0
    tol: float = 1e-10

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise InvalidInputError(f"unknown command {self.command!r}")
        if self.n_cells < 16:
            raise InvalidInputError("need at least 16 cells")
        for name, value in (
            ("time horizon", self.t_end),
            ("x_max", self.x_max),
            ("tolerance", self.tol),
        ):
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise InvalidInputError(f"{name} must be finite and positive, got {value}")


def _fmt(value) -> str:
    return f"{float(value):.17g}"


_VECTOR_MIN = 250  # values; below this numpy's fixed cost outweighs the % template


def emit_csv(path, header, rows) -> None:
    """Write rows as RFC 4180 CSV with a header and 17-digit floats.

    ``rows`` is a 2-D float array or any iterable of equal-length rows.
    Every value is checked before the file is opened, so a NaN or an
    infinity raises NonFiniteOutputError and leaves no file behind; the
    file's directory is then created if it is missing.  Each
    number is written byte for byte as ``%.17g`` writes it, and none needs
    quoting.  ``_g17`` formats a table of _VECTOR_MIN values or more in
    numpy blocks: it forms each value's 17 digits as a double-double and
    keeps them where their rounding is certain.  ``%`` against a repeated
    row template, the one exact formatter, writes smaller tables and every
    value that ``_g17`` cannot certify.
    """
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    if table.size == 0:
        table = table.reshape(0, 0)
    bad = ~np.isfinite(table).all(axis=1)
    if bad.any():
        raise NonFiniteOutputError(f"non-finite value in row {np.argmax(bad) + 1} of {path}")
    if table.size < _VECTOR_MIN:
        line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
        body = [(line * table.shape[0]) % tuple(table.ravel().tolist())]
    else:
        from . import _g17

        body = _g17.lines(table)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\r\n").writerow(header)
        fh.writelines(body)


def _load(cfg: RunConfig) -> tuple:
    """Read the model file once: (model, initial datum, support geometry or None).

    The datum is the file's ``initial`` coefficient, or exp(-x) if it gives none.
    """
    doc = read_config(Path(cfg.model_path))
    model = model_from_config(doc)
    if cfg.x_max is not None:
        model = replace(model, x_max=float(cfg.x_max))
    initial, support = doc.get("initial"), doc.get("support")
    initial = (lambda x: np.exp(-x)) if initial is None else coefficient_from_config(initial)
    support = None if support is None else support_model_from_config(support)
    return model, initial, support


def _snapshot_rows(nodes: np.ndarray, values: np.ndarray):
    mass = float(np.sum(quad_weights(nodes) * values))
    scale = 1.0 / mass if mass > 0.0 else 0.0
    return np.column_stack((nodes, values, values * scale))


def _cmd_validate(cfg: RunConfig, model: ModelDefinition, initial, support, out: Path) -> int:
    report = validate_assumptions(model)
    for line in report.lines():
        print(line)
    print("assumptions " + ("pass" if report.all_pass else "fail"))
    if report.all_pass:
        return 0
    failed = [line.split("=")[0] for line in report.lines() if line.endswith("=fail")]
    print(f"error: assumptions fail: {', '.join(failed)}", file=sys.stderr)
    return 1


def _cmd_solve_closed(cfg: RunConfig, model: ModelDefinition, initial, support, out: Path) -> int:
    if not is_binary_model(model):
        raise InvalidModelError(
            "solve-closed needs constant growth, proportional splitting rate, "
            "uniform binary daughters and an affine renewal weight"
        )
    params = binary_params_from_model(model)
    nodes = midpoint_grid(model.x_max, cfg.n_cells)
    u0 = grid_eval(initial, nodes)
    u_end = np.asarray(evaluate_solution(params, (nodes, u0), nodes, cfg.t_end), dtype=float)
    m0 = moments_from_grid(model, u0)
    rows = []
    for t in np.linspace(0.0, cfg.t_end, 11):
        mt = propagate_moments(params, m0, float(t))
        rows.append((t, mt.M0, mt.M1))
    emit_csv(out / "snapshot.csv", ("x", "u", "u_normalized"), _snapshot_rows(nodes, u_end))
    emit_csv(out / "moments.csv", ("t", "M0", "M1"), rows)
    print(f"wrote {out / 'snapshot.csv'} and {out / 'moments.csv'} at t = {_fmt(cfg.t_end)}")
    return 0


def _cmd_solve_pde(cfg: RunConfig, model: ModelDefinition, initial, support, out: Path) -> int:
    nodes = midpoint_grid(model.x_max, cfg.n_cells)
    u0 = grid_eval(initial, nodes)
    times = tuple(float(t) for t in np.linspace(0.0, cfg.t_end, 11)[1:])
    states = solve(model, u0, times)
    final = states[-1]
    emit_csv(out / "snapshot.csv", ("x", "u", "u_normalized"), _snapshot_rows(nodes, final.u))
    start = moments_from_grid(model, u0)
    rows = [(0.0, start.M0, start.M1)]
    rows += [(st.t, st.moments.M0, st.moments.M1) for st in states]
    emit_csv(out / "moments.csv", ("t", "M0", "M1"), rows)
    print(f"wrote {out / 'snapshot.csv'} and {out / 'moments.csv'} at t = {_fmt(final.t)}")
    return 0


def _cmd_eigen(cfg: RunConfig, model: ModelDefinition, initial, support, out: Path) -> int:
    pair = perron_eigenpair(model, cfg.n_cells, cfg.tol)
    emit_csv(
        out / "eigen.csv",
        ("x", "v", "w"),
        np.column_stack((pair.nodes, pair.v, pair.w)),
    )
    print(f"s0 = {_fmt(pair.s0)}")
    print(f"residual = {_fmt(pair.residual)}")
    print(f"wrote {out / 'eigen.csv'}")
    return 0


def _cmd_irreducible(cfg: RunConfig, model: ModelDefinition, initial, support, out: Path) -> int:
    if support is None:
        raise InvalidModelError("the model file declares no 'support' geometry")
    result = compute_c_bar(support)
    decision = decide_irreducibility(support, result)
    print(f"c_bar = {_fmt(result.c_bar)} ({result.case})")
    print(str(decision))
    return 0


def _cmd_aeg(cfg: RunConfig, model: ModelDefinition, initial, support, out: Path) -> int:
    nodes = midpoint_grid(model.x_max, cfg.n_cells)
    u0 = grid_eval(initial, nodes)
    if is_binary_model(model):
        pair = closed_form_eigenpair(model, cfg.n_cells)
    else:
        pair = perron_eigenpair(model, cfg.n_cells, cfg.tol)
    times = tuple(float(t) for t in np.linspace(cfg.t_end / 4.0, cfg.t_end, 4))
    report = aeg_diagnostics(model, pair, u0, times)
    emit_csv(out / "aeg.csv", ("t", "deviation"), zip(report.times, report.deviations))
    print(f"fitted_rate = {_fmt(report.fitted_rate)}")
    print(f"fitted_constant = {_fmt(report.fitted_constant)}")
    print("deviations " + ("decreasing" if report.passed else "not decreasing"))
    print(f"wrote {out / 'aeg.csv'}")
    return 0


# name -> (handler, help text), in the order the help lists them; a handler takes
# the config, _load's model, datum and support geometry, and the output directory
COMMANDS = {
    "validate": (_cmd_validate, "check the standing kernel and coefficient assumptions"),
    "solve-closed": (_cmd_solve_closed, "closed-form solution of the binary family"),
    "solve-pde": (_cmd_solve_pde, "finite-volume solution of the dynamics"),
    "eigen": (_cmd_eigen, "dominant eigenvalue and eigenfunctions"),
    "irreducible": (_cmd_irreducible, "support-calculus irreducibility decision"),
    "aeg": (_cmd_aeg, "asymptotic exponential growth diagnostics"),
}


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit code.

    The command runs with numpy's floating-point errors raised: an
    overflow, an invalid operation or a division by zero that no library
    routine expects ends the run with exit code 2 and one line, where numpy
    would otherwise print a warning and carry on with infinities or NaN.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return COMMANDS[cfg.command][0](cfg, *_load(cfg), Path(cfg.output_dir))
    except (
        OSError,
        InvalidInputError,
        InvalidModelError,
        MissingTailError,
        DegenerateModelError,
        DivergentNormError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GfragError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # numpy's raised floating-point errors, Python's float overflow
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one stderr line and exit code 1."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gfrag",
        description="Growth-fragmentation dynamics with renewal boundary conditions.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--model", required=True, help="path to the JSON model file")
        q.add_argument("--x-max", type=float, default=None, help="domain truncation")
        q.add_argument("--cells", type=int, default=2000, help="number of grid cells")
        q.add_argument("--t-end", type=float, default=2.0, help="time horizon")
        q.add_argument("--out", default=".", help="output directory for CSV files")
        q.add_argument("--tol", type=float, default=1e-10, help="iteration tolerance")
    return p


def main(argv=None) -> None:
    args = _parser().parse_args(argv)
    try:
        cfg = RunConfig(
            command=args.command,
            model_path=args.model,
            output_dir=args.out,
            x_max=args.x_max,
            n_cells=args.cells,
            t_end=args.t_end,
            tol=args.tol,
        )
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(1)
    raise SystemExit(run(cfg))


if __name__ == "__main__":
    main()
