"""Seeded workloads, their operations and the per-operation output checks.

Every workload is a closed loop: one client starts the next operation when
the previous one returns.  An operation is one ``gfrag`` CLI invocation,
run in-process through ``gfrag.cli.run`` on a model file that the CLI reads
and parses itself, so model parsing, solving, output checks and CSV writing
all sit on the measured path.  Because every operation parses its own model
object, the caches keyed by ``(model, grid)`` in ``gfrag.resolvent`` (dense
gain matrix) and ``gfrag.closed_form`` (prepared solution) hit within an
operation and miss across operations, as they do for a user.

eigen-mix
    ``eigen`` at 200 cells over four families: uniform binary (closed-form
    lambda+), power-law kernel, atomic shrinking binary and a tabulated
    growth rate.  Time goes to the transport scans, the forward and adjoint
    Neumann series and inverse iteration; the tabulated-r draws add one
    ``quad`` per node in ``compute_RQ``.  No PDE step runs.  200 cells
    rather than 400 halves the op time, so a run's median op rests on
    twice as many ops.
pde-march
    ``solve-pde`` at 3000 cells to the CLI's default t_end = 2, over uniform
    binary, power-law and shrinking binary.  Time goes to the O(n^2)
    gain-matrix build and a dense matvec per upwind step; no transport scan
    runs, so a scan change must leave this workload unchanged.
cli-mix
    Many short ``validate``, ``solve-closed``, ``irreducible`` and ``aeg``
    operations at the default 2000 cells on binary-family models with
    seeded support geometry.  Per-operation cost is JSON load, closed-form
    preparation and evaluation, CSV writing, and one dense gain build per
    ``aeg`` operation (its residual) with no matvec loop.

Operations run in cycles, one op per family (or command), and a
timed run ends on a whole cycle, so every run sees the same mix.
Parameters are drawn in antithetic pairs: a cycle with uniform vectors u
drawn from the seed is followed by a cycle with 1 - u.  Within a cycle
the draws are stratified (a Latin hypercube): along each coordinate the
cycle's K ops fall one in each of K equal strata, in a seeded order.  Each
cycle therefore spans the parameter box evenly, which keeps the medians of
a run of a few ops from depending on where one seed's draws happen to fall.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

X_MAX = 30.0
DIM = 5  # uniform coordinates per draw: r, c1, beta0, beta1, family shape


@dataclass(frozen=True)
class Workload:
    command: str | None  # None: the command cycles through COMMAND_CYCLE
    families: tuple
    n_cells: int
    pool_cycles: int  # even; cycles of model files written at set-up, ops wrap after
    trace_ops: int  # fixed op count of the traced run, so its counts repeat
    # even; the closed-form error is taken over the binary draws of the
    # first ref_cycles cycles, a fixed set that does not depend on run time
    ref_cycles: int

    @property
    def cycle(self) -> int:
        """Ops in one cycle, the unit a timed run ends on."""
        return len(self.families)


# solve-closed and aeg run twice per cycle: a third of the ops are fast
# (validate, irreducible), a third slow (aeg), so the median op is the
# median solve-closed op.  With one of each the median would sit in the gap
# between the fast and the slow commands and jump with any noise; at the
# edge of the solve-closed times it would follow short swings of host speed.
COMMAND_CYCLE = ("validate", "solve-closed", "irreducible", "aeg", "solve-closed", "aeg")

WORKLOADS = {
    "eigen-mix": Workload("eigen", ("binary", "power", "shrinking", "tab_r"), 200, 16, 4, 2),
    "pde-march": Workload("solve-pde", ("binary", "power", "shrinking"), 3000, 16, 3, 2),
    # the solve-closed errors spread over a decade between draws: the median
    # of 256 of them (128 cycles) varies by ~0.1 of itself between seeds,
    # that of 32 by ~0.2
    "cli-mix": Workload(None, ("binary",) * len(COMMAND_CYCLE), 2000, 128, 36, 128),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its checks need to know."""

    command: str
    model_path: str
    family: str
    n_cells: int

    @property
    def grid_step(self) -> float:
        return X_MAX / self.n_cells

    @property
    def has_closed_form(self) -> bool:
        """Whether the check measures an error against the closed form."""
        return self.family == "binary" and self.command in ("eigen", "solve-pde", "solve-closed")


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def model_doc(family: str, u: list, support_u: list | None = None) -> dict:
    """Model file contents for one draw; ``u`` holds DIM uniforms in [0, 1]."""
    r = _lerp(0.8, 1.2, u[0])
    doc = {
        "r": r,
        "a": {"type": "linear", "c0": 0.0, "c1": _lerp(0.5, 1.5, u[1])},
        "kernel": {"type": "uniform_binary"},
        "beta": {"type": "linear", "c0": _lerp(0.2, 0.6, u[2]), "c1": _lerp(0.2, 0.6, u[3])},
        "m": 2.0,
        "x_max": X_MAX,
    }
    if family == "power":
        doc["kernel"] = {"type": "power_law", "nu": _lerp(0.0, 2.0, u[4])}
    elif family == "shrinking":
        doc["kernel"] = {"type": "shrinking_binary", "eps": _lerp(0.15, 0.35, u[4])}
    elif family == "tab_r":
        bump = _lerp(-0.1, 0.1, u[4])
        doc["r"] = {
            "type": "tabulated",
            "nodes": [0.0, 7.5, 15.0, 22.5, X_MAX],
            "values": [r, r * (1.0 + bump), r, r * (1.0 - bump), r],
        }
    elif family != "binary":
        raise ValueError(f"unknown model family {family!r}")
    if support_u is not None:
        doc["support"] = support_doc(support_u)
    return doc


def support_doc(u: list) -> dict:
    """Splitting-support geometry: support [left, inf), one affine envelope
    segment below the parent size, an extended tail, and a renewal reach
    that is unbounded for half the draws."""
    left = _lerp(0.5, 2.0, u[0])
    right = left + _lerp(1.0, 3.0, u[1])
    value_left = left * _lerp(0.2, 0.6, u[2])
    value_right = value_left + (right - left) * _lerp(0.1, 0.9, u[3])
    beta_sup = "inf" if u[4] < 0.5 else _lerp(0.2, 4.0, 2.0 * u[4] - 1.0)
    return {
        "supp_a": [[left, "inf"]],
        "envelope": [
            {"left": left, "right": right, "value_left": value_left, "value_right": value_right}
        ],
        "beta_sup": beta_sup,
        "tail": {"kind": "envelope_extends"},
    }


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[Op]:
    """Write the workload's model files for ``seed`` and return its op pool.

    The same seed writes byte-identical files.  Even cycles draw a fresh
    Latin hypercube; each odd cycle mirrors the one before it to 1 - u.
    """
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    ops = []
    k_ops = workload.cycle
    for c in range(workload.pool_cycles):
        if c % 2 == 0:
            strata = [rng.sample(range(k_ops), k_ops) for _ in range(2 * DIM)]
            draws = [[(strata[j][k] + rng.random()) / k_ops for j in range(2 * DIM)]
                     for k in range(k_ops)]
        else:
            draws = [[1.0 - x for x in u] for u in draws]
        for k, family in enumerate(workload.families):
            command = workload.command or COMMAND_CYCLE[k]
            support = draws[k][DIM:] if command == "irreducible" else None
            doc = model_doc(family, draws[k][:DIM], support)
            path = directory / f"op{len(ops):04d}.json"
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
            ops.append(Op(command, str(path), family, workload.n_cells))
    return ops


# ---------------------------------------------------------------------------
# per-operation checks

OUTPUT_FILES = {
    "validate": (),
    "solve-closed": ("snapshot.csv", "moments.csv"),
    "solve-pde": ("snapshot.csv", "moments.csv"),
    "eigen": ("eigen.csv",),
    "irreducible": (),
    "aeg": ("aeg.csv",),
}

# eigenfunction components below -NEG_ROUNDOFF * max|component| count as negative
NEG_ROUNDOFF = 1e-9


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    # relative error against the closed form, for binary-family draws whose
    # command yields one (eigen, solve-pde, solve-closed)
    closed_form_rel_err: float | None = None
    s0_abs_err: float | None = None


def _csv_rows(path: Path) -> list[list[float]]:
    """Data rows of a CLI output file, header skipped."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [[float(v) for v in row] for row in rows[1:]]


def _stdout_value(stdout: str, key: str) -> float:
    match = re.search(rf"^{re.escape(key)} = (\S+)", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"no '{key} = ...' line in the command output")
    return float(match.group(1))


def check(op: Op, rc: int, stdout: str, out_dir: Path) -> Verdict:
    """Gate one operation: exit code, finite CSVs, and command-specific
    agreement with the closed form or the expected summary line."""
    if rc != 0:
        return Verdict(False, f"exit code {rc}")
    tables = {}
    for name in OUTPUT_FILES[op.command]:
        path = out_dir / name
        if not path.exists():
            return Verdict(False, f"{name} not written")
        rows = _csv_rows(path)
        if not rows or not all(math.isfinite(v) for row in rows for v in row):
            return Verdict(False, f"{name} is empty or holds a non-finite value")
        tables[name] = rows
    try:
        return _COMMAND_CHECKS[op.command](op, stdout, tables)
    except ValueError as exc:
        return Verdict(False, str(exc))


def _binary_params(op: Op):
    from gfrag.closed_form import binary_params_from_model
    from gfrag.model import load_model

    return binary_params_from_model(load_model(op.model_path))


def _check_validate(op, stdout, tables):
    ok = stdout.rstrip().endswith("assumptions pass")
    return Verdict(ok, "" if ok else "assumptions did not pass")


def _expected_irreducibility(op: Op):
    """(c_bar, decision) that the seeded geometry of ``support_doc`` gives.

    Below ``left`` the envelope is the identity and on [left, inf) the one
    nondecreasing affine piece, extended, never drops below its left value,
    so every tail-infimum iteration settles at ``value_left``.  The renewal
    reach bridges that floor when it is unbounded or exceeds it.
    """
    support = json.loads(Path(op.model_path).read_text(encoding="utf-8"))["support"]
    c_bar = support["envelope"][0]["value_left"]
    beta_sup = support["beta_sup"]
    return c_bar, beta_sup == "inf" or beta_sup > c_bar


def _check_irreducible(op, stdout, tables):
    c_bar = _stdout_value(stdout, "c_bar")
    match = re.search(r"^(NOT_)?IRREDUCIBLE: ", stdout, re.MULTILINE)
    if match is None:
        return Verdict(False, "no IRREDUCIBLE or NOT_IRREDUCIBLE decision line")
    want_c_bar, want_irreducible = _expected_irreducibility(op)
    if not abs(c_bar - want_c_bar) <= 1e-9 * want_c_bar:
        return Verdict(False, f"c_bar = {c_bar!r}, the geometry gives {want_c_bar!r}")
    if (match.group(1) is None) != want_irreducible:
        return Verdict(False, f"decision {match.group(0).strip()} contradicts the geometry")
    return Verdict(True)


def _check_aeg(op, stdout, tables):
    ok = "deviations decreasing" in stdout
    return Verdict(ok, "" if ok else "deviations not decreasing")


def _check_eigen(op, stdout, tables):
    rows = tables["eigen.csv"]
    s0 = _stdout_value(stdout, "s0")
    for col, name in ((1, "v"), (2, "w")):
        vals = [row[col] for row in rows]
        if min(vals) < -NEG_ROUNDOFF * max(abs(v) for v in vals):
            return Verdict(False, f"{name} has negative components beyond roundoff")
    if op.family != "binary":
        return Verdict(True)
    lam = _binary_params(op).lambda_plus
    err = abs(s0 - lam)
    # the eigenvalue error of the scheme is first order in the cell width
    if err > 0.25 * op.grid_step * lam:
        return Verdict(False, f"|s0 - lambda+| = {err:.3e} beyond the grid tolerance")
    return Verdict(True, closed_form_rel_err=err / lam, s0_abs_err=err)


def _moment_error(params, rows) -> float:
    from gfrag.closed_form import MomentState, propagate_moments

    start = MomentState(rows[0][1], rows[0][2])
    worst = 0.0
    for t, m0, m1 in rows[1:]:
        exact = propagate_moments(params, start, t)
        worst = max(worst, abs(m0 - exact.M0) / exact.M0, abs(m1 - exact.M1) / exact.M1)
    return worst


def _check_solve_pde(op, stdout, tables):
    if op.family != "binary":
        return Verdict(True)
    err = _moment_error(_binary_params(op), tables["moments.csv"])
    # first-order upwind: moment errors scale with the cell width
    if err > op.grid_step:
        return Verdict(False, f"PDE moments off the closed form by {err:.3e}")
    return Verdict(True, closed_form_rel_err=err)


def _check_solve_closed(op, stdout, tables):
    import numpy as np
    from gfrag.model import midpoint_grid, quad_weights

    params = _binary_params(op)
    moments = tables["moments.csv"]
    if _moment_error(params, moments) > 1e-12:
        return Verdict(False, "moment table differs from propagate_moments")
    snapshot = tables["snapshot.csv"]
    nodes = midpoint_grid(X_MAX, op.n_cells)
    w = quad_weights(nodes) * np.array([row[1] for row in snapshot])
    _, m0, m1 = moments[-1]
    err = max(abs(float(w.sum()) - m0) / m0, abs(float((w * nodes).sum()) - m1) / m1)
    if err > op.grid_step:
        return Verdict(False, f"snapshot moments off the moment table by {err:.3e}")
    return Verdict(True, closed_form_rel_err=err)


_COMMAND_CHECKS = {
    "validate": _check_validate,
    "solve-closed": _check_solve_closed,
    "solve-pde": _check_solve_pde,
    "eigen": _check_eigen,
    "irreducible": _check_irreducible,
    "aeg": _check_aeg,
}
