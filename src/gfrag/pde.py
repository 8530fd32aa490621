"""Time-domain solver for growth-fragmentation with renewal inflow.

First-order conservative upwind transport plus explicit Euler for the
splitting terms.  The model fixes the grid: a datum with n values lives on
``midpoint_grid(model.x_max, n)``, and a run ends at its last output time,
so :func:`solve` takes only the model, the datum, the output times and a
stability margin.  Growth is strictly positive, so x = 0 is an inflow
boundary; the inflow flux is the renewal pairing r(0) u(0,t) = <beta, u>
in the flux convention, lagged one step to keep the update linear and
explicit.  The fragmentation gain is the shared quadrature operator of
:func:`gfrag.resolvent.fragmentation_gain_matrix`, applied once per step
at O(n) cost for every kernel.  :func:`gfrag._kernels.advance_upwind`
builds the step's diagonal and subdiagonal once per call and runs the
steps between two outputs in preallocated buffers.  The outflow face at x_max
extrapolates with zero gradient.  The scheme is monotone under the
time-step bound dt * (max r / dx + max a) <= 1, which preserves
nonnegativity of the iterates.  A run whose work, its steps times (cells
+ _STEP_OVERHEAD), exceeds _MAX_STEP_CELLS raises StepSizeError before the
first step.  :func:`moment_balance_residual` computes the mass-size balance
residual of a run from its states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import advance_upwind
from .closed_form import MomentState, moments_from_grid
from .errors import InvalidInputError, StepSizeError
from .model import (
    GridFunction,
    ModelDefinition,
    boundary_weight_flux,
    check_model_grid,
    grid_eval,
    kernel_defect,
    midpoint_grid,
    quad_weights,
)
from .resolvent import fragmentation_gain_matrix

__all__ = [
    "SolverState",
    "stable_step",
    "step",
    "solve",
    "moment_balance_residual",
]

# the most work one run of solve may take, counted as steps times (cells +
# _STEP_OVERHEAD): on a 2-vCPU VM a step costs about 7 ns per cell plus a
# fixed 9-12 us, the cost of about a thousand cells, so the budget is about
# two seconds of marching on any grid
_STEP_OVERHEAD = 1000
_MAX_STEP_CELLS = 2e8


@dataclass(frozen=True)
class SolverState:
    """One snapshot of the march: time, solution and its moments.  The
    scheme keeps u nonnegative (up to roundoff) for nonnegative data under
    the step bound; the property tests assert it."""

    t: float
    u: GridFunction
    moments: MomentState


def _renewal_weights(model: ModelDefinition, nodes: np.ndarray) -> np.ndarray:
    beta_flux = boundary_weight_flux(model)
    return quad_weights(nodes) * np.asarray(grid_eval(beta_flux, nodes), dtype=float)


def _transport(model: ModelDefinition, n_cells: int):
    """Grid, cell width, face speeds, node splitting rates and monotone step
    bound (cfl = 1) of the scheme on ``n_cells`` cells of the model's domain."""
    if n_cells < 16:
        raise InvalidInputError("need at least 16 cells")
    nodes = midpoint_grid(model.x_max, n_cells)
    dx = model.x_max / n_cells
    r_faces = grid_eval(model.r, np.linspace(0.0, model.x_max, n_cells + 1))
    a_mid = grid_eval(model.a, nodes)
    bound = 1.0 / (float(r_faces.max()) / dx + float(a_mid.max()))
    return nodes, dx, r_faces, a_mid, bound


def _scheme(model: ModelDefinition, u: GridFunction):
    """Step bound and the operator arguments of ``advance_upwind``
    (dx, r_faces, a_mid, gain, beta_w) for a datum on the midpoint grid of
    the model's domain."""
    nodes, dx, r_faces, a_mid, bound = _transport(model, u.nodes.size)
    check_model_grid(model, u.nodes)
    gain = fragmentation_gain_matrix(model, nodes)
    return bound, (dx, r_faces, a_mid, gain, _renewal_weights(model, nodes))


def stable_step(model: ModelDefinition, n_cells: int) -> float:
    """Largest dt keeping the explicit update monotone (cfl = 1)."""
    return _transport(model, n_cells)[-1]


def step(model: ModelDefinition, state: SolverState, dt: float) -> SolverState:
    """Advance one explicit step of size dt."""
    if not dt > 0:  # NaN fails this too
        raise InvalidInputError("dt must be positive")
    limit, operators = _scheme(model, state.u)
    if dt > limit * (1.0 + 1e-12):
        raise StepSizeError(f"dt={dt:g} exceeds the monotone bound {limit:g}")
    u = state.u.with_values(advance_upwind(state.u.values, 1, dt, *operators))
    return SolverState(t=state.t + dt, u=u, moments=moments_from_grid(u))


def solve(
    model: ModelDefinition, u0: GridFunction, output_times, cfl: float = 0.5
) -> list[SolverState]:
    """March to each output time; fused steps between outputs.

    Returns one state per output time, each interval split into the fewest
    equal steps of at most ``cfl`` times :func:`stable_step`; the run ends
    at the last output time.  A run of more than _MAX_STEP_CELLS = 2e8
    steps times (cells + _STEP_OVERHEAD), _STEP_OVERHEAD = 1000, raises
    StepSizeError before it starts.
    :func:`moment_balance_residual` of the
    initial state followed by these states gives the balance residual of
    each output interval (the states already start with it when the first
    output time is 0).
    """
    if not 0.0 < cfl <= 1.0:
        raise InvalidInputError("cfl must lie in (0, 1]")
    targets = tuple(float(t) for t in output_times)
    if (
        not targets
        or not all(math.isfinite(t) and t >= 0 for t in targets)
        or any(t2 <= t1 for t1, t2 in zip(targets, targets[1:]))
    ):
        raise InvalidInputError(
            "output times must be nonempty, finite, nonnegative and increasing"
        )
    bound, operators = _scheme(model, u0)
    dt_cap = cfl * bound

    states: list[SolverState] = []
    vals = np.asarray(u0.values, dtype=float).copy()
    t = 0.0
    if targets[0] == 0.0:
        u = u0.with_values(vals)
        states.append(SolverState(0.0, u, moments_from_grid(u)))
        targets = targets[1:]
    spans = np.diff((0.0,) + targets)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        counts = np.maximum(1.0, np.ceil(spans / dt_cap - 1e-12))
    total = float(np.sum(counts))
    if not total * (vals.size + _STEP_OVERHEAD) <= _MAX_STEP_CELLS:  # NaN fails this too
        raise StepSizeError(
            f"the run needs {total:.3g} steps of at most dt = {dt_cap:.3g} on {vals.size} "
            f"cells, above the budget of {_MAX_STEP_CELLS:.3g} steps times "
            f"(cells + {_STEP_OVERHEAD}); shorten the horizon or use fewer cells"
        )
    for t_out, n_steps in zip(targets, counts.astype(int).tolist()):
        span = t_out - t
        dt = span / n_steps
        vals = advance_upwind(vals, n_steps, dt, *operators)
        t = t_out
        u = u0.with_values(vals)
        states.append(SolverState(t, u, moments_from_grid(u)))
    return states


def _interval_residual(
    model: ModelDefinition, first: SolverState, second: SolverState, m: float
) -> float:
    nodes = first.u.nodes
    w = quad_weights(nodes)
    weight = 1.0 + nodes**m if m > 0 else 2.0 * np.ones_like(nodes)
    dt = second.t - first.t
    mid = 0.5 * (first.u.values + second.u.values)
    rate = (np.sum(w * weight * second.u.values) - np.sum(w * weight * first.u.values)) / dt

    beta_w = _renewal_weights(model, nodes)
    r_vals = np.asarray(grid_eval(model.r, nodes), dtype=float)
    a_vals = np.asarray(grid_eval(model.a, nodes), dtype=float)
    defect = kernel_defect(model.kernel, 0.0, nodes) + kernel_defect(model.kernel, m, nodes)
    influx = float(beta_w @ mid) * (2.0 if m == 0 else 1.0)
    rhs = influx - float(np.sum(w * defect * a_vals * mid))
    if m > 0:
        rhs += m * float(np.sum(w * r_vals * nodes ** (m - 1.0) * mid))
    return float(rate - rhs)


def moment_balance_residual(
    model: ModelDefinition, states: list[SolverState], m: float
) -> list[float]:
    """Per-interval residuals of the weighted-mass balance law

    d/dt int u (1 + x^m) = <beta, u> + m int r u x^{m-1}
                           - int (N_0 + N_m) a u,

    where N_m(y) = y^m - n_m(y) is the kernel moment defect (for m = 0 the
    weight doubles and the inflow appears twice).  The time derivative is a
    forward difference against the interval-midpoint right-hand side.
    """
    if len(states) < 3:
        raise InvalidInputError("need at least three states to difference in time")
    if m < 0:
        raise InvalidInputError("moment order must be nonnegative")
    return [
        _interval_residual(model, s1, s2, m) for s1, s2 in zip(states, states[1:])
    ]
