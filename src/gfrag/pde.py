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
residual of a run from its states; both refuse samples that are not 1-D,
finite and of the length they need with InvalidInputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import advance_upwind
from .closed_form import MomentState, _grid_moments
from .errors import InvalidInputError, NonFiniteOutputError, StepSizeError
from .model import (
    ModelDefinition,
    _grid_samples,
    boundary_weight_flux,
    grid_eval,
    kernel_defect,
    midpoint_grid,
    quad_weights,
)
from .resolvent import fragmentation_gain_matrix

__all__ = [
    "SolverState",
    "stable_step",
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
    """One snapshot of the march: time, the solution's values ``u`` on
    ``midpoint_grid(model.x_max, u.size)`` and its moments.  The scheme
    keeps u nonnegative (up to roundoff) for nonnegative data under the
    step bound; the property tests assert it."""

    t: float
    u: np.ndarray
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


def stable_step(model: ModelDefinition, n_cells: int) -> float:
    """Largest dt keeping the explicit update monotone (cfl = 1)."""
    return _transport(model, n_cells)[-1]


def solve(model: ModelDefinition, u0, output_times, cfl: float = 0.5) -> list[SolverState]:
    """March the datum ``u0``, values on ``midpoint_grid(model.x_max,
    u0.size)``, to each output time; fused steps between outputs.

    Returns one state per output time, each interval split into the fewest
    equal steps of at most ``cfl`` times :func:`stable_step`, so one output
    time at dt and a ``cfl`` of dt / :func:`stable_step` take one step of
    exactly dt; the run ends at the last output time.  The datum must be 1-D
    and finite, with at least 16 values.  A run of more than _MAX_STEP_CELLS
    = 2e8 steps times (cells + _STEP_OVERHEAD), _STEP_OVERHEAD = 1000, raises
    StepSizeError before it starts, and a state that is not finite raises
    NonFiniteOutputError.  :func:`moment_balance_residual` of the
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
    vals = _grid_samples(u0).copy()
    nodes, dx, r_faces, a_mid, bound = _transport(model, vals.size)
    gain = fragmentation_gain_matrix(model, vals.size)
    operators = (dx, r_faces, a_mid, gain, _renewal_weights(model, nodes))
    dt_cap = cfl * bound

    states: list[SolverState] = []
    t = 0.0
    if targets[0] == 0.0:
        states.append(SolverState(0.0, vals, _grid_moments(nodes, vals)))
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
        if not np.isfinite(vals).all():
            raise NonFiniteOutputError(f"the march overflowed before t = {t_out:g}")
        t = t_out
        states.append(SolverState(t, vals, _grid_moments(nodes, vals)))
    return states


def moment_balance_residual(
    model: ModelDefinition, states: list[SolverState], m: float
) -> list[float]:
    """Per-interval residuals of the weighted-mass balance law

    d/dt int u (1 + x^m) = <beta, u> + m int r u x^{m-1}
                           - int (N_0 + N_m) a u,

    where N_m(y) = y^m - n_m(y) is the kernel moment defect (for m = 0 the
    weight doubles and the inflow appears twice).  The time derivative is a
    forward difference against the interval-midpoint right-hand side.  The
    states must lie on one grid, at finite and strictly increasing times.
    """
    if len(states) < 3:
        raise InvalidInputError("need at least three states to difference in time")
    if not (math.isfinite(m) and m >= 0):
        raise InvalidInputError("moment order must be finite and nonnegative")
    times = [float(s.t) for s in states]
    if not all(math.isfinite(t) for t in times) or any(b <= a for a, b in zip(times, times[1:])):
        raise InvalidInputError("state times must be finite and strictly increasing")
    n = np.size(states[0].u)
    us = [_grid_samples(s.u, n) for s in states]

    nodes = midpoint_grid(model.x_max, n)
    w = quad_weights(nodes)
    weighted = w * (1.0 + nodes**m) if m > 0 else 2.0 * w
    beta_w = _renewal_weights(model, nodes)
    defect = kernel_defect(model.kernel, 0.0, nodes) + kernel_defect(model.kernel, m, nodes)
    loss = w * defect * grid_eval(model.a, nodes)
    growth = w * grid_eval(model.r, nodes) * nodes ** (m - 1.0) if m > 0 else None
    residuals = []
    for t1, t2, u1, u2 in zip(times, times[1:], us, us[1:]):
        mid = 0.5 * (u1 + u2)
        rate = (np.sum(weighted * u2) - np.sum(weighted * u1)) / (t2 - t1)
        rhs = float(beta_w @ mid) * (2.0 if m == 0 else 1.0) - float(np.sum(loss * mid))
        if growth is not None:
            rhs += m * float(np.sum(growth * mid))
        residuals.append(float(rate - rhs))
    return residuals
