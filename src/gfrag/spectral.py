"""Perron eigenpairs and growth diagnostics for the renewal equation.

The dominant eigenvalue is found by inverse iteration on the resolvent of
the full generator: each sweep applies the resolvent and renormalizes, so
the iteration converges to the eigenfunction whose eigenvalue lies closest
to the shift, which for shifts above the spectral bound is the Perron root.
The left eigenfunction runs the same iteration loop on the transposed
discretized operator, normalized against the right eigenfunction and
measured in the dual X_m norm max |z|/(1 + x^m), where the adjoint
resolvent contracts.

The sweeps run first on the sparse LU factor of the discrete generator
(:class:`~gfrag.resolvent.DirectResolvent`): at the model's shift, two
above its shift floor, until the estimate of s0 settles, then refactored
just above that estimate, where a handful of sweeps converge.  One sweep
of the Neumann-series resolvent each way then confirms the pair and gives
s0 from its Rayleigh quotient.
Residuals are measured against an independent direct discretization of the
generator (central differences plus the shared gain quadrature), not
against the resolvent machinery that produced the eigenfunction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ClosedFormSolution,
    binary_params_from_model,
    is_binary_model,
    left_eigenfunction_cf,
    right_eigenfunction_cf,
)
from .errors import (
    ConvergenceError,
    DegenerateModelError,
    DiscretizationWarning,
    InvalidInputError,
)
from .model import (
    ModelDefinition,
    boundary_weight_flux,
    coefficient_is_zero,
    grid_eval,
    midpoint_grid,
    quad_weights,
    shift_floor,
    xm_norm,
)
from .pde import solve
from .resolvent import (
    DirectResolvent,
    ResolventContext,
    _resolvent_K_transpose,
    apply_resolvent_K,
    fragmentation_gain_matrix,
)

__all__ = [
    "AEGReport",
    "Eigenpair",
    "aeg_diagnostics",
    "apply_generator_direct",
    "closed_form_eigenpair",
    "perron_eigenpair",
    "spectral_projection",
]


# the warm start's first stage stops at this change between sweeps, and its
# second factors the generator this far above the resulting estimate of s0
_ROUGH_TOL = 1e-3
_SHIFT_OFFSET = 1e-3
# sweeps each inverse iteration may take before it raises ConvergenceError
_MAX_ITERS = 200
# aeg_diagnostics fits only deviations that spread by more than this many
# machine epsilons of the largest: rounding of about one epsilon then moves
# the fitted rate by about a thousandth
_ROUNDING_SPREAD = 1024


@dataclass(frozen=True)
class Eigenpair:
    """Perron eigendata: the eigenvalue ``s0`` and the values ``v`` and
    ``w`` of the eigenfunctions on the model's grid ``nodes``.

    ``v`` integrates to one, ``w`` is scaled so the pairing with ``v`` is
    one, and ``residual`` is the relative weighted norm of the direct
    generator applied to ``v`` minus ``s0 v``.
    """

    s0: float
    nodes: np.ndarray
    v: np.ndarray
    w: np.ndarray
    residual: float


@dataclass(frozen=True)
class AEGReport:
    """Deviation history of the renormalized solution from its projection."""

    times: tuple
    deviations: tuple
    fitted_rate: float
    fitted_constant: float

    @property
    def passed(self) -> bool:
        """Deviations strictly decreasing from the first sample on."""
        return all(b < a for a, b in zip(self.deviations, self.deviations[1:]))


def _values(u, size=None) -> np.ndarray:
    """``u`` as floats, after checking it is 1-D and finite, of ``size`` values if given."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or (size is not None and u.size != size):
        want = f"{size} values" if size is not None else "values"
        raise InvalidInputError(f"expected a 1-D array of {want}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise InvalidInputError("the datum must be finite")
    return u


def apply_generator_direct(model: ModelDefinition, u) -> np.ndarray:
    """Apply the generator by central differences to the values ``u`` on
    the model's grid ``midpoint_grid(model.x_max, u.size)``.

    The boundary stencil below relies on the first node sitting half a
    cell from size zero.  Transport uses the conservative form with a
    second-order interior stencil.  At the first node the renewal
    condition supplies the flux at size zero exactly, and the boundary
    panel closes with a one-sided stencil built from that flux; the last
    node falls back to a backward difference, where the eigenfunctions of
    interest are negligible.
    """
    vals = _values(u)
    nodes = midpoint_grid(model.x_max, vals.size)
    h = nodes[1] - nodes[0]
    flux = grid_eval(model.r, nodes) * vals
    inflow = float(np.sum(quad_weights(nodes) * grid_eval(boundary_weight_flux(model), nodes) * vals))

    div = np.empty_like(vals)
    div[1:-1] = (flux[2:] - flux[:-2]) / (2.0 * h)
    # ghost flux below the first node by reflection through the exact
    # boundary flux: flux(-x0) = 2*inflow - flux(x0)
    div[0] = (flux[1] + flux[0] - 2.0 * inflow) / (2.0 * h)
    div[-1] = (flux[-1] - flux[-2]) / h

    gain = fragmentation_gain_matrix(model, nodes)
    return -div - grid_eval(model.a, nodes) * vals + gain.matvec(vals)


def _generator_residual(model: ModelDefinition, s0: float, v: np.ndarray) -> float:
    applied = apply_generator_direct(model, v)
    return xm_norm(model, applied - s0 * v) / xm_norm(model, v)


def _warn_if_negative(name: str, values: np.ndarray, tol: float) -> None:
    floor = float(values.min())
    if floor < -tol * max(1.0, float(values.max())):
        warnings.warn(
            f"{name} has negative components down to {floor:.3e}; "
            "refine the grid or increase the shift",
            DiscretizationWarning,
            stacklevel=3,
        )


def _inverse_iteration(apply, start, weight, norm, tol):
    """Power iteration x <- apply(x) / <weight, apply(x)> from ``start``.

    Stops once ``norm`` of the change between sweeps falls below tol and
    returns (x, mu), mu being the last normalizing pairing <weight, apply(x)>;
    raises ConvergenceError after _MAX_ITERS sweeps.
    """
    x = start / float(np.sum(weight * start))
    for _ in range(_MAX_ITERS):
        image = apply(x)
        mu = float(np.sum(weight * image))
        x_next = image / mu
        delta = norm(x_next - x)
        x = x_next
        if delta < tol:
            return x, mu
    raise ConvergenceError(f"inverse iteration did not reach {tol} in {_MAX_ITERS} sweeps")


def perron_eigenpair(
    model: ModelDefinition, n_cells: int = 2000, tol: float = 1e-10
) -> Eigenpair:
    """Dominant eigentriple by inverse iteration on the resolvent.

    The pair lives on ``midpoint_grid(model.x_max, n_cells)``, and the
    resolvent context sits at the shift lam = omega_r + beta_m + 2, two
    above the floor of :func:`~gfrag.model.shift_floor`.  The shift is part
    of the discretization, not only a starting point: it fixes the
    exponentially fitted panel weights of the transport scans, so it moves
    s0 at the level of the discretization error, and the rule makes it one
    value per model.  Inverse iteration on the LU-factored generator runs
    at that shift until the sweep-to-sweep change falls below 1e-3, and
    then on a factor refactored 1e-3 above the resulting estimate of s0,
    where both eigenfunctions converge to ``tol`` in a few sweeps.  The
    Neumann series then finish the pair from that warm start, normally in
    one sweep each way; the returned ``s0`` is the eigenvalue recovered
    from the series' Rayleigh quotient.  Each of these iterations stops
    after ``_MAX_ITERS`` = 200 sweeps with ConvergenceError; a singular
    factor raises ConvergenceError too.
    """
    if coefficient_is_zero(model.beta) and coefficient_is_zero(model.a):
        raise DegenerateModelError(
            "pure transport without renewal or splitting has no dominant "
            "eigenvalue mechanism on a truncated domain"
        )
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidInputError(f"tolerance must be finite and positive, got {tol}")
    lambda_shift = sum(shift_floor(model)) + 2.0
    ctx = ResolventContext(model, lambda_shift, n_cells=n_cells)
    grid = ctx.nodes
    wq = quad_weights(grid)
    series_tol = min(tol, 1e-10)

    # warm start: inverse iteration on the factored generator, first at the
    # context shift to a rough estimate, then shifted just above it
    direct = DirectResolvent(ctx)
    v, mu = _inverse_iteration(direct.solve, np.exp(-grid), wq, ctx.norm_m, _ROUGH_TOL)
    direct = DirectResolvent(ctx, lambda_shift - 1.0 / mu + _SHIFT_OFFSET)
    v, _mu = _inverse_iteration(direct.solve, v, wq, ctx.norm_m, tol)
    w, _mu = _inverse_iteration(
        direct.solve_transpose, np.ones_like(grid), wq * v, ctx.dual_norm, tol
    )
    # LU round-off leaves ~1e-19 of either sign where the pair is ~1e-55
    v, w = np.maximum(v, 0.0), np.maximum(w, 0.0)

    # the series finish the pair, in one sweep each from the warm start; the
    # resolvents are looked up at call time, so wrappers installed on this
    # module see every sweep
    v, mu = _inverse_iteration(
        lambda x: apply_resolvent_K(ctx, x, tol=series_tol)[0], v, wq, ctx.norm_m, tol
    )
    s0 = lambda_shift - 1.0 / mu
    w, _mu = _inverse_iteration(
        lambda x: _resolvent_K_transpose(ctx, x, series_tol)[0], w, wq * v, ctx.dual_norm, tol
    )

    _warn_if_negative("right eigenfunction", v, tol)
    _warn_if_negative("left eigenfunction", w, tol)

    residual = _generator_residual(model, s0, v)
    return Eigenpair(s0=s0, nodes=grid, v=v, w=w, residual=residual)


def closed_form_eigenpair(model: ModelDefinition, n_cells: int = 2000) -> Eigenpair:
    """The analytic eigenpair of the binary family, sampled on
    ``midpoint_grid(model.x_max, n_cells)`` as :func:`perron_eigenpair`'s is.

    ``residual`` is that of the direct generator on the same grid.
    """
    params = binary_params_from_model(model)
    nodes = midpoint_grid(model.x_max, n_cells)
    v = right_eigenfunction_cf(params)(nodes)
    w = left_eigenfunction_cf(params)(nodes)
    residual = _generator_residual(model, params.lambda_plus, v)
    return Eigenpair(s0=params.lambda_plus, nodes=nodes, v=v, w=w, residual=residual)


def spectral_projection(pair: Eigenpair, f) -> np.ndarray:
    """Rank-one projection <w, f> v of the values ``f`` on ``pair.nodes``
    onto the Perron eigenfunction."""
    f = _values(f, pair.nodes.size)
    coeff = float(np.sum(quad_weights(pair.nodes) * pair.w * f))
    return coeff * pair.v


def _trajectory_values(model, u0, times):
    """Solution samples on u0's grid at the requested times."""
    if is_binary_model(model):
        params = binary_params_from_model(model)
        nodes = midpoint_grid(model.x_max, u0.size)
        sol = ClosedFormSolution(params, (nodes, u0))
        return [np.asarray(sol.evaluate(nodes, t), dtype=float) for t in times]
    return [s.u for s in solve(model, u0, times)]


def aeg_diagnostics(model: ModelDefinition, pair: Eigenpair, u0, times) -> AEGReport:
    """Deviation of the renormalized solution from its spectral projection.

    The pair must lie on the model's grid, and ``u0`` holds as many values
    of the datum on it as the pair.  Solves with the closed form when the model belongs to the binary
    family and with the finite-volume scheme otherwise, then records the
    weighted norm of e^(-s0 t) u(t) minus the projection of the datum and
    fits a log-linear decay rate through the samples.  ConvergenceError is
    raised when the squares of the times fall below the normal floats, when
    the deviations spread by no more than _ROUNDING_SPREAD = 1024 machine
    epsilons of the largest, and when the fit fails or comes out
    non-finite.
    """
    times = [float(t) for t in times]
    if (
        not times
        or not all(math.isfinite(t) for t in times)
        or times[0] <= 0
        or any(b <= a for a, b in zip(times, times[1:]))
    ):
        raise InvalidInputError("times must be finite, positive and strictly increasing")
    if times[0] ** 2 < np.finfo(float).tiny:
        raise ConvergenceError(
            f"time samples from {times[0]:.6g} have squares below the normal floats, "
            "too small for the log-linear fit; lengthen the horizon"
        )
    if not np.array_equal(pair.nodes, midpoint_grid(model.x_max, pair.nodes.size)):
        raise InvalidInputError("the eigenpair is not on the model's grid")
    u0 = _values(u0, pair.nodes.size)
    projected = spectral_projection(pair, u0)

    deviations = []
    for t, vals in zip(times, _trajectory_values(model, u0, times)):
        diff = math.exp(-pair.s0 * t) * vals - projected
        deviations.append(xm_norm(model, diff))
    top = max(deviations)
    if top - min(deviations) <= _ROUNDING_SPREAD * np.finfo(float).eps * top:
        raise ConvergenceError(
            f"the deviations over t in [{times[0]:.6g}, {times[-1]:.6g}] differ only by "
            f"rounding of their size {top:.6g}; lengthen the horizon"
        )

    logs = np.log(np.maximum(deviations, 1e-300))
    try:
        slope, intercept = np.polyfit(times, logs, 1)
        rate, constant = float(-slope), math.exp(intercept)
    except (np.linalg.LinAlgError, OverflowError):
        rate = constant = math.nan
    if not (math.isfinite(rate) and math.isfinite(constant)):
        raise ConvergenceError(
            f"log-linear fit of the deviations over t in [{times[0]:.6g}, {times[-1]:.6g}] failed"
        )
    return AEGReport(
        times=tuple(times),
        deviations=tuple(deviations),
        fitted_rate=rate,
        fitted_constant=constant,
    )
