"""Explicit resolvents for growth-fragmentation generators.

Write Z0 for the pure transport-plus-loss generator with zero boundary
flux, Zbeta for the same generator under the renewal boundary coupling,
and K = Zbeta + B for the full generator, where B is the fragmentation
gain.  All three resolvents are available in closed or series form:

* ``(lam - Z0)^{-1} f`` is a weighted prefix integral along the grid,
* ``(lam - Zbeta)^{-1} = (I + E) (lam - Z0)^{-1}`` with E a rank-one
  boundary correction spanned by the homogeneous mode e_lam,
* ``(lam - K)^{-1}`` is the Neumann series sum_n R_beta (B R_beta)^n.

Discretely, the prefix integral is accumulated with one exponentially
fitted scan whose recurrence is *exactly invertible*; the shifted
generators applied by :func:`apply_shifted_generator_Zbeta` and
:func:`apply_shifted_generator_K` are those exact algebraic inverses, so
resolvent defects measure only series truncation, not quadrature error.
Each scan is a banded triangular solve (:mod:`gfrag._kernels`) with the
bidiagonal matrices L and C that a :class:`ResolventContext` builds once
from its panel weights.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import (
    InvalidInputError,
    LambdaOutOfRangeError,
    SeriesDivergenceError,
)
from .model import (
    GridFunction,
    ModelDefinition,
    RQFunctions,
    boundary_weight_flux,
    compute_RQ,
    daughter_count_bound,
    dual_norm_beta,
    grid_eval,
    is_atomic_kernel,
    kernel_atoms,
    linear_growth_bound,
    midpoint_grid,
    polynomial_growth_pair,
    quad_weights,
    xm_norm,
)

__all__ = [
    "ResolventContext",
    "e_lambda_fn",
    "apply_resolvent_Z0",
    "apply_E_lambda",
    "apply_resolvent_Zbeta",
    "apply_fragmentation_gain",
    "apply_resolvent_K",
    "apply_shifted_generator_Zbeta",
    "apply_shifted_generator_K",
    "fragmentation_gain_matrix",
]


class ResolventContext:
    """Immutable bundle of everything needed to apply resolvents at one lam.

    Attributes
    ----------
    model : ModelDefinition
    lam : float
        Spectral parameter; must exceed ``omega_r + beta_m``.
    rq : RQFunctions
        Antiderivatives of 1/r and a/r.
    e_lambda : GridFunction
        Homogeneous boundary mode exp(-lam*R - Q)/r sampled on the grid.
    beta_pairing : float
        <beta, e_lambda>, guaranteed inside [0, 1).
    omega_r : float
        Growth bound 2*m*r0 of the zero-flux transport semigroup.
    omega_beta : float
        Growth bound beta_m + omega_r + 4*a0*b0 of the renewal semigroup.

    The default ``strict=True`` admits only lam above omega_r + beta_m,
    where the closed resolvent formulas are guaranteed.  ``strict=False``
    accepts any lam > 0 whose boundary pairing stays below one: the prefix
    scans remain stable (the accumulated exponent is still nondecreasing)
    and the formulas stay meaningful whenever the defining integrals
    converge, which reaches far below the conservative bound for models
    with bounded coefficients.

    Raises
    ------
    LambdaOutOfRangeError
        If lam is outside the accepted range, or <beta, e_lambda> >= 1.
    """

    def __init__(
        self,
        model: ModelDefinition,
        lam: float,
        nodes: np.ndarray | None = None,
        rq: RQFunctions | None = None,
        n_cells: int = 2000,
        strict: bool = True,
    ):
        if nodes is None:
            nodes = midpoint_grid(model.x_max, n_cells)
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or np.any(np.diff(nodes) <= 0):
            raise InvalidInputError("context grid must be 1-D and strictly increasing")
        if nodes[0] <= 0:
            raise InvalidInputError("context grid must start strictly inside the half-line")

        self.model = model
        self.lam = float(lam)
        self.rq = compute_RQ(model) if rq is None else rq
        self.nodes = nodes

        m = model.m
        r0 = linear_growth_bound(model.r)
        self.omega_r = 2.0 * m * r0
        beta_flux = boundary_weight_flux(model)
        self.beta_m = dual_norm_beta(beta_flux, m)
        a0, _p = polynomial_growth_pair(model.a)
        b0, _l = daughter_count_bound(model.kernel)
        self.omega_beta = self.beta_m + self.omega_r + 4.0 * a0 * b0
        if strict and not self.lam > self.omega_r + self.beta_m:
            raise LambdaOutOfRangeError(
                f"lambda={self.lam} must exceed omega_r + beta_m = "
                f"{self.omega_r + self.beta_m} (pass strict=False to relax)"
            )
        if not self.lam > 0.0:
            raise LambdaOutOfRangeError(f"lambda={self.lam} must be positive")

        # accumulated exponent lam*R + Q is nondecreasing, so every panel
        # decay factor lies in (0, 1] and the scans cannot overflow
        self._r_vals = grid_eval(model.r, nodes)
        exponent = self.lam * np.asarray(self.rq.R(nodes)) + np.asarray(self.rq.Q(nodes))
        decay = np.empty_like(nodes)
        # leading entry carries the drop across [0, nodes[0]] (R and Q
        # vanish at zero); the scans use it to weight the seed panel
        decay[0] = np.exp(-exponent[0])
        decay[1:] = np.exp(exponent[:-1] - exponent[1:])
        # banded scan matrices with the panel weights, fixed for the context
        self._L, self._C = _kernels.transport_bands(nodes, decay)
        self._wq = quad_weights(nodes)

        e_vals = np.exp(-exponent) / self._r_vals
        self.e_lambda = GridFunction(nodes, e_vals, m)
        self._beta_vals = grid_eval(beta_flux, nodes)
        self.beta_pairing = float(np.sum(self._wq * self._beta_vals * e_vals))
        if not 0.0 <= self.beta_pairing < 1.0:
            raise LambdaOutOfRangeError(
                f"<beta, e_lambda> = {self.beta_pairing} outside [0, 1); increase lambda"
            )

    def pair_beta(self, values: np.ndarray) -> float:
        """Renewal functional <beta, u> of grid samples."""
        return float(np.sum(self._wq * self._beta_vals * values))

    def norm_m(self, values: np.ndarray) -> float:
        """X_m norm of grid samples."""
        return float(np.sum(self._wq * (1.0 + self.nodes**self.model.m) * np.abs(values)))


def _check_grid(ctx: ResolventContext, f: GridFunction) -> np.ndarray:
    if f.values.shape != ctx.nodes.shape or not np.array_equal(f.nodes, ctx.nodes):
        raise InvalidInputError("input grid does not match the context grid")
    return np.ascontiguousarray(f.values, dtype=float)


def e_lambda_fn(ctx: ResolventContext, x):
    """Homogeneous boundary mode exp(-lam*R(x) - Q(x))/r(x), vectorized."""
    x_arr = np.asarray(x, dtype=float)
    expo = ctx.lam * np.asarray(ctx.rq.R(x_arr)) + np.asarray(ctx.rq.Q(x_arr))
    out = np.exp(-expo) / np.asarray(ctx.model.r(x_arr))
    return out if np.ndim(x) else float(out)


def apply_resolvent_Z0(ctx: ResolventContext, f: GridFunction) -> GridFunction:
    """Resolvent of the zero-flux transport generator.

    Evaluates x -> exp(-lam*R(x)-Q(x))/r(x) * int_0^x f(y) exp(lam*R(y)+Q(y)) dy
    on the context grid with one stable prefix scan.
    """
    vals = _check_grid(ctx, f)
    scan = _kernels.prefix_transport_scan(ctx._L, ctx._C, vals)
    return GridFunction(ctx.nodes, scan / ctx._r_vals, ctx.model.m)


def apply_E_lambda(ctx: ResolventContext, f: GridFunction) -> GridFunction:
    """Rank-one boundary correction e_lam * <beta, f> / (1 - <beta, e_lam>)."""
    vals = _check_grid(ctx, f)
    c = ctx.pair_beta(vals) / (1.0 - ctx.beta_pairing)
    return GridFunction(ctx.nodes, c * ctx.e_lambda.values, ctx.model.m)


def apply_resolvent_Zbeta(ctx: ResolventContext, f: GridFunction) -> GridFunction:
    """Resolvent of the renewal-boundary transport generator, (I+E) R(lam,Z0)."""
    g = apply_resolvent_Z0(ctx, f)
    c = ctx.pair_beta(g.values) / (1.0 - ctx.beta_pairing)
    return GridFunction(ctx.nodes, g.values + c * ctx.e_lambda.values, ctx.model.m)


def apply_shifted_generator_Zbeta(ctx: ResolventContext, u: GridFunction) -> GridFunction:
    """Apply (lam - Zbeta) discretely; exact inverse of apply_resolvent_Zbeta.

    Uses the factorization (lam - Zbeta) = (lam - Z0)(I - e_lam <beta, .>),
    where (lam - Z0) is inverted panel by panel from the prefix scan.
    """
    vals = _check_grid(ctx, u)
    g = vals - ctx.pair_beta(vals) * ctx.e_lambda.values
    f = _kernels.inverse_transport_scan(ctx._L, ctx._C, g * ctx._r_vals)
    return GridFunction(ctx.nodes, f, ctx.model.m)


# ---------------------------------------------------------------------------
# fragmentation gain


_GAIN_CACHE: dict = {}


def _density_with_diagonal(kernel, X, Y):
    """Daughter density on x <= y, carrying the one-sided limit at x = y."""
    from .model import PowerLaw, TabulatedKernel, UniformBinary

    inside = (X <= Y) & (Y > 0)
    safe_y = np.where(Y > 0, Y, 1.0)
    if isinstance(kernel, UniformBinary):
        return np.where(inside, 2.0 / safe_y, 0.0)
    if isinstance(kernel, PowerLaw):
        nu = kernel.nu
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (nu + 2.0) * np.power(np.maximum(X, 1e-300), nu) / np.power(safe_y, nu + 1.0)
        return np.where(inside, vals, 0.0)
    if isinstance(kernel, TabulatedKernel):
        rho = np.where(inside, X / safe_y, 0.0)
        return np.where(inside, np.asarray(kernel.shape_fn(rho)) / safe_y, 0.0)
    raise InvalidInputError(f"no pointwise density for kernel {kernel!r}")


def fragmentation_gain_matrix(model: ModelDefinition, nodes: np.ndarray) -> np.ndarray:
    """Dense matrix G with (G u)(x_i) ~ int_{x_i}^inf a(y) b(x_i, y) u(y) dy.

    Continuous kernels: per-row trapezoid over the truncated range with the
    diagonal limit value included, so the jump of the integrand at y = x
    costs no accuracy.  Atomic kernels: each source node deposits its two
    daughter point masses onto the neighboring grid nodes by linear
    interpolation, which conserves daughter count and size exactly, except
    that daughters falling below the first node are clamped onto it (keeping
    the matrix nonnegative at the price of a grid-sized moment error there).
    Matrices are cached per (model, grid).
    """
    nodes = np.asarray(nodes, dtype=float)
    key = (id(model), nodes.tobytes())
    hit = _GAIN_CACHE.get(key)
    if hit is not None and hit[0] is model:
        return hit[1]

    n = nodes.size
    a_vals = grid_eval(model.a, nodes)
    if is_atomic_kernel(model.kernel):
        wq = quad_weights(nodes)
        g = np.zeros((n, n))
        for j in range(n):
            source = a_vals[j] * wq[j]
            if source == 0.0:
                continue
            for z, count in kernel_atoms(model.kernel, float(nodes[j])):
                mass = source * count
                k = int(np.searchsorted(nodes, z))
                if k == 0:
                    g[0, j] += mass / wq[0]
                elif k >= n:
                    g[n - 1, j] += mass / wq[n - 1]
                else:
                    frac = (z - nodes[k - 1]) / (nodes[k] - nodes[k - 1])
                    g[k - 1, j] += mass * (1.0 - frac) / wq[k - 1]
                    g[k, j] += mass * frac / wq[k]
    else:
        dens = _density_with_diagonal(model.kernel, nodes[:, None], nodes[None, :])
        w_t = np.zeros(n)
        d = np.diff(nodes)
        w_t[:-1] += 0.5 * d
        w_t[1:] += 0.5 * d
        pattern = np.triu(np.broadcast_to(w_t, (n, n)), k=1).copy()
        diag = np.concatenate((0.5 * d, [0.0]))
        np.fill_diagonal(pattern, diag)
        g = dens * pattern * a_vals[None, :]

    if len(_GAIN_CACHE) >= 8:
        _GAIN_CACHE.pop(next(iter(_GAIN_CACHE)))
    _GAIN_CACHE[key] = (model, g)
    return g


def apply_fragmentation_gain(model: ModelDefinition, u: GridFunction) -> GridFunction:
    """Fragmentation gain (B u)(x) = int_x^inf a(y) b(x, y) u(y) dy."""
    g = fragmentation_gain_matrix(model, u.nodes)
    return GridFunction(u.nodes, g @ u.values, u.m)


# ---------------------------------------------------------------------------
# full-generator resolvent by Neumann series


def _resolvent_K_details(
    ctx: ResolventContext,
    f: GridFunction,
    tol: float,
    max_terms: int = 200,
    burn_in: int = 5,
):
    """Neumann series for (lam - K)^{-1} f.

    Returns (values, n_terms, defect_norm) where defect_norm is the X_m norm
    of the exact discrete defect (lam - K) u - f = -B w_last at truncation.
    """
    if tol <= 0:
        raise InvalidInputError("series tolerance must be positive")
    gain = fragmentation_gain_matrix(ctx.model, ctx.nodes)
    w = apply_resolvent_Zbeta(ctx, f).values
    total = w.copy()
    prev_norm = ctx.norm_m(w)
    n_terms = 1
    defect = np.inf
    for n in range(1, max_terms + 1):
        g = gain @ w
        gain_norm = ctx.norm_m(g)
        if prev_norm < tol and gain_norm < tol:
            defect = gain_norm
            break
        w = apply_resolvent_Zbeta(ctx, GridFunction(ctx.nodes, g, ctx.model.m)).values
        total += w
        norm = ctx.norm_m(w)
        if n >= burn_in and norm >= prev_norm and norm >= tol:
            raise SeriesDivergenceError(
                f"resolvent series stopped contracting at term {n} "
                f"(increment {norm:.3e} >= {prev_norm:.3e}); increase lambda"
            )
        prev_norm = norm
        n_terms = n + 1
    else:
        defect = ctx.norm_m(gain @ w)
    return total, n_terms, defect


def apply_resolvent_K(ctx: ResolventContext, f: GridFunction, tol: float = 1e-10) -> GridFunction:
    """Resolvent of the full generator K = Zbeta + B.

    Sums R_beta (B R_beta)^n f until the X_m norm of the increment falls
    below tol (at most 200 terms).

    Raises
    ------
    SeriesDivergenceError
        When increments stop contracting; lam is too small for the series.
    """
    total, _n, _defect = _resolvent_K_details(ctx, f, tol)
    return GridFunction(ctx.nodes, total, ctx.model.m)


def apply_shifted_generator_K(ctx: ResolventContext, u: GridFunction) -> GridFunction:
    """Apply (lam - K) discretely: (lam - Zbeta) u - B u."""
    transport = apply_shifted_generator_Zbeta(ctx, u)
    gain = fragmentation_gain_matrix(ctx.model, ctx.nodes)
    return GridFunction(ctx.nodes, transport.values - gain @ u.values, ctx.model.m)


# ---------------------------------------------------------------------------
# transposed applications (internal; used for left eigenfunctions)


def _apply_resolvent_Z0_transpose(ctx: ResolventContext, g_vals: np.ndarray) -> np.ndarray:
    """Quadrature-weighted adjoint of apply_resolvent_Z0 on sample vectors."""
    h = ctx._wq * g_vals / ctx._r_vals
    out = _kernels.adjoint_transport_scan(ctx._L, ctx._C, h)
    return out / ctx._wq


def _apply_resolvent_Zbeta_transpose(ctx: ResolventContext, g_vals: np.ndarray) -> np.ndarray:
    # ((I+E) R0)* = R0* (I + E*) in the weighted inner product
    c = float(np.sum(ctx._wq * ctx.e_lambda.values * g_vals)) / (1.0 - ctx.beta_pairing)
    return _apply_resolvent_Z0_transpose(ctx, g_vals + c * ctx._beta_vals)


def _apply_gain_transpose(ctx: ResolventContext, g_vals: np.ndarray) -> np.ndarray:
    gain = fragmentation_gain_matrix(ctx.model, ctx.nodes)
    return (gain.T @ (ctx._wq * g_vals)) / ctx._wq


def _resolvent_K_transpose(
    ctx: ResolventContext, g_vals: np.ndarray, tol: float, max_terms: int = 200, burn_in: int = 5
) -> np.ndarray:
    """Adjoint Neumann series sum_n R_beta* (B* R_beta*)^n g.

    Stops once the max-norm increment falls below tol relative to the sum.
    The contraction guard measures increments in the dual norm of X_m,
    max |z|/(1 + x^m), where the adjoint operators contract; the plain max
    norm can grow for a few terms on a series that converges.
    """
    dual_weight = 1.0 + ctx.nodes**ctx.model.m
    z = _apply_resolvent_Zbeta_transpose(ctx, g_vals)
    total = z.copy()
    prev_dual = float(np.max(np.abs(z) / dual_weight))
    for n in range(1, max_terms + 1):
        z = _apply_resolvent_Zbeta_transpose(ctx, _apply_gain_transpose(ctx, z))
        total += z
        if float(np.max(np.abs(z))) < tol * max(1.0, np.max(np.abs(total))):
            break
        dual = float(np.max(np.abs(z) / dual_weight))
        if n >= burn_in and dual >= prev_dual:
            raise SeriesDivergenceError(
                f"adjoint resolvent series stopped contracting at term {n} "
                f"(dual-norm increment {dual:.3e} >= {prev_dual:.3e}); increase lambda"
            )
        prev_dual = dual
    return total
