"""Model definitions for size-structured growth-fragmentation dynamics.

A model couples four coefficient functions on the size axis (growth rate
``r``, fragmentation rate ``a``, daughter-distribution kernel ``b`` and
renewal weight ``beta``) with the exponent ``m`` of the weighted space
in which densities are measured, ``||f||_m = int (1+x^m)|f(x)| dx``.

Coefficients are :class:`Linear`, :class:`Power` or :class:`Tabulated`, and
kernels :class:`PowerLaw`, :class:`ShrinkingBinary` or :class:`TabulatedKernel`;
``Constant(c)`` is ``Linear(c, 0.0)`` and ``UniformBinary()`` is ``PowerLaw(0.0)``.

Two renewal-boundary conventions are supported.  Under ``flux`` the influx
of mass at size zero equals the weighted population integral,
``lim_{x->0+} r(x) u(x) = <beta, u>``; under ``value`` the boundary trace
itself is prescribed, ``u(0) = <beta, u>``.  The conversion is a factor
``r(0)``: machinery that works in the flux convention multiplies a
value-convention ``beta`` by ``r(0)`` (see :func:`boundary_weight_flux`).

The model also fixes every grid: samples of length n live on
``midpoint_grid(model.x_max, n)``.  This module provides that grid, its
quadrature weights and the weighted norm, the antiderivatives of ``1/r``
and ``a/r`` that drive the transport resolvent, the kernel moment
functionals, and the assumption validator.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (
    ConvergenceError,
    DivergentNormError,
    InvalidInputError,
    InvalidModelError,
)

__all__ = [
    "Constant",
    "Linear",
    "Power",
    "Tabulated",
    "CoefficientSpec",
    "UniformBinary",
    "PowerLaw",
    "InverseEpsilon",
    "ShrinkingBinary",
    "TabulatedKernel",
    "KernelSpec",
    "ModelDefinition",
    "AssumptionReport",
    "compute_RQ",
    "xm_norm",
    "dual_norm",
    "kernel_moment",
    "kernel_defect",
    "density_pieces",
    "kernel_atoms",
    "validate_assumptions",
    "boundary_weight_flux",
    "scale_coefficient",
    "shift_floor",
    "coefficient_is_zero",
    "quad_weights",
    "grid_eval",
    "midpoint_grid",
    "model_from_config",
    "load_model",
    "read_config",
    "coefficient_from_config",
    "kernel_from_config",
]


def _match(x, values):
    """Return a python float for scalar input, the array otherwise."""
    return values if np.ndim(x) else float(values)


# ---------------------------------------------------------------------------
# coefficient functions


@dataclass(frozen=True)
class Linear:
    """Coefficient ``c0 + c1*x`` with nonnegative c0, c1; a constant is ``c1 = 0``."""

    c0: float
    c1: float

    def __post_init__(self):
        if not all(math.isfinite(c) and c >= 0 for c in (self.c0, self.c1)):
            raise InvalidModelError(
                f"linear coefficient needs finite c0, c1 >= 0, got c0={self.c0}, c1={self.c1}"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return _match(x, self.c0 + self.c1 * x)


def Constant(c: float) -> Linear:
    """The constant coefficient ``c``: a :class:`Linear` of zero slope."""
    return Linear(c, 0.0)


@dataclass(frozen=True)
class Power:
    """Coefficient ``c0*(1 + x**p)`` with c0 >= 0 and p >= 0."""

    c0: float
    p: float

    def __post_init__(self):
        if not all(math.isfinite(c) and c >= 0 for c in (self.c0, self.p)):
            raise InvalidModelError("power coefficient needs finite c0 >= 0 and p >= 0")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return _match(x, self.c0 * (1.0 + np.power(x, self.p)))


@dataclass(frozen=True)
class Tabulated:
    """Piecewise-linear coefficient through ``(nodes, values)``.

    Values extend as constants beyond the tabulated range (tabulate a
    trailing zero for compactly supported coefficients).
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != values.shape:
            raise InvalidModelError("tabulated coefficient needs matching 1-D nodes/values, >= 2 points")
        if not (np.all(np.diff(nodes) > 0) and 0 <= nodes[0] and math.isfinite(nodes[-1])):
            raise InvalidModelError("tabulated nodes must be finite, strictly increasing and nonnegative")
        if not np.all(np.isfinite(values) & (values >= 0)):
            raise InvalidModelError("tabulated values must be finite and nonnegative")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_xs", nodes.tolist())
        object.__setattr__(self, "_ys", values.tolist())

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return _match(x, np.interp(x, self.nodes, self.values))


CoefficientSpec = Union[Linear, Power, Tabulated]


def coefficient_is_zero(spec: CoefficientSpec) -> bool:
    if isinstance(spec, Linear):
        return spec.c0 == 0.0 and spec.c1 == 0.0
    if isinstance(spec, Power):
        return spec.c0 == 0.0
    return bool(np.all(spec.values == 0.0))


def scale_coefficient(spec: CoefficientSpec, factor: float) -> CoefficientSpec:
    """Return the coefficient multiplied by a nonnegative scalar."""
    if factor < 0:
        raise InvalidInputError("scale factor must be nonnegative")
    if isinstance(spec, Linear):
        return Linear(spec.c0 * factor, spec.c1 * factor)
    if isinstance(spec, Power):
        return Power(spec.c0 * factor, spec.p)
    return Tabulated(spec.nodes, spec.values * factor)


def _as_affine(spec: CoefficientSpec):
    """Coefficients expressible as c0 + c1*x, or None."""
    if isinstance(spec, Linear):
        return spec.c0, spec.c1
    if isinstance(spec, Power):
        if spec.p == 0.0:
            return 2.0 * spec.c0, 0.0
        if spec.p == 1.0:
            return spec.c0, spec.c0
    return None


def _peak(ratio: Callable, h: Callable, target: float, lo: float, hi: float = math.inf) -> float:
    """Maximum on [lo, hi] of a ratio that rises while the increasing h is below target, then falls.

    The crossing is bisected to adjacent floats and the ratio taken at both.
    """
    if h(lo) >= target:
        return ratio(lo)
    if hi == math.inf:
        hi = max(2.0 * lo, 1.0)
        while h(hi) < target:
            lo, hi = hi, 2.0 * hi
    elif h(hi) <= target:
        return ratio(hi)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if h(mid) < target else (lo, mid)
    return max(ratio(lo), ratio(hi))


def _affine_sup(x0: float, v0: float, c1: float, m: float, hi: float = math.inf) -> float:
    """Supremum on [x0, hi] of v(x)/(1 + x**m), v(x) = v0 + c1*(x - x0) >= 0 there; c1 > 0, m > 1.

    The ratio's derivative has the sign of c1 - x**(m-1)*(m*v(x) - c1*x),
    and the subtracted term increases wherever v >= 0.
    """
    v = lambda x: v0 + c1 * (x - x0)
    h = lambda x: x ** (m - 1.0) * (m * v(x) - c1 * x)
    return _peak(lambda x: v(x) / (1.0 + x**m), h, c1, x0, hi)


def _power_sup(p: float, m: float) -> float:
    """Supremum of (1 + x**p)/(1 + x**m) over x >= 0, for 0 <= p <= m.

    The ratio's derivative has the sign of p - m*x**(m-p) - (m-p)*x**m.
    """
    h = lambda x: m * x ** (m - p) + (m - p) * x**m
    return _peak(lambda x: (1.0 + x**p) / (1.0 + x**m), h, p, 0.0)


def _tabulated_sup(spec: Tabulated, m: float) -> float:
    """Supremum of spec(x)/(1 + x**m) over x >= 0: at x = 0, a node or a rising panel's peak.

    The constant extensions fall from x = 0 and from the last node; for
    m <= 1 the ratio is monotone on every panel.
    """
    x, v = spec.nodes, spec.values
    best = max(float(v[0]), float(np.max(v / (1.0 + x**m))))
    for i in np.flatnonzero(np.diff(v) > 0.0) if m > 1.0 else ():
        slope = (v[i + 1] - v[i]) / (x[i + 1] - x[i])
        best = max(best, _affine_sup(float(x[i]), float(v[i]), float(slope), m, float(x[i + 1])))
    return best


# ---------------------------------------------------------------------------
# fragmentation kernels


@dataclass(frozen=True)
class PowerLaw:
    """Daughter density b(x,y) = (nu+2) x^nu / y^(nu+1) on 0<x<y, nu > -1; nu = 0 is uniform binary."""

    nu: float

    def __post_init__(self):
        if not (math.isfinite(self.nu) and self.nu > -1):
            raise InvalidModelError("power-law kernel requires a finite nu > -1")


def UniformBinary() -> PowerLaw:
    """Binary splitting with uniformly distributed daughter size: ``PowerLaw(0.0)``."""
    return PowerLaw(0.0)


@dataclass(frozen=True)
class InverseEpsilon:
    """Size-dependent split fraction eps(y) = min(1/2, scale/y)."""

    scale: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise InvalidModelError("inverse epsilon needs a finite scale > 0")

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            return _match(y, np.minimum(0.5, self.scale / y))


@dataclass(frozen=True)
class ShrinkingBinary:
    """Two daughter atoms at eps(y)*y and (1-eps(y))*y.

    ``eps`` is either a real constant in (0, 1/2], stored as a float, or an
    :class:`InverseEpsilon`.
    """

    eps: Union[float, InverseEpsilon] = 0.25

    def __post_init__(self):
        if isinstance(self.eps, InverseEpsilon):
            return
        if isinstance(self.eps, bool) or not isinstance(self.eps, numbers.Real):
            raise InvalidModelError(f"split fraction must be a number, got {self.eps!r}")
        if not 0.0 < self.eps <= 0.5:
            raise InvalidModelError("constant split fraction must lie in (0, 1/2]")
        object.__setattr__(self, "eps", float(self.eps))

    def eps_at(self, y):
        if isinstance(self.eps, InverseEpsilon):
            return self.eps(y)
        return _match(y, np.full(np.shape(y), float(self.eps)))


@dataclass(frozen=True)
class TabulatedKernel:
    """Self-similar kernel b(x,y) = h(x/y)/y with h tabulated on ratios in (0,1).

    ``h`` is linearly interpolated between the tabulated ratios and zero
    outside their range.  The kernel is conservative iff int rho*h(rho) drho = 1.
    """

    ratios: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        ratios = np.asarray(self.ratios, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if ratios.ndim != 1 or ratios.size < 2 or ratios.shape != dens.shape:
            raise InvalidModelError("tabulated kernel needs matching 1-D ratios/densities, >= 2 points")
        if not (np.all(np.diff(ratios) > 0) and 0 <= ratios[0] and ratios[-1] <= 1):
            raise InvalidModelError("kernel ratios must be strictly increasing within [0,1]")
        if not np.all(np.isfinite(dens) & (dens >= 0)):
            raise InvalidModelError("kernel densities must be finite and nonnegative")
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "densities", dens)

    def shape_fn(self, rho):
        rho = np.asarray(rho, dtype=float)
        return _match(rho, np.interp(rho, self.ratios, self.densities, left=0.0, right=0.0))


KernelSpec = Union[PowerLaw, ShrinkingBinary, TabulatedKernel]


def _kernel_panels(kernel: TabulatedKernel) -> tuple:
    """A tabulated h's linear panels, arrays (lo, hi, alpha, beta): h = alpha + beta*(rho - lo)."""
    rho, h = kernel.ratios, kernel.densities
    return rho[:-1], rho[1:], h[:-1], np.diff(h) / np.diff(rho)


def _power_integrals(lo: np.ndarray, hi: np.ndarray, m: float) -> tuple:
    """(int rho^m, int rho^m (rho - lo)) over each panel [lo, hi] of [0, 1], to a few ulps.

    The antiderivatives cancel where d = (hi - lo)/lo is below both 1/4 and
    2/(m + 1).  There the first is lo^(m+1) expm1((m+1) log1p(d))/(m+1), and the
    second lo^(m+2) times int_0^d t (1 + t)^m dt, summed as a binomial series.
    """
    # rho^m * rho, not rho^(m+1): a rounded m + 1 would cost |log rho| ulps
    k1, k2, width = m + 1.0, m + 2.0, hi - lo
    hm, lm = hi**m * hi, lo**m * lo
    whole = (hm - lm) / k1
    offset = (hm * (k1 * width - lo) + lm * lo) / k1 / k2
    narrow = (width < 0.25 * lo) & (width * k1 < 2.0 * lo)
    d = width[narrow] / lo[narrow]
    term, series = d * d, np.zeros_like(d)
    for k in range(32):  # term = C(m, k) d^(k+2)
        series += term / (k + 2)
        term = term * ((m - k) / (k + 1)) * d
    whole[narrow] = lm[narrow] * np.expm1(k1 * np.log1p(d)) / k1
    offset[narrow] = lm[narrow] * lo[narrow] * series
    return whole, offset


def kernel_moment(kernel: KernelSpec, m: float, y):
    """m-th daughter moment n_m(y) = int_0^y x^m b(x,y) dx, in closed form; a tabulated
    kernel's is integrated over the linear panels that its density pieces also use."""
    if m < 0:
        raise InvalidInputError("moment order must be nonnegative")
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0):
        raise InvalidInputError("parent size must be positive")
    if isinstance(kernel, PowerLaw):
        out = (kernel.nu + 2.0) * np.power(y_arr, m) / (m + kernel.nu + 1.0)
    elif isinstance(kernel, ShrinkingBinary):
        eps = np.asarray(kernel.eps_at(y_arr), dtype=float)
        out = np.power(y_arr, m) * (np.power(eps, m) + np.power(1.0 - eps, m))
    elif isinstance(kernel, TabulatedKernel):
        lo, hi, alpha, beta = _kernel_panels(kernel)
        whole, offset = _power_integrals(lo, hi, m)
        out = np.power(y_arr, m) * float(np.sum(alpha * whole + beta * offset))
    else:
        raise InvalidModelError(f"unknown kernel {kernel!r}")
    return _match(y, out)


def kernel_defect(kernel: KernelSpec, m: float, y):
    """Moment defect N_m(y) = y^m - n_m(y)."""
    y_arr = np.asarray(y, dtype=float)
    return _match(y, np.power(y_arr, m) - np.asarray(kernel_moment(kernel, m, y_arr)))


def density_pieces(kernel: KernelSpec, x) -> list[tuple]:
    """The daughter density as separable pieces [(lo, hi, p, q), ...], sampled at ``x``.

    b(x, y) sums p(x) q(y) over the pieces whose ratio window (lo, hi] holds
    the float quotient x/y; the first window is closed, as ``np.interp`` treats
    the end ratios (its lo is the float below).  The power law is one piece on
    [0, 1], p = (nu+2) max(x, 1e-300)^nu and q = y^-(nu+1); each linear piece
    alpha + beta*rho of a tabulated h gives alpha/y and beta*x/y^2, if nonzero.
    q vanishes at size zero.  Atomic kernels have none (see :func:`kernel_atoms`).
    """
    x = np.asarray(x, dtype=float)

    def inverse_power(e):
        return np.where(x > 0, 1.0 / np.power(np.where(x > 0, x, 1.0), e), 0.0)

    if isinstance(kernel, PowerLaw):
        p = (kernel.nu + 2.0) * np.power(np.maximum(x, 1e-300), kernel.nu)
        return [(np.nextafter(0.0, -1.0), 1.0, p, inverse_power(kernel.nu + 1.0))]
    if not isinstance(kernel, TabulatedKernel):
        raise InvalidInputError("atomic kernel has no pointwise density")
    lo, hi, value, slope = _kernel_panels(kernel)
    starts = np.concatenate(([np.nextafter(lo[0], -1.0)], lo[1:]))
    pieces = []
    for start, end, alpha, beta in zip(starts, hi, value - slope * lo, slope):
        pieces += [(start, end, np.full(x.shape, alpha), inverse_power(1.0))] if alpha else []
        pieces += [(start, end, beta * x, inverse_power(2.0))] if beta else []
    return pieces


def kernel_atoms(kernel: KernelSpec, y) -> list[tuple]:
    """Daughter point masses [(location, count-weight), ...] of an atomic kernel.

    Elementwise for an array of parent sizes ``y``.
    """
    if not isinstance(kernel, ShrinkingBinary):
        raise InvalidInputError("kernel is not atomic")
    eps = kernel.eps_at(y)
    return [(eps * y, 1.0), ((1.0 - eps) * y, 1.0)]


# ---------------------------------------------------------------------------
# grids and weighted norms


def quad_weights(nodes: np.ndarray) -> np.ndarray:
    """Quadrature weights integrating grid samples over [0, nodes[-1]].

    Composite trapezoid between nodes; the leading panel [0, nodes[0]] is
    closed with a rectangle carrying the first value, the value at zero
    that the closed form also gives a datum sampled from a positive node.
    """
    nodes = np.asarray(nodes, dtype=float)
    w = np.zeros_like(nodes)
    d = np.diff(nodes)
    w[:-1] += 0.5 * d
    w[1:] += 0.5 * d
    w[0] += nodes[0]
    return w


def _grid_samples(values, size: int | None = None) -> np.ndarray:
    """``values`` as contiguous floats, after checking that they can be samples
    on a model grid: 1-D, finite, and ``size`` of them when a size is given;
    raises InvalidInputError otherwise.  Every public function that takes
    grid samples calls this once."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or (size is not None and values.size != size):
        want = f"{size} samples" if size is not None else "samples"
        raise InvalidInputError(f"expected {want} in a 1-D array, got shape {values.shape}")
    if not np.isfinite(values).all():
        raise InvalidInputError("grid samples must be finite")
    return np.ascontiguousarray(values)


def xm_norm(model: ModelDefinition, values) -> float:
    """Weighted norm int (1+x^m)|f(x)| dx of samples on the model's grid
    ``midpoint_grid(model.x_max, values.size)`` (zero tail), m = ``model.m``."""
    values = _grid_samples(values)
    nodes = midpoint_grid(model.x_max, values.size)
    w = quad_weights(nodes)
    return float(np.sum(w * (1.0 + np.power(nodes, model.m)) * np.abs(values)))


def grid_eval(fn: Callable, nodes: np.ndarray) -> np.ndarray:
    return np.asarray(fn(np.asarray(nodes, dtype=float)), dtype=float)


def _cell_count(n_cells) -> int:
    """``n_cells`` as an int, refused unless a whole number of at least two."""
    if not isinstance(n_cells, numbers.Integral) or n_cells < 2:
        raise InvalidInputError(f"need a whole number of at least two cells, got {n_cells!r}")
    return int(n_cells)


def midpoint_grid(x_max: float, n_cells: int) -> np.ndarray:
    """Cell-midpoint nodes of a uniform mesh of ``n_cells`` cells on (0, x_max]."""
    n_cells = _cell_count(n_cells)
    if not (math.isfinite(x_max) and x_max > 0):
        raise InvalidInputError("need a finite x_max > 0")
    dx = x_max / n_cells
    return dx * (np.arange(n_cells) + 0.5)


# ---------------------------------------------------------------------------
# model definition


_BC_CONVENTIONS = ("flux", "value")


@dataclass(frozen=True)
class ModelDefinition:
    """The dynamics, immutable after construction; a model file's ``initial``
    and ``support`` blocks are not part of it (the CLI reads them beside it)."""

    r: CoefficientSpec
    a: CoefficientSpec
    kernel: KernelSpec
    beta: CoefficientSpec
    m: float = 2.0
    bc_convention: str = "flux"
    x_max: float = 50.0

    def __post_init__(self):
        if not (math.isfinite(self.m) and self.m > 1.0):
            raise InvalidModelError(f"weight exponent must be finite and exceed 1, got {self.m}")
        if self.bc_convention not in _BC_CONVENTIONS:
            raise InvalidModelError(f"bc_convention must be one of {_BC_CONVENTIONS}")
        if not (math.isfinite(self.x_max) and self.x_max > 0):
            raise InvalidModelError(f"x_max must be finite and positive, got {self.x_max}")
        # linear and power growth are smallest at 0; a tabulated
        # r is piecewise linear, smallest at a knot or an end of [0, x_max]
        probe = np.array([0.0, self.x_max])
        if isinstance(self.r, Tabulated):
            probe = np.concatenate((probe, self.r.nodes[self.r.nodes <= self.x_max]))
        r_vals = np.asarray(self.r(probe))
        if np.any(r_vals <= 0):
            # growth must not vanish anywhere, the origin included: the renewal
            # influx enters through the boundary flux r(0) u(0)
            raise InvalidModelError("growth coefficient r must be strictly positive on [0, x_max]")


def boundary_weight_flux(model: ModelDefinition) -> CoefficientSpec:
    """Renewal weight in the flux convention (lim r*u = <beta, u>)."""
    if model.bc_convention == "flux":
        return model.beta
    r0 = float(model.r(0.0))
    return scale_coefficient(model.beta, r0)


# ---------------------------------------------------------------------------
# antiderivatives of 1/r and a/r


class _LazyIntegrate:
    """``scipy.integrate``, imported when an attribute is first read.

    A module attribute, so ``integrate.quad`` can be wrapped in place.
    """

    def __getattr__(self, name):
        from scipy import integrate

        return getattr(integrate, name)


integrate = _LazyIntegrate()


# absolute tolerance of compute_RQ's adaptive quadrature
_RQ_TOL = 1e-10


def _panel(spec: CoefficientSpec, x0: float) -> tuple:
    """The piece of ``spec`` that holds x0, as (slope, node, value, lo, hi).

    On the open interval (lo, hi), ``slope * (s - node) + value`` is bitwise
    ``float(spec(s))``: ``np.interp``'s own formula inside a panel, its end
    value beyond the nodes, and ``c0 + c1*s`` for a Linear spec on the whole
    line.  A Power spec has no such piece: its (lo, hi) is empty.
    """
    if isinstance(spec, Power):
        return 0.0, 0.0, 0.0, 0.0, 0.0
    if isinstance(spec, Linear):
        return spec.c1, 0.0, spec.c0, -math.inf, math.inf
    xs, ys = spec._xs, spec._ys
    j = bisect.bisect_right(xs, x0) - 1
    if j < 0:
        return 0.0, 0.0, ys[0], -math.inf, xs[0]
    if j == len(xs) - 1:
        return 0.0, 0.0, ys[-1], xs[-1], math.inf
    return (ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]), xs[j], ys[j], xs[j], xs[j + 1]


def _quotient(a_spec: CoefficientSpec | None, r_spec: CoefficientSpec) -> Callable:
    """x0 -> (g, end): the integrand g = a/r (1/r when a_spec is None) on [x0, end].

    [x0, end] lies in one piece of each factor.  A factor is its piece's
    affine form (:func:`_panel`) inside the piece and ``float(spec(s))``
    elsewhere: at the piece's ends, onto or past which ``quad``'s nodes can
    round on a short segment, and everywhere for a Power.  So every value is
    bitwise the coefficients' own, and away from a Power an evaluation is
    one call of float arithmetic.
    """

    def integrand(x0: float) -> tuple:
        k, x, y, lo, hi = _panel(r_spec, x0)
        if a_spec is None:
            return lambda s: 1.0 / (k * (s - x) + y if lo < s < hi else float(r_spec(s))), hi
        ka, xa, ya, la, ha = _panel(a_spec, x0)
        g = lambda s: (ka * (s - xa) + ya if la < s < ha else float(a_spec(s))) / (
            k * (s - x) + y if lo < s < hi else float(r_spec(s))
        )
        return g, min(hi, ha)

    return integrand


def _running_integral(integrand: Callable, breaks: list, x: np.ndarray) -> np.ndarray:
    """F(x) = int_0^x g at every point of x, from one pass of segments over the sorted points.

    The segments run from 0 through every distinct positive point and every
    break below the largest point, in increasing order, so no segment
    crosses a break and a repeated point costs nothing.  ``integrand(x0)``
    (:func:`_quotient`) builds g from the constants of the pieces holding
    the segment from x0, and g serves every later segment that ends in them.
    ``quad``, read off the module's ``integrate`` once per pass, runs once
    per segment, and the running sum of the increments is F at each
    segment's end.  A ``quad`` that reports no convergence raises
    ConvergenceError.
    """
    flat = x.ravel().tolist()
    top = max(flat, default=0.0)
    quad, F = integrate.quad, {0.0: 0.0}
    x0, val, upto = 0.0, 0.0, -math.inf
    for end in sorted({s for s in flat if s > 0.0}.union(b for b in breaks if b < top)):
        if end > upto:
            g, upto = integrand(x0)
        inc, _, _, *failure = quad(g, x0, end, epsabs=_RQ_TOL, epsrel=1e-12, limit=200, full_output=1)
        if failure:
            raise ConvergenceError(
                f"adaptive quadrature on [{x0:g}, {end:g}] did not converge: "
                + failure[0].split("\n")[0]
            )
        F[end] = val = val + inc
        x0 = end
    return np.array([F[s] for s in flat], dtype=float).reshape(x.shape)


def _kinks(*specs: CoefficientSpec) -> list:
    """Sorted positive nodes of the tabulated specs, where their slopes may jump."""
    return sorted({x for spec in specs if isinstance(spec, Tabulated) for x in spec._xs if x > 0.0})


def compute_RQ(model: ModelDefinition, x) -> tuple[np.ndarray, np.ndarray]:
    """R(x) = int_0^x ds/r(s) and Q(x) = int_0^x a(s)/r(s) ds at the points x >= 0.

    Returns the two arrays, each of x's shape.  Analytic closed forms are
    evaluated at x whenever r and a are (equivalent to) affine functions, or
    a is a power over a constant r; otherwise each integral takes one pass
    of adaptive quadrature over the sorted points, accumulated from 0.  The
    positive nodes of a tabulated r (for R), and of a tabulated r or a (for
    Q), split the pass into segments that no node crosses, and ``quad`` runs
    once per segment, to the absolute tolerance _RQ_TOL = 1e-10.  Each
    segment's integrand comes from the constants of the panels it lies in,
    and every value it takes is bitwise the coefficients' own.  r must be
    strictly positive on (0, x_max].

    Raises
    ------
    InvalidInputError
        If a point is negative (or NaN).
    ConvergenceError
        If a ``quad`` reports no convergence.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(xs >= 0.0):
        raise InvalidInputError("R and Q are defined for x >= 0 only")
    r_spec, a_spec = model.r, model.a
    r_aff = _as_affine(r_spec)

    if r_aff is None:
        R = _running_integral(_quotient(None, r_spec), _kinks(r_spec), xs)
    else:
        b0, b1 = r_aff
        R = xs / b0 if b1 == 0.0 else np.log1p(b1 * xs / b0) / b1

    a_aff = _as_affine(a_spec)
    if coefficient_is_zero(a_spec):
        Q = np.zeros_like(xs)
    elif a_aff is not None and r_aff is not None:
        a0, a1 = a_aff
        if b1 == 0.0:
            Q = (a0 * xs + 0.5 * a1 * xs**2) / b0
        else:
            # (a0 + a1 x)/(b0 + b1 x) = a1/b1 + (a0 b1 - a1 b0)/b1 / (b0 + b1 x)
            Q = a1 / b1 * xs + (a0 * b1 - a1 * b0) / (b1 * b1) * np.log1p(b1 * xs / b0)
    elif isinstance(a_spec, Power) and r_aff is not None and b1 == 0.0:
        c0, p = a_spec.c0, a_spec.p
        Q = c0 * (xs + np.power(xs, p + 1.0) / (p + 1.0)) / b0
    else:
        Q = _running_integral(_quotient(a_spec, r_spec), _kinks(r_spec, a_spec), xs)
    return R, Q


# ---------------------------------------------------------------------------
# weighted suprema of coefficients


def dual_norm(spec: CoefficientSpec, m: float) -> float:
    """Dual X_m norm of a coefficient: the supremum of spec(x)/(1+x^m) over x >= 0.

    Raises
    ------
    DivergentNormError
        When the coefficient grows faster than x^m (the supremum is infinite).
    """
    if m <= 0:
        raise InvalidInputError("weight exponent must be positive")
    if coefficient_is_zero(spec):
        return 0.0
    if (isinstance(spec, Linear) and m < 1.0 and spec.c1 > 0) or (
        isinstance(spec, Power) and spec.p > m
    ):
        raise DivergentNormError(
            f"coefficient grows faster than x^{m:g}, so its supremum against 1 + x^{m:g} is infinite"
        )
    if isinstance(spec, Linear):
        if m <= 1.0 or spec.c1 == 0.0:
            return max(spec.c0, spec.c1)
        return _affine_sup(0.0, spec.c0, spec.c1, m)
    if isinstance(spec, Power):
        return spec.c0 * _power_sup(spec.p, m)
    return _tabulated_sup(spec, m)


def shift_floor(model: ModelDefinition) -> tuple[float, float]:
    """(omega_r, beta_m); the renewal resolvent holds for lambda > omega_r + beta_m.

    omega_r = 2*m*r0 bounds the growth of the zero-flux transport semigroup,
    r0 = sup r(x)/(1+x) being the smallest bound r(x) <= r0*(1+x); beta_m is
    the dual X_m norm of the renewal weight in the flux convention.
    """
    omega_r = 2.0 * model.m * dual_norm(model.r, 1.0)
    return omega_r, dual_norm(boundary_weight_flux(model), model.m)


# ---------------------------------------------------------------------------
# assumption validator


@dataclass
class AssumptionReport:
    """Empirical checks of the standing kernel/coefficient assumptions."""

    mass_conservation_max_rel: float
    conservative: bool
    b0_fitted: float
    l_fitted: float
    n0_bound_ok: bool
    liminf_estimate: float
    liminf_pass: bool
    c_m_fitted: float
    c_m_pass: bool

    @property
    def all_pass(self) -> bool:
        return bool(self.conservative and self.n0_bound_ok and self.liminf_pass and self.c_m_pass)

    def lines(self) -> list[str]:
        return [
            f"mass_conservation_max_rel={self.mass_conservation_max_rel:.6e}",
            f"conservative={'pass' if self.conservative else 'fail'}",
            f"daughter_count_bound_b0={self.b0_fitted:.6g}",
            f"daughter_count_bound_l={self.l_fitted:.6g}",
            f"daughter_count_bound={'pass' if self.n0_bound_ok else 'fail'}",
            f"moment_defect_liminf={self.liminf_estimate:.6e}",
            f"moment_defect_liminf={'pass' if self.liminf_pass else 'fail'}",
            f"moment_fraction_c_m={self.c_m_fitted:.6g}",
            f"moment_fraction={'pass' if self.c_m_pass else 'fail'}",
        ]


# validate_assumptions samples parent sizes up to _Y_HORIZON; a kernel is
# conservative to _MASS_TOL, and the moment-defect liminf must exceed
# _LIMINF_THRESHOLD
_Y_HORIZON = 1e4
_MASS_TOL = 1e-9
_LIMINF_THRESHOLD = 1e-3


def validate_assumptions(model: ModelDefinition) -> AssumptionReport:
    """Sample the kernel functionals and report which assumptions hold.

    The moments n_m(y) are exact for every kernel (:func:`kernel_moment`);
    only the parent sizes are sampled, 400 of them log-spaced over
    [1, _Y_HORIZON] = [1, 1e4].  Checks: conservation
    |n_1(y) - y| <= _MASS_TOL*y (1e-9); the fitted daughter-count bound
    n_0(y) <= b0*(1+y^l); the lower limit of N_m(y)/y^m over the top decade
    (must exceed _LIMINF_THRESHOLD = 1e-3 to pass); and the fitted moment
    fraction c_m = sup n_m(y)/y^m (must stay below 1).
    """
    kernel, m = model.kernel, model.m
    y_all = np.geomspace(_Y_HORIZON * 1e-4, _Y_HORIZON, 400)
    n1 = np.asarray(kernel_moment(kernel, 1.0, y_all))
    mass_rel = float(np.max(np.abs(n1 - y_all) / y_all))
    conservative = mass_rel <= _MASS_TOL

    n0 = np.asarray(kernel_moment(kernel, 0.0, y_all))
    top = y_all >= _Y_HORIZON / 10.0
    # daughter-count growth exponent from a log-log fit over the top decade
    slope = np.polyfit(np.log(y_all[top]), np.log(np.maximum(n0[top], 1e-300)), 1)[0]
    l_fit = float(slope) if slope > 1e-6 else 0.0
    b0_fit = float(np.max(n0[top] / (1.0 + np.power(y_all[top], l_fit))))
    n0_ok = bool(np.all(n0 <= b0_fit * (1.0 + np.power(y_all, l_fit)) * 1.05 + 1e-12))

    ratio_defect = np.asarray(kernel_defect(kernel, m, y_all[top])) / np.power(y_all[top], m)
    liminf_est = float(np.min(ratio_defect))
    ratio_moment = np.asarray(kernel_moment(kernel, m, y_all[top])) / np.power(y_all[top], m)
    c_m_fit = float(np.max(ratio_moment))

    return AssumptionReport(
        mass_conservation_max_rel=mass_rel,
        conservative=conservative,
        b0_fitted=b0_fit,
        l_fitted=l_fit,
        n0_bound_ok=n0_ok,
        liminf_estimate=liminf_est,
        liminf_pass=liminf_est > _LIMINF_THRESHOLD,
        c_m_fitted=c_m_fit,
        c_m_pass=c_m_fit < 1.0,
    )


# ---------------------------------------------------------------------------
# configuration loading


def _as_float(value) -> float:
    # numbers only: Python reads true as 1, and "30" is a string
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            return float(value)
    raise InvalidModelError(f"expected a number, got {value!r}")


def _as_floats(values) -> np.ndarray:
    if not isinstance(values, list):
        raise InvalidModelError(f"expected a list of numbers, got {values!r}")
    return np.array([_as_float(v) for v in values], dtype=float)


def coefficient_from_config(obj) -> CoefficientSpec:
    """Build a coefficient from its JSON object form (or a bare number)."""
    if not isinstance(obj, dict):
        return Constant(_as_float(obj))
    if "type" not in obj:
        raise InvalidModelError(f"coefficient config must be a number or an object with 'type': {obj!r}")
    kind = obj["type"]
    try:
        if kind == "constant":
            return Constant(_as_float(obj["c"]))
        if kind == "linear":
            return Linear(_as_float(obj.get("c0", 0.0)), _as_float(obj.get("c1", 0.0)))
        if kind == "power":
            return Power(_as_float(obj["c0"]), _as_float(obj["p"]))
        if kind == "tabulated":
            return Tabulated(_as_floats(obj["nodes"]), _as_floats(obj["values"]))
    except KeyError as exc:
        raise InvalidModelError(f"coefficient config missing key {exc} in {obj!r}") from exc
    raise InvalidModelError(f"unknown coefficient type {kind!r}")


def kernel_from_config(obj) -> KernelSpec:
    if not isinstance(obj, dict) or "type" not in obj:
        raise InvalidModelError(f"kernel config must be an object with 'type': {obj!r}")
    kind = obj["type"]
    if kind == "uniform_binary":
        return UniformBinary()
    if kind == "power_law":
        return PowerLaw(_as_float(obj["nu"]))
    if kind == "shrinking_binary":
        eps = obj.get("eps", 0.25)
        if isinstance(eps, dict):
            if eps.get("type") != "inverse":
                raise InvalidModelError(f"unknown split-fraction form {eps!r}")
            eps = InverseEpsilon(_as_float(eps.get("scale", 1.0)))
        else:
            eps = _as_float(eps)
        return ShrinkingBinary(eps)
    if kind == "tabulated":
        return TabulatedKernel(_as_floats(obj["ratios"]), _as_floats(obj["densities"]))
    raise InvalidModelError(f"unknown kernel type {kind!r}")


def model_from_config(cfg: dict) -> ModelDefinition:
    """Assemble a ModelDefinition from a parsed configuration mapping's model
    keys; ``initial``, ``support`` and any other key are left to the caller."""
    try:
        r = coefficient_from_config(cfg["r"])
        a = coefficient_from_config(cfg["a"])
        kernel = kernel_from_config(cfg["kernel"])
        beta = coefficient_from_config(cfg["beta"])
        m = _as_float(cfg["m"])
    except KeyError as exc:
        raise InvalidModelError(f"model config missing key {exc}") from exc
    return ModelDefinition(
        r=r,
        a=a,
        kernel=kernel,
        beta=beta,
        m=m,
        bc_convention=cfg.get("bc_convention", "flux"),
        x_max=_as_float(cfg.get("x_max", 50.0)),
    )


def read_config(path) -> dict:
    """Parse a UTF-8 JSON document whose top level is an object.

    Malformed JSON and any other top level raise InvalidModelError naming
    ``path``; a file that cannot be read raises OSError.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InvalidModelError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise InvalidModelError(f"{path}: top-level config must be an object")
    return cfg


def load_model(path) -> ModelDefinition:
    """Read a model definition from a UTF-8 JSON document."""
    return model_from_config(read_config(path))
