"""Closed-form machinery for the explicitly solvable binary splitting model.

For constant growth speed r, size-proportional splitting rate a*x, uniform
binary daughter distribution 2/y and boundary value u(0,t) = beta0*M0(t) +
beta1*M1(t), the dynamics reduce to explicitly solvable pieces:

* the first two moments M0, M1 obey a linear 2x2 ODE whose propagator and
  eigenvalues lambda_plus/lambda_minus are elementary,
* along characteristics the solution is a double antiderivative of the
  (extended) initial datum; the extension psi to negative arguments is
  determined by a Volterra equation whose forcing F involves only the
  moments, and has an explicit resolution,
* the dominant eigenpair is a Gaussian-times-quadratic profile with an
  affine dual eigenfunction, both with analytic normalizations.

Everything here is analytic or one quadrature away from analytic; the
time-domain solver in :mod:`gfrag.pde` provides the independent
cross-check for general coefficients.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateModelError,
    InvalidInputError,
    InvalidModelError,
)
from .model import (
    GridFunction,
    Linear,
    ModelDefinition,
    PowerLaw,
)

__all__ = [
    "BinaryModelParams",
    "MomentState",
    "ForcingF",
    "lambda_pm",
    "moment_propagator",
    "propagate_moments",
    "moments_from_grid",
    "ClosedFormSolution",
    "evaluate_solution",
    "right_eigenfunction_cf",
    "left_eigenfunction_cf",
    "binary_params_from_model",
    "is_binary_model",
]


@dataclass(frozen=True)
class BinaryModelParams:
    """Binary splitting model in the boundary-value convention.

    Growth speed r is constant, the splitting rate is a*x, daughters are
    uniform binary (density 2/y), and the renewal condition reads
    u(0,t) = beta0*M0(t) + beta1*M1(t), where M0 is the particle count and
    M1 the total size.  Derived quantities: alpha0 = r*beta0 and
    alpha1 = r*beta1 + a drive the moment ODE, whose eigenvalues are
    lambda_plus > 0 > lambda_minus (for a > 0).
    """

    r: float
    a: float
    beta0: float
    beta1: float
    alpha0: float = field(init=False)
    alpha1: float = field(init=False)
    lambda_plus: float = field(init=False)
    lambda_minus: float = field(init=False)

    def __post_init__(self):
        if self.r <= 0 or self.a < 0:
            raise InvalidModelError("binary model needs r > 0 and a >= 0")
        if self.beta0 < 0 or self.beta1 < 0:
            raise InvalidModelError("renewal weights must be nonnegative")
        a0 = self.r * self.beta0
        a1 = self.r * self.beta1 + self.a
        disc = a0 * a0 + 4.0 * self.r * a1
        if disc <= 0:
            raise DegenerateModelError("moment system has no separated real eigenvalues")
        root = math.sqrt(disc)
        object.__setattr__(self, "alpha0", a0)
        object.__setattr__(self, "alpha1", a1)
        object.__setattr__(self, "lambda_plus", 0.5 * (a0 + root))
        object.__setattr__(self, "lambda_minus", 0.5 * (a0 - root))


def lambda_pm(params: BinaryModelParams) -> tuple[float, float]:
    """Eigenvalues (lambda_plus, lambda_minus) of the moment ODE matrix."""
    return params.lambda_plus, params.lambda_minus


@dataclass(frozen=True)
class MomentState:
    """Particle count M0 and total size M1."""

    M0: float
    M1: float

    def __post_init__(self):
        if self.M0 < 0 or self.M1 < 0:
            raise InvalidInputError("moments of nonnegative data must be nonnegative")


def moment_propagator(params: BinaryModelParams, t) -> np.ndarray:
    """Propagator K(t) with (M0, M1)(t) = K(t) (M0, M1)(0); entrywise >= 0.

    ``t`` may be an array of times; K then has shape (2, 2) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise InvalidInputError("time must be nonnegative")
    lp, lm = params.lambda_plus, params.lambda_minus
    if abs(lp - lm) < 1e-14 * max(1.0, abs(lp)):
        raise DegenerateModelError("coincident moment eigenvalues")
    # one time goes through math.exp (libm), an array through np.exp; the two
    # can differ in the last bit
    exp = np.exp if t.ndim else math.exp
    ep, em = exp(lp * t), exp(lm * t)
    gap = lp - lm
    return np.array(
        [
            [(lp * ep - lm * em) / gap, lp * lm * (ep - em) / (params.r * (-gap))],
            [params.r * (ep - em) / gap, (lp * em - lm * ep) / gap],
        ]
    )


def propagate_moments(params: BinaryModelParams, initial: MomentState, t: float) -> MomentState:
    m = moment_propagator(params, t) @ np.array([initial.M0, initial.M1])
    return MomentState(float(m[0]), float(m[1]))


def moments_from_grid(u0: GridFunction) -> MomentState:
    """Count and size of a sampled datum, via the grid quadrature."""
    from .model import quad_weights

    w = quad_weights(u0.nodes)
    return MomentState(
        float(np.sum(w * u0.values)), float(np.sum(w * u0.nodes * u0.values))
    )


class ForcingF:
    """Forcing of the boundary-extension equation,

    F(t) = exp(-a r t^2/2) [beta0 M0(t) + beta1 M1(t)]
           - (2 a t + r a^2 t^3) M0(0) - a^2 t^2 M1(0),

    with the moments propagated by :func:`moment_propagator`.
    """

    def __init__(self, params: BinaryModelParams, initial: MomentState):
        self.params = params
        self.initial = initial

    def _weighted_moment(self, t):
        """(G, M0, M1) at t, G = beta0 M0 + beta1 M1."""
        p, m = self.params, self.initial
        k = moment_propagator(p, t)
        m0 = k[0, 0] * m.M0 + k[0, 1] * m.M1
        m1 = k[1, 0] * m.M0 + k[1, 1] * m.M1
        return p.beta0 * m0 + p.beta1 * m1, m0, m1

    def value(self, t):
        p, m = self.params, self.initial
        t = np.asarray(t, dtype=float)
        g0 = self._weighted_moment(t)[0]
        damp = np.exp(-0.5 * p.a * p.r * t**2)
        out = damp * g0 - (2 * p.a * t + p.r * p.a**2 * t**3) * m.M0 - p.a**2 * t**2 * m.M1
        return out if out.ndim else float(out)


# the most Gauss-Legendre panels one extension table may take, 2**18: about
# 17 MB for each array of panel values
_MAX_PANELS = 2**18


@functools.cache
def _panel_rule() -> tuple[np.ndarray, np.ndarray]:
    """8-point Gauss-Legendre nodes and weights mapped to [0, 1]."""
    gx, gw = np.polynomial.legendre.leggauss(8)
    nodes, weights = 0.5 * (gx + 1.0), 0.5 * gw
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _affine_scan(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Running solution of q_k = c_k q_{k-1} + p_k, q_{-1} = 0, along the
    last axis, by recursive doubling: log2(n) vectorized passes, each
    composing every map with the one 2^j places before it."""
    c, q = c.copy(), p.copy()
    step = 1
    while step < q.shape[-1]:
        q[..., step:] += c[..., step:] * q[..., :-step]
        c[..., step:] = c[..., step:] * c[..., :-step]
        step *= 2
    return q


class _PiecewisePoly:
    """sum_k c[k, i] (z - x[i])^(deg - k) on [x[i], x[i+1]], scipy's ``PPoly``
    layout; points outside [x[0], x[-1]] use the end pieces."""

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c

    def __call__(self, z):
        return self.at(*self.locate(z))

    def locate(self, z):
        """Piece index of each point and its offset from the piece's left knot;
        pieces on the same knots, such as an antiderivative, can share them."""
        z = np.asarray(z, dtype=float)
        i = np.clip(np.searchsorted(self.x, z, side="right") - 1, 0, self.x.size - 2)
        return i, z - self.x[i]

    def at(self, i, s):
        """Value at offset s into piece i, by Horner's rule."""
        out = self.c[0, i]
        for ck in self.c[1:]:
            out = out * s + ck[i]
        return out

    def antiderivative(self) -> "_PiecewisePoly":
        """Running integral from x[0]."""
        deg = self.c.shape[0]
        c = np.zeros((deg + 1, self.x.size - 1))
        c[:-1] = self.c / np.arange(deg, 0, -1)[:, None]
        anti = _PiecewisePoly(self.x, c)
        # while the constant terms are zero, each piece at its right end is
        # its own integral
        c[-1, 1:] = np.cumsum(anti.at(slice(None, -1), np.diff(self.x)[:-1]))
        return anti


def _thomas_pivots(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Pivots m_0 = diag_0, m_i = diag_i - sub_i sup_{i-1} / m_{i-1} of a
    tridiagonal elimination without row exchanges, bitwise as a loop over
    the rows would give them.

    Each pass recomputes every pivot from the previous pass's pivot one row
    up, starting from m = diag.  After k passes the first k pivots are
    final, and the only vector a pass leaves unchanged is the sequential
    one, so the passes stop there.  On the spline systems the recurrence
    contracts: in an interior row an error in m_{i-1} reaches m_i scaled by
    at most h_i / (12 h_{i-1}), h the panel widths, so the passes stop
    after 15-16 on uniform grids and on grids with width ratios up to 10.
    """
    coupling = sub[1:] * sup[:-1]
    m = diag
    for _ in range(diag.size):
        nxt = diag.copy()
        nxt[1:] -= coupling / m[:-1]
        if (nxt == m).all():
            break
        m = nxt
    return m


def _not_a_knot_splines(x: np.ndarray, ys: np.ndarray) -> list[_PiecewisePoly]:
    """Cubic interpolants of each row of ``ys`` at the knots ``x``.

    Knots, end conditions and coefficients are those of scipy's
    ``CubicSpline(x, y)``: not-a-knot ends, a line through two knots and
    a parabola through three.  For four or more knots the slopes solve
    scipy's tridiagonal system; the pivots depend on the grid alone and
    come from :func:`_thomas_pivots`, and forward elimination and back
    substitution are two :func:`_affine_scan` passes over all rows at once.
    """
    h = np.diff(x)
    slope = np.diff(ys) / h
    if x.size == 2:
        s = np.concatenate((slope, slope), axis=-1)
    elif x.size == 3:
        bend = (slope[:, 1:] - slope[:, :1]) / (x[2] - x[0])
        s = np.concatenate((slope[:, :1] - bend * h[0], slope[:, :1] + bend * h[0],
                            slope[:, 1:] + bend * h[1]), axis=-1)
    else:
        n = x.size
        sub, diag, sup = np.zeros(n), np.empty(n), np.zeros(n)
        sub[1:-1], diag[1:-1], sup[1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
        rhs = np.empty_like(ys)
        rhs[:, 1:-1] = 3.0 * (h[1:] * slope[:, :-1] + h[:-1] * slope[:, 1:])
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        diag[0], sup[0] = h[1], d0
        rhs[:, 0] = ((h[0] + 2.0 * d0) * h[1] * slope[:, 0] + h[0] ** 2 * slope[:, 1]) / d0
        sub[-1], diag[-1] = d1, h[-2]
        rhs[:, -1] = (h[-1] ** 2 * slope[:, -2] + (2.0 * d1 + h[-1]) * h[-2] * slope[:, -1]) / d1
        pivot = _thomas_pivots(sub, diag, sup)
        forward = _affine_scan(-sub / pivot, rhs / pivot)
        s = _affine_scan(-(sup / pivot)[::-1], forward[:, ::-1])[:, ::-1]
    # Hermite form on each panel, as scipy's CubicHermiteSpline
    t = (s[:, :-1] + s[:, 1:] - 2.0 * slope) / h
    coeffs = np.stack((t / h, (slope - s[:, :-1]) / h - t, s[:, :-1], ys[:, :-1]), axis=1)
    return [_PiecewisePoly(x, c) for c in coeffs]


def _psi_samples(f: ForcingF, xi) -> np.ndarray:
    """Extension values at nonpositive offsets ``xi`` (any order, 0 allowed).

    Variation of constants gives, at xi = -r t,

        psi(-r t) = F(t) + int_0^t e^{a r (s^2 - t^2)/2}
                    [ A sinh(w (t-s)) + B cosh(w (t-s)) ] F(s) ds,
        A = a^2 t^2 r^2 / w,  B = -2 a t r,  w = sqrt(ar),

    which needs no derivatives of F.  Equivalently psi(-r t) = Y''(t) for
    the Y with Y(0) = Y'(0) = 0 and Y'' + 2 a r t Y' + (a r t)^2 Y = F.
    F is the renewal part e^{-a r t^2/2} G(t), G = beta0 M0 + beta1 M1,
    plus the cubic P(t) = -(2 a t + r a^2 t^3) M0(0) - a^2 t^2 M1(0), and the
    response to P is exact: -M0(0) t/r - M1(0)/r^2 solves the equation with
    P and has no second derivative, which leaves the homogeneous solution
    e^{-a r t^2/2} Z with the opposite initial data,
    Z = M1(0) cosh(w t)/r^2 + M0(0) sinh(w t)/(r w), so that

        psi_P(-r t) = e^{-a r t^2/2} [ (a r t)^2 Z - 2 a r t Z' ].

    Integrating P numerically instead would leave a value that decays
    like e^{-a r t^2/2} as the difference of terms growing like t^4, and
    lose every digit of psi at long horizons.

    The renewal part goes through the integral.  Splitting sinh and cosh
    into e^{+-w(t-s)}/2 leaves A (Qg - Qd)/2 + B (Qg + Qd)/2 with the
    running integrals Q(t) = e^{-a r t^2/2} int_0^t e^{+-w (t-s)} G(s) ds.
    Between consecutive sorted times each Q is multiplied by
    e^{-a r (t_k^2 - t_{k-1}^2)/2 +- w h_k} and gains one 8-point
    Gauss-Legendre panel integral, so a table costs O(n) work.  Every
    carried factor is a value of e^{(t-s)(+-w - a r (t+s)/2)} <= e^{1/2},
    so nothing overflows however long the horizon.  A table that would
    need more than _MAX_PANELS panels raises ConvergenceError.  The test
    suite checks
    the table against adaptive quadrature of the double-derivative
    resolution of the same Volterra equation.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi > 0):
        raise InvalidInputError("the extension lives on nonpositive offsets")
    p, m = f.params, f.initial
    a, r = p.a, p.r
    t = -xi / r
    if a == 0.0:
        return np.asarray(f.value(t), dtype=float)
    # sorted distinct times from 0; where[1:] maps each input to its node
    nodes, where = np.unique(np.concatenate(([0.0], t.ravel())), return_inverse=True)
    w = math.sqrt(a * r)
    # no panel wider than the integrand's shortest e-fold: sparse inputs
    # get evenly spaced interior nodes, a 2048-point table none
    rate = max(w, p.lambda_plus, -p.lambda_minus)
    pieces = np.ceil(np.diff(nodes) * rate)
    if not np.sum(pieces) <= _MAX_PANELS:
        raise ConvergenceError(
            f"the boundary extension to t = {nodes[-1]:g} needs {np.sum(pieces):.3g} "
            f"quadrature panels, more than {_MAX_PANELS}; use a shorter horizon"
        )
    pieces = pieces.astype(int)
    if np.any(pieces > 1):
        pieces = np.maximum(pieces, 1)
        ends = np.cumsum(pieces)
        step = np.repeat(np.diff(nodes) / pieces, pieces)
        k = np.arange(ends[-1]) - np.repeat(ends - pieces, pieces)
        nodes = np.append(np.repeat(nodes[:-1], pieces) + k * step, nodes[-1])
        where = np.append(0, ends)[where]
    art = a * r * nodes
    gauss = np.exp(-0.5 * art * nodes)

    gx, gw = _panel_rule()
    t0, t1 = nodes[:-1, None], nodes[1:, None]
    h = t1 - t0
    s = t0 + h * gx
    lag = np.exp(w * (t1 - s))
    weighted = (h * gw) * f._weighted_moment(s)[0]
    panels = gauss[1:] * np.stack((np.sum(lag * weighted, axis=1), np.sum(weighted / lag, axis=1)))
    mean = 0.5 * a * r * (t0 + t1)[:, 0]
    carry = np.exp(np.stack((h[:, 0] * (w - mean), -h[:, 0] * (w + mean))))
    q_grow, q_decay = _affine_scan(carry, panels)

    grow = np.exp(w * nodes - 0.5 * art * nodes)
    decay = np.exp(-w * nodes - 0.5 * art * nodes)
    z = 0.5 * (m.M1 / r**2 * (grow + decay) + m.M0 / (r * w) * (grow - decay))
    dz = 0.5 * (m.M1 * w / r**2 * (grow - decay) + m.M0 / r * (grow + decay))
    psi = gauss * f._weighted_moment(nodes)[0] + art * (art * z - 2.0 * dz)
    art = art[1:]
    psi[1:] += 0.5 * art**2 / w * (q_grow - q_decay) - art * (q_grow + q_decay)
    return psi[where[1:]].reshape(xi.shape)


# largest ratio of the summed term sizes to the solution that evaluate accepts
MAX_CANCELLATION = 1e6
# a callable datum is sampled at _DATUM_SAMPLES points on [0, _DATUM_X_MAX];
# the boundary extension is tabulated at _TABLE_POINTS offsets
_DATUM_X_MAX = 50.0
_DATUM_SAMPLES = 8000
_TABLE_POINTS = 2048


class ClosedFormSolution:
    """Prepared evaluator for the explicit two-branch solution formula.

    The datum may be a :class:`GridFunction`, taken on its own nodes with
    the value at zero prepended, or a callable, sampled at _DATUM_SAMPLES =
    8000 points on [0, _DATUM_X_MAX] = [0, 50].  The ``x_max`` attribute
    is the last sample, beyond which the datum counts as zero.  Its suffix
    integrals are stored as cubic-spline antiderivatives.  The boundary
    extension is tabulated once on _TABLE_POINTS = 2048 characteristic
    offsets covering [0, t_max] (one O(n) pass of :func:`_psi_samples`) and
    splined together with its own running integrals, so point evaluation
    costs O(1) quadrature-free work.  The splines are the not-a-knot cubics
    of scipy's ``CubicSpline``, built in numpy by
    :func:`_not_a_knot_splines`: the datum and x times the datum share one
    set of elimination pivots, the extension and xi times the extension
    another, and values and antiderivatives are found by ``searchsorted``
    and Horner's rule.  A non-finite datum sample raises InvalidInputError,
    an extension table that overflows before t_max ConvergenceError, and
    :meth:`evaluate` refuses times at which the formula's terms cancel
    beyond MAX_CANCELLATION.
    """

    def __init__(self, params: BinaryModelParams, u0, t_max: float = 4.0):
        self.params = params
        self.t_max = float(t_max)
        if isinstance(u0, GridFunction):
            inner = u0.nodes[u0.nodes > 0]
            x = np.concatenate(([0.0], inner))
            y = np.concatenate(([float(u0(0.0))], np.asarray(u0(inner), dtype=float)))
            self.x_max = float(u0.nodes[-1])
        else:
            x = np.linspace(0.0, _DATUM_X_MAX, _DATUM_SAMPLES)
            y = np.asarray(u0(x), dtype=float)
            self.x_max = _DATUM_X_MAX
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("the initial datum must be finite")
        self._u0, moment_spline = _not_a_knot_splines(x, np.stack((y, x * y)))
        self._u0_anti = self._u0.antiderivative()
        self._u0_x_anti = moment_spline.antiderivative()
        self._total0 = float(self._u0_anti(x[-1]))
        self._total1 = float(self._u0_x_anti(x[-1]))
        self.initial = MomentState(self._total0, self._total1)
        self.forcing = ForcingF(params, self.initial)

        xi = np.linspace(-params.r * self.t_max, 0.0, _TABLE_POINTS)
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _psi_samples(self.forcing, xi)
        if not np.all(np.isfinite(psi)):
            raise ConvergenceError(
                f"the closed form's boundary extension overflows before t = {self.t_max:g}; "
                "use a shorter horizon"
            )
        self._psi, psi_x = _not_a_knot_splines(xi, np.stack((psi, xi * psi)))
        self._psi_anti = self._psi.antiderivative()
        self._psi_x_anti = psi_x.antiderivative()
        self._psi_total0 = float(self._psi_anti(0.0))
        self._psi_total1 = float(self._psi_x_anti(0.0))

    def evaluate(self, x, t: float):
        """Solution value u(x, t); vectorized over x.

        Both branches multiply a bracket of several terms by
        e^{a t (r t - 2 x)/2}; below the front the bracket must cancel to
        about e^{-a r t^2/2}, so the terms can exceed the value by orders of
        magnitude.  When the largest prefactor-scaled sum of absolute terms
        exceeds the largest |u| by more than MAX_CANCELLATION, the digits
        left are noise and a ConvergenceError is raised instead.
        """
        if t < 0:
            raise InvalidInputError("time must be nonnegative")
        if t > self.t_max + 1e-12:
            raise InvalidInputError(f"evaluator prepared for t <= {self.t_max}")
        p = self.params
        a, r = p.a, p.r
        x_arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x_arr)
        at = a * t
        xi0 = xs - r * t

        upper = xi0 >= 0.0
        zu = np.where(upper, xi0, 0.0)
        # the datum and its suffix integrals int_z^inf u0, int_z^inf s u0(s) ds
        # vanish beyond x_max
        cell = self._u0.locate(np.minimum(zu, self.x_max))
        head = np.where(zu > self.x_max, 0.0, self._u0.at(*cell))
        tail0 = self._total0 - self._u0_anti.at(*cell)
        tail1 = self._total1 - self._u0_x_anti.at(*cell)
        bulk = head + at * ((2.0 - at * zu) * tail0 + at * tail1)
        bulk_size = np.abs(head) + at * (np.abs((2.0 - at * zu) * tail0) + at * np.abs(tail1))

        zl = np.where(upper, 0.0, np.maximum(xi0, -r * t))
        m = self.initial
        mass = at * (2.0 + a * r * t * t - at * xs) * m.M0
        cell = self._psi.locate(zl)
        ext = self._psi.at(*cell)
        ext0 = (2.0 - at * zl) * (self._psi_total0 - self._psi_anti.at(*cell))
        ext1 = at * (self._psi_total1 - self._psi_x_anti.at(*cell))
        lower = mass + at * at * m.M1 + ext + at * (ext0 + ext1)
        lower_size = (
            np.abs(mass) + at * at * m.M1 + np.abs(ext) + at * (np.abs(ext0) + np.abs(ext1))
        )

        with np.errstate(over="ignore", invalid="ignore"):
            pref = np.exp(0.5 * at * (r * t - 2.0 * xs))
            out = pref * np.where(upper, bulk, lower)
            worst = np.max(pref * np.where(upper, bulk_size, lower_size), initial=0.0)
        if not np.isfinite(worst):
            raise ConvergenceError(f"the closed form overflows at t = {t:g}; use a shorter horizon")
        peak = np.max(np.abs(out), initial=0.0)
        if worst > MAX_CANCELLATION * peak:
            ratio = worst / peak if peak > 0 else math.inf
            raise ConvergenceError(
                f"the closed form at t = {t:g} cancels terms {ratio:.1e} times larger "
                "than the solution; use a shorter horizon"
            )
        return out if x_arr.ndim else float(out[0])

    def boundary_value(self, t: float) -> float:
        """beta0 M0(t) + beta1 M1(t), the exact boundary trace."""
        m = propagate_moments(self.params, self.initial, t)
        return self.params.beta0 * m.M0 + self.params.beta1 * m.M1


def evaluate_solution(params: BinaryModelParams, u0, x, t: float):
    """Explicit solution value u(x, t) for the binary model.

    x may be a scalar or an array; each call prepares its own evaluator
    (datum suffix integrals plus extension table).
    """
    return ClosedFormSolution(params, u0, t_max=max(float(t), 4.0)).evaluate(x, t)


# ---------------------------------------------------------------------------
# dominant eigenpair, closed form


def right_eigenfunction_cf(params: BinaryModelParams):
    """Analytic dominant eigenfunction as a vectorized callable.

    v(x) = kappa e^{-(a x + s0)^2/(2 a r)} ((a x + s0)^2/(a r) - 1) with
    s0 = lambda_plus and kappa = (a/s0) e^{s0^2/(2 a r)}; the normalization
    gives int_0^inf v = 1 exactly (int_0^inf x v = r/s0 as a byproduct).
    """
    if params.a <= 0:
        raise InvalidModelError("eigenpair requires a positive splitting rate")
    a, r, s0 = params.a, params.r, params.lambda_plus

    def v(x):
        shifted = a * np.asarray(x, dtype=float) + s0
        out = (a / s0) * np.exp(0.5 * (s0 * s0 - shifted**2) / (a * r)) * (
            shifted**2 / (a * r) - 1.0
        )
        return out if out.ndim else float(out)

    return v


def left_eigenfunction_cf(params: BinaryModelParams):
    """Analytic dual eigenfunction as a vectorized callable.

    w(x) = (alpha1 x + lambda_plus)/(lambda_plus - lambda_minus), scaled so
    that <w, v> = 1 against the unit-integral right eigenfunction.
    """
    if params.a <= 0:
        raise InvalidModelError("eigenpair requires a positive splitting rate")
    sigma = 1.0 / (params.lambda_plus - params.lambda_minus)

    def w(x):
        out = sigma * (params.alpha1 * np.asarray(x, dtype=float) + params.lambda_plus)
        return out if out.ndim else float(out)

    return w


# ---------------------------------------------------------------------------
# bridge to general model definitions


def is_binary_model(model: ModelDefinition) -> bool:
    """True when the model lies in the explicitly solvable binary family, read
    off its parameters: constant growth (``r`` linear with c1 = 0), splitting
    rate proportional to size (``a`` linear with c0 = 0), uniform binary
    daughters (power law with nu = 0) and an affine renewal weight."""
    r, a, kernel = model.r, model.a, model.kernel
    return (
        isinstance(r, Linear) and r.c1 == 0.0
        and isinstance(a, Linear) and a.c0 == 0.0
        and isinstance(kernel, PowerLaw) and kernel.nu == 0.0
        and isinstance(model.beta, Linear)
    )


def binary_params_from_model(model: ModelDefinition) -> BinaryModelParams:
    """Extract closed-form parameters; the renewal weight is converted to
    the boundary-value convention (divide by r(0) when given as a flux)."""
    if not is_binary_model(model):
        raise InvalidInputError("model is outside the closed-form family")
    b0, b1 = model.beta.c0, model.beta.c1
    r = model.r.c0
    if model.bc_convention == "flux":
        b0, b1 = b0 / r, b1 / r
    return BinaryModelParams(r=r, a=model.a.c1, beta0=b0, beta1=b1)
