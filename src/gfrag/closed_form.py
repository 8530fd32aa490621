"""Closed-form machinery for the explicitly solvable binary splitting model.

For constant growth speed r, size-proportional splitting rate a*x, uniform
binary daughter distribution 2/y and boundary value u(0,t) = beta0*M0(t) +
beta1*M1(t), the dynamics reduce to explicitly solvable pieces:

* the first two moments M0, M1 obey a linear 2x2 ODE whose propagator and
  eigenvalues lambda_plus/lambda_minus are elementary,
* along characteristics the solution is a double antiderivative of the
  (extended) initial datum; the extension psi to negative arguments is
  determined by a Volterra equation whose forcing F involves only the
  moments, and has an explicit resolution, as have its running integrals,
* the dominant eigenpair is a Gaussian-times-quadratic profile with an
  affine dual eigenfunction, both with analytic normalizations.

Everything here is analytic but the datum's suffix integrals, which are
those of its cubic-spline interpolant; the time-domain solver in
:mod:`gfrag.pde` provides the independent cross-check for general
coefficients.
"""

from __future__ import annotations

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
    Linear,
    ModelDefinition,
    PowerLaw,
    _grid_samples,
    midpoint_grid,
    quad_weights,
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
        if not all(map(math.isfinite, (self.r, self.a, self.beta0, self.beta1))):
            raise InvalidModelError("binary model parameters must be finite")
        if self.r <= 0 or self.a < 0:
            raise InvalidModelError("binary model needs r > 0 and a >= 0")
        if self.beta0 < 0 or self.beta1 < 0:
            raise InvalidModelError("renewal weights must be nonnegative")
        a0 = self.r * self.beta0
        a1 = self.r * self.beta1 + self.a
        # a0, a1 >= 0; every closed form divides by the gap
        # lambda_plus - lambda_minus = root
        root = math.sqrt(a0 * a0 + 4.0 * self.r * a1)
        if root < 1e-14 * max(1.0, 0.5 * (a0 + root)):
            raise DegenerateModelError("coincident moment eigenvalues")
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


def _propagator(params: BinaryModelParams, ep, em) -> np.ndarray:
    """K with e^{lambda_plus t} and e^{lambda_minus t} replaced by ep and em:
    the two halves K+ = _propagator(params, 1, 0) and K- = _propagator(params,
    0, 1) give K(t) = K+ e^{lambda_plus t} + K- e^{lambda_minus t}."""
    lp, lm = params.lambda_plus, params.lambda_minus
    gap = lp - lm
    return np.array(
        [
            [(lp * ep - lm * em) / gap, lp * lm * (ep - em) / (params.r * (-gap))],
            [params.r * (ep - em) / gap, (lp * em - lm * ep) / gap],
        ]
    )


def moment_propagator(params: BinaryModelParams, t) -> np.ndarray:
    """Propagator K(t) with (M0, M1)(t) = K(t) (M0, M1)(0); entrywise >= 0.

    ``t`` may be an array of times; K then has shape (2, 2) + t.shape.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise InvalidInputError("time must be finite and nonnegative")
    lp, lm = params.lambda_plus, params.lambda_minus
    # one time goes through math.exp (libm), an array through np.exp; the two
    # can differ in the last bit
    exp = np.exp if t.ndim else math.exp
    return _propagator(params, exp(lp * t), exp(lm * t))


def propagate_moments(params: BinaryModelParams, initial: MomentState, t: float) -> MomentState:
    m = moment_propagator(params, t) @ np.array([initial.M0, initial.M1])
    return MomentState(float(m[0]), float(m[1]))


def moments_from_grid(model: ModelDefinition, values) -> MomentState:
    """Count and size of samples on ``midpoint_grid(model.x_max, values.size)``,
    via the grid quadrature."""
    values = _grid_samples(values)
    return _grid_moments(midpoint_grid(model.x_max, values.size), values)


def _grid_moments(nodes: np.ndarray, values: np.ndarray) -> MomentState:
    """:func:`moments_from_grid` of values already on ``nodes``, unchecked."""
    w = quad_weights(nodes)
    return MomentState(float(np.sum(w * values)), float(np.sum(w * nodes * values)))


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
        return self._weighted(moment_propagator(self.params, t))

    def _weighted(self, k):
        """(G, M0, M1) for the propagator k; see :func:`_propagator`."""
        p, m = self.params, self.initial
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
    """Cubic interpolants of each row of ``ys`` at the knots ``x``; they
    carry :class:`ClosedFormSolution`'s datum and x times the datum.

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


def _phi(y: np.ndarray) -> np.ndarray:
    """(1 - e^{-y}) / y for y >= 0, with its limit 1 at y = 0."""
    return np.divide(-np.expm1(-y), y, out=np.ones_like(y), where=y > 0.0)


def _extension(f: ForcingF, xi):
    """Boundary extension psi and its running integrals at nonpositive
    offsets ``xi`` (any shape, 0 allowed): the triple (psi(xi),
    int_xi^0 psi(s) ds, int_xi^0 s psi(s) ds).

    At xi = -r t, psi(-r t) = Y''(t) for the Y with Y(0) = Y'(0) = 0 and
    Y'' + 2 a r t Y' + (a r t)^2 Y = F, so the integrals are r Y'(t) and
    -r^2 (t Y'(t) - Y(t)).  With Y = e^{-a r t^2/2} V the equation reads
    V'' - w^2 V = e^{a r t^2/2} F, w = sqrt(ar), and variation of constants
    solves it with no derivatives of F.  F is the renewal part
    e^{-a r t^2/2} G(t), G = beta0 M0 + beta1 M1, plus the cubic
    P(t) = -(2 a t + r a^2 t^3) M0(0) - a^2 t^2 M1(0).

    The response to P is exact: -M0(0) t/r - M1(0)/r^2 solves the equation
    with P, and the homogeneous solution z = e^{-a r t^2/2} Z with the
    opposite initial data, Z = M1(0) cosh(w t)/r^2 + M0(0) sinh(w t)/(r w),
    completes it.  In psi = F - 2 a r t Y' - (a r t)^2 Y the terms of
    -M0(0) t/r - M1(0)/r^2 cancel P by hand, leaving
    e^{-a r t^2/2} G - 2 a r t y' - (a r t)^2 y for the rest y of Y, and in
    the integrals they leave -M0(0) and -M1(0).
    Integrating P instead would leave a value that decays like
    e^{-a r t^2/2} as the difference of terms growing like t^4, and lose
    every digit of psi at long horizons.

    The response to the renewal part is exact too: (Qg - Qd)/(2w) with the
    running integrals

        Q(t) = e^{-a r t^2/2} int_0^t e^{+-w (t-s)} G(s) ds
             = sum_lambda g_lambda t e^{max(lambda t, +-w t) - a r t^2/2}
               phi(|lambda -+ w| t),   phi(y) = (1 - e^{-y})/y,

    because the propagator is a sum of two exponentials: G(s) =
    g+ e^{lambda_plus s} + g- e^{lambda_minus s} with g+- = (beta0, beta1)
    K+- M(0), K+- the halves of :func:`_propagator`.  The terms of
    e^{-a r t^2/2} G carry the Gaussian in their exponents too.  Each offset
    costs O(1) work on its own.  No exponent exceeds lambda_plus t
    (lambda_plus >= w), and phi lies in (0, 1], so no exponential
    overflows before the moments do, and nothing divides by zero.

    The integrals lose digits to themselves where t or w t is small, as
    their O(1) terms cancel and Qg - Qd and sinh(w t)/w lose theirs: at
    t = 0.01, int s psi is 6e-11 off quadrature relatively at a = 1e-3,
    1e-8 at a = 1e-8 and 2e-6 at a = 1e-12.  They enter the solution
    multiplied by a t and (a t)^2, so its error stays at roundoff.  Without
    splitting (a = 0) they do not enter it at all: psi is F, and the
    integrals come back as None.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi > 0):
        raise InvalidInputError("the extension lives on nonpositive offsets")
    p, m = f.params, f.initial
    a, r = p.a, p.r
    t = -xi / r
    if a == 0.0:
        return np.asarray(f.value(t), dtype=float), None, None
    w = math.sqrt(a * r)
    art = a * r * t
    half = 0.5 * art * t
    lp, lm = p.lambda_plus, p.lambda_minus
    gauss_g = f._weighted(_propagator(p, np.exp(lp * t - half), np.exp(lm * t - half)))[0]
    halves = ((f._weighted(_propagator(p, 1.0, 0.0))[0], lp),
              (f._weighted(_propagator(p, 0.0, 1.0))[0], lm))

    def running(rate):
        """e^{-a r t^2/2} int_0^t e^{rate (t-s)} G(s) ds."""
        return sum(g * t * np.exp(np.maximum(lam, rate) * t - half) * _phi(abs(lam - rate) * t)
                   for g, lam in halves)

    q_grow, q_decay = running(w), running(-w)

    grow = np.exp(w * t - half)
    decay = np.exp(-w * t - half)
    z = 0.5 * (m.M1 / r**2 * (grow + decay) + m.M0 / (r * w) * (grow - decay))
    dz = 0.5 * (m.M1 * w / r**2 * (grow - decay) + m.M0 / r * (grow + decay))
    # y and y', Y and Y' without the terms of -M0(0) t/r - M1(0)/r^2
    y = 0.5 / w * (q_grow - q_decay) + z
    dy = 0.5 * (q_grow + q_decay) - art * y + dz
    psi = gauss_g - art * (art * y + 2.0 * dy)
    return psi, r * dy - m.M0, r**2 * (y - t * dy) - m.M1


# largest ratio of the summed term sizes to the solution that evaluate accepts
MAX_CANCELLATION = 1e6
# a callable datum is sampled at _DATUM_SAMPLES points on [0, _DATUM_X_MAX]
_DATUM_X_MAX = 50.0
_DATUM_SAMPLES = 8000
# e^x overflows a double for x above this
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _sampled_datum(nodes, values) -> tuple[np.ndarray, np.ndarray]:
    """Knots and samples of a ``(nodes, values)`` datum, from 0 on."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.size < 2 or nodes.shape != values.shape:
        raise InvalidInputError("a sampled datum needs two 1-D arrays of equal length >= 2")
    # comparisons with NaN are false, so NaN nodes fail here too
    if not (np.all(np.diff(nodes) > 0) and 0 <= nodes[0] and math.isfinite(nodes[-1])):
        raise InvalidInputError("datum nodes must be finite, strictly increasing and nonnegative")
    if nodes[0] > 0:
        return np.concatenate(([0.0], nodes)), np.concatenate((values[:1], values))
    return nodes, values


class ClosedFormSolution:
    """Prepared evaluator for the explicit two-branch solution formula.

    The datum ``u0`` is a callable, sampled at _DATUM_SAMPLES = 8000 points
    on [0, _DATUM_X_MAX] = [0, 50], or a pair ``(nodes, values)`` of 1-D
    arrays sampled on finite, nonnegative, strictly increasing nodes (other
    nodes raise InvalidInputError); when the first node is positive, the
    first sample is prepended as the value at zero.  The ``x_max``
    attribute is the last node, beyond which the datum counts as zero.
    Its suffix integrals are stored as cubic-spline antiderivatives: the
    not-a-knot cubics of scipy's ``CubicSpline``, built in numpy by
    :func:`_not_a_knot_splines` for the datum and x times the datum with
    one set of elimination pivots, and read by ``searchsorted`` and
    Horner's rule.  A non-finite datum sample raises InvalidInputError.
    The boundary extension and its running integrals are exact and cost
    O(1) work per point (:func:`_extension`), so :meth:`evaluate` takes
    them at the points it is asked for, at any horizon at which the
    moments stay in the float range.
    """

    def __init__(self, params: BinaryModelParams, u0):
        self.params = params
        if callable(u0):
            x = np.linspace(0.0, _DATUM_X_MAX, _DATUM_SAMPLES)
            y = np.asarray(u0(x), dtype=float)
        else:
            x, y = _sampled_datum(*u0)
        self.x_max = float(x[-1])
        if not np.all(np.isfinite(y)):
            raise InvalidInputError("the initial datum must be finite")
        self._u0, moment_spline = _not_a_knot_splines(x, np.stack((y, x * y)))
        self._u0_anti = self._u0.antiderivative()
        self._u0_x_anti = moment_spline.antiderivative()
        self._total0 = float(self._u0_anti(x[-1]))
        self._total1 = float(self._u0_x_anti(x[-1]))
        self.initial = MomentState(self._total0, self._total1)
        self.forcing = ForcingF(params, self.initial)

    def evaluate(self, x, t: float):
        """Solution value u(x, t); vectorized over x.

        A size that is negative, infinite or NaN raises InvalidInputError.
        A time at which the moments overflow (e^{lambda_plus t} beyond the
        float range) raises ConvergenceError before anything is computed;
        below it no exponent of the boundary extension exceeds
        lambda_plus t, so only moments near the float range can make the
        formula overflow, which raises ConvergenceError too.  Both branches
        multiply a bracket of several terms by e^{a t (r t - 2 x)/2}; below
        the front the bracket must cancel to about e^{-a r t^2/2}, so the
        terms can exceed the value by orders of magnitude.  When the
        largest prefactor-scaled sum of absolute terms exceeds the largest
        |u| by more than MAX_CANCELLATION, the digits left are noise and a
        ConvergenceError is raised instead.
        """
        if not t >= 0:  # NaN fails this too
            raise InvalidInputError("time must be nonnegative")
        x_arr = np.asarray(x, dtype=float)
        xs = np.atleast_1d(x_arr)
        if not np.all((xs >= 0.0) & (xs < math.inf)):  # NaN fails this too
            raise InvalidInputError("sizes must be finite and nonnegative")
        p = self.params
        if p.lambda_plus * t > _LOG_FLOAT_MAX:
            raise ConvergenceError(
                f"the closed form's moments overflow before t = {t:g}; use a shorter horizon"
            )
        a, r = p.a, p.r
        at = a * t
        xi0 = xs - r * t

        # each branch on its own points: the bracket and the sum of the
        # absolute values of its terms
        bracket, size = np.empty_like(xs), np.empty_like(xs)
        upper = xi0 >= 0.0
        zu = xi0[upper]
        # the datum and its suffix integrals int_z^inf u0, int_z^inf s u0(s) ds
        # vanish beyond x_max
        cell = self._u0.locate(np.minimum(zu, self.x_max))
        head = np.where(zu > self.x_max, 0.0, self._u0.at(*cell))
        tail0 = self._total0 - self._u0_anti.at(*cell)
        tail1 = self._total1 - self._u0_x_anti.at(*cell)
        bracket[upper] = head + at * ((2.0 - at * zu) * tail0 + at * tail1)
        size[upper] = np.abs(head) + at * (np.abs((2.0 - at * zu) * tail0) + at * np.abs(tail1))

        lower = ~upper
        zl = np.maximum(xi0[lower], -r * t)
        m = self.initial
        mass = at * (2.0 + a * r * t * t - at * xs[lower]) * m.M0
        with np.errstate(over="ignore", invalid="ignore"):
            ext, ext_int0, ext_int1 = _extension(self.forcing, zl)
            bracket[lower] = mass + at * at * m.M1 + ext
            size[lower] = np.abs(mass) + at * at * m.M1 + np.abs(ext)
            if a > 0.0:
                ext0 = (2.0 - at * zl) * ext_int0
                ext1 = at * ext_int1
                bracket[lower] += at * (ext0 + ext1)
                size[lower] += at * (np.abs(ext0) + np.abs(ext1))
            pref = np.exp(0.5 * at * (r * t - 2.0 * xs))
            out = pref * bracket
            worst = np.max(pref * size, initial=0.0)
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
    (the datum's suffix integrals).
    """
    return ClosedFormSolution(params, u0).evaluate(x, t)


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
