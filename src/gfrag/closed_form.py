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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateModelError,
    InvalidInputError,
    InvalidModelError,
)
from .model import (
    Constant,
    GridFunction,
    Linear,
    ModelDefinition,
    UniformBinary,
    midpoint_grid,
)

__all__ = [
    "BinaryModelParams",
    "MomentState",
    "ForcingF",
    "lambda_pm",
    "moment_propagator",
    "propagate_moments",
    "moments_from_grid",
    "boundary_extension_psi",
    "ClosedFormSolution",
    "evaluate_solution",
    "tail_bound_check",
    "right_eigenfunction_cf",
    "left_eigenfunction_cf",
    "right_eigenpair_cf",
    "left_eigenpair_cf",
    "asymptotic_profile",
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
    alpha0: float = None
    alpha1: float = None
    lambda_plus: float = None
    lambda_minus: float = None

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


def moment_propagator(params: BinaryModelParams, t: float) -> np.ndarray:
    """Propagator K(t) with (M0, M1)(t) = K(t) (M0, M1)(0); entrywise >= 0."""
    if t < 0:
        raise InvalidInputError("time must be nonnegative")
    lp, lm = params.lambda_plus, params.lambda_minus
    if abs(lp - lm) < 1e-14 * max(1.0, abs(lp)):
        raise DegenerateModelError("coincident moment eigenvalues")
    ep, em = math.exp(lp * t), math.exp(lm * t)
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
    """Forcing of the boundary-extension equation, with two derivatives.

    F(t) = exp(-a r t^2/2) [beta0 M0(t) + beta1 M1(t)]
           - (2 a t + r a^2 t^3) M0(0) - a^2 t^2 M1(0).

    F' and F'' are produced by closed-form differentiation: the weighted
    moment G(t) = beta0 M0(t) + beta1 M1(t) differentiates through the
    moment ODE, G^(k) = (beta0, beta1) A^k M(t), so no numeric
    differentiation enters.
    """

    def __init__(self, params: BinaryModelParams, initial: MomentState):
        self.params = params
        self.initial = initial

    def _weighted_moment(self, t):
        """(G, M0, M1) at t, G = beta0 M0 + beta1 M1."""
        p = self.params
        lp, lm, gap = p.lambda_plus, p.lambda_minus, p.lambda_plus - p.lambda_minus
        ep, em = np.exp(lp * t), np.exp(lm * t)
        m0 = ((lp * ep - lm * em) * self.initial.M0 - lp * lm * (ep - em) / p.r * self.initial.M1) / gap
        m1 = (p.r * (ep - em) * self.initial.M0 + (lp * em - lm * ep) * self.initial.M1) / gap
        return p.beta0 * m0 + p.beta1 * m1, m0, m1

    def _weighted_moments(self, t):
        """(G, G', G'') at t."""
        p = self.params
        g0, m0, m1 = self._weighted_moment(t)
        g1 = p.beta0 * (p.alpha0 * m0 + p.alpha1 * m1) + p.beta1 * p.r * m0
        g2 = p.beta0 * (p.alpha0 * (p.alpha0 * m0 + p.alpha1 * m1) + p.alpha1 * p.r * m0) + (
            p.beta1 * p.r * (p.alpha0 * m0 + p.alpha1 * m1)
        )
        return g0, g1, g2

    def value(self, t):
        p, m = self.params, self.initial
        t = np.asarray(t, dtype=float)
        g0 = self._weighted_moment(t)[0]
        damp = np.exp(-0.5 * p.a * p.r * t**2)
        out = damp * g0 - (2 * p.a * t + p.r * p.a**2 * t**3) * m.M0 - p.a**2 * t**2 * m.M1
        return out if out.ndim else float(out)

    def d1(self, t):
        p, m = self.params, self.initial
        t = np.asarray(t, dtype=float)
        g0, g1, _ = self._weighted_moments(t)
        damp = np.exp(-0.5 * p.a * p.r * t**2)
        art = p.a * p.r * t
        out = damp * (g1 - art * g0) - (2 * p.a + 3 * p.r * p.a**2 * t**2) * m.M0 - 2 * p.a**2 * t * m.M1
        return out if out.ndim else float(out)

    def d2(self, t):
        p, m = self.params, self.initial
        t = np.asarray(t, dtype=float)
        g0, g1, g2 = self._weighted_moments(t)
        damp = np.exp(-0.5 * p.a * p.r * t**2)
        art = p.a * p.r * t
        out = (
            damp * (g2 - 2 * art * g1 + (art**2 - p.a * p.r) * g0)
            - 6 * p.r * p.a**2 * t * m.M0
            - 2 * p.a**2 * m.M1
        )
        return out if out.ndim else float(out)


def boundary_extension_psi(f: ForcingF, xi: float) -> float:
    """Extension of the initial datum to negative characteristic offsets.

    Resolves the Volterra relation tying the extension to the forcing F by
    the explicit double-derivative formula: with q = sqrt(a/r),

        psi(xi) = [cosh(q xi) - 2 q xi sinh(q xi)] e^{-a xi^2/(2r)} F(0)
                  - sinh(q xi) e^{-a xi^2/(2r)} F'(0) / sqrt(ar)
                  - sqrt(r/a) * int_xi^0 sinh(q s) e^{a s(s-2 xi)/(2r)}
                    [ (a s / r)^2 F(tau) + (2 a s / r^2) F'(tau)
                      + F''(tau)/r^2 ] ds,      tau = (s - xi)/r,

    the integrand's second derivative having been expanded analytically
    through F, F', F''.  The integral is evaluated by adaptive quadrature.
    """
    if xi > 0:
        raise InvalidInputError("the extension lives on nonpositive offsets")
    p = f.params
    if p.a == 0.0:
        # no fragmentation: the extension degenerates to the forcing value
        return float(f.value(-xi / p.r))
    if xi == 0.0:
        return float(f.value(0.0))
    a, r = p.a, p.r
    q = math.sqrt(a / r)
    damp = math.exp(-0.5 * a * xi * xi / r)
    head = (math.cosh(q * xi) - 2.0 * q * xi * math.sinh(q * xi)) * damp * f.value(0.0)
    head -= math.sinh(q * xi) * damp * f.d1(0.0) / math.sqrt(a * r)

    def integrand(s):
        tau = (s - xi) / r
        return (
            math.sinh(q * s)
            * math.exp(0.5 * a * s * (s - 2.0 * xi) / r)
            * ((a * s / r) ** 2 * f.value(tau) + (2 * a * s / r**2) * f.d1(tau) + f.d2(tau) / r**2)
        )

    from scipy import integrate

    val, err = integrate.quad(integrand, xi, 0.0, epsabs=1e-12, epsrel=1e-10, limit=300)
    if not np.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
        raise ConvergenceError(f"extension quadrature did not converge at xi={xi}")
    return head - math.sqrt(r / a) * val


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
    so nothing overflows however long the horizon.  Agreement with
    :func:`boundary_extension_psi` is enforced by the test suite.
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
    pieces = np.ceil(np.diff(nodes) * rate).astype(int)
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


class ClosedFormSolution:
    """Prepared evaluator for the explicit two-branch solution formula.

    The datum may be a callable or a :class:`GridFunction`; it is resampled
    (with the value at zero prepended) and its suffix integrals are stored
    as cubic-spline antiderivatives.  The boundary extension is tabulated
    once on ``table_points`` characteristic offsets covering [0, t_max]
    (one O(n) pass of :func:`_psi_samples`) and splined together with its
    own running integrals, so point evaluation costs O(1) quadrature-free
    work.  :meth:`evaluate` refuses times at which the formula's terms
    cancel beyond MAX_CANCELLATION.
    """

    def __init__(
        self,
        params: BinaryModelParams,
        u0,
        t_max: float = 4.0,
        x_max: float = 50.0,
        n_samples: int = 8000,
        table_points: int = 2048,
    ):
        from scipy.interpolate import CubicSpline

        self.params = params
        self.t_max = float(t_max)
        if isinstance(u0, GridFunction):
            inner = u0.nodes[u0.nodes > 0]
            x = np.concatenate(([0.0], inner))
            y = np.concatenate(([float(u0(0.0))], np.asarray(u0(inner), dtype=float)))
            self.x_max = float(u0.nodes[-1])
        else:
            x = np.linspace(0.0, x_max, n_samples)
            y = np.asarray(u0(x), dtype=float)
            self.x_max = float(x_max)
        self._u0 = CubicSpline(x, y, extrapolate=False)
        self._u0_anti = self._u0.antiderivative()
        moment_spline = CubicSpline(x, x * y, extrapolate=False)
        self._u0_x_anti = moment_spline.antiderivative()
        self._total0 = float(self._u0_anti(x[-1]))
        self._total1 = float(self._u0_x_anti(x[-1]))
        self.initial = MomentState(self._total0, self._total1)
        self.forcing = ForcingF(params, self.initial)

        xi = np.linspace(-params.r * self.t_max, 0.0, table_points)
        psi = _psi_samples(self.forcing, xi)
        self._psi = CubicSpline(xi, psi)
        self._psi_anti = self._psi.antiderivative()
        self._psi_x_anti = CubicSpline(xi, xi * psi).antiderivative()

    # suffix integrals of the datum: int_z^inf u0 and int_z^inf s u0(s) ds
    def _suffix0(self, z):
        z = np.clip(z, 0.0, self.x_max)
        return self._total0 - self._u0_anti(z)

    def _suffix1(self, z):
        z = np.clip(z, 0.0, self.x_max)
        return self._total1 - self._u0_x_anti(z)

    def _datum(self, z):
        out = self._u0(np.minimum(z, self.x_max))
        return np.where(z > self.x_max, 0.0, out)

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
        head, tail0, tail1 = self._datum(zu), self._suffix0(zu), self._suffix1(zu)
        bulk = head + at * ((2.0 - at * zu) * tail0 + at * tail1)
        bulk_size = np.abs(head) + at * (np.abs((2.0 - at * zu) * tail0) + at * np.abs(tail1))

        zl = np.where(upper, 0.0, np.maximum(xi0, -r * t))
        m = self.initial
        mass = at * (2.0 + a * r * t * t - at * xs) * m.M0
        ext = self._psi(zl)
        ext0 = (2.0 - at * zl) * (self._psi_anti(0.0) - self._psi_anti(zl))
        ext1 = at * (self._psi_x_anti(0.0) - self._psi_x_anti(zl))
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


def tail_bound_check(
    params: BinaryModelParams, u0, m: float, t: float, t_ref: float = 2.0
) -> tuple[float, float]:
    """Weighted mass beyond the characteristic front versus its decay bound.

    measured = int_{rt}^inf (1+x^m) u(x,t) dx; bound = c t^{m+1}
    e^{-a r t^2/2} ||u0||_m with the constant c calibrated once at t_ref
    and held fixed.
    """
    if m <= 1:
        raise InvalidInputError("weight exponent must exceed 1")
    from scipy import integrate

    sol = ClosedFormSolution(params, u0, t_max=max(t, t_ref, 4.0))

    def front_mass(tt: float) -> float:
        # substitute x = r tt + s: smooth integrand on the datum's support
        s = np.linspace(0.0, sol.x_max, 4001)
        vals = sol.evaluate(params.r * tt + s, tt) * (1.0 + (params.r * tt + s) ** m)
        return float(integrate.simpson(vals, x=s))

    s = np.linspace(0.0, sol.x_max, 4001)
    u0_vals = sol._datum(s)
    norm0 = float(integrate.simpson((1.0 + s**m) * np.abs(u0_vals), x=s))
    if norm0 == 0.0:
        return 0.0, 0.0
    shape = lambda tt: tt ** (m + 1) * math.exp(-0.5 * params.a * params.r * tt * tt)
    c = front_mass(t_ref) / (shape(t_ref) * norm0)
    return front_mass(t), c * shape(t) * norm0


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


def right_eigenpair_cf(
    params: BinaryModelParams, nodes: np.ndarray | None = None
) -> tuple[float, GridFunction]:
    """Dominant eigenvalue with the unit-integral eigenfunction sampled on
    a grid; see :func:`right_eigenfunction_cf` for the analytic form."""
    if nodes is None:
        nodes = midpoint_grid(50.0, 2000)
    nodes = np.asarray(nodes, dtype=float)
    v = right_eigenfunction_cf(params)
    return params.lambda_plus, GridFunction(nodes, np.asarray(v(nodes)), 2.0)


def left_eigenpair_cf(
    params: BinaryModelParams, nodes: np.ndarray | None = None
) -> tuple[float, GridFunction]:
    """Dominant eigenvalue with the affine dual eigenfunction sampled on a
    grid; see :func:`left_eigenfunction_cf` for the analytic form."""
    if nodes is None:
        nodes = midpoint_grid(50.0, 2000)
    nodes = np.asarray(nodes, dtype=float)
    w = left_eigenfunction_cf(params)
    return params.lambda_plus, GridFunction(nodes, np.asarray(w(nodes)), 2.0)


def asymptotic_profile(params: BinaryModelParams, u0: GridFunction) -> GridFunction:
    """Large-time profile <w, u0> * v on the datum's grid.

    The coefficient is evaluated from the initial moments:
    <w, u0> = [lambda_plus M0(0) + alpha1 M1(0)]/(lambda_plus - lambda_minus),
    which agrees with the quadrature pairing of the dual eigenfunction.
    """
    m = moments_from_grid(u0)
    sigma = 1.0 / (params.lambda_plus - params.lambda_minus)
    coeff = sigma * (params.lambda_plus * m.M0 + params.alpha1 * m.M1)
    _, v = right_eigenpair_cf(params, u0.nodes)
    return GridFunction(u0.nodes, coeff * v.values, u0.m)


# ---------------------------------------------------------------------------
# bridge to general model definitions


def is_binary_model(model: ModelDefinition) -> bool:
    """True when the model lies in the explicitly solvable binary family:
    constant growth, splitting rate proportional to size, uniform binary
    daughters, affine renewal weight."""
    rate_ok = (isinstance(model.a, Linear) and model.a.c0 == 0.0) or (
        isinstance(model.a, Constant) and model.a.c == 0.0
    )
    return (
        isinstance(model.r, Constant)
        and rate_ok
        and isinstance(model.kernel, UniformBinary)
        and isinstance(model.beta, (Constant, Linear))
    )


def binary_params_from_model(model: ModelDefinition) -> BinaryModelParams:
    """Extract closed-form parameters; the renewal weight is converted to
    the boundary-value convention (divide by r(0) when given as a flux)."""
    if not is_binary_model(model):
        raise InvalidInputError("model is outside the closed-form family")
    if isinstance(model.beta, Constant):
        b0, b1 = model.beta.c, 0.0
    else:
        b0, b1 = model.beta.c0, model.beta.c1
    r = model.r.c
    if model.bc_convention == "flux":
        b0, b1 = b0 / r, b1 / r
    slope = model.a.c1 if isinstance(model.a, Linear) else 0.0
    return BinaryModelParams(r=r, a=slope, beta0=b0, beta1=b1)
