"""Reference implementations the tests check the library against.

Each oracle reaches by a second route what a library routine computes, or
checks a bound the library does not state itself; nothing in ``gfrag``
calls them.

* :func:`reachability_oracle` decides irreducibility by strongly connected
  components of a cell digraph, against :func:`~gfrag.irreducibility.compute_c_bar`
  and :func:`~gfrag.irreducibility.decide_irreducibility`.
* :func:`iterate_c` iterates the tail infimum to the limit that ``compute_c_bar``
  reads off the breakpoints, and :func:`envelope_value` evaluates the
  envelope pointwise.
* :func:`boundary_extension_psi` resolves the boundary extension by adaptive
  quadrature of a double-derivative formula, against the derivative-free
  closed form of ``gfrag.closed_form._extension``.
* :func:`tail_bound_check` measures the weighted mass ahead of the
  characteristic front of the closed-form solution against its decay bound.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from gfrag.closed_form import BinaryModelParams, ClosedFormSolution, ForcingF
from gfrag.errors import ConvergenceError, InvalidInputError, MissingTailError
from gfrag.irreducibility import (
    IrreducibilityDecision,
    SupportModel,
    _require_tail,
    tail_infimum_c,
)

# ---------------------------------------------------------------------------
# support calculus


def envelope_value(s: SupportModel, y: float) -> float:
    """Pointwise lower envelope, extended by the identity off the support."""
    if y <= 0.0:
        raise InvalidInputError("parent size must be positive")
    if s.supp_a.locate(y) is None:
        return y
    for p in s._pieces:
        if p.left <= y <= p.right:
            return p.at(y)
    # inside the unbounded interval beyond the described envelope
    raise MissingTailError("unbounded support needs a declared tail rule")


_ITER_TOL = 1e-12
_ITER_CAP = 10**6


def iterate_c(s: SupportModel, z0: float):
    """Iterate the tail infimum from z0 to its limit.

    Returns (c_inf, steps).  The iteration stops when a step moves less
    than _ITER_TOL = 1e-12 or after _ITER_CAP = 10**6 steps, returning
    the value reached.  The sequence must be nonincreasing at every step,
    and an AssertionError reports a step that increases it; zero is
    absorbing because the infimum is monotone.
    """
    if z0 <= 0.0:
        raise InvalidInputError("iteration start must be positive")
    z = float(z0)
    for step in range(1, _ITER_CAP + 1):
        c = tail_infimum_c(s, z)
        if c > z * (1.0 + 1e-14) + 1e-300:
            raise AssertionError(f"tail infimum increased: c({z}) = {c}")
        if c == 0.0 or z - c < _ITER_TOL:
            return c, step
        z = c
    return z, _ITER_CAP


def _cell_splitting_floor(s: SupportModel, lo: float, hi: float) -> float:
    """Infimum of the envelope over the open cell (lo, hi).

    The cell lies between consecutive breakpoints, so at most one piece
    meets it, and that piece covers it; where the cell reaches the
    piece's end the piece's stated end value is used.  Off the support
    nothing splits and the floor is inf; past an identity cutoff the
    floor is lo, so the cell reaches only itself.
    """
    best = math.inf
    for p in s._pieces:
        if p.left < hi and lo < p.right:
            a = p.value_left if lo <= p.left else p.at(lo)
            b = p.value_right if hi >= p.right else p.at(hi)
            best = min(best, a, b)
    return best


def reachability_oracle(s: SupportModel) -> IrreducibilityDecision:
    """Positivity-spreading check on the cells between breakpoints.

    The cells are the open intervals between consecutive points of
    0, the breakpoints and 2 * max(breakpoints, 1); none straddles a
    breakpoint, so the envelope is one affine piece on each cell, or the
    identity, and the digraph is exact.  Growth moves one cell up,
    fragmentation jumps from a cell down to any cell overlapping
    [floor, top) where floor is the envelope infimum over the source
    cell, and renewal sends any cell meeting the renewal support back to
    the first cell.  Past an identity cutoff fragmentation gives a cell
    only a self-loop.  Declares irreducible exactly when the digraph is
    strongly connected.  Like ``compute_c_bar``, raises MissingTailError
    on an unbounded support with no tail rule.
    """
    _require_tail(s)
    pts = s.breakpoints()
    edges = np.array([0.0] + pts + [2.0 * max(pts + [1.0])])
    lowers, uppers = edges[:-1], edges[1:]
    n_cells = len(lowers)

    rows, cols = list(range(n_cells - 1)), list(range(1, n_cells))
    for i in range(n_cells):
        floor = _cell_splitting_floor(s, lowers[i], uppers[i])
        if math.isinf(floor):
            continue
        targets = np.flatnonzero((uppers > floor) & (lowers < uppers[i]))
        rows.extend([i] * len(targets))
        cols.extend(targets)
    renewing = np.flatnonzero(lowers < s.beta_sup)
    rows.extend(renewing)
    cols.extend([0] * len(renewing))

    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n_cells, n_cells)
    )
    n_comp, _ = connected_components(graph, directed=True, connection="strong")
    if n_comp == 1:
        return IrreducibilityDecision(True, (f"all {n_cells} cells mutually reachable",))
    return IrreducibilityDecision(
        False, (f"cell digraph splits into {n_comp} strongly connected components",)
    )


# ---------------------------------------------------------------------------
# closed form of the binary family


def forcing_derivatives(f: ForcingF, t):
    """(F'(t), F''(t)) of the boundary-extension forcing, in closed form.

    The weighted moment G(t) = beta0 M0(t) + beta1 M1(t) differentiates
    through the moment ODE, G^(k) = (beta0, beta1) A^k M(t), so no numeric
    differentiation enters.
    """
    p, m = f.params, f.initial
    t = np.asarray(t, dtype=float)
    g0, m0, m1 = f._weighted_moment(t)
    g1 = p.beta0 * (p.alpha0 * m0 + p.alpha1 * m1) + p.beta1 * p.r * m0
    g2 = p.beta0 * (p.alpha0 * (p.alpha0 * m0 + p.alpha1 * m1) + p.alpha1 * p.r * m0) + (
        p.beta1 * p.r * (p.alpha0 * m0 + p.alpha1 * m1)
    )
    damp = np.exp(-0.5 * p.a * p.r * t**2)
    art = p.a * p.r * t
    d1 = damp * (g1 - art * g0) - (2 * p.a + 3 * p.r * p.a**2 * t**2) * m.M0 - 2 * p.a**2 * t * m.M1
    d2 = (
        damp * (g2 - 2 * art * g1 + (art**2 - p.a * p.r) * g0)
        - 6 * p.r * p.a**2 * t * m.M0
        - 2 * p.a**2 * m.M1
    )
    return (d1, d2) if t.ndim else (float(d1), float(d2))


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
    head -= math.sinh(q * xi) * damp * forcing_derivatives(f, 0.0)[0] / math.sqrt(a * r)

    def integrand(s):
        tau = (s - xi) / r
        d1, d2 = forcing_derivatives(f, tau)
        return (
            math.sinh(q * s)
            * math.exp(0.5 * a * s * (s - 2.0 * xi) / r)
            * ((a * s / r) ** 2 * f.value(tau) + (2 * a * s / r**2) * d1 + d2 / r**2)
        )

    val, err = integrate.quad(integrand, xi, 0.0, epsabs=1e-12, epsrel=1e-10, limit=300)
    if not np.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
        raise ConvergenceError(f"extension quadrature did not converge at xi={xi}")
    return head - math.sqrt(r / a) * val


# the time at which tail_bound_check calibrates its constant
_TAIL_T_REF = 2.0


def tail_bound_check(params: BinaryModelParams, u0, m: float, t: float) -> tuple[float, float]:
    """Weighted mass beyond the characteristic front versus its decay bound.

    measured = int_{rt}^inf (1+x^m) u(x,t) dx; bound = c t^{m+1}
    e^{-a r t^2/2} ||u0||_m with the constant c calibrated once at
    _TAIL_T_REF = 2 and held fixed.
    """
    if m <= 1:
        raise InvalidInputError("weight exponent must exceed 1")
    sol = ClosedFormSolution(params, u0)

    def front_mass(tt: float) -> float:
        # substitute x = r tt + s: smooth integrand on the datum's support
        s = np.linspace(0.0, sol.x_max, 4001)
        vals = sol.evaluate(params.r * tt + s, tt) * (1.0 + (params.r * tt + s) ** m)
        return float(integrate.simpson(vals, x=s))

    s = np.linspace(0.0, sol.x_max, 4001)
    u0_vals = sol._u0(s)
    norm0 = float(integrate.simpson((1.0 + s**m) * np.abs(u0_vals), x=s))
    if norm0 == 0.0:
        return 0.0, 0.0
    shape = lambda tt: tt ** (m + 1) * math.exp(-0.5 * params.a * params.r * tt * tt)
    c = front_mass(_TAIL_T_REF) / (shape(_TAIL_T_REF) * norm0)
    return front_mass(t), c * shape(t) * norm0
