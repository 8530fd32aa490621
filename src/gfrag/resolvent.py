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
from its panel weights.  B is a :class:`GainOperator` built once per
context, O(n) for every kernel: cumulative sums over the ratio windows of
a density's separable pieces, or a sparse matrix for atomic kernels.

One Neumann-series routine serves both directions: the forward series in
the X_m norm, and the adjoint series sum_n R_beta* (B* R_beta*)^n, which
the left eigenfunction needs, in the dual X_m norm max |z|/(1 + x^m).
Both stop on the same rule and report the same truncation defect.

The discrete operator the series converge to is known exactly, so
:class:`DirectResolvent` also solves it directly, at any shift sigma, with
one sparse LU factorisation of C (sigma - K) and a rank-one update for the
renewal term; the series are its oracle.

Every operator here takes and returns 1-D float samples on ``ctx.nodes``,
the context grid, and so do :class:`DirectResolvent`'s solves; an input
that is not 1-D, not finite or of another length raises InvalidInputError.
Both Neumann series, :func:`apply_resolvent_K` and its adjoint, return
``(values, n_terms, defect)``.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import (
    ConvergenceError,
    InvalidInputError,
    LambdaOutOfRangeError,
    SeriesDivergenceError,
)
from .model import (
    ModelDefinition,
    ShrinkingBinary,
    _grid_samples,
    boundary_weight_flux,
    compute_RQ,
    density_pieces,
    grid_eval,
    kernel_atoms,
    midpoint_grid,
    quad_weights,
    shift_floor,
)

__all__ = [
    "ResolventContext",
    "apply_resolvent_Z0",
    "apply_E_lambda",
    "apply_resolvent_Zbeta",
    "apply_resolvent_K",
    "apply_shifted_generator_Zbeta",
    "apply_shifted_generator_K",
    "fragmentation_gain_matrix",
    "GainOperator",
    "DirectResolvent",
]


class ResolventContext:
    """Immutable bundle of everything needed to apply resolvents at one lam.

    The model fixes the grid and the weight exponent: ``nodes`` is
    ``midpoint_grid(model.x_max, n_cells)`` and the norms use ``model.m``.
    The resolvent operators take and return samples on ``nodes``, and the
    pairing and norms below take such samples too.

    Attributes
    ----------
    model : ModelDefinition
    lam : float
        Spectral parameter; must exceed ``omega_r + beta_m``.
    nodes : numpy.ndarray
        The context grid.
    e_lambda : numpy.ndarray
        Homogeneous boundary mode exp(-lam*R - Q)/r sampled on the grid,
        with R and Q the integrals of 1/r and a/r from 0, which
        :func:`~gfrag.model.compute_RQ` evaluates once, on ``nodes``.
    beta_pairing : float
        <beta, e_lambda>, guaranteed inside [0, 1).
    omega_r : float
        Growth bound 2*m*r0 of the zero-flux transport semigroup.
    beta_m : float
        Dual X_m norm of the renewal weight in the flux convention.
    gain : GainOperator
        Fragmentation gain B on the context grid, built once and shared by
        every term of the forward and adjoint series.

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
        n_cells: int = 2000,
        strict: bool = True,
    ):
        self.nodes = nodes = midpoint_grid(model.x_max, n_cells)
        self.model = model
        self.lam = float(lam)

        self.omega_r, self.beta_m = shift_floor(model)
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
        R, Q = compute_RQ(model, nodes)
        exponent = self.lam * R + Q
        decay = np.empty_like(nodes)
        # leading entry carries the drop across [0, nodes[0]] (R and Q
        # vanish at zero); the scans use it to weight the seed panel
        decay[0] = np.exp(-exponent[0])
        decay[1:] = np.exp(exponent[:-1] - exponent[1:])
        # banded scan matrices with the panel weights, fixed for the context
        self._L, self._C = _kernels.transport_bands(nodes, decay)
        self._wq = quad_weights(nodes)
        # X_m norm weight and the dual weight of the adjoint series
        self._dual_w = 1.0 + nodes**model.m
        self._norm_w = self._wq * self._dual_w

        self.e_lambda = e_vals = np.exp(-exponent) / self._r_vals
        self._beta_vals = grid_eval(boundary_weight_flux(model), nodes)
        # products every series term reuses, formed in the order the
        # pairings multiply them so each pairing keeps its rounding
        self._wq_beta = self._wq * self._beta_vals
        self._wq_e = self._wq * e_vals
        self.beta_pairing = float(np.sum(self._wq_beta * e_vals))
        if not 0.0 <= self.beta_pairing < 1.0:
            raise LambdaOutOfRangeError(
                f"<beta, e_lambda> = {self.beta_pairing} outside [0, 1); increase lambda"
            )
        self._renewal_gap = 1.0 - self.beta_pairing
        self.gain = fragmentation_gain_matrix(model, n_cells)

    # the pairings and norms run once or twice per series term, so they call
    # the reductions behind np.sum and np.max directly (same pairwise order)

    def pair_beta(self, values: np.ndarray) -> float:
        """Renewal functional <beta, u> of grid samples."""
        return float(np.add.reduce(self._wq_beta * values))

    def norm_m(self, values: np.ndarray) -> float:
        """X_m norm of grid samples."""
        return float(np.add.reduce(self._norm_w * np.abs(values)))

    def dual_norm(self, values: np.ndarray) -> float:
        """Dual X_m norm max |z|/(1 + x^m) of grid samples; the adjoint series contracts in it."""
        return float(np.maximum.reduce(np.abs(values) / self._dual_w))


def apply_resolvent_Z0(ctx: ResolventContext, f: np.ndarray) -> np.ndarray:
    """Resolvent of the zero-flux transport generator.

    Evaluates x -> exp(-lam*R(x)-Q(x))/r(x) * int_0^x f(y) exp(lam*R(y)+Q(y)) dy
    on the context grid with one stable prefix scan.
    """
    f = _grid_samples(f, ctx.nodes.size)
    return _kernels.prefix_transport_scan(ctx._L, ctx._C, f) / ctx._r_vals


def _E_lambda(ctx: ResolventContext, f: np.ndarray) -> np.ndarray:
    """:func:`apply_E_lambda` of checked samples."""
    c = ctx.pair_beta(f) / ctx._renewal_gap
    return c * ctx.e_lambda


def apply_E_lambda(ctx: ResolventContext, f: np.ndarray) -> np.ndarray:
    """Rank-one boundary correction e_lam * <beta, f> / (1 - <beta, e_lam>)."""
    return _E_lambda(ctx, _grid_samples(f, ctx.nodes.size))


def apply_resolvent_Zbeta(ctx: ResolventContext, f: np.ndarray) -> np.ndarray:
    """Resolvent of the renewal-boundary transport generator, (I+E) R(lam,Z0)."""
    g = apply_resolvent_Z0(ctx, f)
    return g + _E_lambda(ctx, g)


def _shifted_Zbeta(ctx: ResolventContext, u: np.ndarray) -> np.ndarray:
    """:func:`apply_shifted_generator_Zbeta` of checked samples."""
    g = u - ctx.pair_beta(u) * ctx.e_lambda
    return _kernels.inverse_transport_scan(ctx._L, ctx._C, g * ctx._r_vals)


def apply_shifted_generator_Zbeta(ctx: ResolventContext, u: np.ndarray) -> np.ndarray:
    """Apply (lam - Zbeta) discretely; exact inverse of apply_resolvent_Zbeta.

    Uses the factorization (lam - Zbeta) = (lam - Z0)(I - e_lam <beta, .>),
    where (lam - Z0) is inverted panel by panel from the prefix scan.
    """
    return _shifted_Zbeta(ctx, _grid_samples(u, ctx.nodes.size))


# ---------------------------------------------------------------------------
# fragmentation gain


class GainOperator:
    """Quadrature of the fragmentation gain, (G u)(x_i) ~ int_{x_i}^inf a(y) b(x_i, y) u(y) dy.

    Continuous kernels: per-row trapezoid over the truncated range, with a
    half panel on the diagonal carrying the one-sided density limit (so the
    jump of the integrand at y = x costs no accuracy) and a zero last
    diagonal entry.  Atomic kernels: each source node deposits its two
    daughter point masses onto the neighboring grid nodes by linear
    interpolation, which conserves daughter count and size exactly, except
    that daughters falling below the first node are clamped onto it (keeping
    G nonnegative at the price of a grid-sized moment error there).

    G is stored in one of two O(n) forms, and ``nbytes`` is the storage held:

    * continuous kernels: the pieces p(x) q(y) of :func:`~gfrag.model.density_pieces`,
      ``G u = d * u + sum p * (S[lo] - S[hi])`` with [lo_i, hi_i) the columns
      of row i in the piece's ratio window, S the inclusive reverse cumsum
      of c * u, c = q * (trapezoid weight) * a, and d a diagonal correction.
      A window from the row to the last node (the power law's) holds no
      indices: ``G u = p * S + d * u``, ``G^T z = c * cumsum(p * z) + d * z``;
    * atomic kernels: CSR with at most four entries per column.
    """

    def __init__(self, model: ModelDefinition, n_cells: int):
        nodes = midpoint_grid(model.x_max, n_cells)
        n = nodes.size
        kernel = model.kernel
        a_vals = grid_eval(model.a, nodes)
        self._matrix, self._pieces = None, []
        if isinstance(kernel, ShrinkingBinary):
            self._matrix = _atomic_deposition(kernel, nodes, a_vals)
            self._transpose = self._matrix.T
            held = (self._matrix.data, self._matrix.indices, self._matrix.indptr)
        else:
            d = np.diff(nodes)
            w_t = np.zeros(n)
            w_t[:-1] += 0.5 * d
            w_t[1:] += 0.5 * d
            half = np.concatenate((0.5 * d, [0.0]))
            self._d = np.zeros(n)
            for lo, hi, p, q in density_pieces(kernel, nodes):
                c = q * w_t * a_vals
                if hi >= 1.0:
                    # inclusive sums count p_i c_i once on the diagonal; d
                    # swaps that for the half-panel diagonal entry
                    self._d = self._d + (p * q * half * a_vals - p * c)
                full = lo < 0.0 and hi >= 1.0  # from the row to the last node
                window = None if full else (_quotient_edge(nodes, hi), _quotient_edge(nodes, lo))
                self._pieces.append((p, c, window))
            held = [self._d] + [a for p, c, w in self._pieces for a in (p, c, *(w or ()))]
        self.nbytes = sum(arr.nbytes for arr in held)

    # np.add.accumulate is the cumulative sum behind np.cumsum, minus its
    # wrapper; the gain is applied once per series term and per PDE step

    def matvec(self, u: np.ndarray) -> np.ndarray:
        """G u."""
        if self._matrix is not None:
            return self._matrix @ u
        out = self._d * u
        for p, c, window in self._pieces:
            s = np.add.accumulate((c * u)[::-1])[::-1]
            if window is not None:
                s = np.append(s, 0.0)  # S past the last node is zero
                s = s[window[0]] - s[window[1]]
            out += p * s
        return out

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        """G^T z."""
        if self._matrix is not None:
            return self._transpose @ z
        out = self._d * z
        for p, c, window in self._pieces:
            t = p * z
            if window is not None:
                # row i adds t_i to the columns [lo_i, hi_i)
                t = np.bincount(window[0], t, z.size + 1) - np.bincount(window[1], t, z.size + 1)
                t = t[:-1]
            out += c * np.add.accumulate(t)
        return out


def _quotient_edge(nodes: np.ndarray, rho: float) -> np.ndarray:
    """Per row i, the first column j >= i with nodes[i] / nodes[j] <= rho, or n.

    The float quotients fall as j grows from the diagonal's 1, so a
    vectorised bisection over the columns past the diagonal finds the edge.
    """
    n = nodes.size
    if rho >= 1.0:
        return np.arange(n)
    lo, hi = np.arange(1, n + 1), np.full(n, n)
    while rho >= 0.0 and np.any(lo < hi):
        mid = (lo + hi) // 2
        above = nodes / nodes[np.minimum(mid, n - 1)] > rho
        lo = np.where(above & (lo < hi), mid + 1, lo)
        hi = np.where(above, hi, mid)
    return hi


def _atomic_deposition(kernel, nodes: np.ndarray, a_vals: np.ndarray):
    """CSR gain of an atomic kernel: linear-interpolation deposition, clamped at the ends."""
    n = nodes.size
    wq = quad_weights(nodes)
    source = a_vals * wq
    cols = np.flatnonzero(source)
    rows, data = [], []
    for z, count in kernel_atoms(kernel, nodes[cols]):
        mass = source[cols] * count
        k = np.searchsorted(nodes, z)
        inner = (k > 0) & (k < n)
        hi = np.minimum(k, n - 1)
        lo = np.where(inner, k - 1, hi)
        span = np.where(inner, nodes[hi] - nodes[lo], 1.0)
        frac = np.where(inner, (z - nodes[lo]) / span, 0.0)
        rows += [lo, hi]
        data += [mass * (1.0 - frac) / wq[lo], mass * frac / wq[hi]]
    # duplicate (row, column) pairs are summed, at most two of them nonzero;
    # 32-bit indices keep the index arrays at half the size of the values
    row_idx = np.concatenate(rows).astype(np.int32)
    col_idx = np.tile(cols, len(rows)).astype(np.int32)
    from scipy import sparse

    gain = sparse.csr_array((np.concatenate(data), (row_idx, col_idx)), shape=(n, n))
    gain.eliminate_zeros()
    return gain


_GAIN_CACHE: dict = {}


def fragmentation_gain_matrix(model: ModelDefinition, n_cells: int) -> GainOperator:
    """The :class:`GainOperator` of ``model`` on ``midpoint_grid(model.x_max, n_cells)``.

    The last eight operators built are kept per (model, n_cells), so repeated
    calls on one grid return the same object.
    """
    key = (id(model), n_cells)
    hit = _GAIN_CACHE.get(key)
    if hit is not None and hit[0] is model:
        return hit[1]
    gain = GainOperator(model, n_cells)
    if len(_GAIN_CACHE) >= 8:
        _GAIN_CACHE.pop(next(iter(_GAIN_CACHE)))
    _GAIN_CACHE[key] = (model, gain)
    return gain


# ---------------------------------------------------------------------------
# full-generator resolvent by Neumann series


# the Neumann series gives up after _MAX_TERMS + 1 terms, and checks that
# its terms shrink from term _BURN_IN on
_MAX_TERMS = 200
_BURN_IN = 5


def _neumann_series(first, apply_R, apply_B, norm, tol):
    """Sum R (B R)^n applied to ``first`` over n >= 0, for the given R, B and norm.

    Stops once the last term and its gain image both have norm below tol;
    the norm of that gain image is the exact discrete defect at truncation.
    Returns (values, n_terms, defect).  Raises SeriesDivergenceError when a
    term after the burn-in is no smaller than the one before it and >= tol,
    or when _MAX_TERMS + 1 terms leave a defect >= tol.
    """
    if not tol > 0:
        raise InvalidInputError("series tolerance must be positive")
    term = apply_R(first)
    total = term.copy()
    prev_norm = norm(term)
    n_terms = 1
    for n in range(1, _MAX_TERMS + 1):
        image = apply_B(term)
        defect = norm(image)
        if prev_norm < tol and defect < tol:
            return total, n_terms, defect
        term = apply_R(image)
        total += term
        term_norm = norm(term)
        if n >= _BURN_IN and term_norm >= prev_norm and term_norm >= tol:
            raise SeriesDivergenceError(
                f"resolvent series stopped contracting at term {n} "
                f"(increment {term_norm:.3e} >= {prev_norm:.3e}); increase lambda"
            )
        prev_norm = term_norm
        n_terms = n + 1
    defect = norm(apply_B(term))
    if not defect < tol:
        raise SeriesDivergenceError(
            f"resolvent series did not reach tol {tol:.1e} in {_MAX_TERMS} terms "
            f"(defect {defect:.3e}); increase lambda"
        )
    return total, n_terms, defect


def apply_resolvent_K(ctx: ResolventContext, f: np.ndarray, tol: float = 1e-10):
    """Resolvent of the full generator K = Zbeta + B.

    Sums R_beta (B R_beta)^n f and stops after the first term whose X_m
    norm and that of its gain image B R_beta (B R_beta)^n f are both below
    tol; the gain image's norm is the exact discrete defect
    ||(lam - K) u - f||_m of the truncated sum.  Returns
    (values, n_terms, defect).

    Raises
    ------
    SeriesDivergenceError
        When a term after the first _BURN_IN = 5 is no smaller than the
        one before it and >= tol, or when _MAX_TERMS + 1 = 201 terms leave a
        defect >= tol; lam is too small for the series.
    InvalidInputError
        When tol is not positive or f is not samples on the context grid.
    """
    # the resolvents are looked up at call time, here and in the adjoint
    # series, so a wrapper installed on this module sees every term
    return _neumann_series(
        _grid_samples(f, ctx.nodes.size),
        lambda g: apply_resolvent_Zbeta(ctx, g),
        ctx.gain.matvec,
        ctx.norm_m,
        tol,
    )


def apply_shifted_generator_K(ctx: ResolventContext, u: np.ndarray) -> np.ndarray:
    """Apply (lam - K) discretely: (lam - Zbeta) u - B u."""
    u = _grid_samples(u, ctx.nodes.size)
    return _shifted_Zbeta(ctx, u) - ctx.gain.matvec(u)


# ---------------------------------------------------------------------------
# full-generator resolvent by one sparse LU factorisation


def _shifted_generator_system(ctx: ResolventContext, shift: float):
    """CSC matrix of C (lam + shift - K) without its renewal term; see DirectResolvent."""
    from scipy import sparse

    n, gain, C = ctx.nodes.size, ctx.gain, ctx._C
    # the bands scaled column by column: L D_r + shift C
    transport = ctx._L * ctx._r_vals + shift * C
    i, j, size = np.arange(n), np.arange(n - 1), n

    def times_c(rows, cols, vals):
        # an entry of G enters -C G in its row, times C's diagonal, and in
        # the next row, times C's subdiagonal
        inner = rows < n - 1
        return [(rows, cols, -C[0, rows] * vals),
                (rows[inner] + 1, cols[inner], -C[1, rows[inner]] * vals[inner])]

    if gain._matrix is not None:
        g = gain._matrix.tocoo()
        coupling = times_c(g.row, g.col, g.data)
    else:
        # C diag(d) joins the bands; piece k adds the unknown y = s * S at
        # offset n (k + 1), s = p where p is nonzero, so G holds p / s where
        # a row's window starts and -p / s where it ends before the last node
        transport, coupling = transport - C * gain._d, []
        for p, c, window in gain._pieces:
            s = np.where(p != 0.0, p, 1.0)
            first, last = (i, np.full(n, n)) if window is None else window
            rows = np.flatnonzero(first < last)
            ends = rows[last[rows] < n]
            coupling += times_c(
                np.concatenate((rows, ends)),
                size + np.concatenate((first[rows], last[ends])),
                np.concatenate((p[rows] / s[first[rows]], -p[ends] / s[last[ends]])),
            ) + [(size + i, i, -s * c), (size + i, size + i, np.ones(n)),
                 (size + j, size + j + 1, -s[:-1] / s[1:])]
            size += n
    # (rows, columns, values) band by band; duplicate entries are summed
    entries = [(i, i, transport[0]), (j + 1, j, transport[1, :-1])] + coupling
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    return sparse.csc_array((vals, (rows, cols)), shape=(size, size))


def splu(matrix):
    """SuperLU factor of a sparse matrix; loads ``scipy.sparse.linalg`` on first use."""
    from scipy.sparse import linalg

    return linalg.splu(matrix)


class DirectResolvent:
    """(sigma - K)^{-1} on a context grid, solved with one sparse LU factor.

    ``C (sigma - K) = L D_r (I - e b^T) - C G + (sigma - lam) C`` is the
    operator :func:`apply_shifted_generator_K` applies (at sigma = lam),
    times the scan band C; e is the boundary mode and b the quadrature-
    weighted renewal weight.  Without the rank-one renewal term it is
    factored once by SuperLU, and that term is a Sherman-Morrison update.
    Each separable piece of the gain, diag(p) (S[lo] - S[hi]) with S = U (c u)
    and U the inclusive upper-triangular ones matrix, enters through one
    more unknown s * S, s = p where p is nonzero, which solves a bidiagonal
    system because U = (I - J)^-1 for the superdiagonal shift J; a power law
    (one piece) factors a sparse system of size 2n.  An atomic gain enters
    as the sparse product C G.

    ``solve`` is the discrete resolvent the Neumann series of
    :func:`apply_resolvent_K` converges to; ``solve_transpose`` is its
    adjoint in the quadrature inner product, W^-1 C^T A^-T W g, the limit of
    the adjoint series.  ``sigma`` defaults to the context's lam.

    Raises
    ------
    ConvergenceError
        When the factor is singular (sigma is an eigenvalue of K).
    """

    def __init__(self, ctx: ResolventContext, sigma: float | None = None):
        self.sigma = ctx.lam if sigma is None else float(sigma)
        self._ctx = ctx
        n = ctx.nodes.size
        system = _shifted_generator_system(ctx, self.sigma - ctx.lam)
        try:
            self._lu = splu(system)
        except RuntimeError as exc:
            raise ConvergenceError(
                f"shifted generator at sigma={self.sigma:.6g} has a singular LU factor ({exc})"
            ) from None
        self._pad = np.zeros(system.shape[0] - n)
        # Sherman-Morrison pieces of the renewal term l b^T, l = L D_r e
        self._l = _kernels._times(ctx._L, ctx._r_vals * ctx.e_lambda)
        self._l_image = self._lu.solve(np.concatenate((self._l, self._pad)))[:n]
        self._b_image = self._lu.solve(np.concatenate((ctx._wq_beta, self._pad)), trans="T")[:n]
        self._gap = 1.0 - float(ctx._wq_beta @ self._l_image)

    def solve(self, f: np.ndarray) -> np.ndarray:
        """(sigma - K)^{-1} f on grid samples."""
        ctx, n = self._ctx, self._l.size
        f = _grid_samples(f, n)
        x = self._lu.solve(np.concatenate((_kernels._times(ctx._C, f), self._pad)))[:n]
        return x + self._l_image * (float(ctx._wq_beta @ x) / self._gap)

    def solve_transpose(self, g: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`solve` in the quadrature inner product."""
        ctx, n = self._ctx, self._l.size
        g = _grid_samples(g, n)
        z = self._lu.solve(np.concatenate((ctx._wq * g, self._pad)), trans="T")[:n]
        z = z + self._b_image * (float(self._l @ z) / self._gap)
        return _kernels._times(ctx._C, z, trans=True) / ctx._wq


# ---------------------------------------------------------------------------
# transposed applications (internal; used for left eigenfunctions)


def _apply_resolvent_Z0_transpose(ctx: ResolventContext, g_vals: np.ndarray) -> np.ndarray:
    """Quadrature-weighted adjoint of apply_resolvent_Z0 on sample vectors."""
    h = ctx._wq * g_vals / ctx._r_vals
    out = _kernels.adjoint_transport_scan(ctx._L, ctx._C, h)
    return out / ctx._wq


def _apply_resolvent_Zbeta_transpose(ctx: ResolventContext, g_vals: np.ndarray) -> np.ndarray:
    # ((I+E) R0)* = R0* (I + E*) in the weighted inner product
    c = float(np.add.reduce(ctx._wq_e * g_vals)) / ctx._renewal_gap
    return _apply_resolvent_Z0_transpose(ctx, g_vals + c * ctx._beta_vals)


def _resolvent_K_transpose(ctx: ResolventContext, g_vals: np.ndarray, tol: float):
    """Adjoint Neumann series sum_n R_beta* (B* R_beta*)^n g; returns (values, n_terms, defect).

    Runs the forward series routine with the adjoint operators, measured in
    the dual norm of X_m, max |z|/(1 + x^m), where they contract; the plain
    max norm can grow for a few terms on a series that converges.
    """
    return _neumann_series(
        _grid_samples(g_vals, ctx.nodes.size),
        lambda z: _apply_resolvent_Zbeta_transpose(ctx, z),
        lambda z: ctx.gain.rmatvec(ctx._wq * z) / ctx._wq,
        ctx.dual_norm,
        tol,
    )
