"""Transport scans of the resolvent and the upwind time-step loop.

A scan accumulates T[0] = s*f[0], T[i] = d[i]*T[i-1] + w[i]*(A[i]*f[i-1] + B[i]*f[i])
over panels of width w[i] and exponent drop -log d[i] >= 0, so it cannot overflow.
That is L T = C f: L unit lower bidiagonal (subdiagonal -d[1:]), C lower bidiagonal
(diagonal s, w*B; subdiagonal w*A) with the weights of :func:`panel_weights` and
:func:`seed_weight`.  A resolvent context builds both once (:func:`transport_bands`);
a scan is one LAPACK banded triangular solve (``?tbtrs``) and a bidiagonal product.
"""

import numpy as np


def _theta(decay):
    """Decay clamped at 1e-300, theta = -log(d), Taylor mask, safe divisor."""
    d = np.maximum(np.asarray(decay, dtype=float), 1e-300)
    theta, small = -np.log(d), d > 0.951229424500714  # theta < 0.05: Taylor branches
    return d, theta, small, np.where(small, 1.0, theta)


def panel_weights(decay):
    """Endpoint weights (A, B) of the exponentially fitted panel rule.

    Panel [x0, x1] contributes int exp(-theta*(x1-s)/w) f(s) ds, theta =
    -log(d); for affine f that is w*(A*f(x0) + B*f(x1)) with A = (1 -
    (1+theta)*d)/theta^2 and B = (1 - d)/theta - A, free of a trapezoid
    rule's (exponent slope)^2 error.  Taylor branches avoid 0/0 at theta -> 0.
    """
    d, th, small, t = _theta(decay)
    a = (1.0 - (1.0 + t) * d) / t**2
    b = (1.0 - d) / t - a
    a_small = 0.5 - th * (1.0 / 3.0 - th * (0.125 - th * (1.0 / 30.0 - th / 144.0)))
    b_small = 0.5 - th * (1.0 / 6.0 - th * (1.0 / 24.0 - th * (1.0 / 120.0 - th / 720.0)))
    return np.where(small, a_small, a), np.where(small, b_small, b)


def seed_weight(decay, first_width):
    """Weight first_width*(1-d)/theta of [0, x0], integrand frozen at x0."""
    d, th, small, t = _theta(decay)
    taylor = 1.0 - th * (0.5 - th * (1.0 / 6.0 - th * (1.0 / 24.0 - th / 120.0)))
    return np.where(small, first_width * taylor, first_width * (1.0 - d) / t)


def transport_bands(nodes, decay):
    """L and C in lower band storage; decay[0] is the decay factor across [0, x0]."""
    widths = np.diff(nodes)
    a, b = panel_weights(decay[1:])
    L = np.zeros((2, nodes.size), order="F")
    C = np.zeros((2, nodes.size), order="F")
    L[0], L[1, :-1] = 1.0, -decay[1:]
    C[0, 0], C[0, 1:], C[1, :-1] = seed_weight(decay[0], nodes[0]), widths * b, widths * a
    return L, C


def _times(band, x, trans=False):
    """Lower bidiagonal band matrix (or its transpose) times x."""
    y = band[0] * x
    if trans:
        y[:-1] += band[1, :-1] * x[1:]
    else:
        y[1:] += band[1, :-1] * x[:-1]
    return y


def _solve(band, rhs, trans="N", diag="U"):
    from scipy.linalg.lapack import dtbtrs

    x, info = dtbtrs(band, rhs, uplo="L", trans=trans, diag=diag)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded triangular solve failed, info={info}")
    return x


def prefix_transport_scan(L, C, f):
    """Scaled cumulative integral T of the transport resolvent: L T = C f."""
    return _solve(L, _times(C, f))


def adjoint_transport_scan(L, C, g):
    """Transpose of the prefix scan, C^T L^-T g."""
    return _times(C, _solve(L, g, trans="T"), trans=True)


def inverse_transport_scan(L, C, t):
    """Exact algebraic inverse of the prefix scan, C^-1 L t."""
    return _solve(C, _times(L, t), diag="N")


def advance_upwind(u, n_steps, dt, dx, r_faces, a_mid, gain, beta_w):
    """Explicit-Euler upwind loop: n_steps steps from u, which is not mutated.

    With k = dt/dx one step is cur <- diag*cur + (sub*cur shifted down one
    row) + dt*G cur, plus k*<beta_w, cur> on row 0 (the lagged renewal
    inflow), where diag = 1 - k*r_faces[1:] - dt*a_mid and sub =
    k*r_faces[1:-1].  ``gain`` is the :class:`gfrag.resolvent.GainOperator`
    G of the grid.  diag and sub are built once per call and every step
    runs in preallocated buffers.  The power law's one full-window piece
    folds dt*d into diag and runs on reversed copies, so its reverse
    cumulative sum is a forward ``np.add.accumulate`` over contiguous
    memory; any other gain costs one ``matvec`` per step.
    """
    k = dt / dx
    diag = 1.0 - k * r_faces[1:] - dt * a_mid
    sub = k * r_faces[1:-1]
    cur = np.array(u, dtype=np.float64)
    if len(gain._pieces) == 1 and gain._pieces[0][2] is None:
        # reversed order: row 0 is last, and the subdiagonal feeds row i
        # from row i + 1
        p, c, _ = gain._pieces[0]
        diag, sub = (diag + dt * gain._d)[::-1].copy(), sub[::-1].copy()
        c, p, beta = (v[::-1].copy() for v in (c, dt * p, beta_w))
        cur, nxt, tmp = cur[::-1].copy(), np.empty_like(cur), np.empty_like(cur)
        head = tmp[:-1]
        for _ in range(n_steps):
            np.multiply(c, cur, out=tmp)
            np.add.accumulate(tmp, out=tmp)
            np.multiply(p, tmp, out=nxt)
            np.multiply(diag, cur, out=tmp)
            nxt += tmp
            np.multiply(sub, cur[1:], out=head)
            nxt[:-1] += head
            nxt[-1] += k * (beta @ cur)
            cur, nxt = nxt, cur
        return cur[::-1].copy()
    tmp = np.empty_like(cur)
    tail = tmp[1:]
    for _ in range(n_steps):
        nxt = gain.matvec(cur)
        nxt *= dt
        np.multiply(diag, cur, out=tmp)
        nxt += tmp
        np.multiply(sub, cur[:-1], out=tail)
        nxt[1:] += tail
        nxt[0] += k * (beta_w @ cur)
        cur = nxt
    return cur
