"""Transport scans of the resolvent and the upwind time-step loop.

A scan accumulates T[0] = s*f[0], T[i] = d[i]*T[i-1] + w[i]*(A[i]*f[i-1] + B[i]*f[i])
over panels of width w[i] and exponent drop -log d[i] >= 0, so it cannot overflow.
That is L T = C f: L unit lower bidiagonal (subdiagonal -d[1:]), C lower bidiagonal
(diagonal s, w*B; subdiagonal w*A) with the weights of :func:`panel_weights` and
:func:`seed_weight`.  A resolvent context builds both once (:func:`transport_bands`);
a scan is one LAPACK banded triangular solve (``?tbtrs``) and a bidiagonal product.
"""

import numpy as np
from scipy.linalg.lapack import dtbtrs


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
    """Explicit-Euler upwind loop: n_steps steps from u, which is not mutated."""
    cur = u.copy()
    flux = np.empty(u.shape[0] + 1, dtype=np.float64)
    for _ in range(n_steps):
        flux[0] = beta_w @ cur
        flux[1:] = r_faces[1:] * cur
        cur = cur - (dt / dx) * np.diff(flux) + dt * (gain @ cur - a_mid * cur)
    return cur
