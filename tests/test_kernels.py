"""Tests for the transport scans and the upwind stepping kernel.

Each scan is checked against a loop oracle of the recurrence it solves,
written out below, and the adjoint scan against the transpose of the dense
matrix of the prefix scan.  The panel weights are checked against
quadrature, and the upwind kernel against an explicit per-cell loop.
"""

import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from gfrag import _kernels as K
from gfrag import resolvent
from gfrag.model import (
    Constant,
    Linear,
    ModelDefinition,
    PowerLaw,
    ShrinkingBinary,
    TabulatedKernel,
    UniformBinary,
)

SEAM = 0.951229424500714  # exp(-0.05), where the weights switch branch


def scan_inputs(n, rng, theta_max=3.0):
    """Grid nodes, panel decays and a random vector of length n."""
    widths = rng.uniform(0.01, 0.2, size=n)
    nodes = np.cumsum(widths)
    decay = np.exp(-rng.uniform(0.0, theta_max, size=n))
    return nodes, decay, rng.normal(size=n)


def prefix_oracle(nodes, decay, f):
    """T[0] = s f[0],  T[i] = d[i] T[i-1] + w[i] (A[i] f[i-1] + B[i] f[i])."""
    a, b = K.panel_weights(decay)
    t = np.empty(len(f))
    t[0] = K.seed_weight(decay[0], nodes[0]) * f[0]
    for i in range(1, len(f)):
        w = nodes[i] - nodes[i - 1]
        t[i] = decay[i] * t[i - 1] + w * (a[i] * f[i - 1] + b[i] * f[i])
    return t


def inverse_oracle(nodes, decay, t):
    """The prefix recurrence solved for f, panel by panel."""
    a, b = K.panel_weights(decay)
    f = np.empty(len(t))
    f[0] = t[0] / K.seed_weight(decay[0], nodes[0])
    for i in range(1, len(t)):
        w = nodes[i] - nodes[i - 1]
        f[i] = ((t[i] - decay[i] * t[i - 1]) / w - a[i] * f[i - 1]) / b[i]
    return f


def dense(scan, n):
    """Matrix of a linear map on R^n, one column per unit vector."""
    return np.column_stack([scan(e) for e in np.eye(n)])


class TestPanelWeights:
    # the Taylor branch below theta = 0.05 truncates at theta^4, leaving an
    # O(theta^5/840) error, about 4e-10 at the seam; the exact branch is
    # limited only by roundoff
    @pytest.mark.parametrize("theta", [1e-8, 0.01, 0.04999, 0.05001, 0.5, 3.0, 40.0])
    def test_weights_match_quadrature(self, theta):
        a, b = K.panel_weights(np.exp(-theta))
        a_ref = quad(lambda s: np.exp(-theta * (1 - s)) * (1 - s), 0.0, 1.0)[0]
        b_ref = quad(lambda s: np.exp(-theta * (1 - s)) * s, 0.0, 1.0)[0]
        rel = 2e-9 if theta < 0.05 else 1e-10
        assert float(a) == pytest.approx(a_ref, rel=rel, abs=1e-14)
        assert float(b) == pytest.approx(b_ref, rel=rel, abs=1e-14)

    def test_weights_sum_integrates_constants(self):
        # expm1 keeps the reference free of the 1-exp(-theta) cancellation
        thetas = np.array([1e-6, 0.02, 0.3, 5.0, 80.0])
        a, b = K.panel_weights(np.exp(-thetas))
        ref = -np.expm1(-thetas) / thetas
        for theta, got, want in zip(thetas, a + b, ref):
            rel = 2e-9 if theta < 0.05 else 1e-12
            assert got == pytest.approx(want, rel=rel)

    def test_branch_seam_is_continuous(self):
        a, b = K.panel_weights(SEAM * np.array([1 - 1e-13, 1 + 1e-13]))
        assert a[0] == pytest.approx(a[1], rel=5e-9)
        assert b[0] == pytest.approx(b[1], rel=5e-9)

    def test_degenerate_decay_limits(self):
        a1, b1 = K.panel_weights(1.0)
        assert (float(a1), float(b1)) == (0.5, 0.5)
        a0, b0 = K.panel_weights(0.0)
        assert 0.0 < a0 < b0 < 1e-2
        assert np.isfinite(a0) and np.isfinite(b0)

    def test_seed_weight_matches_quadrature(self):
        for theta in [1e-7, 0.03, 0.06, 2.0, 50.0]:
            d = np.exp(-theta)
            ref = quad(lambda s: np.exp(-theta * (1 - s)), 0.0, 1.0)[0]
            rel = 2e-9 if theta < 0.05 else 1e-10
            assert float(K.seed_weight(d, 0.7)) == pytest.approx(0.7 * ref, rel=rel)
        assert float(K.seed_weight(1.0, 0.7)) == pytest.approx(0.7)
        assert 0.0 < K.seed_weight(0.0, 0.7) < 0.7

    @pytest.mark.filterwarnings("error")  # no 0/0 on the branch not taken
    def test_array_across_the_seam_matches_elementwise(self):
        # one array holding both branches and the clamp picks, per entry,
        # what a single-entry call does, and stays on the quadrature values
        seam = [SEAM * (1 + 1e-13), SEAM, SEAM * (1 - 1e-13)]
        decay = np.array([1.0, 0.99, *seam, 0.7, 1e-3, 1e-200, 1e-301, 0.0])
        a, b = K.panel_weights(decay)
        seed = K.seed_weight(decay, 0.3)
        for i, d in enumerate(decay):
            assert (a[i], b[i]) == tuple(float(v) for v in K.panel_weights(d))
            assert seed[i] == K.seed_weight(d, 0.3)
        assert np.all((a > 0) & (b > 0) & (seed > 0))
        for i in range(7):
            theta = -np.log(decay[i])
            a_ref = quad(lambda s: np.exp(-theta * (1 - s)) * (1 - s), 0.0, 1.0)[0]
            b_ref = quad(lambda s: np.exp(-theta * (1 - s)) * s, 0.0, 1.0)[0]
            assert a[i] == pytest.approx(a_ref, rel=2e-9)
            assert b[i] == pytest.approx(b_ref, rel=2e-9)


class TestScanTwins:
    """Each banded scan against its loop oracle or dense transpose."""

    def test_prefix_scan_matches_reference(self):
        rng = np.random.default_rng(5)
        for n in [1, 2, 7, 300]:
            nodes, decay, f = scan_inputs(n, rng)
            got = K.prefix_transport_scan(*K.transport_bands(nodes, decay), f)
            np.testing.assert_allclose(got, prefix_oracle(nodes, decay, f), rtol=1e-12, atol=1e-15)

    def test_adjoint_scan_matches_reference(self):
        rng = np.random.default_rng(6)
        for n in [1, 2, 7, 300]:
            nodes, decay, g = scan_inputs(n, rng)
            got = K.adjoint_transport_scan(*K.transport_bands(nodes, decay), g)
            ref = dense(lambda e: prefix_oracle(nodes, decay, e), n).T @ g
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)

    def test_inverse_scan_matches_reference(self):
        rng = np.random.default_rng(7)
        for n in [1, 2, 7, 300]:
            nodes, decay, t = scan_inputs(n, rng)
            got = K.inverse_transport_scan(*K.transport_bands(nodes, decay), t)
            np.testing.assert_allclose(got, inverse_oracle(nodes, decay, t), rtol=1e-12, atol=1e-12)

    def test_inverse_undoes_prefix(self):
        rng = np.random.default_rng(8)
        for n in [1, 3, 50, 400]:
            nodes, decay, f = scan_inputs(n, rng)
            L, C = K.transport_bands(nodes, decay)
            back = K.inverse_transport_scan(L, C, K.prefix_transport_scan(L, C, f))
            np.testing.assert_allclose(back, f, rtol=1e-10, atol=1e-12)

    def test_prefix_is_linear(self):
        rng = np.random.default_rng(9)
        nodes, decay, f = scan_inputs(64, rng)
        L, C = K.transport_bands(nodes, decay)
        g = rng.normal(size=64)
        lhs = K.prefix_transport_scan(L, C, 2.0 * f - 3.0 * g)
        rhs = 2.0 * K.prefix_transport_scan(L, C, f) - 3.0 * K.prefix_transport_scan(L, C, g)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-13)

    def test_adjoint_is_true_transpose(self):
        rng = np.random.default_rng(10)
        n = 40
        nodes, decay, g = scan_inputs(n, rng)
        L, C = K.transport_bands(nodes, decay)
        np.testing.assert_allclose(
            K.adjoint_transport_scan(L, C, g),
            dense(lambda e: K.prefix_transport_scan(L, C, e), n).T @ g,
            rtol=1e-11,
            atol=1e-13,
        )

    def test_adjoint_pairing_identity(self):
        # <g, S f> = <S^T g, f> for random vectors
        rng = np.random.default_rng(11)
        for n in [2, 17, 128]:
            nodes, decay, f = scan_inputs(n, rng)
            L, C = K.transport_bands(nodes, decay)
            g = rng.normal(size=n)
            lhs = float(g @ K.prefix_transport_scan(L, C, f))
            rhs = float(K.adjoint_transport_scan(L, C, g) @ f)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-12)

    def test_extreme_decay_stays_finite(self):
        # decay factors <= 1 keep the recurrence bounded even when the
        # accumulated exponent would overflow exp()
        n = 200
        nodes = 0.1 * np.arange(1, n + 1)
        decay = np.full(n, 1e-250)
        t = K.prefix_transport_scan(*K.transport_bands(nodes, decay), np.ones(n))
        assert np.all(np.isfinite(t))
        assert np.all(t >= 0.0)


def upwind_oracle(u, n_steps, dt, dx, r_faces, a_mid, gain, beta_w):
    """Explicit-Euler upwind update written cell by cell."""
    cur = u.copy()
    for _ in range(n_steps):
        gain_term = gain @ cur
        nxt = np.empty_like(cur)
        flux_left = float(beta_w @ cur)
        for i in range(len(cur)):
            flux_right = r_faces[i + 1] * cur[i]
            nxt[i] = cur[i] - (dt / dx) * (flux_right - flux_left) + dt * (
                gain_term[i] - a_mid[i] * cur[i]
            )
            flux_left = flux_right
        cur = nxt
    return cur


GAIN_KERNELS = {
    "uniform_binary": UniformBinary(),
    "power_law": PowerLaw(1.0),
    "shrinking_binary": ShrinkingBinary(0.25),
    "tabulated": TabulatedKernel(np.array([0.0, 0.5, 1.0]), np.array([0.0, 4.0, 0.0])),
}


def grid_gain(kernel, n=48, dx=0.25):
    """The real gain of ``kernel`` on the midpoint grid of n cells of width dx."""
    model = ModelDefinition(
        r=Constant(1.0), a=Linear(0.0, 1.0), kernel=kernel,
        beta=Linear(0.5, 0.5), m=2.0, bc_convention="value", x_max=n * dx,
    )
    return resolvent.GainOperator(model, n)


@pytest.fixture(params=sorted(GAIN_KERNELS))
def upwind_args(request):
    """Random transport data and the real gain of one kernel on 48 cells."""
    rng = np.random.default_rng(12)
    n, dx = 48, 0.25
    gain = grid_gain(GAIN_KERNELS[request.param], n, dx)
    u0 = rng.uniform(0.0, 1.0, size=n)
    r_faces = rng.uniform(0.5, 1.5, size=n + 1)
    a_mid = rng.uniform(0.0, 2.0, size=n)
    beta_w = rng.uniform(0.0, 0.1, size=n)
    return u0, 0.02, dx, r_faces, a_mid, gain, beta_w


class TestAdvanceUpwind:
    """The one upwind loop, over the three gain storage forms (one
    full-window piece, windowed pieces and CSR), against the cell-by-cell
    oracle on the gain's matrix."""

    def test_storage_forms_covered(self):
        # the kernel type picks the form: the power law is one piece whose
        # window runs to the last node, a tabulated h with an inner ratio
        # has windowed pieces and an atomic kernel is stored as CSR
        kernels = GAIN_KERNELS.values()
        assert any(isinstance(k, PowerLaw) for k in kernels)
        assert any(isinstance(k, TabulatedKernel) and 0 < k.ratios[1] < 1 for k in kernels)
        assert any(isinstance(k, ShrinkingBinary) for k in kernels)

    def test_matches_cell_oracle(self, upwind_args):
        u0, dt, dx, r_faces, a_mid, gain, beta_w = upwind_args
        matrix = np.column_stack([gain.matvec(e) for e in np.eye(u0.size)])
        np.testing.assert_allclose(
            K.advance_upwind(u0, 40, dt, dx, r_faces, a_mid, gain, beta_w),
            upwind_oracle(u0, 40, dt, dx, r_faces, a_mid, matrix, beta_w),
            rtol=1e-10,
            atol=1e-12,
        )

    @pytest.mark.parametrize("name", ["power_law", "tabulated", "shrinking_binary"])
    def test_steps_allocate_nothing_that_lasts(self, name):
        # the traced peak of 1000 steps exceeds that of 10 steps by less
        # than one state vector of 3000 cells
        n, dx = 3000, 0.01
        gain = grid_gain(GAIN_KERNELS[name], n, dx)
        nodes = dx * (np.arange(n) + 0.5)
        args = (0.5 / (1.0 / dx + nodes[-1]), dx, np.ones(n + 1), nodes, gain, 1e-3 * nodes)

        def traced_peak(n_steps):
            tracemalloc.start()
            try:
                K.advance_upwind(np.exp(-nodes), n_steps, *args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert traced_peak(1000) - traced_peak(10) < 8 * n

    def test_input_not_mutated(self, upwind_args):
        u0 = upwind_args[0]
        before = u0.copy()
        K.advance_upwind(u0, 5, *upwind_args[1:])
        np.testing.assert_array_equal(u0, before)

    def test_zero_steps_copies(self, upwind_args):
        u0 = upwind_args[0]
        out = K.advance_upwind(u0, 0, *upwind_args[1:])
        np.testing.assert_array_equal(out, u0)
        assert out is not u0


CHILD_SCRIPT = """
import json
import numpy as np
from gfrag import _kernels as K

rng = np.random.default_rng(2024)
nodes = np.cumsum(rng.uniform(0.01, 0.2, size=96))
decay = np.exp(-rng.uniform(0.0, 3.0, size=96))
f = rng.normal(size=96)
L, C = K.transport_bands(nodes, decay)
print(json.dumps({
    "prefix": K.prefix_transport_scan(L, C, f).tobytes().hex(),
    "adjoint": K.adjoint_transport_scan(L, C, f).tobytes().hex(),
}))
"""


class TestModuleBinding:
    def test_scans_repeat_bitwise_in_a_fresh_process(self):
        # reruns write byte-identical CSVs only if the scans are deterministic
        proc = subprocess.run(
            [sys.executable, "-c", CHILD_SCRIPT], capture_output=True, text=True, check=True
        )
        payload = json.loads(proc.stdout)
        rng = np.random.default_rng(2024)
        nodes = np.cumsum(rng.uniform(0.01, 0.2, size=96))
        decay = np.exp(-rng.uniform(0.0, 3.0, size=96))
        f = rng.normal(size=96)
        L, C = K.transport_bands(nodes, decay)
        assert payload["prefix"] == K.prefix_transport_scan(L, C, f).tobytes().hex()
        assert payload["adjoint"] == K.adjoint_transport_scan(L, C, f).tobytes().hex()

    def test_resolvent_looks_scans_up_on_the_module(self, monkeypatch):
        # callers find the scans as module attributes, the grid vector third,
        # so a wrapper installed on the module sees every call
        calls = []
        for name in ("prefix_transport_scan", "adjoint_transport_scan"):
            scan = getattr(K, name)

            def recorded(L, C, v, _scan=scan, _name=name):
                calls.append((_name, L, C, len(v)))
                return _scan(L, C, v)

            monkeypatch.setattr(K, name, recorded)
        model = ModelDefinition(
            r=Constant(1.0), a=Linear(0.0, 1.0), kernel=UniformBinary(),
            beta=Linear(0.5, 0.5), m=2.0, bc_convention="value", x_max=30.0,
        )
        ctx = resolvent.ResolventContext(model, 6.0, n_cells=50)
        resolvent.apply_resolvent_Z0(ctx, np.ones(50))
        resolvent._apply_resolvent_Z0_transpose(ctx, np.ones(50))
        assert [c[0] for c in calls] == ["prefix_transport_scan", "adjoint_transport_scan"]
        assert all(c[1] is ctx._L and c[2] is ctx._C and c[3] == 50 for c in calls)
