import numpy as np
import pytest
from scipy import integrate

from gfrag.errors import InvalidInputError, LambdaOutOfRangeError, SeriesDivergenceError
from gfrag.model import (
    Constant,
    InverseEpsilon,
    Linear,
    ModelDefinition,
    PowerLaw,
    ShrinkingBinary,
    Tabulated,
    TabulatedKernel,
    UniformBinary,
    boundary_weight_flux,
    compute_RQ,
    midpoint_grid,
    quad_weights,
    xm_norm,
)
from gfrag.resolvent import (
    DirectResolvent,
    GainOperator,
    ResolventContext,
    apply_E_lambda,
    apply_resolvent_K,
    apply_resolvent_Z0,
    apply_resolvent_Zbeta,
    apply_shifted_generator_K,
    apply_shifted_generator_Zbeta,
    fragmentation_gain_matrix,
    _resolvent_K_transpose,
)
from gfrag import resolvent


def transport_model(**kw):
    base = dict(
        r=Constant(1.0),
        a=Constant(0.0),
        kernel=UniformBinary(),
        beta=Constant(0.0),
        m=2.0,
        x_max=40.0,
    )
    base.update(kw)
    return ModelDefinition(**base)


def binary_model(**kw):
    # constant rates, uniform binary splitting, affine renewal weight
    base = dict(
        r=Constant(1.0),
        a=Constant(1.0),
        kernel=UniformBinary(),
        beta=Linear(0.5, 0.5),
        m=2.0,
        bc_convention="value",
        x_max=50.0,
    )
    base.update(kw)
    return ModelDefinition(**base)


class TestELambda:
    # r=1, a(x)=x: R=x, Q=x^2/2, so e_2(x) = exp(-2x - x^2/2)

    def test_at_origin(self):
        md = transport_model(a=Linear(0.0, 1.0))
        ctx = ResolventContext(md, lam=2.0, strict=False)
        x0 = ctx.nodes[0]
        assert ctx.e_lambda[0] == pytest.approx(np.exp(-2.0 * x0 - 0.5 * x0**2), abs=1e-14)

    def test_closed_form_value(self):
        md = transport_model(a=Linear(0.0, 1.0))
        ctx = ResolventContext(md, lam=2.0, strict=False)
        x = ctx.nodes
        np.testing.assert_allclose(ctx.e_lambda, np.exp(-2.0 * x - 0.5 * x**2), rtol=1e-12, atol=0)

    def test_norm_bound(self):
        # ||e_lam||_m <= 1/(lam - omega_r)
        md = transport_model(a=Linear(0.0, 1.0))
        for lam in (4.5, 6.0, 10.0):
            ctx = ResolventContext(md, lam=lam, n_cells=2000)
            assert xm_norm(md, ctx.e_lambda) <= 1.0 / (lam - ctx.omega_r) * (1 + 1e-9)


class TestResolventZ0:
    def test_analytic_exponential(self):
        # r=1, a=0, lam=1: the resolvent maps e^{-x} to x e^{-x}; the
        # panel rule interpolates the input affinely, so the identity
        # holds to second-order quadrature error
        errs = []
        for n in (2000, 4000):
            ctx = ResolventContext(transport_model(), lam=1.0, n_cells=n, strict=False)
            u = apply_resolvent_Z0(ctx, np.exp(-ctx.nodes))
            errs.append(np.max(np.abs(u - ctx.nodes * np.exp(-ctx.nodes))))
        assert errs[0] < 1e-4
        assert errs[0] / errs[1] > 3.5

    def test_zero_input(self):
        ctx = ResolventContext(transport_model(), lam=5.0)
        assert np.all(apply_resolvent_Z0(ctx, np.zeros_like(ctx.nodes)) == 0.0)

    @staticmethod
    def _fd_residual(md, lam, n_cells):
        ctx = ResolventContext(md, lam=lam, n_cells=n_cells, strict=False)
        f_vals = (1.0 + ctx.nodes) * np.exp(-1.5 * ctx.nodes)
        u = apply_resolvent_Z0(ctx, f_vals)
        r_vals = np.asarray(md.r(ctx.nodes))
        a_vals = np.asarray(md.a(ctx.nodes))
        flux_grad = np.gradient(r_vals * u, ctx.nodes)
        resid = lam * u + flux_grad + a_vals * u - f_vals
        w = quad_weights(ctx.nodes)
        return float(np.sum(w[2:-2] * np.abs(resid[2:-2])))

    def test_residual_refines(self):
        # lam*u + (r u)' + a*u = f, checked with central differences; the
        # L1 residual must shrink at first order or better under refinement
        md = transport_model(r=Linear(1.0, 0.5), a=Linear(0.0, 1.0), x_max=30.0)
        coarse = self._fd_residual(md, lam=6.5, n_cells=400)
        fine = self._fd_residual(md, lam=6.5, n_cells=800)
        assert fine < coarse / 1.8

    def test_norm_bound_random(self):
        # ||R(lam,Z0) f||_m * (lam - omega_r) <= ||f||_m for 100 random (f, lam)
        md = transport_model(r=Linear(1.0, 0.5), a=Linear(0.0, 0.5), x_max=40.0)
        nodes = midpoint_grid(md.x_max, 800)
        rng = np.random.default_rng(42)
        for _ in range(100):
            lam = md.m * 2.0 * 1.0 + 0.5 + 20.0 * rng.random()
            ctx = ResolventContext(md, lam=lam, n_cells=800)
            c = 0.1 + rng.random(3)
            s = 0.3 + 1.7 * rng.random()
            f = (c[0] + c[1] * nodes + c[2] * nodes**2) * np.exp(-s * nodes)
            u = apply_resolvent_Z0(ctx, f)
            assert xm_norm(md, u) * (lam - ctx.omega_r) <= xm_norm(md, f) * (1 + 1e-6)

    def test_positivity(self):
        ctx = ResolventContext(transport_model(), lam=6.0)
        f = np.exp(-ctx.nodes) * (1 + np.sin(ctx.nodes) ** 2)
        assert np.all(apply_resolvent_Z0(ctx, f) >= 0.0)

    def test_grid_mismatch_rejected(self):
        ctx = ResolventContext(transport_model(), lam=6.0, n_cells=100)
        other = midpoint_grid(40.0, 50)
        with pytest.raises(InvalidInputError):
            apply_resolvent_Z0(ctx, np.exp(-other))


FORWARD_OPERATORS = [
    apply_resolvent_Z0,
    apply_E_lambda,
    apply_resolvent_Zbeta,
    apply_shifted_generator_Zbeta,
    apply_shifted_generator_K,
    apply_resolvent_K,
]


class TestGridCheck:
    # resolvent operators take samples on the context grid; the shape is
    # all they check

    @pytest.mark.parametrize("apply", FORWARD_OPERATORS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize(
        "shape", [(99,), (101,), (1, 100), (100, 1), (2, 100)], ids=str
    )
    def test_forward_operators_reject_other_shapes(self, apply, shape):
        ctx = ResolventContext(binary_model(), lam=7.0, n_cells=100)
        with pytest.raises(InvalidInputError, match="expected 100 samples"):
            apply(ctx, np.ones(shape))


class TestELambdaOperator:
    def test_zero_beta(self):
        ctx = ResolventContext(transport_model(), lam=6.0)
        assert np.all(apply_E_lambda(ctx, np.exp(-ctx.nodes)) == 0.0)

    def test_quadrature_oracle_and_bound(self):
        md = binary_model()
        ctx = ResolventContext(md, lam=5.0, n_cells=1600)
        f = np.exp(-ctx.nodes)
        out = apply_E_lambda(ctx, f)
        # independent quadrature for <beta, f> (flux weight = value weight here, r(0)=1)
        num, _ = integrate.quad(lambda x: 0.5 * (1 + x) * np.exp(-x), 0, np.inf)
        c = num / (1.0 - ctx.beta_pairing)
        np.testing.assert_allclose(out, c * ctx.e_lambda, rtol=2e-4)
        beta_m = (1 + np.sqrt(2)) / 4
        bound = beta_m / (5.0 - ctx.omega_r - beta_m) * xm_norm(md, f)
        assert xm_norm(md, out) <= bound * (1 + 1e-9)

    def test_positivity(self):
        ctx = ResolventContext(binary_model(), lam=7.0)
        assert np.all(apply_E_lambda(ctx, np.exp(-0.5 * ctx.nodes)) >= 0.0)


class TestResolventZbeta:
    def test_reduces_to_Z0_without_renewal(self):
        ctx = ResolventContext(transport_model(), lam=6.0)
        f = (1 + ctx.nodes) * np.exp(-ctx.nodes)
        np.testing.assert_array_equal(apply_resolvent_Zbeta(ctx, f), apply_resolvent_Z0(ctx, f))

    def test_boundary_flux_recovered(self):
        # r(x) u(x) -> <beta, u> as x -> 0+
        md = binary_model()
        ctx = ResolventContext(md, lam=7.0, n_cells=4000)
        u = apply_resolvent_Zbeta(ctx, np.exp(-ctx.nodes))
        r_vals = np.asarray(md.r(ctx.nodes))
        flux = r_vals * u
        # linear extrapolation of the flux to x = 0 from the first two nodes
        x0, x1 = ctx.nodes[:2]
        flux0 = flux[0] - x0 * (flux[1] - flux[0]) / (x1 - x0)
        assert flux0 == pytest.approx(ctx.pair_beta(u), rel=1e-3)

    def test_ordering_above_Z0(self):
        ctx = ResolventContext(binary_model(), lam=7.0)
        f = np.exp(-ctx.nodes)
        assert np.all(apply_resolvent_Zbeta(ctx, f) >= apply_resolvent_Z0(ctx, f))

    def test_difference_is_rank_one(self):
        # Zbeta - Z0 output differences are all proportional to e_lam
        ctx = ResolventContext(binary_model(), lam=7.0, n_cells=900)
        shapes = [
            np.exp(-ctx.nodes),
            ctx.nodes * np.exp(-0.7 * ctx.nodes),
            (1 + np.cos(ctx.nodes) ** 2) * np.exp(-1.2 * ctx.nodes),
        ]
        e = ctx.e_lambda
        mask = e > 1e-12 * e.max()
        for f in shapes:
            diff = apply_resolvent_Zbeta(ctx, f) - apply_resolvent_Z0(ctx, f)
            c = float(np.dot(diff[mask], e[mask]) / np.dot(e[mask], e[mask]))
            resid = np.max(np.abs(diff[mask] - c * e[mask])) / np.max(np.abs(diff[mask]))
            assert resid < 1e-8

    def test_exact_inverse_roundtrip(self):
        ctx = ResolventContext(binary_model(), lam=7.0, n_cells=1200)
        f = (1 + ctx.nodes) * np.exp(-1.3 * ctx.nodes)
        back = apply_shifted_generator_Zbeta(ctx, apply_resolvent_Zbeta(ctx, f))
        np.testing.assert_allclose(back, f, rtol=1e-10, atol=1e-13)


class TestFragmentationGain:
    def test_uniform_binary_exponential(self):
        # a(y)=y, b=2/y: int_x^inf 2 e^{-y} dy = 2 e^{-x}
        md = transport_model(a=Linear(0.0, 1.0))
        nodes = midpoint_grid(40.0, 2000)
        out = fragmentation_gain_matrix(md, nodes.size).matvec(np.exp(-nodes))
        np.testing.assert_allclose(out, 2.0 * np.exp(-nodes), atol=5e-4)

    def test_zero_input(self):
        md = transport_model(a=Linear(0.0, 1.0))
        nodes = midpoint_grid(40.0, 100)
        out = fragmentation_gain_matrix(md, nodes.size).matvec(np.zeros_like(nodes))
        assert np.all(out == 0.0)

    def test_mass_moment_fubini(self):
        # int x (B u) dx = int a(y) u(y) y dy for conservative kernels
        md = binary_model()
        nodes = midpoint_grid(50.0, 3000)
        w = quad_weights(nodes)
        u_vals = (1 + nodes) * np.exp(-nodes)
        out = fragmentation_gain_matrix(md, nodes.size).matvec(u_vals)
        lhs = float(np.sum(w * nodes * out))
        rhs = float(np.sum(w * np.asarray(md.a(nodes)) * u_vals * nodes))
        # the diagonal half-panels leave an O(dx) boundary error
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_norm_bound(self):
        # ||B u||_m <= 2 b0 int a(y) u(y) (1+y^m) dy for u >= 0
        md = binary_model()
        nodes = midpoint_grid(50.0, 1500)
        w = quad_weights(nodes)
        u_vals = np.exp(-0.8 * nodes)
        out = fragmentation_gain_matrix(md, nodes.size).matvec(u_vals)
        rhs = 2.0 * 1.0 * float(np.sum(w * np.asarray(md.a(nodes)) * u_vals * (1 + nodes**2)))
        assert xm_norm(md, out) <= rhs * (1 + 1e-9)

    def test_atomic_deposition_conserves_count_and_mass(self):
        md = binary_model(kernel=ShrinkingBinary(0.25))
        nodes = midpoint_grid(50.0, 2500)
        w = quad_weights(nodes)
        u_vals = nodes * np.exp(-nodes)
        out = fragmentation_gain_matrix(md, nodes.size).matvec(u_vals)
        au = np.asarray(md.a(nodes)) * u_vals
        # two daughters per split: count exact by construction; total size
        # exact except for daughters clamped onto the first node
        assert float(np.sum(w * out)) == pytest.approx(2 * float(np.sum(w * au)), rel=1e-12)
        assert float(np.sum(w * nodes * out)) == pytest.approx(
            float(np.sum(w * nodes * au)), rel=1e-5
        )

    def test_positivity(self):
        md = binary_model()
        nodes = midpoint_grid(50.0, 500)
        out = fragmentation_gain_matrix(md, nodes.size).matvec(np.exp(-nodes))
        assert np.all(out >= 0.0)


def dense_gain_oracle(model, nodes):
    """The gain quadrature as a dense n x n matrix, built entry by entry.

    Continuous kernels: trapezoid weights on x < y, a half panel on the
    diagonal carrying the one-sided density limit, zero last diagonal entry.
    Atomic kernels: linear-interpolation deposition of each daughter atom,
    clamped onto the first and last nodes.
    """
    n = nodes.size
    a_vals = np.asarray(model.a(nodes), dtype=float)
    kernel = model.kernel
    g = np.zeros((n, n))
    if isinstance(kernel, ShrinkingBinary):
        wq = quad_weights(nodes)
        for j in range(n):
            source = a_vals[j] * wq[j]
            if source == 0.0:
                continue
            y = float(nodes[j])
            eps = float(kernel.eps_at(y))
            for z in (eps * y, (1.0 - eps) * y):
                k = int(np.searchsorted(nodes, z))
                if k == 0:
                    g[0, j] += source / wq[0]
                elif k >= n:
                    g[n - 1, j] += source / wq[n - 1]
                else:
                    frac = (z - nodes[k - 1]) / (nodes[k] - nodes[k - 1])
                    g[k - 1, j] += source * (1.0 - frac) / wq[k - 1]
                    g[k, j] += source * frac / wq[k]
        return g

    X, Y = nodes[:, None], nodes[None, :]
    inside = (X <= Y) & (Y > 0)
    safe_y = np.where(Y > 0, Y, 1.0)
    if isinstance(kernel, PowerLaw):
        nu = kernel.nu
        vals = (nu + 2.0) * np.power(np.maximum(X, 1e-300), nu) / np.power(safe_y, nu + 1.0)
        dens = np.where(inside, vals, 0.0)
    else:
        rho = np.where(inside, X / safe_y, 0.0)
        dens = np.where(inside, np.asarray(kernel.shape_fn(rho)) / safe_y, 0.0)
    d = np.diff(nodes)
    w_t = np.zeros(n)
    w_t[:-1] += 0.5 * d
    w_t[1:] += 0.5 * d
    pattern = np.triu(np.broadcast_to(w_t, (n, n)), k=1)
    np.fill_diagonal(pattern, np.concatenate((0.5 * d, [0.0])))
    return dens * pattern * a_vals[None, :]


GAIN_KERNELS = [
    UniformBinary(),
    PowerLaw(0.3),
    PowerLaw(1.9),
    ShrinkingBinary(0.25),
    ShrinkingBinary(0.5),
    ShrinkingBinary(InverseEpsilon(2.0)),
    TabulatedKernel(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0, 1.0])),
    TabulatedKernel(np.array([0.0, 1.0]), np.array([0.0, 0.0])),  # no pieces: G = 0
]


class TestGainOperator:
    @pytest.mark.parametrize("kernel", GAIN_KERNELS, ids=repr)
    def test_matches_dense_oracle(self, kernel):
        md = binary_model(a=Linear(0.5, 1.0), kernel=kernel, x_max=20.0)
        n = 400
        dense = dense_gain_oracle(md, midpoint_grid(20.0, n))
        gain = GainOperator(md, n)
        rng = np.random.default_rng(5)
        for _ in range(3):
            u = rng.standard_normal(n)
            expect = dense @ u
            np.testing.assert_allclose(
                gain.matvec(u), expect, rtol=0, atol=1e-13 * np.max(np.abs(expect))
            )
            expect_t = dense.T @ u
            np.testing.assert_allclose(
                gain.rmatvec(u), expect_t, rtol=0, atol=1e-13 * np.max(np.abs(expect_t))
            )

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    @pytest.mark.parametrize("kernel", GAIN_KERNELS, ids=repr)
    def test_split_matches_dense_oracle(self, kernel, scale):
        md = binary_model(a=Linear(0.5, 1.0), kernel=kernel, x_max=20.0)
        n = 400
        dense = scale * dense_gain_oracle(md, midpoint_grid(20.0, n))
        diagonal, apply = GainOperator(md, n).split(scale)
        rng = np.random.default_rng(6)
        for _ in range(3):
            u = rng.standard_normal(n)
            expect = dense @ u
            np.testing.assert_allclose(
                diagonal * u + apply(u, np.empty(n)), expect,
                rtol=0, atol=1e-13 * np.max(np.abs(expect)),
            )

    @pytest.mark.parametrize(
        "kernel",
        [kernel for kernel in GAIN_KERNELS if not isinstance(kernel, ShrinkingBinary)],
        ids=repr,
    )
    def test_density_apply_writes_into_out(self, kernel):
        n = 300
        gain = GainOperator(binary_model(kernel=kernel), n)
        diagonal, apply = gain.split(0.37)
        u, out = np.exp(-midpoint_grid(50.0, n)), np.full(n, np.nan)
        assert apply(u, out) is out
        expect = 0.37 * gain.matvec(u)
        np.testing.assert_allclose(
            diagonal * u + out, expect, rtol=0, atol=1e-14 * np.max(np.abs(expect))
        )

    def test_random_tabulated_kernels_match_dense_oracle(self):
        # ratios on 1/3 and 2/3, where node quotients such as 0.5/1.5 land
        # on the parsed ratio, inside and at the ends; first ratios above 0
        # and last below 1 with nonzero end densities, where h jumps to zero
        n = 300
        nodes = midpoint_grid(20.0, n)
        rng = np.random.default_rng(19)
        for _ in range(16):
            ends = [rng.choice([0.0, 1.0 / 3.0, rng.uniform(0.0, 0.1)]),
                    rng.choice([1.0, 2.0 / 3.0, rng.uniform(0.9, 1.0)])]
            inner = [r for r in (1.0 / 3.0, 0.5, 2.0 / 3.0, *rng.uniform(0.1, 0.9, 3))
                     if ends[0] < r < ends[1]]
            inner = rng.choice(inner, size=rng.integers(0, len(inner) + 1), replace=False)
            ratios = np.unique(np.concatenate((inner, ends)))
            kernel = TabulatedKernel(ratios, rng.uniform(0.0, 5.0, ratios.size))
            md = binary_model(a=Linear(0.5, 1.0), kernel=kernel, x_max=20.0)
            dense = dense_gain_oracle(md, nodes)
            gain = GainOperator(md, n)
            u = rng.standard_normal(n)
            for got, expect in ((gain.matvec(u), dense @ u), (gain.rmatvec(u), dense.T @ u)):
                np.testing.assert_allclose(
                    got, expect, rtol=0, atol=1e-13 * np.max(np.abs(expect))
                )

    @pytest.mark.parametrize(
        "kernel",
        [
            UniformBinary(),
            PowerLaw(0.3),
            ShrinkingBinary(0.25),
            TabulatedKernel(np.array([0.0, 1.0]), np.array([2.0, 2.0])),
            TabulatedKernel(np.array([0.0, 0.5, 1.0]), np.array([0.0, 4.0, 0.0])),
            TabulatedKernel(np.array([0.25, 0.5, 0.75]), np.array([3.0, 5.0, 3.0])),
        ],
        ids=repr,
    )
    def test_storage_is_linear_in_the_grid(self, kernel):
        # at most eight arrays of n entries per separable piece
        n = 20000
        gain = GainOperator(binary_model(kernel=kernel), n)
        assert gain.nbytes <= 8 * 8 * n * max(1, len(gain._pieces))

    def test_context_holds_the_memoised_operator(self):
        md = binary_model()
        ctx = ResolventContext(md, lam=7.0, n_cells=300)
        assert fragmentation_gain_matrix(md, 300) is ctx.gain


class TestResolventK:
    def test_collapses_without_fragmentation(self):
        md = binary_model(a=Constant(0.0))
        ctx = ResolventContext(md, lam=7.0, n_cells=800)
        f = np.exp(-ctx.nodes)
        np.testing.assert_array_equal(apply_resolvent_K(ctx, f)[0], apply_resolvent_Zbeta(ctx, f))

    def test_defect_within_series_tolerance(self):
        # the discretely applied (lam - K) must reproduce f up to 10*tol
        ctx = ResolventContext(binary_model(), lam=7.0, n_cells=1200)
        f = (1 + ctx.nodes) * np.exp(-1.3 * ctx.nodes)
        tol = 1e-10
        vals, n_terms, defect = apply_resolvent_K(ctx, f, tol)
        assert n_terms < 200
        back = apply_shifted_generator_K(ctx, vals)
        resid = ctx.norm_m(back - f)
        assert resid <= 10 * tol
        assert resid == pytest.approx(defect, rel=1e-6, abs=1e-13)

    @pytest.mark.parametrize("kernel", [UniformBinary(), ShrinkingBinary(0.25)], ids=repr)
    def test_both_series_return_the_series_triple(self, kernel):
        # (values, n_terms, defect) exactly as the series routine computes them
        ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=300)
        wq = quad_weights(ctx.nodes)
        f = (1.0 + ctx.nodes) * np.exp(-1.3 * ctx.nodes)
        tol = 1e-10
        cases = [
            (apply_resolvent_K(ctx, f, tol), resolvent._neumann_series(
                f, lambda g: apply_resolvent_Zbeta(ctx, g), ctx.gain.matvec, ctx.norm_m, tol)),
            (_resolvent_K_transpose(ctx, f, tol), resolvent._neumann_series(
                f, lambda z: resolvent._apply_resolvent_Zbeta_transpose(ctx, z),
                lambda z: ctx.gain.rmatvec(wq * z) / wq, ctx.dual_norm, tol)),
        ]
        for (vals, n_terms, defect), (expect, expect_n, expect_defect) in cases:
            np.testing.assert_array_equal(vals, expect)
            assert (n_terms, defect) == (expect_n, expect_defect)
            assert 1 < n_terms < 200
            assert defect < tol

    def test_renewal_increases_solution(self):
        md_b = binary_model()
        md_0 = binary_model(beta=Constant(0.0))
        nodes = midpoint_grid(50.0, 900)
        f_vals = np.exp(-nodes)
        ctx_b = ResolventContext(md_b, lam=7.0, n_cells=900)
        ctx_0 = ResolventContext(md_0, lam=7.0, n_cells=900)
        u_b, _n, _defect = apply_resolvent_K(ctx_b, f_vals)
        u_0, _n, _defect = apply_resolvent_K(ctx_0, f_vals)
        assert np.all(u_b >= u_0)

    def test_partial_sums_monotone(self):
        # looser tolerance truncates earlier; for f >= 0 increments are >= 0
        ctx = ResolventContext(binary_model(), lam=7.0, n_cells=600)
        f = np.exp(-ctx.nodes)
        u_loose, _n, _defect = apply_resolvent_K(ctx, f, tol=1e-4)
        u_tight, _n, _defect = apply_resolvent_K(ctx, f, tol=1e-12)
        assert np.all(u_tight >= u_loose - 1e-15)

    def test_divergence_detected_below_growth_rate(self):
        # the balanced-growth rate of this model is 1.5; the series cannot
        # contract below it
        ctx = ResolventContext(binary_model(), lam=1.2, n_cells=400, strict=False)
        with pytest.raises(SeriesDivergenceError):
            apply_resolvent_K(ctx, np.exp(-ctx.nodes))

    def test_invalid_tolerance(self):
        ctx = ResolventContext(binary_model(), lam=7.0, n_cells=100)
        with pytest.raises(InvalidInputError):
            apply_resolvent_K(ctx, np.exp(-ctx.nodes), tol=0.0)

    @pytest.mark.parametrize("lam", [1.8, 1.9])
    def test_term_cap_with_defect_above_tol_raises(self, lam):
        # just above the balanced-growth rate 1.5 the terms shrink too slowly:
        # after the 201-term cap the defect is 0.57 (lam 1.8) or 1.8e-5
        # (lam 1.9), both above tol, in either direction
        ctx = ResolventContext(binary_model(), lam=lam, n_cells=400, strict=False)
        with pytest.raises(SeriesDivergenceError, match="in 200 terms"):
            apply_resolvent_K(ctx, np.exp(-ctx.nodes), tol=1e-10)
        with pytest.raises(SeriesDivergenceError, match="in 200 terms"):
            _resolvent_K_transpose(ctx, np.ones_like(ctx.nodes), 1e-10)


class TestResolventKTranspose:
    @pytest.mark.parametrize(
        "kernel", [UniformBinary(), PowerLaw(1.9), ShrinkingBinary(0.25)], ids=repr
    )
    def test_matches_transpose_of_forward_matrix(self, kernel, monkeypatch):
        # the adjoint in the quadrature inner product is W^-1 M^T W, with M
        # the forward resolvent matrix and W = diag(quadrature weights)
        ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=80)
        n = ctx.nodes.size
        forward = np.empty((n, n))
        for j in range(n):
            e_j = np.zeros(n)
            e_j[j] = 1.0
            forward[:, j] = apply_resolvent_K(ctx, e_j, tol=1e-13)[0]
        wq = quad_weights(ctx.nodes)
        g = np.random.default_rng(11).standard_normal(n)
        expect = forward.T @ (wq * g) / wq

        defects = []
        series = resolvent._neumann_series

        def spy(*args, **kwargs):
            out = series(*args, **kwargs)
            defects.append(out[2])
            return out

        monkeypatch.setattr(resolvent, "_neumann_series", spy)
        tol = 1e-12
        got = _resolvent_K_transpose(ctx, g, tol)[0]
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-9 * np.max(np.abs(expect)))
        assert len(defects) == 1
        assert defects[0] <= tol


def _reference_series(first, apply_R, apply_B, norm, tol):
    # the series stopping rule, written out: stop once a term and its gain
    # image are both below tol
    term = apply_R(first)
    total = term.copy()
    prev = norm(term)
    for _ in range(200):
        image = apply_B(term)
        if prev < tol and norm(image) < tol:
            return total
        term = apply_R(image)
        total += term
        prev = norm(term)
    raise AssertionError("reference series did not converge")


LEAN_KERNELS = [UniformBinary(), PowerLaw(1.9), ShrinkingBinary(0.25)]


class TestLeanSeriesBitwise:
    # the series reuses the context's products; its sums must equal, bit
    # for bit, a loop built from the public pieces

    @pytest.mark.parametrize("kernel", LEAN_KERNELS, ids=repr)
    def test_forward_matches_validated_loop(self, kernel):
        ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=300)
        f_vals = (1.0 + ctx.nodes) * np.exp(-1.3 * ctx.nodes)
        expect = _reference_series(
            f_vals,
            lambda g: apply_resolvent_Zbeta(ctx, g),
            ctx.gain.matvec,
            ctx.norm_m,
            1e-10,
        )
        got = apply_resolvent_K(ctx, f_vals, tol=1e-10)[0]
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("kernel", LEAN_KERNELS, ids=repr)
    def test_adjoint_matches_loop(self, kernel):
        ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=300)
        wq = quad_weights(ctx.nodes)
        g = np.random.default_rng(3).standard_normal(ctx.nodes.size)
        expect = _reference_series(
            g,
            lambda z: resolvent._apply_resolvent_Zbeta_transpose(ctx, z),
            lambda z: ctx.gain.rmatvec(wq * z) / wq,
            ctx.dual_norm,
            1e-10,
        )
        assert np.array_equal(_resolvent_K_transpose(ctx, g, 1e-10)[0], expect)

    @pytest.mark.parametrize("kernel", LEAN_KERNELS, ids=repr)
    def test_renewal_resolvents_match_their_definitions(self, kernel):
        # R_beta = (I + E) R_0 forward, R_0* (I + E*) backward, with the
        # pairings written out against the unmemoised weights
        md = binary_model(kernel=kernel)
        ctx = ResolventContext(md, lam=7.0, n_cells=300)
        wq = quad_weights(ctx.nodes)
        beta = np.asarray(boundary_weight_flux(md)(ctx.nodes), dtype=float)
        e = ctx.e_lambda
        f = np.exp(-ctx.nodes)
        z0 = apply_resolvent_Z0(ctx, f)
        np.testing.assert_array_equal(apply_resolvent_Zbeta(ctx, f), z0 + apply_E_lambda(ctx, z0))
        assert ctx.pair_beta(z0) == float(np.sum(wq * beta * z0))
        gap = 1.0 - float(np.sum(wq * beta * e))
        g = np.cos(ctx.nodes)
        c = float(np.sum(wq * e * g)) / gap
        np.testing.assert_array_equal(
            resolvent._apply_resolvent_Zbeta_transpose(ctx, g),
            resolvent._apply_resolvent_Z0_transpose(ctx, g + c * beta),
        )


DIRECT_KERNELS = [
    UniformBinary(),
    PowerLaw(1.9),
    ShrinkingBinary(0.25),
    TabulatedKernel(np.array([0.0, 0.5, 1.0]), np.array([1.0, 3.0, 1.0])),
]

# windows that end before the last node and rows whose window is empty
INNER_WINDOW_KERNEL = TabulatedKernel(np.array([0.25, 0.5, 0.75]), np.array([3.0, 5.0, 3.0]))


def _rel_max(got, expect):
    return float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))


class TestDirectResolvent:
    @pytest.mark.parametrize("n", [80, 400])
    @pytest.mark.parametrize("kernel", DIRECT_KERNELS, ids=repr)
    def test_matches_forward_series(self, kernel, n):
        ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=n)
        direct = DirectResolvent(ctx)
        for seed in range(3):
            f = np.random.default_rng(seed).standard_normal(n)
            expect = apply_resolvent_K(ctx, f, tol=1e-13)[0]
            assert _rel_max(direct.solve(f), expect) <= 1e-12

    @pytest.mark.parametrize("n", [80, 400])
    @pytest.mark.parametrize("kernel", DIRECT_KERNELS, ids=repr)
    def test_matches_adjoint_series(self, kernel, n):
        # the adjoint series' truncation error at tol 1e-13 reaches ~1e-12 of
        # the max on random-sign inputs, so the oracle runs at 1e-14
        ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=n)
        direct = DirectResolvent(ctx)
        for seed in range(3):
            g = np.random.default_rng(seed).standard_normal(n)
            expect = _resolvent_K_transpose(ctx, g, 1e-14)[0]
            assert _rel_max(direct.solve_transpose(g), expect) <= 1e-12

    @pytest.mark.parametrize("kernel", DIRECT_KERNELS + [INNER_WINDOW_KERNEL], ids=repr)
    @pytest.mark.parametrize("sigma", [None, 5.0, 9.0])
    def test_inverts_the_shifted_generator(self, kernel, sigma):
        ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=400)
        direct = DirectResolvent(ctx, sigma)
        shift = 0.0 if sigma is None else sigma - ctx.lam
        u = np.random.default_rng(3).standard_normal(ctx.nodes.size)
        applied = apply_shifted_generator_K(ctx, u)
        assert _rel_max(direct.solve(applied + shift * u), u) <= 1e-12

    def test_adjoint_is_the_weighted_transpose(self):
        for kernel in (PowerLaw(1.9), INNER_WINDOW_KERNEL):
            ctx = ResolventContext(binary_model(kernel=kernel), lam=7.0, n_cells=200)
            direct = DirectResolvent(ctx, 3.0)
            rng = np.random.default_rng(4)
            f, g = rng.standard_normal((2, 200))
            wq = quad_weights(ctx.nodes)
            left = float(np.sum(wq * g * direct.solve(f)))
            right = float(np.sum(wq * direct.solve_transpose(g) * f))
            assert left == pytest.approx(right, rel=1e-12)

    @pytest.mark.parametrize("sigma", [5.0, 9.0])
    def test_other_shift_matches_the_series_of_a_context_there(self, sigma):
        # the context at sigma discretises the transport with other panel
        # weights, so the two agree to the grid's second-order error
        md = binary_model()
        diffs = []
        for n in (200, 800):
            ctx = ResolventContext(md, lam=7.0, n_cells=n)
            there = ResolventContext(md, lam=sigma, n_cells=n, strict=False)
            f = np.exp(-ctx.nodes) * (1.0 + ctx.nodes)
            expect = apply_resolvent_K(there, f, tol=1e-13)[0]
            got = DirectResolvent(ctx, sigma).solve(f)
            diffs.append(ctx.norm_m(got - expect) / ctx.norm_m(expect))
        assert diffs[1] <= 1e-3
        assert diffs[1] <= diffs[0] / 8.0

    def test_structured_kernels_store_no_square_array(self):
        ctx = ResolventContext(binary_model(kernel=ShrinkingBinary(0.25)), lam=7.0, n_cells=2000)
        direct = DirectResolvent(ctx)
        for arr in vars(direct).values():
            assert not (isinstance(arr, np.ndarray) and arr.ndim == 2)
        ctx = ResolventContext(binary_model(), lam=7.0, n_cells=2000)
        assert DirectResolvent(ctx)._lu.nnz <= 64 * 2000


class TestContextValidation:
    def test_strict_range_enforced(self):
        with pytest.raises(LambdaOutOfRangeError):
            ResolventContext(binary_model(), lam=4.0, n_cells=100)  # omega_r + beta_m > 4.6

    def test_strict_floor_of_a_tabulated_growth_rate(self):
        # r = 1 everywhere, tabulated from x = 1 on: the floor of Constant(1), 4.1
        for r in (Constant(1.0), Tabulated([1.0, 2.0], [1.0, 1.0])):
            with pytest.raises(LambdaOutOfRangeError):
                ResolventContext(binary_model(r=r, beta=Constant(0.1)), lam=2.5, n_cells=100)

    def test_relaxed_range_allows_small_lambda(self):
        ctx = ResolventContext(binary_model(), lam=2.0, n_cells=100, strict=False)
        assert ctx.beta_pairing < 1.0

    def test_pairing_at_least_one_rejected(self):
        # large constant renewal weight at small lambda: <beta, e_lam> >= 1
        md = transport_model(beta=Constant(5.0))
        with pytest.raises(LambdaOutOfRangeError):
            ResolventContext(md, lam=0.5, n_cells=400, strict=False)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(LambdaOutOfRangeError):
            ResolventContext(transport_model(), lam=-1.0, n_cells=100, strict=False)


class TestTechnicalBounds:
    # weighted tail integrals of the transport flow against their closed bounds
    @pytest.mark.parametrize("lam", [5.0, 9.0])
    @pytest.mark.parametrize("a_lo,b_hi", [(0.5, 5.0), (2.0, 30.0)])
    def test_first_bound(self, lam, a_lo, b_hi):
        md = transport_model(r=Linear(1.0, 1.0), a=Linear(0.0, 1.0))
        R = lambda x: compute_RQ(md, x)[0]
        m = md.m
        omega = 2 * m * 1.0
        val, _ = integrate.quad(
            lambda s: np.exp(-lam * R(s)) / md.r(s) * (1 + s**m), a_lo, b_hi, limit=200
        )
        bound = np.exp(-lam * R(a_lo)) * (1 + a_lo**m) / (lam - omega)
        assert val <= bound * (1 + 1e-9)

    @pytest.mark.parametrize("lam", [5.0, 9.0])
    @pytest.mark.parametrize("a_lo,b_hi", [(0.5, 5.0), (2.0, 30.0)])
    def test_second_bound(self, lam, a_lo, b_hi):
        md = transport_model(r=Linear(1.0, 1.0), a=Linear(0.0, 1.0))
        m = md.m
        omega = 2 * m * 1.0

        def decay(x):
            R, Q = compute_RQ(md, x)
            return np.exp(-lam * R - Q)

        val, _ = integrate.quad(
            lambda s: (lam + md.a(s)) * decay(s) / md.r(s) * (1 + s**m),
            a_lo,
            b_hi,
            limit=200,
        )
        bound = lam * decay(a_lo) * (1 + a_lo**m) / (lam - omega)
        assert val <= bound * (1 + 1e-9)
