import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from gfrag import model as model_module
from gfrag.errors import ConvergenceError, DivergentNormError, InvalidInputError, InvalidModelError
from gfrag.model import (
    Constant,
    GridFunction,
    InverseEpsilon,
    Linear,
    ModelDefinition,
    Power,
    PowerLaw,
    ShrinkingBinary,
    Tabulated,
    TabulatedKernel,
    UniformBinary,
    boundary_weight_flux,
    coefficient_from_config,
    compute_RQ,
    density_pieces,
    dual_norm,
    kernel_atoms,
    kernel_defect,
    kernel_from_config,
    kernel_moment,
    load_model,
    midpoint_grid,
    model_from_config,
    pairing,
    quad_weights,
    shift_floor,
    validate_assumptions,
    xm_norm,
)


def make_model(**kw):
    base = dict(
        r=Linear(1.0, 1.0),
        a=Linear(0.0, 1.0),
        kernel=UniformBinary(),
        beta=Linear(0.5, 0.5),
        m=2.0,
    )
    base.update(kw)
    return ModelDefinition(**base)


class TestCoefficients:
    def test_constant_vectorized(self):
        c = Constant(3.0)
        assert c(2.0) == 3.0
        np.testing.assert_array_equal(c(np.array([0.0, 1.0])), [3.0, 3.0])

    def test_linear_and_power(self):
        assert Linear(1.0, 2.0)(3.0) == 7.0
        assert Power(2.0, 3.0)(2.0) == 2.0 * 9.0

    def test_tabulated_interpolates_and_extends(self):
        t = Tabulated([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
        assert t(0.5) == 1.0
        assert t(5.0) == 0.0  # constant extension of trailing zero
        assert t(-1.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(InvalidModelError, match="got c0=-1.0, c1=0.0"):
            Constant(-1.0)
        with pytest.raises(InvalidModelError):
            Tabulated([0.0, 1.0], [1.0, -1.0])


_value = st.one_of(st.just(0.0), st.floats(0.01, 10.0))


@st.composite
def _scalar_case(draw):
    """A Constant, Linear or Tabulated spec and points to evaluate it at.

    Tabulated specs have 2 to 8 nodes, zero values and flat pieces; their
    points include every node, its neighbouring floats, 0, points below the
    first node and points past the last.
    """
    kind = draw(st.sampled_from(("constant", "linear", "tabulated")))
    points = [0.0] + draw(st.lists(st.floats(-5.0, 100.0), min_size=1, max_size=8))
    if kind == "constant":
        return Constant(draw(_value)), points
    if kind == "linear":
        return Linear(draw(_value), draw(_value)), points
    n = draw(st.integers(2, 8))
    steps = [draw(st.floats(0.0, 5.0))] + [draw(st.floats(0.001, 10.0)) for _ in range(n - 1)]
    nodes = np.cumsum(steps).tolist()
    values = [draw(_value)]
    for _ in range(n - 1):
        values.append(values[-1] if draw(st.booleans()) else draw(_value))
    lo, hi = nodes[0], nodes[-1]
    points += nodes + [math.nextafter(x, d) for x in nodes for d in (-math.inf, math.inf)]
    points += [lo - draw(st.floats(0.001, 5.0)), lo * draw(st.floats(0.0, 1.0))]
    points += [hi + draw(st.floats(0.001, 50.0)), hi + 1e6]
    points += [draw(st.floats(lo, hi)) for _ in range(4)]
    return Tabulated(nodes, values), points


@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=_scalar_case())
def test_scalar_evaluator_matches_the_array_path_bitwise(case):
    spec, points = case
    for s in points:
        got, want = spec.at(s), float(spec(s))
        assert type(got) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (s, got, want)


class TestKernelMoments:
    def test_uniform_binary(self):
        # int_0^y x^m (2/y) dx = 2 y^m/(m+1)
        assert kernel_moment(UniformBinary(), 2, 3.0) == pytest.approx(6.0, rel=1e-14)
        assert kernel_moment(UniformBinary(), 0, 7.0) == pytest.approx(2.0, rel=1e-14)
        assert kernel_moment(UniformBinary(), 1, 7.0) == pytest.approx(7.0, rel=1e-14)

    def test_power_law(self):
        # (nu+2) y^m / (m+nu+1); nu=1, m=2, y=2 -> 3*4/4 = 3
        assert kernel_moment(PowerLaw(1.0), 2, 2.0) == pytest.approx(3.0, rel=1e-14)
        # nu=0 reduces to the uniform case
        y = np.array([1.0, 2.5, 9.0])
        np.testing.assert_allclose(
            kernel_moment(PowerLaw(0.0), 2, y), kernel_moment(UniformBinary(), 2, y), rtol=1e-14
        )

    def test_shrinking_binary(self):
        # atoms at eps*y and (1-eps)*y: n_2 = y^2 (eps^2 + (1-eps)^2)
        assert kernel_moment(ShrinkingBinary(0.25), 2, 2.0) == pytest.approx(2.5, rel=1e-14)
        assert kernel_moment(ShrinkingBinary(0.25), 1, 5.0) == pytest.approx(5.0, rel=1e-14)
        atoms = kernel_atoms(ShrinkingBinary(0.25), 4.0)
        assert atoms == [(1.0, 1.0), (3.0, 1.0)]

    def test_inverse_epsilon(self):
        eps = InverseEpsilon(1.0)
        assert eps(0.5) == 0.5  # capped at one half
        assert eps(4.0) == 0.25

    def test_tabulated_kernel_uniform_shape(self):
        tk = TabulatedKernel([0.0, 1.0], [2.0, 2.0])
        y = np.array([1.0, 5.0])
        np.testing.assert_allclose(kernel_moment(tk, 1, y), y, rtol=1e-12)
        np.testing.assert_allclose(kernel_moment(tk, 2, y), 2.0 * y**2 / 3.0, rtol=1e-12)

    def test_defect(self):
        assert kernel_defect(UniformBinary(), 2, 3.0) == pytest.approx(3.0, rel=1e-14)
        assert kernel_defect(PowerLaw(1.0), 2, 2.0) == pytest.approx(1.0, rel=1e-14)

    @staticmethod
    def density(kernel, x, y):
        # b(x, y) summed over the pieces whose ratio window holds x / y
        pieces = density_pieces(kernel, np.append(x, y))
        ratio = x / y
        return sum(
            np.where((lo < ratio) & (ratio <= hi), p[:-1] * q[-1], 0.0)
            for lo, hi, p, q in pieces
        )

    def test_density_consistency(self):
        # numeric moment of the density matches the closed form; midpoint rule
        # because the density jumps to zero exactly at x = y
        edges = np.linspace(0.0, 4.0, 20001)
        x = 0.5 * (edges[:-1] + edges[1:])
        dx = edges[1] - edges[0]
        for kern in (UniformBinary(), PowerLaw(1.0), TabulatedKernel([0.0, 1.0], [2.0, 2.0])):
            n2 = np.sum(x**2 * self.density(kern, x, 4.0)) * dx
            assert n2 == pytest.approx(kernel_moment(kern, 2, 4.0), rel=1e-6)

    def test_pieces_sum_to_the_tabulated_density(self):
        # ratios on the ends and the knots included: the first window is
        # closed, as np.interp treats the end ratios, and h is zero outside
        kern = TabulatedKernel([0.2, 1.0 / 3.0, 0.5, 0.9], [1.5, 4.0, 0.0, 2.5])
        y = 3.0
        ratio = np.concatenate((kern.ratios, np.random.default_rng(3).uniform(0.0, 1.0, 400)))
        x = ratio * y
        expect = kern.shape_fn(x / y) / y
        np.testing.assert_allclose(self.density(kern, x, y), expect, rtol=0, atol=1e-14)

    def test_density_rejected_for_atomic(self):
        with pytest.raises(InvalidInputError):
            density_pieces(ShrinkingBinary(0.25), np.array([1.0, 2.0]))

    def test_count_bound(self):
        def fitted(kernel):
            report = validate_assumptions(make_model(kernel=kernel))
            return report.b0_fitted, report.l_fitted

        assert fitted(UniformBinary()) == (1.0, 0.0)
        b0, l = fitted(PowerLaw(2.0))
        assert l == 0.0 and b0 == pytest.approx(4.0 / 6.0, rel=1e-14)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidModelError):
            PowerLaw(-1.0)
        with pytest.raises(InvalidModelError):
            ShrinkingBinary(0.75)
        with pytest.raises(InvalidInputError):
            kernel_moment(UniformBinary(), 1, 0.0)

    @pytest.mark.parametrize(
        "eps", [2, 0, -0.1, np.float64(0.6), float("nan"), float("inf"), "0.3", True, None],
        ids=["int-2", "int-0", "negative", "numpy-above-half", "nan", "inf", "string", "bool",
             "none"],
    )
    def test_split_fraction_must_be_a_number_in_range(self, eps):
        # eps = 2 would place a daughter at -y
        with pytest.raises(InvalidModelError):
            ShrinkingBinary(eps)

    @pytest.mark.parametrize(
        "eps", [np.float64(0.25), Fraction(1, 4), 0.5], ids=["numpy", "fraction", "half"]
    )
    def test_split_fraction_is_stored_as_float(self, eps):
        kern = ShrinkingBinary(eps)
        assert type(kern.eps) is float
        assert kern.eps_at(4.0) == float(eps)


class TestGridsAndNorms:
    def test_midpoint_grid(self):
        np.testing.assert_allclose(midpoint_grid(1.0, 4), [0.125, 0.375, 0.625, 0.875])

    def test_quad_weights_cover_origin(self):
        nodes = midpoint_grid(1.0, 4)
        w = quad_weights(nodes)
        assert w.sum() == pytest.approx(nodes[-1], rel=1e-14)  # covers [0, last node]

    def test_xm_norm_exponential(self):
        # int (1+x^2) e^{-x} dx = 3
        g = midpoint_grid(40.0, 4000)
        f = GridFunction(g, np.exp(-g))
        assert xm_norm(f, 2.0) == pytest.approx(3.0, rel=1e-4)

    def test_pairing(self):
        g = midpoint_grid(40.0, 4000)
        f = GridFunction(g, np.exp(-g))
        # int x e^{-x} = 1
        assert pairing(lambda x: x, f) == pytest.approx(1.0, rel=1e-4)

    def test_grid_function_tail_is_zero(self):
        f = GridFunction([0.5, 1.0], [2.0, 2.0])
        assert f(3.0) == 0.0
        assert f(0.1) == 2.0  # constant extension toward the origin

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            GridFunction([1.0, 0.5], [1.0, 1.0])

    @pytest.mark.parametrize(
        "nodes",
        [[np.nan] * 3, [0.5, np.nan, 2.0], [0.5, 1.0, np.inf], [-np.inf, 0.5, 1.0]],
        ids=["all-nan", "nan-inside", "inf-last", "minus-inf-first"],
    )
    def test_non_finite_nodes_rejected(self, nodes):
        with pytest.raises(InvalidInputError):
            GridFunction(nodes, np.ones(3))

    @pytest.mark.parametrize("x_max", [np.inf, np.nan, -np.inf])
    def test_midpoint_grid_rejects_non_finite_x_max(self, x_max):
        with pytest.raises(InvalidInputError):
            midpoint_grid(x_max, 4)


class TestRQ:
    def test_affine_closed_form(self):
        # r = 1+x, a = x: R = log(1+x), Q = x - log(1+x)
        R, Q = compute_RQ(make_model(), 1.0)
        assert R == pytest.approx(np.log(2.0), rel=1e-14)
        assert Q == pytest.approx(1.0 - np.log(2.0), rel=1e-14)

    def test_constant_rates(self):
        R, Q = compute_RQ(make_model(r=Constant(2.0), a=Constant(3.0)), 4.0)
        assert R == pytest.approx(2.0, rel=1e-14)
        assert Q == pytest.approx(6.0, rel=1e-14)

    def test_zero_loss(self):
        assert compute_RQ(make_model(a=Constant(0.0)), 3.0)[1] == 0.0

    @pytest.mark.parametrize(
        "r, a",
        [
            (Constant(1.5), Power(0.8, 2.5)),  # power a over constant r
            (Power(0.75, 0.0), Power(0.8, 0.5)),  # r = 1.5 by way of p = 0
            (Power(0.5, 1.0), Power(0.8, 1.0)),  # r = 0.5(1+x), a = 0.8(1+x): p = 1
            (Power(0.5, 0.0), Power(0.4, 0.0)),  # constant rates, both p = 0
        ],
        ids=["power-a", "r-p0", "p1", "p0"],
    )
    def test_power_coefficients_take_closed_forms_that_match_quadrature(self, r, a, quad_calls):
        xs = (0.3, 1.0, 2.5, 6.0)
        got_R, got_Q = compute_RQ(make_model(r=r, a=a), xs)
        assert quad_calls == []
        for x, R, Q in zip(xs, got_R, got_Q):
            want_R = integrate.quad(lambda s: 1.0 / r(s), 0.0, x, epsabs=1e-14, epsrel=1e-13)[0]
            want_Q = integrate.quad(lambda s: a(s) / r(s), 0.0, x, epsabs=1e-14, epsrel=1e-13)[0]
            assert R == pytest.approx(want_R, rel=1e-10, abs=1e-10)
            assert Q == pytest.approx(want_Q, rel=1e-10, abs=1e-10)

    def test_numeric_fallback_matches_closed_form(self):
        # tabulated r is exactly 1+x, so the quadrature path must agree
        md = make_model(r=Tabulated([0.0, 100.0], [1.0, 101.0]))
        xs = np.array([0.25, 1.0, 2.0, 7.5])
        R, Q = compute_RQ(md, xs)
        np.testing.assert_allclose(R, np.log1p(xs), rtol=1e-9)
        np.testing.assert_allclose(Q, xs - np.log1p(xs), rtol=1e-9)

    def test_numeric_fallback_unsorted_queries(self):
        md = make_model(r=Tabulated([0.0, 100.0], [1.0, 101.0]))
        xs = np.array([2.0, 0.5, 1.0, 3.0])
        np.testing.assert_allclose(compute_RQ(md, xs)[1], xs - np.log1p(xs), rtol=1e-9)

    @pytest.fixture
    def quad_calls(self, monkeypatch):
        """The (x0, x, value) of every quad call compute_RQ makes, in order."""
        calls = []

        class Recording:
            def __init__(self, inner):
                self._inner = inner

            def quad(self, g, x0, x, **kwargs):
                out = self._inner.quad(g, x0, x, **kwargs)
                calls.append((x0, x, out[0]))
                return out

        monkeypatch.setattr(model_module, "integrate", Recording(model_module.integrate))
        return calls

    @staticmethod
    def _one_pass(points, breaks):
        """The (x0, x) segments of one pass: consecutive gaps split at the breaks."""
        segments, x0 = [], 0.0
        for x in sorted(set(points)):
            for end in [b for b in breaks if x0 < b < x] + [x]:
                segments.append((x0, end))
                x0 = end
        return segments

    # r has nodes 4 and 20, a has nodes 3 and 10: R's pass splits at 4 and 20,
    # Q's at all four
    TAB_R = Tabulated([0.0, 4.0, 20.0], [1.0, 3.0, 0.5])
    TAB_A = Tabulated([0.0, 3.0, 10.0], [0.5, 2.0, 1.0])

    def test_sorted_grid_integrates_each_gap_once_split_at_the_breaks(self, quad_calls):
        grid = np.linspace(0.5, 18.0, 40).tolist() + [20.0, 25.0]
        R, Q = compute_RQ(make_model(r=self.TAB_R, a=self.TAB_A), grid)
        r_pass = self._one_pass(grid, [4.0, 20.0])
        q_pass = self._one_pass(grid, [3.0, 4.0, 10.0, 20.0])
        assert [(x0, x) for x0, x, _ in quad_calls] == r_pass + q_pass
        # each value is the running sum of the increments up to its point
        for got, calls in ((R, quad_calls[: len(r_pass)]), (Q, quad_calls[len(r_pass) :])):
            total, at = 0.0, {}
            for _, x, inc in calls:
                total += inc
                at[x] = total
            assert got.tolist() == [at[x] for x in grid]

    def test_repeated_points_add_no_segment(self, quad_calls):
        md = make_model(r=self.TAB_R, a=Constant(0.0))
        grid = np.linspace(0.5, 18.0, 40)
        R = compute_RQ(md, grid)[0]
        once = quad_calls[:]
        del quad_calls[:]
        R_rep, Q_rep = compute_RQ(md, np.repeat(grid, 3))
        assert [(x0, x) for x0, x, _ in once] == self._one_pass(grid, [4.0, 20.0])
        assert quad_calls == once
        assert np.array_equal(R_rep, np.repeat(R, 3))
        assert not Q_rep.any()

    def test_unsorted_points_take_the_sorted_pass(self, quad_calls):
        md = make_model(r=self.TAB_R, a=self.TAB_A)
        grid = np.linspace(0.0, 30.0, 61)
        R, Q = compute_RQ(md, grid)
        sorted_calls = quad_calls[:]
        del quad_calls[:]
        perm = np.random.default_rng(3).permutation(grid.size)
        R_perm, Q_perm = compute_RQ(md, grid[perm].reshape(61, 1))
        assert quad_calls == sorted_calls
        assert R_perm.shape == Q_perm.shape == (61, 1)
        assert np.array_equal(R_perm[:, 0], R[perm]) and np.array_equal(Q_perm[:, 0], Q[perm])

    @pytest.mark.parametrize("r", [TAB_R, Linear(1.0, 1.0)], ids=["quadrature", "closed-form"])
    @pytest.mark.parametrize("x", [-1e-300, [1.0, -2.0], [0.5, np.nan]], ids=["scalar", "in-array", "nan"])
    def test_negative_points_raise(self, r, x, quad_calls):
        with pytest.raises(InvalidInputError):
            compute_RQ(make_model(r=r), x)
        assert quad_calls == []

    @staticmethod
    def _panelwise_RQ(nodes, values, a0, a1, x):
        """R(x) and Q(x) for r through (nodes, values) from nodes[0] = 0, flat past the last node.

        On a panel from p with r = r_p + k*t, t = s - p, int dt/r is
        log1p(k*t/r_p)/k (t/r_p when k = 0), and a = A + a1*t with
        (A + a1*t)/r = a1/k + (A - a1*r_p/k)/r.
        """
        R = Q = 0.0
        ends = list(zip(nodes, values))
        for (p, rp), (q, rq) in zip(ends, ends[1:] + [(math.inf, values[-1])]):
            if x <= p:
                break
            t = min(x, q) - p
            k = 0.0 if q == math.inf else (rq - rp) / (q - p)
            A = a0 + a1 * p
            if k == 0.0:
                R += t / rp
                Q += (A * t + 0.5 * a1 * t * t) / rp
            else:
                L = math.log1p(k * t / rp) / k
                R += L
                Q += a1 * t / k + (A - a1 * rp / k) * L
        return R, Q

    @pytest.mark.parametrize("bump", [0.1, -0.1, 0.05, 0.0])
    @pytest.mark.parametrize("a0, a1", [(0.0, 0.5), (0.0, 1.5), (0.3, 1.0)])
    def test_quadrature_matches_panelwise_closed_form(self, bump, a0, a1):
        # the eigen-mix tab_r shape: kinks at 7.5, 15 and 22.5
        nodes = [0.0, 7.5, 15.0, 22.5, 30.0]
        values = [1.1, 1.1 * (1.0 + bump), 1.1, 1.1 * (1.0 - bump), 1.1]
        md = make_model(r=Tabulated(nodes, values), a=Linear(a0, a1), x_max=30.0)
        straddle = [x + d for x in nodes[1:] for d in (-1e-9, 0.0, 1e-9)]
        straddle += [math.nextafter(x, d) for x in nodes[1:] for d in (-math.inf, math.inf)]
        grids = [
            midpoint_grid(30.0, 200),
            np.linspace(0.0, 30.0, 9),
            np.array(straddle + [0.1, 29.999, 31.0, 40.0]),
        ]
        for xs in grids:
            R, Q = compute_RQ(md, xs)
            want = np.array([self._panelwise_RQ(nodes, values, a0, a1, x) for x in xs])
            np.testing.assert_allclose(R, want[:, 0], rtol=0, atol=1e-10)
            np.testing.assert_allclose(Q, want[:, 1], rtol=0, atol=1e-10)
            # scalar queries after the batch land on the same values
            for x, (r_want, q_want) in zip(xs[::7], want[::7]):
                R, Q = compute_RQ(md, float(x))
                assert abs(R - r_want) <= 1e-10
                assert abs(Q - q_want) <= 1e-10

    def test_quadrature_that_does_not_converge_raises(self):
        # 1/r rises to 1e300 at the origin: quad exhausts its 200 subdivisions
        md = make_model(r=Tabulated([0.0, 1.0, 2.0], [1e-300, 1.0, 1.0]))
        with pytest.raises(ConvergenceError, match="did not converge"):
            compute_RQ(md, 1.5)

    def test_compact_loss_has_finite_exponent_limit(self):
        md = make_model(
            r=Tabulated([0.0, 10.0], [1.0, 1.0]),
            a=Tabulated([0.0, 1.0, 2.0], [1.0, 1.0, 0.0]),
        )
        Q = compute_RQ(md, [2.0, 10.0])[1]
        # Q stops growing where a vanishes: its limit is the integral of the hat profile
        assert Q[0] == pytest.approx(1.5, rel=1e-8)
        assert Q[1] == Q[0]


class TestDualNorm:
    def test_affine_weight(self):
        # sup (1+x)/(2(1+x^2)) attained at x = sqrt(2)-1
        assert dual_norm(Linear(0.5, 0.5), 2.0) == pytest.approx((1 + np.sqrt(2)) / 4, rel=1e-9)

    def test_constant_weight(self):
        assert dual_norm(Constant(3.0), 2.0) == 3.0

    def test_matching_power(self):
        assert dual_norm(Power(2.0, 2.0), 2.0) == 2.0

    def test_divergent(self):
        with pytest.raises(DivergentNormError):
            dual_norm(Power(1.0, 3.0), 2.0)

    def test_tabulated(self):
        b = Tabulated([0.0, 1.0, 2.0], [0.0, 4.0, 0.0])
        got = dual_norm(b, 2.0)
        # maximize the hat against 1+x^2 on a fine grid
        x = np.linspace(0.0, 2.0, 200001)
        ref = np.max(b(x) / (1.0 + x**2))
        assert got == pytest.approx(ref, rel=1e-3)


class TestExactSuprema:
    """dual_norm takes the exact supremum, not a sampled one."""

    def test_tabulated_growth_bound_sees_the_left_extension(self):
        # r = 1 on [0, 1) by constant extension: the bound of Constant(1)
        assert dual_norm(Tabulated([1.0, 2.0], [1.0, 1.0]), 1.0) == 1.0
        assert dual_norm(Constant(1.0), 1.0) == 1.0

    def test_tabulated_dual_norm_sees_the_left_extension(self):
        assert dual_norm(Tabulated([1.0, 3.0], [2.0, 2.0]), 2.0) == 2.0

    def test_tabulated_dual_norm_finds_the_peak_inside_a_panel(self):
        # (0.1 + x)/(1 + x^2) peaks at x = sqrt(1.01) - 0.1, where it is
        # (0.1 + sqrt(1.01))/2; 33 samples per panel gave 0.55218
        got = dual_norm(Tabulated([0.0, 10.0], [0.1, 10.1]), 2.0)
        assert got == pytest.approx((0.1 + np.sqrt(1.01)) / 2.0, rel=1e-15)

    def test_linear_weight_matches_the_closed_form(self):
        # against 1 + x^2 the peak is (c0 + sqrt(c0^2 + c1^2))/2
        for c0, c1 in ((0.5, 0.5), (0.0, 3.0), (2.0, 0.1), (1e-6, 7.0)):
            expect = (c0 + np.hypot(c0, c1)) / 2.0
            assert dual_norm(Linear(c0, c1), 2.0) == pytest.approx(expect, rel=1e-15)

    def test_power_growth_bound(self):
        # (1 + sqrt(x))/(1 + x) peaks where sqrt(x) + x/2 = 1/2, at x = (sqrt(2) - 1)^2
        got = dual_norm(Power(2.0, 0.5), 1.0)
        assert got == pytest.approx(2.0 * (1.0 + np.sqrt(2.0)) / 2.0, rel=1e-15)

    def test_shift_floor_of_a_tabulated_growth_rate(self):
        beta = Constant(0.1)
        tab = shift_floor(make_model(r=Tabulated([1.0, 2.0], [1.0, 1.0]), beta=beta))
        const = shift_floor(make_model(r=Constant(1.0), beta=beta))
        assert tab == const == (4.0, 0.1)


def _scan_sup(spec, m):
    """Largest sampled spec(x)/(1 + x^m) over x = 0, a dense scan of [0, 1e4] and any nodes.

    The scan is sampled again, finely, between the neighbours of its best
    point.  A linear coefficient against 1 + x approaches c1 only as x grows
    without bound, so that limit joins the samples.
    """
    ratio = lambda x: np.asarray(spec(x)) / (1.0 + x**m)
    x = np.concatenate(([0.0], np.geomspace(1e-9, 1e4, 200_001), np.linspace(0.0, 40.0, 200_001)))
    if isinstance(spec, Tabulated):
        x = np.concatenate((x, spec.nodes))
    x = np.unique(x)
    i = int(np.argmax(ratio(x)))
    fine = np.linspace(x[max(i - 1, 0)], x[min(i + 1, x.size - 1)], 200_001)
    limit = spec.c1 if isinstance(spec, Linear) and m == 1.0 else 0.0
    return max(limit, float(ratio(x[i])), float(np.max(ratio(fine))))


_level = st.one_of(st.just(0.0), st.floats(0.01, 5.0))


@st.composite
def _coefficient(draw):
    kind = draw(st.sampled_from(("constant", "linear", "power", "tabulated")))
    if kind == "constant":
        return Constant(draw(_level))
    if kind == "linear":
        return Linear(draw(_level), draw(_level))
    if kind == "power":
        return Power(draw(_level), draw(st.one_of(st.sampled_from((0.0, 1.0, 2.0)), st.floats(0.0, 4.0))))
    n = draw(st.integers(2, 6))
    nodes = np.cumsum([draw(st.floats(0.0, 5.0))] + [draw(st.floats(0.01, 20.0)) for _ in range(n - 1)])
    return Tabulated(nodes, [draw(_level) for _ in range(n)])


# m from 1.01: nearer 1 a linear weight peaks beyond the scanned range
@settings(max_examples=60, derandomize=True, deadline=None)
@given(spec=_coefficient(), m=st.floats(1.01, 4.0))
def test_suprema_bracket_a_dense_scan(spec, m):
    power = spec.p if isinstance(spec, Power) else 0.0
    cases = (
        (lambda s: dual_norm(s, m), m, power > m and spec.c0 > 0.0),
        (lambda s: dual_norm(s, 1.0), 1.0, power > 1.0 and spec.c0 > 0.0),
    )
    for bound, exponent, diverges in cases:
        if diverges:
            with pytest.raises(DivergentNormError):
                bound(spec)
            continue
        got, scanned = bound(spec), _scan_sup(spec, exponent)
        # the scan's own rounding may land an ulp above the exact value
        assert scanned * (1.0 - 1e-15) <= got <= scanned * (1.0 + 1e-9)


class TestModelDefinition:
    def test_requires_m_above_one(self):
        with pytest.raises(InvalidModelError):
            make_model(m=1.0)

    def test_rejects_vanishing_growth(self):
        with pytest.raises(InvalidModelError):
            make_model(r=Tabulated([0.0, 1.0, 50.0], [0.0, 1.0, 1.0]))

    def test_rejects_tabulated_growth_vanishing_between_probe_points(self):
        # the zero at x = 15 lies between the points of an even probe of [0, 30]
        with pytest.raises(InvalidModelError):
            make_model(r=Tabulated([0.0, 7.5, 15.0, 30.0], [1.0, 1.0, 0.0, 1.0]), x_max=30.0)

    def test_tabulated_growth_may_vanish_beyond_x_max(self):
        md = make_model(r=Tabulated([0.0, 30.0, 60.0], [1.0, 1.0, 0.0]), x_max=30.0)
        assert md.r(30.0) == 1.0

    def test_boundary_weight_conversion(self):
        md = make_model(r=Constant(2.0), beta=Linear(0.5, 0.5), bc_convention="value")
        conv = boundary_weight_flux(md)
        assert conv(0.0) == 1.0 and conv(1.0) == 2.0
        md2 = make_model(beta=Linear(0.5, 0.5), bc_convention="flux")
        assert boundary_weight_flux(md2) is md2.beta

    @pytest.mark.parametrize(
        "beta", [Power(0.5, 1.5), Tabulated([0.0, 1.0, 3.0], [0.2, 0.9, 0.1])], ids=["power", "tabulated"]
    )
    def test_value_convention_scales_power_and_tabulated_weights(self, beta):
        md = make_model(r=Linear(2.5, 1.0), beta=beta, bc_convention="value")
        conv = boundary_weight_flux(md)
        assert type(conv) is type(beta)
        x = np.linspace(0.0, 5.0, 41)
        np.testing.assert_allclose(conv(x), 2.5 * beta(x), rtol=1e-10, atol=0.0)


class TestValidator:
    def test_uniform_binary_passes(self):
        rep = validate_assumptions(make_model())
        assert rep.all_pass
        assert rep.conservative
        # N_2(y)/y^2 = 1/3 for uniform binary
        assert rep.liminf_estimate == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert rep.c_m_fitted == pytest.approx(2.0 / 3.0, rel=1e-10)
        assert rep.b0_fitted == pytest.approx(1.0, rel=1e-10)
        assert rep.l_fitted == 0.0

    def test_shrinking_splits_fail_moment_condition(self):
        md = make_model(r=Constant(1.0), a=Constant(1.0), kernel=ShrinkingBinary(InverseEpsilon(1.0)))
        rep = validate_assumptions(md)
        assert rep.conservative  # mass is still conserved
        assert rep.liminf_estimate < 1e-3
        assert not rep.liminf_pass
        assert not rep.all_pass

    def test_report_lines(self):
        rep = validate_assumptions(make_model())
        lines = rep.lines()
        assert any("conservative=pass" in s for s in lines)


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = {
            "r": {"type": "linear", "c0": 1.0, "c1": 1.0},
            "a": {"type": "linear", "c0": 0.0, "c1": 1.0},
            "kernel": {"type": "uniform_binary"},
            "beta": {"type": "linear", "c0": 0.5, "c1": 0.5},
            "m": 2.0,
            "bc_convention": "value",
            "x_max": 30.0,
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(cfg))
        md = load_model(path)
        assert md.bc_convention == "value"
        assert md.x_max == 30.0
        assert md.r(1.0) == 2.0

    def test_bare_number_coefficient(self):
        md = model_from_config(
            {"r": 1.0, "a": 1.0, "kernel": {"type": "uniform_binary"}, "beta": 0.5, "m": 2.0}
        )
        assert md.a(3.0) == 1.0

    @pytest.mark.parametrize("c", [0.0, 1.5, 3])
    def test_constant_forms_are_one_zero_slope_linear(self, c):
        forms = [coefficient_from_config(c), coefficient_from_config({"type": "constant", "c": c}),
                 Constant(c)]
        for spec in forms:
            assert type(spec) is Linear
            assert spec == Linear(c, 0.0)
            assert spec(np.array([0.0, 2.0, 1e6])).tolist() == [c, c, c]

    def test_uniform_binary_is_the_power_law_at_nu_zero(self):
        assert kernel_from_config({"type": "uniform_binary"}) == UniformBinary() == PowerLaw(0.0)

    def test_shrinking_kernel_config(self):
        md = model_from_config(
            {
                "r": 1.0,
                "a": 1.0,
                "kernel": {"type": "shrinking_binary", "eps": {"type": "inverse", "scale": 2.0}},
                "beta": 1.0,
                "m": 2.0,
            }
        )
        assert md.kernel.eps_at(8.0) == 0.25

    def test_missing_key(self):
        with pytest.raises(InvalidModelError):
            model_from_config({"r": 1.0, "a": 1.0, "m": 2.0})

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InvalidModelError):
            load_model(path)

    @pytest.mark.parametrize(
        "text, start",
        [('{"r": 1.0,\n', "line 2, column 1: "), ("[1.0, 2.0]", "top-level config must be an object")],
    )
    def test_library_and_cli_report_bad_documents_alike(self, tmp_path, capsys, text, start):
        from gfrag.cli import RunConfig, run

        path = tmp_path / "broken.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidModelError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: {start}")
        assert run(RunConfig("validate", str(path), output_dir=str(tmp_path))) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"
