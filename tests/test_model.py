import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gfrag import model as model_module
from gfrag.errors import DivergentNormError, InvalidInputError, InvalidModelError
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
    compute_RQ,
    daughter_count_bound,
    dual_norm_beta,
    kernel_atoms,
    kernel_defect,
    kernel_density,
    kernel_moment,
    linear_growth_bound,
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
        with pytest.raises(InvalidModelError):
            Constant(-1.0)
        with pytest.raises(InvalidModelError):
            Tabulated([0.0, 1.0], [1.0, -1.0])


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

    def test_density_consistency(self):
        # numeric moment of the density matches the closed form; midpoint rule
        # because the density jumps to zero exactly at x = y
        edges = np.linspace(0.0, 4.0, 20001)
        x = 0.5 * (edges[:-1] + edges[1:])
        dx = edges[1] - edges[0]
        for kern in (UniformBinary(), PowerLaw(1.0), TabulatedKernel([0.0, 1.0], [2.0, 2.0])):
            dens = kernel_density(kern, x, 4.0)
            n2 = np.sum(x**2 * dens) * dx
            assert n2 == pytest.approx(kernel_moment(kern, 2, 4.0), rel=1e-6)

    def test_density_rejected_for_atomic(self):
        with pytest.raises(InvalidInputError):
            kernel_density(ShrinkingBinary(0.25), 1.0, 2.0)

    def test_count_bound(self):
        assert daughter_count_bound(UniformBinary()) == (1.0, 0.0)
        b0, l = daughter_count_bound(PowerLaw(2.0))
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
        f = GridFunction(g, np.exp(-g), 2.0)
        assert xm_norm(f) == pytest.approx(3.0, rel=1e-4)

    def test_pairing(self):
        g = midpoint_grid(40.0, 4000)
        f = GridFunction(g, np.exp(-g), 2.0)
        # int x e^{-x} = 1
        assert pairing(lambda x: x, f) == pytest.approx(1.0, rel=1e-4)

    def test_grid_function_tail_is_zero(self):
        f = GridFunction([0.5, 1.0], [2.0, 2.0], 2.0)
        assert f(3.0) == 0.0
        assert f(0.1) == 2.0  # constant extension toward the origin

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            GridFunction([1.0, 0.5], [1.0, 1.0], 2.0)

    @pytest.mark.parametrize(
        "nodes",
        [[np.nan] * 3, [0.5, np.nan, 2.0], [0.5, 1.0, np.inf], [-np.inf, 0.5, 1.0]],
        ids=["all-nan", "nan-inside", "inf-last", "minus-inf-first"],
    )
    def test_non_finite_nodes_rejected(self, nodes):
        with pytest.raises(InvalidInputError):
            GridFunction(nodes, np.ones(3), 2.0)

    @pytest.mark.parametrize("x_max", [np.inf, np.nan, -np.inf])
    def test_midpoint_grid_rejects_non_finite_x_max(self, x_max):
        with pytest.raises(InvalidInputError):
            midpoint_grid(x_max, 4)


class TestRQ:
    def test_affine_closed_form(self):
        # r = 1+x, a = x: R = log(1+x), Q = x - log(1+x)
        rq = compute_RQ(make_model())
        assert rq.R(1.0) == pytest.approx(np.log(2.0), rel=1e-14)
        assert rq.Q(1.0) == pytest.approx(1.0 - np.log(2.0), rel=1e-14)
        assert rq.M_Q == np.inf

    def test_constant_rates(self):
        rq = compute_RQ(make_model(r=Constant(2.0), a=Constant(3.0)))
        assert rq.R(4.0) == pytest.approx(2.0, rel=1e-14)
        assert rq.Q(4.0) == pytest.approx(6.0, rel=1e-14)

    def test_zero_loss(self):
        rq = compute_RQ(make_model(a=Constant(0.0)))
        assert rq.Q(3.0) == 0.0
        assert rq.M_Q == 0.0

    def test_numeric_fallback_matches_closed_form(self):
        # tabulated r is exactly 1+x, so the quadrature path must agree
        md = make_model(r=Tabulated([0.0, 100.0], [1.0, 101.0]))
        rq = compute_RQ(md)
        xs = np.array([0.25, 1.0, 2.0, 7.5])
        np.testing.assert_allclose(rq.R(xs), np.log1p(xs), rtol=1e-9)
        np.testing.assert_allclose(rq.Q(xs), xs - np.log1p(xs), rtol=1e-9)

    def test_numeric_fallback_unsorted_queries(self):
        md = make_model(r=Tabulated([0.0, 100.0], [1.0, 101.0]))
        rq = compute_RQ(md)
        xs = np.array([2.0, 0.5, 1.0, 3.0])
        np.testing.assert_allclose(rq.Q(xs), xs - np.log1p(xs), rtol=1e-9)

    def test_knot_cache_across_interleaved_and_repeated_batches(self, monkeypatch):
        # every new point integrates from the nearest visited knot below it,
        # whatever order the batches arrive in; repeated points cost nothing
        calls = []

        class Recording:
            def __init__(self, inner):
                self._inner = inner

            def quad(self, g, x0, x, **kwargs):
                out = self._inner.quad(g, x0, x, **kwargs)
                calls.append((x0, x, out[0]))
                return out

        monkeypatch.setattr(model_module, "integrate", Recording(model_module.integrate))
        R = compute_RQ(make_model(r=Tabulated([0.0, 4.0, 20.0], [1.0, 3.0, 0.5]))).R
        grid = np.linspace(0.5, 18.0, 40)
        between = 0.5 * (grid[1:] + grid[:-1])
        batches = [grid, between[::-1], np.concatenate((grid[::3], between[::2], [25.0])), grid]
        got = [R(b) for b in batches] + [R(float(between[7]))]

        known = {0.0: 0.0}
        steps = iter(calls)
        for batch in batches + [np.array([between[7]])]:
            for x in sorted(set(batch.tolist())):
                if x not in known:
                    x0, end, inc = next(steps)
                    assert (x0, end) == (max(k for k in known if k < x), x)
                    known[x] = known[x0] + inc
        assert next(steps, None) is None
        for batch, out in zip(batches, got):
            assert np.array_equal(out, [known[x] for x in batch.tolist()])
        assert got[-1] == known[float(between[7])]
        assert R._knots == sorted(known)
        assert all(a < b for a, b in zip(R._knots, R._knots[1:]))
        assert R._vals == [known[k] for k in R._knots]

    def test_compact_loss_has_finite_exponent_limit(self):
        md = make_model(
            r=Tabulated([0.0, 10.0], [1.0, 1.0]),
            a=Tabulated([0.0, 1.0, 2.0], [1.0, 1.0, 0.0]),
        )
        rq = compute_RQ(md)
        assert np.isfinite(rq.M_Q)
        assert rq.M_Q == pytest.approx(1.5, rel=1e-8)  # int of the hat profile


class TestDualNorm:
    def test_affine_weight(self):
        # sup (1+x)/(2(1+x^2)) attained at x = sqrt(2)-1
        assert dual_norm_beta(Linear(0.5, 0.5), 2.0) == pytest.approx((1 + np.sqrt(2)) / 4, rel=1e-9)

    def test_constant_weight(self):
        assert dual_norm_beta(Constant(3.0), 2.0) == 3.0

    def test_matching_power(self):
        assert dual_norm_beta(Power(2.0, 2.0), 2.0) == 2.0

    def test_divergent(self):
        with pytest.raises(DivergentNormError):
            dual_norm_beta(Power(1.0, 3.0), 2.0)

    def test_tabulated(self):
        b = Tabulated([0.0, 1.0, 2.0], [0.0, 4.0, 0.0])
        got = dual_norm_beta(b, 2.0)
        # maximize the hat against 1+x^2 on a fine grid
        x = np.linspace(0.0, 2.0, 200001)
        ref = np.max(b(x) / (1.0 + x**2))
        assert got == pytest.approx(ref, rel=1e-3)


class TestExactSuprema:
    """dual_norm_beta and linear_growth_bound take the exact supremum, not a sampled one."""

    def test_tabulated_growth_bound_sees_the_left_extension(self):
        # r = 1 on [0, 1) by constant extension: the bound of Constant(1)
        assert linear_growth_bound(Tabulated([1.0, 2.0], [1.0, 1.0])) == 1.0
        assert linear_growth_bound(Constant(1.0)) == 1.0

    def test_tabulated_dual_norm_sees_the_left_extension(self):
        assert dual_norm_beta(Tabulated([1.0, 3.0], [2.0, 2.0]), 2.0) == 2.0

    def test_tabulated_dual_norm_finds_the_peak_inside_a_panel(self):
        # (0.1 + x)/(1 + x^2) peaks at x = sqrt(1.01) - 0.1, where it is
        # (0.1 + sqrt(1.01))/2; 33 samples per panel gave 0.55218
        got = dual_norm_beta(Tabulated([0.0, 10.0], [0.1, 10.1]), 2.0)
        assert got == pytest.approx((0.1 + np.sqrt(1.01)) / 2.0, rel=1e-15)

    def test_linear_weight_matches_the_closed_form(self):
        # against 1 + x^2 the peak is (c0 + sqrt(c0^2 + c1^2))/2
        for c0, c1 in ((0.5, 0.5), (0.0, 3.0), (2.0, 0.1), (1e-6, 7.0)):
            expect = (c0 + np.hypot(c0, c1)) / 2.0
            assert dual_norm_beta(Linear(c0, c1), 2.0) == pytest.approx(expect, rel=1e-15)

    def test_power_growth_bound(self):
        # (1 + sqrt(x))/(1 + x) peaks where sqrt(x) + x/2 = 1/2, at x = (sqrt(2) - 1)^2
        got = linear_growth_bound(Power(2.0, 0.5))
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
        (lambda s: dual_norm_beta(s, m), m, power > m and spec.c0 > 0.0),
        (linear_growth_bound, 1.0, power > 1.0),
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
