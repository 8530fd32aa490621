import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import integrate
from scipy.interpolate import CubicSpline

from gfrag.cli import main
from gfrag.closed_form import (
    BinaryModelParams,
    ClosedFormSolution,
    ForcingF,
    MomentState,
    binary_params_from_model,
    evaluate_solution,
    is_binary_model,
    lambda_pm,
    left_eigenfunction_cf,
    moment_propagator,
    moments_from_grid,
    propagate_moments,
    right_eigenfunction_cf,
)
from gfrag.errors import (
    ConvergenceError,
    DegenerateModelError,
    InvalidInputError,
    InvalidModelError,
)
from gfrag.model import (
    Constant,
    Linear,
    ModelDefinition,
    PowerLaw,
    UniformBinary,
    midpoint_grid,
    quad_weights,
)
from gfrag.spectral import closed_form_eigenpair, spectral_projection
from oracles import boundary_extension_psi, forcing_derivatives, tail_bound_check
from test_cli import BINARY_DOC, write_model


def reference_params():
    # r = a = 1, boundary value u(0,t) = (M0(t) + M1(t))/2
    return BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5)


def reference_model():
    # the reference parameters on [0, 50]
    return ModelDefinition(
        r=Constant(1.0), a=Linear(0.0, 1.0), kernel=UniformBinary(), beta=Linear(0.5, 0.5),
        m=2.0, bc_convention="value", x_max=50.0,
    )


def asymptotic_profile(u0: np.ndarray) -> np.ndarray:
    # what aeg runs: <w, u0> v from the analytic pair of the reference
    # parameters, on u0's grid midpoint_grid(50.0, u0.size)
    return spectral_projection(closed_form_eigenpair(reference_model(), u0.size), u0)


def reference_datum(x):
    return (2.5 * np.asarray(x, dtype=float) + 1.0) * np.exp(-2.0 * np.asarray(x, dtype=float))


REFERENCE_MOMENTS = MomentState(9.0 / 8.0, 7.0 / 8.0)

# (r, a, beta0, beta1) of the boundary-extension checks: the reference
# parameters, a flux-converted pair, no constant renewal, slow splitting and
# no splitting at all
EXTENSION_PARAMS = [
    (1.0, 1.0, 0.5, 0.5),
    (1.2, 1.5, 0.5 / 1.2, 0.5 / 1.2),
    (0.8, 0.4, 0.0, 0.9),
    (0.8, 1e-3, 0.3, 0.2),
    (2.0, 0.0, 0.5, 0.5),
]


class TestParams:
    def test_reference_eigenvalues(self):
        assert lambda_pm(reference_params()) == (1.5, -1.0)

    def test_golden_ratio_case(self):
        p = BinaryModelParams(r=1.0, a=1.0, beta0=1.0, beta1=0.0)
        lp, lm = lambda_pm(p)
        assert lp == pytest.approx((1.0 + math.sqrt(5.0)) / 2.0, abs=1e-15)
        assert lm == pytest.approx((1.0 - math.sqrt(5.0)) / 2.0, abs=1e-15)

    def test_no_renewal_case(self):
        p = BinaryModelParams(r=1.0, a=1.0, beta0=0.0, beta1=0.0)
        assert lambda_pm(p) == (1.0, -1.0)

    @pytest.mark.parametrize("r,a,b0,b1", [(1.0, 1.0, 0.5, 0.5), (2.0, 0.3, 0.1, 0.7), (0.5, 2.0, 1.2, 0.0)])
    def test_characteristic_equation(self, r, a, b0, b1):
        p = BinaryModelParams(r=r, a=a, beta0=b0, beta1=b1)
        for lam in lambda_pm(p):
            assert lam * lam - p.alpha0 * lam - p.r * p.alpha1 == pytest.approx(0.0, abs=1e-12)

    def test_ordering_with_splitting(self):
        p = BinaryModelParams(r=0.7, a=1.3, beta0=0.2, beta1=0.1)
        assert p.lambda_minus < 0.0 < p.lambda_plus

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateModelError):
            BinaryModelParams(r=1.0, a=0.0, beta0=0.0, beta1=0.0)
        # lambda_plus - lambda_minus = 2.5e-20: coincident to 1e-14
        with pytest.raises(DegenerateModelError, match="coincident"):
            BinaryModelParams(r=1e-20, a=1e-20, beta0=0.5, beta1=0.5)

    @pytest.mark.parametrize("derived", ["alpha0", "alpha1", "lambda_plus", "lambda_minus"])
    def test_derived_fields_are_not_parameters(self, derived):
        # __post_init__ computes them; a passed value would be overwritten
        with pytest.raises(TypeError):
            BinaryModelParams(1.0, 1.0, 0.5, 0.5, **{derived: 99.0})
        assert BinaryModelParams(1.0, 1.0, 0.5, 0.5).lambda_plus == 1.5

    def test_invalid_raises(self):
        with pytest.raises(InvalidModelError):
            BinaryModelParams(r=-1.0, a=1.0, beta0=0.5, beta1=0.5)
        with pytest.raises(InvalidModelError):
            BinaryModelParams(r=1.0, a=1.0, beta0=-0.5, beta1=0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["r", "a", "beta0", "beta1"])
    def test_non_finite_parameter_raises(self, name, value):
        # NaN passes every sign check, and an infinite parameter makes
        # lambda_pm infinite or NaN
        with pytest.raises(InvalidModelError, match="must be finite"):
            BinaryModelParams(**{**dict(r=1.0, a=1.0, beta0=0.5, beta1=0.5), name: value})


class TestMomentPropagator:
    def test_identity_at_zero(self):
        K = moment_propagator(reference_params(), 0.0)
        assert np.abs(K - np.eye(2)).max() == 0.0

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 3.0])
    def test_entries_nonnegative(self, t):
        assert moment_propagator(reference_params(), t).min() >= 0.0

    def test_semigroup_property(self):
        p = BinaryModelParams(r=2.0, a=0.3, beta0=0.1, beta1=0.7)
        K = lambda t: moment_propagator(p, t)
        assert np.abs(K(1.2) - K(0.7) @ K(0.5)).max() < 1e-12

    def test_count_after_unit_time(self):
        m = propagate_moments(reference_params(), REFERENCE_MOMENTS, 1.0)
        assert m.M0 == pytest.approx(5.350435926317819, abs=1e-12)

    def test_against_rk4_integration(self):
        # march M' = A M with fixed-step RK4 and compare the propagator
        p = reference_params()
        A = np.array([[p.alpha0, p.alpha1], [p.r, 0.0]])
        m = np.array([REFERENCE_MOMENTS.M0, REFERENCE_MOMENTS.M1])
        h, n = 1e-4, 10000
        for _ in range(n):
            k1 = A @ m
            k2 = A @ (m + 0.5 * h * k1)
            k3 = A @ (m + 0.5 * h * k2)
            k4 = A @ (m + h * k3)
            m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out = propagate_moments(p, REFERENCE_MOMENTS, 1.0)
        assert m[0] == pytest.approx(out.M0, rel=1e-10)
        assert m[1] == pytest.approx(out.M1, rel=1e-10)

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidInputError):
            moment_propagator(reference_params(), -0.5)
        with pytest.raises(InvalidInputError):
            moment_propagator(reference_params(), np.array([0.5, -0.5]))

    def test_array_of_times_matches_each_time(self):
        # an array goes through np.exp, one time through math.exp
        p = BinaryModelParams(r=2.0, a=0.3, beta0=0.1, beta1=0.7)
        ts = np.linspace(0.0, 3.0, 7).reshape(7, 1)
        K = moment_propagator(p, ts)
        assert K.shape == (2, 2, 7, 1)
        for i, t in enumerate(ts[:, 0]):
            np.testing.assert_allclose(K[:, :, i, 0], moment_propagator(p, t), rtol=1e-14, atol=0)


class TestForcing:
    def test_reference_values_at_zero(self):
        f = ForcingF(reference_params(), REFERENCE_MOMENTS)
        assert f.value(0.0) == pytest.approx(1.0, abs=1e-14)
        d1, d2 = forcing_derivatives(f, 0.0)
        assert d1 == pytest.approx(-0.75, abs=1e-14)
        assert d2 == pytest.approx(-0.5, abs=1e-14)

    @pytest.mark.parametrize("t", [0.2, 0.8, 1.5])
    def test_derivatives_match_difference_quotients(self, t):
        f = ForcingF(reference_params(), REFERENCE_MOMENTS)
        h = 1e-5
        fd1 = (f.value(t + h) - f.value(t - h)) / (2 * h)
        fd2 = (forcing_derivatives(f, t + h)[0] - forcing_derivatives(f, t - h)[0]) / (2 * h)
        d1, d2 = forcing_derivatives(f, t)
        assert d1 == pytest.approx(fd1, abs=1e-8)
        assert d2 == pytest.approx(fd2, abs=1e-8)


def volterra_extension(f, xi_stop, h):
    """March the renewal Volterra relation for the extension on [xi_stop, 0].

    psi(xi_k) + 2 a t_k int_{xi_k}^0 psi + (a t_k)^2 int_{xi_k}^0 (s - xi_k)
    psi(s) ds = F(t_k) with t_k = -xi_k / r, discretized by the trapezoid
    rule; the weight (s - xi_k) vanishes at the new node, so each step is a
    scalar linear solve.  Independent of both closed resolutions.
    """
    p = f.params
    n = int(round(-xi_stop / h))
    xi = -h * np.arange(n + 1)
    psi = np.empty(n + 1)
    psi[0] = f.value(0.0)
    run1 = 0.5 * psi[0]  # trapezoid prefix of psi, new-node term excluded
    runs = 0.0  # same for s * psi(s)
    for k in range(1, n + 1):
        t = -xi[k] / p.r
        i1_known = h * run1
        is_known = h * (runs - xi[k] * run1)
        rhs = f.value(t) - 2 * p.a * t * i1_known - (p.a * t) ** 2 * is_known
        psi[k] = rhs / (1.0 + 2 * p.a * t * 0.5 * h)
        run1 += psi[k] if k < n else 0.0
        runs += xi[k] * psi[k] if k < n else 0.0
    return xi, psi


class TestBoundaryExtension:
    def test_matches_forcing_at_origin(self):
        f = ForcingF(reference_params(), REFERENCE_MOMENTS)
        assert boundary_extension_psi(f, 0.0) == pytest.approx(f.value(0.0), abs=1e-14)

    def test_positive_offset_rejected(self):
        from gfrag.closed_form import _extension

        f = ForcingF(reference_params(), REFERENCE_MOMENTS)
        with pytest.raises(InvalidInputError):
            boundary_extension_psi(f, 0.2)
        with pytest.raises(InvalidInputError):
            _extension(f, np.array([-1.0, 0.2]))[0]

    def test_two_closed_resolutions_agree(self):
        # adaptive quadrature on the double-derivative formula versus the
        # derivative-free variation-of-constants integral
        from gfrag.closed_form import _extension

        f = ForcingF(reference_params(), REFERENCE_MOMENTS)
        xi = np.linspace(-3.5, -0.1, 35)
        direct = np.array([boundary_extension_psi(f, x) for x in xi])
        assert np.abs(direct - _extension(f, xi)[0]).max() < 1e-10

    @pytest.mark.parametrize("t_max", [4.0, 12.0, 30.0])
    @pytest.mark.parametrize("r, a, beta0, beta1", EXTENSION_PARAMS)
    def test_full_table_matches_quadrature_oracle(self, r, a, beta0, beta1, t_max):
        # 2048 offsets on [-r t_max, 0], as dense as an evaluation grid;
        # at long horizons psi decays like e^{-a r t^2/2} while the forcing
        # grows like t^3, so any cancellation of the cubic shows here
        from gfrag.closed_form import _extension

        f = ForcingF(BinaryModelParams(r=r, a=a, beta0=beta0, beta1=beta1), REFERENCE_MOMENTS)
        xi = np.linspace(-r * t_max, 0.0, 2048)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            psi = _extension(f, xi)[0]
        assert np.all(np.isfinite(psi))
        idx = np.r_[0:2048:31, 2047]
        direct = np.array([boundary_extension_psi(f, x) for x in xi[idx]])
        assert np.abs(psi[idx] - direct).max() <= 1e-11 * np.abs(psi).max()

    def test_table_input_order_and_repeats(self):
        from gfrag.closed_form import _extension

        f = ForcingF(BinaryModelParams(r=1.2, a=1.5, beta0=0.4, beta1=0.4), REFERENCE_MOMENTS)
        xi = np.linspace(-12.0, 0.0, 2048)
        psi = _extension(f, xi)[0]
        perm = np.random.default_rng(7).permutation(2048)
        assert np.array_equal(_extension(f, xi[perm])[0], psi[perm])
        doubled = np.concatenate((xi[::-1], xi[:5]))
        assert np.array_equal(_extension(f, doubled)[0], np.concatenate((psi[::-1], psi[:5])))
        # each offset is evaluated on its own: a subset gives the same bits
        sub = xi[[2047, 100, 1500, 7]]
        assert np.array_equal(_extension(f, sub)[0], psi[[2047, 100, 1500, 7]])
        assert _extension(f, np.array([0.0, -0.0]))[0][1] == f.value(0.0)

    @pytest.mark.parametrize("t_max", [4.0, 12.0, 30.0])
    def test_running_integral_limit(self, t_max):
        # the reference parameters give lambda_minus = -sqrt(a r) = -w
        # exactly, where phi(|lambda_minus + w| t) takes its limit branch
        # phi(0) = 1 (its weight g- vanishes there, so the branch must
        # above all form no 0/0); beta1 = beta0 w (1 +- 1e-9) puts
        # lambda_minus 2e-10 to either side
        from gfrag.closed_form import _extension

        xi = np.linspace(-t_max, 0.0, 2048)
        idx = np.r_[0:2048:127, 2047]
        exact = reference_params()
        assert exact.lambda_minus == -math.sqrt(exact.a * exact.r)
        tables = []
        for scale in (1.0, 1.0 + 1e-9, 1.0 - 1e-9):
            p = BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5 * scale)
            f = ForcingF(p, REFERENCE_MOMENTS)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                psi = _extension(f, xi)[0]
            direct = np.array([boundary_extension_psi(f, x) for x in xi[idx]])
            assert np.abs(psi[idx] - direct).max() <= 1e-11 * np.abs(psi).max()
            tables.append(psi)
        # the two draws move psi by about 4e-10 of its size, in opposite
        # directions; their mean is the limit table to second order, so a
        # jump at the limit branch would show here
        limit, above, below = tables
        assert np.abs(0.5 * (above + below) - limit).max() <= 1e-12 * np.abs(limit).max()

    def test_volterra_collocation_oracle(self):
        f = ForcingF(reference_params(), REFERENCE_MOMENTS)
        xi, psi = volterra_extension(f, -2.0, 2.5e-4)
        idx = np.searchsorted(-xi, np.array([0.5, 1.0, 2.0]))
        for i in idx:
            assert boundary_extension_psi(f, xi[i]) == pytest.approx(psi[i], abs=1e-6)

    def test_reference_value_frozen(self):
        # pinned by three independent routes
        f = ForcingF(reference_params(), REFERENCE_MOMENTS)
        assert boundary_extension_psi(f, -1.0) == pytest.approx(-1.5807648110420303, abs=1e-9)

    @pytest.mark.parametrize("r, a, beta0, beta1", EXTENSION_PARAMS)
    def test_volterra_identity(self, r, a, beta0, beta1):
        # psi + 2 a t I0 + (a t)^2 (I1 + r t I0) = F at xi = -r t, with
        # I0 = int_xi^0 psi and I1 = int_xi^0 s psi(s) ds
        from gfrag.closed_form import _extension

        f = ForcingF(BinaryModelParams(r=r, a=a, beta0=beta0, beta1=beta1), REFERENCE_MOMENTS)
        t = np.linspace(0.0, 12.0, 241)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            psi, i0, i1 = _extension(f, -r * t)
            forcing = f.value(t)
        if a == 0.0:
            # without splitting the integrals never enter the solution
            assert i0 is None and i1 is None
            assert np.array_equal(psi, forcing)
            return
        at = a * t
        terms = (psi, 2.0 * at * i0, at**2 * i1, at**2 * r * t * i0)
        size = sum(np.abs(term) for term in terms) + np.abs(forcing)
        assert np.all(np.abs(sum(terms) - forcing) <= 1e-13 * size)

    @staticmethod
    def quadrature_of_extension(f, xi):
        """I0, I1 and the integrals of |psi| and |s psi| from 0 to each of the
        decreasing offsets xi, by quad of psi over the panels between them."""
        from gfrag.closed_form import _extension

        def integrands(s):
            psi = float(_extension(f, np.array([s]))[0][0])
            return np.array([psi, s * psi, abs(psi), abs(s * psi)])

        panels = [integrate.quad_vec(integrands, lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                  for lo, hi in zip(xi[1:], xi[:-1])]
        return np.concatenate((np.zeros((1, 4)), np.cumsum(panels, axis=0))).T

    @pytest.mark.parametrize("r, a, beta0, beta1", [p for p in EXTENSION_PARAMS if p[1] >= 1e-3])
    def test_integrals_match_quadrature(self, r, a, beta0, beta1):
        from gfrag.closed_form import _extension

        f = ForcingF(BinaryModelParams(r=r, a=a, beta0=beta0, beta1=beta1), REFERENCE_MOMENTS)
        xi = -r * np.linspace(0.0, 12.0, 41)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _, i0, i1 = _extension(f, xi)
        q0, q1, size0, size1 = self.quadrature_of_extension(f, xi)
        # at xi = 0 they vanish to the rounding of M0(0) and M1(0)
        eps = np.finfo(float).eps
        assert abs(i0[0]) <= eps * REFERENCE_MOMENTS.M0
        assert abs(i1[0]) <= eps * REFERENCE_MOMENTS.M1
        assert np.all(np.abs(i0 - q0)[1:] <= 1e-12 * size0[1:])
        assert np.all(np.abs(i1 - q1)[1:] <= 1e-12 * size1[1:])

    @pytest.mark.parametrize("a", [1e-4, 1e-8, 1e-12])
    def test_integrals_at_slow_splitting(self, a):
        # at small w t the integrals lose digits to themselves, but they
        # enter the solution multiplied by a t and (a t)^2, which leaves
        # their error below 1e-15 of psi
        from gfrag.closed_form import _extension

        r = 0.8
        f = ForcingF(BinaryModelParams(r=r, a=a, beta0=0.3, beta1=0.2), REFERENCE_MOMENTS)
        t = np.linspace(0.0, 12.0, 41)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            psi, i0, i1 = _extension(f, -r * t)
        q0, q1, _, _ = self.quadrature_of_extension(f, -r * t)
        at = a * t
        assert np.all(at * np.abs(i0 - q0) + at**2 * np.abs(i1 - q1) <= 1e-15 * np.abs(psi))

    def test_transport_only_limit(self):
        # without splitting the extension reduces to the forcing itself
        p = BinaryModelParams(r=2.0, a=0.0, beta0=0.5, beta1=0.5)
        f = ForcingF(p, MomentState(1.0, 1.0))
        assert boundary_extension_psi(f, -1.0) == pytest.approx(f.value(0.5), abs=1e-12)


class TestExtensionPanels:
    def test_fast_splitting_refused_before_evaluating(self, tmp_path, capsys):
        # lambda_plus = sqrt(a r) = 1e15: the moments overflow long before
        # t = 4, and the refusal comes before anything is computed at it
        p = BinaryModelParams(r=1.0, a=1e30, beta0=0.0, beta1=1.0)
        sol = ClosedFormSolution(p, reference_datum)
        tracemalloc.start()
        try:
            with pytest.raises(ConvergenceError, match="moments overflow"):
                sol.evaluate(1.0, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

        doc = {**BINARY_DOC, "a": {"type": "linear", "c0": 0.0, "c1": 1e30},
               "beta": {"type": "linear", "c0": 0.0, "c1": 1.0}}
        start = time.perf_counter()
        with pytest.raises(SystemExit) as info:
            main(["solve-closed", "--model", write_model(tmp_path, doc),
                  "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1.0
        assert info.value.code == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestSolutionFormula:
    def test_initial_time_identity(self):
        sol = ClosedFormSolution(reference_params(), reference_datum)
        x = np.linspace(0.0, 12.0, 500)
        assert np.abs(sol.evaluate(x, 0.0) - reference_datum(x)).max() < 1e-9

    @pytest.mark.parametrize("t", [0.5, 1.0])
    def test_boundary_trace(self, t):
        sol = ClosedFormSolution(reference_params(), reference_datum)
        target = sol.boundary_value(t)
        assert sol.evaluate(0.0, t) == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.7])
    def test_continuity_across_front(self, t):
        # the datum satisfies u0(0) = beta0 M0(0) + beta1 M1(0), so the
        # two branches meet continuously on the characteristic front
        p = reference_params()
        sol = ClosedFormSolution(p, reference_datum)
        eps = 1e-9
        jump = abs(sol.evaluate(p.r * t + eps, t) - sol.evaluate(p.r * t - eps, t))
        assert jump < 1e-6

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_moments_match_propagator(self, t):
        p = reference_params()
        sol = ClosedFormSolution(p, reference_datum)
        xl = np.linspace(0.0, p.r * t, 2001)
        xr = p.r * t + np.linspace(0.0, 50.0, 4001)
        m0 = integrate.simpson(sol.evaluate(xl, t), x=xl) + integrate.simpson(
            sol.evaluate(xr, t), x=xr
        )
        m1 = integrate.simpson(xl * sol.evaluate(xl, t), x=xl) + integrate.simpson(
            xr * sol.evaluate(xr, t), x=xr
        )
        ref = propagate_moments(p, sol.initial, t)
        assert m0 == pytest.approx(ref.M0, rel=1e-5)
        assert m1 == pytest.approx(ref.M1, rel=1e-5)

    def test_grid_function_datum(self):
        nodes = midpoint_grid(50.0, 4000)
        u0 = reference_datum(nodes)
        sol = ClosedFormSolution(reference_params(), (nodes, u0))
        assert np.abs(sol.evaluate(nodes[:500], 0.0) - u0[:500]).max() < 1e-10

    def test_sampled_datum_is_constant_toward_zero_and_zero_past_its_last_node(self):
        sol = ClosedFormSolution(reference_params(), ([0.5, 1.0], [2.0, 2.0]))
        assert sol.x_max == 1.0
        assert sol.evaluate(3.0, 0.0) == 0.0
        assert sol.evaluate(0.1, 0.0) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize(
        "nodes",
        [[1.0, 0.5, 0.75], [0.5, 1.0, 0.75], [0.5, 0.5, 1.0], [-0.5, 0.5, 1.0],
         [np.nan] * 3, [0.5, np.nan, 2.0], [0.5, 1.0, np.inf], [-np.inf, 0.5, 1.0]],
        ids=["decreasing", "decreasing-last", "repeated", "negative",
             "all-nan", "nan-inside", "inf-last", "minus-inf-first"],
    )
    def test_sampled_datum_nodes_validated(self, nodes):
        with pytest.raises(InvalidInputError, match="datum nodes"):
            ClosedFormSolution(reference_params(), (np.array(nodes), np.ones(3)))

    @pytest.mark.parametrize(
        "nodes, values",
        [([0.5], [1.0]), ([0.5, 1.0], [1.0, 1.0, 1.0]), ([[0.5, 1.0]], [[1.0, 1.0]])],
        ids=["one-node", "length-mismatch", "2-D"],
    )
    def test_sampled_datum_shape_validated(self, nodes, values):
        with pytest.raises(InvalidInputError, match="sampled datum"):
            ClosedFormSolution(reference_params(), (nodes, values))

    def test_wrapper_caches_and_delegates(self):
        p = reference_params()
        a = evaluate_solution(p, reference_datum, 1.3, 0.8)
        b = evaluate_solution(p, reference_datum, 1.3, 0.8)
        assert a == b
        arr = evaluate_solution(p, reference_datum, np.array([0.5, 1.3]), 0.8)
        assert arr[1] == pytest.approx(a, abs=1e-14)

    def test_time_validation(self):
        sol = ClosedFormSolution(reference_params(), reference_datum)
        with pytest.raises(InvalidInputError):
            sol.evaluate(1.0, -0.1)
        with pytest.raises(InvalidInputError):
            sol.evaluate(1.0, math.nan)
        # lambda_plus = 1.5: e^{lambda_plus t} overflows from t = 473.2 on
        with pytest.raises(ConvergenceError, match="moments overflow before t = 474"):
            sol.evaluate(1.0, 474.0)

    def test_pointwise_dynamics_residual_refines(self):
        # central-difference residual of the transport-splitting law,
        # sampled away from the characteristic front, drops at second order
        p = reference_params()
        sol = ClosedFormSolution(p, reference_datum)

        def suffix(x, t):
            if x >= p.r * t:
                y = np.linspace(x, sol.x_max + p.r * t, 4001)
                return integrate.simpson(sol.evaluate(y, t), x=y)
            yl = np.linspace(x, p.r * t, 2001)
            yr = np.linspace(p.r * t, sol.x_max + p.r * t, 4001)
            return integrate.simpson(sol.evaluate(yl, t), x=yl) + integrate.simpson(
                sol.evaluate(yr, t), x=yr
            )

        def max_residual(h):
            worst = 0.0
            for x in (0.3, 1.1, 2.6, 4.5):
                for t in (0.4, 1.0, 1.8):
                    if abs(x - p.r * t) < 0.25:
                        continue
                    dt = (sol.evaluate(x, t + h) - sol.evaluate(x, t - h)) / (2 * h)
                    dx = (sol.evaluate(x + h, t) - sol.evaluate(x - h, t)) / (2 * h)
                    res = dt + p.r * dx + p.a * x * sol.evaluate(x, t) - 2 * p.a * suffix(x, t)
                    worst = max(worst, abs(res))
            return worst

        coarse, fine = max_residual(4e-3), max_residual(2e-3)
        assert fine < 1e-3
        assert coarse / fine > 3.0


def _cli_datum_knots():
    # the knots ClosedFormSolution takes from a CLI datum: 0, then the 2000
    # midpoints on [0, 30], so the first panel is half as wide as the rest
    nodes = midpoint_grid(30.0, 2000)
    return np.concatenate(([0.0], nodes)), 1.0 + 2.5 * np.concatenate(([0.0], nodes))


def _random_knots(n, seed):
    # adjacent panel widths differ by factors up to 10
    rng = np.random.default_rng(seed)
    widths = 10.0 ** rng.uniform(0.0, 1.0, n - 1)
    return np.concatenate(([0.0], np.cumsum(widths))) - 3.0, rng.normal(size=n)


class TestNotAKnotSplines:
    """The numpy splines against scipy's CubicSpline, the oracle."""

    @staticmethod
    def assert_matches_cubic_spline(x, ys):
        from gfrag.closed_form import _not_a_knot_splines

        # the knots, the panel midpoints and points a tenth into each panel
        z = np.concatenate((x, 0.5 * (x[:-1] + x[1:]), x[:-1] + 0.1 * np.diff(x)))
        for y, spline in zip(ys, _not_a_knot_splines(x, ys)):
            oracle = CubicSpline(x, y)
            scale = np.abs(y).max()
            assert np.abs(spline(z) - oracle(z)).max() <= 1e-13 * scale
            # an antiderivative's unit is the value's times a length
            anti = np.abs(spline.antiderivative()(z) - oracle.antiderivative()(z)).max()
            assert anti <= 1e-13 * scale * (x[-1] - x[0])

    def test_cli_datum_grid(self):
        x, y = _cli_datum_knots()
        self.assert_matches_cubic_spline(x, np.stack((y, x * y)))

    @pytest.mark.parametrize("n", [4, 5, 6, 9, 40, 700])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_nonuniform_grids(self, n, seed):
        x, y = _random_knots(n, seed)
        self.assert_matches_cubic_spline(x, np.stack((y, np.sin(x))))

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_and_three_knots_as_cubic_spline(self, n):
        # CubicSpline's special cases: a line through two knots, one
        # parabola through three
        from gfrag.closed_form import _not_a_knot_splines

        x, y = _random_knots(n, 3)
        self.assert_matches_cubic_spline(x, y[None])
        cubic = _not_a_knot_splines(x, y[None])[0].c[0]
        assert np.abs(cubic).max() <= 1e-13 * np.abs(y).max()

    @pytest.mark.parametrize("nodes", [[0.5, 1.5], [0.0, 1.5]], ids=["3-knots", "2-knots"])
    def test_two_node_datum(self, nodes):
        # 0 is prepended to a datum whose first node is positive
        values = np.array([2.0, 0.5])
        sol = ClosedFormSolution(reference_params(), (np.array(nodes), values))
        x = np.unique(np.concatenate(([0.0], nodes)))
        y = np.interp(x, nodes, values)  # the first value extends to 0
        z = np.linspace(0.0, 1.5, 31)
        assert np.abs(sol._u0(z) - CubicSpline(x, y)(z)).max() <= 1e-13 * 2.0
        assert sol.initial.M0 == pytest.approx(CubicSpline(x, y).integrate(0.0, 1.5), rel=1e-13)

    def test_pivots_are_those_of_the_sequential_elimination(self):
        from gfrag.closed_form import _thomas_pivots

        x, _ = _random_knots(300, 11)
        h = np.diff(x)
        sub, diag, sup = np.zeros(300), 2.0 * np.r_[h[0], h[:-1] + h[1:], h[-1]], np.zeros(300)
        sub[1:], sup[:-1] = h, h
        expected = diag.copy()
        for i in range(1, 300):
            expected[i] = diag[i] - sub[i] * sup[i - 1] / expected[i - 1]
        np.testing.assert_array_equal(_thomas_pivots(sub, diag, sup), expected)

    def test_non_finite_datum_rejected(self):
        nodes = midpoint_grid(10.0, 50)
        values = np.exp(-nodes)
        values[7] = np.nan
        with pytest.raises(InvalidInputError):
            ClosedFormSolution(reference_params(), (nodes, values))


class TestTailBound:
    def test_reference_time_within_bound(self):
        measured, bound = tail_bound_check(reference_params(), reference_datum, 2.0, 3.0)
        assert 0.0 < measured <= bound

    def test_calibration_point_is_tight(self):
        measured, bound = tail_bound_check(reference_params(), reference_datum, 2.0, 2.0)
        assert measured == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("t1,t2", [(2.0, 2.5), (2.5, 3.2), (2.0, 4.0)])
    def test_decay_ratio_property(self, t1, t2):
        p = reference_params()
        m = 2.0
        m1, _ = tail_bound_check(p, reference_datum, m, t1)
        m2, _ = tail_bound_check(p, reference_datum, m, t2)
        cap = math.exp(-0.5 * p.a * p.r * (t2 * t2 - t1 * t1)) * (t2 / t1) ** (m + 1)
        assert m2 / m1 <= cap * (1.0 + 1e-9)

    def test_zero_datum(self):
        measured, bound = tail_bound_check(reference_params(), lambda x: 0.0 * np.asarray(x), 2.0, 3.0)
        assert measured == 0.0 and bound == 0.0

    def test_weight_validation(self):
        with pytest.raises(InvalidInputError):
            tail_bound_check(reference_params(), reference_datum, 1.0, 3.0)


class TestEigenpairs:
    def test_reference_boundary_value(self):
        v = right_eigenfunction_cf(reference_params())
        assert v(0.0) == pytest.approx(5.0 / 6.0, abs=1e-14)

    def test_unit_integral(self):
        v = right_eigenfunction_cf(reference_params())
        total, _ = integrate.quad(v, 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_first_moment(self):
        p = reference_params()
        v = right_eigenfunction_cf(p)
        m1, _ = integrate.quad(lambda x: x * v(x), 0.0, np.inf)
        assert m1 == pytest.approx(p.r / p.lambda_plus, abs=1e-10)

    def test_eigen_residual(self):
        # s0 v + r v' + a x v - 2a int_x^inf v = 0, all pieces analytic
        p = reference_params()
        a, r, s0 = p.a, p.r, p.lambda_plus
        x = np.linspace(0.0, 25.0, 20001)
        sh = a * x + s0
        kap = (a / s0) * math.exp(0.5 * s0 * s0 / (a * r))
        damp = kap * np.exp(-0.5 * sh * sh / (a * r))
        v = damp * (sh * sh / (a * r) - 1.0)
        dv = damp * (2 * sh / r - (sh / r) * (sh * sh / (a * r) - 1.0))
        suffix = damp * sh / a
        resid = s0 * v + r * dv + a * x * v - 2 * a * suffix
        assert np.abs(resid).max() < 1e-6

    def test_dual_is_affine_reference(self):
        w = left_eigenfunction_cf(reference_params())
        x = np.linspace(0.0, 10.0, 11)
        assert np.abs(w(x) - 0.4 * (1.5 + 1.5 * x)).max() < 1e-14

    def test_dual_pairing_is_one(self):
        p = reference_params()
        v, w = right_eigenfunction_cf(p), left_eigenfunction_cf(p)
        val, _ = integrate.quad(lambda x: w(x) * v(x), 0.0, np.inf)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_dual_identity_exact(self):
        # r w' - a x w + 2a int_0^x w + r w(0)(b0 + b1 x) = s0 w, exactly,
        # every term polynomial in x
        p = BinaryModelParams(r=1.5, a=0.8, beta0=0.3, beta1=0.6)
        sig = 1.0 / (p.lambda_plus - p.lambda_minus)
        x = np.linspace(0.0, 40.0, 81)
        w = sig * (p.alpha1 * x + p.lambda_plus)
        prefix = sig * (0.5 * p.alpha1 * x * x + p.lambda_plus * x)
        res = (
            p.r * sig * p.alpha1
            - p.a * x * w
            + 2 * p.a * prefix
            + p.r * w[0] * (p.beta0 + p.beta1 * x)
            - p.lambda_plus * w
        )
        assert np.abs(res).max() < 1e-12

    @pytest.mark.parametrize("r,a,b0,b1", [(1.0, 1.0, 0.5, 0.5), (2.0, 0.5, 0.3, 0.1), (0.8, 1.7, 0.0, 0.9)])
    def test_boundary_compatibility(self, r, a, b0, b1):
        # v(0) = beta0 int v + beta1 int x v ties the eigenfunction to the
        # renewal condition
        p = BinaryModelParams(r=r, a=a, beta0=b0, beta1=b1)
        v = right_eigenfunction_cf(p)
        i0, _ = integrate.quad(v, 0.0, np.inf)
        i1, _ = integrate.quad(lambda x: x * v(x), 0.0, np.inf)
        assert v(0.0) == pytest.approx(b0 * i0 + b1 * i1, abs=1e-10)

    def test_grid_sampling(self):
        nodes = midpoint_grid(30.0, 500)
        p = reference_params()
        v = right_eigenfunction_cf(p)(nodes)
        w = left_eigenfunction_cf(p)(nodes)
        assert p.lambda_plus == 1.5
        assert v.shape == w.shape == nodes.shape and v.min() >= 0.0
        assert left_eigenfunction_cf(p)(1.0) == pytest.approx(1.2, abs=1e-14)

    def test_requires_splitting(self):
        p = BinaryModelParams(r=1.0, a=0.0, beta0=1.0, beta1=0.0)
        with pytest.raises(InvalidModelError):
            right_eigenfunction_cf(p)


class TestAsymptoticProfile:
    def test_reference_coefficient(self):
        nodes = midpoint_grid(50.0, 4000)
        prof = asymptotic_profile(reference_datum(nodes))
        v = right_eigenfunction_cf(reference_params())(nodes)
        coeff = prof[200] / v[200]
        assert coeff == pytest.approx(1.2, rel=1e-4)

    def test_second_datum_same_coefficient(self):
        nodes = midpoint_grid(50.0, 4000)
        prof = asymptotic_profile((2 * nodes**2 + 1) * np.exp(-2 * nodes))
        v = right_eigenfunction_cf(reference_params())(nodes)
        coeff = prof[200] / v[200]
        assert coeff == pytest.approx(1.2, rel=1e-4)

    def test_moment_bracket_equals_quadrature_pairing(self):
        p = reference_params()
        nodes = midpoint_grid(50.0, 4000)
        u0 = reference_datum(nodes)
        m = moments_from_grid(reference_model(), u0)
        bracket = (p.lambda_plus * m.M0 + p.alpha1 * m.M1) / (p.lambda_plus - p.lambda_minus)
        w = left_eigenfunction_cf(p)
        paired = float(np.sum(quad_weights(nodes) * w(nodes) * u0))
        assert bracket == pytest.approx(paired, abs=1e-8)

    def test_eigenfunction_datum_reproduces_itself(self):
        p = reference_params()
        nodes = midpoint_grid(50.0, 8000)
        v = right_eigenfunction_cf(p)(nodes)
        prof = asymptotic_profile(v)
        assert np.abs(prof - v).max() < 1e-4 * np.abs(v).max()


class TestModelBridge:
    def binary_model(self, bc="value", beta=None):
        return ModelDefinition(
            r=Constant(1.0),
            a=Linear(0.0, 1.0),
            kernel=UniformBinary(),
            beta=beta if beta is not None else Linear(0.5, 0.5),
            m=2.0,
            bc_convention=bc,
        )

    def test_membership(self):
        assert is_binary_model(self.binary_model())
        off_family = ModelDefinition(
            r=Constant(1.0),
            a=Constant(1.0),
            kernel=UniformBinary(),
            beta=Linear(0.5, 0.5),
            m=2.0,
            bc_convention="value",
        )
        assert not is_binary_model(off_family)
        powerlaw = ModelDefinition(
            r=Constant(1.0),
            a=Linear(0.0, 1.0),
            kernel=PowerLaw(1.0),
            beta=Linear(0.5, 0.5),
            m=2.0,
            bc_convention="value",
        )
        assert not is_binary_model(powerlaw)

    def test_value_convention_roundtrip(self):
        p = binary_params_from_model(self.binary_model())
        assert (p.r, p.a, p.beta0, p.beta1) == (1.0, 1.0, 0.5, 0.5)

    def test_flux_convention_rescales(self):
        model = ModelDefinition(
            r=Constant(2.0),
            a=Linear(0.0, 1.0),
            kernel=UniformBinary(),
            beta=Linear(0.5, 0.5),
            m=2.0,
            bc_convention="flux",
        )
        p = binary_params_from_model(model)
        assert (p.beta0, p.beta1) == (0.25, 0.25)

    def test_rejects_outsiders(self):
        off_family = ModelDefinition(
            r=Linear(1.0, 1.0),
            a=Linear(0.0, 1.0),
            kernel=UniformBinary(),
            beta=Linear(0.5, 0.5),
            m=2.0,
            bc_convention="value",
        )
        with pytest.raises(InvalidInputError):
            binary_params_from_model(off_family)
