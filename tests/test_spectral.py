"""Tests for the inverse-iteration eigensolver and growth diagnostics."""

import dataclasses
import functools
import warnings

import numpy as np
import pytest

from gfrag.closed_form import BinaryModelParams, evaluate_solution
from gfrag.errors import (
    ConvergenceError,
    DegenerateModelError,
    DiscretizationWarning,
    InvalidInputError,
    SeriesDivergenceError,
)
from gfrag.model import (
    Constant,
    Linear,
    ModelDefinition,
    PowerLaw,
    TabulatedKernel,
    UniformBinary,
    midpoint_grid,
    quad_weights,
    shift_floor,
)
from gfrag import spectral
from gfrag.resolvent import ResolventContext, apply_resolvent_K
from gfrag.spectral import (
    _inverse_iteration,
    _warn_if_negative,
    aeg_diagnostics,
    apply_generator_direct,
    closed_form_eigenpair,
    perron_eigenpair,
    spectral_projection,
)

ALPHA0 = 0.5 * 1.0  # r * beta0
ALPHA1 = 0.5 * 1.0 + 1.0  # r * beta1 + a


def reference_model(x_max=30.0):
    return ModelDefinition(
        r=Constant(1.0),
        a=Linear(0.0, 1.0),
        kernel=UniformBinary(),
        beta=Linear(0.5, 0.5),
        m=2.0,
        bc_convention="value",
        x_max=x_max,
    )


def reference_datum(x):
    return (2.5 * x + 1.0) * np.exp(-2.0 * x)


def second_datum(x):
    return (2.0 * x**2 + 1.0) * np.exp(-2.0 * x)


@functools.lru_cache(maxsize=8)
def cached_pair(n_cells, x_max=30.0):
    return perron_eigenpair(reference_model(x_max), n_cells, tol=1e-9)


def grid_inner(nodes, left, right):
    return float(np.sum(quad_weights(nodes) * left * right))


class TestPerronEigenpair:
    def test_eigenvalue_on_reference_grid(self):
        pair = cached_pair(2000)
        assert pair.s0 == pytest.approx(1.5, abs=1e-3)

    def test_right_eigenfunction_matches_analytic(self):
        pair = cached_pair(2000)
        analytic = closed_form_eigenpair(reference_model(), 2000)
        l1 = grid_inner(pair.nodes, np.abs(pair.v - analytic.v), 1.0)
        assert l1 < 1e-2

    def test_normalizations_hold_on_grid(self):
        pair = cached_pair(2000)
        assert grid_inner(pair.nodes, pair.v, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert grid_inner(pair.nodes, pair.w, pair.v) == pytest.approx(1.0, abs=1e-12)
        assert pair.v.min() >= 0.0
        assert pair.w.min() > 0.0

    def test_left_eigenfunction_matches_analytic_in_the_bulk(self):
        # domain truncation bends w near x_max; compare where v lives
        pair = cached_pair(2000)
        analytic = closed_form_eigenpair(reference_model(), 2000)
        mask = pair.nodes <= 10.0
        rel = np.abs(pair.w[mask] - analytic.w[mask]) / analytic.w[mask]
        assert np.max(rel) < 1e-2

    def test_residual_decreases_under_refinement(self):
        coarse = cached_pair(500)
        fine = cached_pair(1000)
        assert fine.residual < coarse.residual / 2.0

    def test_characteristic_equation_after_extrapolation(self):
        # second-order bias: eliminate with one Richardson step
        s_coarse = cached_pair(1000).s0
        s_fine = cached_pair(2000).s0
        s_extrap = s_fine + (s_fine - s_coarse) / 3.0
        assert abs(s_extrap**2 - ALPHA0 * s_extrap - 1.0 * ALPHA1) < 1e-6

    def test_degenerate_model_rejected(self):
        dead = ModelDefinition(
            r=Constant(1.0),
            a=Constant(0.0),
            kernel=UniformBinary(),
            beta=Constant(0.0),
            m=2.0,
            bc_convention="value",
            x_max=30.0,
        )
        with pytest.raises(DegenerateModelError):
            perron_eigenpair(dead, 200, tol=1e-9)

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # an infinite tolerance would stop after one sweep, far from s0
        with pytest.raises(InvalidInputError):
            perron_eigenpair(reference_model(), 200, tol=tol)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_MAX_ITERS", 2)
        with pytest.raises(ConvergenceError):
            perron_eigenpair(reference_model(), 200, tol=1e-12)

    def test_clean_run_emits_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiscretizationWarning)
            perron_eigenpair(reference_model(), 500, tol=1e-8)

    def test_negative_component_guard_warns(self):
        values = np.array([1.0, 0.5, -0.1])
        with pytest.warns(DiscretizationWarning):
            _warn_if_negative("probe", values, 1e-6)
        # within -tol stays silent
        with warnings.catch_warnings():
            warnings.simplefilter("error", DiscretizationWarning)
            _warn_if_negative("probe", np.array([1.0, -1e-9]), 1e-6)


class TestFactoredWarmStart:
    def test_s0_converges_at_second_order(self):
        errors = [
            abs(perron_eigenpair(reference_model(), n).s0 - 1.5)
            for n in (200, 400, 800)
        ]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5

    def test_series_finish_in_one_sweep_each_way(self, monkeypatch):
        calls = {"forward": 0, "adjoint": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            spectral, "apply_resolvent_K", counted("forward", spectral.apply_resolvent_K)
        )
        monkeypatch.setattr(
            spectral, "_resolvent_K_transpose",
            counted("adjoint", spectral._resolvent_K_transpose),
        )
        perron_eigenpair(reference_model(), 2000)
        assert 1 <= calls["forward"] <= 2
        assert 1 <= calls["adjoint"] <= 2

    # constant r, a and beta = 2 in the value convention: the LU stages
    # converge to s0 = 3.38274, below the context shift 3.91736, but the
    # confirming series at that shift contracts only at about 0.904 a term
    # and needs 219 terms, more than the 200 it may take
    @pytest.mark.xfail(
        strict=True,
        raises=SeriesDivergenceError,
        reason="the confirming Neumann sweep runs at the context shift, where the series is too slow",
    )
    def test_converged_pair_is_not_refused_by_the_confirming_series(self):
        model = ModelDefinition(
            r=Constant(0.31956054312531923),
            a=Constant(1.361780080816452),
            kernel=PowerLaw(2.0016250244943325),
            beta=Constant(2.0),
            m=2.0,
            bc_convention="value",
            x_max=30.0,
        )
        pair = perron_eigenpair(model, 200)
        assert pair.s0 < sum(shift_floor(model)) + 2.0

    def test_matches_series_only_inverse_iteration(self):
        model = reference_model()
        # the shift perron_eigenpair builds its context at
        lam, tol = sum(shift_floor(model)) + 2.0, 1e-10
        ctx = ResolventContext(model, lam, n_cells=200)
        wq = quad_weights(ctx.nodes)
        _v, mu = _inverse_iteration(
            lambda x: apply_resolvent_K(ctx, x, tol=tol)[0],
            np.exp(-ctx.nodes), wq, ctx.norm_m, tol,
        )
        pair = perron_eigenpair(model, 200, tol=tol)
        assert abs(pair.s0 - (lam - 1.0 / mu)) <= 1e-9


class TestTabulatedKernel:
    @pytest.mark.parametrize("n_cells", [2000, 20000])
    def test_constant_h_reproduces_uniform_binary(self, n_cells):
        # h = 2 on [0, 1] is the uniform binary density 2/y
        flat = TabulatedKernel(np.array([0.0, 1.0]), np.array([2.0, 2.0]))
        s0 = perron_eigenpair(reference_model(), n_cells).s0
        tab = perron_eigenpair(dataclasses.replace(reference_model(), kernel=flat), n_cells).s0
        assert tab == pytest.approx(s0, rel=0, abs=1e-12)


class TestDirectGenerator:
    def test_analytic_eigenpair_near_kernel(self):
        # K_h v - s0 v should vanish at second order for the exact v
        model = reference_model()
        residuals = []
        for n in (1000, 2000):
            pair = closed_form_eigenpair(model, n)
            residuals.append(pair.residual)
        assert residuals[0] < 2e-3
        assert residuals[1] < residuals[0] / 2.0

    def test_fine_midpoint_grid_accepted(self):
        nodes = midpoint_grid(30.0, 20000)
        out = apply_generator_direct(reference_model(), np.exp(-nodes))
        assert out.shape == nodes.shape
        assert np.all(np.isfinite(out))


class TestSpectralProjection:
    def test_profile_coefficient_analytic(self):
        # <w, u0> = sigma*(lambda_plus*M0 + alpha1*M1) = 1.2 for this datum
        model = reference_model(x_max=15.0)
        nodes = midpoint_grid(15.0, 4000)
        pair = closed_form_eigenpair(model, 4000)
        coeff = grid_inner(nodes, pair.w, reference_datum(nodes))
        assert coeff == pytest.approx(1.2, abs=1e-6)

    def test_projection_of_eigenfunction_is_identity(self):
        pair = cached_pair(1000)
        projected = spectral_projection(pair, pair.v)
        np.testing.assert_allclose(projected, pair.v, rtol=0, atol=1e-12)

    def test_idempotence_on_random_data(self):
        pair = cached_pair(1000)
        rng = np.random.default_rng(42)
        f = rng.uniform(0.0, 1.0, pair.nodes.size)
        once = spectral_projection(pair, f)
        twice = spectral_projection(pair, once)
        np.testing.assert_allclose(twice, once, rtol=1e-12, atol=1e-15)

    def test_grid_mismatch_rejected(self):
        pair = cached_pair(1000)
        other = midpoint_grid(30.0, 500)
        with pytest.raises(InvalidInputError):
            spectral_projection(pair, np.exp(-other))


class TestAEGDiagnostics:
    def test_reference_datum_decays_at_gap_rate(self):
        model = reference_model(x_max=15.0)
        nodes = midpoint_grid(15.0, 4000)
        pair = closed_form_eigenpair(model, 4000)
        report = aeg_diagnostics(model, pair, reference_datum(nodes), [1.0, 2.0, 3.0, 4.0])
        assert report.passed
        assert all(b < a for a, b in zip(report.deviations, report.deviations[1:]))
        # observed decay rate is the spectral gap lambda_plus - lambda_minus
        assert report.fitted_rate == pytest.approx(2.5, abs=0.1)
        assert report.fitted_constant > 0.0

    def test_second_datum_same_profile(self):
        model = reference_model(x_max=15.0)
        nodes = midpoint_grid(15.0, 4000)
        pair = closed_form_eigenpair(model, 4000)
        report = aeg_diagnostics(model, pair, second_datum(nodes), [1.0, 2.0, 3.0, 4.0])
        assert report.passed
        assert report.fitted_rate == pytest.approx(2.5, abs=0.1)
        assert report.deviations[-1] < 1e-2 * report.deviations[0]

    def test_eigenfunction_datum_has_tiny_deviations(self):
        model = reference_model(x_max=15.0)
        pair = closed_form_eigenpair(model, 4000)
        report = aeg_diagnostics(model, pair, pair.v, [0.5, 1.0, 2.0])
        assert max(report.deviations) < 1e-4

    def test_numeric_pair_route(self):
        model = reference_model(x_max=15.0)
        pair = perron_eigenpair(model, 2000, tol=1e-9)
        u0 = reference_datum(pair.nodes)
        report = aeg_diagnostics(model, pair, u0, [1.0, 2.0, 3.0, 4.0])
        assert report.passed

    def test_pde_route_for_models_outside_the_closed_family(self):
        # constant splitting rate: no closed form, diagnostics must fall
        # back to the finite-volume solver
        model = ModelDefinition(
            r=Constant(1.0),
            a=Constant(1.0),
            kernel=UniformBinary(),
            beta=Constant(0.5),
            m=2.0,
            bc_convention="value",
            x_max=20.0,
        )
        pair = perron_eigenpair(model, 800, tol=1e-8)
        report = aeg_diagnostics(model, pair, pair.v, [0.5, 1.0])
        assert len(report.deviations) == 2
        # eigenfunction datum: deviation is pure solver drift, first order
        # in the cell width at this resolution
        assert all(d < 0.06 for d in report.deviations)

    def test_times_validation(self):
        pair = cached_pair(1000)
        u0 = reference_datum(pair.nodes)
        model = reference_model()
        with pytest.raises(InvalidInputError):
            aeg_diagnostics(model, pair, u0, [])
        with pytest.raises(InvalidInputError):
            aeg_diagnostics(model, pair, u0, [0.0, 1.0])
        with pytest.raises(InvalidInputError):
            aeg_diagnostics(model, pair, u0, [2.0, 1.0])

    def test_times_with_underflowing_squares_refused(self):
        pair = cached_pair(1000)
        u0 = reference_datum(pair.nodes)
        with pytest.raises(ConvergenceError, match="normal floats"):
            aeg_diagnostics(reference_model(), pair, u0, [2.5e-301, 5e-301, 1e-300])

    @pytest.mark.parametrize(
        "fit",
        [np.linalg.LinAlgError("SVD did not converge"), (np.nan, 0.0), (-1.0, 1e3)],
        ids=["fails", "nan-slope", "constant-overflows"],
    )
    def test_failed_or_non_finite_fit_raises(self, monkeypatch, fit):
        pair = cached_pair(1000)
        u0 = reference_datum(pair.nodes)

        def polyfit(*args, **kwargs):
            if isinstance(fit, Exception):
                raise fit
            return np.array(fit)

        monkeypatch.setattr(spectral.np, "polyfit", polyfit)
        with pytest.raises(ConvergenceError, match="log-linear fit"):
            aeg_diagnostics(reference_model(), pair, u0, [1.0, 2.0])


class TestTrajectoryInvariance:
    def test_left_pairing_is_conserved(self):
        # <w, u(t)> e^{-s0 t} is constant along closed-form trajectories
        model = reference_model(x_max=15.0)
        params = BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5)
        nodes = midpoint_grid(15.0, 4000)
        pair = closed_form_eigenpair(model, 4000)
        values = []
        for t in (0.0, 0.5, 1.0, 1.5, 2.0):
            u = evaluate_solution(params, reference_datum, nodes, t)
            values.append(grid_inner(nodes, pair.w, u) * np.exp(-1.5 * t))
        assert max(values) - min(values) < 1e-5
        assert values[0] == pytest.approx(1.2, abs=1e-5)
