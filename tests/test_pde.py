"""Tests for the upwind finite-volume solver and its moment balance checks."""

import math

import numpy as np
import pytest

from gfrag.closed_form import (
    BinaryModelParams,
    evaluate_solution,
    moments_from_grid,
    right_eigenfunction_cf,
)
from gfrag.errors import InvalidInputError
from gfrag.model import (
    Constant,
    Linear,
    ModelDefinition,
    UniformBinary,
    midpoint_grid,
    quad_weights,
)
from gfrag.pde import (
    SolverState,
    moment_balance_residual,
    solve,
    stable_step,
)


def reference_model(x_max=15.0):
    return ModelDefinition(
        r=Constant(1.0),
        a=Linear(0.0, 1.0),
        kernel=UniformBinary(),
        beta=Linear(0.5, 0.5),
        m=2.0,
        bc_convention="value",
        x_max=x_max,
    )


def advection_model(x_max=20.0):
    # pure transport: no fragmentation, no renewal inflow
    return ModelDefinition(
        r=Constant(1.0),
        a=Constant(0.0),
        kernel=UniformBinary(),
        beta=Constant(0.0),
        m=2.0,
        bc_convention="value",
        x_max=x_max,
    )


def reference_datum(x):
    return (2.5 * x + 1.0) * np.exp(-2.0 * x)


def bump(x):
    return np.exp(-4.0 * (x - 4.0) ** 2)


def grid_datum(fn, model, n_cells):
    return fn(midpoint_grid(model.x_max, n_cells))


def l1_norm(nodes, values):
    return float(np.sum(quad_weights(nodes) * np.abs(values)))


def stepwise_states(model, n_cells, fn, n_steps=4, safety=0.3):
    # one output time per step of dt = safety * stable_step: a cfl of
    # safety makes each interval one step
    dt = safety * stable_step(model, n_cells)
    times = [k * dt for k in range(n_steps + 1)]
    return solve(model, grid_datum(fn, model, n_cells), times, cfl=safety)


class TestSolveArguments:
    def test_nodes_are_uniform_cell_midpoints(self):
        nodes = midpoint_grid(10.0, 20)
        assert len(nodes) == 20
        assert nodes[0] == pytest.approx(0.25)
        assert nodes[-1] == pytest.approx(9.75)
        spacings = np.diff(nodes)
        assert np.allclose(spacings, 0.5, rtol=0, atol=1e-14)
        states = solve(advection_model(10.0), bump(nodes), (0.0,))
        assert np.array_equal(states[0].u, bump(nodes))

    def test_too_few_cells_rejected(self):
        model = advection_model(10.0)
        with pytest.raises(InvalidInputError):
            solve(model, grid_datum(bump, model, 8), (1.0,))

    @pytest.mark.parametrize("cfl", [0.0, -0.5, 1.5])
    def test_bad_cfl_rejected(self, cfl):
        model = advection_model(10.0)
        with pytest.raises(InvalidInputError):
            solve(model, grid_datum(bump, model, 64), (1.0,), cfl=cfl)

    @pytest.mark.parametrize(
        "times",
        [(), (0.5, 0.4), (0.5, 0.5), (-0.1,), (math.nan,), (0.5, math.nan), (0.5, math.inf)],
        ids=["empty", "decreasing", "repeated", "negative", "nan", "nan-last", "inf"],
    )
    def test_output_times_rejected(self, times):
        # the last output time is the horizon: it must exist and be finite
        model = advection_model(10.0)
        with pytest.raises(InvalidInputError, match="output times"):
            solve(model, grid_datum(bump, model, 64), times)


class TestStep:
    def test_single_advection_step_matches_manual_update(self):
        # one output time at dt and a cfl of dt / stable_step: one step of dt
        model = advection_model()
        nodes = midpoint_grid(20.0, 64)
        u0 = bump(nodes)
        dt = 0.5 * stable_step(model, 64)
        (out,) = solve(model, u0, (dt,), cfl=0.5)
        dx = 20.0 / 64
        flux = np.concatenate(([0.0], u0))  # inflow 0, face speed 1
        expected = u0 - (dt / dx) * (flux[1:] - flux[:-1])
        assert np.allclose(out.u, expected, rtol=0, atol=1e-14)
        assert out.t == dt


class TestAdvection:
    def test_first_order_convergence_to_translate(self):
        model = advection_model()
        errs = []
        for n in (400, 800, 1600):
            nodes = midpoint_grid(20.0, n)
            final = solve(model, grid_datum(bump, model, n), (1.0,))[-1]
            errs.append(l1_norm(nodes, final.u - bump(nodes - 1.0)))
        assert errs[0] / errs[1] > 1.8
        assert errs[1] / errs[2] > 1.8
        assert errs[2] < 0.025

    def test_interior_bump_weighted_mass_balance_is_exact(self):
        # constant speed, no sources: the discrete residual telescopes away
        model = advection_model()
        states = solve(model, grid_datum(bump, model, 400), (0.1, 0.2, 0.3, 0.4, 0.5))
        residuals = moment_balance_residual(model, states, 1)
        assert max(abs(r) for r in residuals) < 1e-12


class TestClosedFormAgreement:
    def test_first_order_convergence_against_closed_form(self):
        model = reference_model()
        params = BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5)
        errs = []
        for n in (480, 960, 1920):
            nodes = midpoint_grid(15.0, n)
            final = solve(model, grid_datum(reference_datum, model, n), (1.0,), cfl=0.3)[-1]
            exact = evaluate_solution(params, reference_datum, nodes, 1.0)
            errs.append(l1_norm(nodes, final.u - exact))
        order = np.polyfit(
            np.log([15.0 / 480, 15.0 / 960, 15.0 / 1920]), np.log(errs), 1
        )[0]
        assert errs[0] > errs[1] > errs[2]
        assert order > 0.9
        assert errs[2] < 0.025

    def test_solution_stays_nonnegative(self):
        model = reference_model()
        final = solve(model, grid_datum(reference_datum, model, 480), (1.0,), cfl=0.9)[-1]
        assert final.u.min() >= 0.0

    def test_truncation_domain_insensitivity_at_matched_steps(self):
        # same cell width and same dt: doubling the domain must not move
        # the interior solution, the datum tail being negligible past x=15
        model_small = reference_model(x_max=15.0)
        model_large = reference_model(x_max=30.0)
        dt = 0.3 * stable_step(model_large, 1920)
        n_steps = int(round(2.0 / dt))
        dt = 2.0 / n_steps

        def run(model, n_cells):
            # a cfl of dt / stable_step splits [0, 2] into n_steps steps of dt
            u0 = grid_datum(reference_datum, model, n_cells)
            return solve(model, u0, (2.0,), cfl=dt / stable_step(model, n_cells))[-1]

        small = run(model_small, 960)
        large = run(model_large, 1920)
        nodes = midpoint_grid(15.0, 960)
        mask = nodes <= 5.0
        diff = quad_weights(nodes) * np.abs(
            small.u - large.u[: len(nodes)]
        )
        assert float(np.sum(diff[mask])) < 1e-8

    def test_zero_datum_stays_zero(self):
        model = reference_model()
        nodes = midpoint_grid(15.0, 480)
        states = solve(model, np.zeros(480), (0.5, 1.0))
        assert all(np.all(s.u == 0.0) for s in states)


class TestEigenInvariance:
    def test_perron_mode_decays_at_perron_rate(self):
        # datum = right eigenfunction: e^(-s0 t) u(t) should hug the datum,
        # the O(dx) drift saturating rather than growing
        model = reference_model()
        params = BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5)
        v = right_eigenfunction_cf(params)
        s0 = params.lambda_plus
        nodes = midpoint_grid(15.0, 960)
        u0 = v(nodes)
        states = solve(model, u0, (0.5, 1.0, 1.5, 2.0), cfl=0.3)
        devs = [
            l1_norm(nodes, math.exp(-s0 * s.t) * s.u - u0)
            for s in states
        ]
        assert max(devs) < 0.01
        assert devs[-1] < 1.4 * devs[0]
        assert devs[-1] - devs[-2] < 0.5 * (devs[1] - devs[0])


class TestMomentBalance:
    def test_needs_three_states_and_valid_order(self):
        model = reference_model()
        states = stepwise_states(model, 480, reference_datum, n_steps=1)
        with pytest.raises(InvalidInputError):
            moment_balance_residual(model, states, 1)
        states = stepwise_states(model, 480, reference_datum, n_steps=2)
        with pytest.raises(InvalidInputError):
            moment_balance_residual(model, states, -1)

    def test_number_balance_residual_shrinks_first_order(self):
        model = reference_model()
        maxima = []
        for n in (480, 960, 1920, 3840):
            states = stepwise_states(model, n, reference_datum)
            residuals = moment_balance_residual(model, states, 0)
            maxima.append(max(abs(r) for r in residuals))
        assert maxima[0] / maxima[1] > 1.6
        assert maxima[1] / maxima[2] > 1.6
        assert maxima[2] / maxima[3] > 1.6

    def test_number_balance_reproduces_moment_ode(self):
        # for this model the m=0 residual is exactly the defect in
        # dM0/dt = alpha0 M0 + alpha1 M1 (doubled), so smallness here
        # certifies the recovered moment equation
        model = reference_model()
        states = stepwise_states(model, 480, reference_datum)
        residuals = moment_balance_residual(model, states, 0)
        nodes = midpoint_grid(15.0, 480)
        w = quad_weights(nodes)
        mid = 0.5 * (states[0].u + states[1].u)
        m0 = float(np.sum(w * mid))
        m1 = float(np.sum(w * mid * nodes))
        scale = 2.0 * (0.5 * m0 + 1.5 * m1)
        assert max(abs(r) for r in residuals) / scale < 1e-2

    def test_mass_balance_residual_small_and_shrinking(self):
        # the m=1 residual mixes gain-column and time-stepping errors of
        # opposite signs, so it sits near a cancellation floor: assert a
        # small magnitude and a clear drop over a 8x refinement instead
        # of per-step halving
        model = reference_model()
        maxima = {}
        for n in (480, 3840):
            states = stepwise_states(model, n, reference_datum)
            residuals = moment_balance_residual(model, states, 1)
            maxima[n] = max(abs(r) for r in residuals)
        assert maxima[480] < 2.5e-3
        assert maxima[3840] < 0.6 * maxima[480]

    def test_solve_accumulates_interval_residuals(self):
        # short output intervals: the interval-midpoint differencing is
        # only accurate to O(span^2), so keep spans small here
        model = reference_model()
        times = tuple(round(0.05 * k, 2) for k in range(1, 11))
        u0 = grid_datum(reference_datum, model, 480)
        states = solve(model, u0, times)
        start = SolverState(0.0, u0, moments_from_grid(model, u0))
        residuals = moment_balance_residual(model, [start] + states, 1.0)
        assert len(residuals) == 10
        assert all(abs(r) < 0.05 for r in residuals)


class TestFluxConvention:
    def test_flux_weights_feed_inflow_directly(self):
        # value convention with r = 2 halves the renewal weights; the flux
        # convention uses them as given, so scaling r must leave the flux
        # model's inflow term alone
        value_model = ModelDefinition(
            r=Constant(2.0),
            a=Linear(0.0, 1.0),
            kernel=UniformBinary(),
            beta=Linear(0.5, 0.5),
            m=2.0,
            bc_convention="value",
            x_max=15.0,
        )
        flux_model = ModelDefinition(
            r=Constant(2.0),
            a=Linear(0.0, 1.0),
            kernel=UniformBinary(),
            beta=Linear(1.0, 1.0),
            m=2.0,
            bc_convention="flux",
            x_max=15.0,
        )
        a = solve(value_model, grid_datum(reference_datum, value_model, 480), (0.5,))[-1]
        b = solve(flux_model, grid_datum(reference_datum, flux_model, 480), (0.5,))[-1]
        assert np.allclose(a.u, b.u, rtol=0, atol=1e-14)
