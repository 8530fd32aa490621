"""Outside input at the library's array boundary.

Samples are plain 1-D arrays whose n values live on the model's grid
``midpoint_grid(model.x_max, n)``; every function that takes them checks
that they are 1-D, finite and of the length it needs, and refuses
non-finite times and orders, with InvalidInputError.
"""

import dataclasses
import math

import numpy as np
import pytest

from gfrag.closed_form import (
    BinaryModelParams,
    MomentState,
    evaluate_solution,
    moments_from_grid,
    propagate_moments,
)
from gfrag.errors import InvalidInputError
from gfrag.model import (
    Constant,
    Linear,
    ModelDefinition,
    UniformBinary,
    midpoint_grid,
    xm_norm,
)
from gfrag.pde import moment_balance_residual, solve
from gfrag.resolvent import (
    DirectResolvent,
    ResolventContext,
    apply_E_lambda,
    apply_resolvent_K,
    apply_resolvent_Z0,
    apply_resolvent_Zbeta,
    apply_shifted_generator_K,
    apply_shifted_generator_Zbeta,
    fragmentation_gain_matrix,
)
from gfrag.spectral import (
    Eigenpair,
    aeg_diagnostics,
    apply_generator_direct,
    closed_form_eigenpair,
    spectral_projection,
)

N = 64


def binary_model():
    return ModelDefinition(
        r=Constant(1.0), a=Linear(0.0, 1.0), kernel=UniformBinary(), beta=Linear(0.5, 0.5),
        m=2.0, bc_convention="value", x_max=15.0,
    )


def constant_rate_model():
    # outside the closed-form family: aeg_diagnostics marches the PDE
    return ModelDefinition(
        r=Constant(1.0), a=Constant(1.0), kernel=UniformBinary(), beta=Constant(0.5),
        m=2.0, bc_convention="value", x_max=15.0,
    )


def datum(n=N):
    return np.exp(-midpoint_grid(15.0, n))


def run_solve(u):
    return solve(binary_model(), u, (0.1,))


def resolvent_run(apply):
    def run(u):
        return apply(ResolventContext(binary_model(), lam=7.0, n_cells=N), u)

    return run


def direct_run(name):
    def run(u):
        direct = DirectResolvent(ResolventContext(binary_model(), lam=7.0, n_cells=N))
        return getattr(direct, name)(u)

    return run


def run_xm_norm(u):
    return xm_norm(binary_model(), u)


def run_moments(u):
    return moments_from_grid(binary_model(), u)


def run_balance(u):
    # u replaces the middle of three states of a run on N cells
    model, states = _balance_states()
    states[1] = dataclasses.replace(states[1], u=u)
    return moment_balance_residual(model, states, 1.0)


def run_generator(u):
    return apply_generator_direct(binary_model(), u)


def run_projection(u):
    return spectral_projection(closed_form_eigenpair(binary_model(), N), u)


def run_aeg(u):
    return aeg_diagnostics(binary_model(), closed_form_eigenpair(binary_model(), N), u, (0.5, 1.0))


def run_aeg_pde(u):
    # a pair as short as the datum, so only the march can refuse it
    n = np.size(u)
    pair = Eigenpair(1.0, midpoint_grid(15.0, n), np.ones(n), np.ones(n), 0.0)
    return aeg_diagnostics(constant_rate_model(), pair, u, (0.5, 1.0))


RESOLVENT_OPERATORS = [
    apply_resolvent_Z0,
    apply_E_lambda,
    apply_resolvent_Zbeta,
    apply_resolvent_K,
    apply_shifted_generator_Zbeta,
    apply_shifted_generator_K,
]
# TestGridCheck in test_resolvent.py gives the resolvent operators other shapes
SAMPLE_CASES = [
    *((resolvent_run(op), np.full(N, bad)) for op in RESOLVENT_OPERATORS for bad in (np.nan, np.inf)),
    *((direct_run(name), u) for name in ("solve", "solve_transpose")
      for u in (np.full(N, np.nan), np.full(N, np.inf), np.ones((2, N)), datum(N - 1))),
    # any length of at least two is a grid for the norm and the moments
    *((run, u) for run in (run_xm_norm, run_moments)
      for u in (np.full(N, np.nan), np.full(N, np.inf), np.ones((2, N)))),
    (run_balance, np.full(N, np.nan)),
    (run_balance, np.full(N, np.inf)),
    (run_balance, np.ones((2, N))),
    (run_balance, datum(2 * N)),
]
SAMPLE_IDS = [
    *(f"{op.__name__}-{bad}" for op in RESOLVENT_OPERATORS for bad in ("nan", "inf")),
    *(f"direct-{name}-{case}" for name in ("solve", "solve_transpose")
      for case in ("nan", "inf", "2d", "short")),
    *(f"{name}-{case}" for name in ("xm_norm", "moments") for case in ("nan", "inf", "2d")),
    "balance-nan", "balance-inf", "balance-2d", "balance-other-grid",
]


@pytest.mark.parametrize(
    "run, u",
    [
        (run_solve, np.ones((2, N))),
        (run_solve, datum(15)),
        (run_solve, np.full(N, np.nan)),
        (run_generator, np.ones((2, N))),
        (run_generator, np.ones(1)),
        (run_generator, np.full(N, np.nan)),
        (run_projection, datum(N + 1)),
        (run_projection, np.ones((2, N))),
        (run_projection, np.full(N, np.nan)),
        (run_aeg, datum(N - 1)),
        (run_aeg, np.ones((2, N))),
        (run_aeg, np.full(N, np.inf)),
        (run_aeg_pde, datum(15)),
        *SAMPLE_CASES,
    ],
    ids=[
        "solve-2d", "solve-short", "solve-nan",
        "generator-2d", "generator-one-value", "generator-nan",
        "projection-wrong-length", "projection-2d", "projection-nan",
        "aeg-wrong-length", "aeg-2d", "aeg-inf",
        "aeg-pde-short",
        *SAMPLE_IDS,
    ],
)
def test_datum_outside_the_array_contract_raises(run, u):
    with pytest.raises(InvalidInputError):
        run(u)


@pytest.mark.parametrize(
    "times", [(0.0, 0.05, 0.05), (0.1, 0.05, 0.0)], ids=["repeated", "reversed"]
)
def test_balance_needs_strictly_increasing_times(times):
    model, states = _balance_states()
    states = [dataclasses.replace(s, t=t) for s, t in zip(states, times)]
    with pytest.raises(InvalidInputError, match="strictly increasing"):
        moment_balance_residual(model, states, 1.0)


PARAMS = BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5)


@pytest.mark.parametrize(
    "x", [np.full(N, np.nan), np.full(N, np.inf), -1.0], ids=["nan", "inf", "negative"]
)
def test_closed_form_refuses_sizes_off_the_half_line(x):
    with pytest.raises(InvalidInputError, match="sizes"):
        evaluate_solution(PARAMS, lambda s: np.exp(-s), x, 1.0)


def test_closed_form_evaluates_at_size_zero():
    at_zero = evaluate_solution(PARAMS, lambda s: np.exp(-s), 0.0, 1.0)
    assert math.isfinite(at_zero) and at_zero > 0.0


@pytest.mark.parametrize("n_cells", [64.5, 64.0, 1], ids=["fraction", "float", "one"])
def test_grid_needs_a_whole_number_of_cells(n_cells):
    with pytest.raises(InvalidInputError, match="whole number"):
        fragmentation_gain_matrix(binary_model(), n_cells)


def test_eigenpair_of_another_domain_refused():
    other = closed_form_eigenpair(dataclasses.replace(binary_model(), x_max=30.0), N)
    with pytest.raises(InvalidInputError, match="model's grid"):
        aeg_diagnostics(binary_model(), other, datum(), (0.5, 1.0))


def _balance_states():
    model = binary_model()
    return model, solve(model, datum(), (0.0, 0.05, 0.1))


@pytest.mark.parametrize(
    "call",
    [
        lambda: aeg_diagnostics(
            binary_model(), closed_form_eigenpair(binary_model(), N), datum(), (math.nan, 1.0)
        ),
        lambda: aeg_diagnostics(
            binary_model(), closed_form_eigenpair(binary_model(), N), datum(), (0.5, math.inf)
        ),
        lambda: moment_balance_residual(*_balance_states(), math.nan),
        lambda: moment_balance_residual(*_balance_states(), math.inf),
        lambda: propagate_moments(
            BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5), MomentState(1.0, 1.0), math.nan
        ),
        lambda: propagate_moments(
            BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5), MomentState(1.0, 1.0), math.inf
        ),
        lambda: solve(binary_model(), np.full(N, np.nan), (0.1,)),
        lambda: solve(binary_model(), np.full(N, np.inf), (0.1,)),
    ],
    ids=[
        "aeg-nan-time", "aeg-inf-time",
        "balance-nan-order", "balance-inf-order",
        "moments-nan-time", "moments-inf-time",
        "solve-all-nan", "solve-all-inf",
    ],
)
def test_non_finite_input_raises_invalid_input(call):
    with pytest.raises(InvalidInputError):
        call()
