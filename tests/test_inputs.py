"""Outside input at the library's array boundary.

Samples are plain 1-D arrays whose n values live on the model's grid
``midpoint_grid(model.x_max, n)``; each layer checks that a datum is 1-D,
finite and of the length it needs, and refuses non-finite times and
orders, with InvalidInputError.
"""

import dataclasses
import math

import numpy as np
import pytest

from gfrag.closed_form import BinaryModelParams, MomentState, propagate_moments
from gfrag.errors import InvalidInputError
from gfrag.model import Constant, Linear, ModelDefinition, UniformBinary, midpoint_grid
from gfrag.pde import SolverState, moment_balance_residual, solve, step
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


def run_step(u):
    return step(binary_model(), SolverState(0.0, u, MomentState(0.0, 0.0)), 1e-3)


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


@pytest.mark.parametrize(
    "run, u",
    [
        (run_solve, np.ones((2, N))),
        (run_solve, datum(15)),
        (run_solve, np.full(N, np.nan)),
        (run_step, np.ones((2, N))),
        (run_step, datum(15)),
        (run_step, np.full(N, np.inf)),
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
    ],
    ids=[
        "solve-2d", "solve-short", "solve-nan",
        "step-2d", "step-short", "step-inf",
        "generator-2d", "generator-one-value", "generator-nan",
        "projection-wrong-length", "projection-2d", "projection-nan",
        "aeg-wrong-length", "aeg-2d", "aeg-inf",
        "aeg-pde-short",
    ],
)
def test_datum_outside_the_array_contract_raises(run, u):
    with pytest.raises(InvalidInputError):
        run(u)


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
