"""Property test of the upwind solver: nonnegative data stay nonnegative.

Under the step bound dt * (max r / dx + max a) <= 1 every update is a
nonnegative combination of the previous iterate, so on random valid models,
grids, step margins and horizons no output may dip below roundoff.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gfrag.model import (
    Constant,
    InverseEpsilon,
    Linear,
    ModelDefinition,
    Power,
    PowerLaw,
    ShrinkingBinary,
    Tabulated,
    TabulatedKernel,
    UniformBinary,
    midpoint_grid,
)
from gfrag.pde import solve


def _num(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_positive = _num(0.1, 3.0)
# zero is drawn often: a vanishing coefficient or datum is the edge case
_nonnegative = st.one_of(st.just(0.0), _positive)


@st.composite
def _tabulated_r(draw, x_max):
    n = draw(st.integers(2, 5))
    nodes = np.sort(draw(st.lists(_num(0.0, x_max), min_size=n, max_size=n, unique=True)))
    return Tabulated(nodes, draw(st.lists(_positive, min_size=n, max_size=n)))


@st.composite
def _tabulated_kernel(draw):
    n = draw(st.integers(2, 6))
    ratios = np.sort(draw(st.lists(_num(0.0, 1.0), min_size=n, max_size=n, unique=True)))
    return TabulatedKernel(ratios, draw(st.lists(_nonnegative, min_size=n, max_size=n)))


_kernel = st.one_of(
    st.just(UniformBinary()),
    st.builds(PowerLaw, _num(-0.9, 3.0)),
    st.builds(ShrinkingBinary, _num(0.05, 0.5)),
    st.builds(ShrinkingBinary, st.builds(InverseEpsilon, _num(0.1, 5.0))),
    _tabulated_kernel(),
)


@st.composite
def models(draw):
    x_max = draw(_num(1.0, 40.0))
    r = draw(st.one_of(
        st.builds(Constant, _positive),
        st.builds(Linear, _positive, _nonnegative),
        _tabulated_r(x_max),
    ))
    a = draw(st.one_of(
        st.builds(Constant, _nonnegative),
        st.builds(Linear, _nonnegative, _nonnegative),
        st.builds(Power, _nonnegative, _num(0.0, 2.0)),
    ))
    return ModelDefinition(
        r=r,
        a=a,
        kernel=draw(_kernel),
        beta=Linear(draw(_nonnegative), draw(_nonnegative)),
        m=draw(_num(1.1, 4.0)),
        bc_convention=draw(st.sampled_from(["flux", "value"])),
        x_max=x_max,
    )


@st.composite
def runs(draw):
    model = draw(models())
    n_cells = draw(st.integers(16, 128))
    t_end = draw(_num(0.01, 1.0))
    n_out = draw(st.integers(0, 4))
    # no output times drawn: the run goes to t_end alone
    times = tuple(t_end * (k + 1) / n_out for k in range(n_out)) or (t_end,)
    cfl = draw(st.one_of(st.just(1.0), _num(0.01, 1.0)))
    nodes = midpoint_grid(model.x_max, n_cells)
    datum = draw(st.one_of(
        st.builds(lambda c, s: c * np.exp(-s * nodes), _positive, _positive),
        st.builds(lambda c, x0: c * np.exp(-4.0 * (nodes - x0) ** 2), _positive,
                  _num(0.0, model.x_max)),
        st.lists(_nonnegative, min_size=n_cells, max_size=n_cells).map(np.array),
    ))
    return model, datum, times, cfl


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(run=runs())
def test_solve_keeps_nonnegative_data_nonnegative(run):
    model, u0, times, cfl = run
    states = solve(model, u0, times, cfl=cfl)
    assert len(states) == len(times)
    for state in states:
        values = state.u
        assert np.all(np.isfinite(values))
        assert values.min() >= -1e-12 * values.max()
