"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises one headline capability at its stated tolerance and
prints a single pass line (visible with ``pytest -s``); the test name
carries the criterion number, so the ``pytest -v`` report reads as the
acceptance checklist.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from gfrag.closed_form import (
    BinaryModelParams,
    ClosedFormSolution,
    MomentState,
    lambda_pm,
    left_eigenfunction_cf,
    propagate_moments,
    right_eigenfunction_cf,
)
from gfrag.irreducibility import compute_c_bar, decide_irreducibility
from gfrag.model import (
    Constant,
    InverseEpsilon,
    Linear,
    ModelDefinition,
    ShrinkingBinary,
    UniformBinary,
    midpoint_grid,
    quad_weights,
    validate_assumptions,
    xm_norm,
)
from gfrag.pde import moment_balance_residual, solve
from gfrag.resolvent import (
    ResolventContext,
    apply_resolvent_K,
    apply_resolvent_Z0,
    apply_resolvent_Zbeta,
    apply_shifted_generator_K,
)
from gfrag.spectral import perron_eigenpair

from oracles import reachability_oracle, tail_bound_check
from test_irreducibility import gap_model, random_support_model, uniform_binary_support

REFERENCE_PARAMS = BinaryModelParams(r=1.0, a=1.0, beta0=0.5, beta1=0.5)


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


def datum_affine(x):
    x = np.asarray(x, dtype=float)
    return (2.5 * x + 1.0) * np.exp(-2.0 * x)


def datum_quadratic(x):
    x = np.asarray(x, dtype=float)
    return (2.0 * x * x + 1.0) * np.exp(-2.0 * x)


def report(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


def test_criterion_01_eigenvalues_closed_form():
    lam_plus, lam_minus = lambda_pm(REFERENCE_PARAMS)
    assert lam_plus == pytest.approx(1.5, abs=1e-12)
    assert lam_minus == pytest.approx(-1.0, abs=1e-12)
    report(1, f"lambda_pm = ({lam_plus}, {lam_minus})")


def test_criterion_02_eigenvalue_general_machinery():
    pair = perron_eigenpair(reference_model(30.0), n_cells=2000, tol=1e-10)
    assert pair.s0 == pytest.approx(1.5, abs=1e-3)
    v_exact = right_eigenfunction_cf(REFERENCE_PARAMS)(pair.nodes)
    w = quad_weights(pair.nodes)
    v_num = pair.v / float(np.sum(w * pair.v))
    l1_gap = float(np.sum(w * np.abs(v_num - v_exact)))
    assert l1_gap < 1e-2
    report(2, f"|s0 - 1.5| = {abs(pair.s0 - 1.5):.2e}, eigenfunction L1 gap = {l1_gap:.2e}")


def test_criterion_03_eigenfunction_normalizations():
    v0 = right_eigenfunction_cf(REFERENCE_PARAMS)
    w0 = left_eigenfunction_cf(REFERENCE_PARAMS)
    int_v = integrate.quad(v0, 0.0, np.inf)[0]
    int_xv = integrate.quad(lambda x: x * v0(x), 0.0, np.inf)[0]
    pairing = integrate.quad(lambda x: w0(x) * v0(x), 0.0, np.inf)[0]
    assert int_v == pytest.approx(1.0, abs=1e-10)
    assert pairing == pytest.approx(1.0, abs=1e-10)
    boundary = 0.5 * int_v + 0.5 * int_xv
    assert v0(0.0) == pytest.approx(boundary, abs=1e-10)
    assert v0(0.0) == pytest.approx(5.0 / 6.0, abs=1e-12)
    report(3, f"int v0 = {int_v:.12f}, <w0,v0> = {pairing:.12f}, v0(0) = {v0(0.0):.12f}")


def test_criterion_04_closed_form_solves_the_dynamics():
    p = REFERENCE_PARAMS
    sol = ClosedFormSolution(p, datum_affine)

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
            for t in (0.1 + h, 0.4, 1.0, 2.0 - h):
                if abs(x - p.r * t) < 0.25:
                    continue
                dt = (sol.evaluate(x, t + h) - sol.evaluate(x, t - h)) / (2 * h)
                dx = (sol.evaluate(x + h, t) - sol.evaluate(x - h, t)) / (2 * h)
                res = dt + p.r * dx + p.a * x * sol.evaluate(x, t) - 2 * p.a * suffix(x, t)
                worst = max(worst, abs(res))
        return worst

    coarse, fine = max_residual(4e-3), max_residual(2e-3)
    assert fine < 1e-3
    assert coarse / fine > 3.0  # second-order central differences

    for t in (0.1, 0.5, 1.0, 1.7, 2.0):
        ms = propagate_moments(p, sol.initial, t)
        renewal = p.beta0 * ms.M0 + p.beta1 * ms.M1
        assert abs(sol.evaluate(0.0, t) - renewal) < 1e-6
        eps = 1e-9
        jump = abs(sol.evaluate(p.r * t + eps, t) - sol.evaluate(p.r * t - eps, t))
        assert jump < 1e-6
    report(
        4,
        f"residual {coarse:.2e} -> {fine:.2e} under h/2, boundary and front checks < 1e-6",
    )


def test_criterion_05_moments_follow_the_moment_system():
    p = REFERENCE_PARAMS
    sol = ClosedFormSolution(p, datum_affine)
    # the prepared solution takes its starting moments from quadrature
    assert sol.initial.M0 == pytest.approx(9.0 / 8.0, rel=1e-9)
    assert sol.initial.M1 == pytest.approx(7.0 / 8.0, rel=1e-9)
    for t in np.linspace(0.25, 2.0, 8):
        xl = np.linspace(0.0, p.r * t, 2001)
        xr = p.r * t + np.linspace(0.0, 50.0, 4001)
        m0 = integrate.simpson(sol.evaluate(xl, t), x=xl) + integrate.simpson(
            sol.evaluate(xr, t), x=xr
        )
        m1 = integrate.simpson(xl * sol.evaluate(xl, t), x=xl) + integrate.simpson(
            xr * sol.evaluate(xr, t), x=xr
        )
        ref = propagate_moments(p, sol.initial, float(t))
        assert m0 == pytest.approx(ref.M0, rel=1e-5)
        assert m1 == pytest.approx(ref.M1, rel=1e-5)
    m0_at_1 = propagate_moments(p, sol.initial, 1.0).M0
    assert m0_at_1 == pytest.approx(5.35044, abs=1e-5)
    report(5, f"quadrature moments match to 1e-5 on [0,2], M0(1) = {m0_at_1:.5f}")


def test_criterion_06_renormalized_solution_converges_to_profile():
    p = REFERENCE_PARAMS
    v0 = right_eigenfunction_cf(p)
    w0 = left_eigenfunction_cf(p)
    x = np.linspace(0.0, 15.0, 4001)
    times = (0.5, 1.0, 1.5, 2.0, 3.0)
    summaries = []
    for datum in (datum_affine, datum_quadratic):
        coeff = float(integrate.simpson(w0(x) * datum(x), x=x))
        assert coeff == pytest.approx(1.2, abs=1e-6)
        sol = ClosedFormSolution(p, datum)
        devs = []
        for t in times:
            u = sol.evaluate(x, t)
            devs.append(
                float(integrate.simpson(np.abs(np.exp(-1.5 * t) * u - coeff * v0(x)), x=x))
            )
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 0.05 * devs[0]
        summaries.append(f"{devs[0]:.2e} -> {devs[-1]:.2e}")
    report(6, f"L1 deviation falls {summaries[0]} and {summaries[1]}")


def test_criterion_07_front_mass_respects_tail_bound():
    checked = []
    for t in (2.5, 3.0, 4.0):
        measured, bound = tail_bound_check(REFERENCE_PARAMS, datum_affine, 2.0, t)
        assert 0.0 < measured <= bound
        checked.append(f"t={t}: {measured:.2e} <= {bound:.2e}")
    report(7, "; ".join(checked))


def test_criterion_08_solver_reproduces_closed_form():
    model = reference_model(x_max=15.0)
    errs = []
    for n in (480, 960, 1920):
        nodes = midpoint_grid(15.0, n)
        final = solve(model, datum_affine(nodes), (1.0,), cfl=0.3)[-1]
        exact = ClosedFormSolution(REFERENCE_PARAMS, datum_affine).evaluate(nodes, 1.0)
        w = quad_weights(nodes)
        errs.append(float(np.sum(w * np.abs(final.u - exact))))
    order = np.polyfit(np.log([15.0 / 480, 15.0 / 960, 15.0 / 1920]), np.log(errs), 1)[0]
    assert errs[0] > errs[1] > errs[2]
    assert order >= 0.9

    balance = []
    for n in (240, 480):
        nodes = midpoint_grid(15.0, n)
        states = solve(model, datum_affine(nodes), tuple(np.linspace(0.1, 1.0, 10)), cfl=0.3)
        balance.append(max(abs(r) for r in moment_balance_residual(model, states, 0)))
    assert balance[1] < balance[0]
    assert balance[1] < 2.0 * balance[0] * (240.0 / 480.0)  # O(dx + dt) shrink
    report(
        8,
        f"L1 order = {order:.2f} over dyadic refinement, balance residual "
        f"{balance[0]:.2e} -> {balance[1]:.2e}",
    )


def test_criterion_09_resolvent_suite():
    # (i) pure transport with unit shift maps e^-x to x e^-x
    transport = ModelDefinition(
        r=Constant(1.0), a=Constant(0.0), kernel=UniformBinary(), beta=Constant(0.0),
        m=2.0, x_max=40.0,
    )
    ctx = ResolventContext(transport, lam=1.0, n_cells=2000, strict=False)
    f = np.exp(-ctx.nodes)
    analytic_err = float(np.max(np.abs(apply_resolvent_Z0(ctx, f) - ctx.nodes * f)))
    assert analytic_err < 1e-4

    # (ii) contraction bound ||R f||_m (lam - omega_r) <= ||f||_m, 100 draws
    growing = ModelDefinition(
        r=Linear(1.0, 0.5), a=Linear(0.0, 0.5), kernel=UniformBinary(), beta=Constant(0.0),
        m=2.0, x_max=40.0,
    )
    nodes = midpoint_grid(40.0, 800)
    rng = np.random.default_rng(42)
    for _ in range(100):
        lam = 2.0 * 2.0 * 1.0 + 0.5 + 20.0 * rng.random()
        ctx_i = ResolventContext(growing, lam=lam, n_cells=800)
        c = 0.1 + rng.random(3)
        s = 0.3 + 1.7 * rng.random()
        fi = (c[0] + c[1] * nodes + c[2] * nodes**2) * np.exp(-s * nodes)
        u = apply_resolvent_Z0(ctx_i, fi)
        assert xm_norm(growing, u) * (lam - ctx_i.omega_r) <= xm_norm(growing, fi) * (1 + 1e-6)

    # (iii) the renewal correction is rank one
    binary = ModelDefinition(
        r=Constant(1.0), a=Constant(1.0), kernel=UniformBinary(), beta=Linear(0.5, 0.5),
        m=2.0, bc_convention="value", x_max=50.0,
    )
    ctx_b = ResolventContext(binary, lam=7.0, n_cells=900)
    e = ctx_b.e_lambda
    mask = e > 1e-12 * e.max()
    rank_one_worst = 0.0
    for fb in (
        np.exp(-ctx_b.nodes),
        ctx_b.nodes * np.exp(-0.7 * ctx_b.nodes),
        (1 + np.cos(ctx_b.nodes) ** 2) * np.exp(-1.2 * ctx_b.nodes),
    ):
        diff = apply_resolvent_Zbeta(ctx_b, fb) - apply_resolvent_Z0(ctx_b, fb)
        coef = float(np.dot(diff[mask], e[mask]) / np.dot(e[mask], e[mask]))
        resid = np.max(np.abs(diff[mask] - coef * e[mask])) / np.max(np.abs(diff[mask]))
        assert resid < 1e-8
        rank_one_worst = max(rank_one_worst, float(resid))

    # (iv) the series solution satisfies the discrete resolvent equation
    ctx_k = ResolventContext(binary, lam=7.0, n_cells=1200)
    fk = (1 + ctx_k.nodes) * np.exp(-1.3 * ctx_k.nodes)
    tol = 1e-10
    vals, _, _ = apply_resolvent_K(ctx_k, fk, tol)
    back = apply_shifted_generator_K(ctx_k, vals)
    defect = ctx_k.norm_m(back - fk)
    assert defect <= 10 * tol
    report(
        9,
        f"analytic err {analytic_err:.1e}, 100 norm bounds, rank-one resid "
        f"{rank_one_worst:.1e}, series defect {defect:.1e}",
    )


def test_criterion_10_irreducibility_suite():
    ub = uniform_binary_support()
    res_ub = compute_c_bar(ub)
    assert res_ub.c_bar == 0.0
    assert decide_irreducibility(ub, res_ub).irreducible

    gap_closed = gap_model(beta_sup=0.5)
    res_gap = compute_c_bar(gap_closed)
    assert res_gap.c_bar == pytest.approx(1.0, abs=1e-12)
    assert not decide_irreducibility(gap_closed, res_gap).irreducible

    gap_open = gap_model(beta_sup=math.inf)  # linear renewal weight: unbounded support
    assert decide_irreducibility(gap_open, compute_c_bar(gap_open)).irreducible

    rng = np.random.default_rng(20260819)
    agreements = 0
    for _ in range(100):
        s = random_support_model(rng)
        decided = decide_irreducibility(s, compute_c_bar(s))
        oracle = reachability_oracle(s)
        assert decided.irreducible == oracle.irreducible
        agreements += 1
    report(
        10,
        f"c_bar = 0 and {res_gap.c_bar:g} cases decided correctly, "
        f"oracle agreement on {agreements}/100 random geometries",
    )


def test_criterion_11_assumption_validator():
    passing = validate_assumptions(reference_model())
    assert passing.all_pass
    assert passing.liminf_estimate == pytest.approx(1.0 / 3.0, rel=1e-2)

    shrinking = ModelDefinition(
        r=Constant(1.0),
        a=Linear(0.0, 1.0),
        kernel=ShrinkingBinary(InverseEpsilon(1.0)),
        beta=Linear(0.5, 0.5),
        m=2.0,
        bc_convention="value",
        x_max=30.0,
    )
    failing = validate_assumptions(shrinking)
    assert not failing.liminf_pass
    assert failing.liminf_estimate < 1e-3
    report(
        11,
        f"uniform binary liminf = {passing.liminf_estimate:.4f} passes, "
        f"shrinking binary liminf = {failing.liminf_estimate:.2e} fails",
    )
