"""Support calculus and irreducibility decisions."""

import math

import numpy as np
import pytest

from gfrag.errors import (
    InvalidInputError,
    InvalidModelError,
    MissingTailError,
)
from gfrag.irreducibility import (
    EnvelopeSegment,
    IntervalUnion,
    SupportModel,
    TailRule,
    compute_c_bar,
    decide_irreducibility,
    support_model_from_config,
    tail_infimum_c,
)
import oracles
from oracles import envelope_value, iterate_c, reachability_oracle

INF = math.inf


def gap_model(beta_sup=0.5):
    """Splitting on (2, inf), daughters no smaller than half the parent."""
    return SupportModel(
        supp_a=IntervalUnion(((2.0, INF),)),
        envelope=(EnvelopeSegment(2.0, 4.0, 1.0, 2.0),),
        beta_sup=beta_sup,
        tail=TailRule("envelope_extends"),
    )


def uniform_binary_support(beta_sup=0.0):
    """Splitting everywhere, daughters reaching all the way down to zero."""
    return SupportModel(
        supp_a=IntervalUnion(((0.0, INF),)),
        envelope=(EnvelopeSegment(0.0, 1.0, 0.0, 0.0),),
        beta_sup=beta_sup,
        tail=TailRule("envelope_extends"),
    )


class TestGeometryValidation:
    def test_interval_union_rejects_empty(self):
        with pytest.raises(InvalidModelError):
            IntervalUnion(())

    def test_interval_union_rejects_bad_order(self):
        with pytest.raises(InvalidModelError):
            IntervalUnion(((2.0, 1.0),))

    def test_interval_union_rejects_overlap(self):
        with pytest.raises(InvalidModelError):
            IntervalUnion(((0.0, 2.0), (1.0, 3.0)))

    def test_interval_union_rejects_interior_unbounded(self):
        with pytest.raises(InvalidModelError):
            IntervalUnion(((0.0, INF), (1.0, 2.0)))

    def test_interval_union_locate(self):
        u = IntervalUnion(((1.0, 2.0), (3.0, INF)))
        assert u.locate(1.5) == (1.0, 2.0)
        assert u.locate(2.5) is None
        assert u.locate(2.0) is None
        assert u.locate(7.0) == (3.0, INF)
        assert u.unbounded

    def test_segment_rejects_value_above_parent(self):
        with pytest.raises(InvalidModelError):
            EnvelopeSegment(1.0, 2.0, 1.5, 1.0)

    def test_segment_rejects_identity(self):
        with pytest.raises(InvalidModelError):
            EnvelopeSegment(1.0, 2.0, 1.0, 2.0)

    def test_segment_rejects_negative_values(self):
        with pytest.raises(InvalidModelError):
            EnvelopeSegment(1.0, 2.0, -0.1, 0.5)

    def test_segment_touching_identity_at_one_end_is_fine(self):
        seg = EnvelopeSegment(1.0, 2.0, 1.0, 0.5)
        assert seg.at(1.0) == 1.0
        assert seg.at(2.0) == 0.5

    def test_envelope_must_start_with_support(self):
        with pytest.raises(InvalidModelError):
            SupportModel(
                IntervalUnion(((1.0, 3.0),)),
                (EnvelopeSegment(1.5, 3.0, 0.5, 1.0),),
                beta_sup=0.0,
            )

    def test_envelope_gap_inside_interval_rejected(self):
        with pytest.raises(InvalidModelError):
            SupportModel(
                IntervalUnion(((1.0, 4.0),)),
                (EnvelopeSegment(1.0, 2.0, 0.5, 0.5), EnvelopeSegment(3.0, 4.0, 0.5, 0.5)),
                beta_sup=0.0,
            )

    def test_envelope_crossing_support_gap_rejected(self):
        with pytest.raises(InvalidModelError):
            SupportModel(
                IntervalUnion(((1.0, 2.0), (3.0, 4.0))),
                (EnvelopeSegment(1.0, 4.0, 0.5, 0.5),),
                beta_sup=0.0,
            )

    def test_extends_tail_needs_unbounded_support(self):
        with pytest.raises(InvalidModelError):
            SupportModel(
                IntervalUnion(((1.0, 2.0),)),
                (EnvelopeSegment(1.0, 2.0, 0.5, 0.5),),
                beta_sup=0.0,
                tail=TailRule("envelope_extends"),
            )

    def test_extends_tail_rejects_steep_slope(self):
        # slope 2 would cross the identity beyond the described end
        with pytest.raises(InvalidModelError):
            SupportModel(
                IntervalUnion(((1.0, INF),)),
                (EnvelopeSegment(1.0, 2.0, 0.1, 2.1 - 1e-12),),
                beta_sup=0.0,
                tail=TailRule("envelope_extends"),
            )

    def test_constant_floor_above_envelope_end_rejected(self):
        with pytest.raises(InvalidModelError):
            SupportModel(
                IntervalUnion(((1.0, INF),)),
                (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
                beta_sup=0.0,
                tail=TailRule("constant_floor", 5.0),
            )

    def test_identity_cutoff_away_from_envelope_end_rejected(self):
        with pytest.raises(InvalidModelError):
            SupportModel(
                IntervalUnion(((1.0, INF),)),
                (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
                beta_sup=0.0,
                tail=TailRule("equals_y_beyond", 4.0),
            )

    def test_negative_beta_sup_rejected(self):
        with pytest.raises(InvalidModelError):
            gap_model(beta_sup=-1.0)

    def test_unknown_tail_kind_rejected(self):
        with pytest.raises(InvalidModelError):
            TailRule("mystery")

    @pytest.mark.parametrize(
        "values", [(math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)],
        ids=["left", "right", "both"],
    )
    def test_segment_rejects_nan_values(self, values):
        with pytest.raises(InvalidModelError, match="finite"):
            EnvelopeSegment(1.0, 2.0, *values)

    @pytest.mark.parametrize("kind", ["constant_floor", "equals_y_beyond"])
    @pytest.mark.parametrize("value", [math.nan, INF], ids=["nan", "inf"])
    def test_tail_rejects_non_finite_value(self, kind, value):
        with pytest.raises(InvalidModelError, match="finite"):
            TailRule(kind, value)

    @pytest.mark.parametrize(
        "patch",
        [
            {"envelope": [{"left": 2.0, "right": 4.0, "value_left": math.nan, "value_right": 2.0}]},
            {"tail": {"kind": "constant_floor", "value": math.nan}},
            {"tail": {"kind": "constant_floor", "value": INF}},
        ],
        ids=["envelope-nan", "floor-nan", "floor-inf"],
    )
    def test_config_with_non_finite_geometry_rejected(self, patch):
        cfg = {
            "supp_a": [[2.0, "inf"]],
            "envelope": [{"left": 2.0, "right": 4.0, "value_left": 1.0, "value_right": 2.0}],
            "beta_sup": 0.5,
            "tail": {"kind": "envelope_extends"},
        }
        # the reader reports a rejected segment or tail as bad input
        with pytest.raises(InvalidInputError, match="finite"):
            support_model_from_config({**cfg, **patch})


class TestEnvelopeValue:
    def test_on_support(self):
        assert envelope_value(gap_model(), 3.0) == 1.5

    def test_off_support_is_identity(self):
        assert envelope_value(gap_model(), 1.3) == 1.3

    def test_extended_tail(self):
        assert envelope_value(gap_model(), 10.0) == 5.0

    def test_constant_floor_tail(self):
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
            beta_sup=0.0,
            tail=TailRule("constant_floor", 0.25),
        )
        assert envelope_value(m, 7.0) == 0.25

    def test_identity_beyond_cutoff(self):
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
            beta_sup=0.0,
            tail=TailRule("equals_y_beyond", 3.0),
        )
        assert envelope_value(m, 8.0) == 8.0
        assert envelope_value(m, 2.0) == 0.75

    def test_missing_tail_raises(self):
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
            beta_sup=0.0,
        )
        with pytest.raises(MissingTailError):
            envelope_value(m, 9.0)

    def test_nonpositive_parent_rejected(self):
        with pytest.raises(InvalidInputError):
            envelope_value(gap_model(), 0.0)


class TestTailInfimum:
    def test_gap_model_closed_form_below_support(self):
        m = gap_model()
        for z in np.linspace(0.1, 2.0, 7):
            assert tail_infimum_c(m, float(z)) == pytest.approx(min(z, 1.0), rel=1e-15)

    def test_gap_model_closed_form_above_support(self):
        m = gap_model()
        for z in (2.5, 3.0, 5.0, 11.0):
            assert tail_infimum_c(m, z) == pytest.approx(z / 2.0, rel=1e-15)

    def test_exact_at_breakpoints(self):
        m = gap_model()
        assert tail_infimum_c(m, 2.0) == 1.0
        assert tail_infimum_c(m, 4.0) == 2.0

    def test_uniform_binary_vanishes_everywhere(self):
        m = uniform_binary_support()
        for z in (0.01, 0.5, 3.0, 40.0):
            assert tail_infimum_c(m, z) == 0.0

    def test_identity_region_returns_z(self):
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
            beta_sup=0.0,
            tail=TailRule("equals_y_beyond", 3.0),
        )
        assert tail_infimum_c(m, 7.0) == 7.0
        assert tail_infimum_c(m, 3.5) == 3.5

    def test_missing_tail_raises(self):
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
            beta_sup=0.0,
        )
        with pytest.raises(MissingTailError):
            tail_infimum_c(m, 1.5)

    def test_nonpositive_z_rejected(self):
        with pytest.raises(InvalidInputError):
            tail_infimum_c(gap_model(), 0.0)


class TestIterateC:
    def test_gap_model_halving_cascade(self):
        m = gap_model()
        seq = [tail_infimum_c(m, z) for z in (8.0, 4.0, 2.0)]
        assert seq == [4.0, 2.0, 1.0]
        c_inf, steps = iterate_c(m, 8.0)
        assert c_inf == 1.0
        assert steps <= 4

    def test_fixed_point_start(self):
        c_inf, steps = iterate_c(gap_model(), 1.0)
        assert c_inf == 1.0
        assert steps == 1

    def test_uniform_binary_hits_zero_immediately(self):
        assert iterate_c(uniform_binary_support(), 7.3) == (0.0, 1)

    def test_cap_exhaustion_returns_stalled_value(self, monkeypatch):
        # proportional decay by 0.85 per step needs many steps from 50
        m = SupportModel(
            IntervalUnion(((0.0, INF),)),
            (EnvelopeSegment(0.0, 2.0, 0.0, 1.7),),
            beta_sup=0.0,
            tail=TailRule("envelope_extends"),
        )
        monkeypatch.setattr(oracles, "_ITER_CAP", 5)
        stalled, steps = iterate_c(m, 50.0)
        assert steps == 5
        assert stalled == pytest.approx(50.0 * 0.85**5, rel=1e-12)

    def test_inconsistent_envelope_raises(self):
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),),
            beta_sup=0.0,
            tail=TailRule("constant_floor", 0.4),
        )
        # corrupt the tail piece's floor after construction to force an
        # increasing step
        object.__setattr__(m._pieces[-1], "value_left", 50.0)
        with pytest.raises(AssertionError):
            iterate_c(m, 5.0)

    def test_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            iterate_c(gap_model(), -1.0)


class TestComputeCbar:
    def test_gap_model_fixed_point(self):
        res = compute_c_bar(gap_model())
        assert res.c_bar == 1.0
        assert res.case == "fixed_point"

    def test_limit_constant_at_and_above_c_bar(self):
        m = gap_model()
        for z in (1.0, 1.2, 2.0, 5.0, 17.3):
            assert iterate_c(m, z)[0] == 1.0

    def test_uniform_binary_zero(self):
        res = compute_c_bar(uniform_binary_support())
        assert res.c_bar == 0.0
        assert res.case == "fixed_point"

    def test_floor_zero_tail_gives_zero(self):
        # splitting support everywhere and arbitrarily small daughters far out
        m = SupportModel(
            IntervalUnion(((0.0, INF),)),
            (EnvelopeSegment(0.0, 2.0, 0.0, 0.9),),
            beta_sup=0.0,
            tail=TailRule("constant_floor", 0.0),
        )
        res = compute_c_bar(m)
        assert res.c_bar == 0.0

    def test_slow_descent_reaches_its_floor(self):
        # slope 0.9995: orbits from above close in on the floor 0.9995 by
        # 0.05% a step, thousands of steps from the starts past 2
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 2.0, 0.9995, 1.999),),
            beta_sup=0.0,
            tail=TailRule("envelope_extends"),
        )
        res = compute_c_bar(m)
        assert res.case == "fixed_point"
        assert res.c_bar == 0.9995

    def test_envelope_touching_identity_is_approached_from_above(self):
        # the second piece meets the identity at its left end 2: orbits
        # from above tend to 2, while the first piece ends below it there
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 2.0, 0.5, 1.5), EnvelopeSegment(2.0, 3.0, 2.0, 2.5)),
            beta_sup=0.0,
            tail=TailRule("envelope_extends"),
        )
        res = compute_c_bar(m)
        assert res.c_bar == 2.0
        assert res.case == "approached_from_above"
        assert iterate_c(m, 2.5)[0] == pytest.approx(2.0, abs=1e-11)

    def test_orbit_landing_on_a_joint_keeps_the_open_floor(self):
        # parents beyond 3 have daughters down to exactly 2, where the first
        # piece ends at 1.5; the closed iteration lands on 2 and drops on to
        # 0.5, but above 2 the envelope never goes below 2
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 2.0, 0.5, 1.5), EnvelopeSegment(2.0, 3.0, 2.0, 2.5)),
            beta_sup=1.0,
            tail=TailRule("constant_floor", 2.0),
        )
        assert iterate_c(m, 10.0)[0] == 0.5
        res = compute_c_bar(m)
        assert res.c_bar == 2.0
        assert not decide_irreducibility(m, res).irreducible
        # 2 is a breakpoint, so no oracle cell straddles the joint
        assert not reachability_oracle(m).irreducible


class TestDecide:
    def test_gap_with_small_renewal_reach(self):
        m = gap_model(beta_sup=0.5)
        d = decide_irreducibility(m, compute_c_bar(m))
        assert not d.irreducible
        assert len(d.reasons) == 2
        assert str(d).startswith("NOT_IRREDUCIBLE")

    def test_gap_with_unbounded_renewal(self):
        m = gap_model(beta_sup=INF)
        d = decide_irreducibility(m, compute_c_bar(m))
        assert d.irreducible

    def test_gap_with_renewal_beyond_floor(self):
        m = gap_model(beta_sup=1.5)
        d = decide_irreducibility(m, compute_c_bar(m))
        assert d.irreducible
        assert "beyond" in d.reasons[0]

    def test_zero_floor_without_renewal(self):
        m = uniform_binary_support(beta_sup=0.0)
        d = decide_irreducibility(m, compute_c_bar(m))
        assert d.irreducible

    def test_geometric_approach_to_zero_counts_as_zero(self):
        # daughters at 0.85 of the parent: orbits only approach the floor 0
        m = SupportModel(
            IntervalUnion(((0.0, INF),)),
            (EnvelopeSegment(0.0, 2.0, 0.0, 1.7),),
            beta_sup=0.0,
            tail=TailRule("envelope_extends"),
        )
        res = compute_c_bar(m)
        assert res.c_bar == 0.0
        assert decide_irreducibility(m, res).irreducible


class TestReachabilityOracle:
    def test_uniform_binary_connected(self):
        assert reachability_oracle(uniform_binary_support()).irreducible

    def test_gap_model_disconnected(self):
        assert not reachability_oracle(gap_model(beta_sup=0.5)).irreducible

    def test_gap_model_with_unbounded_renewal(self):
        assert reachability_oracle(gap_model(beta_sup=INF)).irreducible

    def test_renewal_just_below_the_floor_is_not_bridged(self):
        # renewal reach 0.98 sits just below the floor 1; both are cell
        # edges, so no cell joins the sizes below 1 to those above
        m = SupportModel(
            IntervalUnion(((2.0, INF),)),
            (EnvelopeSegment(2.0, 3.0, 1.0, 1.5),),
            beta_sup=0.98,
            tail=TailRule("envelope_extends"),
        )
        assert not decide_irreducibility(m, compute_c_bar(m)).irreducible
        assert not reachability_oracle(m).irreducible

    @pytest.mark.parametrize("beta_sup", [1.0, 2.0, 2.5])
    def test_envelope_jump_at_a_joint_is_not_bridged(self, beta_sup):
        # the envelope jumps from 1.5 up to 2 at the joint 2 and parents
        # beyond 3 split down to 2: nothing above 2 has daughters below it,
        # so only a renewal reach beyond c_bar = 2 connects the two sides
        m = SupportModel(
            IntervalUnion(((1.0, INF),)),
            (EnvelopeSegment(1.0, 2.0, 0.5, 1.5), EnvelopeSegment(2.0, 3.0, 2.0, 2.5)),
            beta_sup=beta_sup,
            tail=TailRule("constant_floor", 2.0),
        )
        decided = decide_irreducibility(m, compute_c_bar(m))
        assert decided.irreducible == (beta_sup > 2.0)
        assert reachability_oracle(m).irreducible == decided.irreducible

    def test_unbounded_support_without_tail_raises(self):
        # sizes past the envelope end 3 have no stated floor: the oracle
        # refuses a verdict, as the decision's c_bar does
        m = SupportModel(
            IntervalUnion(((1.0, INF),)), (EnvelopeSegment(1.0, 3.0, 0.5, 1.0),), beta_sup=0.0
        )
        with pytest.raises(MissingTailError):
            compute_c_bar(m)
        with pytest.raises(MissingTailError):
            reachability_oracle(m)

    def test_cells_sit_between_breakpoints(self):
        # the breakpoints 1, 2 and 4 and the top 8 cut four cells
        d = reachability_oracle(gap_model(beta_sup=INF))
        assert d.reasons == ("all 4 cells mutually reachable",)


def _tiled_segments(rng, left, right):
    """One or two affine envelope pieces tiling [left, right]."""
    pts = [left, right]
    if rng.random() < 0.4:
        pts = [left, 0.5 * (left + right), right]
    vals = [float(rng.uniform(0.1, 0.8)) * p for p in pts]
    return [
        EnvelopeSegment(pts[i], pts[i + 1], vals[i], vals[i + 1])
        for i in range(len(pts) - 1)
    ]


def random_support_model(rng):
    """Random splitting geometry with clear decision margins."""
    n_iv = int(rng.integers(1, 3))
    edges = np.cumsum(rng.uniform(0.4, 2.5, size=2 * n_iv))
    intervals = [(float(edges[2 * k]), float(edges[2 * k + 1])) for k in range(n_iv)]
    unbounded = bool(rng.random() < 0.5)
    tail = None
    segs = []
    for k, (lo, hi) in enumerate(intervals):
        if unbounded and k == n_iv - 1:
            intervals[k] = (lo, INF)
            end = lo + float(rng.uniform(1.0, 3.0))
            kind = ("envelope_extends", "constant_floor", "equals_y_beyond")[
                int(rng.integers(0, 3))
            ]
            if kind == "envelope_extends":
                vl = float(rng.uniform(0.1, 0.8)) * lo
                slope = float(rng.uniform(0.0, 0.85))
                segs.append(EnvelopeSegment(lo, end, vl, vl + slope * (end - lo)))
                tail = TailRule("envelope_extends")
            elif kind == "constant_floor":
                segs.extend(_tiled_segments(rng, lo, end))
                tail = TailRule("constant_floor", float(rng.uniform(0.0, 0.9)) * end)
            else:
                segs.extend(_tiled_segments(rng, lo, end))
                tail = TailRule("equals_y_beyond", end)
        else:
            segs.extend(_tiled_segments(rng, lo, hi))

    probe = SupportModel(IntervalUnion(tuple(intervals)), tuple(segs), 0.0, tail)
    top = max(probe.breakpoints() + [1.0])
    prelim = compute_c_bar(probe)
    # reaches below the floor are drawn only for floors above `small`, 8
    # steps of a 256-way split of [0, 2 * top], which keeps the draws apart
    # from floors barely above 0
    small = max(0.15, 8.0 * 2.0 * top / 256.0)
    u = rng.random()
    if u < 0.25:
        beta = INF
    elif prelim.c_bar <= 1e-9 or prelim.c_bar > small:
        if u < 0.5:
            beta = 0.0
        elif u < 0.75 and prelim.c_bar > small:
            beta = 0.45 * prelim.c_bar
        else:
            beta = prelim.c_bar + max(0.6, 0.35 * prelim.c_bar)
    else:
        beta = prelim.c_bar + max(0.6, 0.35 * prelim.c_bar)
    return SupportModel(IntervalUnion(tuple(intervals)), tuple(segs), beta, tail)


def stress_support_model(rng):
    """Random geometry with jumps at joints, ends on the identity, any tail.

    One to three support intervals, touching or apart, the first starting
    at 0 in 30% of draws and the last unbounded in 60%; one to three
    segments per interval; the constructor may reject the draw.
    """
    lo = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.2, 2.0))
    intervals = []
    for _ in range(int(rng.integers(1, 4))):
        hi = lo + float(rng.uniform(0.3, 3.0))
        intervals.append((lo, hi))
        lo = hi if rng.random() < 0.3 else hi + float(rng.uniform(0.1, 1.5))

    def value(y):
        return y if rng.random() < 0.15 else float(rng.uniform(0.0, 0.95)) * y

    segs = []
    for lo, hi in intervals:
        cuts = [lo, *np.sort(rng.uniform(lo, hi, int(rng.integers(0, 3)))).tolist(), hi]
        v = value(lo)
        for a, b in zip(cuts, cuts[1:]):
            if segs and segs[-1].right == a and rng.random() < 0.5:
                v = value(a)  # the envelope jumps at this joint
            vb = value(b)
            segs.append(EnvelopeSegment(a, b, v, vb))
            v = vb
    end = intervals[-1][1]
    if rng.random() < 0.6:
        intervals[-1] = (intervals[-1][0], INF)
    tail = (
        None,
        TailRule("envelope_extends"),
        TailRule("constant_floor", float(rng.uniform(0.0, 1.0)) * end),
        TailRule("equals_y_beyond", end),
    )[int(rng.integers(0, 4))]
    probe = SupportModel(IntervalUnion(tuple(intervals)), tuple(segs), 0.0, tail)
    u = rng.random()
    if u < 0.25:
        beta = 0.0
    elif u < 0.5:
        beta = INF
    elif u < 0.75:
        beta = float(rng.uniform(0.0, 1.2 * max(probe.breakpoints())))
    else:
        beta = float(rng.choice(probe.breakpoints()))
    return SupportModel(probe.supp_a, probe.envelope, beta, tail)


class TestRandomizedAgreement:
    def test_oracle_agrees_on_stress_geometries(self):
        rng = np.random.default_rng(20261019)
        checked = irreducible = 0
        while checked < 2000:
            try:
                m = stress_support_model(rng)
                decided = decide_irreducibility(m, compute_c_bar(m))
            except (InvalidModelError, MissingTailError):
                continue
            oracle = reachability_oracle(m)
            assert decided.irreducible == oracle.irreducible, f"{m}: {decided} vs {oracle}"
            checked += 1
            irreducible += decided.irreducible
        assert 500 < irreducible < 1500

    def test_hundred_models_agree_with_reachability(self):
        rng = np.random.default_rng(20260819)
        for trial in range(100):
            m = random_support_model(rng)
            decided = decide_irreducibility(m, compute_c_bar(m))
            oracle = reachability_oracle(m)
            assert decided.irreducible == oracle.irreducible, (
                f"trial {trial}: calculus {decided} vs oracle {oracle}"
            )

    def test_tail_infimum_properties_on_random_models(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = random_support_model(rng)
            top = max(m.breakpoints() + [1.0])
            zs = np.geomspace(0.05, 2.5 * top, 25)
            cs = [tail_infimum_c(m, float(z)) for z in zs]
            for z, c in zip(zs, cs):
                assert 0.0 <= c <= z
            for c0, c1 in zip(cs, cs[1:]):
                assert c1 >= c0 - 1e-9
            # iteration sequences never increase
            for z0 in (0.3 * top, top, 2.0 * top):
                z = float(z0)
                for _ in range(30):
                    c = tail_infimum_c(m, z)
                    assert c <= z + 1e-12
                    if c == 0.0 or z - c < 1e-12:
                        break
                    z = c

    def test_c_bar_equals_largest_sampled_orbit_limit(self):
        # the sampled supremum: orbits from a geometric grid and from every
        # breakpoint and its two neighbours 1e-12 away, run to their limits
        rng = np.random.default_rng(99)
        for trial in range(100):
            m = random_support_model(rng)
            top = max(m.breakpoints() + [1.0])
            starts = {float(z) for z in np.geomspace(0.02, 3.0 * top, 40)}
            for p in m.breakpoints():
                starts.update((p, p * (1.0 - 1e-12), p * (1.0 + 1e-12)))
            limits = {z: iterate_c(m, z)[0] for z in sorted(starts)}
            res = compute_c_bar(m)
            assert res.c_bar == max(limits.values()), f"trial {trial}"
            if res.case == "fixed_point":
                for z, ci in limits.items():
                    if z >= res.c_bar:
                        assert ci == pytest.approx(res.c_bar, abs=1e-9)


class TestSupportConfig:
    def test_round_trip_gap_model(self):
        cfg = {
            "supp_a": [[2.0, "inf"]],
            "envelope": [
                {"left": 2.0, "right": 4.0, "value_left": 1.0, "value_right": 2.0}
            ],
            "beta_sup": 0.5,
            "tail": {"kind": "envelope_extends"},
        }
        m = support_model_from_config(cfg)
        assert m == gap_model(beta_sup=0.5)

    def test_infinite_beta_sup(self):
        cfg = {
            "supp_a": [[0.0, "inf"]],
            "envelope": [
                {"left": 0.0, "right": 1.0, "value_left": 0.0, "value_right": 0.0}
            ],
            "beta_sup": "inf",
            "tail": {"kind": "envelope_extends"},
        }
        assert math.isinf(support_model_from_config(cfg).beta_sup)

    def test_missing_key_reports_context(self):
        with pytest.raises(InvalidInputError, match="support"):
            support_model_from_config({"supp_a": [[0.0, 1.0]]})

    def test_non_mapping_rejected(self):
        with pytest.raises(InvalidInputError):
            support_model_from_config([1, 2, 3])


def _unit_support(*segments, tail=None, supp_a=((0.0, 1.0),)):
    return SupportModel(supp_a=IntervalUnion(supp_a), envelope=segments, beta_sup=0.0, tail=tail)


# every input check of the module that no other test reaches: (call, error, message start)
SUPPORT_REFUSALS = {
    # the sorted-and-disjoint check refuses any interval after an unbounded
    # one first, so "only the last interval may be unbounded" is never reached
    "unbounded-interval-not-last": (lambda: IntervalUnion(((0.0, INF), (5.0, 6.0))),
                                    "intervals must be sorted and disjoint"),
    "segment-empty": (lambda: EnvelopeSegment(1.0, 1.0, 0.0, 0.0),
                      "segment needs 0 <= left < right < inf"),
    "floor-negative": (lambda: TailRule("constant_floor", -1.0),
                       "constant floor must be nonnegative"),
    "cutoff-zero": (lambda: TailRule("equals_y_beyond", 0.0), "identity cutoff must be positive"),
    "envelope-empty": (lambda: _unit_support(), "envelope must describe at least one segment"),
    "envelope-unsorted": (
        lambda: _unit_support(EnvelopeSegment(0.5, 1.0, 0.0, 0.0), EnvelopeSegment(0.0, 0.5, 0.0, 0.0)),
        "envelope segments must be sorted and disjoint"),
    "envelope-outside-support": (
        lambda: _unit_support(EnvelopeSegment(0.0, 1.0, 0.0, 0.0), EnvelopeSegment(2.0, 3.0, 0.0, 0.0)),
        "envelope extends outside the support"),
    # (1e17 - 0.5) / (1e17 - 1) rounds to slope 1, so the extension meets the identity
    "extended-slope-one-reaches-parent": (
        lambda: _unit_support(EnvelopeSegment(1.0, 1e17, 0.5, 1e17), supp_a=((1.0, INF),),
                              tail=TailRule("envelope_extends")),
        "extended envelope must stay below the parent"),
}


@pytest.mark.parametrize("call, message", SUPPORT_REFUSALS.values(), ids=SUPPORT_REFUSALS)
def test_refusals(call, message):
    with pytest.raises(InvalidModelError) as info:
        call()
    assert str(info.value) == message
