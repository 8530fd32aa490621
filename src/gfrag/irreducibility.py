"""Support calculus deciding irreducibility of the fragmentation semigroup.

The decision data is purely geometric: the set of sizes where splitting is
active, the lower envelope of daughter sizes produced from each parent,
and the reach of the renewal weight.  Off the splitting support a parent
keeps its size, so the envelope is extended there by the identity.  From
the envelope, the tail infimum c(z) = inf over y >= z of the envelope is
computed exactly from the piecewise-linear representation, iterated to its
limit, and the supremum of the limits is compared against the renewal
reach.  A brute-force reachability check on a binned size axis provides an
independent oracle for the same decision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError,
    InvalidModelError,
    MissingTailError,
    SupportConsistencyError,
)

__all__ = [
    "CbarResult",
    "EnvelopeSegment",
    "IntervalUnion",
    "IrreducibilityDecision",
    "SupportModel",
    "TailRule",
    "compute_c_bar",
    "decide_irreducibility",
    "envelope_value",
    "iterate_c",
    "reachability_oracle",
    "support_model_from_config",
    "tail_infimum_c",
]

TAIL_KINDS = ("envelope_extends", "constant_floor", "equals_y_beyond")


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted disjoint open intervals (left, right); right may be inf."""

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((float(l), float(r)) for l, r in self.intervals)
        if not ivs:
            raise InvalidModelError("interval union must be nonempty")
        for l, r in ivs:
            if not (0.0 <= l < r):
                raise InvalidModelError(f"bad interval ({l}, {r})")
        for (_, r0), (l1, _) in zip(ivs, ivs[1:]):
            if l1 < r0:
                raise InvalidModelError("intervals must be sorted and disjoint")
        if any(math.isinf(r) for _, r in ivs[:-1]):
            raise InvalidModelError("only the last interval may be unbounded")
        object.__setattr__(self, "intervals", ivs)

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.intervals[-1][1])

    def locate(self, y: float):
        """The interval strictly containing y, or None."""
        for l, r in self.intervals:
            if l < y < r:
                return (l, r)
        return None


@dataclass(frozen=True)
class EnvelopeSegment:
    """Affine piece of the daughter-size lower envelope on [left, right]."""

    left: float
    right: float
    value_left: float
    value_right: float

    def __post_init__(self):
        if not (0.0 <= self.left < self.right < math.inf):
            raise InvalidModelError("segment needs 0 <= left < right < inf")
        if not (math.isfinite(self.value_left) and math.isfinite(self.value_right)):
            raise InvalidModelError("envelope values must be finite")
        if self.value_left < 0.0 or self.value_right < 0.0:
            raise InvalidModelError("envelope values must be nonnegative")
        # the envelope must sit strictly below the identity inside the
        # open segment; affine minus affine makes endpoint checks enough
        if self.value_left > self.left or self.value_right > self.right:
            raise InvalidModelError("envelope must not exceed the parent size")
        if self.value_left == self.left and self.value_right == self.right:
            raise InvalidModelError("envelope equals the identity on a whole segment")

    @property
    def slope(self) -> float:
        return (self.value_right - self.value_left) / (self.right - self.left)

    def at(self, y: float) -> float:
        return self.value_left + self.slope * (y - self.left)


@dataclass(frozen=True)
class TailRule:
    """Declared envelope behaviour beyond the last described segment."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in TAIL_KINDS:
            raise InvalidModelError(f"unknown tail kind {self.kind!r}")
        if not math.isfinite(self.value):
            raise InvalidModelError("tail value must be finite")
        if self.kind == "constant_floor" and self.value < 0.0:
            raise InvalidModelError("constant floor must be nonnegative")
        if self.kind == "equals_y_beyond" and self.value <= 0.0:
            raise InvalidModelError("identity cutoff must be positive")


@dataclass(frozen=True)
class SupportModel:
    """Geometric splitting data driving the irreducibility decision."""

    supp_a: IntervalUnion
    envelope: tuple
    beta_sup: float
    tail: TailRule | None = None

    def __post_init__(self):
        segments = tuple(self.envelope)
        object.__setattr__(self, "envelope", segments)
        if not self.beta_sup >= 0.0:
            raise InvalidModelError("beta_sup must be nonnegative (inf allowed)")
        if not segments:
            raise InvalidModelError("envelope must describe at least one segment")
        for s0, s1 in zip(segments, segments[1:]):
            if s1.left < s0.right:
                raise InvalidModelError("envelope segments must be sorted and disjoint")
        # segments must tile each support interval, the unbounded one up
        # to a finite cut that the tail rule then takes over
        idx = 0
        for l, r in self.supp_a.intervals:
            if idx >= len(segments) or segments[idx].left != l:
                raise InvalidModelError(f"envelope missing at the start of ({l}, {r})")
            while True:
                seg = segments[idx]
                if seg.right > r:
                    raise InvalidModelError("envelope segment crosses a support gap")
                idx += 1
                if seg.right == r:
                    break
                if math.isinf(r) and (idx >= len(segments) or segments[idx].left != seg.right):
                    break  # remainder of the unbounded interval is tail territory
                if idx >= len(segments) or segments[idx].left != seg.right:
                    raise InvalidModelError(f"envelope gap inside ({l}, {r})")
        if idx != len(segments):
            raise InvalidModelError("envelope extends outside the support")
        if self.tail is not None:
            if self.tail.kind == "envelope_extends":
                if not self.supp_a.unbounded:
                    raise InvalidModelError("envelope_extends needs unbounded support")
                slope = segments[-1].slope
                if not (0.0 <= slope <= 1.0):
                    raise InvalidModelError("extended envelope slope must lie in [0, 1]")
                if slope == 1.0 and segments[-1].value_right >= segments[-1].right:
                    raise InvalidModelError("extended envelope must stay below the parent")
            if self.tail.kind == "equals_y_beyond" and self.tail.value != segments[-1].right:
                raise InvalidModelError("identity cutoff must sit at the envelope end")
            # floor applies at parents beyond the last segment; staying
            # below the parent size there means floor <= envelope end
            if (
                self.tail.kind == "constant_floor"
                and self.supp_a.unbounded
                and self.tail.value > segments[-1].right
            ):
                raise InvalidModelError("constant floor exceeds the sizes it applies to")

    @property
    def envelope_end(self) -> float:
        return self.envelope[-1].right

    def breakpoints(self) -> list:
        pts = set()
        for l, r in self.supp_a.intervals:
            pts.add(l)
            if math.isfinite(r):
                pts.add(r)
        for seg in self.envelope:
            pts.update((seg.left, seg.right, seg.value_left, seg.value_right))
        if self.tail is not None and self.tail.kind != "envelope_extends":
            pts.add(self.tail.value)
        if math.isfinite(self.beta_sup):
            pts.add(self.beta_sup)
        return sorted(p for p in pts if p > 0.0 and math.isfinite(p))


def envelope_value(s: SupportModel, y: float) -> float:
    """Pointwise lower envelope, extended by the identity off the support."""
    if y <= 0.0:
        raise InvalidInputError("parent size must be positive")
    if s.tail is not None and s.tail.kind == "equals_y_beyond" and y > s.tail.value:
        return y
    if s.supp_a.locate(y) is None:
        return y
    for seg in s.envelope:
        if seg.left <= y <= seg.right:
            return seg.at(y)
    # inside the unbounded interval beyond the described envelope
    if s.tail is None:
        raise MissingTailError("unbounded support needs a declared tail rule")
    if s.tail.kind == "envelope_extends":
        return s.envelope[-1].at(y)
    if s.tail.kind == "constant_floor":
        return s.tail.value
    return y  # equals_y_beyond with y above the cutoff


def tail_infimum_c(s: SupportModel, z: float) -> float:
    """Exact infimum of the extended envelope over [z, inf)."""
    if z <= 0.0:
        raise InvalidInputError("tail infimum needs z > 0")
    cands = []

    # identity cutoff: beyond it the envelope is the parent size itself
    cut = None
    if s.tail is not None and s.tail.kind == "equals_y_beyond":
        cut = s.tail.value
        cands.append(max(z, cut))

    # off-support points carry envelope value y; the smallest one >= z
    inside = s.supp_a.locate(z)
    if inside is None:
        cands.append(z)
    else:
        right = inside[1]
        if cut is not None and math.isinf(right):
            right = max(cut, z)
        if math.isfinite(right):
            cands.append(right)

    # on-support: affine pieces take their infimum at panel endpoints
    for seg in s.envelope:
        if seg.right <= z:
            if seg.right == z:
                cands.append(seg.value_right)
            continue
        lo = max(seg.left, z)
        cands.append(min(seg.at(lo), seg.value_right))

    if s.supp_a.unbounded and cut is None:
        if s.tail is None:
            raise MissingTailError("unbounded support needs a declared tail rule")
        if s.tail.kind == "constant_floor":
            cands.append(s.tail.value)
        else:  # envelope_extends, slope in [0, 1] so the inf sits at the left
            start = max(z, s.envelope_end)
            cands.append(s.envelope[-1].at(start))

    return min(cands)


def iterate_c(s: SupportModel, z0: float, tol: float = 1e-12, cap: int = 10**6):
    """Iterate the tail infimum from z0 to its limit.

    Returns (c_inf, steps).  The sequence is checked to be nonincreasing
    at every step; zero is absorbing because the infimum is monotone.
    """
    if z0 <= 0.0:
        raise InvalidInputError("iteration start must be positive")
    if tol <= 0.0 or cap < 1:
        raise InvalidInputError("need tol > 0 and cap >= 1")
    z = float(z0)
    for step in range(1, cap + 1):
        c = tail_infimum_c(s, z)
        if c > z * (1.0 + 1e-14) + 1e-300:
            raise SupportConsistencyError(
                f"tail infimum increased: c({z}) = {c}"
            )
        if c == 0.0 or z - c < tol:
            return c, step
        z = c
    return z, cap


@dataclass(frozen=True)
class CbarResult:
    """Supremum of iterated tail infima with its witness samples."""

    c_bar: float
    case: str
    witnesses: tuple = field(repr=False)


@dataclass(frozen=True)
class IrreducibilityDecision:
    irreducible: bool
    reasons: tuple

    def __str__(self):
        tag = "IRREDUCIBLE" if self.irreducible else "NOT_IRREDUCIBLE"
        return f"{tag}: " + "; ".join(self.reasons)


def compute_c_bar(s: SupportModel, z_samples, tol: float = 1e-12, cap: int = 10**6) -> CbarResult:
    """Supremum of the iteration limits over a sample of starting points.

    The sample is augmented with every envelope breakpoint and tiny
    offsets around each, since the supremum is isolated and may sit
    exactly on a breakpoint.  An iteration still descending when the cap
    runs out leaves a stalled witness; the case tag then reports that the
    supremum was only approached from above.
    """
    points = {float(z) for z in z_samples if z > 0.0}
    for p in s.breakpoints():
        points.add(p)
        points.add(p * (1.0 - 1e-12))
        points.add(p * (1.0 + 1e-12))
    if not points:
        raise InvalidInputError("need at least one positive sample")
    witnesses = tuple((z, iterate_c(s, z, tol=tol, cap=cap)[0]) for z in sorted(points))
    c_bar = max(c for _, c in witnesses)
    if c_bar == 0.0:
        case = "fixed_point"
    else:
        case = "fixed_point" if tail_infimum_c(s, c_bar) >= c_bar else "approached_from_above"
    return CbarResult(c_bar=c_bar, case=case, witnesses=witnesses)


# a floor c_bar at or below this counts as zero
_ZERO_TOL = 1e-9


def decide_irreducibility(s: SupportModel, result: CbarResult) -> IrreducibilityDecision:
    """Decision: the renewal reach must beat the fragmentation floor.

    Irreducible when the renewal weight has unbounded support, or reaches
    beyond c_bar, or the floor c_bar vanishes; otherwise every failed
    condition is reported.  A floor approached geometrically stops at the
    iteration tolerance rather than at zero, so c_bar <= _ZERO_TOL = 1e-9
    counts as zero.
    """
    c_bar = result.c_bar
    if math.isinf(s.beta_sup):
        return IrreducibilityDecision(True, ("renewal support is unbounded",))
    if c_bar <= _ZERO_TOL:
        return IrreducibilityDecision(True, ("c_bar = 0: fragments reach arbitrarily small sizes",))
    if s.beta_sup > c_bar:
        return IrreducibilityDecision(
            True, (f"renewal support reaches beyond c_bar = {c_bar:g}",)
        )
    return IrreducibilityDecision(
        False,
        (
            f"c_bar = {c_bar:g} > 0: sizes below it are never created by splitting",
            f"sup supp beta = {s.beta_sup:g} <= c_bar: renewal cannot bridge the gap",
        ),
    )


def _bin_splitting_floor(s: SupportModel, lo: float, hi: float) -> float:
    """Infimum of the envelope over [lo, hi] meeting the splitting support.

    Regions where the envelope equals the parent size (off the support,
    or beyond an identity cutoff) produce no daughters strictly below the
    parent and are excluded.  Returns inf when nothing in the bin splits.
    """
    best = math.inf
    for seg in s.envelope:
        a = max(seg.left, lo)
        b = min(seg.right, hi)
        if a < b:
            best = min(best, seg.at(a), seg.at(b))
    if s.supp_a.unbounded and s.tail is not None and s.tail.kind != "equals_y_beyond":
        a = max(s.envelope_end, lo)
        if a < hi:
            if s.tail.kind == "constant_floor":
                best = min(best, s.tail.value)
            else:
                best = min(best, s.envelope[-1].at(a), s.envelope[-1].at(hi))
    return best


def reachability_oracle(s: SupportModel, n_bins: int) -> IrreducibilityDecision:
    """Brute-force positivity-spreading check on a binned size axis.

    Builds a digraph on uniform bins: growth moves one bin up,
    fragmentation jumps from a bin down to any bin overlapping
    [floor, top) where floor is the exact envelope infimum over the
    splitting sizes inside the source bin, and renewal sends any bin
    meeting the renewal support back to the first bin.  Declares
    irreducible exactly when the digraph is strongly connected.
    """
    if n_bins < 32:
        raise InvalidInputError("need at least 32 bins")
    scales = s.breakpoints() + [1.0]
    if math.isfinite(s.beta_sup) and s.beta_sup > 0.0:
        scales.append(s.beta_sup)
    x_top = 2.0 * max(scales)
    h = x_top / n_bins
    lowers = h * np.arange(n_bins)
    uppers = lowers + h

    rows, cols = [], []
    for i in range(n_bins - 1):
        rows.append(i)
        cols.append(i + 1)
    for i in range(n_bins):
        floor = _bin_splitting_floor(s, lowers[i], uppers[i])
        if math.isinf(floor):
            continue
        targets = np.flatnonzero((uppers > floor) & (lowers < uppers[i]))
        rows.extend([i] * len(targets))
        cols.extend(targets)
    renewing = np.flatnonzero(lowers < s.beta_sup)
    rows.extend(renewing)
    cols.extend([0] * len(renewing))

    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    graph = csr_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(n_bins, n_bins)
    )
    n_comp, _ = connected_components(graph, directed=True, connection="strong")
    if n_comp == 1:
        return IrreducibilityDecision(True, (f"all {n_bins} bins mutually reachable",))
    return IrreducibilityDecision(
        False, (f"bin digraph splits into {n_comp} strongly connected components",)
    )


def support_model_from_config(obj: dict) -> SupportModel:
    """Build a SupportModel from its configuration mapping."""
    if not isinstance(obj, dict):
        raise InvalidInputError("support entry must be a mapping")
    try:
        intervals = tuple(
            (float(l), math.inf if r in ("inf", None) else float(r))
            for l, r in obj["supp_a"]
        )
        segments = tuple(
            EnvelopeSegment(
                left=float(e["left"]),
                right=float(e["right"]),
                value_left=float(e["value_left"]),
                value_right=float(e["value_right"]),
            )
            for e in obj["envelope"]
        )
        raw_sup = obj["beta_sup"]
        beta_sup = math.inf if raw_sup == "inf" else float(raw_sup)
        tail = None
        if obj.get("tail") is not None:
            t = obj["tail"]
            tail = TailRule(kind=str(t["kind"]), value=float(t.get("value", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad support configuration: {exc}") from exc
    return SupportModel(
        supp_a=IntervalUnion(intervals), envelope=segments, beta_sup=beta_sup, tail=tail
    )
