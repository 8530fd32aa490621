"""Support calculus deciding irreducibility of the fragmentation semigroup.

The decision data is purely geometric: the set of sizes where splitting is
active, the lower envelope of daughter sizes produced from each parent,
and the reach of the renewal weight.  Off the splitting support a parent
keeps its size, so the envelope is extended there by the identity.  The
envelope is one list of affine pieces: the described segments, then on
an unbounded support one unbounded piece past their end taken from the
declared tail rule.  The tail infimum c(z) = inf over y >= z of the
envelope is exact on that representation, and the floor c_bar its
iteration settles on is read off the envelope's breakpoints and compared
against the renewal reach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    InvalidInputError,
    InvalidModelError,
    MissingTailError,
)
from .model import _as_float

__all__ = [
    "CbarResult",
    "EnvelopeSegment",
    "IntervalUnion",
    "IrreducibilityDecision",
    "SupportModel",
    "TailRule",
    "compute_c_bar",
    "decide_irreducibility",
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
class _TailPiece:
    """The envelope past its last segment on (left, inf), per the tail rule."""

    kind: str
    left: float
    value_left: float
    line: EnvelopeSegment
    right: float = math.inf
    value_right: float = math.inf

    def at(self, y: float) -> float:
        if self.kind == "envelope_extends":
            return self.line.at(y)
        return self.value_left if self.kind == "constant_floor" else y


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
        last, pieces = segments[-1], segments
        if self.tail is not None:
            kind, value = self.tail.kind, self.tail.value
            if kind == "envelope_extends":
                if not self.supp_a.unbounded:
                    raise InvalidModelError("envelope_extends needs unbounded support")
                if not (0.0 <= last.slope <= 1.0):
                    raise InvalidModelError("extended envelope slope must lie in [0, 1]")
                if last.slope == 1.0 and last.value_right >= last.right:
                    raise InvalidModelError("extended envelope must stay below the parent")
            if kind == "equals_y_beyond" and value != last.right:
                raise InvalidModelError("identity cutoff must sit at the envelope end")
            # floor applies at parents beyond the last segment; staying
            # below the parent size there means floor <= envelope end
            if kind == "constant_floor" and self.supp_a.unbounded and value > last.right:
                raise InvalidModelError("constant floor exceeds the sizes it applies to")
            if self.supp_a.unbounded:
                # the identity past its cutoff starts at the cutoff itself
                start = {"envelope_extends": last.value_right, "constant_floor": value}
                pieces += (_TailPiece(kind, last.right, start.get(kind, last.right), last),)
        object.__setattr__(self, "_pieces", pieces)

    def breakpoints(self) -> list:
        pts = set()
        for l, r in self.supp_a.intervals:
            pts.add(l)
            if math.isfinite(r):
                pts.add(r)
        for p in self._pieces:
            pts.update((p.left, p.right, p.value_left, p.value_right))
        # a declared floor counts even where the support leaves no tail piece
        if self.tail is not None and self.tail.kind == "constant_floor":
            pts.add(self.tail.value)
        if math.isfinite(self.beta_sup):
            pts.add(self.beta_sup)
        return sorted(p for p in pts if p > 0.0 and math.isfinite(p))


def _require_tail(s: SupportModel) -> None:
    """An unbounded support needs a tail rule past the described envelope."""
    if s.supp_a.unbounded and s.tail is None:
        raise MissingTailError("unbounded support needs a declared tail rule")


def _infimum_above(s: SupportModel, z: float) -> float:
    """Exact infimum of the extended envelope over the open tail (z, inf)."""
    _require_tail(s)
    # off-support points carry envelope value y; the smallest one >= z
    inside = s.supp_a.locate(z)
    cands = [z if inside is None else inside[1]]
    # affine pieces take their infimum at panel endpoints
    for p in s._pieces:
        if p.right > z:
            cands.append(min(p.at(max(p.left, z)), p.value_right))
    return min(cands)


def tail_infimum_c(s: SupportModel, z: float) -> float:
    """Exact infimum of the extended envelope over [z, inf)."""
    if z <= 0.0:
        raise InvalidInputError("tail infimum needs z > 0")
    ends = [seg.value_right for seg in s.envelope if seg.right == z]
    return min([_infimum_above(s, z)] + ends)


@dataclass(frozen=True)
class CbarResult:
    """Supremum of the iterated tail infima and how it is reached."""

    c_bar: float
    case: str


@dataclass(frozen=True)
class IrreducibilityDecision:
    irreducible: bool
    reasons: tuple

    def __str__(self):
        tag = "IRREDUCIBLE" if self.irreducible else "NOT_IRREDUCIBLE"
        return f"{tag}: " + "; ".join(self.reasons)


def compute_c_bar(s: SupportModel) -> CbarResult:
    """Floor of the tail-infimum iteration, read off the breakpoints.

    c_bar is the largest w among the breakpoints and 3 * max(breakpoints,
    1) with inf over y > w of the envelope at least w, or 0 if none is:
    no parent above such a w has daughters below it.  Each limit of the iteration is such
    a w, 3 * max standing for an identity region past every breakpoint.
    The case is ``fixed_point`` when the closed tail infimum at c_bar is
    c_bar, else ``approached_from_above``.
    """
    pts = s.breakpoints()
    candidates = pts + [3.0 * max(pts + [1.0])]
    c_bar = max((w for w in candidates if _infimum_above(s, w) >= w), default=0.0)
    if c_bar == 0.0:
        case = "fixed_point"
    else:
        case = "fixed_point" if tail_infimum_c(s, c_bar) >= c_bar else "approached_from_above"
    return CbarResult(c_bar=c_bar, case=case)


def decide_irreducibility(s: SupportModel, result: CbarResult) -> IrreducibilityDecision:
    """Decision: the renewal reach must beat the fragmentation floor.

    Irreducible when the renewal weight has unbounded support, or reaches
    beyond c_bar, or the floor c_bar read off the breakpoints is 0;
    otherwise every failed condition is reported.
    """
    c_bar = result.c_bar
    if math.isinf(s.beta_sup):
        return IrreducibilityDecision(True, ("renewal support is unbounded",))
    if c_bar == 0.0:
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


def _support_number(value, unbounded: bool = False) -> float:
    # JSON numbers only, as in the model file; "inf" marks an unbounded end
    return math.inf if unbounded and value == "inf" else _as_float(value)


def support_model_from_config(obj: dict) -> SupportModel:
    """Build a SupportModel from its configuration mapping.

    Every value is a JSON number; the string ``"inf"`` is also accepted as
    an interval's right end and as ``beta_sup``.
    """
    if not isinstance(obj, dict):
        raise InvalidInputError("support entry must be a mapping")
    try:
        intervals = tuple(
            (_support_number(l), _support_number(r, unbounded=True)) for l, r in obj["supp_a"]
        )
        segments = tuple(
            EnvelopeSegment(
                left=_support_number(e["left"]),
                right=_support_number(e["right"]),
                value_left=_support_number(e["value_left"]),
                value_right=_support_number(e["value_right"]),
            )
            for e in obj["envelope"]
        )
        beta_sup = _support_number(obj["beta_sup"], unbounded=True)
        tail = None
        if obj.get("tail") is not None:
            t = obj["tail"]
            tail = TailRule(kind=str(t["kind"]), value=_support_number(t.get("value", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad support configuration: {exc}") from exc
    return SupportModel(
        supp_a=IntervalUnion(intervals), envelope=segments, beta_sup=beta_sup, tail=tail
    )
