"""Turns a pair of per-vendor quality averages into per-vendor rejection rates.

The two routes of a group are compared by their average call duration (ACD,
in minutes). The weaker route's target share of traffic grows linearly with
the quality ratio, from a floor of ``load_min`` (so it always keeps enough
traffic to stay measurable) up to 50% when both routes are equally good.
The rejection percentage is then placed entirely on whichever route billing
statically prefers: that is the only route whose surplus traffic the routing
layer can push away, since billing only ever fails over *from* it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Optional, Tuple

from .domain import DEFAULT_LOAD_MIN, validate_acd, validate_prefs_and_floor


# quantize fails when its result needs more digits than the context holds:
# the default 28 run out from 1e26 up, 330 hold any finite float to 2 places
_EVERY_FLOAT = Context(prec=330)


def round_half_up(value: float, places: int = 2) -> float:
    """Round on the decimal representation, halves away from zero."""
    exponent = Decimal(1).scaleb(-places)
    return float(Decimal(repr(value)).quantize(exponent, ROUND_HALF_UP, _EVERY_FLOAT))


@dataclass(frozen=True)
class QualityInput:
    """One closed interval's evidence for a two-route group.

    ``acd_min`` entries are finite, non-negative minutes, or None when a
    vendor had no answered call in the interval (no evidence).
    """

    acd_min: Tuple[Optional[float], Optional[float]]
    prefs: Tuple[int, int]
    load_min: float = DEFAULT_LOAD_MIN

    def __post_init__(self) -> None:
        if len(self.acd_min) != 2:
            raise ValueError("exactly two routes participate in a routing group")
        validate_prefs_and_floor(self.prefs, self.load_min)
        for acd in self.acd_min:
            validate_acd(acd)


@dataclass(frozen=True)
class RejectionResult:
    """Per-vendor rank, target load and rejection rate for one closed interval.

    ``reject_pct`` is rounded to 2 decimals for storage and display;
    ``reject_pct_exact`` keeps full precision for the admission layer.
    Rank and load stay absent (None) when either vendor lacked evidence. A
    load is a share of the traffic, so a saved result is refused unless each
    load lies in [0, 1].
    """

    max_idx: Optional[int]
    rank: Tuple[Optional[float], Optional[float]]
    load: Tuple[Optional[float], Optional[float]]
    reject_pct: Tuple[float, float]
    reject_pct_exact: Tuple[float, float]

    def __post_init__(self) -> None:
        if not all(0.0 <= share <= 1.0 for share in self.load if share is not None):
            raise ValueError(f"load must lie in [0, 1], got {list(self.load)}")


def max_acd(acd: Tuple[float, float]) -> int:
    """Index of the strictly larger ACD; ties resolve to index 0."""
    return 1 if acd[0] < acd[1] else 0


def compute_rejection(quality: QualityInput) -> RejectionResult:
    """Evaluate the rejection rule for one interval.

    With ``hi``/``lo`` the indices of the larger/smaller ACD:

        rank[hi] = 1
        rank[lo] = ACD[lo] / ACD[hi]
        load[lo] = load_min + (0.5 - load_min) * rank[lo]
        load[hi] = 1 - load[lo]
        reject   = load of the *other* route, on the preferred route only

    Degenerate inputs: a missing ACD means "no evidence, don't reject"
    (both rates zero, loads absent). Two zero ACDs are indistinguishable
    from equal quality and split 50/50 through the tie branch.
    """
    acd0, acd1 = quality.acd_min
    if acd0 is None or acd1 is None:
        return RejectionResult(
            max_idx=None,
            rank=(None, None),
            load=(None, None),
            reject_pct=(0.0, 0.0),
            reject_pct_exact=(0.0, 0.0),
        )

    acd = (acd0, acd1)
    hi = max_acd(acd)
    lo = 1 - hi

    rank = [0.0, 0.0]
    rank[hi] = 1.0
    rank[lo] = 1.0 if acd[hi] == 0 else acd[lo] / acd[hi]

    load = [0.0, 0.0]
    load[lo] = quality.load_min + (0.5 - quality.load_min) * rank[lo]
    load[hi] = 1.0 - load[lo]

    reject = [0.0, 0.0]
    if quality.prefs[hi] > quality.prefs[lo]:
        reject[hi] = load[lo] * 100.0
    else:
        reject[lo] = load[hi] * 100.0

    return RejectionResult(
        max_idx=hi,
        rank=(rank[0], rank[1]),
        load=(load[0], load[1]),
        reject_pct=(round_half_up(reject[0]), round_half_up(reject[1])),
        reject_pct_exact=(reject[0], reject[1]),
    )
