"""Per-call admission decisions at the clone interfaces.

Each vendor is impersonated by a clone interface; billing still routes by
static preference, but the clone may refuse the call with a failover-class
code so billing retries on the other route. A call is only ever refused once:
its retry must go through, otherwise the caller would lose the call entirely.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .domain import RouteGroup, classify_response, triggers_failover
from .rejection import RejectionResult

# 5xx so billing treats the clone as a failed route and tries the next one
REJECTION_CODE = 503
# how long a rejected call id is remembered, so its retry is never rejected
SEEN_TTL_S = 3600.0

_SEEN_PRUNE_SIZE = 16384


@dataclass(frozen=True)
class Decision:
    """Outcome of one admission check."""

    accepted: bool
    code: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.accepted:
            if self.code is None or not triggers_failover(classify_response(self.code)):
                raise ValueError("a rejection must carry a failover-class code")

    @classmethod
    def accept(cls) -> "Decision":
        return _ACCEPT

    @classmethod
    def reject(cls) -> "Decision":
        return _REJECT


_ACCEPT = Decision(accepted=True)
_REJECT = Decision(accepted=False, code=REJECTION_CODE)


class AdmissionController:
    """Holds the current rejection targets, the at-most-once ledger and the
    per-interval decision counters.

    Thread-safe: decisions, counter snapshots and target refreshes may come
    from concurrent call-handling contexts; a decision never observes a torn
    target pair, and is counted under the same lock that made it, so an
    interval snapshot never splits a decision from its count. Targets start
    absent (cold start) and every call is accepted until the first interval
    closes.
    """

    def __init__(self, group: RouteGroup, seed: int = 0):
        self.vendors = group.vendors
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._targets: Dict[int, Optional[float]] = {v: None for v in self.vendors}
        self._seen: Dict[str, float] = {}
        self._received: Dict[int, int] = {v: 0 for v in self.vendors}
        self._rejected: Dict[int, int] = {v: 0 for v in self.vendors}

    def decide(self, call_id: str, vendor: int, now: Optional[float] = None) -> Decision:
        """Accept or reject one call attempt on a clone interface, and count
        it: authorized and rejected calls are counted separately (received
        does not include rejected).

        ``now`` is seconds on whatever clock drives the system (simulated or
        wall); it defaults to wall time and only matters for the rejection
        ledger's TTL.
        """
        if now is None:
            now = time.time()
        with self._lock:
            if vendor not in self._targets:
                raise ValueError(f"vendor {vendor} is not one of the configured clones")
            expiry = self._seen.get(call_id)
            if expiry is not None and expiry <= now:
                del self._seen[call_id]
                expiry = None
            decision = _ACCEPT
            target = self._targets[vendor]
            # a call still in the ledger was rejected once: its retry must pass
            if expiry is None and target is not None and target > 0.0:
                if self._rng.random() < target / 100.0:
                    self._seen[call_id] = now + SEEN_TTL_S
                    if len(self._seen) > _SEEN_PRUNE_SIZE:
                        self._prune(now)
                    decision = _REJECT
            counts = self._received if decision.accepted else self._rejected
            counts[vendor] += 1
            return decision

    def refresh_targets(self, result: RejectionResult) -> None:
        """Swap in a just-closed interval's targets atomically.

        Result indexes follow the vendor order given at construction.
        """
        with self._lock:
            self._targets = {
                self.vendors[0]: result.reject_pct_exact[0],
                self.vendors[1]: result.reject_pct_exact[1],
            }

    @property
    def targets(self) -> Dict[int, Optional[float]]:
        with self._lock:
            return dict(self._targets)

    @property
    def counters(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        with self._lock:
            return dict(self._received), dict(self._rejected)

    def snapshot_and_reset_counters(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """Atomically read and zero the per-interval counters (interval close)."""
        with self._lock:
            snapshot = dict(self._received), dict(self._rejected)
            self._received = {v: 0 for v in self.vendors}
            self._rejected = {v: 0 for v in self.vendors}
            return snapshot

    def _prune(self, now: float) -> None:
        # caller holds the lock
        self._seen = {cid: exp for cid, exp in self._seen.items() if exp > now}
