"""Per-call admission decisions at the clone interfaces.

Each vendor is impersonated by a clone interface; billing still routes by
static preference, but the clone may refuse the call with a 4xx-6xx code
so billing retries on the other route. ``AdmissionController.decide``
answers yes (pass) or no (refuse), and a refusal always carries
``REJECTION_CODE``. A call is only ever refused once: its retry must go
through, otherwise the caller would lose the call entirely. The controller
counts each decision as received or rejected; in a simulated run those
counters, snapshot at each interval close, are the only way refusals reach
the aggregator.

``decide`` takes the controller's lock, so call-handling threads may share
one controller. The rule itself is ``_decide``, which takes no lock: a
caller that owns its controller, as ``sim.run_scenario`` does, calls it
directly and saves an acquire and a release per attempt.

The at-most-once ledger maps each refused call id (any hashable) to its expiry;
an id is live iff its expiry is greater than ``now``. Entries share one TTL, and
expired ones are popped from the oldest end before an entry is added; a backward
step of ``now`` only delays that purge (a popped entry stays forgotten). The map
is a plain dict, and a FIFO of ``(expiry, id)`` pairs keeps the insertion order.
An id refused again gets a new pair at the newest end; its old pair, whose
expiry is no longer the id's, is stale, and the purge drops it on the way.
"""

from __future__ import annotations

import random
import threading
from collections import deque
from typing import Deque, Dict, Hashable, Tuple

from .domain import RouteGroup
from .rejection import RejectionResult

# 5xx so billing treats the clone as a failed route and tries the next one
REJECTION_CODE = 503
# how long a rejected call id is remembered, so its retry is never rejected
SEEN_TTL_S = 3600.0


class AdmissionController:
    """Holds the current rejection targets, the at-most-once ledger and the
    per-interval decision counters.

    Thread-safe: decisions, counter snapshots and target refreshes may come
    from concurrent call-handling contexts; a decision never observes a torn
    target pair, and is counted under the same lock that made it, so an
    interval snapshot never splits a decision from its count. ``decide`` takes
    it by its ``acquire`` and ``release``, bound once, in a ``try``/``finally``,
    around ``_decide``, the rule. ``sim.run_scenario`` builds its controller
    and shares it with no thread, so it calls ``_decide`` and takes no lock
    per attempt; every other caller decides through ``decide``.
    Targets start at 0 (cold start), so every call is accepted, without a
    draw from the rng, until the first interval closes.
    """

    def __init__(self, group: RouteGroup, seed: int = 0):
        self.vendors = group.vendors
        self._lock = threading.Lock()
        self._acquire, self._release = self._lock.acquire, self._lock.release
        self._rng = random.Random(seed)
        self._targets: Dict[int, float] = {v: 0.0 for v in self.vendors}
        self._seen: Dict[Hashable, float] = {}  # call id -> expiry
        # the FIFO's (expiry, id) pairs, oldest first, as two deques in step
        self._expiries: Deque[float] = deque()
        self._ids: Deque[Hashable] = deque()
        self._received: Dict[int, int] = {v: 0 for v in self.vendors}
        self._rejected: Dict[int, int] = {v: 0 for v in self.vendors}

    def decide(self, call_id: Hashable, vendor: int, now: float) -> bool:
        """Pass (True) or refuse (False) one attempt of the call ``call_id``
        on a clone interface, and count it as received or rejected, not both.

        ``call_id`` is any hashable: a deployment passes the SIP Call-ID text.
        ``now`` is seconds on whatever clock drives the system (simulated or
        wall); it only matters for the rejection ledger's TTL. The decision
        rule is ``_decide``, run under the lock.
        """
        self._acquire()
        try:
            return self._decide(call_id, vendor, now)
        finally:
            self._release()

    def _decide(self, call_id: Hashable, vendor: int, now: float) -> bool:
        """``decide``'s rule, without the lock: only for a caller that owns
        the controller, so that no other thread can reach it, as
        ``sim.run_scenario`` does, passing its call number as ``call_id``."""
        target = self._targets.get(vendor)
        if target is None:
            raise ValueError(f"vendor {vendor} is not one of the configured clones")
        seen = self._seen
        # a call live in the ledger (expiry > now) was rejected once: its retry must pass
        if (target > 0.0 and seen.get(call_id, now) <= now
                and self._rng.random() < target / 100.0):
            expiries, ids = self._expiries, self._ids
            while expiries:
                expiry, old_id = expiries[0], ids[0]
                # one expiry object per refusal: another in the dict means a stale pair
                if seen.get(old_id) is expiry:
                    if expiry > now:
                        break
                    del seen[old_id]
                expiries.popleft()
                ids.popleft()
            expiry = now + SEEN_TTL_S
            seen[call_id] = expiry
            expiries.append(expiry)
            ids.append(call_id)
            self._rejected[vendor] += 1
            return False
        self._received[vendor] += 1
        return True

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
    def targets(self) -> Dict[int, float]:
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
