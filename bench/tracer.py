"""Per-layer timing by wrapping public functions at their module or class attribute.

Each wrapped call records its duration and its self time (duration minus the
time spent in wrapped calls it made). Nothing in the package is edited: the
wrappers are installed on the live module and class objects for one traced
iteration and removed afterwards.
"""

from __future__ import annotations

import sys
import weakref
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

# (layer name, defining module, attribute path) of every wrapped callable.
# A plain function is replaced wherever a package module binds it by name,
# so ``from .store import write_cdr_csv`` in ``cli`` is traced as well.
TARGETS: List[Tuple[str, str, str]] = [
    ("cli.main", "acdroute.cli", "main"),
    ("sim.run_scenario", "acdroute.sim", "run_scenario"),
    ("sim.billing_route", "acdroute.sim", "billing_route"),
    ("sim.vendor_leg", "acdroute.sim", "vendor_leg"),
    ("admission.decide", "acdroute.admission", "AdmissionController.decide"),
    ("admission.record_decision", "acdroute.admission", "AdmissionController.record_decision"),
    ("store.append_cdr", "acdroute.store", "CdrStore.append_cdr"),
    ("store.query_cdrs", "acdroute.store", "CdrStore.query_cdrs"),
    ("store.write_cdr_csv", "acdroute.store", "write_cdr_csv"),
    ("store.insert_acd_rows", "acdroute.store", "AcdVendorsTable.insert_acd_rows"),
    ("store.export_csv", "acdroute.store", "AcdVendorsTable.export_csv"),
    ("aggregate.tick", "acdroute.aggregate", "IntervalAggregator.tick"),
    ("aggregate.vendor_stats", "acdroute.aggregate", "vendor_stats"),
    ("rejection.compute_rejection", "acdroute.rejection", "compute_rejection"),
    ("report.render_interval_table", "acdroute.report", "render_interval_table"),
]

# layers whose per-call durations are kept for percentiles
KEEP_DURATIONS = {"admission.decide", "aggregate.tick"}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    Besides timings it keeps the counts that are cheapest to take at the
    call boundary: records returned by ``query_cdrs``, the store size at each
    query (the last id ``append_cdr`` returned on that store), and how many
    ticks closed an interval.
    """

    def __init__(self) -> None:
        self.stats: Dict[str, SpanStats] = {name: SpanStats() for name, _, _ in TARGETS}
        self.missing: List[str] = []
        self.records_returned = 0
        self.store_sizes: List[int] = []
        self.ticks_closed = 0
        self._store_size: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, module_name, path in TARGETS:
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                # a later refactor removed or renamed it: report zeros
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, self._hook(name))
            if owner_name:
                self._patch(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "acdroute" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _hook(self, name: str) -> Optional[Callable]:
        if name == "store.append_cdr":
            def hook(args, result):
                self._store_size[args[0]] = result
        elif name == "store.query_cdrs":
            def hook(args, result):
                self.records_returned += len(result)
                self.store_sizes.append(self._store_size.get(args[0], 0))
        elif name == "aggregate.tick":
            def hook(args, result):
                self.ticks_closed += result is not None
        else:
            return None
        return hook

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        stats = self.stats[name]
        stack = self._stack
        keep = stats.durations if name in KEEP_DURATIONS else None

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - children[0]
                if keep is not None:
                    keep.append(elapsed)
            if hook is not None:
                hook(args, result)
            return result

        return traced
