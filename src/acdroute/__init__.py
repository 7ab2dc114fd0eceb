"""Quality-driven dynamic call routing.

Measures per-vendor average call duration (ACD) over dynamic intervals, turns
the ACD pair plus billing preferences into per-vendor rejection targets, and
applies those targets as probabilistic admission decisions on clone
interfaces, so a static-preference billing router is forced to fail over away
from low-quality or false-answer routes. A deterministic traffic simulator
closes the loop for experiments and tests.
"""

from .admission import REJECTION_CODE, AdmissionController
from .aggregate import (
    ClosedInterval,
    IntervalAggregator,
    Schedule,
    VendorIntervalStats,
    replay_cdrs,
)
from .codec import decode, encode
from .domain import (
    DisconnectCause,
    RouteGroup,
    triggers_failover,
)
from .rejection import (
    QualityInput,
    RejectionResult,
    compute_rejection,
    max_acd,
    round_half_up,
)
from .report import render_calc_breakdown, render_interval_table
from .sim import (
    DurationSpec,
    ScenarioConfig,
    ScenarioResult,
    VendorModel,
    VendorSpec,
    run_scenario,
)
from .store import acd_csv_text, read_cdr_csv

__version__ = "0.1.0"

__all__ = [
    "AdmissionController",
    "ClosedInterval",
    "DisconnectCause",
    "DurationSpec",
    "IntervalAggregator",
    "QualityInput",
    "REJECTION_CODE",
    "RejectionResult",
    "RouteGroup",
    "ScenarioConfig",
    "ScenarioResult",
    "Schedule",
    "VendorIntervalStats",
    "VendorModel",
    "VendorSpec",
    "acd_csv_text",
    "compute_rejection",
    "decode",
    "encode",
    "max_acd",
    "read_cdr_csv",
    "render_calc_breakdown",
    "render_interval_table",
    "replay_cdrs",
    "round_half_up",
    "run_scenario",
    "triggers_failover",
]
