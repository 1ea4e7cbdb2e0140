"""The ThunderServe serving runtime.

This package is the control plane of the reproduction: the
:class:`ThunderServe` facade that ties scheduling, serving (simulated
execution), workload profiling and lightweight rescheduling together — the
overall routine described in §4 and Appendix E — and the live adaptive serving
layer: a fixed two-tier SLO policy with edge-triggered breach tracking
(:mod:`repro.serving.slo_objectives`, :class:`SLOBreachTracker`) and the
windowed :class:`LiveServer` loop with streaming per-window telemetry and
fault replay (:mod:`repro.serving.live`).
"""

from repro.serving.live import (
    LiveServeConfig,
    LiveServeReport,
    LiveServer,
    PlanHealth,
    WindowTelemetry,
    plan_signature,
)
from repro.serving.slo_objectives import BreachEvent, SLOBreachTracker, judge_window
from repro.serving.system import ServeEvent, ThunderServe

__all__ = [
    "ThunderServe",
    "ServeEvent",
    "LiveServer",
    "LiveServeConfig",
    "LiveServeReport",
    "WindowTelemetry",
    "PlanHealth",
    "plan_signature",
    "BreachEvent",
    "SLOBreachTracker",
    "judge_window",
]
