"""Adaptive live serving: diurnal trace replay with SLO observability.

A deployment planned for a steady conversation workload meets a day/night cycle
of prefill-heavy coding traffic.  The live serving loop replays the trace in
30-second windows on a time-warped clock, streams a telemetry record per window
(attainment, estimated rho, plan id), evaluates declarative SLO objectives with
auto-inferred realtime/degraded profiles, and — when an objective breaches or
the workload profiler detects a shift — triggers the §3.4 lightweight
rescheduler online.  Every candidate plan is shadow-validated on the window
just served before adoption, so the loop never installs a plan that
demonstrably serves the observed workload worse.

Run with:  python examples/live_serving.py
(set ``REPRO_EXAMPLE_FAST=1`` for the CI smoke configuration: shorter trace,
smaller tabu budget, same pipeline end to end)
"""

import json
import os

from repro.hardware.cluster import make_cloud_cluster
from repro.model.architecture import get_model_config
from repro.scenarios import get_scenario, scenario_slo
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.utils.tables import format_table
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD


FAST = bool(int(os.environ.get("REPRO_EXAMPLE_FAST", "0")))


def main() -> None:
    cluster = make_cloud_cluster(seed=0)
    model = get_model_config("llama-30b")
    scenario = get_scenario(
        "diurnal",
        duration=60.0 if FAST else 120.0,
        request_rate=4.0,
        workload=CODING_WORKLOAD,
    )
    trace = scenario.build_trace(seed=0)

    # A plan for steady conversation traffic at 3 req/s — mismatched in both
    # mix and rate against the diurnal coding cycle it is about to serve.
    system = ThunderServe(
        cluster,
        model,
        CONVERSATION_WORKLOAD,
        request_rate=3.0,
        slo=scenario_slo(scenario, model),
        scheduler_config=SchedulerConfig(
            tabu=TabuSearchConfig(
                num_steps=6 if FAST else 12, num_neighbors=5, patience=8
            ),
            seed=0,
        ),
    )
    system.deploy(seed=0)

    # Declarative SLO objectives: a realtime profile holding 90% availability
    # and a degraded fallback holding 50%, selected per window from the
    # telemetry snapshot (see repro/serving/slo_objectives.py for the schema).
    slo_config = {
        "auto": {"realtime_attainment_min": 0.75, "default_profile": "degraded"},
        "profiles": {
            "realtime": [
                {"name": "availability", "metric": "attainment_e2e", "op": ">=", "target": 0.9},
                {"name": "headroom", "metric": "estimated_rho", "op": "<=", "target": 0.95},
            ],
            "degraded": [
                {"name": "availability", "metric": "attainment_e2e", "op": ">=", "target": 0.5},
            ],
        },
    }

    server = LiveServer(
        system,
        config=LiveServeConfig(window_s=30.0, slo_config=slo_config),
        on_breach=lambda event: print(f"  !! {event.describe()}"),
    )
    report = server.run(trace, label="diurnal-live")

    rows = [
        [
            w.index,
            f"[{w.start:.0f},{w.end:.0f})",
            w.plan_id,
            w.profile,
            w.num_requests,
            w.attainment_e2e,
            w.estimated_rho,
            w.mean_queue_wait,
            "yes" if w.plan_changed else "",
        ]
        for w in report.windows
    ]
    print()
    print(
        format_table(
            ["win", "span", "plan", "profile", "reqs", "att_e2e", "rho", "queue_s", "replanned"],
            rows,
            precision=3,
            title="Per-window telemetry",
        )
    )
    print(
        f"\n{report.num_plan_changes} plan change(s), "
        f"{len(report.breaches)} breach event(s), "
        f"worst window attainment {report.worst_window_attainment():.3f}, "
        f"merged attainment {report.merged.slo_attainment(system.slo):.3f}"
    )

    # The telemetry stream is JSON-serialisable for dashboards and archives.
    print("\nFirst record as JSON:")
    print(json.dumps(report.windows[0].to_dict(), indent=2)[:400], "...")


if __name__ == "__main__":
    main()
