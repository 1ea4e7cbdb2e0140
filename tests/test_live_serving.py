"""Tests for the live adaptive serving loop.

The load-bearing contract here is *piecewise-static equivalence*: plan changes
only happen between windows, so replaying each window's sub-trace against its
recorded plan in independent batch simulations must reproduce the live run's
windowed metrics exactly.  README.md and docs/architecture.md both point at
this file for that guarantee.
"""

import json

import numpy as np
import pytest

from repro.core.types import SLOType
from repro.faults import FaultEvent, FaultKind, FaultSchedule, RetryPolicy
from repro.scenarios.library import DiurnalTrafficScenario
from repro.scenarios.sweep import ScenarioSweep
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import (
    LiveServeConfig,
    LiveServer,
    WindowTelemetry,
    plan_signature,
)
from repro.serving.slo_objectives import BreachEvent
from repro.serving.system import ThunderServe
from repro.workload.generator import generate_requests
from repro.workload.trace import Trace

WINDOW_S = 4.0

#: Small tabu budget for the full-scheduler recovery replans.
SMALL_SCHEDULER = SchedulerConfig(
    tabu=TabuSearchConfig(num_steps=8, num_neighbors=5, memory_size=5, patience=5), seed=0
)

#: A system SLO at half the A100 reference latency: no window of the test
#: trace meets it, so the availability objective breaches in window 0 (and,
#: being edge-triggered, *only* window 0), which in turn forces one online
#: rescheduling — so the equivalence run spans a real plan change.
TIGHT_SLO_SCALE = 0.5


@pytest.fixture(scope="module")
def live_trace(conversation_workload):
    return generate_requests(conversation_workload, request_rate=4.0, num_requests=60, seed=7)


@pytest.fixture(scope="module")
def system_factory(small_hetero_cluster, model_30b, conversation_workload, small_plan):
    """Fresh deployed systems under a tight SLO sharing one pre-built plan (no tabu search)."""
    from repro.costmodel.reference import a100_reference_latency

    reference = a100_reference_latency(model_30b, conversation_workload)
    tight_slo = reference.slo_spec(TIGHT_SLO_SCALE)

    def build():
        system = ThunderServe(
            small_hetero_cluster, model_30b, conversation_workload, 3.0, slo=tight_slo
        )
        system.adopt_plan(small_plan, reason="live-serving test")
        return system

    return build


@pytest.fixture(scope="module")
def adaptive_run(system_factory, live_trace):
    """One adaptive run with a breach-forced plan change after window 0."""
    system = system_factory()
    config = LiveServeConfig(
        window_s=WINDOW_S,
        reschedule_online=True,
        # Validation would (correctly) reject a candidate that does not beat a
        # healthy incumbent; this test needs the plan change to happen so the
        # equivalence replay spans two plans.
        validate_reschedule=False,
    )
    report = LiveServer(system, config=config).run(live_trace, label="equivalence")
    return system, report


class TestPiecewiseStaticEquivalence:
    def test_windowed_metrics_match_batch_replay(
        self, adaptive_run, system_factory, live_trace
    ):
        _, report = adaptive_run
        assert len(report.windows) >= 2
        assert report.num_plan_changes >= 1

        # Walk the same window grid the live loop used and replay each window's
        # sub-trace against the plan it was served with, on a fresh system.
        window_start = live_trace[0].arrival_time
        end = live_trace[-1].arrival_time
        served = list(zip(report.windows, report.results, report.served_plans))
        while window_start <= end:
            window = live_trace.window(window_start, window_start + WINDOW_S)
            window_start += WINDOW_S
            if window.is_empty:
                continue
            telemetry, live_result, plan = served.pop(0)
            replay_system = system_factory()
            replay_system.adopt_plan(plan, reason="piecewise-static replay")
            replay = replay_system.serve(window, label="replay")
            slo = replay_system.slo
            assert replay.num_requests == telemetry.num_requests
            assert replay.num_finished == telemetry.num_finished
            assert replay.slo_attainment(slo, SLOType.E2E) == telemetry.attainment_e2e
            assert replay.slo_attainment(slo, SLOType.TTFT) == telemetry.attainment_ttft
            assert replay.slo_attainment(slo, SLOType.TPOT) == telemetry.attainment_tpot
            assert replay.completion_rate == telemetry.completion_rate
            waits = [m.queue_time for m in replay.finished]
            expected_wait = float(np.mean(waits)) if waits else 0.0
            assert telemetry.mean_queue_wait == pytest.approx(expected_wait, abs=1e-12)
            # The merged live result and the replay agree request by request.
            live_e2e = sorted((m.request.request_id, m.e2e_latency) for m in live_result.metrics)
            replay_e2e = sorted((m.request.request_id, m.e2e_latency) for m in replay.metrics)
            assert live_e2e == replay_e2e
        assert not served  # every served window was visited by the replay grid

    def test_plan_ids_track_served_plans(self, adaptive_run):
        _, report = adaptive_run
        assert report.plan_ids == [plan_signature(p) for p in report.served_plans]


class TestBreachTriggeredRescheduling:
    def test_breach_fires_once_and_changes_plan(self, adaptive_run):
        system, report = adaptive_run
        # Availability fails every window under the tight SLO, but the
        # edge-triggered tracker fires exactly once — at the first crossing.
        assert len(report.breaches) == 1
        assert report.breaches[0].window_index == 0
        assert report.breaches[0].objective == "availability"
        assert report.windows[0].breaches == (report.breaches[0],)
        assert all(w.breaches == () for w in report.windows[1:])
        # That single breach triggered exactly one online rescheduling.
        assert report.windows[0].plan_changed
        assert report.num_plan_changes == 1
        assert system.num_plan_changes == 1

    def test_validated_rescheduling_never_adopts_non_improving_plan(
        self, system_factory, live_trace
    ):
        # Same breach pressure, but with shadow validation on: under the tight
        # SLO no candidate can strictly beat the incumbent's attainment on the
        # window just served, so the loop must stand still.
        system = system_factory()
        config = LiveServeConfig(
            window_s=WINDOW_S,
            reschedule_online=True,
            validate_reschedule=True,
        )
        before = system.require_plan()
        report = LiveServer(system, config=config).run(live_trace, label="validated")
        assert report.num_plan_changes == 0
        assert system.require_plan() is before
        assert len(set(report.plan_ids)) == 1


class TestTelemetry:
    def test_window_telemetry_json_round_trip(self):
        breach = BreachEvent(
            time=8.0, window_index=1, profile="realtime", objective="availability",
            metric="attainment_e2e", op=">=", target=0.9, value=0.4, context="t",
        )
        record = WindowTelemetry(
            index=1, start=4.0, end=8.0, plan_id="deadbeef", profile="realtime",
            num_requests=17, num_finished=16, request_rate=4.25,
            attainment_e2e=0.4, attainment_ttft=0.6, attainment_tpot=0.9,
            mean_queue_wait=0.12, completion_rate=0.94, estimated_rho=0.7,
            estimated_attainment=0.55, plan_changed=True, breaches=(breach,),
            per_tenant_attainment={"gold": 0.5},
            outcome_counts={"finished": 14, "retried_then_finished": 2, "timed_out": 1},
        )
        restored = WindowTelemetry.from_dict(json.loads(json.dumps(record.to_dict())))
        assert restored == record

    def test_record_without_optional_fields_loads_with_defaults(self):
        required = {
            "index": 0, "start": 0.0, "end": 4.0, "plan_id": "deadbeef",
            "profile": "realtime", "num_requests": 3, "num_finished": 3,
            "request_rate": 0.75, "attainment_e2e": 1.0, "attainment_ttft": 1.0,
            "attainment_tpot": 1.0, "mean_queue_wait": 0.0, "completion_rate": 1.0,
            "estimated_rho": 0.2, "estimated_attainment": 0.9,
        }
        # A field the record no longer has (``num_shed``) is ignored.
        restored = WindowTelemetry.from_dict({**required, "num_shed": 0})
        assert restored == WindowTelemetry(**required)
        assert restored.breaches == () and restored.num_gpus_alive == -1

    def test_report_round_trip_through_to_dicts(self, adaptive_run):
        _, report = adaptive_run
        restored = [WindowTelemetry.from_dict(d) for d in json.loads(json.dumps(report.to_dicts()))]
        assert restored == report.windows

    def test_every_arrival_is_served(self, adaptive_run, live_trace):
        _, report = adaptive_run
        assert sum(w.num_requests for w in report.windows) == len(live_trace)

    def test_streaming_callbacks_and_worst_window(self, adaptive_run):
        _, report = adaptive_run
        assert report.worst_window_attainment() == min(w.attainment_e2e for w in report.windows)
        assert report.merged.num_requests == sum(w.num_requests for w in report.windows)

    def test_on_window_streams_same_telemetry(self, system_factory, live_trace):
        config = LiveServeConfig(window_s=WINDOW_S)
        streamed, fired = [], []
        server = LiveServer(
            system_factory(), config=config, on_window=streamed.append, on_breach=fired.append
        )
        report = server.run(live_trace, label="stream")
        assert streamed == report.windows
        assert fired == report.breaches and fired


class TestConfigAndEdgeCases:
    def test_window_length_validated(self):
        with pytest.raises(ValueError, match="window_s"):
            LiveServeConfig(window_s=0.0)

    def test_empty_trace_yields_empty_report(self, system_factory):
        report = LiveServer(system_factory()).run(Trace(requests=[]), label="empty")
        assert report.windows == []
        assert report.worst_window_attainment() == 1.0
        assert report.num_plan_changes == 0

    def test_plan_signature_stable(self, small_plan):
        signature = plan_signature(small_plan)
        assert signature == plan_signature(small_plan)
        assert len(signature) == 8
        int(signature, 16)  # hex


class TestInEngineFaults:
    """Capacity faults inside a window are compiled into the engine run."""

    RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.3, jitter=0.1)

    @pytest.fixture(scope="class")
    def multi_system_factory(self, small_hetero_cluster, model_7b, conversation_workload):
        """Systems over a four-replica llama-7b plan with uniform routing.

        Two prefill and two decode replicas, so killing one prefill group
        leaves a survivor for the retry path to land on; ``routing=None``
        spreads traffic uniformly so the dying replica always holds work.
        """
        from repro.core.types import Phase
        from repro.costmodel.reference import a100_reference_latency
        from repro.scheduling.deployment import DeploymentPlan
        from repro.scheduling.lower_level import LowerLevelSolver
        from repro.scheduling.solution import UpperLevelSolution

        a40 = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists(
            [
                (a40[:2], Phase.PREFILL),
                (a40[2:], Phase.PREFILL),
                (ti[:2], Phase.DECODE),
                (ti[2:], Phase.DECODE),
            ]
        )
        reference = a100_reference_latency(model_7b, conversation_workload)
        slo = reference.slo_spec(8.0)
        solver = LowerLevelSolver(
            cluster=small_hetero_cluster,
            model=model_7b,
            workload=conversation_workload,
            slo=slo,
            request_rate=3.0,
        )
        solved = solver.solve(solution).plan
        assert solved is not None
        plan = DeploymentPlan(
            groups=solved.groups,
            routing=None,
            model_name=solved.model_name,
            kv_transport_bits=solved.kv_transport_bits,
        )

        def build(scheduler_config=None, slo_scale=8.0):
            system = ThunderServe(
                small_hetero_cluster, model_7b, conversation_workload, 3.0,
                slo=reference.slo_spec(slo_scale), scheduler_config=scheduler_config,
            )
            system.adopt_plan(plan, reason="in-engine fault test")
            return system

        return build

    @pytest.fixture(scope="class")
    def fault_trace(self, conversation_workload):
        return generate_requests(
            conversation_workload, request_rate=6.0, num_requests=80, seed=3
        )

    def _run(self, factory, trace, retry):
        system = factory()
        victims = system.require_plan().prefill_groups[0].gpu_ids
        schedule = FaultSchedule.from_events(
            [FaultEvent(time=6.0, kind=FaultKind.GPU_PREEMPTION, gpu_ids=tuple(victims))]
        )
        config = LiveServeConfig(
            window_s=WINDOW_S,
            reschedule_online=False,
            faults=schedule,
            retry_policy=retry,
        )
        report = LiveServer(system, config=config).run(trace, label="in-engine")
        return system, report

    def test_retry_recovers_attainment_drop_only_loses(
        self, multi_system_factory, fault_trace
    ):
        _, retry_report = self._run(multi_system_factory, fault_trace, self.RETRY)
        _, drop_report = self._run(
            multi_system_factory, fault_trace, RetryPolicy.drop_only()
        )
        retry_stats = retry_report.fault_stats()
        drop_stats = drop_report.fault_stats()
        # The same seeded storm preempts work either way; only the retry
        # policy decides whether that work comes back.
        assert retry_stats["requests_retried_then_finished"] > 0
        assert drop_stats["requests_retried_then_finished"] == 0
        assert drop_stats["requests_dropped_outage"] > 0
        retry_finished = (
            retry_stats["requests_finished"]
            + retry_stats["requests_retried_then_finished"]
        )
        drop_finished = (
            drop_stats["requests_finished"]
            + drop_stats["requests_retried_then_finished"]
        )
        assert retry_finished > drop_finished

    def test_time_to_replan_runs_from_fault_instant_to_boundary(
        self, multi_system_factory, fault_trace
    ):
        """The engine applies the loss at ``event.time``; the loop replans at
        the next window boundary, so the delay is ``boundary - event.time``."""
        _, report = self._run(multi_system_factory, fault_trace, self.RETRY)
        (entry,) = report.fault_log
        assert entry["replan_ok"] and entry["time"] == 6.0
        (replanned,) = [w for w in report.windows if w.replan_trigger == "failure"]
        assert replanned.start == entry["replanned_at"] > 6.0
        delay = report.fault_stats()["mean_time_to_replan_s"]
        assert delay == pytest.approx(replanned.start - 6.0)
        assert 0.0 < delay < WINDOW_S

    def test_plan_changes_count_replan_and_adaptation_in_one_window(
        self, multi_system_factory, fault_trace
    ):
        """A window that installs a failure replan at its start and adapts at
        its end counts both installs, as the system's install log says."""
        # Under a 6x SLO window 0 passes the degraded tier's availability
        # floor, so the objective is armed when window 1 misses the realtime one.
        system = multi_system_factory(slo_scale=6.0)
        victims = system.require_plan().prefill_groups[0].gpu_ids
        config = LiveServeConfig(
            window_s=WINDOW_S,
            validate_reschedule=False,
            faults=FaultSchedule.from_events(
                [FaultEvent(time=2.0, kind=FaultKind.GPU_PREEMPTION, gpu_ids=tuple(victims))]
            ),
        )
        report = LiveServer(system, config=config).run(fault_trace, label="both")
        both = [w for w in report.windows if w.plan_changed and w.replan_trigger == "failure"]
        assert both, "the storm must produce a window with both kinds of plan change"
        # The loss in window 0 replans at window 1's start; window 1 breaches
        # and adapts at its end.
        assert [w.index for w in both] == [1] and both[0].breaches
        assert report.num_plan_changes == system.num_plan_changes == 2

    def test_events_after_last_window_are_logged_not_replanned(
        self, multi_system_factory, fault_trace
    ):
        system = multi_system_factory()
        victims = system.require_plan().prefill_groups[0].gpu_ids
        last_arrival = fault_trace[-1].arrival_time
        config = LiveServeConfig(
            window_s=WINDOW_S,
            reschedule_online=False,
            faults=FaultSchedule.from_events(
                [
                    FaultEvent(
                        time=last_arrival, kind=FaultKind.GPU_PREEMPTION, gpu_ids=tuple(victims)
                    )
                ]
            ),
        )
        report = LiveServer(system, config=config).run(fault_trace, label="tail")
        (entry,) = report.fault_log
        assert entry["time"] == last_arrival and not entry["replan_ok"]
        # No traffic is left after the last window, so nothing replans.
        assert report.num_plan_changes == system.num_plan_changes == 0
        assert system.plan is report.served_plans[-1]

    def test_failure_mode_order_sets_the_recovery_reaction(
        self, multi_system_factory, fault_trace
    ):
        """``("none",)`` drops dead groups and leaves rejoined GPUs idle; the
        default order re-expands onto them with a recovery replan."""
        victims = tuple(multi_system_factory().require_plan().prefill_groups[0].gpu_ids)
        # Lost in window 0 (replanned at its end), back in window 1.
        schedule = FaultSchedule.from_events(
            [
                FaultEvent(time=2.0, kind=FaultKind.GPU_PREEMPTION, gpu_ids=victims),
                FaultEvent(time=6.0, kind=FaultKind.RECOVERY, gpu_ids=victims),
            ]
        )

        def run(**overrides):
            system = multi_system_factory(scheduler_config=SMALL_SCHEDULER)
            # Shadow validation would reject this small-budget re-expansion on
            # the quiet window; the test is about whether a replan is tried.
            config = LiveServeConfig(
                window_s=WINDOW_S,
                reschedule_online=False,
                validate_reschedule=False,
                faults=schedule,
                **overrides,
            )
            return LiveServer(system, config=config).run(fault_trace, label="rejoin")

        static = run(failure_mode_order=("none",))
        triggers = [w.replan_trigger for w in static.windows]
        assert triggers[1] == "failure" and "recovery" not in triggers
        for plan in static.served_plans[1:]:
            assert not set(victims) & {gpu for g in plan.groups for gpu in g.gpu_ids}
            assert len(plan.groups) == len(static.served_plans[0].groups) - 1
        assert static.num_plan_changes == 1

        adaptive = run()
        assert [w.replan_trigger for w in adaptive.windows][1:3] == ["failure", "recovery"]
        assert set(victims) <= {
            gpu for g in adaptive.served_plans[2].groups for gpu in g.gpu_ids
        }

    def test_fault_stats_deterministic_replay(self, multi_system_factory, fault_trace):
        _, first = self._run(multi_system_factory, fault_trace, self.RETRY)
        _, second = self._run(multi_system_factory, fault_trace, self.RETRY)
        assert first.fault_stats() == second.fault_stats()
        assert first.windows == second.windows

    def test_window_telemetry_and_ledger_consistent(
        self, multi_system_factory, fault_trace
    ):
        _, report = self._run(multi_system_factory, fault_trace, self.RETRY)
        # The fault window is flagged degraded and carries the in-engine note.
        noted = [
            w
            for w in report.windows
            if any(f.startswith("in-engine:") for f in w.faults)
        ]
        assert noted, "the mid-window fault must surface in window telemetry"
        assert all(w.degraded for w in noted)
        # Per-window outcome conservation: every request has exactly one outcome.
        for window in report.windows:
            assert sum(window.outcome_counts.values()) == window.num_requests
        # Run-level: the requests_* totals cover the whole trace.
        stats = report.fault_stats()
        total = sum(v for k, v in stats.items() if k.startswith("requests_"))
        assert total == len(fault_trace)
        # ... and agree with the merged result's own outcome column.
        merged = report.merged.outcome_counts()
        assert {k: v for k, v in stats.items() if k.startswith("requests_") and v} == {
            f"requests_{k}": float(v) for k, v in merged.items() if v
        }
        # outcome_counts survive the JSON round trip.
        restored = [
            WindowTelemetry.from_dict(d) for d in json.loads(json.dumps(report.to_dicts()))
        ]
        assert restored == report.windows


class TestPlanChangeCount:
    def test_counts_every_install_on_a_sparse_trace(self, cloud_cluster, model_30b):
        """A sparse trace leaves windows without arrivals; the replans installed
        at their boundaries are plan changes too, so the report counts the
        system's installs rather than one trigger per served window."""
        from repro.experiments.chaos_recovery import default_fault_storm
        from repro.faults import FaultInjector
        from repro.workload.spec import CODING_WORKLOAD

        system = ThunderServe(
            cloud_cluster, model_30b, CODING_WORKLOAD, 0.04, scheduler_config=SMALL_SCHEDULER
        )
        system.deploy(seed=0)
        schedule = FaultInjector(default_fault_storm(), seed=25).compile(300.0, cloud_cluster)
        trace = generate_requests(CODING_WORKLOAD, 0.04, duration=300.0, seed=4)
        installs_before = len([e for e in system.events if e.kind == "plan_installed"])
        report = LiveServer(system, LiveServeConfig(window_s=10.0, faults=schedule)).run(trace)
        installs = len([e for e in system.events if e.kind == "plan_installed"])
        assert len(report.windows) == 7
        assert report.num_plan_changes == installs - installs_before == 7
        # The per-window replan counts keep their meaning: windows whose start
        # installed a fault-triggered plan.
        stats = report.fault_stats()
        assert stats["num_failure_replans"] == sum(
            w.replan_trigger == "failure" for w in report.windows
        )
        assert stats["num_recovery_replans"] == sum(
            w.replan_trigger == "recovery" for w in report.windows
        )


class TestAdaptiveSweep:
    @pytest.fixture(scope="class")
    def scenario(self):
        return DiurnalTrafficScenario(request_rate=2.0, duration=40.0)

    def test_adaptive_sweep_surfaces_windows_and_plan_changes(
        self, scenario, small_hetero_cluster, model_30b, small_plan
    ):
        sweep = ScenarioSweep(
            scenarios=[scenario],
            seed=0,
            adaptive=True,
            live_config=LiveServeConfig(window_s=10.0),
        )
        outcomes = sweep.evaluate(small_hetero_cluster, model_30b, small_plan)
        outcome = outcomes["diurnal"]
        assert outcome.windows, "adaptive sweep must surface the telemetry stream"
        assert all(w.plan_id for w in outcome.windows)
        assert outcome.num_plan_changes == sum(1 for w in outcome.windows if w.plan_changed)

        summary = ScenarioSweep.summarize(outcomes)
        assert summary["plan_changes"] == {"diurnal": outcome.num_plan_changes}
        assert summary["total_plan_changes"] == outcome.num_plan_changes
        assert summary["worst_scenario"] == "diurnal"

    def test_batch_sweep_has_no_window_stream(
        self, scenario, small_hetero_cluster, model_30b, small_plan
    ):
        sweep = ScenarioSweep(scenarios=[scenario], seed=0)
        outcomes = sweep.evaluate(small_hetero_cluster, model_30b, small_plan)
        assert outcomes["diurnal"].windows == []
