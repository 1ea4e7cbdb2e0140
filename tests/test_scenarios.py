"""Coverage for every named scenario in ``repro.scenarios`` and the sweep runner.

Each registered scenario is checked for: determinism under a fixed seed, trace
shape invariants (arrival monotonicity and bounds, positive lengths, unique ids)
and one end-to-end ``ThunderServe.serve()`` smoke run; the sweep runner is
exercised across the whole library, including the failure-injection path.
"""

from __future__ import annotations

import pytest

from repro.core.types import SLOType
from repro.costmodel.reference import a100_reference_latency
from repro.faults.taxonomy import FaultEvent, FaultKind, FaultSchedule
from repro.scenarios import (
    ScenarioSweep,
    SpotPreemptionScenario,
    default_scenarios,
    get_scenario,
    list_scenarios,
)
from repro.scenarios.library import MultiTenantSLOTiersScenario, TenantTier
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.simulation.engine import SimulatorConfig
from repro.simulation.metrics import NO_REPLICA
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD

#: short trace length used throughout: long enough for dozens of requests,
#: short enough to keep the whole module in the fast tier of the suite
SMOKE_DURATION = 12.0


def smoke_scenarios():
    """One short-duration instance of every registered scenario."""
    return default_scenarios(duration=SMOKE_DURATION)


@pytest.fixture(scope="module")
def cloud_plan(cloud_cluster, model_30b):
    """A scheduler-built plan on the 32-GPU cloud cluster, shared by all smokes."""
    scheduler = Scheduler(
        SchedulerConfig(
            tabu=TabuSearchConfig(num_steps=6, num_neighbors=4, memory_size=5, patience=4),
            seed=0,
        )
    )
    result = scheduler.schedule(
        cloud_cluster, model_30b, CONVERSATION_WORKLOAD, request_rate=5.0
    )
    return result.plan


# --------------------------------------------------------------------- registry
def test_registry_has_at_least_six_scenarios():
    names = list_scenarios()
    assert len(names) >= 6
    assert len(set(names)) == len(names)
    for name in names:
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.description


def test_get_scenario_overrides_and_errors():
    scenario = get_scenario("long-context-rag", request_rate=3.5, duration=20.0)
    assert scenario.request_rate == 3.5
    assert scenario.duration == 20.0
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


# ------------------------------------------------------------------ determinism
@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_trace_deterministic_under_fixed_seed(scenario):
    first = scenario.build_trace(seed=42)
    second = scenario.build_trace(seed=42)
    assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
    assert [(r.input_length, r.output_length, r.workload) for r in first] == [
        (r.input_length, r.output_length, r.workload) for r in second
    ]
    different = scenario.build_trace(seed=43)
    assert [r.arrival_time for r in first] != [r.arrival_time for r in different]


# -------------------------------------------------------------------- invariants
@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_trace_shape_invariants(scenario):
    trace = scenario.build_trace(seed=7)
    assert len(trace) > 0, "a smoke-length trace must contain requests"
    arrivals = [r.arrival_time for r in trace]
    assert arrivals == sorted(arrivals), "arrivals must be non-decreasing"
    assert all(0.0 <= t < scenario.duration for t in arrivals)
    assert all(r.input_length >= 1 and r.output_length >= 1 for r in trace)
    ids = [r.request_id for r in trace]
    assert len(set(ids)) == len(ids), "request ids must be unique"


def test_multi_tenant_trace_tags_every_tenant():
    scenario = get_scenario("multi-tenant", duration=30.0)
    trace = scenario.build_trace(seed=5)
    tags = {r.workload for r in trace}
    assert tags == {f"tenant:{t.tenant}" for t in scenario.tiers}
    assert scenario.slo_scale() == min(t.slo_scale for t in scenario.tiers)


def test_multi_tenant_rejects_bad_shares():
    with pytest.raises(ValueError):
        MultiTenantSLOTiersScenario(
            tiers=(
                TenantTier("a", CONVERSATION_WORKLOAD, share=0.5, slo_scale=5.0),
                TenantTier("b", CONVERSATION_WORKLOAD, share=0.2, slo_scale=5.0),
            )
        )


def test_spot_preemption_fault_schedule_sorted_and_bounded(cloud_cluster):
    scenario = SpotPreemptionScenario(duration=100.0, preemption_fractions=(0.7, 0.3))
    schedule = scenario.fault_schedule(cloud_cluster, seed=0)
    assert [e.time for e in schedule] == [30.0, 70.0]
    assert all(e.kind is FaultKind.GPU_PREEMPTION and 0 < e.time < 100.0 for e in schedule)
    first, second = (set(e.gpu_ids) for e in schedule)
    assert len(first) == len(second) == scenario.gpus_per_preemption
    assert not first & second, "a GPU is reclaimed at most once"
    assert schedule.validate(scenario.duration, cloud_cluster) is schedule
    assert scenario.fault_schedule(cloud_cluster, seed=0) == schedule

    # The sweep's seed pins the victims the runtime draw used to pick at each
    # event from the GPUs still alive.
    spot = SpotPreemptionScenario()
    seed = ScenarioSweep([spot], seed=0)._derive_seed(spot.name, "failures")
    pinned = spot.fault_schedule(cloud_cluster, seed=seed)
    assert [(e.time, e.gpu_ids) for e in pinned] == [(48.0, (7, 28)), (84.0, (14, 31))]


# ------------------------------------------------------------------- e2e smokes
@pytest.mark.integration
@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_serve_smoke_per_scenario(scenario, cloud_cluster, model_30b, cloud_plan):
    """Every scenario's trace must serve end-to-end on a real deployment plan."""
    system = ThunderServe(
        cloud_cluster,
        model_30b,
        scenario.planning_workload(),
        scenario.request_rate,
    )
    system.adopt_plan(cloud_plan)
    trace = scenario.build_trace(seed=3)
    result = system.serve(trace, label=scenario.name)
    assert result.num_requests == len(trace)
    assert result.num_finished > 0
    assert result.output_token_throughput > 0


@pytest.mark.integration
def test_scenario_sweep_end_to_end(cloud_cluster, model_30b, cloud_plan):
    """The concurrent sweep covers all scenarios, including failure injection."""
    sweep = ScenarioSweep(smoke_scenarios(), seed=0, live_config=LiveServeConfig(window_s=3.0))
    outcomes = sweep.evaluate(cloud_cluster, model_30b, cloud_plan)
    assert set(outcomes) == set(list_scenarios())
    for name, outcome in outcomes.items():
        assert outcome.num_requests > 0, name
        assert outcome.num_finished > 0, name
        for value in (
            outcome.attainment_e2e, outcome.attainment_ttft, outcome.attainment_tpot
        ):
            assert 0.0 <= value <= 1.0, name
    spot = outcomes["spot-preemption"]
    assert spot.num_plan_changes == len(SpotPreemptionScenario().preemption_fractions)
    tenants = outcomes["multi-tenant"].per_tenant_attainment
    assert set(tenants) == {"gold", "silver", "bronze"}
    table = ScenarioSweep.to_table(outcomes)
    assert "spot-preemption" in table


def test_sweep_is_deterministic(cloud_cluster, model_30b, cloud_plan):
    """Same seed, same outcomes — scenario seeds are derived deterministically."""
    scenarios = [get_scenario("diurnal", duration=SMOKE_DURATION)]
    first = ScenarioSweep(scenarios, seed=9).evaluate(cloud_cluster, model_30b, cloud_plan)
    second = ScenarioSweep(scenarios, seed=9).evaluate(cloud_cluster, model_30b, cloud_plan)
    a, b = first["diurnal"], second["diurnal"]
    assert a.num_requests == b.num_requests
    assert a.attainment_e2e == b.attainment_e2e
    assert a.output_token_throughput == b.output_token_throughput


def _outcomes_semantically_equal(a, b) -> bool:
    """Outcome equality up to wall-clock (elapsed_s legitimately differs)."""
    return (
        a.num_requests == b.num_requests
        and a.num_finished == b.num_finished
        and a.attainment_e2e == b.attainment_e2e
        and a.attainment_ttft == b.attainment_ttft
        and a.attainment_tpot == b.attainment_tpot
        and a.output_token_throughput == b.output_token_throughput
        and a.num_plan_changes == b.num_plan_changes
        and a.per_tenant_attainment == b.per_tenant_attainment
    )


def test_sweep_engines_agree_through_failure_windows(cloud_cluster, model_30b, cloud_plan):
    """Fast and reference simulator engines match across the sweep, including the
    windowed failure-injection path (spot preemption reschedules between windows)."""
    scenarios = [
        get_scenario("spot-preemption", duration=SMOKE_DURATION),
        get_scenario("bursty", duration=SMOKE_DURATION),
    ]
    outcomes = {}
    for engine in ("fast", "reference"):
        sweep = ScenarioSweep(
            scenarios, seed=4, simulator_config=SimulatorConfig(engine=engine)
        )
        outcomes[engine] = sweep.evaluate(cloud_cluster, model_30b, cloud_plan)
    for name in outcomes["fast"]:
        a, b = outcomes["fast"][name], outcomes["reference"][name]
        assert _outcomes_semantically_equal(a, b), name
        assert a.result is not None and b.result is not None
        for ma, mb in zip(a.result.metrics, b.result.metrics):
            assert ma.completion_time == mb.completion_time
            assert ma.first_token_time == mb.first_token_time


def test_sweep_process_executor_matches_threads(cloud_cluster, model_30b, cloud_plan):
    """executor="process" returns outcomes equal to thread mode."""
    scenarios = [
        get_scenario("diurnal", duration=SMOKE_DURATION),
        get_scenario("agentic-mix", duration=SMOKE_DURATION),
    ]
    thread = ScenarioSweep(scenarios, seed=1).evaluate(cloud_cluster, model_30b, cloud_plan)
    process = ScenarioSweep(scenarios, seed=1, executor="process", max_workers=2).evaluate(
        cloud_cluster, model_30b, cloud_plan
    )
    assert set(thread) == set(process)
    for name in thread:
        assert _outcomes_semantically_equal(thread[name], process[name]), name


def test_sweep_rejects_unknown_executor():
    with pytest.raises(ValueError):
        ScenarioSweep(executor="fiber")


def test_sweep_rejects_unknown_on_error_policy():
    with pytest.raises(ValueError):
        ScenarioSweep(on_error="ignore")


def test_sweep_on_error_zero_records_failure_as_zero_attainment(monkeypatch):
    """A scenario the plan cannot survive scores 0 instead of aborting the sweep."""
    from repro.core.exceptions import SchedulingError
    from repro.scenarios import sweep as sweep_module

    scenarios = [
        get_scenario("diurnal", duration=SMOKE_DURATION),
        get_scenario("bursty", duration=SMOKE_DURATION),
    ]
    real_run = sweep_module._run_scenario

    def failing_run(sweep, scenario, cluster, model, plan):
        if scenario.name == "bursty":
            raise SchedulingError("injected: rescheduling infeasible")
        return real_run(sweep, scenario, cluster, model, plan)

    monkeypatch.setattr(sweep_module, "_run_scenario", failing_run)

    strict = ScenarioSweep(scenarios, seed=2)
    with pytest.raises(SchedulingError):
        # Dummy cluster/model/plan are fine: the failure fires before serving.
        strict.evaluate(*_tiny_serving_context())

    lenient = ScenarioSweep(scenarios, seed=2, on_error="zero")
    outcomes = lenient.evaluate(*_tiny_serving_context())
    assert outcomes["bursty"].attainment_e2e == 0.0
    assert outcomes["bursty"].error is not None
    assert "injected" in outcomes["bursty"].error
    assert outcomes["diurnal"].error is None
    assert outcomes["diurnal"].num_requests > 0

    summary = ScenarioSweep.summarize(outcomes)
    assert summary["worst_scenario"] == "bursty"
    assert summary["worst_attainment"] == 0.0


_TINY_CONTEXT = {}


def _tiny_serving_context():
    """One shared (cluster, model, plan) for the on_error tests (built once)."""
    if not _TINY_CONTEXT:
        from repro.hardware.cluster import make_two_datacenter_cluster
        from repro.model.architecture import get_model_config

        cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
        model = get_model_config("llama-30b")
        scheduler = Scheduler(
            SchedulerConfig(
                tabu=TabuSearchConfig(num_steps=4, num_neighbors=3, memory_size=5, patience=3),
                seed=0,
            )
        )
        plan = scheduler.schedule(
            cluster, model, CONVERSATION_WORKLOAD, request_rate=3.0
        ).plan
        _TINY_CONTEXT["ctx"] = (cluster, model, plan)
    return _TINY_CONTEXT["ctx"]


def test_tenant_attainment_columns_match_object_oracle():
    """Per-tenant attainment from columns equals the ``SLOSpec.is_met`` oracle.

    Covers both column paths: the sweep's per-tier attainment (each tenant at
    its own SLO) and the live loop's per-window telemetry (one system SLO).
    """
    cluster, model, plan = _tiny_serving_context()
    tiers = (
        TenantTier("gold", CONVERSATION_WORKLOAD, share=0.2, slo_scale=8.0),
        TenantTier("silver", CONVERSATION_WORKLOAD, share=0.5, slo_scale=16.0),
        TenantTier("bronze", CODING_WORKLOAD, share=0.3, slo_scale=32.0),
    )
    scenario = MultiTenantSLOTiersScenario(request_rate=1.5, duration=30.0, tiers=tiers)
    trace = scenario.build_trace(seed=5)

    def oracle(metrics, slo):
        by_tenant = {}
        for m in metrics:
            tenant = m.request.workload.split(":", 1)[1]
            by_tenant.setdefault(tenant, []).append(slo.is_met(m, SLOType.E2E))
        return {tenant: sum(hits) / len(hits) for tenant, hits in by_tenant.items()}

    system = ThunderServe(cluster, model, scenario.planning_workload(), scenario.request_rate)
    system.adopt_plan(plan)
    result = system.serve(trace)
    sweep = ScenarioSweep([scenario], seed=0)
    per_tier = sweep._tenant_attainment(scenario, result, model)
    attained = []
    for tier in tiers:
        slo = a100_reference_latency(model, tier.workload, params=sweep.params).slo_spec(
            tier.slo_scale
        )
        expected = oracle(result.metrics, slo)[tier.tenant]
        assert per_tier[tier.tenant] == expected, tier.tenant
        attained.append(expected)
    assert 0.0 < min(attained) < 1.0, "the oracle must see both hits and misses"

    config = LiveServeConfig(window_s=4.0, reschedule_online=False)
    report = LiveServer(system, config).run(trace)
    for window, window_result in zip(report.windows, report.results):
        expected = oracle(window_result.metrics, system.slo)
        assert window.per_tenant_attainment == dict(sorted(expected.items()))


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        ScenarioSweep.summarize({})


# ------------------------------------------------------------ faulted scenarios
def test_only_spot_preemption_has_a_fault_schedule(cloud_cluster):
    for scenario in smoke_scenarios():
        schedule = scenario.fault_schedule(cloud_cluster, seed=0)
        assert isinstance(schedule, FaultSchedule)
        assert bool(len(schedule)) == (scenario.name == "spot-preemption"), scenario.name


@pytest.mark.parametrize("mode", SpotPreemptionScenario.RESCHEDULE_MODES)
def test_sweep_serves_faulted_scenarios_through_live_loop(monkeypatch, mode):
    """A faulted scenario runs ``LiveServer`` with the sweep's overrides.

    The schedule is the scenario's own (seeded per scenario), replans try the
    scenario's mode and then ``"none"``, breach and shift rescheduling are off
    without ``adaptive``, and every other ``live_config`` field is kept.
    """
    from repro.faults.retry import RetryPolicy
    from repro.scenarios import sweep as sweep_module

    configs = []

    class SpyServer(LiveServer):
        def __init__(self, system, config=None, **kwargs):
            configs.append(config)
            super().__init__(system, config, **kwargs)

    monkeypatch.setattr(sweep_module, "LiveServer", SpyServer)
    cluster, model, plan = _tiny_serving_context()
    spot = SpotPreemptionScenario(
        duration=SMOKE_DURATION, gpus_per_preemption=1, reschedule_mode=mode
    )
    scenarios = [spot, get_scenario("diurnal", duration=SMOKE_DURATION)]
    retry = RetryPolicy.drop_only()
    live_config = LiveServeConfig(window_s=4.0, retry_policy=retry)
    sweep = ScenarioSweep(scenarios, seed=3, live_config=live_config)
    outcomes = sweep.evaluate(cluster, model, plan)

    (config,) = configs  # diurnal has no schedule: one batch serve()
    assert config.faults == spot.fault_schedule(
        cluster, seed=sweep._derive_seed(spot.name, "failures")
    )
    assert config.failure_mode_order == tuple(dict.fromkeys((mode, "none")))
    assert not config.reschedule_online
    assert config.window_s == 4.0 and config.retry_policy is retry
    assert live_config.faults is None, "the caller's config is not mutated"

    faulted, batch = outcomes[spot.name], outcomes["diurnal"]
    assert batch.windows == [] and batch.num_plan_changes == 0
    assert faulted.windows and faulted.result.num_requests == faulted.num_requests
    assert sum(w.num_requests for w in faulted.windows) == faulted.num_requests
    assert not any(w.plan_changed for w in faulted.windows)
    assert faulted.outcome_counts["retried_then_finished"] == 0


# ----------------------------------------------------------- plan-change counter
def test_plan_change_counter_zero_without_failures():
    """A scenario with no failure events reports exactly zero plan changes."""
    cluster, model, plan = _tiny_serving_context()
    scenario = get_scenario("diurnal", duration=SMOKE_DURATION)
    sweep = ScenarioSweep([scenario], seed=0)
    outcome = sweep._run_one(scenario, cluster, model, plan)
    assert outcome.num_plan_changes == 0


def test_plan_change_counter_never_negative_without_install_event(monkeypatch):
    """Counting is anchored at the adoption snapshot, not ``installs - 1``.

    A system that starts serving without a recorded ``plan_installed`` event
    (the old code subtracted a hard-coded 1 and went to -1 here) must report
    zero plan changes.
    """
    cluster, model, plan = _tiny_serving_context()

    def quiet_adopt(self, plan, reason="quiet"):
        # Install the plan without appending a ``plan_installed`` event,
        # emulating a pre-provisioned system that never went through
        # ``adopt_plan``/``deploy``.
        self.plan = plan
        self._simulator = None
        self.profiler.set_reference_from_spec(self.workload, self.request_rate)
        return plan

    monkeypatch.setattr(ThunderServe, "adopt_plan", quiet_adopt)
    scenario = get_scenario("diurnal", duration=SMOKE_DURATION)
    sweep = ScenarioSweep([scenario], seed=0)
    outcome = sweep._run_one(scenario, cluster, model, plan)
    assert outcome.num_plan_changes == 0, (
        f"plan-change counter went to {outcome.num_plan_changes} on a system "
        "with no prior install event"
    )


# ------------------------------------------------------- failure-window boundary
def _boundary_trace(times):
    """A tiny trace with one conversation-shaped request per arrival time."""
    from repro.core.types import Request
    from repro.workload.trace import Trace

    requests = [
        Request(
            request_id=i,
            arrival_time=t,
            input_length=128,
            output_length=16,
            workload="conversation",
        )
        for i, t in enumerate(times)
    ]
    return Trace(requests=requests, name="boundary")


def _live_fault_run(trace, schedule, window_s):
    """Serve ``trace`` through the live loop with the sweep's fault settings."""
    cluster, model, plan = _tiny_serving_context()
    system = ThunderServe(cluster, model, CONVERSATION_WORKLOAD, request_rate=1.0)
    system.adopt_plan(plan)
    config = LiveServeConfig(
        window_s=window_s,
        faults=schedule,
        reschedule_online=False,
    )
    return LiveServer(system, config).run(trace, label="faulted")


@pytest.mark.parametrize("num_events", [1, 2])
def test_request_at_failure_time_served_exactly_once(num_events):
    """A request arriving exactly at a preemption on a window boundary is served once.

    ``Trace.window`` is half-open ``[start, end)``: the window ending at the
    boundary excludes the boundary arrival and the next window includes it.
    The preemption at the boundary applies in-engine in the later window, so
    with one or two *coincident* events every request still appears exactly
    once in the merged result.
    """
    cluster, _, _ = _tiny_serving_context()
    boundary = 6.0
    trace = _boundary_trace([1.0, boundary - 0.5, boundary, boundary + 0.5, 10.0])
    victims = [(cluster.gpu_ids[0],), (cluster.gpu_ids[-1],)][:num_events]
    schedule = FaultSchedule.from_events(
        [FaultEvent(time=boundary, kind=FaultKind.GPU_PREEMPTION, gpu_ids=v) for v in victims]
    )
    # Windows start at the first arrival (1.0), so the second one opens at 6.0.
    report = _live_fault_run(trace, schedule, window_s=boundary - 1.0)
    assert [w.start for w in report.windows] == [1.0, boundary]
    assert len(report.fault_log) == num_events
    merged = report.merged
    assert sorted(merged.arrays.request_id.tolist()) == [0, 1, 2, 3, 4], (
        "every request served exactly once"
    )
    before, after = report.results
    assert boundary not in before.arrays.arrival_time.tolist()
    assert after.arrays.arrival_time.tolist().count(boundary) == 1
    # The boundary request belongs to the later window: it cannot have been
    # enqueued before the window (and the preemption) began.
    (boundary_metrics,) = [m for m in merged.metrics if m.request.arrival_time == boundary]
    assert boundary_metrics.enqueue_time >= boundary


def test_count_based_event_can_reach_total_loss():
    """``gpus_per_preemption`` above the cluster size pins every GPU.

    Nothing is clamped alive: the one preemption reclaims the whole cluster.
    Arrivals before it finish; arrivals after it are ``dropped_outage`` —
    in-engine inside the fault window, and as never-routed rows of the
    zero-attainment outage window that follows.
    """
    from repro.core.types import RequestOutcome

    cluster, _, _ = _tiny_serving_context()
    scenario = SpotPreemptionScenario(
        duration=12.0, preemption_fractions=(0.5,), gpus_per_preemption=cluster.num_gpus + 5
    )
    schedule = scenario.fault_schedule(cluster, seed=0)
    (event,) = schedule
    assert event.time == 6.0
    assert sorted(event.gpu_ids) == sorted(cluster.gpu_ids)
    trace = _boundary_trace([1.0, 2.0, 6.5, 7.0, 10.0, 11.0])
    report = _live_fault_run(trace, schedule.validate(scenario.duration, cluster), 4.0)
    assert [w.outage for w in report.windows] == [False, False, True]
    result = report.merged
    assert result.num_requests == 6
    dropped = sorted(
        m.request.request_id
        for m in result.metrics
        if m.outcome is RequestOutcome.DROPPED_OUTAGE
    )
    assert dropped == [2, 3, 4, 5], "every post-loss arrival is dropped"
    finished = sorted(m.request.request_id for m in result.metrics if m.finished)
    assert finished == [0, 1], "pre-loss arrivals still complete"
    assert result.outcome_counts()["dropped_outage"] == 4
    # The outage window's requests were never routed: the replica columns hold
    # the sentinel and the object view turns it back into ``None``.
    outage = report.results[-1]
    assert list(outage.arrays.prefill_replica) == [NO_REPLICA, NO_REPLICA]
    assert list(outage.arrays.decode_replica) == [NO_REPLICA, NO_REPLICA]
    for m in result.metrics[4:]:
        assert m.prefill_replica is None and m.decode_replica is None
        assert not m.finished and m.attempts == 0
    for m in result.metrics[:2]:
        assert m.prefill_replica is not None and m.decode_replica is not None
