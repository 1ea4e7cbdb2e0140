"""ScenarioSweep: evaluate one deployment plan across the whole scenario library.

The sweep schedules once (or adopts a caller-provided plan) and then serves every
scenario concurrently on its own :class:`~repro.serving.system.ThunderServe`
instance via ``concurrent.futures`` — scenarios are independent simulations over
immutable shared inputs (cluster, model, plan), so both thread- and process-level
parallelism are safe.  ``executor="process"`` runs each scenario in its own
interpreter (plans, clusters and scenarios are picklable value objects), letting
long multi-scenario sweeps escape the GIL — the simulators are pure Python, so
threads serialise on long traces.  A scenario with a fault schedule
(:meth:`~repro.scenarios.base.Scenario.fault_schedule`) is served through the
live loop (:class:`~repro.serving.live.LiveServer`), the one fault path of the
package: the engine applies each capacity loss at its exact instant, in-flight
work is retried under ``LiveServeConfig.retry_policy``, and the loop replans
with the scenario's rescheduling mode at the next window boundary.
"""

from __future__ import annotations

import time
import zlib
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SchedulingError
from repro.core.types import SLOType
from repro.costmodel.latency import CostModelParams, DEFAULT_PARAMS
from repro.costmodel.reference import a100_reference_latency
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.scenarios.base import Scenario, scenario_slo
from repro.scenarios.library import MultiTenantSLOTiersScenario
from repro.scenarios.registry import default_scenarios
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.scheduler import SchedulerConfig
from repro.serving.live import LiveServeConfig, LiveServer, WindowTelemetry
from repro.serving.system import ThunderServe
from repro.simulation.engine import SimulatorConfig
from repro.simulation.metrics import SimulationResult
from repro.utils.tables import format_table


@dataclass
class ScenarioOutcome:
    """Aggregate result of serving one scenario with one deployment plan."""

    scenario: str
    description: str
    num_requests: int
    num_finished: int
    slo_scale: float
    attainment_e2e: float
    attainment_ttft: float
    attainment_tpot: float
    output_token_throughput: float
    mean_e2e: float
    num_plan_changes: int
    elapsed_s: float
    #: per-tenant E2E attainment at each tenant's own SLO tier (multi-tenant only)
    per_tenant_attainment: Dict[str, float] = field(default_factory=dict)
    #: the merged simulation result, for downstream analysis
    result: Optional[SimulationResult] = None
    #: serving failure captured under ``on_error="zero"`` (None on success)
    error: Optional[str] = None
    #: per-window telemetry stream of live-served scenarios (faulted ones, or
    #: every scenario of an adaptive sweep; empty for batch serving).  Each
    #: record carries the ``plan_id`` the window was served with, whether a
    #: new plan was installed after it, and whether it was a total-capacity
    #: ``outage`` (every arrival a zero-attainment ``dropped_outage`` miss).
    windows: List[WindowTelemetry] = field(default_factory=list)
    #: request count per :class:`~repro.core.types.RequestOutcome` name over
    #: the merged result (empty only for ``on_error="zero"`` failures)
    outcome_counts: Dict[str, int] = field(default_factory=dict)


class ScenarioSweep:
    """Run a library of scenarios against one deployment plan, concurrently.

    Parameters
    ----------
    scenarios:
        The scenarios to run; defaults to one instance of every registered
        scenario (:func:`~repro.scenarios.registry.default_scenarios`).
    seed:
        Base seed; each scenario derives its own deterministic stream from it.
    max_workers:
        Pool width (defaults to one worker per scenario).
    executor:
        ``"thread"`` (default) or ``"process"``.  Process mode serves every
        scenario in its own interpreter via :class:`ProcessPoolExecutor`,
        sidestepping the GIL for long traces; outcomes are identical because
        each scenario's seeds derive only from the sweep seed and its name.
    scheduler_config, simulator_config, params:
        Forwarded to the per-scenario serving systems.
    on_error:
        ``"raise"`` (default) propagates a scenario's serving failure and aborts
        the sweep; ``"zero"`` records a :class:`SchedulingError` as a
        zero-attainment :class:`ScenarioOutcome` (``error`` carries the
        message) and keeps the other scenarios.  Use ``"zero"`` to compare a
        plan across scenarios: a plan that cannot survive a scenario — e.g.
        rescheduling is infeasible after a preemption — has operationally
        failed it, which is signal, not an abort-worthy exception.
        Non-scheduling exceptions (worker crashes, pickling problems)
        propagate under both policies.
    adaptive:
        When ``True``, every scenario is served through the live adaptive
        loop (:class:`~repro.serving.live.LiveServer`) instead of one batch
        ``serve()`` call: SLO breaches and workload shifts trigger lightweight
        rescheduling between windows.  Scenarios with a fault schedule always
        take the live loop; without ``adaptive`` only their capacity losses
        trigger replans.  Each live-served outcome's ``windows`` field carries
        the per-window telemetry stream (plan id, attainment, estimated rho,
        breaches, outages).
    live_config:
        :class:`~repro.serving.live.LiveServeConfig` for live serving (window
        length, validation, retry policy); defaults to
        ``LiveServeConfig()``.  The sweep overrides ``faults`` and
        ``failure_mode_order`` per scenario, and ``reschedule_online`` is
        kept only when ``adaptive``.
    """

    EXECUTORS = ("thread", "process")
    ON_ERROR = ("raise", "zero")

    def __init__(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        seed: int = 0,
        max_workers: Optional[int] = None,
        executor: str = "thread",
        scheduler_config: Optional[SchedulerConfig] = None,
        simulator_config: Optional[SimulatorConfig] = None,
        params: CostModelParams = DEFAULT_PARAMS,
        on_error: str = "raise",
        adaptive: bool = False,
        live_config: Optional[LiveServeConfig] = None,
    ) -> None:
        self.scenarios: Tuple[Scenario, ...] = (
            tuple(scenarios) if scenarios is not None else default_scenarios()
        )
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")
        if executor not in self.EXECUTORS:
            raise ValueError(f"executor must be one of {self.EXECUTORS}, got {executor!r}")
        if on_error not in self.ON_ERROR:
            raise ValueError(f"on_error must be one of {self.ON_ERROR}, got {on_error!r}")
        self.on_error = on_error
        self.seed = seed
        self.max_workers = max_workers
        self.executor = executor
        self.scheduler_config = scheduler_config
        self.simulator_config = simulator_config
        self.params = params
        self.adaptive = adaptive
        self.live_config = live_config

    # ------------------------------------------------------------------ seeds
    def _derive_seed(self, text: str, salt: str) -> int:
        """Deterministic seed from the sweep seed and a label, per purpose."""
        digest = zlib.crc32(f"{salt}:{text}".encode())
        return (self.seed * 1000003 + digest) % (2**31 - 1)

    def _scenario_seed(self, scenario: Scenario) -> int:
        """Per-scenario trace seed, independent of sweep composition."""
        return self._derive_seed(scenario.name, "trace")

    # ------------------------------------------------------------------ evaluate
    def evaluate(
        self,
        cluster: Cluster,
        model: ModelConfig,
        plan: DeploymentPlan,
    ) -> Dict[str, ScenarioOutcome]:
        """Serve every scenario with ``plan`` and return outcomes keyed by name."""
        workers = max(1, self.max_workers or len(self.scenarios))
        pool_cls = ProcessPoolExecutor if self.executor == "process" else ThreadPoolExecutor
        with pool_cls(max_workers=workers) as pool:
            futures = {
                scenario: pool.submit(_run_scenario, self, scenario, cluster, model, plan)
                for scenario in self.scenarios
            }
            outcomes: Dict[str, ScenarioOutcome] = {}
            for scenario, fut in futures.items():
                try:
                    outcomes[scenario.name] = fut.result()
                except SchedulingError as exc:
                    # Only the documented serving-failure class is demoted to a
                    # zero outcome; infrastructure errors (broken pools, pickle
                    # failures) always propagate — a scenario that never ran is
                    # not a scenario the plan failed.
                    if self.on_error == "raise":
                        raise
                    outcomes[scenario.name] = self._failed_outcome(scenario, exc)
            return outcomes

    def _failed_outcome(self, scenario: Scenario, exc: Exception) -> ScenarioOutcome:
        """Zero-attainment outcome for a scenario the plan could not survive."""
        return ScenarioOutcome(
            scenario=scenario.name,
            description=scenario.description,
            num_requests=0,
            num_finished=0,
            slo_scale=scenario.slo_scale(),
            attainment_e2e=0.0,
            attainment_ttft=0.0,
            attainment_tpot=0.0,
            output_token_throughput=0.0,
            mean_e2e=float("inf"),
            num_plan_changes=0,
            elapsed_s=0.0,
            error=f"{type(exc).__name__}: {exc}",
        )

    def _build_system(
        self, scenario: Scenario, cluster: Cluster, model: ModelConfig
    ) -> ThunderServe:
        workload = scenario.planning_workload()
        # The scenario's own SLO tier must govern any mid-run rescheduling, not
        # ThunderServe's default 5x reference scale.
        slo = scenario_slo(scenario, model, params=self.params)
        return ThunderServe(
            cluster,
            model,
            workload,
            scenario.request_rate,
            slo=slo,
            scheduler_config=self.scheduler_config,
            simulator_config=self.simulator_config,
            params=self.params,
        )

    def _run_one(
        self,
        scenario: Scenario,
        cluster: Cluster,
        model: ModelConfig,
        plan: DeploymentPlan,
    ) -> ScenarioOutcome:
        start = time.perf_counter()
        trace = scenario.build_trace(seed=self._scenario_seed(scenario))
        system = self._build_system(scenario, cluster, model)
        system.adopt_plan(plan, reason=f"scenario sweep: {scenario.name}")

        schedule = scenario.fault_schedule(
            cluster, seed=self._derive_seed(scenario.name, "failures")
        )
        windows: List[WindowTelemetry] = []
        plan_changes = 0
        if len(schedule) or self.adaptive:
            base = self.live_config or LiveServeConfig()
            config = replace(
                base,
                faults=schedule.validate(scenario.duration, cluster),
                failure_mode_order=tuple(dict.fromkeys((scenario.rescheduling_mode(), "none"))),
                reschedule_online=base.reschedule_online and self.adaptive,
            )
            live_report = LiveServer(system, config).run(trace, label=scenario.name)
            result = live_report.merged
            windows = live_report.windows
            plan_changes = live_report.num_plan_changes
        else:
            result = system.serve(trace, label=scenario.name)

        slo = system.reference.slo_spec(scenario.slo_scale())
        per_tenant: Dict[str, float] = {}
        if isinstance(scenario, MultiTenantSLOTiersScenario):
            per_tenant = self._tenant_attainment(scenario, result, model)
        return ScenarioOutcome(
            scenario=scenario.name,
            description=scenario.description,
            num_requests=result.num_requests,
            num_finished=result.num_finished,
            slo_scale=scenario.slo_scale(),
            attainment_e2e=result.slo_attainment(slo, SLOType.E2E),
            attainment_ttft=result.slo_attainment(slo, SLOType.TTFT),
            attainment_tpot=result.slo_attainment(slo, SLOType.TPOT),
            output_token_throughput=result.output_token_throughput,
            mean_e2e=result.mean(SLOType.E2E),
            num_plan_changes=plan_changes,
            elapsed_s=time.perf_counter() - start,
            per_tenant_attainment=per_tenant,
            result=result,
            windows=windows,
            outcome_counts={k: int(v) for k, v in result.outcome_counts().items()},
        )

    def _tenant_attainment(
        self,
        scenario: MultiTenantSLOTiersScenario,
        result: SimulationResult,
        model: ModelConfig,
    ) -> Dict[str, float]:
        """E2E attainment of each tenant's requests at its own SLO tier."""
        per_tenant: Dict[str, float] = {}
        a = result.arrays
        for tier in scenario.tiers:
            rows = a.workload == f"tenant:{tier.tenant}"
            total = int(np.count_nonzero(rows))
            if not total:
                per_tenant[tier.tenant] = 0.0
                continue
            reference = a100_reference_latency(model, tier.workload, params=self.params)
            slo = reference.slo_spec(tier.slo_scale)
            hits = int(np.count_nonzero(rows & a.meets(slo, SLOType.E2E)))
            per_tenant[tier.tenant] = hits / total
        return per_tenant

    # ------------------------------------------------------------------ reporting
    @staticmethod
    def summarize(outcomes: Dict[str, ScenarioOutcome]) -> Dict[str, object]:
        """Cross-scenario aggregate of a sweep.

        The worst and mean attainment are what the scheduler's estimate of a
        plan should be checked against: served numbers, per scenario.

        Returns
        -------
        dict
            ``worst_scenario`` (name of the lowest-E2E-attainment scenario),
            ``worst_attainment`` / ``mean_attainment`` (its and the mean E2E
            attainment), ``plan_changes`` (per-scenario mapping of the
            mid-serve plan-change counter — installs after plan adoption,
            i.e. every lightweight rescheduling the scenario triggered) and
            ``total_plan_changes`` (their sum across the sweep).
        """
        if not outcomes:
            raise ValueError("cannot summarize an empty sweep")
        worst = min(outcomes, key=lambda name: outcomes[name].attainment_e2e)
        values = [o.attainment_e2e for o in outcomes.values()]
        plan_changes = {name: o.num_plan_changes for name, o in sorted(outcomes.items())}
        return {
            "worst_scenario": worst,
            "worst_attainment": outcomes[worst].attainment_e2e,
            "mean_attainment": sum(values) / len(values),
            "plan_changes": plan_changes,
            "total_plan_changes": sum(plan_changes.values()),
        }

    @staticmethod
    def to_table(outcomes: Dict[str, ScenarioOutcome], precision: int = 3) -> str:
        """Render sweep outcomes as an aligned text table."""
        headers = [
            "scenario", "requests", "finished", "slo_scale",
            "att_e2e", "att_ttft", "att_tpot", "tok/s", "plan_changes",
        ]
        rows = [
            [
                o.scenario, o.num_requests, o.num_finished, o.slo_scale,
                o.attainment_e2e, o.attainment_ttft, o.attainment_tpot,
                o.output_token_throughput, o.num_plan_changes,
            ]
            for _, o in sorted(outcomes.items())
        ]
        return format_table(headers, rows, precision=precision, title="Scenario sweep")


def _run_scenario(
    sweep: ScenarioSweep,
    scenario: Scenario,
    cluster: Cluster,
    model: ModelConfig,
    plan: DeploymentPlan,
) -> ScenarioOutcome:
    """Module-level worker so process pools can pickle tasks under any start method."""
    return sweep._run_one(scenario, cluster, model, plan)


__all__ = ["ScenarioSweep", "ScenarioOutcome"]
