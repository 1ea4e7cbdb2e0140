"""Live adaptive serving: a time-warped windowed loop with SLO observability.

This module promotes :class:`~repro.serving.system.ThunderServe` from batch
simulation to a long-running service.  :class:`LiveServer` replays a request
trace against the fast engine in bounded windows on a *time-warped* serving
clock (the loop advances the clock window by window instead of sleeping, so a
two-hour trace replays in seconds while keeping wall-clock semantics), and per
window it

1. estimates the health of the installed plan for the window's observed
   request mix with the M/G/1 :class:`~repro.scheduling.estimator.SLOEstimator`
   (per-replica utilisation ``rho`` and routed attainment);
2. serves the window through the engine and measures a telemetry snapshot
   (:class:`WindowTelemetry` — attainment, queue wait, per-tenant breakdown,
   plan id);
3. judges the window under the fixed two-tier SLO policy
   (:func:`~repro.serving.slo_objectives.judge_window`: realtime or degraded
   from the window's attainment and estimated ``rho``, then that profile's
   objectives) and emits edge-triggered breach events; and
4. on a breach — or a profiler-detected workload shift — triggers the §3.4
   lightweight rescheduler online, so the next window is served by a plan
   re-designated for the observed workload; and
5. optionally replays a :class:`~repro.faults.FaultSchedule` against the loop:
   capacity events inside the window are compiled into a replica-level
   :class:`~repro.faults.FaultTimeline` and handed to the engine, which
   preempts in-flight work at the exact fault instant and retries it under the
   configured :class:`~repro.faults.RetryPolicy`; at the next window boundary
   the same events fold into the cluster state, where capacity loss triggers a
   failure replan chain with bounded retry/backoff, capacity recovery triggers
   a (shadow-validated) full-scheduler re-expansion replan, network
   degradation and straggler slowdowns reprice the engine transparently, and a
   window with no servable plan (total-capacity outage, or every replan
   failed) is recorded with every arrival dropped instead of crashing the run.

One switch, :attr:`LiveServeConfig.reschedule_online`, gates the workload
reaction (step 4); the fault reaction follows
:attr:`LiveServeConfig.failure_mode_order` — ``("none",)`` drops dead groups
without re-optimising and leaves rejoined GPUs idle.

Every window — served or not — goes through one tail: measure the telemetry
record, fill its fault fields, judge the SLO profile, update the breach
tracker and fire the callbacks.  Plan changes only happen *between* windows,
which keeps the loop auditable: replaying each window's sub-trace against its
recorded plan — and, for windows with mid-window faults, the same compiled
fault timeline — in independent batch simulations reproduces the live run's
metrics exactly (the piecewise-static equivalence contract, enforced by the
test suite).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.exceptions import InvalidPlanError, SchedulingError
from repro.core.types import OUTCOME_NAMES, SLOType
from repro.faults.retry import RetryPolicy
from repro.faults.state import AppliedFault, ClusterFaultState
from repro.faults.taxonomy import CAPACITY_LOSS_KINDS, FaultKind, FaultSchedule
from repro.faults.timeline import FaultTimeline, compile_fault_timeline
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy
from repro.scheduling.estimator import SLOEstimator
from repro.serving.slo_objectives import BreachEvent, SLOBreachTracker, judge_window
from repro.serving.system import ThunderServe
from repro.simulation.metrics import MetricArrays, SimulationResult, merge_results
from repro.workload.trace import Trace

#: Replan strategy after a capacity recovery: the §3.4 flip-only rescheduler
#: cannot place new groups on revived GPUs, so re-expansion needs the whole
#: scheduler.
_RECOVERY_MODE = "full"
#: Consecutive failed replan attempts tolerated before the loop backs off.
_REPLAN_MAX_RETRIES = 2
#: Replan attempts skipped once the loop backs off.
_REPLAN_BACKOFF_WINDOWS = 1
#: JSON decoders of the scalar :class:`WindowTelemetry` fields, by annotation.
_SCALARS = {"int": int, "float": float, "str": str, "bool": bool}


def _count_installs(system: ThunderServe) -> int:
    """Number of ``plan_installed`` events in the system's event log."""
    return sum(1 for e in system.events if e.kind == "plan_installed")


def plan_signature(plan: DeploymentPlan) -> str:
    """Stable short identifier of a deployment plan's structure.

    Hashes the group construction (GPU sets, phases, stage layouts) and the
    routing weights (rounded to 1e-6), so two plans that serve identically get
    the same id and any rescheduling that changed phases *or* routing gets a
    new one.  Used as the ``plan_id`` surfaced in windowed telemetry.
    """
    parts: List[object] = []
    for group in sorted(plan.groups, key=lambda g: g.group_id):
        stages: Tuple = ()
        if group.plan is not None:
            stages = tuple(
                (tuple(st.gpu_ids), st.num_layers, st.tp) for st in group.plan.stages
            )
        parts.append((group.group_id, tuple(group.gpu_ids), group.phase.value, stages))
    if plan.routing is not None:
        parts.append(tuple(round(float(v), 6) for v in plan.routing.prefill_weights))
        parts.append(
            tuple(tuple(round(float(v), 6) for v in row) for row in plan.routing.dispatch)
        )
    return f"{zlib.crc32(repr(parts).encode()) & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class PlanHealth:
    """Estimator view of how the installed plan handles an observed window."""

    #: highest per-prefill-replica utilisation implied by the routing
    rho: float
    #: routed estimated E2E attainment (``sum_ij z_ij * D_ij``)
    attainment: float
    #: arrival rate (requests/s) the estimate was computed for
    request_rate: float


@dataclass
class WindowTelemetry:
    """Telemetry snapshot of one served window of the live loop."""

    #: index of the window within the run (served windows only)
    index: int
    #: window start / end on the serving clock (seconds)
    start: float
    end: float
    #: structural id of the plan the window was served with
    plan_id: str
    #: SLO profile the window was judged under (``realtime`` / ``degraded``)
    profile: str
    #: requests that arrived / finished in the window
    num_requests: int
    num_finished: int
    #: observed arrival rate over the window (requests/s)
    request_rate: float
    #: served SLO attainment at the system deadline, per SLO type
    attainment_e2e: float
    attainment_ttft: float
    attainment_tpot: float
    #: mean simulated queue wait of finished requests (0 when none finished)
    mean_queue_wait: float
    #: fraction of arrived requests that finished within the window horizon
    completion_rate: float
    #: estimator utilisation / attainment of the plan for the observed mix
    estimated_rho: float
    estimated_attainment: float
    #: whether a new plan was installed at the end of this window
    plan_changed: bool = False
    #: breach events emitted by this window's SLO evaluation
    breaches: Tuple[BreachEvent, ...] = ()
    #: per-tenant E2E attainment for ``"tenant:*"``-tagged requests
    per_tenant_attainment: Dict[str, float] = field(default_factory=dict)
    #: whether no servable plan existed for the window (nothing served)
    outage: bool = False
    #: whether any injected fault was active while the window was served
    degraded: bool = False
    #: human-readable fault events applied at this window's start
    faults: Tuple[str, ...] = ()
    #: GPUs alive when the window was served (``-1`` when fault injection is off)
    num_gpus_alive: int = -1
    #: capacity replan installed at this window's start (``""``/``failure``/``recovery``)
    replan_trigger: str = ""
    #: request count per :class:`~repro.core.types.RequestOutcome` name
    #: (sums to ``num_requests``)
    outcome_counts: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable dict form of the record."""
        data: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "breaches":
                value = [b.to_dict() for b in value]
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WindowTelemetry":
        """Rebuild a record from its dict form (inverse of :meth:`to_dict`).

        Fields with a default may be absent (records written before the
        field existed); the default fills in.
        """
        kwargs: Dict[str, object] = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.name == "breaches":
                value = tuple(BreachEvent.from_dict(b) for b in value)  # type: ignore[union-attr]
            elif f.type in _SCALARS:
                value = _SCALARS[f.type](value)
            elif f.type.startswith("Tuple"):
                value = tuple(value)  # type: ignore[arg-type]
            elif f.type.startswith("Dict"):
                value = dict(value)  # type: ignore[call-overload]
            kwargs[f.name] = value
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass
class LiveServeConfig:
    """Configuration of the live serving loop.

    Parameters
    ----------
    window_s:
        Serving window length on the time-warped clock (seconds of trace time).
    reschedule_online:
        React to the workload: after each window, trigger the §3.4
        lightweight rescheduler
        (:meth:`~repro.serving.system.ThunderServe.reschedule_online`) when
        the window emitted breach events or, failing that, when the workload
        profiler detects a shift.  Off, the plan only changes through fault
        replans.
    validate_reschedule:
        Shadow-validate every rescheduling candidate by replaying the window
        just served under it: the candidate is adopted only when it strictly
        beats the incumbent plan's simulated attainment on that window (see
        :meth:`~repro.serving.system.ThunderServe.reschedule_online`).  On by
        default — the estimator can mis-rank flip candidates near saturation,
        and an online loop must never adopt a plan that demonstrably serves
        the observed workload worse.  Recovery replans reuse the same guard
        non-strictly (ties keep the candidate, see
        :meth:`~repro.serving.system.ThunderServe.replan_capacity`).
    faults:
        Optional :class:`~repro.faults.FaultSchedule` to replay against the
        loop.  Capacity events (preemption, crash, recovery) inside a window
        are compiled into a replica-level timeline and applied *by the engine*
        at the exact fault instant — in-flight work on a dead replica is
        preempted and retried under ``retry_policy``; at the next window
        boundary the same events fold into the cluster state and drive
        replanning.  Non-capacity events (links, stragglers) still take effect
        at the boundary of the window containing their timestamp, keeping the
        piecewise-static contract: within a window the *plan* never changes.
    retry_policy:
        :class:`~repro.faults.RetryPolicy` governing the disposition of work
        preempted by mid-window capacity loss (attempt budget, backoff,
        deadline).  ``None`` (default) inherits the engine default — a
        bounded-retry :class:`~repro.faults.RetryPolicy` with exponential
        backoff; pass :meth:`~repro.faults.RetryPolicy.drop_only` to cancel
        preempted work instead.
    failure_mode_order:
        Replan strategies tried in order after a capacity loss; the first one
        that yields a servable plan wins.  Strategies are the Figure 11 modes
        accepted by :meth:`~repro.serving.system.ThunderServe.replan_capacity`.
        After two consecutive replan attempts in which every strategy failed,
        the loop skips the next attempt; meanwhile windows are served by the
        surviving plan — or recorded with every arrival dropped when no
        servable plan exists.  The order also sets the reaction to capacity
        recovery: a full-scheduler replan re-expands onto rejoined GPUs (the
        §3.4 flip-only rescheduler cannot place groups on them) unless the
        order is ``("none",)``, in which case dead groups are dropped,
        nothing re-optimises and rejoined GPUs stay idle — the static arm of
        a chaos comparison.

    Raises
    ------
    ValueError
        If ``window_s`` is not positive, ``failure_mode_order`` is empty, or
        a replan mode is unknown.
    """

    window_s: float = 30.0
    reschedule_online: bool = True
    validate_reschedule: bool = True
    faults: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    failure_mode_order: Tuple[str, ...] = ("lightweight", "none")

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        modes = ThunderServe.RESCHEDULE_MODES
        self.failure_mode_order = tuple(self.failure_mode_order)
        if not self.failure_mode_order:
            raise ValueError("failure_mode_order must name at least one mode")
        for mode in self.failure_mode_order:
            if mode not in modes:
                raise ValueError(
                    f"failure_mode_order entries must be one of {modes}, got {mode!r}"
                )


@dataclass
class LiveServeReport:
    """Everything a live run produced: telemetry, results and breach events."""

    #: per-window telemetry records, in serving order
    windows: List[WindowTelemetry]
    #: per-window simulation results (parallel to ``windows``)
    results: List[SimulationResult]
    #: the plan each window was served with (parallel to ``windows``)
    served_plans: List[DeploymentPlan]
    #: all breach events emitted across the run, in firing order
    breaches: List[BreachEvent]
    #: label of the run
    label: str = "live"
    #: fault-lifecycle log: one entry per applied fault event, in order
    fault_log: List[Dict[str, object]] = field(default_factory=list)
    #: plans installed during the run: every ``plan_installed`` event the run
    #: added to the system's event log (adaptations and fault replans alike,
    #: including replans at boundaries of windows without arrivals)
    num_plan_changes: int = 0

    @property
    def plan_ids(self) -> List[str]:
        """Plan id of every served window, in order."""
        return [w.plan_id for w in self.windows]

    @property
    def merged(self) -> SimulationResult:
        """All window results merged into one trace-level result."""
        return merge_results(self.results, label=self.label)

    def worst_window_attainment(self) -> float:
        """Lowest windowed E2E attainment of the run (1.0 for an empty run)."""
        if not self.windows:
            return 1.0
        return min(w.attainment_e2e for w in self.windows)

    def fault_stats(self) -> Dict[str, float]:
        """Summarise the run's fault lifecycle (all-zero without faults).

        Returns
        -------
        Dict[str, float]
            ``outage_windows`` / ``degraded_windows`` — window counts;
            ``attainment_under_failure`` — mean windowed E2E attainment of
            degraded windows (outages included; 1.0 when never degraded);
            ``attainment_healthy`` — same over fault-free windows;
            ``post_recovery_attainment`` — mean attainment from the last
            recovery-triggered replan onwards (1.0 when none happened);
            ``num_failure_replans`` / ``num_recovery_replans`` — served
            windows whose start installed a fault-triggered plan (replans at
            boundaries of windows without arrivals carry to the next served
            window; :attr:`num_plan_changes` counts every install); ``mean_time_to_replan_s``
            — mean delay from a capacity-loss event's instant (when the engine
            applies it) to the window boundary that installed the next
            successful replan;
            ``mean_mttr_s`` — mean time between a capacity-loss event and the
            recovery event that revived its GPUs; ``requests_<outcome>`` — the
            run-level request count per
            :class:`~repro.core.types.RequestOutcome` name, summed over the
            windowed ``outcome_counts``.
        """
        windows = self.windows
        degraded = [w.attainment_e2e for w in windows if w.degraded]
        healthy = [w.attainment_e2e for w in windows if not w.degraded]
        recovery_indices = [w.index for w in windows if w.replan_trigger == "recovery"]
        post = [
            w.attainment_e2e
            for w in windows
            if recovery_indices and w.index >= recovery_indices[-1]
        ]
        time_to_replan = [
            float(e["replanned_at"]) - float(e["time"])  # type: ignore[arg-type]
            for e in self.fault_log
            if e.get("replan_ok") and "replanned_at" in e
        ]
        loss_kinds = {"gpu_preemption", "node_crash"}
        mttr: List[float] = []
        for i, entry in enumerate(self.fault_log):
            if entry["kind"] != "recovery":
                continue
            revived = set(entry["gpu_ids"])  # type: ignore[arg-type]
            for prior in reversed(self.fault_log[:i]):
                if prior["kind"] in loss_kinds and revived & set(prior["gpu_ids"]):  # type: ignore[arg-type]
                    mttr.append(float(entry["time"]) - float(prior["time"]))  # type: ignore[arg-type]
                    break

        def _mean(values: List[float], default: float) -> float:
            return float(np.mean(values)) if values else default

        outcome_totals = {name: 0 for name in OUTCOME_NAMES}
        for w in windows:
            for name, count in w.outcome_counts.items():
                outcome_totals[name] = outcome_totals.get(name, 0) + int(count)
        return {
            **{f"requests_{name}": float(n) for name, n in outcome_totals.items()},
            "outage_windows": float(sum(1 for w in windows if w.outage)),
            "degraded_windows": float(len(degraded)),
            "attainment_under_failure": _mean(degraded, 1.0),
            "attainment_healthy": _mean(healthy, 1.0),
            "post_recovery_attainment": _mean(post, 1.0),
            "num_failure_replans": float(
                sum(1 for w in windows if w.replan_trigger == "failure")
            ),
            "num_recovery_replans": float(
                sum(1 for w in windows if w.replan_trigger == "recovery")
            ),
            "mean_time_to_replan_s": _mean(time_to_replan, 0.0),
            "mean_mttr_s": _mean(mttr, 0.0),
        }

    def to_dicts(self) -> List[Dict[str, object]]:
        """Return the windowed telemetry stream as JSON-serialisable dicts."""
        return [w.to_dict() for w in self.windows]


class LiveServer:
    """Windowed adaptive serving loop over a :class:`ThunderServe` system.

    Parameters
    ----------
    system:
        A deployed serving system (``deploy()`` / ``adopt_plan()`` must have
        installed a plan before :meth:`run`).
    config:
        Loop configuration; defaults to :class:`LiveServeConfig`.
    on_window:
        Optional callback invoked with each :class:`WindowTelemetry` as it is
        measured (the streaming telemetry hook).
    on_breach:
        Optional callback invoked with each :class:`BreachEvent` as it fires.
    """

    def __init__(
        self,
        system: ThunderServe,
        config: Optional[LiveServeConfig] = None,
        on_window: Optional[Callable[[WindowTelemetry], None]] = None,
        on_breach: Optional[Callable[[BreachEvent], None]] = None,
    ) -> None:
        self.system = system
        self.config = config or LiveServeConfig()
        self.on_window = on_window
        self.on_breach = on_breach
        self.tracker = SLOBreachTracker()
        self._reset()

    def _reset(self) -> None:
        """Clear the fault-injection loop state (done at the start of every run)."""
        self._fault_state: Optional[ClusterFaultState] = None
        self._pending_faults: List = []
        self._fault_log: List[Dict[str, object]] = []
        self._awaiting_replan: List[Dict[str, object]] = []
        self._last_window: Optional[Trace] = None
        self._replan_failures = 0
        self._replan_cooldown = 0
        self._unservable = False
        self._system_stale = False

    # ------------------------------------------------------------------ estimation
    def _routing(self, plan: DeploymentPlan) -> RoutingPolicy:
        """Return the plan's routing policy (uniform when the plan has none)."""
        if plan.routing is not None:
            return plan.routing
        return RoutingPolicy.uniform(
            [g.group_id for g in plan.prefill_groups],
            [g.group_id for g in plan.decode_groups],
        )

    def plan_health(self, window: Trace) -> PlanHealth:
        """Estimate the installed plan's health for one window's observed mix.

        Builds an M/G/1 :class:`~repro.scheduling.estimator.SLOEstimator` for
        the window's empirical workload (means and arrival rate) and prices the
        plan's routing through it at the operating points
        (:meth:`~repro.scheduling.estimator.SLOEstimator.operating_points`) the
        lower-level solver uses; the routed attainment aggregates the pair
        matrix exactly like the solver does.

        Returns
        -------
        PlanHealth
            ``rho`` (hottest prefill replica), routed E2E ``attainment`` and
            the ``request_rate`` the figures were computed for.
        """
        system = self.system
        plan = system.require_plan()
        rate = window.request_rate or system.request_rate
        from repro.workload.spec import WorkloadStats

        stats = WorkloadStats(
            mean_input_length=window.mean_input_length,
            mean_output_length=window.mean_output_length,
            request_rate=rate,
            num_requests=len(window),
        )
        estimator = SLOEstimator(
            system.cluster,
            system.model,
            stats.as_spec(name="live-window"),
            system.slo,
            rate,
            kv_transport_bits=plan.kv_transport_bits,
            params=system.params,
            prefill_batch_requests=system.simulator_config.max_prefill_batch_requests,
        )
        routing = self._routing(plan)
        prefills = [
            estimator.replica_performance(plan.group(gid))
            for gid in routing.prefill_group_ids
        ]
        decodes = [
            estimator.replica_performance(plan.group(gid))
            for gid in routing.decode_group_ids
        ]
        z = routing.joint
        utilizations, batches = estimator.operating_points(z, prefills, decodes)
        d = estimator.attainment_matrix(
            prefills, decodes, prefill_utilizations=utilizations, decode_batches=batches
        )
        return PlanHealth(
            rho=max(utilizations) if utilizations else 0.0,
            attainment=float((z * d).sum()),
            request_rate=rate,
        )

    # ------------------------------------------------------------------ telemetry
    def _measure(
        self,
        index: int,
        start: float,
        end: float,
        result: SimulationResult,
        health: PlanHealth,
        served_plan_id: str,
    ) -> WindowTelemetry:
        """Build the telemetry record of one window (served or not)."""
        slo = self.system.slo
        a = result.arrays
        fin = a.finished
        queue_waits = a.prefill_start[fin] - a.arrival_time[fin]
        met = a.meets(slo, SLOType.E2E)
        per_tenant: Dict[str, float] = {}
        for tag in sorted(set(a.workload.tolist())):
            if tag and tag.startswith("tenant:"):
                rows = a.workload == tag
                hits = int(np.count_nonzero(met & rows))
                per_tenant[tag.split(":", 1)[1]] = hits / int(np.count_nonzero(rows))
        return WindowTelemetry(
            index=index,
            start=start,
            end=end,
            plan_id=served_plan_id,
            profile="",  # judged by the caller (judge_window)
            num_requests=result.num_requests,
            num_finished=result.num_finished,
            request_rate=result.num_requests / (end - start) if end > start else 0.0,
            attainment_e2e=result.slo_attainment(slo, SLOType.E2E),
            attainment_ttft=result.slo_attainment(slo, SLOType.TTFT),
            attainment_tpot=result.slo_attainment(slo, SLOType.TPOT),
            mean_queue_wait=float(np.mean(queue_waits)) if queue_waits.size else 0.0,
            completion_rate=result.completion_rate,
            estimated_rho=health.rho,
            estimated_attainment=health.attainment,
            per_tenant_attainment=per_tenant,
            outcome_counts={k: int(v) for k, v in result.outcome_counts().items()},
        )

    # ------------------------------------------------------------------ faults
    def _fold_due_events(self, boundary: float) -> List[AppliedFault]:
        """Fold pending events due before ``boundary`` into the fault state and log.

        Each event goes through the :class:`ClusterFaultState` (idempotent
        against overlapping fail/recover sequences) and gets one fault-log
        entry; capacity-loss entries wait for the next successful failure
        replan.  Returns what each event changed, in order.
        """
        deltas: List[AppliedFault] = []
        while self._pending_faults and self._pending_faults[0].time < boundary:
            event = self._pending_faults.pop(0)
            delta = self._fault_state.apply(event)  # type: ignore[union-attr]
            deltas.append(delta)
            entry: Dict[str, object] = {
                "time": event.time,
                "kind": event.kind.value,
                "gpu_ids": list(event.gpu_ids),
                "applied_at": boundary,
                "replan_trigger": "",
                "replan_ok": False,
            }
            self._fault_log.append(entry)
            if event.kind in CAPACITY_LOSS_KINDS and delta.removed:
                self._awaiting_replan.append(entry)
        return deltas

    def _apply_due_faults(self, boundary: float) -> Tuple[Tuple[str, ...], str]:
        """Sync fault events due before the ``boundary`` into the serving system.

        ``boundary`` is the start of the window about to be served: events
        from already-served windows (whose capacity effect the engine already
        applied in-run) are folded (:meth:`_fold_due_events`), the system's
        cluster, network and straggler view is re-synced, and capacity changes
        trigger the failure/recovery replan chain.  Events inside the upcoming
        window stay pending — :meth:`_intra_window_faults` compiles them for
        the engine.  Afterwards ``_unservable`` tells whether the installed
        plan can serve the window.

        Returns
        -------
        Tuple[Tuple[str, ...], str]
            Descriptions of the events applied at this boundary and the
            replan installed here (``""`` / ``"failure"`` / ``"recovery"``);
            ``((), "")`` when fault injection is off.
        """
        state = self._fault_state
        if state is None:
            return (), ""
        system = self.system
        config = self.config
        deltas = self._fold_due_events(boundary)
        descriptions = tuple(delta.event.describe() for delta in deltas)
        lost = {gpu for delta in deltas for gpu in delta.removed}
        gained = {gpu for delta in deltas for gpu in delta.revived}
        if state.outage:
            # Total loss: nothing to sync the system against; windows are
            # served with every arrival dropped until capacity recovers.
            self._unservable = True
            self._system_stale = True
            return descriptions, ""
        was_unservable = self._unservable
        if lost or gained or any(d.network_changed for d in deltas) or self._system_stale:
            cluster = state.current_cluster()
            if cluster is not None:
                system.set_cluster(
                    cluster,
                    reason="fault injection: "
                    + ("; ".join(descriptions) or "re-sync after outage"),
                )
        if any(d.slowdown_changed for d in deltas) or self._system_stale:
            system.apply_gpu_slowdowns(state.active_slowdowns(), reason="fault injection")
        self._system_stale = False
        trigger = ""
        if lost or was_unservable:
            reason = (
                f"fault injection ({'; '.join(descriptions)})"
                if descriptions
                else "fault injection (replan retry)"
            )
            if self._attempt_replan(config.failure_mode_order, reason, validate_window=None):
                trigger = "failure"
        elif gained and config.failure_mode_order != ("none",):
            validate_window = self._last_window if config.validate_reschedule else None
            reason = f"capacity recovery ({'; '.join(descriptions)})"
            if self._attempt_replan((_RECOVERY_MODE,), reason, validate_window):
                trigger = "recovery"
        plan = system.require_plan()
        alive = set(system.cluster.gpu_ids)
        self._unservable = not all(set(g.gpu_ids) <= alive for g in plan.groups)
        if trigger == "failure" and not self._unservable:
            for entry in self._awaiting_replan:
                entry["replan_trigger"] = trigger
                entry["replan_ok"] = True
                entry["replanned_at"] = boundary
            self._awaiting_replan = []
        return descriptions, trigger

    def _intra_window_faults(
        self, start: float, end: float
    ) -> Tuple[Optional[FaultTimeline], Tuple[str, ...]]:
        """Compile the upcoming window's capacity events into an engine timeline.

        Peeks — without consuming — the pending fault events whose timestamps
        fall inside ``[start, end)`` and compiles the capacity subset
        (preemption, crash, recovery) against the installed plan into a
        :class:`~repro.faults.FaultTimeline` the engine applies mid-run,
        preempting and retrying in-flight work at the exact fault instant.
        The events stay pending: they fold into the cluster state — and drive
        replanning — at the next window boundary.  Recovery of capacity that
        was already dead when the window began compiles to nothing (the plan
        no longer contains those GPUs); it takes effect through the boundary
        replan instead.  Returns ``(None, ())`` when fault injection is off
        or nothing in the window touches the plan.
        """
        state = self._fault_state
        if state is None:
            return None, ()
        subset = [
            event
            for event in self._pending_faults
            if start <= event.time < end
            and (event.kind in CAPACITY_LOSS_KINDS or event.kind is FaultKind.RECOVERY)
        ]
        if not subset:
            return None, ()
        plan = self.system.require_plan()
        timeline = compile_fault_timeline(FaultSchedule.from_events(subset), plan)
        if not timeline:
            return None, ()
        notes = tuple(f"in-engine: {event.describe()}" for event in subset)
        return timeline, notes

    def _attempt_replan(
        self, modes: Tuple[str, ...], reason: str, validate_window: Optional[Trace]
    ) -> bool:
        """Try capacity-replan strategies in order, with bounded retry/backoff.

        Returns ``True`` when a new plan was installed.  A strategy that
        raises :class:`~repro.core.exceptions.SchedulingError` (or yields an
        unservable plan, :class:`~repro.core.exceptions.InvalidPlanError`)
        falls through to the next; when every strategy fails, the consecutive-failure
        counter advances and — after ``_REPLAN_MAX_RETRIES`` failures — the
        next ``_REPLAN_BACKOFF_WINDOWS`` attempts are skipped.
        """
        if self._replan_cooldown > 0:
            self._replan_cooldown -= 1
            return False
        system = self.system
        for mode in modes:
            try:
                installed = system.replan_capacity(
                    mode=mode, reason=reason, validate_on=validate_window
                )
            except (SchedulingError, InvalidPlanError):
                continue
            self._replan_failures = 0
            return installed is not None
        self._replan_failures += 1
        if self._replan_failures >= _REPLAN_MAX_RETRIES:
            self._replan_cooldown = _REPLAN_BACKOFF_WINDOWS
            self._replan_failures = 0
        return False

    def _adapt(self, events: List[BreachEvent], window: Trace, label: str) -> bool:
        """Run the online rescheduling policy after one window; return whether the plan changed."""
        system = self.system
        config = self.config
        if not config.reschedule_online:
            return False
        validate_on = window if config.validate_reschedule else None
        if events:
            names = ",".join(e.objective for e in events)
            return system.reschedule_online(
                reason=f"slo breach ({names}) during {label}", validate_on=validate_on
            )
        shift = system.profiler.detect_shift()
        if shift is None:
            return False
        return system.reschedule_online(
            stats=shift.current,
            reason=f"lightweight rescheduling ({shift.describe()})",
            validate_on=validate_on,
        )

    def run(self, trace: Trace, label: str = "live") -> LiveServeReport:
        """Serve a whole trace adaptively and return the run report.

        Parameters
        ----------
        trace:
            The request trace to replay on the time-warped serving clock.
        label:
            Run label stamped onto window results and breach events.

        Returns
        -------
        LiveServeReport
            Windowed telemetry, per-window simulation results, the plan each
            window was served with, every breach event fired and the number
            of plans the run installed.
        """
        system = self.system
        config = self.config
        system.require_plan()
        self._reset()
        if config.faults is not None and len(config.faults) > 0:
            # Times are checked per window; validate ids/counts up front.
            config.faults.validate(float("inf"), system.cluster)
            self._fault_state = ClusterFaultState(system.cluster)
            self._pending_faults = list(config.faults)
        report = LiveServeReport(
            windows=[], results=[], served_plans=[], breaches=[], label=label,
            fault_log=self._fault_log,
        )
        if trace.is_empty:
            return report
        installs_at_start = _count_installs(system)
        end = trace[-1].arrival_time
        window_start = trace[0].arrival_time
        # Boundary notes and replans of windows without arrivals carry to the
        # next window that has some.
        notes: Tuple[str, ...] = ()
        trigger = ""
        while window_start <= end:
            w_start = window_start
            window_end = w_start + config.window_s
            window = trace.window(w_start, window_end)
            window_start = window_end
            applied, replanned = self._apply_due_faults(w_start)
            notes += applied
            trigger = replanned or trigger
            if window.is_empty:
                continue
            index = len(report.windows)
            served_plan = system.require_plan()
            unservable = self._unservable
            if unservable:
                # No servable plan: every arrival is dropped, never routed.
                timeline, in_engine = None, ()
                health = PlanHealth(rho=0.0, attainment=0.0, request_rate=0.0)
                result = SimulationResult(
                    MetricArrays.dropped_outage(window.requests),
                    makespan=window_end,
                    trace_duration=window.duration,
                    label=f"{label}[{index}]",
                )
            else:
                timeline, in_engine = self._intra_window_faults(w_start, window_end)
                health = self.plan_health(window)
                result = system.serve(
                    window,
                    label=f"{label}[{index}]",
                    faults=timeline,
                    retry=config.retry_policy,
                )
            telemetry = self._measure(
                index, w_start, window_end, result, health,
                "" if unservable else plan_signature(served_plan),
            )
            state = self._fault_state
            if state is not None:
                telemetry.outage = unservable
                telemetry.degraded = state.degraded or timeline is not None
                telemetry.faults = notes + in_engine
                telemetry.num_gpus_alive = len(state.alive_gpu_ids)
                telemetry.replan_trigger = trigger
                notes, trigger = (), ""
            profile, outcomes = judge_window(
                {
                    "attainment_e2e": telemetry.attainment_e2e,
                    "estimated_rho": telemetry.estimated_rho,
                }
            )
            telemetry.profile = profile
            events = self.tracker.update(
                profile, outcomes, time=window_end, window_index=index, context=label
            )
            telemetry.breaches = tuple(events)
            for event in events:
                if self.on_breach is not None:
                    self.on_breach(event)
            if not unservable:
                telemetry.plan_changed = self._adapt(events, window, label)
                self._last_window = window
            if self.on_window is not None:
                self.on_window(telemetry)
            report.windows.append(telemetry)
            report.results.append(result)
            report.served_plans.append(served_plan)
            report.breaches.extend(events)
        # Log the final window's events so the fault log covers the whole run;
        # no traffic is left to serve, so nothing is synced or replanned.
        self._fold_due_events(window_start)
        report.num_plan_changes = _count_installs(system) - installs_at_start
        return report


__all__ = [
    "LiveServer",
    "LiveServeConfig",
    "LiveServeReport",
    "WindowTelemetry",
    "PlanHealth",
    "plan_signature",
]
