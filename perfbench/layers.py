"""Which public calls the traced run wraps, and the per-layer metrics they give.

Every wrapped callable is replaced at the name its callers look it up by:
methods on their class (callers go through the instance), and the two
module functions that callers import by name at the module that imported
them (``solve_orchestration`` in ``lower_level``, ``merge_results`` in
``serving.live``).  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Mapping, Tuple

from tracer import Patches, Tracer

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workload.gen_s", "s", "lower"),
    ("workload.requests", "count", "higher"),
    ("scheduling.schedule.calls", "count", "lower"),
    ("scheduling.schedule.timed_calls", "count", "lower"),
    ("scheduling.schedule.self_s", "s", "lower"),
    ("scheduling.tabu.steps", "count", "higher"),
    ("scheduling.plan_share", "fraction", "lower"),
    ("scheduling.lower_level.evaluations", "count", "lower"),
    ("scheduling.lower_level.solves", "count", "lower"),
    ("scheduling.lower_level.self_s", "s", "lower"),
    ("scheduling.orchestration.lp_solves", "count", "lower"),
    ("scheduling.orchestration.self_s", "s", "lower"),
    ("scheduling.estimator.matrix_calls", "count", "lower"),
    ("scheduling.estimator.self_s", "s", "lower"),
    ("scheduling.estimator.gap", "fraction", "lower"),
    ("scheduling.rescheduling.calls", "count", "lower"),
    ("scheduling.rescheduling.self_s", "s", "lower"),
    ("costmodel.scalar_calls", "count", "lower"),
    ("costmodel.scalar_self_s", "s", "lower"),
    ("costmodel.prefill_grid_calls", "count", "lower"),
    ("costmodel.decode_grid_calls", "count", "lower"),
    ("costmodel.decode_memo_calls", "count", "lower"),
    ("costmodel.grid_self_s", "s", "lower"),
    ("simulation.engine.runs", "count", "lower"),
    ("simulation.engine.requests", "count", "higher"),
    ("simulation.engine.self_s", "s", "lower"),
    ("simulation.engine.build_s", "s", "lower"),
    ("simulation.engine.prefill_epoch_size", "req/call", "higher"),
    ("simulation.engine.req_per_s", "req/s", "higher"),
    ("simulation.metrics.self_s", "s", "lower"),
    ("serving.deploy.p50_s", "s", "lower"),
    ("serving.replan.calls", "count", "lower"),
    ("serving.replan.adopted_ratio", "fraction", "higher"),
    ("serving.replan.p50_s", "s", "lower"),
    ("serving.replan.total_s", "s", "lower"),
    ("serving.live.windows", "count", "higher"),
    ("serving.live.self_s", "s", "lower"),
    ("serving.live.plan_health_s", "s", "lower"),
    ("serving.live.plan_changes", "count", "lower"),
    ("serving.live.merged_attainment", "fraction", "higher"),
    ("serving.live.worst_window_attainment", "fraction", "higher"),
    ("faults.events", "count", "lower"),
    ("faults.compile_s", "s", "lower"),
    ("faults.retried_then_finished", "count", "higher"),
    ("faults.dropped_outage", "count", "lower"),
    ("faults.timed_out", "count", "lower"),
    ("faults.lost_frac", "fraction", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("quality.sim_slo_attainment", "fraction", "higher"),
    ("quality.sim_goodput_rps", "req/s", "higher"),
    ("quality.sim_ttft_p50_s", "s", "lower"),
    ("quality.sim_ttft_p99_s", "s", "lower"),
    ("quality.sim_tpot_p50_s", "s", "lower"),
    ("quality.sim_tpot_p99_s", "s", "lower"),
)

ENGINE_RUNS = ("simulation.engine.run", "simulation.engine.run_stream")
SCALAR = ("costmodel.scalar.prefill_latency", "costmodel.scalar.decode_step_latency")
GRIDS = (
    "costmodel.grid.prefill_latency_grid",
    "costmodel.grid.decode_step_grid",
    "costmodel.grid.decode_step_memo",
)
REPLANS = ("serving.reschedule_online", "serving.replan_capacity")


# ---------------------------------------------------------------------- counters
def _count_chunk(tracer: Tracer, chunk) -> None:
    tracer.count("workload.requests", len(chunk))


def _count_trace(tracer: Tracer, args, kwargs, trace) -> None:
    tracer.count("workload.requests", len(trace))


def _count_schedule(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("scheduling.tabu.steps", len(result.trace.history))


def _count_batch(tracer: Tracer, args, kwargs, scores) -> None:
    tracer.count("scheduling.lower_level.evaluations", len(scores))


def _count_evaluate(tracer: Tracer, args, kwargs, score) -> None:
    # inside evaluate_batch the batch size already counted this candidate
    if tracer.current() != "scheduling.lower_level.evaluate_batch":
        tracer.count("scheduling.lower_level.evaluations")


def _count_engine(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("simulation.engine.requests", result.num_requests)


def _count_reschedule(tracer: Tracer, args, kwargs, adopted) -> None:
    tracer.count("serving.replan.adopted", 1.0 if adopted else 0.0)


def _count_replan(tracer: Tracer, args, kwargs, plan) -> None:
    tracer.count("serving.replan.adopted", 0.0 if plan is None else 1.0)


def _count_live(tracer: Tracer, args, kwargs, report) -> None:
    tracer.count("serving.live.windows", len(report.windows))
    tracer.count("serving.live.plan_changes", report.num_plan_changes)


def _count_faults(tracer: Tracer, args, kwargs, schedule) -> None:
    tracer.count("faults.events", len(schedule))


def instrument(tracer: Tracer) -> Patches:
    """Wrap every traced public call; the caller must ``restore()`` the result."""
    from repro.costmodel.latency import ReplicaCostModel
    from repro.faults.injector import FaultInjector
    from repro.scheduling import lower_level
    from repro.scheduling.estimator import SLOEstimator
    from repro.scheduling.rescheduling import LightweightRescheduler
    from repro.scheduling.scheduler import Scheduler
    from repro.serving import live
    from repro.serving.system import ThunderServe
    from repro.simulation import metrics
    from repro.simulation.engine import ServingSimulator
    from repro.workload import generator

    patches = Patches()

    def timed(owner, attr, name, after=None):
        patches.replace(owner, attr, lambda fn: tracer.wrap(fn, name, after))

    patches.replace(
        generator.PoissonArrivalGenerator,
        "iter_chunks",
        lambda fn: tracer.wrap_iterator(fn, "workload.chunk", _count_chunk),
    )
    timed(generator, "generate_requests", "workload.generate_requests", _count_trace)

    timed(Scheduler, "schedule", "scheduling.schedule", _count_schedule)
    timed(
        lower_level.LowerLevelSolver,
        "evaluate_batch",
        "scheduling.lower_level.evaluate_batch",
        _count_batch,
    )
    timed(
        lower_level.LowerLevelSolver,
        "evaluate",
        "scheduling.lower_level.evaluate",
        _count_evaluate,
    )
    timed(lower_level.LowerLevelSolver, "solve", "scheduling.lower_level.solve")
    timed(lower_level, "solve_orchestration", "scheduling.orchestration.solve")
    timed(SLOEstimator, "attainment_matrix", "scheduling.estimator.attainment_matrix")
    timed(LightweightRescheduler, "reschedule", "scheduling.rescheduling.reschedule")
    timed(
        LightweightRescheduler,
        "reschedule_from_stats",
        "scheduling.rescheduling.reschedule_from_stats",
    )

    for attr in ("prefill_latency", "decode_step_latency"):
        timed(ReplicaCostModel, attr, f"costmodel.scalar.{attr}")
    for attr in ("prefill_latency_grid", "decode_step_grid", "decode_step_memo"):
        timed(ReplicaCostModel, attr, f"costmodel.grid.{attr}")

    timed(ServingSimulator, "__init__", "simulation.engine.build")
    timed(ServingSimulator, "run", "simulation.engine.run", _count_engine)
    timed(ServingSimulator, "run_stream", "simulation.engine.run_stream", _count_engine)

    for attr in ("slo_attainment", "percentile", "summary", "outcome_counts"):
        timed(metrics.SimulationResult, attr, f"simulation.metrics.{attr}")
    timed(metrics, "merge_results", "simulation.metrics.merge_results")
    timed(live, "merge_results", "simulation.metrics.merge_results")

    timed(ThunderServe, "deploy", "serving.deploy")
    timed(ThunderServe, "serve", "serving.serve")
    timed(ThunderServe, "reschedule_online", "serving.reschedule_online", _count_reschedule)
    timed(ThunderServe, "replan_capacity", "serving.replan_capacity", _count_replan)
    timed(live.LiveServer, "run", "serving.live.run", _count_live)
    timed(live.LiveServer, "plan_health", "serving.live.plan_health")

    timed(FaultInjector, "compile", "faults.compile", _count_faults)
    return patches


class BoundaryClock:
    """Bare timers around the engine and replan entry points, installed in every run.

    They are the two boundaries the untraced run must time inside a call
    stack it does not own (the live loop calls both itself): two clock reads
    per call, a few dozen calls per unit.
    """

    def __init__(self) -> None:
        self._patches = Patches()
        self.reset()

    def install(self) -> "BoundaryClock":
        from repro.serving.system import ThunderServe
        from repro.simulation.engine import ServingSimulator

        for attr in ("run", "run_stream"):
            self._patches.replace(ServingSimulator, attr, lambda fn: self._timed(fn, "engine"))
        for attr in ("reschedule_online", "replan_capacity"):
            self._patches.replace(ThunderServe, attr, lambda fn: self._timed(fn, "replan"))
        return self

    def _timed(self, fn, group: str):
        clock = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                clock.seconds[group] += time.perf_counter() - start
            if group == "engine":
                clock.engine_requests += result.num_requests
            return result

        return wrapper

    def reset(self) -> None:
        """Zero the timers (the runner calls it before every unit)."""
        self.seconds = {"engine": 0.0, "replan": 0.0}
        self.engine_requests = 0

    def restore(self) -> None:
        self._patches.restore()


# ---------------------------------------------------------------------- metrics
def per_layer_metrics(
    tracer: Tracer, extras: Mapping[str, float], overhead_frac: float
) -> Dict[str, float]:
    """Per-layer metric values of one traced run (setup plus one timed pass).

    ``extras`` carries the simulated quantities only the workload can compute
    (quality, estimator gap, live-loop attainment, fault outcomes), keyed by
    metric name; layers a workload never calls, and quantities it does not
    define, report 0.
    """
    agg = tracer.aggregate()
    timed_agg = tracer.aggregate("timed")
    counters = tracer.counters

    def calls(*names: str) -> int:
        return sum(agg[n].calls for n in names if n in agg)

    def self_s(prefix: str) -> float:
        return sum(s.self_s for n, s in agg.items() if n.startswith(prefix))

    def total_s(*names: str) -> float:
        return sum(agg[n].total_s for n in names if n in agg)

    replan_durations: List[float] = []
    for name in REPLANS:
        replan_durations.extend(tracer.durations(name))
    replan_calls = len(replan_durations)
    prefill_grid_in_engine = tracer.nested_calls(GRIDS[0], ENGINE_RUNS)
    engine_requests = counters.get("simulation.engine.requests", 0.0)
    plan_self, deploy_s = tracer.op_self_time("bench.deploy", ("scheduling.", "costmodel.scalar."))

    values = {
        "workload.gen_s": self_s("workload."),
        "workload.requests": counters.get("workload.requests", 0.0),
        "scheduling.schedule.calls": calls("scheduling.schedule"),
        "scheduling.schedule.timed_calls": (
            timed_agg["scheduling.schedule"].calls if "scheduling.schedule" in timed_agg else 0
        ),
        "scheduling.schedule.self_s": self_s("scheduling.schedule"),
        "scheduling.tabu.steps": counters.get("scheduling.tabu.steps", 0.0),
        "scheduling.plan_share": plan_self / deploy_s if deploy_s > 0 else 0.0,
        "scheduling.lower_level.evaluations": counters.get(
            "scheduling.lower_level.evaluations", 0.0
        ),
        "scheduling.lower_level.solves": calls("scheduling.lower_level.solve"),
        "scheduling.lower_level.self_s": self_s("scheduling.lower_level."),
        "scheduling.orchestration.lp_solves": calls("scheduling.orchestration.solve"),
        "scheduling.orchestration.self_s": self_s("scheduling.orchestration."),
        "scheduling.estimator.matrix_calls": calls("scheduling.estimator.attainment_matrix"),
        "scheduling.estimator.self_s": self_s("scheduling.estimator."),
        "scheduling.rescheduling.calls": calls("scheduling.rescheduling.reschedule"),
        "scheduling.rescheduling.self_s": self_s("scheduling.rescheduling."),
        "costmodel.scalar_calls": calls(*SCALAR)
        - tracer.nested_calls(SCALAR[1], (GRIDS[2],)),
        "costmodel.scalar_self_s": sum(agg[n].self_s for n in SCALAR if n in agg),
        "costmodel.prefill_grid_calls": calls(GRIDS[0]),
        "costmodel.decode_grid_calls": calls(GRIDS[1]),
        "costmodel.decode_memo_calls": calls(GRIDS[2]),
        "costmodel.grid_self_s": sum(agg[n].self_s for n in GRIDS if n in agg),
        "simulation.engine.runs": calls(*ENGINE_RUNS),
        "simulation.engine.requests": engine_requests,
        "simulation.engine.self_s": self_s("simulation.engine."),
        "simulation.engine.build_s": total_s("simulation.engine.build"),
        "simulation.engine.prefill_epoch_size": (
            engine_requests / prefill_grid_in_engine if prefill_grid_in_engine else 0.0
        ),
        "simulation.metrics.self_s": self_s("simulation.metrics."),
        "serving.replan.calls": replan_calls,
        "serving.replan.adopted_ratio": (
            counters.get("serving.replan.adopted", 0.0) / replan_calls if replan_calls else 0.0
        ),
        "serving.replan.p50_s": statistics.median(replan_durations) if replan_durations else 0.0,
        "serving.replan.total_s": sum(replan_durations),
        "serving.live.windows": counters.get("serving.live.windows", 0.0),
        "serving.live.self_s": self_s("serving.live."),
        "serving.live.plan_health_s": total_s("serving.live.plan_health"),
        "serving.live.plan_changes": counters.get("serving.live.plan_changes", 0.0),
        "faults.events": counters.get("faults.events", 0.0),
        "faults.compile_s": total_s("faults.compile"),
        "trace.overhead_frac": overhead_frac,
    }
    for name, _unit, _better in PER_LAYER:
        if name not in values:
            values[name] = float(extras.get(name, 0.0))
    return {name: float(values[name]) for name, _unit, _better in PER_LAYER}
