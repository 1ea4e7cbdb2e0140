"""The benchmark's three workloads, driven only through the public API.

Each workload has a *set-up* (fixture build, a small-budget
``ThunderServe.deploy`` and an engine warm-up) and a *pass*: a fixed list of
timed *units*, each one public operation (a deploy, a served trace, a
stream, a live run).  The runner repeats set-up and pass in rounds.  Every
input of a unit derives from the run seed, and the cluster (seed 0), the
scheduler seed and the routing seed stay fixed, so a plan — and with it
every ``sim_*`` quantity — changes only when the code does.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.types import SLOType
from repro.experiments.chaos_recovery import default_fault_storm
from repro.faults import FaultInjector
from repro.hardware.cluster import make_cloud_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServer, plan_signature
from repro.serving.system import ThunderServe
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import SimulationResult, merge_results
from repro.workload import generator
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD
from repro.workload.trace import RequestArrays

MODEL_NAME = "llama-30b"
#: SLO attainment a ladder rung must reach to count towards goodput
GOODPUT_ATTAINMENT = 0.9
#: a small tabu budget for the workloads whose timed phase is not the plan
SMALL_TABU = TabuSearchConfig(num_steps=8, num_neighbors=5, memory_size=5, patience=5)

#: columns that must agree bitwise between two runs of the same inputs
DIGEST_COLUMNS = (
    "request_id",
    "arrival_time",
    "input_length",
    "output_length",
    "enqueue_time",
    "prefill_start",
    "first_token_time",
    "kv_transfer_done",
    "completion_time",
    "finished",
    "prefill_replica",
    "decode_replica",
    "outcome",
    "attempts",
)
#: per-request fields compared between the fast and the reference engine
REFERENCE_FIELDS = (
    "enqueue_time",
    "prefill_start",
    "first_token_time",
    "kv_transfer_done",
    "completion_time",
    "prefill_replica",
    "decode_replica",
    "finished",
)


def untraced(name: str):
    """Span factory of untraced runs: no span at all."""
    return nullcontext()


def sub_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for input stream ``index`` of run seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def goodput_rps(points: Sequence[Tuple[float, float]], target: float = GOODPUT_ATTAINMENT) -> float:
    """Highest offered rate whose attainment reaches ``target``; 0 when none does."""
    passing = [rate for rate, attainment in points if attainment >= target]
    return max(passing) if passing else 0.0


def result_digest(results: Sequence[SimulationResult]) -> str:
    """SHA-1 over every per-request column of ``results`` (array or list backed)."""
    digest = hashlib.sha1()
    for result in results:
        if result.arrays is not None:
            for name in DIGEST_COLUMNS:
                digest.update(np.ascontiguousarray(getattr(result.arrays, name)).tobytes())
        else:
            for m in result.metrics:
                digest.update(repr((m.request.request_id, m.request.arrival_time,
                                    m.outcome, m.attempts)
                                   + tuple(getattr(m, f) for f in REFERENCE_FIELDS)).encode())
    return digest.hexdigest()


def latency_metrics(result: SimulationResult) -> Dict[str, float]:
    """TTFT / TPOT medians and 99th percentiles over the finished requests."""
    return {
        "sim_ttft_p50_s": result.percentile(SLOType.TTFT, 50),
        "sim_ttft_p99_s": result.percentile(SLOType.TTFT, 99),
        "sim_tpot_p50_s": result.percentile(SLOType.TPOT, 50),
        "sim_tpot_p99_s": result.percentile(SLOType.TPOT, 99),
    }


@dataclass
class PassResult:
    """What one pass produced, summarised for the report."""

    #: simulated quality (``sim_*``), deterministic for a seed
    sim: Dict[str, float]
    #: requests behind each sim metric (the sample count reported with it)
    samples: Dict[str, int]
    #: simulated quantities reported as per-layer metrics
    extras: Dict[str, float] = field(default_factory=dict)


#: a timed unit: its name in the report and the call that runs it
Unit = Tuple[str, Callable[[], List[SimulationResult]]]


class Ops:
    """Counts operations attempted and failed, and records why each failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check as an operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok

    def conservation(self, name: str, result: SimulationResult, terminal: bool) -> None:
        """Check ``assert_outcome_conservation`` on ``result`` as one operation."""
        try:
            result.assert_outcome_conservation(require_terminal=terminal)
            ok, detail = True, ""
        except SimulationError as exc:
            ok, detail = False, str(exc)
        self.check(f"outcome conservation ({name})", ok, detail)


class Workload:
    """Base class: a named workload with a set-up and a pass of timed units."""

    name = ""
    why = ""
    TRAFFIC = CONVERSATION_WORKLOAD
    PLANNED_RATE = 1.0

    def __init__(self, seed: int, ops: Ops) -> None:
        self.seed = seed
        self.ops = ops
        #: ``span(name)`` context factory; the traced run swaps in the tracer's
        self.span = untraced
        #: wall time of every deploy, by kind (``"setup"`` or ``"default"``)
        self.deploy_seconds: Dict[str, List[float]] = {}
        self.signatures: Dict[str, List[str]] = {}

    def _system(self, traffic, rate: float, tabu: Optional[TabuSearchConfig]) -> ThunderServe:
        config = SchedulerConfig(seed=0) if tabu is None else SchedulerConfig(tabu=tabu, seed=0)
        return ThunderServe(self.cluster, self.model, traffic, rate, scheduler_config=config)

    def _deploy(self, system: ThunderServe, kind: str) -> None:
        with self.span("bench.deploy"):
            start = time.perf_counter()
            plan = system.deploy(seed=0)
            self.deploy_seconds.setdefault(kind, []).append(time.perf_counter() - start)
        self.signatures.setdefault(kind, []).append(plan_signature(plan))

    def setup(self) -> None:
        """Build the fixture, deploy with a small budget and warm the engine up."""
        self.cluster = make_cloud_cluster(seed=0)
        self.model = get_model_config(MODEL_NAME)
        self.system = self._system(self.TRAFFIC, self.PLANNED_RATE, SMALL_TABU)
        self._deploy(self.system, "setup")
        with self.span("bench.warmup"):
            warm = generator.PoissonArrivalGenerator(self.TRAFFIC, self.PLANNED_RATE, seed=0)
            self.system.serve(warm.generate_arrays(500).to_trace(name="warmup"), label="warmup")

    def units(self) -> List[Unit]:
        """The pass: named units, run in order."""
        raise NotImplementedError

    def summarize(self, outputs: List[List[SimulationResult]]) -> PassResult:
        """Quality of one pass from its units' outputs."""
        raise NotImplementedError

    def check(self, outputs: List[List[SimulationResult]]) -> None:
        """Correctness checks on the first pass (shared part: plan stability)."""
        for kind, signatures in self.signatures.items():
            self.ops.check(
                f"plan_signature stable across {kind} deploys",
                len(set(signatures)) == 1,
                f"signatures {signatures}",
            )

    def describe(self) -> Dict[str, object]:
        """Facts about the inputs, printed with the human-readable report."""
        return {f"plan_signature[{k}]": v[-1] for k, v in self.signatures.items()}


class DeployLadder(Workload):
    """Default-budget deploy, then the plan served at a fixed ladder of offered rates."""

    name = "deploy-ladder"
    why = (
        "loads the control plane (default Algorithm-1 deploy) and measures plan "
        "quality: attainment at the planned rate, latency, goodput over a rate ladder"
    )
    #: offered rates as multiples of the planned rate; 1.25 runs in overload
    RUNGS = (0.25, 0.5, 0.75, 1.0, 1.25)
    #: requests per rung trace
    RUNG_REQUESTS = 2000
    #: rung whose latency percentiles are reported: at light load the TTFT
    #: tail is service time, not queue bursts, so p99 is steady across seeds
    LATENCY_RUNG = 0.25

    def units(self) -> List[Unit]:
        rungs = [
            (f"rung-{rung:g}x", partial(self._rung, index, rung))
            for index, rung in enumerate(self.RUNGS)
        ]
        return [("deploy", self._deploy_default)] + rungs

    def _deploy_default(self) -> List[SimulationResult]:
        self.planned = self._system(self.TRAFFIC, self.PLANNED_RATE, tabu=None)
        self._deploy(self.planned, "default")
        return []

    def _rung(self, index: int, rung: float) -> List[SimulationResult]:
        with self.span("bench.rung"):
            arrays = generator.PoissonArrivalGenerator(
                self.TRAFFIC, rung * self.PLANNED_RATE, seed=sub_seed(self.seed, index)
            ).generate_arrays(self.RUNG_REQUESTS)
            return [self.planned.serve(arrays.to_trace(), label=f"rung-{rung:g}x")]

    def summarize(self, outputs: List[List[SimulationResult]]) -> PassResult:
        results = {rung: out[0] for rung, out in zip(self.RUNGS, outputs[1:])}
        slo = self.planned.slo
        attainment = {rung: r.slo_attainment(slo) for rung, r in results.items()}
        light = results[self.LATENCY_RUNG]
        planned = attainment[1.0]
        sim = {
            "sim_slo_attainment": planned,
            "sim_goodput_rps": goodput_rps(
                [(rung * self.PLANNED_RATE, a) for rung, a in attainment.items()]
            ),
            **latency_metrics(light),
        }
        samples = {k: light.num_finished for k in sim}
        samples["sim_slo_attainment"] = results[1.0].num_requests
        samples["sim_goodput_rps"] = sum(r.num_requests for r in results.values())
        extras = {
            "scheduling.estimator.gap": (
                self.planned.schedule_result.estimated_slo_attainment - planned
            ),
        }
        extras.update({f"ladder.attainment@{rung:g}x": a for rung, a in attainment.items()})
        return PassResult(sim, samples, extras)

    def check(self, outputs: List[List[SimulationResult]]) -> None:
        super().check(outputs)
        for rung, out in zip(self.RUNGS, outputs[1:]):
            self.ops.conservation(f"rung {rung:g}x", out[0], terminal=True)


class StreamDiurnal(Workload):
    """Diurnal conversation streams through ``ServingSimulator.run_stream``."""

    name = "stream-diurnal"
    why = (
        "loads the engine at rho < 1, the regime plans run in (mean 0.6x the planned "
        "rate, +/-30% diurnal swing); the scheduler does no work in the timed phase"
    )
    MEAN_RATE = 0.6
    AMPLITUDE = 0.3
    CYCLES = 2
    #: independent streams per pass, each of STREAM_REQUESTS requests
    STREAMS = 4
    STREAM_REQUESTS = 2500
    CHUNK = 1024
    #: rows re-extracted from the middle of the first stream for the oracle check
    WINDOW = 1000

    def _chunks(self, seed: int, chunk_size: Optional[int] = None):
        span = self.STREAM_REQUESTS / self.MEAN_RATE
        warp = generator.DiurnalTimeWarp(
            horizon=span * 1.1, period=span / self.CYCLES, amplitude=self.AMPLITUDE
        )
        return generator.PoissonArrivalGenerator(
            self.TRAFFIC, self.MEAN_RATE, seed=seed
        ).iter_chunks(self.STREAM_REQUESTS, chunk_size=chunk_size or self.CHUNK, time_warp=warp)

    def units(self) -> List[Unit]:
        return [(f"stream-{k}", partial(self._stream, k)) for k in range(self.STREAMS)]

    def _stream(self, index: int) -> List[SimulationResult]:
        with self.span("bench.stream"):
            system = self.system
            simulator = ServingSimulator(system.cluster, system.plan, system.model)
            return [simulator.run_stream(self._chunks(sub_seed(self.seed, index)),
                                         label=f"stream-{index}")]

    def summarize(self, outputs: List[List[SimulationResult]]) -> PassResult:
        pooled = merge_results([out[0] for out in outputs], label="stream-diurnal")
        sim = {"sim_slo_attainment": pooled.slo_attainment(self.system.slo),
               **latency_metrics(pooled)}
        samples = {k: pooled.num_finished for k in sim}
        samples["sim_slo_attainment"] = pooled.num_requests
        return PassResult(sim, samples)

    def check(self, outputs: List[List[SimulationResult]]) -> None:
        super().check(outputs)
        for index, out in enumerate(outputs):
            result = out[0]
            self.ops.conservation(f"stream {index}", result, terminal=True)
            self.ops.check(
                f"stream {index} drains",
                result.num_finished == self.STREAM_REQUESTS,
                f"{result.num_finished}/{self.STREAM_REQUESTS} finished",
            )
        # Chunk-size invariance makes a window re-extracted with another chunk
        # size byte-identical to the rows the first stream served.
        served = outputs[0][0].arrays
        start = (self.STREAM_REQUESTS - self.WINDOW) // 2
        blocks, seen = [], 0
        for chunk in self._chunks(sub_seed(self.seed, 0), chunk_size=997):
            lo, hi = max(0, start - seen), min(len(chunk), start + self.WINDOW - seen)
            if lo < hi:
                blocks.append(chunk.slice(lo, hi))
            seen += len(chunk)
            if seen >= start + self.WINDOW:
                break
        window = RequestArrays.concat(blocks)
        same_rows = all(
            np.array_equal(getattr(window, col), getattr(served, col)[start:start + self.WINDOW])
            for col in ("request_id", "arrival_time", "input_length", "output_length")
        )
        self.ops.check("re-extracted window matches the streamed rows", same_rows)
        trace = window.to_trace(name="window")
        system = self.system
        fast = ServingSimulator(system.cluster, system.plan, system.model).run(trace)
        reference = ServingSimulator(
            system.cluster, system.plan, system.model,
            config=SimulatorConfig(engine="reference"),
        ).run(trace)
        identical = len(fast.metrics) == len(reference.metrics) and all(
            getattr(a, f) == getattr(b, f)
            for a, b in zip(fast.metrics, reference.metrics)
            for f in REFERENCE_FIELDS
        )
        self.ops.check("window bitwise equal to the reference engine", identical)


class LiveChaos(Workload):
    """The live loop serving coding traffic under a seeded fault storm."""

    name = "live-chaos"
    why = (
        "loads the replan path: flip-only and small-budget full replans on a shrinking "
        "and regrowing cluster, shadow validation, in-window faults and retries"
    )
    TRAFFIC = CODING_WORKLOAD
    PLANNED_RATE = 2.0
    DURATION = 300.0
    WINDOW_S = 30.0
    #: the storm is pinned: storms drawn per run seed differ 3x in replan work
    FAULT_SEED = 25
    #: live runs per pass, each on its own trace; breach-triggered replans
    #: follow the trace, so a single trace swings run_s across seeds
    TRACES = 2

    def setup(self) -> None:
        super().setup()
        self.injector = FaultInjector(default_fault_storm(), seed=self.FAULT_SEED)
        self.worst_window: Dict[int, float] = {}

    def units(self) -> List[Unit]:
        return [(f"live-{k}", partial(self._live, k)) for k in range(self.TRACES)]

    def _live(self, index: int) -> List[SimulationResult]:
        with self.span("bench.live"):
            schedule = self.injector.compile(self.DURATION, self.cluster)
            trace = generator.generate_requests(
                self.TRAFFIC, self.PLANNED_RATE, duration=self.DURATION,
                seed=sub_seed(self.seed, index),
            )
            system = self._system(self.TRAFFIC, self.PLANNED_RATE, SMALL_TABU)
            system.adopt_plan(self.system.plan, reason="live-chaos")
            report = LiveServer(
                system, LiveServeConfig(window_s=self.WINDOW_S, faults=schedule)
            ).run(trace, label=f"live-chaos-{index}")
            merged = report.merged
        self.schedule_signature = schedule.signature()
        self.worst_window[index] = report.worst_window_attainment()
        return [merged]

    def summarize(self, outputs: List[List[SimulationResult]]) -> PassResult:
        # Windowed replay restarts every window with empty queues, which
        # biases this quality upward; it is reported per layer only.
        pooled = merge_results([out[0] for out in outputs], label="live-chaos")
        sim = {"sim_slo_attainment": pooled.slo_attainment(self.system.slo),
               **latency_metrics(pooled)}
        samples = {k: pooled.num_finished for k in sim}
        samples["sim_slo_attainment"] = pooled.num_requests
        counts = pooled.outcome_counts()
        lost = counts["dropped_outage"] + counts["timed_out"]
        extras = {
            "serving.live.merged_attainment": sim["sim_slo_attainment"],
            "serving.live.worst_window_attainment": min(self.worst_window.values()),
            "faults.retried_then_finished": counts["retried_then_finished"],
            "faults.dropped_outage": counts["dropped_outage"],
            "faults.timed_out": counts["timed_out"],
            "faults.lost_frac": lost / pooled.num_requests if pooled.num_requests else 0.0,
        }
        return PassResult(sim, samples, extras)

    def check(self, outputs: List[List[SimulationResult]]) -> None:
        super().check(outputs)
        for index, out in enumerate(outputs):
            self.ops.conservation(f"merged live run {index}", out[0], terminal=False)

    def describe(self) -> Dict[str, object]:
        facts = super().describe()
        facts["fault_seed"] = self.FAULT_SEED
        facts["fault_schedule_signature"] = getattr(self, "schedule_signature", "")
        return facts


WORKLOADS = {w.name: w for w in (DeployLadder, StreamDiurnal, LiveChaos)}
