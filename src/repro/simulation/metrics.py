"""Simulation results and metric aggregation.

The paper's evaluation reports two families of numbers:

* **SLO attainment** — the percentage of requests whose TTFT / TPOT / E2E latency
  stays under a deadline, swept over SLO scales (Figures 7, 8, 11, 12, 14);
* **throughput** — generated tokens (or requests) per second (Figures 6, 9,
  Tables 5 and 8).

:class:`SimulationResult` wraps the per-request metrics of a simulator run and
exposes those aggregates.  Its one storage is a :class:`MetricArrays` column
block: the fast engine writes the columns directly, outage windows build their
dropped rows with :meth:`MetricArrays.dropped_outage`, and every object-based
producer (the reference engine, the co-located simulator) goes through the
single :meth:`MetricArrays.from_metrics` adapter.  Aggregates are
computed vectorized over the columns; :attr:`SimulationResult.metrics` is a lazy
view that builds :class:`~repro.core.types.RequestMetrics` objects on first
access — a million-request run aggregates without ever building a million
objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.core.exceptions import SimulationError
from repro.core.types import (
    OUTCOME_NAMES,
    Request,
    RequestMetrics,
    RequestOutcome,
    SLOSpec,
    SLOType,
)

#: replica-id column value of a request never routed to a replica
#: (``None`` on the :class:`~repro.core.types.RequestMetrics` view)
NO_REPLICA = -1


def _request_columns(requests: Sequence[Request]) -> Dict[str, np.ndarray]:
    """The request columns of a :class:`MetricArrays` block, in list order."""
    n = len(requests)
    workload = np.empty(n, dtype=object)
    workload[:] = [r.workload for r in requests]
    return {
        "request_id": np.fromiter((r.request_id for r in requests), np.int64, count=n),
        "arrival_time": np.fromiter((r.arrival_time for r in requests), np.float64, count=n),
        "input_length": np.fromiter((r.input_length for r in requests), np.int64, count=n),
        "output_length": np.fromiter((r.output_length for r in requests), np.int64, count=n),
        "workload": workload,
    }


@dataclass
class MetricArrays:
    """Per-request metrics of one simulation run in struct-of-arrays form.

    One numpy column per :class:`~repro.core.types.RequestMetrics` field (plus
    the request attributes the aggregates need), ordered by request id — the
    fast engine writes these columns directly, so a run never holds per-request
    Python objects.  Derived latencies (TTFT / TPOT / E2E and the component
    breakdown) are computed vectorized with exactly the float64 operations of
    the scalar :class:`~repro.core.types.RequestMetrics` properties, so every
    aggregate equals (bitwise) the one computed over the object view.

    Parameters
    ----------
    request_id, arrival_time, input_length, output_length:
        The request columns (``int64`` / ``float64`` / ``int64`` / ``int64``).
    workload:
        Workload tag per request (``object`` array of ``str``, the
        :attr:`~repro.core.types.Request.workload` of each row).
    enqueue_time, prefill_start, first_token_time, kv_transfer_done, \
completion_time:
        Absolute event timestamps per request (``float64``; zero where the
        request never reached the stage).
    finished:
        Completion flags (``bool``).
    prefill_replica, decode_replica:
        Serving-group ids the request was routed to (``int64``;
        :data:`NO_REPLICA` for a request never routed).
    outcome:
        Typed terminal disposition per request (``int64``,
        :class:`~repro.core.types.RequestOutcome` values).
    attempts:
        Number of fault dispositions per request (``int64``; zero when the
        run saw no faults).
    """

    request_id: np.ndarray
    arrival_time: np.ndarray
    input_length: np.ndarray
    output_length: np.ndarray
    workload: np.ndarray
    enqueue_time: np.ndarray
    prefill_start: np.ndarray
    first_token_time: np.ndarray
    kv_transfer_done: np.ndarray
    completion_time: np.ndarray
    finished: np.ndarray
    prefill_replica: np.ndarray
    decode_replica: np.ndarray
    outcome: np.ndarray
    attempts: np.ndarray

    def __len__(self) -> int:
        return self.request_id.size

    @classmethod
    def from_metrics(cls, metrics: Sequence[RequestMetrics]) -> "MetricArrays":
        """Column block of a :class:`RequestMetrics` list, in list order.

        Outcomes are stored resolved
        (:meth:`~repro.core.types.RequestMetrics.resolved_outcome`) and a
        ``None`` replica id as :data:`NO_REPLICA`.
        """
        n = len(metrics)

        def column(values: Iterable, dtype) -> np.ndarray:
            return np.fromiter(values, dtype=dtype, count=n)

        def replica(group_id: Optional[int]) -> int:
            return NO_REPLICA if group_id is None else group_id

        return cls(
            **_request_columns([m.request for m in metrics]),
            enqueue_time=column((m.enqueue_time for m in metrics), np.float64),
            prefill_start=column((m.prefill_start for m in metrics), np.float64),
            first_token_time=column((m.first_token_time for m in metrics), np.float64),
            kv_transfer_done=column((m.kv_transfer_done for m in metrics), np.float64),
            completion_time=column((m.completion_time for m in metrics), np.float64),
            finished=column((m.finished for m in metrics), bool),
            prefill_replica=column((replica(m.prefill_replica) for m in metrics), np.int64),
            decode_replica=column((replica(m.decode_replica) for m in metrics), np.int64),
            outcome=column((int(m.resolved_outcome()) for m in metrics), np.int64),
            attempts=column((m.attempts for m in metrics), np.int64),
        )

    @classmethod
    def dropped_outage(cls, requests: Sequence[Request]) -> "MetricArrays":
        """Column block of requests dropped by an outage before being routed.

        Every row is unfinished with outcome ``dropped_outage``, zero
        timestamps and attempts, and :data:`NO_REPLICA` replica ids — the
        columns :meth:`from_metrics` builds for
        ``RequestMetrics(request, outcome=RequestOutcome.DROPPED_OUTAGE)``.
        """
        n = len(requests)
        return cls(
            **_request_columns(requests),
            enqueue_time=np.zeros(n, dtype=np.float64),
            prefill_start=np.zeros(n, dtype=np.float64),
            first_token_time=np.zeros(n, dtype=np.float64),
            kv_transfer_done=np.zeros(n, dtype=np.float64),
            completion_time=np.zeros(n, dtype=np.float64),
            finished=np.zeros(n, dtype=bool),
            prefill_replica=np.full(n, NO_REPLICA, dtype=np.int64),
            decode_replica=np.full(n, NO_REPLICA, dtype=np.int64),
            outcome=np.full(n, int(RequestOutcome.DROPPED_OUTAGE), dtype=np.int64),
            attempts=np.zeros(n, dtype=np.int64),
        )

    def outcome_counts(self) -> Dict[str, int]:
        """Request count per :class:`~repro.core.types.RequestOutcome` name."""
        counts = np.bincount(self.outcome, minlength=len(OUTCOME_NAMES))
        return {name: int(counts[i]) for i, name in enumerate(OUTCOME_NAMES)}

    # ------------------------------------------------------------------ derived
    def ttft(self) -> np.ndarray:
        """Time to first token per request (arrival → first token)."""
        return self.first_token_time - self.arrival_time

    def tpot(self) -> np.ndarray:
        """Time per output token per request (zero for single-token outputs)."""
        extra = self.output_length - 1
        out = np.zeros(len(self), dtype=np.float64)
        multi = extra > 0
        out[multi] = (self.completion_time[multi] - self.first_token_time[multi]) / extra[multi]
        return out

    def e2e_latency(self) -> np.ndarray:
        """End-to-end latency per request (arrival → last token)."""
        return self.completion_time - self.arrival_time

    def value_for(self, slo_type: SLOType) -> np.ndarray:
        """Latency column compared against an SLO of ``slo_type``."""
        if slo_type is SLOType.TTFT:
            return self.ttft()
        if slo_type is SLOType.TPOT:
            return self.tpot()
        return self.e2e_latency()

    def meets(self, slo: SLOSpec, slo_type: SLOType) -> np.ndarray:
        """Per-request :meth:`~repro.core.types.SLOSpec.is_met` flags."""
        return self.finished & (self.value_for(slo_type) <= slo.deadline_for(slo_type))

    # ------------------------------------------------------------------ objects
    def materialize(self) -> List[RequestMetrics]:
        """Build the equivalent :class:`RequestMetrics` list (with its requests)."""
        n = len(self)
        ids = self.request_id.tolist()
        arrivals = self.arrival_time.tolist()
        inputs = self.input_length.tolist()
        outputs = self.output_length.tolist()
        tags = self.workload.tolist()
        enq = self.enqueue_time.tolist()
        pstart = self.prefill_start.tolist()
        first = self.first_token_time.tolist()
        kvd = self.kv_transfer_done.tolist()
        comp = self.completion_time.tolist()
        fin = self.finished.tolist()
        prep = [None if r == NO_REPLICA else r for r in self.prefill_replica.tolist()]
        drep = [None if r == NO_REPLICA else r for r in self.decode_replica.tolist()]
        out = self.outcome.tolist()
        att = self.attempts.tolist()
        return [
            RequestMetrics(
                request=Request(
                    request_id=ids[i],
                    arrival_time=arrivals[i],
                    input_length=inputs[i],
                    output_length=outputs[i],
                    workload=tags[i],
                ),
                enqueue_time=enq[i],
                prefill_start=pstart[i],
                first_token_time=first[i],
                kv_transfer_done=kvd[i],
                completion_time=comp[i],
                prefill_replica=prep[i],
                decode_replica=drep[i],
                finished=fin[i],
                outcome=RequestOutcome(out[i]),
                attempts=att[i],
            )
            for i in range(n)
        ]


class SimulationResult:
    """Per-request metric columns plus run-level aggregates of one simulation.

    Every aggregate is computed over :attr:`arrays`; :attr:`metrics` is the
    lazily built object view of the same rows.
    """

    def __init__(
        self,
        arrays: MetricArrays,
        makespan: float,
        trace_duration: float,
        label: str = "",
    ) -> None:
        #: per-request metric columns of the run, ordered by request id
        self.arrays = arrays
        #: simulation time at which the last event was processed
        self.makespan = makespan
        #: wall-clock duration of the simulated request trace (arrival span)
        self.trace_duration = trace_duration
        #: label of the system / plan that produced the run (for reporting)
        self.label = label

    @cached_property
    def metrics(self) -> List[RequestMetrics]:
        """Per-request metrics, ordered by request id (built on first access)."""
        return self.arrays.materialize()

    # ------------------------------------------------------------------ basics
    @property
    def num_requests(self) -> int:
        """Number of requests injected."""
        return len(self.arrays)

    @property
    def finished(self) -> List[RequestMetrics]:
        """Metrics of requests that completed."""
        return [m for m in self.metrics if m.finished]

    @property
    def num_finished(self) -> int:
        """Number of completed requests."""
        return int(np.count_nonzero(self.arrays.finished))

    @property
    def completion_rate(self) -> float:
        """Fraction of requests that completed within the simulation horizon."""
        if not self.num_requests:
            return 0.0
        return self.num_finished / self.num_requests

    # ------------------------------------------------------------------ outcomes
    def outcome_counts(self) -> Dict[str, int]:
        """Request count per :class:`~repro.core.types.RequestOutcome` name.

        The counts always sum to :attr:`num_requests`.
        """
        return self.arrays.outcome_counts()

    def assert_outcome_conservation(self, require_terminal: bool = False) -> Dict[str, int]:
        """Check that every arrival maps to exactly one coherent outcome.

        Raises :class:`~repro.core.exceptions.SimulationError` when the
        ``finished`` flags contradict the outcome taxonomy (a finished request
        must be ``finished`` / ``retried_then_finished`` and vice versa), when
        the outcome counts do not sum to the number of requests, or — with
        ``require_terminal`` — when any request is still ``pending`` (only
        legitimate on horizon-truncated runs).  Returns the outcome counts.
        """
        counts = self.outcome_counts()
        total = sum(counts.values())
        if total != self.num_requests:
            raise SimulationError(
                f"outcome counts sum to {total}, expected {self.num_requests}"
            )
        completed = counts["finished"] + counts["retried_then_finished"]
        if completed != self.num_finished:
            raise SimulationError(
                f"{completed} completed outcomes vs {self.num_finished} finished flags"
            )
        if require_terminal and counts["pending"]:
            raise SimulationError(
                f"{counts['pending']} requests left pending on a fully drained run"
            )
        outcome = self.arrays.outcome
        completed_mask = (outcome == int(RequestOutcome.FINISHED)) | (
            outcome == int(RequestOutcome.RETRIED_THEN_FINISHED)
        )
        if bool(np.any(completed_mask != self.arrays.finished)):
            raise SimulationError("per-request outcome and finished flags disagree")
        return counts

    # ------------------------------------------------------------------ latency
    def _finished_values(self, slo_type: SLOType) -> np.ndarray:
        """Latency column of ``slo_type`` over finished requests."""
        return self.arrays.value_for(slo_type)[self.arrays.finished]

    def mean(self, slo_type: SLOType) -> float:
        """Mean latency of the given type over finished requests."""
        values = self._finished_values(slo_type)
        if not values.size:
            return float("nan")
        return float(np.mean(values))

    def percentile(self, slo_type: SLOType, q: float) -> float:
        """Latency percentile (``q`` in [0, 100]) of the given type."""
        values = self._finished_values(slo_type)
        if not values.size:
            return float("nan")
        return float(np.percentile(values, q))

    def summary(self) -> Dict[str, float]:
        """Mean latency component breakdown over the finished requests."""
        a = self.arrays
        fin = a.finished
        count = int(np.count_nonzero(fin))
        if not count:
            nan = float("nan")
            return {
                "num_finished": 0.0,
                "mean_ttft": nan,
                "mean_tpot": nan,
                "mean_e2e": nan,
                "mean_queue": nan,
                "mean_prefill": nan,
                "mean_kv_transfer": nan,
                "mean_decode": nan,
            }
        queue = a.prefill_start[fin] - a.arrival_time[fin]
        prefill = a.first_token_time[fin] - a.prefill_start[fin]
        kv = np.maximum(0.0, a.kv_transfer_done[fin] - a.first_token_time[fin])
        decode = np.maximum(0.0, a.completion_time[fin] - a.kv_transfer_done[fin])
        return {
            "num_finished": float(count),
            "mean_ttft": float(np.mean(a.ttft()[fin])),
            "mean_tpot": float(np.mean(a.tpot()[fin])),
            "mean_e2e": float(np.mean(a.e2e_latency()[fin])),
            "mean_queue": float(np.mean(queue)),
            "mean_prefill": float(np.mean(prefill)),
            "mean_kv_transfer": float(np.mean(kv)),
            "mean_decode": float(np.mean(decode)),
        }

    # ------------------------------------------------------------------ SLO
    def slo_attainment(self, slo: SLOSpec, slo_type: SLOType = SLOType.E2E) -> float:
        """Fraction of *all* requests meeting the SLO (unfinished requests miss)."""
        n = len(self.arrays)
        if not n:
            return 0.0
        return int(np.count_nonzero(self.arrays.meets(slo, slo_type))) / n

    def attainment_curve(
        self,
        slo_scales: Iterable[float],
        reference,
        slo_type: SLOType = SLOType.E2E,
    ) -> List[float]:
        """SLO attainment swept over SLO scales (the Figure 7/8 curves).

        ``reference`` is a :class:`~repro.costmodel.reference.ReferenceLatency`
        providing ``slo_spec(scale)``.
        """
        return [self.slo_attainment(reference.slo_spec(s), slo_type) for s in slo_scales]

    def min_scale_for_attainment(
        self,
        target: float,
        reference,
        slo_type: SLOType = SLOType.E2E,
        scales: Optional[Sequence[float]] = None,
    ) -> float:
        """Smallest SLO scale achieving ``target`` attainment (the "latency deadline").

        The paper reports, for a target attainment goal such as 90 % or 99 %, the
        minimum latency deadline (SLO scale) that reaches it.  Returns ``inf`` when
        even the largest probed scale falls short.
        """
        probe = list(scales) if scales is not None else [x / 4 for x in range(1, 241)]
        for s in sorted(probe):
            if self.slo_attainment(reference.slo_spec(s), slo_type) >= target:
                return float(s)
        return float("inf")

    # ------------------------------------------------------------------ throughput
    @property
    def output_token_throughput(self) -> float:
        """Generated tokens per second over the run (the paper's token throughput)."""
        if self.makespan <= 0 or not self.num_finished:
            return 0.0
        tokens = int(self.arrays.output_length[self.arrays.finished].sum())
        return tokens / self.makespan

    @property
    def total_token_throughput(self) -> float:
        """Prompt + generated tokens per second over the run."""
        if self.makespan <= 0 or not self.num_finished:
            return 0.0
        fin = self.arrays.finished
        tokens = int(self.arrays.input_length[fin].sum() + self.arrays.output_length[fin].sum())
        return tokens / self.makespan

    @property
    def request_throughput(self) -> float:
        """Completed requests per second over the run."""
        if self.makespan <= 0:
            return 0.0
        return self.num_finished / self.makespan


def merge_results(
    results: Sequence[SimulationResult], label: str = "merged"
) -> SimulationResult:
    """Combine sequential window runs of one trace into a single result.

    The columns are concatenated and stably reordered by request id.  Event
    times are absolute within a trace, so the merged makespan is the latest
    clock reached by any window and the merged trace duration spans the first
    to the last arrival.  Used by the live loop and the scenario sweep to
    aggregate runs served window-by-window.
    """
    if not results:
        return SimulationResult(
            MetricArrays.from_metrics([]), makespan=0.0, trace_duration=0.0, label=label
        )
    columns = {
        f.name: np.concatenate([getattr(r.arrays, f.name) for r in results])
        for f in fields(MetricArrays)
    }
    order = np.argsort(columns["request_id"], kind="stable")
    merged = MetricArrays(**{name: column[order] for name, column in columns.items()})
    arrivals = merged.arrival_time
    duration = float(arrivals.max() - arrivals.min()) if arrivals.size >= 2 else 0.0
    return SimulationResult(
        merged,
        makespan=max(r.makespan for r in results),
        trace_duration=duration,
        label=label,
    )


__all__ = [
    "MetricArrays",
    "NO_REPLICA",
    "SimulationResult",
    "merge_results",
]
