"""Scenario abstraction: named, parameterized workload situations.

A :class:`Scenario` bundles everything needed to exercise a deployment plan under
one operating condition: how requests arrive over time (:meth:`Scenario.build_trace`),
which workload shape the scheduler should plan for
(:meth:`Scenario.planning_workload`), how tight the SLO tier is
(:meth:`Scenario.slo_scale`) and, for failure-injection scenarios, which GPUs
fail when (:meth:`Scenario.fault_schedule`, a :class:`~repro.faults.FaultSchedule`
the sweep replays through the live serving loop).

Scenarios are deterministic under a fixed seed: the same seed always yields the
same trace, which is what lets the scenario test-suite assert golden invariants
and the :class:`~repro.scenarios.sweep.ScenarioSweep` produce reproducible
comparisons.
"""

from __future__ import annotations

import abc
from typing import Callable, ClassVar, List, Optional

from repro.core.rng import RNGLike, ensure_rng
from repro.core.types import Request, SLOSpec
from repro.costmodel.latency import CostModelParams, DEFAULT_PARAMS
from repro.costmodel.reference import a100_reference_latency
from repro.faults.taxonomy import FaultSchedule
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace


class Scenario(abc.ABC):
    """One named workload situation a deployment plan can be evaluated under."""

    #: registry name of the scenario (stable across parameterizations)
    name: ClassVar[str] = "scenario"
    #: one-line human description shown in sweep reports
    description: ClassVar[str] = ""

    #: planned mean arrival rate in requests/s (subclasses declare the field)
    request_rate: float
    #: length of the generated trace in seconds
    duration: float

    @abc.abstractmethod
    def build_trace(self, seed: RNGLike = None) -> Trace:
        """Generate the scenario's request trace (deterministic under ``seed``)."""

    @abc.abstractmethod
    def planning_workload(self) -> WorkloadSpec:
        """Workload shape the scheduler should plan for under this scenario."""

    def slo_scale(self) -> float:
        """SLO tier of the scenario as a multiple of the A100 reference latency."""
        return 5.0

    def fault_schedule(self, cluster: Cluster, seed: RNGLike = None) -> FaultSchedule:
        """Faults injected while the trace is served on ``cluster``.

        Victims are pinned at compile time (deterministic under ``seed``), so
        the schedule replays identically.  The default is an empty schedule.
        """
        return FaultSchedule()

    def rescheduling_mode(self) -> str:
        """Capacity-replan strategy applied after each capacity loss.

        One of the Figure 11 strategies accepted by
        :meth:`~repro.serving.system.ThunderServe.replan_capacity`:
        ``"lightweight"`` (§3.4 flip-only rescheduling, the default),
        ``"full"`` (re-run the whole scheduler, parameters reload) or
        ``"none"`` (drop dead serving groups and keep the rest).
        """
        return "lightweight"

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return (
            f"{self.name}: {self.description} "
            f"({self.request_rate:g} req/s over {self.duration:g}s)"
        )


def scenario_slo(
    scenario: Scenario, model: ModelConfig, params: CostModelParams = DEFAULT_PARAMS
) -> SLOSpec:
    """The SLO tier a scenario holds a deployment to.

    Deadlines are the scenario's own :meth:`Scenario.slo_scale` multiple of the
    A100 reference latency of its planning workload.  The
    :class:`~repro.scenarios.sweep.ScenarioSweep` serves against this tier, so
    every caller that plans or measures a scenario uses the same deadlines.
    """
    workload = scenario.planning_workload()
    return a100_reference_latency(model, workload, params=params).slo_spec(
        scenario.slo_scale()
    )


def thinned_poisson_trace(
    spec: WorkloadSpec,
    rate_fn: Callable[[float], float],
    max_rate: float,
    duration: float,
    seed: RNGLike = None,
    name: Optional[str] = None,
) -> Trace:
    """Non-homogeneous Poisson trace with instantaneous rate ``rate_fn(t)``.

    Uses Lewis-Shedler thinning: homogeneous candidate arrivals at ``max_rate``
    are kept with probability ``rate_fn(t) / max_rate``, which realises any rate
    profile bounded by ``max_rate`` exactly (diurnal cycles, bursts, ramps).
    """
    if max_rate <= 0:
        raise ValueError("max_rate must be positive")
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = ensure_rng(seed)
    arrivals: List[float] = []
    t = 0.0
    chunk = max(16, int(max_rate * duration * 0.5) + 8)
    while t < duration:
        gaps = rng.exponential(1.0 / max_rate, size=chunk)
        accepts = rng.random(size=chunk)
        for gap, u in zip(gaps, accepts):
            t += gap
            if t >= duration:
                break
            rate = rate_fn(t)
            if rate < 0 or rate > max_rate:
                raise ValueError(
                    f"rate_fn({t:.3f}) = {rate:g} outside [0, max_rate={max_rate:g}]"
                )
            if u * max_rate <= rate:
                arrivals.append(t)

    n = len(arrivals)
    inputs = spec.sample_input_lengths(n, rng)
    outputs = spec.sample_output_lengths(n, rng)
    requests = [
        Request(
            request_id=i,
            arrival_time=float(arrivals[i]),
            input_length=int(inputs[i]),
            output_length=int(outputs[i]),
            workload=spec.name,
        )
        for i in range(n)
    ]
    return Trace(requests=requests, name=name or spec.name)


__all__ = ["Scenario", "scenario_slo", "thinned_poisson_trace"]
