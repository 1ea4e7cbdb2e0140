"""The live loop's two-tier SLO policy and its breach events.

The live serving loop (:mod:`repro.serving.live`) judges every serving window
with :func:`judge_window`: the window is served ``"realtime"`` while its E2E
attainment stays at or above :data:`REALTIME_ATTAINMENT_MIN` and the
estimated prefill utilisation below :data:`OVERLOAD_RHO`, and ``"degraded"``
otherwise.  Each profile has fixed objectives (:data:`OBJECTIVES`):

============  ================  ==================================
profile       objective         rule
============  ================  ==================================
realtime      availability      ``attainment_e2e >= 0.9``
realtime      headroom          ``estimated_rho <= 0.95``
degraded      availability      ``attainment_e2e >= 0.5``
============  ================  ==================================

Objectives that fail produce :class:`BreachEvent` records — edge-triggered by
:class:`SLOBreachTracker`, once per crossing — which the live loop feeds to
the §3.4 lightweight rescheduler.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

#: Windowed E2E attainment at or above which a window is judged realtime.
REALTIME_ATTAINMENT_MIN = 0.75
#: Estimated prefill utilisation at or beyond which a window is judged degraded.
OVERLOAD_RHO = 0.95

#: Objectives ``(name, metric, op, target)`` of each profile, in check order.
OBJECTIVES: Dict[str, Tuple[Tuple[str, str, str, float], ...]] = {
    "realtime": (
        ("availability", "attainment_e2e", ">=", 0.9),
        ("headroom", "estimated_rho", "<=", OVERLOAD_RHO),
    ),
    "degraded": (("availability", "attainment_e2e", ">=", 0.5),),
}

#: One judged objective: ``((name, metric, op, target), value, passed)``.
Outcome = Tuple[Tuple[str, str, str, float], Optional[float], bool]


def judge_window(metrics: Mapping[str, Optional[float]]) -> Tuple[str, List[Outcome]]:
    """Pick a window's profile and check its objectives.

    Parameters
    ----------
    metrics:
        The window's ``attainment_e2e`` and ``estimated_rho``.

    Returns
    -------
    tuple
        ``(profile, outcomes)``: one ``(objective, value, passed)`` entry per
        objective of the profile, in :data:`OBJECTIVES` order.  A missing or
        NaN attainment selects the degraded profile, a missing or NaN
        utilisation counts as 0 when picking the profile, and a missing or
        NaN value fails its objective.
    """

    def read(metric: str) -> Optional[float]:
        raw = metrics.get(metric)
        return None if raw is None else float(raw)

    attainment, rho = read("attainment_e2e"), read("estimated_rho")
    overloaded = rho is not None and not math.isnan(rho) and rho >= OVERLOAD_RHO
    realtime = attainment is not None and attainment >= REALTIME_ATTAINMENT_MIN
    profile = "realtime" if realtime and not overloaded else "degraded"
    outcomes: List[Outcome] = []
    for objective in OBJECTIVES[profile]:
        _, metric, op, target = objective
        value = read(metric)
        passed = value is not None and (value >= target if op == ">=" else value <= target)
        outcomes.append((objective, value, passed))
    return profile, outcomes


@dataclass(frozen=True)
class BreachEvent:
    """One SLO-objective crossing from passing to failing.

    Emitted by :class:`SLOBreachTracker` exactly once
    per crossing: a persistently failing objective does not re-fire until it
    has recovered (passed) and failed again.
    """

    #: serving-clock time the breach was observed (window end)
    time: float
    #: index of the serving window whose metrics breached
    window_index: int
    #: profile active when the breach fired
    profile: str
    #: name of the breached objective
    objective: str
    #: window metric the objective reads
    metric: str
    #: comparison direction of the objective
    op: str
    #: objective threshold
    target: float
    #: observed value (``None`` when the metric was absent)
    value: Optional[float]
    #: free-form label of the serving context (scenario name, trace label, ...)
    context: str = ""

    def describe(self) -> str:
        """Return a human-readable one-line summary of the breach."""
        observed = "n/a" if self.value is None else f"{self.value:.4g}"
        return (
            f"SLO breach [{self.profile}] {self.objective}: "
            f"{self.metric}={observed} violates {self.op} {self.target:g} "
            f"(window {self.window_index}, t={self.time:.1f}s)"
        )

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable dict form of the event."""
        return {
            "time": self.time,
            "window_index": self.window_index,
            "profile": self.profile,
            "objective": self.objective,
            "metric": self.metric,
            "op": self.op,
            "target": self.target,
            "value": self.value,
            "context": self.context,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BreachEvent":
        """Rebuild an event from its dict form (inverse of :meth:`to_dict`)."""
        return cls(
            time=float(data["time"]),  # type: ignore[arg-type]
            window_index=int(data["window_index"]),  # type: ignore[arg-type]
            profile=str(data["profile"]),
            objective=str(data["objective"]),
            metric=str(data["metric"]),
            op=str(data["op"]),
            target=float(data["target"]),  # type: ignore[arg-type]
            value=None if data.get("value") is None else float(data["value"]),  # type: ignore[arg-type]
            context=str(data.get("context", "")),
        )


class SLOBreachTracker:
    """Edge-triggered breach bookkeeping over per-window judgements.

    A breach event fires when an objective crosses from passing (or unseen) to
    failing; while the objective keeps failing in subsequent windows no further
    event is emitted.  When the objective passes again it is re-armed, so the
    next crossing fires a fresh event.  State is keyed on the objective name,
    across profiles.  This mirrors how alerting pipelines de-duplicate a
    sustained violation into one page.
    """

    def __init__(self) -> None:
        self._breached: Set[str] = set()

    def update(
        self,
        profile: str,
        outcomes: List[Outcome],
        time: float,
        window_index: int = 0,
        context: str = "",
    ) -> List[BreachEvent]:
        """Fold one window's judgement into the tracker and return new breaches.

        Parameters
        ----------
        profile, outcomes:
            The window's judgement, as returned by :func:`judge_window`.
        time:
            Serving-clock time stamped onto emitted events (the window end).
        window_index:
            Index of the window, recorded on emitted events.
        context:
            Free-form serving context (scenario name, trace label).

        Returns
        -------
        list of BreachEvent
            One event per objective that *newly* crossed into failure this
            window, in outcome order.  Objectives already breached stay
            silent; objectives that passed are re-armed.
        """
        events: List[BreachEvent] = []
        for (name, metric, op, target), value, passed in outcomes:
            if passed:
                self._breached.discard(name)
                continue
            if name in self._breached:
                continue
            self._breached.add(name)
            events.append(
                BreachEvent(
                    time=time,
                    window_index=window_index,
                    profile=profile,
                    objective=name,
                    metric=metric,
                    op=op,
                    target=target,
                    value=value,
                    context=context,
                )
            )
        return events


__all__ = [
    "REALTIME_ATTAINMENT_MIN",
    "OVERLOAD_RHO",
    "OBJECTIVES",
    "BreachEvent",
    "SLOBreachTracker",
    "judge_window",
]
