"""Declarative SLO objectives, serving profiles and breach events.

The live serving loop (:mod:`repro.serving.live`) measures a telemetry
*snapshot* per serving window — attainment, queue wait, estimated utilisation —
and checks it against a declarative *SLO-objective config*.  The config either
lists one flat set of objectives or, in profile form, maps *profiles* (e.g.
``"realtime"`` / ``"degraded"``) to objective lists plus an ``auto`` block
telling :func:`infer_slo_profile` how to pick the profile from the live
snapshot.  Objectives that fail produce :class:`BreachEvent` records —
edge-triggered by :class:`SLOBreachTracker`, once per crossing — which the
live loop feeds to the §3.4 lightweight rescheduler.

Config schema (the profile form)::

    {
        "auto": {
            "realtime_attainment_min": 0.75,   # snapshot attainment at or above
                                               # which the realtime profile applies
            "overload_rho": 0.95,              # estimated utilisation beyond which
                                               # the service is considered degraded
            "default_profile": "degraded",     # deterministic fallback profile
        },
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

The flat form is simply ``{"objectives": [...]}`` and always evaluates under
the ``"default"`` profile.  :func:`auto_slo_config` builds a ready-to-use
profile-form config from two attainment floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

#: Comparison operators an objective may use.
SLO_OPS: Tuple[str, ...] = (">=", "<=")

#: Profile name used when a config has no profiles (flat ``objectives`` form).
DEFAULT_PROFILE = "default"


@dataclass(frozen=True)
class SLOObjective:
    """One declarative SLO objective: a named threshold on a snapshot metric.

    Parameters
    ----------
    name:
        Stable identifier of the objective (breach events key on it).
    metric:
        Snapshot key the objective reads (e.g. ``"attainment_e2e"``).
    op:
        Comparison direction, ``">="`` or ``"<="``.
    target:
        Threshold the metric is compared against.

    Raises
    ------
    ValueError
        If ``name`` or ``metric`` is empty, or ``op`` is not a known operator.
    """

    name: str
    metric: str
    op: str
    target: float

    def __post_init__(self) -> None:
        if not self.name or not self.metric:
            raise ValueError("objective name and metric must be non-empty")
        if self.op not in SLO_OPS:
            raise ValueError(f"op must be one of {SLO_OPS}, got {self.op!r}")

    def is_met(self, value: Optional[float]) -> bool:
        """Return whether ``value`` satisfies the objective.

        A missing (``None``) or NaN value never satisfies an objective: an
        unobservable metric is treated as a breach, not silently skipped.
        """
        if value is None or math.isnan(value):
            return False
        return value >= self.target if self.op == ">=" else value <= self.target

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable dict form of the objective."""
        return {"name": self.name, "metric": self.metric, "op": self.op, "target": self.target}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SLOObjective":
        """Build an objective from its dict form (the config-file syntax)."""
        return cls(
            name=str(data["name"]),
            metric=str(data["metric"]),
            op=str(data["op"]),
            target=float(data["target"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ObjectiveOutcome:
    """Evaluation of one objective against one snapshot."""

    objective: SLOObjective
    #: the snapshot value the objective read (``None`` when the metric was absent)
    value: Optional[float]
    #: whether the objective was satisfied
    passed: bool


@dataclass(frozen=True)
class SLOReport:
    """Outcome of evaluating a profile's objectives against one snapshot."""

    profile: str
    outcomes: Tuple[ObjectiveOutcome, ...]

    @property
    def passed(self) -> bool:
        """Whether every objective passed."""
        return all(o.passed for o in self.outcomes)

    @property
    def failed(self) -> List[str]:
        """Names of the objectives that failed, in config order."""
        return [o.objective.name for o in self.outcomes if not o.passed]

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable dict form of the report."""
        return {
            "profile": self.profile,
            "passed": self.passed,
            "failed": list(self.failed),
            "outcomes": [
                {**o.objective.to_dict(), "value": o.value, "objective_passed": o.passed}
                for o in self.outcomes
            ],
        }


@dataclass(frozen=True)
class BreachEvent:
    """One SLO-objective crossing from passing to failing.

    Emitted by :class:`SLOBreachTracker` exactly once
    per crossing: a persistently failing objective does not re-fire until it
    has recovered (passed) and failed again.
    """

    #: serving-clock time the breach was observed (window end)
    time: float
    #: index of the serving window whose snapshot breached
    window_index: int
    #: profile active when the breach fired
    profile: str
    #: name of the breached objective
    objective: str
    #: snapshot metric the objective reads
    metric: str
    #: comparison direction of the objective
    op: str
    #: objective threshold
    target: float
    #: observed value (``None`` when the metric was absent from the snapshot)
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
    """Edge-triggered breach bookkeeping over per-window SLO reports.

    A breach event fires when an objective crosses from passing (or unseen) to
    failing; while the objective keeps failing in subsequent windows no further
    event is emitted.  When the objective passes again it is re-armed, so the
    next crossing fires a fresh event.  This mirrors how alerting pipelines
    de-duplicate a sustained violation into one page.
    """

    def __init__(self) -> None:
        self._breached: Set[str] = set()

    def update(
        self,
        report: SLOReport,
        time: float,
        window_index: int = 0,
        context: str = "",
    ) -> List[BreachEvent]:
        """Fold one window's report into the tracker and return new breaches.

        Parameters
        ----------
        report:
            The window's :class:`SLOReport`.
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
            window, in report order.  Objectives already breached stay silent;
            objectives that passed are re-armed.
        """
        events: List[BreachEvent] = []
        for outcome in report.outcomes:
            name = outcome.objective.name
            if outcome.passed:
                self._breached.discard(name)
                continue
            if name in self._breached:
                continue
            self._breached.add(name)
            events.append(
                BreachEvent(
                    time=time,
                    window_index=window_index,
                    profile=report.profile,
                    objective=name,
                    metric=outcome.objective.metric,
                    op=outcome.objective.op,
                    target=outcome.objective.target,
                    value=outcome.value,
                    context=context,
                )
            )
        return events

    @property
    def breached_objectives(self) -> List[str]:
        """Names of the objectives currently in a breached state, sorted."""
        return sorted(self._breached)

    def reset(self) -> None:
        """Forget all breach state (every objective is re-armed)."""
        self._breached.clear()


def _as_objectives(items: Sequence[object]) -> List[SLOObjective]:
    """Normalise a config objective list to :class:`SLOObjective` instances."""
    objectives: List[SLOObjective] = []
    for item in items:
        if isinstance(item, SLOObjective):
            objectives.append(item)
        else:
            objectives.append(SLOObjective.from_dict(item))  # type: ignore[arg-type]
    names = [o.name for o in objectives]
    if len(set(names)) != len(names):
        raise ValueError(f"objective names must be unique within a profile, got {names}")
    return objectives


def evaluate_slo_objectives(
    snapshot: Mapping[str, float],
    objectives: Sequence[object],
    profile: str = DEFAULT_PROFILE,
) -> SLOReport:
    """Evaluate objectives against a telemetry snapshot.

    Parameters
    ----------
    snapshot:
        Metric name → value mapping (a :meth:`WindowTelemetry.snapshot
        <repro.serving.live.WindowTelemetry.snapshot>` or any dict).
    objectives:
        Objective list — :class:`SLOObjective` instances or their dict form.
    profile:
        Profile label recorded on the report (and on any breach events derived
        from it).

    Returns
    -------
    SLOReport
        Per-objective outcomes in config order; a metric absent from the
        snapshot fails its objective.
    """
    outcomes = []
    for objective in _as_objectives(objectives):
        raw = snapshot.get(objective.metric)
        value = None if raw is None else float(raw)
        outcomes.append(
            ObjectiveOutcome(objective=objective, value=value, passed=objective.is_met(value))
        )
    return SLOReport(profile=profile, outcomes=tuple(outcomes))


def infer_slo_profile(
    snapshot: Mapping[str, float],
    realtime_attainment_min: float = 0.75,
    overload_rho: float = 0.95,
    default_profile: str = "degraded",
) -> str:
    """Infer the serving profile a snapshot should be judged under.

    The service is ``"realtime"`` while E2E attainment stays at or above
    ``realtime_attainment_min`` and the estimated prefill utilisation stays
    below ``overload_rho``; otherwise it is judged under ``default_profile``
    (the degraded tier).  A snapshot missing ``attainment_e2e`` resolves to
    ``default_profile`` — inference is deterministic on partial telemetry.
    """
    attainment = snapshot.get("attainment_e2e")
    if attainment is None or math.isnan(float(attainment)):
        return default_profile
    rho = snapshot.get("estimated_rho", 0.0)
    rho = 0.0 if rho is None or math.isnan(float(rho)) else float(rho)
    if float(attainment) >= realtime_attainment_min and rho < overload_rho:
        return "realtime"
    return default_profile


def resolve_slo_objectives(
    config: Mapping[str, object],
    snapshot: Mapping[str, float],
) -> Tuple[str, List[SLOObjective]]:
    """Resolve which profile and objective list apply to a snapshot.

    Parameters
    ----------
    config:
        An SLO-objective config in flat form (``{"objectives": [...]}``) or
        profile form (``{"auto": {...}, "profiles": {...}}`` — see the module
        docstring for the schema).
    snapshot:
        The telemetry snapshot used by profile auto-inference.

    Returns
    -------
    tuple
        ``(profile_name, objectives)``.  The flat form always resolves to
        ``("default", ...)``; the profile form resolves via
        :func:`infer_slo_profile` and falls back deterministically to the
        ``auto.default_profile`` entry when the inferred profile is not
        configured.

    Raises
    ------
    ValueError
        If the config has neither ``objectives`` nor ``profiles``, or the
        fallback profile is missing from ``profiles``.
    """
    if "objectives" in config:
        return DEFAULT_PROFILE, _as_objectives(config["objectives"])  # type: ignore[arg-type]
    profiles = config.get("profiles")
    if not isinstance(profiles, Mapping) or not profiles:
        raise ValueError("SLO config must define 'objectives' or a non-empty 'profiles' mapping")
    auto = config.get("auto") or {}
    if not isinstance(auto, Mapping):
        raise ValueError("'auto' must be a mapping when present")
    default_profile = str(auto.get("default_profile", "degraded"))
    profile = infer_slo_profile(
        snapshot,
        realtime_attainment_min=float(auto.get("realtime_attainment_min", 0.75)),  # type: ignore[arg-type]
        overload_rho=float(auto.get("overload_rho", 0.95)),  # type: ignore[arg-type]
        default_profile=default_profile,
    )
    if profile not in profiles:
        profile = default_profile
    if profile not in profiles:
        raise ValueError(
            f"fallback profile {profile!r} is not configured; profiles: {sorted(profiles)}"
        )
    return profile, _as_objectives(profiles[profile])  # type: ignore[arg-type]


def auto_slo_config(
    realtime_attainment: float = 0.9,
    degraded_attainment: float = 0.5,
    overload_rho: float = 0.95,
    realtime_inference_min: float = 0.75,
) -> Dict[str, object]:
    """Build a profile-form SLO config from two attainment floors.

    The realtime profile demands ``attainment_e2e >= realtime_attainment`` and
    utilisation headroom (``estimated_rho <= overload_rho``); the degraded
    profile only demands ``attainment_e2e >= degraded_attainment``.  Profile
    inference switches to degraded once windowed attainment drops below
    ``realtime_inference_min`` or the estimator reports utilisation at or
    beyond ``overload_rho``.
    """
    if not 0 <= degraded_attainment <= realtime_attainment <= 1:
        raise ValueError("need 0 <= degraded_attainment <= realtime_attainment <= 1")
    return {
        "auto": {
            "realtime_attainment_min": realtime_inference_min,
            "overload_rho": overload_rho,
            "default_profile": "degraded",
        },
        "profiles": {
            "realtime": [
                {
                    "name": "availability",
                    "metric": "attainment_e2e",
                    "op": ">=",
                    "target": realtime_attainment,
                },
                {"name": "headroom", "metric": "estimated_rho", "op": "<=", "target": overload_rho},
            ],
            "degraded": [
                {
                    "name": "availability",
                    "metric": "attainment_e2e",
                    "op": ">=",
                    "target": degraded_attainment,
                },
            ],
        },
    }


__all__ = [
    "SLO_OPS",
    "DEFAULT_PROFILE",
    "SLOObjective",
    "ObjectiveOutcome",
    "SLOReport",
    "BreachEvent",
    "SLOBreachTracker",
    "evaluate_slo_objectives",
    "infer_slo_profile",
    "resolve_slo_objectives",
    "auto_slo_config",
]
