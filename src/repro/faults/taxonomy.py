"""Typed fault taxonomy: fault kinds, events and validated schedules.

A :class:`FaultEvent` is one timestamped transition of the cluster's health:
capacity loss (GPU/spot preemption, whole-node crash), capacity recovery
(revival of previously removed GPUs by global id), network-link degradation
and repair (bandwidth/latency multipliers on the alpha-beta matrices that
price KV-cache transfers), and per-GPU straggler slowdown and recovery.

A :class:`FaultSchedule` is an immutable, time-sorted sequence of events with
construction-time field validation and an explicit :meth:`FaultSchedule.validate`
check against a scenario duration and a target cluster — schedules that
reference unknown GPUs or fire after the trace has ended are rejected with
clear errors instead of silently no-opping deep inside a serving loop.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.core.exceptions import ConfigurationError
from repro.hardware.cluster import Cluster


class FaultKind(str, enum.Enum):
    """The kinds of fault transition the injector and the live loop understand."""

    #: spot/preemption loss of individual GPUs
    GPU_PREEMPTION = "gpu_preemption"
    #: loss of every GPU on one node at once
    NODE_CRASH = "node_crash"
    #: capacity recovery: previously removed GPUs rejoin by global id
    RECOVERY = "recovery"
    #: network-link degradation (bandwidth/latency multipliers vs. pristine)
    LINK_DEGRADATION = "link_degradation"
    #: network repair: link matrices return to pristine
    LINK_RECOVERY = "link_recovery"
    #: per-GPU straggler slowdown (latency multiplier on hosted replicas)
    STRAGGLER = "straggler"
    #: straggler recovery: listed GPUs (or all, when empty) return to speed
    STRAGGLER_RECOVERY = "straggler_recovery"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: kinds that remove capacity (require pinned victim GPU ids)
CAPACITY_LOSS_KINDS = (FaultKind.GPU_PREEMPTION, FaultKind.NODE_CRASH)


@dataclass(frozen=True)
class FaultEvent:
    """One timestamped fault transition.

    Parameters
    ----------
    time:
        Serving-clock time (seconds) at which the transition takes effect.
        In the live loop, capacity events (preemption, crash, recovery) apply
        inside the engine at exactly this instant and drive a replan at the
        next window boundary; link and straggler events take effect at that
        boundary.
    kind:
        The :class:`FaultKind` of the transition.
    gpu_ids:
        Pinned victim / revived / straggling GPU ids.  Required for capacity
        loss, capacity recovery and straggler events (the injector always
        pins victims at compile time so schedules replay deterministically);
        for :attr:`FaultKind.STRAGGLER_RECOVERY` an empty tuple means "every
        straggler recovers".
    bandwidth_scale, latency_scale:
        Link multipliers of a :attr:`FaultKind.LINK_DEGRADATION` event,
        applied to the *pristine* matrices (absolute, not cumulative).
    slowdown:
        Latency multiplier of a :attr:`FaultKind.STRAGGLER` event (> 1 slows
        the hosted replicas down).
    description:
        Free-form label surfaced in telemetry.
    """

    time: float
    kind: FaultKind
    gpu_ids: Tuple[int, ...] = ()
    bandwidth_scale: float = 1.0
    latency_scale: float = 1.0
    slowdown: float = 1.0
    description: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError("fault time must be >= 0")
        kind = FaultKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "gpu_ids", tuple(int(g) for g in self.gpu_ids))
        if len(set(self.gpu_ids)) != len(self.gpu_ids):
            raise ConfigurationError(f"duplicate GPU ids in fault event: {self.gpu_ids}")
        if kind in CAPACITY_LOSS_KINDS + (FaultKind.RECOVERY, FaultKind.STRAGGLER):
            if not self.gpu_ids:
                raise ConfigurationError(f"{kind.value} events must pin gpu_ids")
        if kind is FaultKind.LINK_DEGRADATION:
            if self.bandwidth_scale <= 0:
                raise ConfigurationError("bandwidth_scale must be positive")
            if self.latency_scale < 0:
                raise ConfigurationError("latency_scale must be non-negative")
        if kind is FaultKind.STRAGGLER and self.slowdown <= 0:
            raise ConfigurationError("straggler slowdown must be positive")

    def describe(self) -> str:
        """Human-readable one-liner, stamped into window telemetry."""
        bits = [f"{self.kind.value}@{self.time:g}s"]
        if self.gpu_ids:
            bits.append(f"gpus={list(self.gpu_ids)}")
        if self.kind is FaultKind.LINK_DEGRADATION:
            bits.append(f"bw×{self.bandwidth_scale:g}, lat×{self.latency_scale:g}")
        if self.kind is FaultKind.STRAGGLER:
            bits.append(f"slowdown×{self.slowdown:g}")
        if self.description:
            bits.append(self.description)
        return " ".join(bits)

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable dict form of the event."""
        return {
            "time": self.time,
            "kind": self.kind.value,
            "gpu_ids": list(self.gpu_ids),
            "bandwidth_scale": self.bandwidth_scale,
            "latency_scale": self.latency_scale,
            "slowdown": self.slowdown,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultEvent":
        """Rebuild an event from its dict form (inverse of :meth:`to_dict`)."""
        return cls(
            time=float(data["time"]),  # type: ignore[arg-type]
            kind=FaultKind(data["kind"]),
            gpu_ids=tuple(data.get("gpu_ids", ())),  # type: ignore[arg-type]
            bandwidth_scale=float(data.get("bandwidth_scale", 1.0)),  # type: ignore[arg-type]
            latency_scale=float(data.get("latency_scale", 1.0)),  # type: ignore[arg-type]
            slowdown=float(data.get("slowdown", 1.0)),  # type: ignore[arg-type]
            description=str(data.get("description", "")),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted sequence of fault events.

    Construction sorts events by ``(time, kind, gpu_ids)`` so that two
    schedules built from the same events compare (and hash via
    :meth:`signature`) identically regardless of input order.
    """

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.kind.value, e.gpu_ids))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def validate(self, duration: float, cluster: Cluster) -> "FaultSchedule":
        """Check the schedule against a scenario duration and a target cluster.

        Raises
        ------
        ConfigurationError
            If any event fires at or after ``duration`` (it could never take
            effect), pins a GPU id outside the cluster roster, or a capacity
            loss names more GPUs than the cluster has — the silent-no-op
            failure modes this validation exists to surface early.

        Returns
        -------
        FaultSchedule
            ``self``, so validation chains onto construction.
        """
        roster = set(g.gpu_id for g in cluster.all_gpus or cluster.gpus)
        for event in self.events:
            if event.time >= duration:
                raise ConfigurationError(
                    f"fault event at t={event.time:g}s fires at/after the scenario "
                    f"duration ({duration:g}s) and could never take effect: "
                    f"{event.describe()}"
                )
            unknown = set(event.gpu_ids) - roster
            if unknown:
                raise ConfigurationError(
                    f"fault event pins GPU ids {sorted(unknown)} outside the "
                    f"cluster roster (size {len(roster)}): {event.describe()}"
                )
            if event.kind in CAPACITY_LOSS_KINDS and len(event.gpu_ids) > cluster.num_gpus:
                raise ConfigurationError(
                    f"fault event removes {len(event.gpu_ids)} GPUs but the cluster "
                    f"only has {cluster.num_gpus}: {event.describe()}"
                )
        return self

    def shifted(self, offset: float) -> "FaultSchedule":
        """Return a copy with every event time shifted by ``offset`` seconds."""
        return FaultSchedule(
            events=tuple(replace(e, time=e.time + offset) for e in self.events)
        )

    def signature(self) -> str:
        """Stable hex digest of the full schedule (bitwise-replay checks)."""
        payload = repr([e.to_dict() for e in self.events]).encode()
        return f"{zlib.crc32(payload) & 0xFFFFFFFF:08x}"

    def to_dicts(self) -> List[Dict[str, object]]:
        """Return the schedule as JSON-serialisable dicts."""
        return [e.to_dict() for e in self.events]

    @classmethod
    def from_dicts(cls, dicts: Iterable[Mapping[str, object]]) -> "FaultSchedule":
        """Rebuild a schedule from dicts (inverse of :meth:`to_dicts`)."""
        return cls(events=tuple(FaultEvent.from_dict(d) for d in dicts))

    @classmethod
    def from_events(cls, events: Sequence[FaultEvent]) -> "FaultSchedule":
        """Build a schedule from an event sequence (sorted on construction)."""
        return cls(events=tuple(events))


__all__ = [
    "FaultKind",
    "FaultEvent",
    "FaultSchedule",
    "CAPACITY_LOSS_KINDS",
]
