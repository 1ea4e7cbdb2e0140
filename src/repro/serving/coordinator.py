"""Request coordinator: dispatches requests across prefill and decode replicas.

The coordinator is the runtime realisation of the orchestration computed by the
scheduler: it owns the routing policy (``X`` / ``Y``), tracks per-replica
outstanding work, and picks a (prefill, decode) pair for every incoming request.
Dispatching follows the routing weights but corrects for imbalance with a
deficit-counter scheme so that the realised request shares converge to the planned
shares even for short bursts (plain sampling only matches them in expectation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import InvalidPlanError
from repro.core.types import OUTCOME_NAMES, Request
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy


@dataclass
class DispatchRecord:
    """Bookkeeping entry for one dispatched request."""

    request_id: int
    prefill_group_id: int
    decode_group_id: int


class RequestCoordinator:
    """Deficit-weighted request dispatcher over a deployment plan's routing policy."""

    def __init__(self, plan: DeploymentPlan) -> None:
        if plan.routing is None:
            routing = RoutingPolicy.uniform(
                [g.group_id for g in plan.prefill_groups],
                [g.group_id for g in plan.decode_groups],
            )
        else:
            routing = plan.routing
        self.plan = plan
        self.routing = routing
        m = len(routing.prefill_group_ids)
        n = len(routing.decode_group_ids)
        if m == 0 or n == 0:
            raise InvalidPlanError("the plan must expose prefill and decode replicas")
        # Deficit counters: planned share minus realised share, per prefill replica
        # and per (prefill, decode) pair.
        self._prefill_deficit = np.zeros(m)
        self._pair_deficit = np.zeros((m, n))
        self._dispatched = 0
        self._records: Dict[int, DispatchRecord] = {}
        self._outstanding: Dict[int, int] = {gid: 0 for gid in routing.prefill_group_ids}
        self._shed = 0
        # Run-level ledger over the typed RequestOutcome taxonomy: engine
        # outcomes fold in through record_outcomes(); shed / outage drops
        # (which never reach the engine) through their record_* calls.
        self._outcome_totals: Dict[str, int] = {name: 0 for name in OUTCOME_NAMES}

    # ------------------------------------------------------------------ dispatch
    def assign(self, request: Request) -> Tuple[int, int]:
        """Pick the (prefill group id, decode group id) pair for a request."""
        x = self.routing.x
        y = self.routing.y
        # Deficit round-robin: accumulate planned shares, serve the most underserved.
        self._prefill_deficit += x
        i = int(np.argmax(self._prefill_deficit))
        self._prefill_deficit[i] -= 1.0

        self._pair_deficit[i] += y[i]
        j = int(np.argmax(self._pair_deficit[i]))
        self._pair_deficit[i, j] -= 1.0

        prefill_id = self.routing.prefill_group_ids[i]
        decode_id = self.routing.decode_group_ids[j]
        record = DispatchRecord(
            request_id=request.request_id,
            prefill_group_id=prefill_id,
            decode_group_id=decode_id,
        )
        self._records[request.request_id] = record
        self._outstanding[prefill_id] += 1
        self._dispatched += 1
        return prefill_id, decode_id

    def record_shed(self, request: Request) -> None:
        """Account for a request the admission front-end refused to dispatch.

        Shed requests never reach a replica; they are tracked separately so
        telemetry can report the admitted vs. refused mix.
        """
        self._shed += 1
        self._outcome_totals["shed"] += 1

    def record_outage_drop(self, request: Request) -> None:
        """Account for a request lost to a total-capacity outage.

        Unlike shed requests (a deliberate admission decision), outage drops
        arrive while no GPU is alive to serve them; the live loop records them
        as zero-attainment misses and this call keeps the outcome ledger
        complete.
        """
        self._outcome_totals["dropped_outage"] += 1

    def record_outcomes(self, counts: Dict[str, int]) -> None:
        """Fold one simulation run's outcome counts into the run-level ledger.

        ``counts`` is the mapping returned by
        :meth:`~repro.simulation.metrics.SimulationResult.outcome_counts`
        (request count per :class:`~repro.core.types.RequestOutcome` name).
        Shed and outage-dropped requests never reach the engine, so their
        dedicated ``record_*`` calls keep the ledger complete; callers must
        not fold the same result twice.
        """
        for name, count in counts.items():
            if name not in self._outcome_totals:
                raise KeyError(f"unknown request outcome {name!r}")
            self._outcome_totals[name] += int(count)

    def complete(self, request_id: int) -> None:
        """Mark a request finished (releases its outstanding-work accounting)."""
        record = self._records.pop(request_id, None)
        if record is None:
            raise KeyError(f"unknown request id {request_id}")
        self._outstanding[record.prefill_group_id] -= 1

    # ------------------------------------------------------------------ stats
    @property
    def num_dispatched(self) -> int:
        """Total number of requests dispatched so far."""
        return self._dispatched

    @property
    def num_shed(self) -> int:
        """Total number of requests refused by the admission front-end."""
        return self._shed

    @property
    def outcome_totals(self) -> Dict[str, int]:
        """Run-level request count per :class:`~repro.core.types.RequestOutcome` name."""
        return dict(self._outcome_totals)

    def outstanding(self, prefill_group_id: int) -> int:
        """Outstanding (dispatched, not completed) requests of one prefill replica."""
        return self._outstanding[prefill_group_id]

    def update_routing(self, routing: RoutingPolicy) -> None:
        """Install a new routing policy (after a lightweight rescheduling)."""
        self.routing = routing
        m = len(routing.prefill_group_ids)
        n = len(routing.decode_group_ids)
        self._prefill_deficit = np.zeros(m)
        self._pair_deficit = np.zeros((m, n))
        for gid in routing.prefill_group_ids:
            self._outstanding.setdefault(gid, 0)


__all__ = ["RequestCoordinator", "DispatchRecord"]
