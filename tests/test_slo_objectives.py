"""Tests for the two-tier SLO policy and edge-triggered breach tracking."""

import json

import pytest

from repro.serving.slo_objectives import (
    OBJECTIVES,
    BreachEvent,
    SLOBreachTracker,
    judge_window,
)


def _judge(attainment, rho=0.5):
    return judge_window({"attainment_e2e": attainment, "estimated_rho": rho})


class TestProfileInference:
    def test_realtime_when_healthy(self):
        profile, outcomes = _judge(0.9)
        assert profile == "realtime"
        assert all(passed for _, _, passed in outcomes)

    def test_degraded_on_low_attainment(self):
        assert _judge(0.4)[0] == "degraded"

    def test_degraded_on_overload(self):
        assert _judge(0.95, rho=0.99)[0] == "degraded"

    def test_missing_attainment_falls_back_deterministically(self):
        # Partial telemetry must resolve the same profile every time.
        for metrics in [{}, {"estimated_rho": 0.1}, {"attainment_e2e": float("nan")}]:
            profile, outcomes = judge_window(metrics)
            assert profile == "degraded"
            assert [passed for _, _, passed in outcomes] == [False]


class TestPolicyEdges:
    @pytest.mark.parametrize(
        "attainment, rho, profile, passed",
        [
            # Profile boundaries: attainment 0.75 is realtime, rho 0.95 is overload.
            (0.75, 0.9499, "realtime", [False, True]),
            (0.75, 0.95, "degraded", [True]),
            # Objective boundaries are inclusive.
            (0.9, 0.9499, "realtime", [True, True]),
            (0.5, 0.2, "degraded", [True]),
            (0.4999, 0.2, "degraded", [False]),
            # NaN attainment is degraded and fails; NaN rho counts as 0 for the
            # profile but fails the headroom objective.
            (float("nan"), 0.2, "degraded", [False]),
            (0.95, float("nan"), "realtime", [True, False]),
        ],
    )
    def test_thresholds(self, attainment, rho, profile, passed):
        judged, outcomes = _judge(attainment, rho)
        assert judged == profile
        assert [objective for objective, _, _ in outcomes] == list(OBJECTIVES[profile])
        assert [ok for _, _, ok in outcomes] == passed


class TestBreachTracker:
    def _update(self, tracker, attainment, **kwargs):
        return tracker.update(*_judge(attainment), **kwargs)

    def test_breach_fires_exactly_once_per_crossing(self):
        tracker = SLOBreachTracker()
        # pass -> fail fires; staying failed stays silent.
        assert self._update(tracker, 1.0, time=1.0) == []
        first = self._update(tracker, 0.4, time=2.0, window_index=1)
        assert len(first) == 1
        assert self._update(tracker, 0.3, time=3.0, window_index=2) == []
        assert self._update(tracker, 0.2, time=4.0, window_index=3) == []
        # Recovery re-arms; the next crossing fires a fresh event.
        assert self._update(tracker, 0.95, time=5.0) == []
        second = self._update(tracker, 0.1, time=6.0, window_index=5)
        assert len(second) == 1
        assert second[0].window_index == 5

    def test_initial_failure_fires_immediately(self):
        tracker = SLOBreachTracker()
        events = self._update(tracker, 0.0, time=0.0, context="trace-a")
        assert len(events) == 1
        event = events[0]
        assert event.objective == "availability"
        assert event.profile == "degraded"
        assert (event.metric, event.op, event.target) == ("attainment_e2e", ">=", 0.5)
        assert event.context == "trace-a"
        assert event.value == 0.0

    def test_state_is_keyed_on_objective_name_across_profiles(self):
        tracker = SLOBreachTracker()
        # Realtime availability fails (0.8 < 0.9) and fires ...
        assert [e.profile for e in self._update(tracker, 0.8, time=1.0)] == ["realtime"]
        # ... and the degraded tier's availability, same name, stays silent.
        assert self._update(tracker, 0.3, time=2.0) == []


class TestBreachEventSerialisation:
    def test_json_round_trip(self):
        event = BreachEvent(
            time=42.0,
            window_index=3,
            profile="realtime",
            objective="availability",
            metric="attainment_e2e",
            op=">=",
            target=0.9,
            value=0.55,
            context="diurnal",
        )
        restored = BreachEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert restored == event

    def test_round_trip_preserves_missing_value(self):
        event = BreachEvent(
            time=1.0, window_index=0, profile="degraded", objective="availability",
            metric="attainment_e2e", op=">=", target=0.5, value=None,
        )
        restored = BreachEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert restored == event
        assert "n/a" in restored.describe()
