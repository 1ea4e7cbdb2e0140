"""Tests for declarative SLO objectives, profile inference and breach tracking."""

import json

import pytest

from repro.serving.slo_objectives import (
    DEFAULT_PROFILE,
    BreachEvent,
    SLOBreachTracker,
    SLOObjective,
    auto_slo_config,
    evaluate_slo_objectives,
    infer_slo_profile,
    resolve_slo_objectives,
)


def _objective(name="availability", metric="attainment_e2e", op=">=", target=0.9):
    return SLOObjective(name=name, metric=metric, op=op, target=target)


class TestSLOObjective:
    def test_geq_and_leq_semantics(self):
        geq = _objective(op=">=", target=0.9)
        assert geq.is_met(0.9) and geq.is_met(1.0)
        assert not geq.is_met(0.89)
        leq = _objective(metric="estimated_rho", op="<=", target=0.95)
        assert leq.is_met(0.95) and leq.is_met(0.1)
        assert not leq.is_met(0.96)

    def test_missing_and_nan_never_satisfy(self):
        obj = _objective()
        assert not obj.is_met(None)
        assert not obj.is_met(float("nan"))

    def test_invalid_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            _objective(op="==")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            _objective(name="")

    def test_dict_round_trip(self):
        obj = _objective()
        assert SLOObjective.from_dict(obj.to_dict()) == obj


class TestEvaluate:
    def test_report_pass_and_fail(self):
        snapshot = {"attainment_e2e": 0.95, "estimated_rho": 0.99}
        report = evaluate_slo_objectives(
            snapshot,
            [
                _objective(),
                _objective(name="headroom", metric="estimated_rho", op="<=", target=0.95),
            ],
        )
        assert not report.passed
        assert report.failed == ["headroom"]
        assert report.profile == DEFAULT_PROFILE
        assert [o.passed for o in report.outcomes] == [True, False]

    def test_missing_metric_fails_its_objective(self):
        report = evaluate_slo_objectives({}, [_objective()])
        assert report.failed == ["availability"]
        assert report.outcomes[0].value is None

    def test_accepts_dict_form_objectives(self):
        report = evaluate_slo_objectives(
            {"attainment_e2e": 1.0},
            [{"name": "availability", "metric": "attainment_e2e", "op": ">=", "target": 0.9}],
        )
        assert report.passed

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            evaluate_slo_objectives({}, [_objective(), _objective()])

    def test_report_to_dict_is_json_serialisable(self):
        report = evaluate_slo_objectives({"attainment_e2e": 0.5}, [_objective()])
        data = json.loads(json.dumps(report.to_dict()))
        assert data["passed"] is False
        assert data["failed"] == ["availability"]


class TestProfileInference:
    def test_realtime_when_healthy(self):
        snapshot = {"attainment_e2e": 0.9, "estimated_rho": 0.5}
        assert infer_slo_profile(snapshot) == "realtime"

    def test_degraded_on_low_attainment(self):
        assert infer_slo_profile({"attainment_e2e": 0.4, "estimated_rho": 0.5}) == "degraded"

    def test_degraded_on_overload(self):
        assert infer_slo_profile({"attainment_e2e": 0.95, "estimated_rho": 0.99}) == "degraded"

    def test_missing_attainment_falls_back_deterministically(self):
        # Partial telemetry must resolve the same profile every time.
        snapshots = [{}, {"estimated_rho": 0.1}, {"attainment_e2e": float("nan")}]
        for snapshot in snapshots:
            assert infer_slo_profile(snapshot) == "degraded"
            assert infer_slo_profile(snapshot, default_profile="fallback") == "fallback"


class TestResolve:
    def test_flat_form_resolves_to_default_profile(self):
        profile, objectives = resolve_slo_objectives(
            {"objectives": [_objective().to_dict()]}, {"attainment_e2e": 1.0}
        )
        assert profile == DEFAULT_PROFILE
        assert [o.name for o in objectives] == ["availability"]

    def test_profile_form_switches_on_snapshot(self):
        config = auto_slo_config()
        healthy, _ = resolve_slo_objectives(
            config, {"attainment_e2e": 0.9, "estimated_rho": 0.5}
        )
        degraded, objectives = resolve_slo_objectives(
            config, {"attainment_e2e": 0.2, "estimated_rho": 0.5}
        )
        assert healthy == "realtime"
        assert degraded == "degraded"
        assert [o.name for o in objectives] == ["availability"]

    def test_unconfigured_inferred_profile_falls_back(self):
        config = {
            "auto": {"default_profile": "degraded"},
            # No realtime profile configured: a healthy snapshot must still
            # resolve deterministically to the fallback.
            "profiles": {"degraded": [_objective(target=0.5).to_dict()]},
        }
        profile, _ = resolve_slo_objectives(config, {"attainment_e2e": 1.0})
        assert profile == "degraded"

    def test_missing_fallback_profile_rejected(self):
        config = {"auto": {"default_profile": "absent"}, "profiles": {"realtime": []}}
        with pytest.raises(ValueError, match="absent"):
            resolve_slo_objectives(config, {})

    def test_config_without_objectives_or_profiles_rejected(self):
        with pytest.raises(ValueError, match="objectives"):
            resolve_slo_objectives({}, {})

    def test_auto_config_floor_ordering_validated(self):
        with pytest.raises(ValueError):
            auto_slo_config(realtime_attainment=0.4, degraded_attainment=0.6)


class TestBreachTracker:
    def _report(self, value):
        return evaluate_slo_objectives(
            {"attainment_e2e": value}, [_objective(target=0.9)], profile="realtime"
        )

    def test_breach_fires_exactly_once_per_crossing(self):
        tracker = SLOBreachTracker()
        # pass -> fail fires; staying failed stays silent.
        assert tracker.update(self._report(1.0), time=1.0) == []
        first = tracker.update(self._report(0.5), time=2.0, window_index=1)
        assert len(first) == 1
        assert tracker.update(self._report(0.4), time=3.0, window_index=2) == []
        assert tracker.update(self._report(0.3), time=4.0, window_index=3) == []
        assert tracker.breached_objectives == ["availability"]
        # Recovery re-arms; the next crossing fires a fresh event.
        assert tracker.update(self._report(0.95), time=5.0) == []
        assert tracker.breached_objectives == []
        second = tracker.update(self._report(0.2), time=6.0, window_index=5)
        assert len(second) == 1
        assert second[0].window_index == 5

    def test_initial_failure_fires_immediately(self):
        tracker = SLOBreachTracker()
        events = tracker.update(self._report(0.0), time=0.0, context="trace-a")
        assert len(events) == 1
        event = events[0]
        assert event.objective == "availability"
        assert event.profile == "realtime"
        assert event.context == "trace-a"
        assert event.value == 0.0

    def test_reset_rearms_everything(self):
        tracker = SLOBreachTracker()
        tracker.update(self._report(0.0), time=0.0)
        tracker.reset()
        assert tracker.breached_objectives == []
        assert len(tracker.update(self._report(0.0), time=1.0)) == 1


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
