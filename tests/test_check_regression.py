"""Unit tests for the CI bench regression gate (benchmarks/check_regression.py).

The acceptance criterion for the gate is that it *demonstrably fails* on an
injected regression — these tests inject each failure mode (speedup collapse,
engine divergence, undrained trace, mode mismatch, missing report) and assert a
non-zero exit, plus the healthy path returning zero.
"""

import json
import sys
from pathlib import Path

import pytest

# The benchmarks directory is not a package; import the script by path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import check_regression  # noqa: E402


def report(**overrides):
    payload = {
        "benchmark": "bench_simulator_core",
        "mode": "reduced",
        "num_requests": 240,
        "decode_tokens": 27073,
        "t_fast_s": 0.05,
        "t_reference_s": 0.2,
        "speedup": 4.0,
        "speedup_bar": 2.0,
        "identical_metrics": True,
        "num_finished_fast": 240,
        "num_finished_reference": 240,
    }
    payload.update(overrides)
    return payload


def agreement_report(**overrides):
    payload = {
        "benchmark": "bench_estimator_saturation",
        "kind": "estimator_agreement",
        "mode": "reduced",
        "max_gap": 0.14,
        "mean_gap": 0.07,
        "point_tolerance": 0.20,
        "mean_tolerance": 0.10,
        "overload_rho": 1.3,
        "overload_estimated": 0.0,
        "overload_estimate_zero": True,
    }
    payload.update(overrides)
    return payload


def write(path: Path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


class TestCompare:
    def test_healthy_run_passes(self):
        failures, warnings = check_regression.compare(report(), report(speedup=3.9))
        assert failures == []
        assert warnings == []

    def test_injected_speedup_regression_fails(self):
        # >30% below the baseline: 4.0x -> 2.0x must trip the gate.
        failures, _ = check_regression.compare(report(), report(speedup=2.0))
        assert any("regressed" in f for f in failures)

    def test_regression_at_exactly_the_floor_passes(self):
        failures, _ = check_regression.compare(report(), report(speedup=2.8))
        assert failures == []

    def test_divergent_metrics_fail(self):
        failures, _ = check_regression.compare(report(), report(identical_metrics=False))
        assert any("identical_metrics" in f for f in failures)

    def test_undrained_trace_fails(self):
        failures, _ = check_regression.compare(report(), report(num_finished_fast=239))
        assert any("did not drain" in f for f in failures)

    def test_mode_mismatch_fails(self):
        failures, _ = check_regression.compare(report(mode="full"), report())
        assert any("mode mismatch" in f for f in failures)

    def test_wallclock_growth_warns_but_does_not_fail(self):
        failures, warnings = check_regression.compare(report(), report(t_fast_s=0.5))
        assert failures == []
        assert any("non-gating" in w for w in warnings)

    def test_missing_drain_counters_fail_instead_of_passing_vacuously(self):
        fresh = report()
        del fresh["num_finished_fast"]
        del fresh["num_requests"]
        failures, _ = check_regression.compare(report(), fresh)
        assert any("missing from the fresh report" in f for f in failures)

    def test_missing_speedup_fails(self):
        fresh = report()
        del fresh["speedup"]
        failures, _ = check_regression.compare(report(), fresh)
        assert any("speedup missing" in f for f in failures)


class TestCompareAgreement:
    """The estimator-agreement kind is gated by gaps, not speedups."""

    def test_healthy_agreement_report_passes(self):
        failures, warnings = check_regression.compare(
            agreement_report(), agreement_report(mean_gap=0.08)
        )
        assert failures == []
        assert warnings == []

    def test_broken_overload_contract_fails(self):
        failures, _ = check_regression.compare(
            agreement_report(),
            agreement_report(overload_estimated=0.42, overload_estimate_zero=False),
        )
        assert any("overload contract" in f for f in failures)

    def test_gap_beyond_own_tolerance_fails(self):
        failures, _ = check_regression.compare(
            agreement_report(), agreement_report(max_gap=0.25)
        )
        assert any("exceeds the report's own tolerance" in f for f in failures)

    def test_mean_gap_drift_beyond_slack_fails(self):
        # Within tolerance (0.07 -> 0.10 <= 0.10) but > 0.03 above the baseline.
        failures, _ = check_regression.compare(
            agreement_report(), agreement_report(mean_gap=0.101)
        )
        assert any("drifted" in f for f in failures)

    def test_missing_gap_keys_fail_instead_of_passing_vacuously(self):
        fresh = agreement_report()
        del fresh["max_gap"]
        failures, _ = check_regression.compare(agreement_report(), fresh)
        assert any("max_gap" in f for f in failures)

    def test_kind_mismatch_fails(self):
        failures, _ = check_regression.compare(agreement_report(), report())
        assert any("kind mismatch" in f for f in failures)

    def test_speedup_rules_not_applied_to_agreement_reports(self):
        # An agreement report has no speedup/drain keys; the speedup rules
        # must not fire spuriously.
        failures, _ = check_regression.compare(agreement_report(), agreement_report())
        assert failures == []


def chaos_report(**overrides):
    payload = {
        "benchmark": "bench_chaos_recovery",
        "kind": "chaos_recovery",
        "mode": "reduced",
        "deterministic_replay": True,
        "static_worst": 0.0,
        "adaptive_worst": 0.3,
        "failure_replans": 2,
        "recovery_replans": 2,
        "attainment_under_failure": 0.42,
        "post_recovery_attainment": 0.8,
        "total_loss_outage_windows": 1,
        "total_loss_error": "",
        "total_loss_post_attainment_zero": True,
    }
    payload.update(overrides)
    return payload


class TestCompareChaos:
    """The chaos gate fails on every injected lifecycle break."""

    def test_healthy_chaos_report_passes(self):
        failures, warnings = check_regression.compare(chaos_report(), chaos_report())
        assert failures == []
        assert warnings == []

    def test_nondeterministic_replay_fails(self):
        failures, _ = check_regression.compare(
            chaos_report(), chaos_report(deterministic_replay=False)
        )
        assert any("deterministic_replay" in f for f in failures)

    def test_adaptive_below_static_fails(self):
        failures, _ = check_regression.compare(
            chaos_report(),
            chaos_report(adaptive_worst=0.1, static_worst=0.3),
        )
        assert any("fell below static" in f for f in failures)

    def test_missing_replans_fail(self):
        failures, _ = check_regression.compare(
            chaos_report(), chaos_report(failure_replans=0, recovery_replans=0)
        )
        assert any("failure-triggered" in f for f in failures)
        assert any("recovery-triggered" in f for f in failures)

    def test_no_recovery_after_rejoin_fails(self):
        failures, _ = check_regression.compare(
            chaos_report(),
            chaos_report(post_recovery_attainment=0.2, attainment_under_failure=0.42),
        )
        assert any("recover after the rejoin" in f for f in failures)

    def test_total_loss_break_fails(self):
        failures, _ = check_regression.compare(
            chaos_report(),
            chaos_report(
                total_loss_outage_windows=0,
                total_loss_error="SchedulingError: boom",
                total_loss_post_attainment_zero=False,
            ),
        )
        assert any("outage windows" in f for f in failures)
        assert any("aborted the sweep" in f for f in failures)
        assert any("unserved" in f for f in failures)

    def test_worst_window_drift_beyond_slack_fails(self):
        drift = check_regression.CHAOS_DRIFT_SLACK + 0.01
        failures, _ = check_regression.compare(
            chaos_report(), chaos_report(adaptive_worst=0.3 + drift)
        )
        assert any("drifted" in f for f in failures)

    def test_missing_keys_fail_instead_of_passing_vacuously(self):
        broken = chaos_report()
        for key in ("adaptive_worst", "failure_replans", "total_loss_outage_windows"):
            broken.pop(key)
        failures, _ = check_regression.compare(chaos_report(), broken)
        assert failures

    def test_mode_mismatch_fails(self):
        failures, _ = check_regression.compare(
            chaos_report(), chaos_report(mode="full")
        )
        assert any("mode mismatch" in f for f in failures)

    def test_kind_mismatch_fails(self):
        failures, _ = check_regression.compare(chaos_report(), agreement_report())
        assert any("kind mismatch" in f for f in failures)


def reliability_report(**overrides):
    payload = {
        "benchmark": "bench_request_reliability",
        "kind": "request_reliability",
        "mode": "reduced",
        "num_live_requests": 900,
        "retry_completed": 900,
        "retry_recovered": 4,
        "retry_dropped": 0,
        "retry_attainment": 0.84,
        "drop_completed": 896,
        "drop_dropped": 4,
        "drop_attainment": 0.83,
        "deterministic_replay": True,
        "stream_num_requests": 50_000,
        "stream_outcomes": {
            "pending": 0,
            "finished": 30_000,
            "retried_then_finished": 12_000,
            "timed_out": 8_000,
            "dropped_outage": 0,
        },
        "stream_conserved": True,
        "stream_conservation_error": "",
        "elapsed_s": 8.0,
    }
    payload.update(overrides)
    return payload


class TestCompareReliability:
    """The reliability gate fails on every injected fault-semantics break."""

    def test_healthy_reliability_report_passes(self):
        failures, warnings = check_regression.compare(
            reliability_report(), reliability_report()
        )
        assert failures == []
        assert warnings == []

    def test_nondeterministic_replay_fails(self):
        failures, _ = check_regression.compare(
            reliability_report(), reliability_report(deterministic_replay=False)
        )
        assert any("deterministic_replay" in f for f in failures)

    def test_retry_not_beating_drop_only_fails(self):
        failures, _ = check_regression.compare(
            reliability_report(),
            reliability_report(retry_completed=896, drop_completed=896),
        )
        assert any("no longer beats drop-only" in f for f in failures)

    def test_storm_without_dispositions_fails(self):
        failures, _ = check_regression.compare(
            reliability_report(),
            reliability_report(retry_recovered=0, drop_dropped=0),
        )
        assert any("retried_then_finished" in f for f in failures)
        assert any("dropped_outage" in f for f in failures)

    def test_retry_attainment_below_drop_only_fails(self):
        failures, _ = check_regression.compare(
            reliability_report(),
            reliability_report(retry_attainment=0.70, drop_attainment=0.83),
        )
        assert any("fell below drop-only" in f for f in failures)

    def test_conservation_break_fails(self):
        failures, _ = check_regression.compare(
            reliability_report(),
            reliability_report(
                stream_conserved=False,
                stream_conservation_error="outcome counts sum to 49999",
            ),
        )
        assert any("conservation broke" in f for f in failures)

    def test_outcome_sum_mismatch_fails(self):
        bad = reliability_report()
        bad["stream_outcomes"] = dict(bad["stream_outcomes"], finished=29_999)
        failures, _ = check_regression.compare(reliability_report(), bad)
        assert any("sum to" in f for f in failures)

    def test_attainment_drift_beyond_slack_fails(self):
        drift = check_regression.RELIABILITY_DRIFT_SLACK + 0.01
        failures, _ = check_regression.compare(
            reliability_report(),
            reliability_report(
                retry_attainment=0.84 + drift, drop_attainment=0.83
            ),
        )
        assert any("drifted" in f for f in failures)

    def test_missing_keys_fail_instead_of_passing_vacuously(self):
        broken = reliability_report()
        for key in ("retry_completed", "retry_attainment", "stream_outcomes"):
            broken.pop(key)
        failures, _ = check_regression.compare(reliability_report(), broken)
        assert failures

    def test_wallclock_growth_warns_but_does_not_fail(self):
        failures, warnings = check_regression.compare(
            reliability_report(), reliability_report(elapsed_s=40.0)
        )
        assert failures == []
        assert any("non-gating" in w for w in warnings)

    def test_mode_mismatch_fails(self):
        failures, _ = check_regression.compare(
            reliability_report(), reliability_report(mode="full")
        )
        assert any("mode mismatch" in f for f in failures)

    def test_kind_mismatch_fails(self):
        failures, _ = check_regression.compare(reliability_report(), chaos_report())
        assert any("kind mismatch" in f for f in failures)


class TestMain:
    def test_healthy_exit_zero(self, tmp_path, capsys):
        base = write(tmp_path / "base.json", report())
        fresh = write(tmp_path / "fresh.json", report(speedup=3.8))
        assert check_regression.main(["--baseline", base, "--fresh", fresh]) == 0
        assert "OK:" in capsys.readouterr().out

    def test_injected_regression_exit_nonzero(self, tmp_path, capsys):
        base = write(tmp_path / "base.json", report())
        fresh = write(tmp_path / "fresh.json", report(speedup=1.5))
        assert check_regression.main(["--baseline", base, "--fresh", fresh]) == 1
        assert "FAIL:" in capsys.readouterr().out

    def test_missing_fresh_report_exit_nonzero(self, tmp_path):
        base = write(tmp_path / "base.json", report())
        missing = str(tmp_path / "does-not-exist.json")
        assert check_regression.main(["--baseline", base, "--fresh", missing]) == 1

    def test_unparsable_fresh_report_exit_nonzero(self, tmp_path):
        base = write(tmp_path / "base.json", report())
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert check_regression.main(["--baseline", base, "--fresh", str(broken)]) == 1

    def test_custom_tolerance_respected(self, tmp_path):
        base = write(tmp_path / "base.json", report())
        fresh = write(tmp_path / "fresh.json", report(speedup=2.5))
        # 2.5x is a 37.5% regression: fails at the default 30% tolerance...
        assert check_regression.main(["--baseline", base, "--fresh", fresh]) == 1
        # ...but passes when the operator loosens the gate to 50%.
        assert (
            check_regression.main(
                ["--baseline", base, "--fresh", fresh, "--max-regression", "0.5"]
            )
            == 0
        )

    @pytest.mark.parametrize(
        "name",
        [
            "BENCH_simcore_reduced.json",
            "BENCH_prefill_reduced.json",
            "BENCH_estimator_saturation_reduced.json",
            "BENCH_chaos_recovery_reduced.json",
            "BENCH_request_reliability_reduced.json",
        ],
    )
    def test_gates_against_the_committed_baseline(self, name):
        """Every committed reduced-mode baseline is readable and self-consistent."""
        committed = Path(__file__).resolve().parent.parent / "benchmarks/baselines" / name
        baseline = check_regression.load_report(str(committed))
        assert baseline is not None
        assert baseline["mode"] == "reduced"
        # A fresh run identical to the baseline must pass its own gate.
        failures, _ = check_regression.compare(baseline, baseline)
        assert failures == []

    def test_multiple_pairs_all_gated(self, tmp_path, capsys):
        """--pair checks every (baseline, fresh) pair; any failure fails the run."""
        sim_base = write(tmp_path / "sim_base.json", report())
        sim_fresh = write(tmp_path / "sim_fresh.json", report(speedup=3.8))
        pre_base = write(
            tmp_path / "pre_base.json",
            report(benchmark="bench_prefill_core", speedup=4.5),
        )
        pre_fresh = write(
            tmp_path / "pre_fresh.json",
            report(benchmark="bench_prefill_core", speedup=4.2),
        )
        argv = ["--pair", sim_base, sim_fresh, "--pair", pre_base, pre_fresh]
        assert check_regression.main(argv) == 0
        out = capsys.readouterr().out
        assert "[bench_simulator_core]" in out and "[bench_prefill_core]" in out
        # One regressed pair fails the whole gate, and names the culprit.
        pre_bad = write(
            tmp_path / "pre_bad.json",
            report(benchmark="bench_prefill_core", speedup=1.0),
        )
        assert check_regression.main(["--pair", sim_base, sim_fresh, "--pair", pre_base, pre_bad]) == 1
        assert "FAIL: [bench_prefill_core]" in capsys.readouterr().out
