"""Benchmark harness for Figure 8: cloud ThunderServe vs in-house DistServe / vLLM."""

from conftest import run_experiment

from repro.experiments import fig8_budget_slo


def test_fig08_budget_slo(benchmark):
    result = run_experiment(
        benchmark,
        fig8_budget_slo.run,
        kwargs={
            "rates": {"coding": (12.0,), "conversation": (9.0,)},
            "trace_duration": 20.0,
            "scheduler_steps": 15,
        },
    )
    # At the same hourly budget, ThunderServe on the cloud should need a latency
    # deadline no larger than the in-house baselines on the decode-heavy
    # conversation workload, where the cloud GPUs' aggregate memory bandwidth per
    # dollar dominates.  The prefill-bound coding workload does not reproduce the
    # paper's win under Table-1 list prices (the A100 server has essentially the
    # same aggregate FLOPS as the 32 rented GPUs) — docs/benchmarks.md records the
    # measured gap; here we only require that every system produced a full curve.
    for point, deadlines in result.extras["min_deadline_90"].items():
        if point.startswith("conversation"):
            assert deadlines["thunderserve(cloud)"] <= deadlines["vllm(in-house)"] * 1.2, point
    systems = {row[2] for row in result.rows}
    assert systems == {"thunderserve(cloud)", "distserve(in-house)", "vllm(in-house)"}
