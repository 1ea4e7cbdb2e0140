"""Benchmark harness for Figure 9: saturation throughput of all four systems."""

from conftest import run_experiment

from repro.experiments import fig9_throughput


def test_fig09_throughput(benchmark):
    result = run_experiment(
        benchmark,
        fig9_throughput.run,
        kwargs={"trace_duration": 20.0, "scheduler_steps": 15},
    )
    throughput = {(row[0], row[1]): row[2] for row in result.rows}
    for workload in ("coding", "conversation"):
        ts = throughput[(workload, "thunderserve")]
        hexgen = throughput[(workload, "hexgen")]
        # ThunderServe should outperform the heterogeneous co-locating baseline on
        # the decode-heavy conversation workload (paper: 1.3x).  Coding is so
        # prefill-skewed that a static phase split gives up some raw capacity on
        # our substrate (see docs/benchmarks.md), so we only require rough parity.
        margin = 0.8 if workload == "coding" else 1.0
        assert ts >= hexgen * margin, workload
