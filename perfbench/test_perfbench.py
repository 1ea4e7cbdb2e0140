"""Tests of the benchmark's own machinery.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from layers import PER_LAYER, instrument, per_layer_metrics  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import Patches, Tracer  # noqa: E402
from workloads import LiveChaos, Ops, StreamDiurnal, goodput_rps, result_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fake_clock(times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_children():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]; e [20, 21]
    tracer = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10, 20, 21]))
    tracer.begin("a")
    tracer.begin("b")
    tracer.begin("c")
    tracer.end()
    tracer.end()
    tracer.begin("d")
    tracer.end()
    tracer.end()
    with tracer.span("e"):
        pass
    stats = tracer.aggregate()
    assert {n: (s.calls, s.total_s, s.self_s) for n, s in stats.items()} == {
        "a": (1, 10, 3),
        "b": (1, 3, 2),
        "c": (1, 1, 1),
        "d": (1, 4, 4),
        "e": (1, 1, 1),
    }
    # a, b, c, d share the first operation; e is a new root, so a new one
    assert tracer.op_phase == ["setup", "setup"]
    assert tracer.nested_calls("c", ("b",)) == 1
    assert tracer.nested_calls("c", ("a",)) == 0
    assert tracer.op_self_time("a", ("b", "c")) == (3, 10)


def test_self_time_of_repeated_siblings_and_phases():
    tracer = Tracer(clock=fake_clock([0, 1, 2, 4, 7, 10, 11, 12]))
    tracer.begin("root")
    for _ in range(2):
        tracer.begin("leaf")
        tracer.end()
    tracer.end()
    tracer.phase = "timed"
    with tracer.span("leaf"):
        pass
    assert tracer.aggregate()["root"].self_s == 10 - (2 - 1) - (7 - 4)
    assert tracer.aggregate("timed")["leaf"].calls == 1
    assert tracer.aggregate("setup")["leaf"].total_s == 1 + 3


def test_wrappers_time_calls_and_iterator_steps_then_restore():
    class Box:
        def twice(self, x):
            return 2 * x

        def items(self, n):
            yield from range(n)

    original = Box.__dict__["twice"]
    tracer = Tracer()
    patches = Patches()
    patches.replace(Box, "twice", lambda fn: tracer.wrap(
        fn, "box.twice", lambda t, a, k, r: t.count("doubled", r)))
    patches.replace(Box, "items", lambda fn: tracer.wrap_iterator(
        fn, "box.item", lambda t, item: t.count("items")))
    box = Box()
    assert box.twice(4) == 8
    assert list(box.items(3)) == [0, 1, 2]
    stats = tracer.aggregate()
    assert stats["box.twice"].calls == 1
    assert stats["box.item"].calls == 4  # three items plus the exhausting next()
    assert tracer.counters == {"doubled": 8, "items": 3}
    patches.restore()
    assert Box.__dict__["twice"] is original


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert tracer.current() is None
    assert tracer.aggregate()["boom"].calls == 1


@pytest.mark.parametrize(
    "points, expected",
    [
        ([(0.25, 0.95), (0.5, 0.92), (0.75, 0.87), (1.0, 0.6)], 0.5),
        ([(0.25, 0.95), (0.5, 0.9), (0.75, 0.89999)], 0.5),
        ([(0.25, 0.85), (0.5, 0.91), (0.75, 0.2)], 0.5),
        ([(0.25, 0.89), (0.5, 0.5), (1.0, 0.0)], 0.0),
        ([], 0.0),
    ],
)
def test_goodput_is_the_highest_rung_meeting_the_target(points, expected):
    assert goodput_rps(points) == expected


def test_metric_names_are_valid_unique_and_match_the_manifest():
    names = [n for n, _ in END_TO_END] + [n for n, _, _ in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == list(PER_LAYER)


class SmallStream(StreamDiurnal):
    STREAMS = 2
    STREAM_REQUESTS = 600
    WINDOW = 200


class ShortLive(LiveChaos):
    DURATION = 120.0
    TRACES = 1


@pytest.mark.parametrize("workload_cls", [SmallStream, ShortLive])
def test_traced_pass_matches_untraced_pass(workload_cls):
    ops = Ops()
    workload = workload_cls(seed=3, ops=ops)
    workload.setup()
    untraced = [unit() for _name, unit in workload.units()]
    tracer = Tracer()
    tracer.phase = "timed"
    patches = instrument(tracer)
    workload.span = tracer.span
    try:
        traced = [unit() for _name, unit in workload.units()]
    finally:
        patches.restore()
    assert [result_digest(out) for out in traced] == [result_digest(out) for out in untraced]
    summary = workload.summarize(traced)
    assert summary.sim == workload.summarize(untraced).sim
    workload.check(untraced)
    assert ops.failed == 0, ops.failures
    metrics = per_layer_metrics(tracer, summary.extras, 0.0)
    assert metrics["simulation.engine.runs"] >= 1
    assert metrics["workload.requests"] > 0
    if workload_cls is SmallStream:
        assert metrics["scheduling.schedule.timed_calls"] == 0


def test_normalised_time_removes_probe_time_and_rescales():
    nominal = hostspeed.NOMINAL_S
    sampler = hostspeed.Sampler()
    sampler.probes = [9.0] + [2 * nominal] * 10
    since, until = 1, sampler.mark()
    probe_s = sum(sampler.probes[since:until])
    # the host ran at half the nominal speed while the call ran
    assert sampler.normalised(1.0, since, until) == pytest.approx((1.0 - probe_s) / 2)
    assert sampler.normalised(1.0, until, until) == 1.0
    # half the call at nominal speed, half at half speed: 0.75 s of nominal
    # work (the mean probe time, 1.5x nominal, would say 0.67 s)
    sampler.probes = [nominal, 2 * nominal] * 5
    probe_s = sum(sampler.probes)
    assert sampler.normalised(1.0 + probe_s, 0, 10) == pytest.approx(0.75)


def test_sampler_probes_while_installed_then_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler().install()
    try:
        deadline = time.perf_counter() + 20 * hostspeed.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    finally:
        sampler.restore()
    assert len(sampler.probes) >= 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
