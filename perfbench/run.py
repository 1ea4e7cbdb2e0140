"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload deploy-ladder --seed 1 --seconds 20 --trace 0

Workloads: ``deploy-ladder``, ``stream-diurnal``, ``live-chaos`` (see
``perfbench/README.md`` for what each loads and why it was chosen).

A run is: imports, then *rounds* — a set-up (fixture, small-budget deploy,
engine warm-up) followed by one pass over the workload's timed units — while
another round still fits in ``--seconds`` (at least ``MIN_ROUNDS``), then
correctness checks.  Every time in the JSON line is normalised to a fixed
host speed by ``hostspeed.Sampler``.  ``setup_s`` is the imports plus the
median set-up.  ``run_s`` is the pass time: the sum over units of each
unit's median round.

With ``--trace 1`` the run then traces one more set-up and pass through the
wrappers in ``layers.py`` and reports the per-layer metrics instead of the
end-to-end ones; the spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# One process, one compute thread: numpy's BLAS pools would only add noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: (name, unit) of the end-to-end metrics, printed by every untraced run
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
)
MIN_ROUNDS = 3
#: stop starting rounds once a run could overrun this wall budget (seconds)
BUDGET_S = 140.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Rounds:
    """Per-unit timings of every round, and the first round's outputs.

    Every set-up and unit is kept as wall seconds and as seconds at nominal
    host speed (``hostspeed.Sampler.normalised``).
    """

    def __init__(self, sampler) -> None:
        self.sampler = sampler
        self.setup_s = []
        self.setup_norm = []
        self.unit_s = {}
        self.unit_norm = {}
        self.engine_s = {}
        self.replan_s = {}
        self.engine_requests = 0
        self.digests = {}
        self.outputs = None

    def timed(self, call):
        """``call()``, its wall seconds and its normalised seconds."""
        since = self.sampler.mark()
        start = time.perf_counter()
        out = call()
        seconds = time.perf_counter() - start
        until = self.sampler.mark()
        return out, seconds, self.sampler.normalised(seconds, since, until)

    def run(self, workload, clock, ops) -> None:
        """Set up, then run every unit of the pass once."""
        from workloads import result_digest

        _, seconds, norm = self.timed(workload.setup)
        self.setup_s.append(seconds)
        self.setup_norm.append(norm)
        outputs = []
        for name, unit in workload.units():
            ops.attempted += 1
            clock.reset()
            out, seconds, norm = self.timed(unit)
            self.unit_s.setdefault(name, []).append(seconds)
            self.unit_norm.setdefault(name, []).append(norm)
            self.engine_s.setdefault(name, []).append(clock.seconds["engine"])
            self.replan_s.setdefault(name, []).append(clock.seconds["replan"])
            if self.outputs is None:
                self.engine_requests += clock.engine_requests
            self.digests.setdefault(name, set()).add(result_digest(out))
            outputs.append(out)
        if self.outputs is None:
            self.outputs = outputs

    @staticmethod
    def median_sum(per_unit) -> float:
        """Sum over units of each unit's median round."""
        return sum(statistics.median(times) for times in per_unit.values())

    @property
    def count(self) -> int:
        return min((len(t) for t in self.unit_s.values()), default=0)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: package sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # installed before the package imports (numpy among them) so they are normalised too
    sampler = hostspeed.Sampler().install()
    try:
        return measure(args, sampler)
    finally:
        sampler.restore()


def measure(args, sampler) -> int:
    """Import, run the rounds, check, report; ``sampler`` is already installed."""
    import_mark = sampler.mark()
    from layers import PER_LAYER, BoundaryClock, instrument, per_layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS, Ops, result_digest, untraced

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    import_norm = sampler.normalised(import_s, import_mark, sampler.mark())

    ops = Ops()
    clock = BoundaryClock().install()
    workload = WORKLOADS[args.workload](args.seed, ops)
    rounds = Rounds(sampler)
    loop_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        try:
            rounds.run(workload, clock, ops)
        except Exception:
            ops.failed += 1
            ops.failures.append("raised:\n" + traceback.format_exc())
            break
        done = time.perf_counter()
        # stop before a round that would end past the measuring window
        if rounds.count >= MIN_ROUNDS and done - loop_start + (done - round_start) > args.seconds:
            break
        if done - _T0 + 3 * (done - round_start) > BUDGET_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    first = None
    if rounds.outputs is not None:
        for name, digests in rounds.digests.items():
            ops.check(f"{name}: every round bitwise identical", len(digests) == 1,
                      f"{len(digests)} digests")
        first = workload.summarize(rounds.outputs)
        try:
            workload.check(rounds.outputs)
        except Exception:
            ops.failed += 1
            ops.failures.append("check raised:\n" + traceback.format_exc())
    run_s = Rounds.median_sum(rounds.unit_norm) if first else 0.0
    run_wall_s = Rounds.median_sum(rounds.unit_s) if first else 0.0
    engine_s = Rounds.median_sum(rounds.engine_s) if first else 0.0
    engine_req_per_s = rounds.engine_requests / engine_s if engine_s else 0.0
    replan_s = Rounds.median_sum(rounds.replan_s) if first else 0.0
    plan_s = {k: (statistics.median(v), len(v)) for k, v in workload.deploy_seconds.items()}

    per_layer = None
    if args.trace and first:
        tracer = Tracer()
        patches = instrument(tracer)
        workload.span = tracer.span
        ops.attempted += 1
        try:
            workload.setup()
            tracer.phase = "timed"
            outputs, traced_s = [], 0.0
            for _name, unit in workload.units():
                out, _seconds, norm = rounds.timed(unit)
                outputs.append(out)
                traced_s += norm
            traced = workload.summarize(outputs)
        except Exception:
            ops.failed += 1
            ops.failures.append("traced pass raised:\n" + traceback.format_exc())
            outputs, traced_s, traced = [], run_s, first
        finally:
            patches.restore()
            workload.span = untraced
        same = [result_digest(out) for out in outputs] == [
            result_digest(out) for out in rounds.outputs
        ]
        ops.check("traced pass equals untraced", same)
        extras = dict(traced.extras)
        extras["simulation.engine.req_per_s"] = engine_req_per_s
        extras["serving.deploy.p50_s"] = plan_s.get("default", plan_s["setup"])[0]
        extras.update({f"quality.{name}": value for name, value in traced.sim.items()})
        per_layer = per_layer_metrics(tracer, extras, (traced_s - run_s) / run_s)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    clock.restore()
    sampler.restore()

    setup_norm = statistics.median(rounds.setup_norm) if rounds.setup_norm else 0.0
    setup_wall = statistics.median(rounds.setup_s) if rounds.setup_s else 0.0
    values = {
        "setup_s": import_norm + setup_norm if rounds.setup_s else 0.0,
        "run_s": run_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"imports + median of {len(rounds.setup_s)} set-ups, nominal host speed;"
                   f" wall {import_s:.3f} + {setup_wall:.3f} s",
        "run_s": f"{len(rounds.unit_s)} units, each its median of {rounds.count} rounds,"
                 f" nominal host speed; wall {run_wall_s:.3f} s",
        "peak_rss_mb": "ru_maxrss of this process, before the traced part",
    }

    print(f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds:g}"
          f"  trace={args.trace}")
    print(f"  why: {workload.why}")
    for key, value in workload.describe().items():
        print(f"  {key}: {value}")
    print("  end-to-end (in the JSON line):")
    for name, unit in END_TO_END:
        print(f"    {name:<22} {values[name]:>14.6g} {unit:<6} ({notes[name]})")
    if first:
        print("  also measured (not in the JSON line):")
        for kind, (seconds, count) in plan_s.items():
            print(f"    {'plan_s[' + kind + ']':<22} {seconds:>14.6g} {'s':<6}"
                  f" (median of {count} deploys)")
        print(f"    {'engine_req_per_s':<22} {engine_req_per_s:>14.6g} {'req/s':<6}"
              f" ({rounds.engine_requests} requests / median engine wall seconds per unit)")
        print(f"    {'replan_s':<22} {replan_s:>14.6g} {'s':<6}"
              " (reschedule_online + replan_capacity, median wall per unit)")
        print("  simulated quality (deterministic for a seed):")
        for name, value in first.sim.items():
            print(f"    {name:<22} {value:>14.6g}  (n={first.samples[name]} requests)")
        for name, value in sorted(first.extras.items()):
            print(f"    {name:<38} {value:>14.6g}")
    if per_layer is not None:
        print("  per-layer (one traced set-up + one traced pass):")
        for name, unit, _better in PER_LAYER:
            print(f"    {name:<38} {per_layer[name]:>14.6g} {unit}")
    print(f"  operations: attempted {ops.attempted}, succeeded {ops.attempted - ops.failed},"
          f" failed {ops.failed}")
    for failure in ops.failures:
        print(f"  FAILED {failure}")

    if per_layer is not None:
        metrics = {n: {"value": per_layer[n], "unit": u} for n, u, _b in PER_LAYER}
    else:
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    correct = ops.failed == 0 and first is not None
    print(json.dumps({"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
