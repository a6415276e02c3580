"""One workload in its own process: set-up, timed passes, checks.

Started by `run.py`, never by hand.  It caps its own address space, sets
the workload up several times, then repeats timed passes over the same
instances until the measuring time is over.  Every verdict is checked
against the workload's oracle after its pass, so oracle time stays out of
the pass time.  It prints one JSON object with the metrics and the checks
as its last line of standard output.

With `--trace 1` the first third of the time runs untraced passes, and the
rest traced passes with the wrappers from `tracing.py`; the difference in
median pass time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import math
import pstats
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS, Pass

# Far above the largest workload's peak (parity: about 160 MB resident).
ADDRESS_SPACE_CAP = 2 << 30
SETUP_REPEATS = 11
MIN_TRACED_PASSES = 2


def fresh_import():
    """Imports `teamsem` anew, so that each set-up repetition pays for
    the import."""
    for name in [n for n in sys.modules
                 if n == "teamsem" or n.startswith("teamsem.")]:
        del sys.modules[name]
    return importlib.import_module("teamsem")


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    def __init__(self, workload, ts, inputs):
        self.workload = workload
        self.ts = ts
        self.inputs = inputs
        self.expected = None
        self.oracle_s = 0.0
        self.attempted = 0
        self.wrong = 0
        self.failures: dict[str, int] = {}
        # Counts that must repeat exactly from pass to pass for a fixed
        # seed: from every pass, and the per-layer ones from traced passes.
        self.counts: list[dict[str, int]] = []
        self.traced_counts: list[dict[str, int]] = []

    def one_pass(self, tracer=None) -> dict:
        """Runs and checks one pass; returns its wall time, its verdict-time
        percentiles and the per-instance detail.  The pass starts with no
        garbage left from the last one, and nothing it allocated outlives
        it, so neither memory nor collector pauses depend on how many
        passes ran before."""
        gc.collect()
        p = Pass(self.ts, tracer)
        start = time.perf_counter()
        self.workload.run_pass(self.ts, self.inputs, p)
        wall = time.perf_counter() - start
        if self.expected is None:
            start = time.perf_counter()
            self.expected = self.workload.oracle(self.ts, self.inputs)
            self.oracle_s = time.perf_counter() - start
        self.check(p)
        ordered = sorted(p.durations)
        return {"wall": wall, "samples": len(ordered),
                "p50": percentile(ordered, 0.50),
                "p99": percentile(ordered, 0.99), "detail": p.detail}

    def check(self, p: Pass) -> None:
        self.attempted += len(p.results)
        if len(p.results) != len(self.expected):
            self.wrong += len(p.results)
        else:
            self.wrong += sum(got is not None and got != want
                              for got, want in zip(p.results, self.expected))
        for kind, n in p.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + n
        self.counts.append({
            "teameval.verdicts": len(p.results),
            "teameval.nodes": p.nodes,
            "teameval.memo_entries": p.memo_entries,
            "teameval.rowcache_entries": p.rowcache_entries,
        })

    def counts_repeat(self) -> bool:
        return (all(c == self.counts[0] for c in self.counts)
                and all(c == self.traced_counts[0] for c in self.traced_counts))

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--profile", type=int, default=0)
    ap.add_argument("--src", required=True)
    args = ap.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    sys.path.insert(0, args.src)
    workload = WORKLOADS[args.workload]

    setup_s, build_s = [], []
    for _ in range(SETUP_REPEATS):
        inputs = None  # drop the previous inputs before building new ones
        # The cyclic collector is paused while setting up: when it happens
        # to run there varies from one repetition to the next.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            ts = fresh_import()
            built = time.perf_counter()
            inputs = workload.setup(ts, args.seed, args.size)
            done = time.perf_counter()
        finally:
            gc.enable()
        setup_s.append(done - start)
        build_s.append(done - built)
    src = Path(args.src).resolve()
    if src not in Path(ts.__file__).resolve().parents:
        raise SystemExit(f"imported teamsem from {ts.__file__}, not {src}")

    run = Run(workload, ts, inputs)
    start = time.perf_counter()
    untraced_end = start + (args.seconds / 3 if args.trace else args.seconds)
    passes = []
    while True:
        passes.append(run.one_pass())
        if time.perf_counter() >= untraced_end:
            break
    walls = [q["wall"] for q in passes]

    if args.trace:
        metrics = traced_metrics(args, run, walls, build_s)
    else:
        wall_s = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "verdicts_per_s": run.counts[0]["teameval.verdicts"] / wall_s,
            "verdict_ms_p50": 1e3 * statistics.median(q["p50"] for q in passes),
            "verdict_ms_p99": 1e3 * statistics.median(q["p99"] for q in passes),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "decided_frac": (run.attempted - run.failed) / run.attempted,
        }
    out = {
        "correct": run.wrong == 0 and run.counts_repeat(),
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong_verdicts": run.wrong,
        "failures": run.failures,
        "counts_repeat": run.counts_repeat(),
        "passes": len(run.counts),
        "untraced_pass_walls": walls,
        "untraced_verdict_samples": sum(q["samples"] for q in passes),
        "counts": run.counts[0],
        "detail": passes[-1]["detail"],
        "metrics": metrics,
    }

    if args.profile:
        profile = cProfile.Profile()
        profile.runcall(run.one_pass)
        print(f"--- cProfile of one {args.workload} pass, top "
              f"{args.profile} by own time ---", file=sys.stderr)
        pstats.Stats(profile, stream=sys.stderr).sort_stats(
            "tottime").print_stats(args.profile)
    print(json.dumps(out))
    return 0


def traced_metrics(args, run: Run, walls: list[float],
                   build_s: list[float]) -> dict[str, float]:
    tracer = Tracer(run.ts)
    traced_walls, traced_times = [], []
    end = time.perf_counter() + args.seconds * 2 / 3
    tracer.install()
    try:
        while (len(traced_walls) < MIN_TRACED_PASSES
               or time.perf_counter() < end):
            tracer.reset()
            wall = run.one_pass(tracer)["wall"]
            counts, times = tracer.snapshot()
            traced_walls.append(wall)
            run.traced_counts.append(counts)
            traced_times.append(times)
    finally:
        tracer.uninstall()
    metrics = {**run.counts[0], **run.traced_counts[0]}
    verdicts = metrics["teameval.verdicts"]
    metrics["tarski.calls_per_verdict"] = metrics["tarski.calls"] / verdicts
    metrics["teameval.nodes_per_verdict"] = metrics["teameval.nodes"] / verdicts
    for name in traced_times[0]:
        metrics[name] = statistics.median(t[name] for t in traced_times)
    metrics["harness.oracle.s"] = run.oracle_s
    metrics["harness.build.s"] = statistics.median(build_s)
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(walls))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
