"""The teamsem benchmark.

    python3 bench/run.py --workload parity|chain|fo_sweep
                         [--seed N] [--seconds S] [--trace 0|1]
                         [--size full|tiny] [--profile N]

Runs one workload in its own process (`child.py`) on the checker under
`src/` and prints two JSON lines.  The first is the full report: the
metrics, verdict and failure counts, the exact counts, and an environment
stamp (Python version, CPU count, seed, git commit).  The last line holds
only `correct`, `attempted`, `failed` and `metrics`, with every metric
named in `BENCHMARK.json`: the end-to-end ones with `--trace 0`, the
per-layer ones with `--trace 1`.

A run is correct when no verdict disagrees with the workload's oracle and
the evaluator's counts repeat exactly from pass to pass.  Verdicts that
run out of node budget, memory or recursion depth are counted as failed.
`--profile N` prints the cProfile top N of one extra pass to standard
error.  The exit status is 0 when a result was printed, and 2 with a
message on standard error when the checker or the workload could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI_LAUNCHES = 5
# The whole run, set-up and checks included, ends well within 180 s.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_child(args) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--profile", str(args.profile),
           "--src", str(SRC)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args.workload} ran past {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} exited with status "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


def cli_eval_cold_ms() -> float:
    """Median wall time of sequential `python -m teamsem.cli eval` launches
    on a tiny structure and team, each checked for exit status 0 and a
    true JSON result."""
    tmp = Path(tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT))
    try:
        structure, team = tmp / "structure.json", tmp / "team.json"
        structure.write_text(json.dumps({"domain": ["a", "b"]}))
        team.write_text(json.dumps({"vars": ["x", "y"],
                                    "rows": [["a", "a"], ["b", "b"]]}))
        cmd = [sys.executable, "-m", "teamsem.cli", "eval", "--format", "json",
               "-s", str(structure), "-t", str(team), "-f", "dep(x;y)"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(CLI_LAUNCHES):
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=60)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0 or json.loads(proc.stdout)["result"] is not True:
                raise BenchError(f"cli eval failed with status "
                                 f"{proc.returncode}: {proc.stderr.strip()}")
        return 1e3 * statistics.median(times)
    finally:
        shutil.rmtree(tmp)


def git_commit() -> str:
    """The checked-out commit, read from `.git` without leaving the
    checkout; "unknown" outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few instances per workload, for smoke tests")
    ap.add_argument("--profile", type=int, default=0, metavar="N",
                    help="print the cProfile top N of one extra pass")
    args = ap.parse_args(argv)

    try:
        if not (SRC / "teamsem" / "__init__.py").is_file():
            raise BenchError(f"no checker source at {SRC / 'teamsem'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        declared = spec["per_layer" if args.trace else "end_to_end"]
        report = run_child(args)
        if args.trace:
            report["metrics"]["cli.eval_cold_ms"] = cli_eval_cold_ms()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    missing = [m["name"] for m in declared if m["name"] not in report["metrics"]]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    report["env"] = {"python": platform.python_version(),
                     "cpus": os.cpu_count(), "seed": args.seed,
                     "commit": git_commit(), "workload": args.workload,
                     "size": args.size, "seconds": args.seconds,
                     "trace": args.trace}
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]],
                                "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
