"""Smoke test of the benchmark: every workload at a tiny size, untraced and
traced, plus its failure accounting and its refusal to run without the
checker.  Run with  python -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(run_py: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--size", "tiny", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_no_wrong_verdict(workload, trace):
    proc = bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line)
                      for line in proc.stdout.strip().splitlines()[-2:])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    assert result["correct"] and report["counts_repeat"]
    assert report["wrong_verdicts"] == 0
    assert result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["decided_frac"]["value"] == 1


def test_budget_blowups_count_as_undecided_not_as_verdicts(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import teamsem
    import child
    import workloads
    monkeypatch.setattr(workloads, "BUDGET", 50)
    parity = workloads.WORKLOADS["parity"]
    run = child.Run(parity, teamsem, parity.setup(teamsem, 0, "tiny"))
    run.one_pass()
    # Of ell=2 and even cardinality on domains 1-3, only domain 1 needs
    # fewer than 50 nodes.
    assert run.failures == {"BudgetExceededError": 3}
    assert run.attempted == 4 and run.failed == 3 and run.wrong == 0


def test_without_the_checker_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = bench(tmp_path / HERE.name / "run.py", "chain", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
