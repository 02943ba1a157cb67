"""Self-test of the end-to-end benchmark harness, in its one-run smoke mode.

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, run_py: Path = HERE / "run.py",
          cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(run_py), "--smoke",
                           "--rounds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def printed(stdout: str) -> dict[tuple[str, str], str]:
    """(workload, metric) -> unit, from the lines before the JSON line."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        workload, metric, value, unit, *_ = line.split()
        float(value)
        out[workload, metric] = unit
    return out


def test_every_declared_metric_is_printed_with_its_unit():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in declared["workloads"]]
    proc = bench("--trace")
    assert proc.returncode == 0, proc.stderr
    lines = printed(proc.stdout)
    for workload, metric in lines:
        assert NAME.fullmatch(workload) and NAME.fullmatch(metric)
    assert {w for w, _ in lines} == set(workloads)
    for workload in workloads:
        for entry in declared["end_to_end"] + declared["per_layer"]:
            assert lines[workload, entry["name"]] == entry["unit"]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {f"{w}.{m['name']}" for w in workloads
                                      for m in declared["per_layer"]}


def test_corrupted_golden_digest_fails_the_run(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    runs = golden["fig9-matmul"]["0"]["runs"]
    runs[0] = "0" * len(runs[0])
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    proc = bench("--workload", "fig9-matmul", "--golden", str(bad))
    assert proc.returncode == 1
    frac = next(line.split()[2] for line in proc.stdout.splitlines()
                if line.startswith("fig9-matmul failed_frac "))
    assert float(frac) > 0
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is False


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(run_py=tmp_path / "benchmarks" / "e2e" / "run.py",
                 cwd=tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
