"""Tiny-size smoke test of the benchmark runner.

    python3 -m pytest bench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced for a fraction
of a second (the runner still makes its minimum number of queries) and
checks that no query fails and that the printed metrics are exactly the
declared ones, with their units.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.2", "--trace", str(trace)]
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_clean(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 100

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 3:
            printed[fields[0]] = (float(fields[1]), fields[2])
    assert printed.pop("failed_frac") == (0.0, "ratio")
    assert {name: unit for name, (_, unit) in printed.items()} == {m["name"]: m["unit"] for m in declared}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path), tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    proc = run_bench(str(tmp_path), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
