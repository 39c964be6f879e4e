"""Smoke tests of the benchmark itself, at reduced size.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMALL = ["--seconds", "0", "--smoke"]


def run(workload: str, *extra: str, seed: int = 3, env: dict | None = None,
        cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), *SMALL, *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env={**os.environ, **(env or {})},
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def digest_of(proc: subprocess.CompletedProcess) -> str:
    lines = [line for line in proc.stdout.splitlines() if line.startswith("digest ")]
    assert len(lines) == 1, proc.stdout
    return lines[0].split()[2]


def assert_metrics(result: dict, specs: list) -> None:
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(spec["name"] for spec in specs)
    for spec in specs:
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload: str) -> None:
    proc = run(workload, "--trace", "0")
    result = result_of(proc)
    assert_metrics(result, SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert f"{spec['name']} " in proc.stdout  # printed by name with its unit
        assert result["metrics"][spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_removes_its_wrappers(
    workload: str,
) -> None:
    traced = run(workload, "--trace", "1")
    assert_metrics(result_of(traced), SPEC["per_layer"])
    # The traced run itself re-runs its batches untraced after removing
    # the wrappers and fails unless the results repeat; a separate
    # untraced process must agree too.
    assert digest_of(traced) == digest_of(run(workload, "--trace", "0"))
    assert (BENCH / "out" / f"{workload}.spans.csv.gz").is_file()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digest_does_not_depend_on_the_hash_seed(workload: str) -> None:
    first = run(workload, "--trace", "0", env={"PYTHONHASHSEED": "0"})
    second = run(workload, "--trace", "0", env={"PYTHONHASHSEED": "1"})
    result_of(first), result_of(second)
    assert digest_of(first) == digest_of(second)


def test_seed_changes_the_inputs() -> None:
    workload = WORKLOADS[0]
    assert digest_of(run(workload, seed=3)) != digest_of(run(workload, seed=4))


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
