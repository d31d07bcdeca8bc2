"""Smoke test: every workload runs at minimal size and prints a valid result.

Run from the repository root:  python -m pytest bench/tests -q

It asserts no wall-clock bound; timings here are not measurements.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# task-llm and cli-cold are not in BENCHMARK.json (see README) but stay
# runnable by hand.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["task-llm", "cli-cold"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    assert info_line.startswith("info ")
    info = json.loads(info_line[len("info "):])
    assert info["error_rate"] == 0
    for key in ("python", "nproc", "seed", "map_sizes", "mock_delay_ms", "git_commit"):
        assert key in info
    if not trace:
        assert info["inputs_beyond_p90"] >= 0 and info["inputs"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "nav-grid", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
