"""tools/bench_pairs.py: the summary of canned result lines."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import result_of, summarize  # noqa: E402

METRICS = [{"name": "latency_ms.p50", "better": "lower"},
           {"name": "peak_rss_mb", "better": "lower"}]


def line(p50, rss, correct=True, failed=0):
    metrics = {"latency_ms.p50": {"value": p50, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": metrics}
    return 'info {"seed": 1}\n' + json.dumps(result) + "\n"


def pair(seed, parent, change, workload="task-scripted"):
    return {"workload": workload, "seed": seed, "first": "change" if seed % 2 else "parent",
            "parent": result_of(parent), "change": result_of(change)}


def test_result_of_reads_the_last_line():
    assert result_of(line(0.5, 40.0))["metrics"]["latency_ms.p50"]["value"] == 0.5


def test_summary_of_five_pairs():
    parents = [0.60, 0.62, 0.58, 0.70, 0.61]
    changes = [0.50, 0.52, 0.59, 0.51, 0.49]
    pairs = [pair(s, line(p, 46.0), line(c, 46.0 + (s % 2) * 0.1))
             for s, p, c in zip(range(1, 6), parents, changes)]
    got = summarize(pairs, METRICS)["task-scripted"]
    assert got["pairs"] == 5 and got["all_correct"] is True
    p50 = got["latency_ms.p50"]
    assert p50["parent_median"] == 0.61 and p50["change_median"] == 0.51
    # Exclusive quartiles of the sorted parents 0.58 0.60 0.61 0.62 0.70.
    assert p50["parent_iqr"] == pytest.approx(0.66 - 0.59)
    assert p50["change_better_pairs"] == 4  # 0.59 > 0.58 in the third pair
    assert p50["rel_change_pct"] == -16.4
    rss = got["peak_rss_mb"]
    assert rss["parent_iqr"] == 0.0 and rss["change_better_pairs"] == 0
    assert rss["rel_change_pct"] == pytest.approx(0.2)


def test_summary_keeps_workloads_apart_and_flags_failures():
    pairs = [pair(1, line(1.0, 30.0), line(0.9, 30.0)),
             pair(1, line(2.0, 20.0), line(2.5, 19.0, correct=False, failed=3), "nav-grid")]
    summary = summarize(pairs, METRICS)
    assert set(summary) == {"task-scripted", "nav-grid"}
    assert summary["task-scripted"]["all_correct"] is True
    assert summary["task-scripted"]["latency_ms.p50"]["parent_iqr"] == 0.0
    nav = summary["nav-grid"]
    assert nav["all_correct"] is False
    assert nav["latency_ms.p50"]["change_better_pairs"] == 0
    assert nav["peak_rss_mb"]["change_better_pairs"] == 1
    assert nav["latency_ms.p50"]["rel_change_pct"] == 25.0
