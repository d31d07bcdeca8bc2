"""tools/bench_pairs.py: the summary of canned result lines, and the run order."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import combine, result_of, summarize  # noqa: E402

METRICS = [{"name": "latency_ms.p50", "better": "lower"},
           {"name": "peak_rss_mb", "better": "lower"}]


def line(p50, rss, correct=True, failed=0, ops=100):
    metrics = {"latency_ms.p50": {"value": p50, "unit": "ms"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    result = {"correct": correct, "attempted": ops, "failed": failed, "metrics": metrics}
    return 'info {"seed": 1}\n' + json.dumps(result) + "\n"


def pair(seed, parent, change, workload="task-scripted"):
    return {"workload": workload, "seed": seed, "first": "change" if seed % 2 else "parent",
            "parent": result_of(parent), "change": result_of(change)}


def test_result_of_reads_the_last_line():
    assert result_of(line(0.5, 40.0))["metrics"]["latency_ms.p50"]["value"] == 0.5


def test_summary_gives_each_sides_median_ops():
    ops = [(100, 150), (120, 130), (90, 200)]
    pairs = [pair(s, line(0.5, 40.0, ops=p), line(0.4, 41.0, ops=c))
             for s, (p, c) in enumerate(ops, 1)]
    assert summarize(pairs, METRICS)["task-scripted"]["ops"] == {
        "parent_median": 100, "change_median": 150}


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


def test_combine_takes_each_metrics_median_and_keeps_every_line():
    runs = [result_of(line(p50, rss, failed=f, ops=n)) for p50, rss, f, n in
            [(0.30, 41.0, 0, 900), (0.50, 40.0, 2, 700), (0.31, 42.0, 0, 800)]]
    side = combine(runs)
    assert side["attempted"] == 800
    assert side["metrics"]["latency_ms.p50"] == {"value": 0.31, "unit": "ms"}
    assert side["metrics"]["peak_rss_mb"] == {"value": 41.0, "unit": "MB"}
    assert side["correct"] is True and side["failed"] == 2 and side["runs"] == runs
    assert combine([runs[0]])["metrics"]["latency_ms.p50"]["value"] == 0.30
    assert combine([runs[0], result_of(line(0.4, 40.0, correct=False))])["correct"] is False


@pytest.mark.parametrize("procs", [1, 3])
def test_main_alternates_sides_and_takes_the_median_of_the_processes(tmp_path, monkeypatch, procs):
    spec = {"run_seconds": 7, "end_to_end": METRICS}
    checkouts = {}
    for side in ("parent", "change"):
        checkouts[side] = tmp_path / side
        checkouts[side].mkdir()
        (checkouts[side] / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def fake_run_side(checkout, workload, seed, seconds):
        side = checkout.name
        calls.append((side, seed, seconds))
        n = sum(c[:2] == (side, seed) for c in calls)  # this side's nth process for the seed
        p50 = (1.0 if side == "parent" else 0.8) + 0.01 * n
        return result_of(line(p50, 40.0, ops=(100 if side == "parent" else 200) + n))

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    out = tmp_path / "out.json"
    argv = [str(checkouts["parent"]), str(checkouts["change"]), "--workloads", "task-scripted",
            "--pairs", "2", "--seed-base", "5", "--procs", str(procs), "--out", str(out)]
    assert bench_pairs.main(argv) == 0

    # Odd seed 5: the change first; even seed 6: the parent first; sides take turns.
    assert calls == [("change", 5, 7), ("parent", 5, 7)] * procs + [("parent", 6, 7), ("change", 6, 7)] * procs
    doc = json.loads(out.read_text())
    assert [p["first"] for p in doc["pairs"]] == ["change", "parent"]
    for p in doc["pairs"]:
        assert len(p["parent"]["runs"]) == len(p["change"]["runs"]) == procs
        median_n = (procs + 1) // 2
        assert p["parent"]["metrics"]["latency_ms.p50"]["value"] == pytest.approx(1.0 + 0.01 * median_n)
        assert p["change"]["metrics"]["latency_ms.p50"]["value"] == pytest.approx(0.8 + 0.01 * median_n)
    summary = doc["summary"]["task-scripted"]
    assert summary["pairs"] == 2 and summary["all_correct"] is True
    assert summary["ops"] == {"parent_median": 100 + median_n, "change_median": 200 + median_n}
    assert summary["latency_ms.p50"]["change_better_pairs"] == 2


def test_procs_below_one_is_refused(tmp_path):
    with pytest.raises(SystemExit):
        bench_pairs.main([str(tmp_path), str(tmp_path), "--workloads", "nav-grid", "--pairs", "1",
                          "--seed-base", "1", "--procs", "0", "--out", str(tmp_path / "o.json")])
