"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workloads task-scripted nav-grid \\
        --pairs 10 --seed-base 101 --procs 1 --out BENCH_x.json

Each side runs ``bench/run.py`` from its own checkout, PROCS untraced runs
(processes) per workload, seed and side, each as long as the parent's
BENCHMARK.json ``run_seconds``; a side's value in a pair is the median over
its processes, so one process that runs slow throughout moves it less.
Pair k uses seed SEED_BASE + k; an odd seed runs the change first, an even
seed the parent first, and with several processes the sides take turns,
so a slow spell on a shared machine does not always land on the same side.
The output holds every result line and, per workload, each side's median
op count and, per end-to-end metric of the parent's BENCHMARK.json, the
medians of both sides, the parent's interquartile range, the number of
pairs the change won and the relative change of the medians. It is rewritten after every pair.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def result_of(stdout: str) -> dict:
    """The result line of one bench/run.py run: its last line."""
    return json.loads(stdout.strip().splitlines()[-1])


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                         f"{proc.stderr}")
    return result_of(proc.stdout)


def combine(results: list) -> dict:
    """One side of a pair from its processes' result lines: each metric's
    median, the median of their "attempted" (the op count of a --trace 0
    run), correct only if every run was, the failures summed, and the lines
    themselves under "runs"."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median(values), "unit": first["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": statistics.median(r["attempted"] for r in results),
            "metrics": metrics, "runs": results}


def _better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def summarize(pairs: list, metrics: list) -> dict:
    """Per workload: pair count, whether every run was correct, each side's
    median op count (a run that does more ops in its fixed time keeps more
    per-op data, which shows in peak_rss_mb), and per metric the medians,
    the parent's IQR, the change's wins and the relative change."""
    summary = {}
    for workload in sorted({p["workload"] for p in pairs}):
        mine = [p for p in pairs if p["workload"] == workload]
        entry = {
            "pairs": len(mine),
            "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0
                               for p in mine for s in SIDES),
            "ops": {f"{s}_median": statistics.median(p[s]["attempted"] for p in mine)
                    for s in SIDES},
        }
        for metric in metrics:
            name = metric["name"]
            values = {s: [p[s]["metrics"][name]["value"] for p in mine] for s in SIDES}
            parent, change = values["parent"], values["change"]
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            if len(parent) > 1:
                q1, _, q3 = statistics.quantiles(parent, n=4)
                iqr = q3 - q1
            else:
                iqr = 0.0
            entry[name] = {
                "parent_median": round(parent_median, 4),
                "change_median": round(change_median, 4),
                "parent_iqr": round(iqr, 4),
                "change_better_pairs": sum(
                    _better(c, p, metric["better"]) for p, c in zip(parent, change)),
                "rel_change_pct": round((change_median / parent_median - 1.0) * 100.0, 1),
            }
        summary[workload] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--procs", type=int, default=1,
                        help="bench/run.py processes per side and pair (default 1)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.procs < 1:
        parser.error("--procs must be at least 1")

    spec = json.loads((args.parent_dir / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent_dir, "change": args.change_dir}
    doc = {
        "command": f"python3 bench/run.py --workload W --seed N --seconds {seconds} --trace 0",
        "host": f"{platform.system()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "protocol": "alternating pairs: odd seeds run the change first, even seeds the "
                    f"parent first; each side in its own checkout; {args.procs} process(es) "
                    "per side and pair, taking turns, and a side's value is their median",
        "summary": {},
        "pairs": [],
    }
    for workload in args.workloads:
        for k in range(args.pairs):
            seed = args.seed_base + k
            order = ("change", "parent") if seed % 2 else ("parent", "change")
            runs = {side: [] for side in SIDES}
            for _ in range(args.procs):
                for side in order:
                    runs[side].append(run_side(checkouts[side], workload, seed, seconds))
            results = {side: combine(runs[side]) for side in SIDES}
            pair = {"workload": workload, "seed": seed, "first": order[0],
                    **{side: results[side] for side in SIDES}}
            doc["pairs"].append(pair)
            doc["summary"] = summarize(doc["pairs"], spec["end_to_end"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"{workload} seed {seed}: ops {pair['parent']['attempted']:.0f} -> "
                  f"{pair['change']['attempted']:.0f}, " + ", ".join(
                f"{m['name']} {pair['parent']['metrics'][m['name']]['value']:.4g} -> "
                f"{pair['change']['metrics'][m['name']]['value']:.4g}"
                for m in spec["end_to_end"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
