"""Seeded benchmark for semplan: one workload per run, one JSON result line.

Usage, from the repository root:

    python3 bench/run.py --workload nav-grid --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics of an
untraced run. With ``--trace 1`` the run is split in half: an untraced
loop, then the same loop with span wrappers installed, and the result
carries the per-layer metrics plus the tracing overhead. Every answer is
checked after the timed loop; a wrong answer counts as a failed op.
Lines before the last one are informational; the last line is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Untraced runs take at least this many ops and passes over the inputs.
MIN_OPS = 100
MIN_PASSES = 3
TRACED_MIN_OPS = 10
# Set-ups per run: at least SETUPS, and more for a cheap set-up until
# they took SETUP_SECONDS in all; half before the timed loop, half after.
SETUPS = 8
SETUP_SECONDS = 2.0
MAX_SETUPS = 64


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timed_loop(workload, seconds: float, min_ops: int, min_passes: int = 1,
               tracer=None) -> dict:
    """Closed loop: op i+1 starts when op i has returned.

    Ops cycle through the workload's inputs in passes. Besides every op's
    latency, the loop keeps each input's best (least) latency and CPU time
    over its repetitions.
    """
    from workloads import Failure

    inputs = len(workload.order)
    best = [math.inf] * inputs
    best_cpu = [math.inf] * inputs
    latencies, results, shared = [], [], {}
    cpu = 0.0
    gc.collect()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while True:
        if tracer is not None:
            tracer.op = i
            if workload.probe is not None:
                workload.probe(i)
        cpu0 = workload.cpu_seconds()
        start = time.perf_counter()
        try:
            result = workload.op(i)
        except Exception as exc:  # a crash is a failed op, not a failed run
            result = Failure(exc)
        end = time.perf_counter()
        op_cpu = workload.cpu_seconds() - cpu0
        cpu += op_cpu
        latencies.append(end - start)
        k = i % inputs
        best[k] = min(best[k], end - start)
        best_cpu[k] = min(best_cpu[k], op_cpu)
        if not isinstance(result, Failure):
            try:
                result = workload.summarize(result)
            except Exception as exc:  # an answer of the wrong shape is a wrong answer
                result = Failure(exc)
            else:
                result = shared.setdefault(result, result)
        results.append(result)
        i += 1
        if end >= deadline and i >= min_ops and i >= min_passes * inputs:
            break
    wall = time.perf_counter() - t0
    return {"latencies": latencies, "results": results, "wall": wall, "cpu": cpu,
            "best": best, "best_cpu": best_cpu}


def _percentiles_ms(latencies) -> tuple:
    ms = [x * 1000.0 for x in latencies]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[-1]


def _setup(workload) -> float:
    """Seconds of one set-up; the previous set-up's resources are released first."""
    workload.close()
    # Start from an empty collector, so whether a full collection lands
    # inside the set-up does not vary from run to run.
    gc.collect()
    start = time.perf_counter()
    workload.setup()
    return time.perf_counter() - start


def _setups(workload, count: int, seconds: float) -> list:
    times = [_setup(workload)]
    while len(times) < MAX_SETUPS and (len(times) < count or sum(times) < seconds):
        times.append(_setup(workload))
    return times


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(args) -> int:
    import mockserver
    import workloads
    from spans import Tracer, layer_metrics

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": _git_commit(), "mock_delay_ms": mockserver.DELAY_MS,
    }
    setups, setup_seconds = (1, 0.0) if args.smoke else (SETUPS // 2, SETUP_SECONDS / 2.0)
    try:
        # Half the set-ups run before the timed loop and half after it, so a
        # slow spell on a shared machine does not hit all of them at once.
        setup_times = _setups(workload, setups, setup_seconds)
        if not args.trace:
            loop = timed_loop(workload, args.seconds, 3 if args.smoke else MIN_OPS,
                              1 if args.smoke else MIN_PASSES)
            setup_times += _setups(workload, setups, setup_seconds)
            loops = [loop]
            ops = len(loop["latencies"])
            p50, p90 = _percentiles_ms(loop["best"])
            metrics = {
                "setup_s": _metric(statistics.median(setup_times), "s"),
                "latency_ms.p50": _metric(p50, "ms"),
                "latency_ms.p90": _metric(p90, "ms"),
                "cpu_ms_per_op": _metric(statistics.fmean(loop["best_cpu"]) * 1000.0, "ms"),
                "peak_rss_mb": _metric(workload.peak_rss_mb(), "MB"),
            }
            # The same figures over every op, contention included; see README.
            all_p50, all_p90 = _percentiles_ms(loop["latencies"])
            inputs = len(loop["best"])
            info.update({
                "setups": len(setup_times), "ops": ops, "inputs": inputs, "passes": ops // inputs,
                "inputs_beyond_p90": sum(1 for x in loop["best"] if x * 1000.0 > p90),
                "all_ops_latency_ms.p50": all_p50, "all_ops_latency_ms.p90": all_p90,
                "all_ops_throughput_ops_s": ops / loop["wall"],
                "all_ops_cpu_ms_per_op": loop["cpu"] * 1000.0 / ops,
            })
        else:
            min_ops = 3 if args.smoke else TRACED_MIN_OPS
            plain = timed_loop(workload, args.seconds / 2.0, min_ops)
            workload.close()
            tracer = Tracer()
            try:
                tracer.install()
                workload.setup()
                tracer.start_loop()
                workload.scorer_stats(reset=True)  # zero the mock's counters
                traced = timed_loop(workload, args.seconds / 2.0, min_ops, tracer=tracer)
                stats = workload.scorer_stats(reset=False)
            finally:
                tracer.uninstall()
            loops = [plain, traced]
            ops = len(traced["latencies"])
            metrics = {name: _metric(value, unit) for name, (value, unit) in
                       layer_metrics(tracer, ops, stats, workload.cli_probes()).items()}
            plain_p50 = _percentiles_ms(plain["best"])[0]
            traced_p50 = _percentiles_ms(traced["best"])[0]
            metrics["trace.overhead_pct"] = _metric((traced_p50 / plain_p50 - 1.0) * 100.0, "%")
            trace_file = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_file)
            info["trace_file"] = str(trace_file.relative_to(ROOT))
            info["traced_ops"] = ops
            info["spans"] = len(tracer.spans)
    finally:
        workload.close()

    # Op numbers restart in each loop, and checks look inputs up by op number.
    flags = [ok for loop in loops for ok in workload.check(loop["results"])]
    failed = flags.count(False)
    info.update(workload.notes)
    info["error_rate"] = failed / len(flags)
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(flags), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("nav-grid", "task-scripted", "task-llm", "cli-cold", "cli-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal inputs and op counts, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "semplan").is_dir() or not (ROOT / "tests" / "fixtures").is_dir():
        print(f"error: semplan sources or fixtures not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The LLM workload talks to a mock on 127.0.0.1; keep proxies out of it.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
