"""Spans recorded around calls into semplan's layers, for traced runs only.

``Tracer.install`` replaces layer functions in the loaded ``semplan``
modules with wrappers that append a span (name, start, end, parent, op id,
info) to an in-memory list; ``uninstall`` puts the originals back. The
benchmark calls layer functions through their modules, so it sees the
wrappers only while they are installed. An untraced run never installs
them.

``point_in_polygon`` runs hundreds of times per query, so it is counted
and timed in aggregate instead of getting a span of its own.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

# (layer module, function, span name); every loaded semplan module that
# imported the function by name gets the same wrapper.
SPAN_FUNCTIONS = (
    ("semantic_map", "load_map", "semantic_map.load_map"),
    ("semantic_map", "room_of", "semantic_map.room_of"),
    ("semantic_map", "set_door_passable", "semantic_map.set_door_passable"),
    ("nav", "build_door_graph", "nav.build_door_graph"),
    ("nav", "plan_path", "nav.plan_path"),
    ("nav", "replan", "nav.replan"),
    ("skills", "resolve_ambiguity", "skills.resolve_ambiguity"),
    ("skills", "ground_candidates", "skills.ground_candidates"),
    ("skills", "plan_task", "skills.plan_task"),
    ("sim", "run_plan", "sim.run_plan"),
    ("cli", "main", "cli.main"),
)
SCORER_CLASSES = ("ScriptedScorer", "LlmScorer")


def _edge_count(args, graph):
    edges = getattr(graph, "edges", None)
    return sum(len(v) for v in edges.values()) // 2 if isinstance(edges, dict) else None


def _candidate_count(args, _result):
    return len(args[1].candidates)


PROBES = {
    "nav.build_door_graph": _edge_count,
    "skills.ground_candidates": lambda args, result: len(result),
    "scorer.score": _candidate_count,
}


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index, op id, info].
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self.pip_calls = 0
        self.pip_seconds = 0.0
        self._patches: list = []

    def _span(self, name, fn):
        spans, stack, probe = self.spans, self.stack, PROBES.get(name)

        def wrapped(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                record[2] = perf_counter()
                record[1] = start
                stack.pop()
            if probe is not None:
                record[5] = probe(args, result)
            return result

        return wrapped

    def _pip(self, fn):
        def wrapped(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                self.pip_seconds += perf_counter() - start
                self.pip_calls += 1

        return wrapped

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("semplan.") and m is not None]
        for layer, attr, name in SPAN_FUNCTIONS:
            original = getattr(sys.modules.get(f"semplan.{layer}"), attr, None)
            if original is None:
                continue
            wrapper = self._span(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapper)
        scorer = sys.modules["semplan.scorer"]
        for cls_name in SCORER_CLASSES:
            cls = getattr(scorer, cls_name)
            self._patch(cls, "score", self._span("scorer.score", cls.score))
        semantic_map = sys.modules["semplan.semantic_map"]
        self._patch(semantic_map, "point_in_polygon", self._pip(semantic_map.point_in_polygon))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def start_loop(self) -> None:
        """Forget point_in_polygon counts from set-up; spans keep op id -1."""
        self.pip_calls = 0
        self.pip_seconds = 0.0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            for name, start, end, parent, op, info in self.spans:
                out.write(json.dumps([name, round((start - origin) * 1e6, 3),
                                      round((end - origin) * 1e6, 3), parent, op, info]) + "\n")


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, ops: int, scorer_stats: dict, cli_probes: dict) -> dict:
    """Per-layer numbers from the spans of a traced loop of ``ops`` ops."""
    spans = tracer.spans
    by_name: dict = {}
    children: dict = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def in_loop(name):
        return [i for i in by_name.get(name, ()) if spans[i][4] >= 0]

    def mean_ms(name, scale=1000.0, loop_only=True):
        ids = in_loop(name) if loop_only else by_name.get(name, ())
        return _mean([dur(i) for i in ids]) * scale

    def self_ms(name, child_names=None):
        out = []
        for i in in_loop(name):
            kids = [k for k in children.get(i, ()) if child_names is None or spans[k][0] in child_names]
            out.append(dur(i) - sum(dur(k) for k in kids))
        return _mean(out) * 1000.0

    def infos(name):
        return [spans[i][5] for i in in_loop(name) if isinstance(spans[i][5], int)]

    plan_paths = in_loop("nav.plan_path")
    steps = in_loop("scorer.score")
    sim_nav = [i for i in plan_paths if spans[i][3] >= 0 and spans[spans[i][3]][0] == "sim.run_plan"]
    per_op = 1.0 / ops
    per_step = 1.0 / len(steps) if steps else 0.0
    return {
        "geometry.pip_calls_per_op": (tracer.pip_calls * per_op, "count/op"),
        "geometry.pip_ms_per_op": (tracer.pip_seconds * 1000.0 * per_op, "ms/op"),
        "semantic_map.load_ms": (mean_ms("semantic_map.load_map", loop_only=False), "ms"),
        "semantic_map.room_of_us": (mean_ms("semantic_map.room_of", 1e6), "us"),
        "semantic_map.room_of_calls_per_op": (len(in_loop("semantic_map.room_of")) * per_op, "count/op"),
        "semantic_map.set_door_passable_us": (mean_ms("semantic_map.set_door_passable", 1e6), "us"),
        "nav.plan_path_ms": (mean_ms("nav.plan_path"), "ms"),
        "nav.replan_ms": (mean_ms("nav.replan"), "ms"),
        "nav.build_graph_ms": (mean_ms("nav.build_door_graph"), "ms"),
        "nav.dijkstra_ms": (self_ms("nav.plan_path"), "ms"),
        "nav.graph_edges_per_query": (_mean(infos("nav.build_door_graph")), "count"),
        "nav.nopath_ratio": (
            sum(1 for i in plan_paths if spans[i][5] == "NoPath") / len(plan_paths)
            if plan_paths else 0.0, "ratio"),
        "skills.resolve_us": (mean_ms("skills.resolve_ambiguity", 1e6), "us"),
        "skills.ground_ms": (mean_ms("skills.ground_candidates"), "ms"),
        "skills.universe_size": (_mean(infos("skills.ground_candidates")), "count"),
        "skills.plan_self_ms": (self_ms("skills.plan_task", {"scorer.score"}), "ms"),
        "skills.admissible_per_step": (_mean(infos("scorer.score")), "count"),
        "skills.steps_per_op": (len(steps) * per_op, "count/op"),
        "scorer.score_ms_per_step": (mean_ms("scorer.score"), "ms"),
        "scorer.http_requests_per_step": (scorer_stats.get("requests", 0) * per_step, "count"),
        "scorer.connections_per_step": (scorer_stats.get("connections", 0) * per_step, "count"),
        "scorer.max_in_flight": (scorer_stats.get("max_in_flight", 0), "count"),
        "scorer.server_busy_ms_per_step": (scorer_stats.get("busy_ms", 0.0) * per_step, "ms"),
        "scorer.retries": (scorer_stats.get("non_200", 0), "count"),
        "sim.run_plan_ms": (mean_ms("sim.run_plan"), "ms"),
        "sim.nav_calls_per_op": (len(sim_nav) * per_op, "count/op"),
        "sim.nav_ms_per_op": (sum(dur(i) for i in sim_nav) * 1000.0 * per_op, "ms/op"),
        "cli.interpreter_ms": (cli_probes.get("interpreter_ms", 0.0), "ms"),
        "cli.import_ms": (cli_probes.get("import_ms", 0.0), "ms"),
        "cli.command_ms": (mean_ms("cli.main"), "ms"),
    }
