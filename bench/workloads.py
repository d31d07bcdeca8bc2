"""The four workloads: inputs from a seed, one op, and the answer checks.

Each workload is driven by one closed-loop client in this process (the
mock endpoint and the cold CLI runs are child processes, one at a time).
``setup`` builds inputs from the seed and loads them through semplan;
``op(i)`` runs op number i and returns what the checks need; ``check``
runs after the timed loop and returns one pass flag per op. Layer
functions are always called through their modules, so a traced run sees
its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen
import mockserver
import refpath
from semplan import cli, nav, scorer, semantic_map, sim, skills
from semplan.errors import NoPath, PlanTooLong
from semplan.geometry import Point2

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SCENARIOS = FIXTURES / "scenarios"
GOLDEN_MAP = FIXTURES / "maps" / "golden_arena.json"

TOLERANCE = 1e-9
CHILD_TIMEOUT_S = 60


class Failure:
    """An op that raised an exception the workload does not expect."""

    def __init__(self, exc: BaseException):
        self.error = f"{type(exc).__name__}: {exc}"


class Workload:
    """``setup`` sets ``order``: the inputs of one pass, by index.

    Op i runs input ``order[i % len(order)]``, so the timed loop visits
    every input once per pass and each input repeats across the run.
    """

    name = ""
    probe = None  # called before each traced op, outside its timing
    order: list = []

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.notes: dict = {}

    def input_of(self, i: int) -> int:
        return self.order[i % len(self.order)]

    def summarize(self, result):
        """A hashable digest of an op's result: all that the checks read.

        The loop stores one digest per op and shares equal ones, so memory
        does not grow with the number of ops a faster program completes.
        """
        return result

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def scorer_stats(self, reset: bool) -> dict:
        return {}

    def cli_probes(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------- nav-grid

class NavGrid(Workload):
    """plan_path or replan queries on seeded 10x10 and 20x20 grids.

    Three 10x10 maps take 32 queries each and two 20x20 maps 8 each. Of
    the 112 queries, the median falls among small-map ones and the 90th
    percentile among large-map ones, each well inside its own cluster.
    Several maps per size keep one map's layout from setting the figures,
    and few large-map queries keep a pass short, so a run makes over
    twenty passes.
    """

    name = "nav-grid"
    CLOSED_FRACTION = 0.1
    ISOLATED_FRACTION = 0.02
    # (rooms per side, maps, queries per map)
    LAYOUT = ((10, 3, 32), (20, 2, 8))
    SMOKE_LAYOUT = ((3, 1, 8), (4, 1, 4))

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.layout = self.SMOKE_LAYOUT if smoke else self.LAYOUT
        self.notes["map_sizes"] = [f"{count} of {n}x{n}" for n, count, _ in self.layout]

    def setup(self):
        rng = random.Random(self.seed)
        self.maps, self.queries = [], []
        for size, count, per_map in self.layout:
            for _ in range(count):
                grid = gen.GridMap(rng, size, size, closed_fraction=self.CLOSED_FRACTION,
                                   isolated_fraction=self.ISOLATED_FRACTION)
                m = len(self.maps)
                self.maps.append((grid, semantic_map.load_map(grid.text())))
                for q in gen.nav_queries(rng, grid, per_map):
                    goal = q["goal"] if isinstance(q["goal"], str) else Point2(*q["goal"])
                    self.queries.append((m, Point2(*q["start"]), goal, q["close"], q))
        # One pass visits every query once, small and large maps interleaved.
        self.order = list(range(len(self.queries)))
        rng.shuffle(self.order)

    def op(self, i):
        m, start, goal, close, _ = self.queries[self.input_of(i)]
        smap = self.maps[m][1]
        try:
            if close is None:
                return nav.plan_path(smap, start, goal)
            return nav.replan(smap, start, goal, close)
        except NoPath:
            return None

    def summarize(self, path):
        if path is None:
            return None
        return (tuple(path.door_names()), path.length,
                tuple((w.anchor.x, w.anchor.y) for w in path.waypoints))

    def check(self, results):
        references: dict = {}
        first: dict = {}
        flags = []
        for i, result in enumerate(results):
            key = self.input_of(i)
            if key not in references:
                references[key] = self._reference(key)
                first[key] = result
            flags.append(self._path_ok(key, result, references[key]))
        digest = hashlib.sha256()
        for key in sorted(first):
            result = first[key]
            if isinstance(result, Failure):
                line = "error"
            elif result is None:
                line = "NoPath"
            else:
                line = ",".join(result[0])
            digest.update(f"{key}:{line}\n".encode())
        self.notes["nav_digest"] = digest.hexdigest()[:16]
        self.notes["nav_queries_checked"] = len(first)
        self.notes["nav_nopath_queries"] = sum(1 for r in references.values() if r is None)
        return flags

    def _goal_point(self, grid, raw_goal):
        return grid.furniture_at[raw_goal][1] if isinstance(raw_goal, str) else raw_goal

    def _reference(self, key):
        m, *_, q = self.queries[key]
        grid = self.maps[m][0]
        passable = grid.passable - {q["close"]}
        return refpath.shortest_route(grid, passable, q["start"], self._goal_point(grid, q["goal"]))

    def _path_ok(self, key, result, reference) -> bool:
        m, *_, q = self.queries[key]
        grid = self.maps[m][0]
        if isinstance(result, Failure):
            return False
        if reference is None or result is None:
            return reference is None and result is None
        doors, length, points = result
        if doors != reference[0]:
            return False
        if any(d not in grid.passable or d == q["close"] for d in doors):
            return False
        goal = self._goal_point(grid, q["goal"])
        expected = [q["start"]] + [grid.doors[d][1] for d in doors] + [goal]
        if len(points) != len(expected) or any(
            math.hypot(p[0] - e[0], p[1] - e[1]) > TOLERANCE for p, e in zip(points, expected)
        ):
            return False
        rooms = [{grid.room_at(*q["start"])}] + [set(grid.doors[d][0]) for d in doors]
        rooms.append({grid.room_at(*goal)})
        if any(not (a & b) for a, b in zip(rooms, rooms[1:])):
            return False
        segments = sum(math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in zip(points, points[1:]))
        return abs(segments - length) <= TOLERANCE and abs(length - reference[1]) <= TOLERANCE


# ------------------------------------------------------------------- tasks

@dataclass
class Scenario:
    name: str
    smap: object
    world: object
    scorer: object
    command: str
    answers: list
    steps: list  # intended plan as text, or None when PlanTooLong is expected
    goal: str
    max_steps: int = skills.DEFAULT_MAX_STEPS
    rows: list = None  # scripted score rows, for the mock's tables
    resolved: str = None  # resolved command the rows were scored for


def _oracle(answers):
    queue = list(answers)
    return lambda _clarification: queue.pop(0) if queue else ""


def _golden_scenarios(include_stall: bool) -> list:
    maps: dict = {}
    out = []
    for entry in json.loads((SCENARIOS / "manifest.json").read_text()):
        if entry["expect"] != "ok" and not include_stall:
            continue
        base = SCENARIOS / entry["name"]
        config = json.loads((base / "config.json").read_text())
        map_path = (base / config["map"]).resolve()
        if map_path not in maps:
            maps[map_path] = semantic_map.load_map(map_path.read_text())
        smap = maps[map_path]
        scores_text = (base / config["scorer"]["path"]).read_text()
        scores_doc = json.loads(scores_text)
        out.append(Scenario(
            entry["name"], smap, sim.load_world(smap, (base / config["world"]).read_text()),
            scorer.ScriptedScorer(scorer.load_scenario(scores_text)),
            config["command"], entry["answers"], entry["expected_steps"], entry["goal"],
            config.get("max_steps", skills.DEFAULT_MAX_STEPS),
            rows=scores_doc["rows"], resolved=scores_doc["command"],
        ))
    return out


def _house_scenarios(rng, sizes) -> list:
    out = []
    for n, (rows, cols) in enumerate(sizes):
        grid, world_doc, task = gen.house_task(rng, rows, cols)
        smap = semantic_map.load_map(grid.text())
        world = sim.load_world(smap, json.dumps(world_doc))
        command = skills.resolve_ambiguity(task["command"], _oracle(task["answers"]))
        universe = skills.ground_candidates(smap, command)
        rows_doc = gen.score_rows(skills, universe, task["steps"])
        scenario_text = json.dumps({"command": command.resolved, "rows": rows_doc})
        out.append(Scenario(
            f"house{n}_{rows}x{cols}", smap, world,
            scorer.ScriptedScorer(scorer.load_scenario(scenario_text)),
            task["command"], task["answers"], task["steps"], task["goal"],
        ))
    return out


class Tasks(Workload):
    """resolve_ambiguity -> ground_candidates -> plan_task -> run_plan -> check_goal."""

    def _order(self):
        """Seeded order of one pass over the scenarios."""
        order = list(range(len(self.scenarios)))
        random.Random(self.seed).shuffle(order)
        return order

    def op(self, i):
        sc = self.scenarios[self.input_of(i)]
        command = skills.resolve_ambiguity(sc.command, _oracle(sc.answers))
        universe = skills.ground_candidates(sc.smap, command)
        try:
            trace = skills.plan_task(command, sc.scorer, universe, max_steps=sc.max_steps)
        except PlanTooLong:
            return sc, None, None, None
        run = sim.run_plan(sc.smap, sc.world, trace.steps)
        goal_ok = sim.check_goal(run.final, sc.goal) if sc.goal else None
        return sc, trace.steps, run, goal_ok

    def summarize(self, result):
        sc, steps, run, goal_ok = result
        if steps is None:
            return sc.name, None, None, None
        return (sc.name, tuple(s.to_text() for s in steps),
                tuple(outcome.ok for _, outcome in run.steps), goal_ok)

    def _task_ok(self, result) -> bool:
        if isinstance(result, Failure):
            return False
        name, steps, outcomes, goal_ok = result
        sc = self.by_name[name]
        if sc.steps is None or steps is None:
            return sc.steps is None and steps is None
        return (list(steps) == sc.steps and len(outcomes) == len(steps) and all(outcomes)
                and (sc.goal is None or goal_ok is True))

    def check(self, results):
        return [self._task_ok(r) for r in results]


class TaskScripted(Tasks):
    name = "task-scripted"

    # Op latency clusters by map: golden < 3x3 < 4x4 < 5x5 houses. With 13
    # golden scenarios and 8, 64 and 24 houses, the median falls near the
    # middle of the 4x4 cluster and the 90th percentile inside the 5x5 one,
    # not on the edge between two clusters, where it would jump from run to
    # run. 109 inputs leave 11 beyond the 90th percentile.
    HOUSES = [(3, 3)] * 8 + [(4, 4)] * 64 + [(5, 5)] * 24

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.sizes = [(3, 3)] * 2 if smoke else self.HOUSES
        self.notes["map_sizes"] = ["golden_arena"] + sorted({f"{r}x{c}" for r, c in self.sizes})

    def setup(self):
        rng = random.Random(self.seed)
        self.scenarios = _golden_scenarios(include_stall=True) + _house_scenarios(rng, self.sizes)
        self.by_name = {sc.name: sc for sc in self.scenarios}
        self.order = self._order()


class TaskLlm(Tasks):
    """Golden scenarios planned by LlmScorer against the mock endpoint.

    The stall scenario is left out: its resolved command and histories
    coincide with bring_apple's, so the mock could not tell their tables
    apart.
    """

    name = "task-llm"

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.mock = None
        self.notes["map_sizes"] = ["golden_arena"]

    def setup(self):
        scenarios = _golden_scenarios(include_stall=False)
        tables: dict = {}
        for sc in scenarios:
            for k, row in enumerate(sc.rows):
                key = (sc.resolved, ", ".join(sc.steps[:k]) or "none")
                if tables.setdefault(key, row["scores"]) != row["scores"]:
                    raise ValueError(f"conflicting score tables for {key}")
        self.mock = mockserver.MockServer(
            [{"command": c, "history": h, "scores": s} for (c, h), s in sorted(tables.items())]
        )
        config = scorer.LlmConfig(endpoint=self.mock.url, key="bench")
        self.scripted = {}
        for sc in scenarios:
            self.scripted[sc.name] = sc.scorer
            sc.scorer = scorer.LlmScorer(config)
        self.scenarios = scenarios
        self.by_name = {sc.name: sc for sc in scenarios}
        self.order = self._order()

    def scorer_stats(self, reset: bool) -> dict:
        return self.mock.stats(reset)

    def check(self, results):
        flags = super().check(results)
        plans = {}
        for sc in self.scenarios:
            command = skills.resolve_ambiguity(sc.command, _oracle(sc.answers))
            universe = skills.ground_candidates(sc.smap, command)
            trace = skills.plan_task(command, self.scripted[sc.name], universe, max_steps=sc.max_steps)
            plans[sc.name] = tuple(s.to_text() for s in trace.steps)
        return [ok and r[1] == plans[r[0]] for ok, r in zip(flags, results)]

    def close(self):
        if self.mock is not None:
            self.notes["mock_final"] = self.mock.close()
            self.mock = None


# ---------------------------------------------------------------- cli-cold

CHILD_MAIN = "import sys; from semplan.cli import main; sys.exit(main(sys.argv[1:]))"
CHILD_IMPORT = ("import time; t = time.perf_counter(); import semplan.cli; "
                "print((time.perf_counter() - t) * 1000.0)")


def _in_process(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


def _children_usage():
    return resource.getrusage(resource.RUSAGE_CHILDREN)


class CliCold(Workload):
    """A fresh interpreter per op running semplan.cli.main on a seeded argv.

    ``python -m semplan.cli`` is not used: the module has no __main__
    guard, so it would exit 0 having done nothing.
    """

    name = "cli-cold"
    KINDS = ("map", "locate", "plan-path", "plan-task", "sim")
    # Two argvs of each kind: a pass is short enough to repeat about ten
    # times in a run, and every seed has the same mix of kinds.
    POOL = 2 * len(KINDS)

    def __init__(self, seed, smoke):
        super().__init__(seed, smoke)
        self.work = ROOT / ".bench_work" / f"cli-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.notes["map_sizes"] = ["golden_arena"]
        self.interpreter_ms: list = []
        self.import_ms: list = []

    def _argvs(self, rng) -> list:
        manifest = json.loads((SCENARIOS / "manifest.json").read_text())
        arena = json.loads(GOLDEN_MAP.read_text())
        xs = [p[0] for r in arena["rooms"] for p in r["contour"]]
        ys = [p[1] for r in arena["rooms"] for p in r["contour"]]
        furniture = [f["name"] for f in arena["furniture"]]
        doors = [d["name"] for d in arena["doors"]]
        maps = sorted(str(p) for p in (FIXTURES / "maps").glob("*.json"))
        runnable = [e for e in manifest if e["expect"] == "ok"]

        def point():
            return [f"{rng.uniform(min(xs) - 1, max(xs) + 1):.2f}",
                    f"{rng.uniform(min(ys) - 1, max(ys) + 1):.2f}"]

        argvs = []
        for k in range(self.POOL):
            fmt = ["--format", rng.choice(("human", "json"))]
            kind = self.KINDS[k % len(self.KINDS)]
            if kind == "map":
                argv = ["map", "validate", rng.choice(maps)] + fmt
            elif kind == "locate":
                argv = ["locate", str(GOLDEN_MAP)] + point() + fmt
            elif kind == "plan-path":
                goal = rng.choice(furniture) if rng.random() < 0.5 else ",".join(point())
                argv = ["plan-path", str(GOLDEN_MAP), "--start", *point(), "--goal", goal]
                if rng.random() < 0.3:
                    argv += ["--close-door", rng.choice(doors)]
                argv += fmt
            elif kind == "plan-task":
                entry = rng.choice(manifest)
                argv = ["plan-task", "--config", str(SCENARIOS / entry["name"] / "config.json")]
                for answer in entry["answers"]:
                    argv += ["--answer", answer]
                if entry["goal"]:
                    argv += ["--goal", entry["goal"]]
                argv += fmt
            else:
                entry = rng.choice(runnable)
                plan = self.work / f"{entry['name']}.plan"
                plan.write_text("".join(f"{s}\n" for s in entry["expected_steps"]))
                base = SCENARIOS / entry["name"]
                argv = ["sim", "run", str(GOLDEN_MAP), str(base / "world.json"), str(plan)]
                if entry["goal"]:
                    argv += ["--goal", entry["goal"]]
                argv += fmt
            argvs.append(argv)
        return argvs

    def setup(self):
        self.work.mkdir(parents=True, exist_ok=True)
        self.pool = [(argv, _in_process(argv)) for argv in self._argvs(random.Random(self.seed))]
        self.order = list(range(len(self.pool)))

    def _child(self, args):
        return subprocess.run(
            [sys.executable, *args], env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S,
        )

    def op(self, i):
        argv = self.pool[self.input_of(i)][0]
        proc = self._child(["-c", CHILD_MAIN, *argv])
        return proc.returncode, proc.stdout

    def probe(self, i):
        start = time.perf_counter()
        self._child(["-c", "pass"])
        self.interpreter_ms.append((time.perf_counter() - start) * 1000.0)
        self.import_ms.append(float(self._child(["-c", CHILD_IMPORT]).stdout))
        _in_process(self.pool[self.input_of(i)][0])

    def cli_probes(self) -> dict:
        return {
            "interpreter_ms": statistics.median(self.interpreter_ms) if self.interpreter_ms else 0.0,
            "import_ms": statistics.median(self.import_ms) if self.import_ms else 0.0,
        }

    def check(self, results):
        return [not isinstance(r, Failure) and r == self.pool[self.input_of(i)][1]
                for i, r in enumerate(results)]

    def cpu_seconds(self) -> float:
        usage = _children_usage()
        return usage.ru_utime + usage.ru_stime

    def peak_rss_mb(self) -> float:
        return _children_usage().ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


class CliWarm(CliCold):
    """semplan.cli.main in this process, on seeded argvs drawn as for cli-cold.

    No interpreter start and no imports: the op is the cli layer's own
    work (argument parsing, loading, planning, output) and the layers it
    calls. The traced run still times interpreter start and the import of
    semplan.cli in child processes, for its first PROBE_OPS ops. The
    expected output of each argv comes from a fresh interpreter, run once
    after the timed loop.
    """

    name = "cli-warm"
    # Four argvs of each kind, so two inputs lie beyond the 90th percentile.
    POOL = 4 * len(CliCold.KINDS)
    PROBE_OPS = 20

    def op(self, i):
        return _in_process(self.pool[self.input_of(i)][0])

    def probe(self, i):
        if i < self.PROBE_OPS:
            super().probe(i)

    def check(self, results):
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            # Same seed, same argvs; this rewrites the plan files close() removed.
            argvs = self._argvs(random.Random(self.seed))
            cold = [self._child(["-c", CHILD_MAIN, *argv]) for argv in argvs]
        finally:
            self.close()
        expected = [(proc.returncode, proc.stdout) for proc in cold]
        return [not isinstance(r, Failure) and r == expected[self.input_of(i)]
                for i, r in enumerate(results)]

    cpu_seconds = Workload.cpu_seconds
    peak_rss_mb = Workload.peak_rss_mb


WORKLOADS = {w.name: w for w in (NavGrid, TaskScripted, TaskLlm, CliCold, CliWarm)}
