"""Acceptance battery for the whole package.

Each test checks one release criterion end to end, at its stated tolerance
and time budget, and reports a single PASS/FAIL line in the terminal
summary so the run doubles as a checklist. Oracles come from oracles.py
and are independent reimplementations, not calls back into the package.
"""

import contextlib
import itertools
import json
import math
import random
import re
import socket
import time
from pathlib import Path

import pytest

from semplan.cli import main
from semplan.errors import ConfigMissing, NoPath, ScorerFailure
from semplan.geometry import Containment, Point2, point_in_polygon, validate_polygon
from semplan.nav import plan_path, replan
from semplan.scorer import LlmConfig, LlmScorer, ScoreRequest, ScoreResponse, llm_score
from semplan.semantic_map import load_map, save_map
from semplan.sim import check_goal, load_world, run_plan
from semplan.skills import ground_candidates, parse_skill, plan_next, resolve_ambiguity
from semplan.skills import Command, PlanTrace

from mapgen import random_grid_map, random_point_in
from oracles import (
    brute_force_shortest,
    check_rule_compliance,
    min_edge_distance,
    ray_cast_contains,
)
from mockllm import MockLlmServer

from conftest import ACCEPTANCE_LINES, FIXTURES


@contextlib.contextmanager
def criterion(number: int, title: str):
    """Record one PASS/FAIL line per criterion for the terminal summary."""
    details: list = []
    try:
        yield details
    except BaseException:
        ACCEPTANCE_LINES.append(f"FAIL criterion {number}: {title}")
        raise
    suffix = f" ({', '.join(str(d) for d in details)})" if details else ""
    ACCEPTANCE_LINES.append(f"PASS criterion {number}: {title}{suffix}")


def random_star_polygon(rng: random.Random) -> list:
    """Simple polygon by construction: vertices at increasing angles.

    Every cyclic angular gap must stay under pi, otherwise the closing edge
    may leave its wedge and cross the others.
    """
    while True:
        count = rng.randint(3, 10)
        angles = sorted(rng.uniform(0.0, 2.0 * math.pi) for _ in range(count))
        gaps = [b - a for a, b in zip(angles, angles[1:])]
        gaps.append(2.0 * math.pi - angles[-1] + angles[0])
        if min(gaps) < 0.05 or max(gaps) > 3.0:
            continue
        cx, cy = rng.uniform(-3, 3), rng.uniform(-3, 3)
        radii = [rng.uniform(0.5, 5.0) for _ in angles]
        return [
            [cx + r * math.cos(a), cy + r * math.sin(a)]
            for a, r in zip(angles, radii)
        ]


def test_criterion_1_containment_matches_ray_cast_oracle():
    with criterion(1, "point_in_polygon agrees with the ray-casting oracle") as details:
        rng = random.Random(1401)
        pairs = 0
        start = time.perf_counter()
        while pairs < 10000:
            raw = random_star_polygon(rng)
            if rng.random() < 0.2:
                x0, y0 = rng.uniform(-5, 0), rng.uniform(-5, 0)
                w, h = rng.uniform(1, 8), rng.uniform(1, 8)
                raw = [[x0, y0], [x0 + w, y0], [x0 + w, y0 + h], [x0, y0 + h]]
            poly = validate_polygon(raw)
            xs = [v[0] for v in raw]
            ys = [v[1] for v in raw]
            verts = [tuple(v) for v in raw]
            for _ in range(40):
                p = (
                    rng.uniform(min(xs) - 1.0, max(xs) + 1.0),
                    rng.uniform(min(ys) - 1.0, max(ys) + 1.0),
                )
                if min_edge_distance(p, verts) < 1e-6:
                    continue
                got = point_in_polygon(Point2(*p), poly)
                assert got is not Containment.BOUNDARY
                assert (got is Containment.INSIDE) == ray_cast_contains(*p, verts)
                pairs += 1
        elapsed = time.perf_counter() - start
        assert pairs >= 10000
        assert elapsed < 5.0, f"containment battery took {elapsed:.2f}s"
        details += [f"{pairs} pairs", f"{elapsed:.2f}s"]


def test_criterion_2_path_length_matches_brute_force():
    with criterion(2, "plan_path length equals exhaustive enumeration") as details:
        rng = random.Random(2402)
        start_time = time.perf_counter()
        pair_count = 0
        for _ in range(50):
            doc, doors, cells = random_grid_map(rng, max_doors=6)
            assert len(doors) <= 6
            smap = load_map(json.dumps(doc))
            probes = {room: random_point_in(rng, cells, room) for room in cells}
            for room_a, room_b in itertools.product(sorted(cells), repeat=2):
                a, b = probes[room_a], probes[room_b]
                expected = brute_force_shortest(a, room_a, b, room_b, doors)
                try:
                    path = plan_path(smap, Point2(*a), Point2(*b))
                except NoPath:
                    assert expected is None, f"missed route {room_a}->{room_b}"
                else:
                    assert expected is not None, f"phantom route {room_a}->{room_b}"
                    assert abs(path.length - expected[0]) <= 1e-9
                pair_count += 1
        elapsed = time.perf_counter() - start_time
        assert elapsed < 30.0, f"path battery took {elapsed:.2f}s"
        details += ["50 maps", f"{pair_count} pairs", f"{elapsed:.2f}s"]


def test_criterion_3_replanning_after_door_closure_is_sound():
    with criterion(3, "door closure replanning is sound and never shortens") as details:
        rng = random.Random(3403)
        closures = 0
        for _ in range(20):
            doc, doors, cells = random_grid_map(rng, max_doors=6)
            smap = load_map(json.dumps(doc))
            rooms = sorted(cells)
            a = random_point_in(rng, cells, rooms[0])
            b = random_point_in(rng, cells, rooms[-1])
            try:
                baseline = plan_path(smap, Point2(*a), Point2(*b)).length
            except NoPath:
                baseline = None
            for name, _, _, _ in doors:
                reduced = [
                    (n, pos, conn, passable and n != name)
                    for n, pos, conn, passable in doors
                ]
                expected = brute_force_shortest(a, rooms[0], b, rooms[-1], reduced)
                try:
                    path = replan(smap, Point2(*a), Point2(*b), name)
                except NoPath:
                    assert expected is None
                else:
                    assert expected is not None
                    assert name not in path.door_names()
                    passable = {n for n, _, _, ok in reduced if ok}
                    assert set(path.door_names()) <= passable
                    assert abs(path.length - expected[0]) <= 1e-9
                    if baseline is not None:
                        assert path.length >= baseline - 1e-12
                closures += 1
        details += ["20 maps", f"{closures} closures"]


def split_step(text: str) -> tuple:
    name, _, rest = text.partition("(")
    return (name, tuple(rest[:-1].split(","))) if rest else (name, ())


def test_criterion_4_scripted_scenarios_follow_rules_and_replay(capsys):
    with criterion(4, "golden scenarios obey R1-R4, end in done, replay all-Ok") as details:
        manifest = json.loads((FIXTURES / "scenarios" / "manifest.json").read_text())
        entries = [e for e in manifest if e["expect"] == "ok"]
        assert len(entries) >= 10
        for entry in entries:
            base = FIXTURES / "scenarios" / entry["name"]
            argv = ["plan-task", "--config", str(base / "config.json")]
            for answer in entry["answers"]:
                argv += ["--answer", answer]
            assert main(list(argv)) == 0, entry["name"]
            first = capsys.readouterr().out
            assert main(list(argv)) == 0
            second = capsys.readouterr().out
            assert first.encode() == second.encode(), f"{entry['name']} output drifts"

            doc = json.loads(first)
            steps = [step["skill"] for step in doc["plan"]]
            assert steps[-1] == "done", entry["name"]
            assert check_rule_compliance([split_step(s) for s in steps]) == []

            smap = load_map((FIXTURES / "maps" / "golden_arena.json").read_text())
            world = load_world(smap, (base / "world.json").read_text())
            trace = run_plan(smap, world, [parse_skill(s) for s in steps])
            assert trace.all_ok(), entry["name"]
            if entry["goal"]:
                assert check_goal(trace.final, entry["goal"]), entry["name"]
        details += [f"{len(entries)} scenarios"]


def test_criterion_5_ambiguity_resolution_is_total():
    with criterion(5, "clarifications cover exactly the ambiguous tokens") as details:
        vocabulary = {"object", "it", "thing", "something", "one", "them"}
        words = re.compile(r"[A-Za-z_']+")
        corpus = json.loads((FIXTURES / "ambiguity_corpus.json").read_text())
        assert len(corpus) == 20
        total = 0
        for entry in corpus:
            pending = list(entry["answers"])
            asked = []

            def oracle(clar, _pending=pending, _asked=asked):
                _asked.append(clar.slot)
                return _pending.pop(0)

            command = resolve_ambiguity(entry["command"], oracle)
            ambiguous = [
                w for w in words.findall(entry["command"]) if w.lower() in vocabulary
            ]
            assert len(asked) == len(ambiguous), entry["command"]
            assert command.resolved == entry["resolved"]
            leftovers = [
                w for w in words.findall(command.resolved) if w.lower() in vocabulary
            ]
            assert leftovers == [], entry["command"]
            total += len(asked)
        details += ["20 commands", f"{total} clarifications"]


class TableScorer:
    def __init__(self, table: dict):
        self.table = table

    def score(self, request: ScoreRequest) -> ScoreResponse:
        return ScoreResponse(
            {c: self.table[c.to_text()] for c in request.candidates}
        )


def test_criterion_6_argmax_ignores_score_scale():
    with criterion(6, "positive rescaling never changes the chosen skill") as details:
        smap = load_map((FIXTURES / "maps" / "golden_arena.json").read_text())
        command = Command(raw="Bring me the apple", resolved="Bring me the apple")
        skill_set = ground_candidates(smap, command)
        prefixes = [
            (),
            (parse_skill("move_to(kitchen_table)"),),
            (parse_skill("find_obj(apple)"),),
            (parse_skill("find_obj(apple)"), parse_skill("grasp(apple)")),
        ]
        rng = random.Random(6406)
        for _ in range(1000):
            trace = PlanTrace(steps=rng.choice(prefixes))
            table = {skill.to_text(): rng.uniform(0.01, 10.0) for skill in skill_set}
            k = math.exp(rng.uniform(-12.0, 12.0))
            scaled = {text: k * value for text, value in table.items()}
            plain = plan_next(command, trace, TableScorer(table), skill_set)
            boosted = plan_next(command, trace, TableScorer(scaled), skill_set)
            assert plain == boosted, f"k={k} flipped {plain} to {boosted}"
        details += ["1000 tables"]


def test_criterion_7_save_load_round_trip_and_exit_codes(tmp_path, capsys):
    with criterion(7, "save/load round-trips bytewise; validation exit codes hold") as details:
        fixtures = sorted((FIXTURES / "maps").glob("*.json"))
        assert fixtures
        round_trips = 0
        for fixture in fixtures:
            expected = 2 if fixture.name.startswith("bad_") else 0
            assert main(["map", "validate", str(fixture)]) == expected, fixture.name
            capsys.readouterr()
            if expected != 0:
                continue
            first = save_map(load_map(fixture.read_text()))
            second = save_map(load_map(first))
            assert first.encode() == second.encode(), fixture.name
            round_trips += 1
        assert main(["map", "validate", str(tmp_path / "absent.json")]) == 2
        capsys.readouterr()
        details += [f"{round_trips} round-trips", f"{len(fixtures)} fixtures"]


def test_criterion_8_llm_scorer_contract(monkeypatch):
    with criterion(8, "logprob scorer: exact exp-sums, 3-try backoff, offline silence") as details:
        calls = []
        monkeypatch.delenv("SEMPLAN_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("SEMPLAN_LLM_KEY", raising=False)
        # Every name lookup and every connection, whichever client makes it.
        offline = lambda *a, **kw: calls.append(a) or pytest.fail("network call")
        monkeypatch.setattr(socket, "getaddrinfo", offline)
        monkeypatch.setattr(socket.socket, "connect", offline)
        with pytest.raises(ConfigMissing):
            LlmScorer.from_env()
        assert calls == []
        monkeypatch.undo()

        logprobs = {
            "grasp(apple)": [-0.1, -0.2, -0.3],
            "done": [-2.0],
            "move_to(kitchen)": [-0.5, -1.25],
        }
        request = ScoreRequest(
            command="Bring me the apple",
            history=(parse_skill("find_obj(apple)"),),
            candidates=tuple(parse_skill(t) for t in logprobs),
        )
        with MockLlmServer(candidate_logprobs=logprobs) as server:
            config = LlmConfig(endpoint=server.url, key="k", backoff_base=0.01)
            response = llm_score(request, config)
            for candidate in request.candidates:
                want = math.exp(sum(logprobs[candidate.to_text()]))
                assert abs(response.scores[candidate] - want) <= 1e-12

        single = ScoreRequest(
            command="x", history=(), candidates=(parse_skill("done"),)
        )
        with MockLlmServer(candidate_logprobs={"done": [-2.0]}) as server:
            server.fail_statuses = [500, 429]
            config = LlmConfig(endpoint=server.url, key="k", backoff_base=0.01)
            begin = time.perf_counter()
            response = llm_score(single, config)
            waited = time.perf_counter() - begin
            assert abs(response.scores[single.candidates[0]] - math.exp(-2.0)) <= 1e-12
            assert server.request_count == 3
            assert waited >= 0.01 + 0.02

        with MockLlmServer(candidate_logprobs={"done": [-2.0]}) as server:
            server.fail_statuses = [500, 500, 500]
            config = LlmConfig(endpoint=server.url, key="k", backoff_base=0.01)
            with pytest.raises(ScorerFailure):
                llm_score(single, config)
            assert server.request_count == 3
        details += ["3 candidates", "retry x3", "0 offline calls"]
