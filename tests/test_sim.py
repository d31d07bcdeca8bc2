import json
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from semplan.errors import InvalidGoalSpec, NoPath, OutsideArena, ParseError, ValidationError
from semplan.geometry import Point2, centroid
from semplan.nav import plan_path
from semplan.semantic_map import load_map, room_of, save_map, set_door_passable
from semplan.sim import (
    GRIPPER_OCCUPIED,
    NO_PATH,
    NOT_FOUND,
    NOT_IN_ROOM,
    NOT_VISIBLE,
    NOTHING_HELD,
    TOO_FAR,
    UNKNOWN_LOCATION,
    WorldState,
    apply_skill,
    check_goal,
    load_world,
    run_plan,
)
from semplan.skills import parse_skill

from mapgen import CELL_H, CELL_W, random_grid_map, random_point_in


@pytest.fixture
def golden_map(fixtures_dir):
    return load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())


@pytest.fixture
def golden_world(fixtures_dir, golden_map):
    return load_world(
        golden_map, (fixtures_dir / "worlds" / "golden_world.json").read_text()
    )


GOLDEN_PLAN = [
    parse_skill(t)
    for t in (
        "move_to(kitchen_table)",
        "find_obj(apple)",
        "grasp(apple)",
        "move_to(operator)",
        "handover",
        "done",
    )
]


class TestLoadWorld:
    def test_golden_world(self, golden_world):
        assert golden_world.placements == {"apple": "kitchen_table"}
        assert golden_world.robot == Point2(16, 5)
        assert golden_world.operator == Point2(9, 3)
        assert golden_world.held is None
        assert golden_world.found == frozenset()
        assert golden_world.delivered == ()

    def test_unknown_furniture(self, golden_map):
        doc = '{"objects": {"apple": "sofa"}, "robot": [1, 1], "operator": [2, 2]}'
        with pytest.raises(ValidationError) as err:
            load_world(golden_map, doc)
        assert err.value.entity == "apple"

    def test_robot_outside_rooms(self, golden_map):
        doc = '{"objects": {}, "robot": [99, 99], "operator": [2, 2]}'
        with pytest.raises(ValidationError) as err:
            load_world(golden_map, doc)
        assert err.value.entity == "robot"

    def test_malformed_json(self, golden_map):
        with pytest.raises(ParseError):
            load_world(golden_map, "{nope")

    def test_unknown_keys(self, golden_map):
        with pytest.raises(ParseError):
            load_world(golden_map, '{"robot": [1,1], "operator": [2,2], "pets": {}}')

    def test_bad_point_shape(self, golden_map):
        with pytest.raises(ParseError):
            load_world(golden_map, '{"objects": {}, "robot": [1], "operator": [2, 2]}')


class TestApplySkill:
    def test_grasp_with_full_gripper(self, golden_map, golden_world):
        world = WorldState(
            placements=golden_world.placements,
            robot=Point2(2, 2),
            operator=golden_world.operator,
            held="milk",
            found=frozenset({"apple"}),
        )
        after, outcome = apply_skill(golden_map, world, parse_skill("grasp(apple)"))
        assert not outcome.ok
        assert outcome.reason == GRIPPER_OCCUPIED
        assert after == world

    def test_move_to_through_closed_sole_door(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "two_room.json").read_text())
        closed = set_door_passable(smap, "door_ab", False)
        world = WorldState(placements={}, robot=Point2(0, 0), operator=Point2(9, 3))
        after, outcome = apply_skill(closed, world, parse_skill("move_to(room_b)"))
        assert outcome.reason == NO_PATH
        assert after.robot == Point2(0, 0)

    def test_move_to_unknown_location(self, golden_map, golden_world):
        _, outcome = apply_skill(golden_map, golden_world, parse_skill("move_to(garage)"))
        assert outcome.reason == UNKNOWN_LOCATION

    def test_move_to_room_targets_centroid(self, golden_map, golden_world):
        after, outcome = apply_skill(
            golden_map, golden_world, parse_skill("move_to(kitchen)")
        )
        assert outcome.ok
        assert after.robot == Point2(3, 3)

    def test_move_to_concave_room_lands_inside_it(self):
        # The L-shaped hall's centroid (2.2, 2.2) lies in den, behind a closed door.
        smap = load_map(json.dumps({
            "rooms": [
                {"name": "hall", "contour": [[0, 0], [6, 0], [6, 2], [2, 2], [2, 6], [0, 6]]},
                {"name": "den", "contour": [[2, 2], [6, 2], [6, 6], [2, 6]]},
                {"name": "annex", "contour": [[-4, 0], [0, 0], [0, 6], [-4, 6]]},
            ],
            "doors": [
                {"name": "annex_hall", "position": [0, 3], "connects": ["annex", "hall"]},
                {"name": "hall_den", "position": [4, 2], "connects": ["hall", "den"],
                 "passable": False},
            ],
        }))
        world = WorldState(placements={}, robot=Point2(-2, 3), operator=Point2(-3, 3))
        for door_open in (False, True):
            opened = set_door_passable(smap, "hall_den", door_open)
            after, outcome = apply_skill(opened, world, parse_skill("move_to(hall)"))
            assert outcome.ok
            assert after.robot == Point2(1.0, 4.0)  # in the middle of the inner arm
            assert room_of(opened, after.robot) == "hall"

    def test_move_to_shared_name_targets_the_furniture(self, golden_map, golden_world):
        doc = json.loads(save_map(golden_map))
        doc["furniture"].append(
            {"name": "kitchen", "room": "kitchen", "contour": [[4, 4], [5, 4], [5, 5], [4, 5]]}
        )
        smap = load_map(json.dumps(doc))
        after, outcome = apply_skill(smap, golden_world, parse_skill("move_to(kitchen)"))
        assert outcome.ok
        assert after.robot == Point2(4.5, 4.5)

    def test_move_to_operator(self, golden_map, golden_world):
        after, outcome = apply_skill(
            golden_map, golden_world, parse_skill("move_to(operator)")
        )
        assert outcome.ok
        assert after.robot == golden_world.operator

    def test_find_obj_requires_same_room(self, golden_map, golden_world):
        _, outcome = apply_skill(golden_map, golden_world, parse_skill("find_obj(apple)"))
        assert outcome.reason == NOT_VISIBLE

    def test_find_obj_unplaced(self, golden_map, golden_world):
        _, outcome = apply_skill(golden_map, golden_world, parse_skill("find_obj(milk)"))
        assert outcome.reason == NOT_FOUND

    def test_find_obj_in_room(self, golden_map, golden_world):
        world, outcome = apply_skill(
            golden_map, golden_world, parse_skill("move_to(kitchen_table)")
        )
        assert outcome.ok
        world, outcome = apply_skill(golden_map, world, parse_skill("find_obj(apple)"))
        assert outcome.ok
        assert world.found == frozenset({"apple"})
        assert world.placements == {"apple": "kitchen_table"}

    def test_grasp_without_find(self, golden_map, golden_world):
        world = WorldState(
            placements=golden_world.placements,
            robot=Point2(2, 2),
            operator=golden_world.operator,
        )
        _, outcome = apply_skill(golden_map, world, parse_skill("grasp(apple)"))
        assert outcome.reason == NOT_VISIBLE

    def test_grasp_from_wrong_room(self, golden_map, golden_world):
        world = WorldState(
            placements=golden_world.placements,
            robot=Point2(16, 5),
            operator=golden_world.operator,
            found=frozenset({"apple"}),
        )
        _, outcome = apply_skill(golden_map, world, parse_skill("grasp(apple)"))
        assert outcome.reason == NOT_IN_ROOM

    def test_grasp_moves_object_to_gripper(self, golden_map, golden_world):
        world = WorldState(
            placements=golden_world.placements,
            robot=Point2(2, 2),
            operator=golden_world.operator,
            found=frozenset({"apple"}),
        )
        world, outcome = apply_skill(golden_map, world, parse_skill("grasp(apple)"))
        assert outcome.ok
        assert world.held == "apple"
        assert world.placements == {}
        assert world.found == frozenset()

    def test_place_without_held(self, golden_map, golden_world):
        _, outcome = apply_skill(golden_map, golden_world, parse_skill("place(shelf)"))
        assert outcome.reason == NOTHING_HELD

    def test_place_wrong_room(self, golden_map, golden_world):
        world = WorldState(
            placements={},
            robot=Point2(2, 2),
            operator=golden_world.operator,
            held="apple",
        )
        _, outcome = apply_skill(golden_map, world, parse_skill("place(shelf)"))
        assert outcome.reason == NOT_IN_ROOM

    def test_place_in_room(self, golden_map, golden_world):
        world = WorldState(
            placements={},
            robot=Point2(15, 2),
            operator=golden_world.operator,
            held="apple",
        )
        world, outcome = apply_skill(golden_map, world, parse_skill("place(shelf)"))
        assert outcome.ok
        assert world.placements == {"apple": "shelf"}
        assert world.held is None

    def test_handover_without_held(self, golden_map, golden_world):
        _, outcome = apply_skill(golden_map, golden_world, parse_skill("handover"))
        assert outcome.reason == NOTHING_HELD

    def test_handover_too_far(self, golden_map, golden_world):
        world = WorldState(
            placements={},
            robot=Point2(16, 5),
            operator=Point2(9, 3),
            held="apple",
        )
        _, outcome = apply_skill(golden_map, world, parse_skill("handover"))
        assert outcome.reason == TOO_FAR

    def test_handover_within_range(self, golden_map):
        world = WorldState(
            placements={},
            robot=Point2(9.6, 3),
            operator=Point2(9, 3),
            held="apple",
        )
        world, outcome = apply_skill(golden_map, world, parse_skill("handover"))
        assert outcome.ok
        assert world.delivered == ("apple",)
        assert world.held is None

    def test_follow_person_moves_to_operator(self, golden_map, golden_world):
        world, outcome = apply_skill(golden_map, golden_world, parse_skill("follow_person"))
        assert outcome.ok
        assert world.robot == golden_world.operator

    def test_answer_and_done_are_noops(self, golden_map, golden_world):
        for text in ("answer(apple)", "done"):
            world, outcome = apply_skill(golden_map, golden_world, parse_skill(text))
            assert outcome.ok
            assert world == golden_world

    def test_failures_leave_world_untouched(self, golden_map, golden_world):
        for text in ("grasp(apple)", "place(shelf)", "handover", "move_to(garage)"):
            world, outcome = apply_skill(golden_map, golden_world, parse_skill(text))
            assert not outcome.ok
            assert world == golden_world


class TestGoToMatchesPlanPath:
    """move_to and follow_person succeed exactly when nav.plan_path finds a route."""

    def test_seeded_random_maps_with_closed_doors(self):
        rng = random.Random(20261018)
        seen = Counter()
        for _ in range(300):
            doc, doors, cells = random_grid_map(rng)
            smap = load_map(json.dumps(doc))
            for name, _, _, _ in doors:
                if rng.random() < 0.25:
                    smap = set_door_passable(smap, name, False)
            rooms = sorted(cells)
            passable = [d for d in smap.doors if d.passable]
            states = {}
            for d in smap.doors:
                states.setdefault(d.connects, set()).add(d.passable)

            def point(room=None):
                draw = rng.random()
                if room is None and draw < 0.1:
                    return Point2(-1.0, rng.uniform(0.0, CELL_H))  # outside every room
                if room is None and draw < 0.2:
                    return Point2(CELL_W, rng.uniform(0.0, CELL_H))  # on a shared wall
                return Point2(*random_point_in(rng, cells, room or rng.choice(rooms)))

            robot = point()
            here = room_of(smap, robot)
            operator = point(here) if here is not None and rng.random() < 0.3 else point()
            world = WorldState(placements={}, robot=robot, operator=operator)
            room = rng.choice(rooms)
            for text, target in (
                ("follow_person", operator),
                ("move_to(operator)", operator),
                (f"move_to({room})", centroid(smap.index.rooms[room].contour)),
            ):
                try:
                    plan_path(smap, robot, target)
                    expected = True
                except (NoPath, OutsideArena):
                    expected = False
                after, outcome = apply_skill(smap, world, parse_skill(text))
                assert outcome.ok == expected, (text, doc, robot, target)
                if expected:
                    assert after == world._replace(robot=target)
                else:
                    assert outcome.reason == NO_PATH
                    assert after == world

                there = room_of(smap, target)
                seen["ok" if expected else "failed"] += 1
                seen["parallel doors, one closed"] += any(len(v) == 2 for v in states.values())
                seen["same room"] += here is not None and here == there
                seen["outside"] += here is None or there is None
                seen["room without passable door"] += any(
                    r is not None and not any(r in d.connects for d in passable)
                    for r in (here, there)
                )
        for case in ("ok", "failed", "parallel doors, one closed", "same room", "outside",
                     "room without passable door"):
            assert seen[case] >= 20, seen


def test_sim_does_not_load_nav():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, semplan.sim; print('semplan.nav' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


class TestRunPlan:
    def test_empty_plan(self, golden_map, golden_world):
        trace = run_plan(golden_map, golden_world, [])
        assert trace.steps == ()
        assert trace.final == golden_world

    def test_golden_plan_all_ok(self, golden_map, golden_world):
        trace = run_plan(golden_map, golden_world, GOLDEN_PLAN)
        assert trace.all_ok()
        assert [s.to_text() for s, _ in trace.steps] == [s.to_text() for s in GOLDEN_PLAN]
        assert trace.final.delivered == ("apple",)
        assert trace.final.held is None
        assert trace.final.placements == {}

    def test_stops_at_first_failure(self, golden_map, golden_world):
        plan = [parse_skill("grasp(apple)"), parse_skill("move_to(kitchen)")]
        trace = run_plan(golden_map, golden_world, plan)
        assert len(trace.steps) == 1
        assert not trace.steps[0][1].ok
        assert trace.final == golden_world

    def test_stops_at_done(self, golden_map, golden_world):
        plan = [parse_skill("done"), parse_skill("move_to(kitchen)")]
        trace = run_plan(golden_map, golden_world, plan)
        assert len(trace.steps) == 1
        assert trace.final.robot == golden_world.robot

    def test_deterministic(self, golden_map, golden_world):
        first = run_plan(golden_map, golden_world, GOLDEN_PLAN)
        second = run_plan(golden_map, golden_world, GOLDEN_PLAN)
        assert first == second


class TestObjectConservation:
    def test_random_skill_storms_conserve_objects(self, golden_map, golden_world):
        rng = random.Random(17)
        skill_pool = [
            "move_to(kitchen)", "move_to(kitchen_table)", "move_to(shelf)",
            "move_to(bedroom)", "move_to(operator)", "find_obj(apple)",
            "find_obj(milk)", "grasp(apple)", "grasp(milk)", "place(shelf)",
            "place(kitchen_table)", "handover", "follow_person",
            "answer(apple)", "done",
        ]

        def inventory(world):
            held = [world.held] if world.held else []
            return sorted(list(world.placements) + held + list(world.delivered))

        world = golden_world
        expected = inventory(world)
        for _ in range(300):
            skill = parse_skill(rng.choice(skill_pool))
            world, _ = apply_skill(golden_map, world, skill)
            assert inventory(world) == expected


class TestCheckGoal:
    def test_deliver_after_golden_plan(self, golden_map, golden_world):
        trace = run_plan(golden_map, golden_world, GOLDEN_PLAN)
        assert check_goal(trace.final, "deliver(apple)")

    def test_deliver_fresh_world(self, golden_world):
        assert not check_goal(golden_world, "deliver(apple)")

    def test_place_goal(self, golden_map, golden_world):
        plan = [
            parse_skill(t)
            for t in (
                "move_to(kitchen_table)",
                "find_obj(apple)",
                "grasp(apple)",
                "move_to(shelf)",
                "place(shelf)",
                "done",
            )
        ]
        trace = run_plan(golden_map, golden_world, plan)
        assert trace.all_ok()
        assert check_goal(trace.final, "place(apple,shelf)")
        assert check_goal(trace.final, "place(apple, shelf)")
        assert not check_goal(trace.final, "place(apple,kitchen_table)")

    def test_malformed_goals(self, golden_world):
        for bad in ("bring(apple)", "deliver(a,b)", "place(apple)", "deliver", ""):
            with pytest.raises(InvalidGoalSpec):
                check_goal(golden_world, bad)
