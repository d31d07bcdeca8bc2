import json
import os
import pickle
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semplan import semantic_map, sim
from semplan.errors import (
    InvalidGoalSpec,
    NoPath,
    OutsideArena,
    ParseError,
    UnknownSkill,
    ValidationError,
)
from semplan.geometry import Point2, centroid, euclidean
from semplan.nav import plan_path
from semplan.semantic_map import (
    OPERATOR,
    anchor,
    load_map,
    make_map,
    room_of,
    save_map,
    set_door_passable,
)
from semplan.sim import (
    GRIPPER_OCCUPIED,
    HANDOVER_RANGE,
    NO_PATH,
    NOT_FOUND,
    NOT_IN_ROOM,
    NOT_VISIBLE,
    NOTHING_HELD,
    TOO_FAR,
    UNKNOWN_LOCATION,
    ExecTrace,
    SkillOutcome,
    WorldState,
    apply_skill,
    check_goal,
    load_world,
    run_plan,
)
from semplan.skills import SkillInstance, parse_skill

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

    def test_a_skill_built_around_its_check_is_unknown(self, golden_map, golden_world):
        # SkillInstance refuses this name, so only a forged instance gets here.
        forged = tuple.__new__(SkillInstance, ("fly", ()))
        with pytest.raises(UnknownSkill, match="^simulator has no semantics for fly$"):
            apply_skill(golden_map, golden_world, forged)

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


def reference_apply_skill(smap, world, skill):
    """The simulator's transition without carried state: it locates the robot
    and computes each anchor on every call, and never reads SemanticMap.located."""
    failed = SkillOutcome.failed
    here = room_of(smap, world.robot)
    name = skill.name
    if name in ("move_to", "follow_person"):
        if name == "follow_person" or skill.args[0] == OPERATOR:
            target = world.operator
        elif skill.args[0] in smap.places:
            target = anchor(smap.places[skill.args[0]])
        else:
            return world, failed(UNKNOWN_LOCATION)
        there = room_of(smap, target)
        if here is None or there is None or smap.components[here] != smap.components[there]:
            return world, failed(NO_PATH)
        return world._replace(robot=target), SkillOutcome(ok=True)
    if name == "find_obj":
        furniture = world.placements.get(skill.args[0])
        if furniture is None:
            return world, failed(NOT_FOUND)
        if smap.find_furniture(furniture).room != here:
            return world, failed(NOT_VISIBLE)
        return world._replace(found=world.found | {skill.args[0]}), SkillOutcome(ok=True)
    if name == "grasp":
        obj = skill.args[0]
        if world.held is not None:
            return world, failed(GRIPPER_OCCUPIED)
        if obj not in world.found:
            return world, failed(NOT_VISIBLE)
        if obj not in world.placements:
            return world, failed(NOT_FOUND)
        if smap.find_furniture(world.placements[obj]).room != here:
            return world, failed(NOT_IN_ROOM)
        placements = {k: v for k, v in world.placements.items() if k != obj}
        return world._replace(placements=placements, held=obj, found=world.found - {obj}), \
            SkillOutcome(ok=True)
    if name == "place":
        if world.held is None:
            return world, failed(NOTHING_HELD)
        if skill.args[0] not in smap.index.furniture:
            return world, failed(UNKNOWN_LOCATION)
        if smap.find_furniture(skill.args[0]).room != here:
            return world, failed(NOT_IN_ROOM)
        placements = dict(sorted({**world.placements, world.held: skill.args[0]}.items()))
        return world._replace(placements=placements, held=None), SkillOutcome(ok=True)
    if name == "handover":
        if world.held is None:
            return world, failed(NOTHING_HELD)
        if euclidean(world.robot, world.operator) > HANDOVER_RANGE:
            return world, failed(TOO_FAR)
        return world._replace(held=None, delivered=world.delivered + (world.held,)), \
            SkillOutcome(ok=True)
    return world, SkillOutcome(ok=True)  # answer, done


def fold(step, smap, world, plan) -> ExecTrace:
    steps = []
    for skill in plan:
        world, outcome = step(smap, world, skill)
        steps.append((skill, outcome))
        if not outcome.ok or skill.name == "done":
            break
    return ExecTrace(steps=tuple(steps), final=world)


def square(x0, y0, x1, y1):
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


# a_hall and b_den overlap on x in [5, 10]: desk belongs to b_den, but its
# anchor (7, 5) lies in both, so room_of gives a_hall. c_attic has no door.
OVERLAP_DOC = {
    "rooms": [
        {"name": "a_hall", "contour": square(0, 0, 10, 10)},
        {"name": "b_den", "contour": square(5, 0, 15, 10)},
        {"name": "c_attic", "contour": square(20, 0, 25, 10)},
    ],
    "furniture": [
        {"name": "desk", "room": "b_den", "contour": square(6, 4, 8, 6)},
        {"name": "lamp", "room": "b_den", "contour": square(12, 4, 14, 6)},
        {"name": "chest", "room": "c_attic", "contour": square(21, 1, 23, 3)},
    ],
    "doors": [{"name": "arch", "position": [10, 5], "connects": ["a_hall", "b_den"]}],
}
OBJECTS = ("apple", "cup", "milk")
GOLDEN_MAP_TEXT = (Path(__file__).parent / "fixtures" / "maps" / "golden_arena.json").read_text()


def grid_doc_with_furniture(seed: int) -> dict:
    """A mapgen grid map with a table inside about half of its rooms."""
    rng = random.Random(seed)
    doc, _, cells = random_grid_map(rng)
    for room, (i, j) in sorted(cells.items()):
        if rng.random() < 0.5:
            x0, y0 = i * CELL_W + 1.0, j * CELL_H + 1.0
            doc["furniture"].append(
                {"name": f"table_{i}{j}", "room": room, "contour": square(x0, y0, x0 + 2, y0 + 2)}
            )
    return doc


@st.composite
def replays(draw):
    """A map (golden, overlapping rooms or a seeded grid), a world on it and a
    plan, mostly of fetch, place and handover runs that can succeed.

    Objects lie only on furniture the map has, as load_world requires; the
    map's lack of garage makes move_to(garage) and place(garage) fail."""
    doc = draw(st.one_of(
        st.just(None), st.just(OVERLAP_DOC), st.integers(0, 10_000).map(grid_doc_with_furniture),
    ))
    smap = load_map(GOLDEN_MAP_TEXT if doc is None else json.dumps(doc))
    furniture = sorted(smap.index.furniture)
    targets = furniture or ["garage"]
    anchors = [anchor(place) for place in smap.places.values()]
    xs, ys = zip(*((v.x, v.y) for r in smap.rooms for v in r.contour.vertices))

    def point():
        kind = draw(st.sampled_from(("anchor", "anchor", "anchor", "anywhere", "outside")))
        if kind == "anchor":
            return draw(st.sampled_from(anchors))
        if kind == "anywhere":
            return Point2(draw(st.floats(min(xs) - 1, max(xs) + 1)),
                          draw(st.floats(min(ys) - 1, max(ys) + 1)))
        return Point2(-5.0, -5.0)  # outside every room

    robot = point()
    operator = point() if draw(st.booleans()) else Point2(robot.x + 0.5, robot.y)
    placed = draw(st.lists(st.sampled_from(OBJECTS), unique=True)) if furniture else []
    placements = {obj: draw(st.sampled_from(furniture)) for obj in sorted(placed)}
    held = draw(st.one_of(st.none(), st.sampled_from(OBJECTS)))
    if held in placements:
        held = None
    found = frozenset(draw(st.lists(st.sampled_from(OBJECTS), unique=True)))
    world = WorldState(placements, robot, operator, held, found)

    single = st.sampled_from(
        [f"move_to({p})" for p in (*smap.places, OPERATOR, "garage")]
        + [f"{verb}({o})" for verb in ("find_obj", "grasp", "answer") for o in (*OBJECTS, "ghost")]
        + [f"place({f})" for f in (*furniture, smap.rooms[0].name, "garage")]
        + ["handover", "follow_person", "done"]
    )
    texts = []
    for kind in draw(st.lists(st.integers(0, 3), min_size=1, max_size=5)):
        if kind == 0:
            texts.append(draw(single))
        elif kind == 1:
            obj = draw(st.sampled_from(OBJECTS))
            where = placements.get(obj) or draw(st.sampled_from(targets))
            texts += [f"move_to({where})", f"find_obj({obj})", f"grasp({obj})"]
        elif kind == 2:
            where = draw(st.sampled_from(targets))
            texts += [f"move_to({where})", f"place({where})"]
        else:
            texts += [draw(st.sampled_from(["move_to(operator)", "follow_person"])), "handover"]
    return smap, world, [parse_skill(t) for t in texts]


# A 2x2 grid with no furniture: a world on it places no object.
BARE_GRID = load_map(json.dumps({
    "rooms": [{"name": f"room_{i}{j}", "contour": square(6 * i, 5 * j, 6 * i + 6, 5 * j + 5)}
              for i in range(2) for j in range(2)],
    "doors": [{"name": "door_0", "position": [6, 2.5], "connects": ["room_00", "room_10"]}],
}))
BARE_WORLD = WorldState({}, Point2(3.0, 2.5), Point2(9.0, 2.5), found=frozenset({"cup"}))


class TestRunPlanIsTheFold:
    """run_plan carries the robot's room through the plan and locates each
    place once per map; neither changes a step, an outcome or the final world."""

    @settings(max_examples=400, deadline=None)
    @given(replays())
    @example((BARE_GRID, BARE_WORLD, [parse_skill("find_obj(cup)")]))
    @example((BARE_GRID, BARE_WORLD, [parse_skill("grasp(cup)")]))
    @example((BARE_GRID, BARE_WORLD, [parse_skill("move_to(garage)")]))
    @example((BARE_GRID, BARE_WORLD._replace(held="cup"), [parse_skill("place(garage)")]))
    def test_equals_the_fold_of_apply_skill(self, case):
        smap, world, plan = case
        trace = run_plan(smap, world, plan)
        assert trace == fold(apply_skill, smap, world, plan)
        assert trace == fold(reference_apply_skill, load_map(save_map(smap)), world, plan)
        for name, located in smap.located.items():
            point = anchor(smap.places[name])
            assert located == (point, room_of(smap, point))

    def test_robot_outside_every_room(self, golden_map):
        world = WorldState(placements={"apple": "kitchen_table"}, robot=Point2(-5.0, -5.0),
                           operator=Point2(9.0, 3.0), found=frozenset({"apple"}))
        for text, reason in (
            ("find_obj(apple)", NOT_VISIBLE),
            ("grasp(apple)", NOT_IN_ROOM),
            ("move_to(kitchen)", NO_PATH),
            ("move_to(operator)", NO_PATH),
            ("follow_person", NO_PATH),
        ):
            plan = [parse_skill(text), parse_skill("done")]
            trace = run_plan(golden_map, world, plan)
            assert trace == fold(apply_skill, golden_map, world, plan)
            assert trace.steps[0][1].reason == reason
            assert trace.final == world
        holding = world._replace(placements={}, held="apple")
        trace = run_plan(golden_map, holding, [parse_skill("place(shelf)")])
        assert trace.steps[0][1].reason == NOT_IN_ROOM

    def test_overlapping_rooms_use_the_anchors_room(self):
        smap = load_map(json.dumps(OVERLAP_DOC))
        world = WorldState(placements={"apple": "desk", "cup": "lamp"},
                           robot=Point2(2.0, 2.0), operator=Point2(2.0, 2.5))
        plan = [parse_skill(t) for t in ("move_to(lamp)", "find_obj(cup)", "move_to(desk)",
                                         "find_obj(apple)", "done")]
        trace = run_plan(smap, world, plan)
        assert trace == fold(reference_apply_skill, smap, world, plan)
        assert [outcome.reason for _, outcome in trace.steps] == [None, None, None, NOT_VISIBLE]
        assert smap.index.furniture["desk"].room == "b_den"
        assert smap.located["desk"][1] == "a_hall"
        assert trace.final.robot == smap.located["desk"][0]


def bring_apple(fixtures_dir):
    scenario = fixtures_dir / "scenarios" / "bring_apple"
    smap = load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())
    world = load_world(smap, (scenario / "world.json").read_text())
    manifest = json.loads((fixtures_dir / "scenarios" / "manifest.json").read_text())
    steps = next(s["expected_steps"] for s in manifest if s["name"] == "bring_apple")
    return smap, world, [parse_skill(t) for t in steps]


class TestPlaceMemo:
    def test_holds_exactly_the_places_moved_to(self, fixtures_dir):
        smap, world, plan = bring_apple(fixtures_dir)
        assert run_plan(smap, world, plan).all_ok()
        point = anchor(smap.index.furniture["kitchen_table"])
        assert smap.located == {"kitchen_table": (point, "kitchen")}

    def test_room_of_calls_at_most_one_plus_moves(self, fixtures_dir, monkeypatch):
        smap, world, plan = bring_apple(fixtures_dir)
        calls = []

        def counted(smap, p):
            calls.append(p)
            return room_of(smap, p)

        monkeypatch.setattr(semantic_map, "room_of", counted)
        monkeypatch.setattr(sim, "room_of", counted)
        moves = sum(skill.name in ("move_to", "follow_person") for skill in plan)
        for _ in range(2):
            calls.clear()
            assert run_plan(smap, world, plan).all_ok()
            assert len(calls) <= 1 + moves, calls

    def test_room_of_calls_by_point_on_bring_apple(self, fixtures_dir, monkeypatch):
        # One call for the robot at the start and one for the operator at
        # move_to(operator): a plan that locates the operator once gains
        # nothing from carrying the operator's room through run_plan.
        smap, world, plan = bring_apple(fixtures_dir)
        calls = Counter()

        def counted(smap, p):
            calls[p] += 1
            return room_of(smap, p)

        monkeypatch.setattr(sim, "room_of", counted)
        assert world.robot != world.operator
        assert run_plan(smap, world, plan).all_ok()
        assert calls == {world.robot: 1, world.operator: 1}

    def test_load_and_copies_leave_it_unbuilt(self, fixtures_dir):
        smap, world, plan = bring_apple(fixtures_dir)
        assert "located" not in vars(smap)
        assert "located" not in vars(make_map(smap.rooms, smap.furniture, smap.doors))
        run_plan(smap, world, plan)
        assert smap.located
        for copy in (set_door_passable(smap, "kitchen_living", False), smap._replace()):
            assert "located" not in vars(copy)
            assert copy.located == {}

    def test_map_value_is_unchanged(self, fixtures_dir):
        fresh, _, _ = bring_apple(fixtures_dir)
        used, world, plan = bring_apple(fixtures_dir)
        run_plan(used, world, plan)
        assert used.located and used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert save_map(used) == save_map(fresh)
        copy = pickle.loads(pickle.dumps(used))
        assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
        # A copy starts with no caches; locate rebuilds equal values.
        assert vars(copy) == {}
        for name, located in used.located.items():
            assert copy.locate(name) == located

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_equal_maps_pickle_to_equal_bytes(self, fixtures_dir, protocol):
        fresh, _, _ = bring_apple(fixtures_dir)
        used, world, plan = bring_apple(fixtures_dir)
        run_plan(used, world, plan)
        plan_path(used, world.operator, "kitchen_table")
        assert {"located", "components", "passable_doors", "room_boxes"} <= set(vars(used))
        data = pickle.dumps(fresh, protocol)
        assert pickle.dumps(used, protocol) == data
        assert pickle.dumps(pickle.loads(pickle.dumps(used, protocol)), protocol) == data
