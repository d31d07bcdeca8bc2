import json
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semplan import nav, semantic_map
from semplan.errors import NoPath, OutsideArena, UnknownDoor, UnknownFurniture
from semplan.geometry import Point2, euclidean
from semplan.nav import DOOR, GOAL, START, Path, plan_path, replan
from semplan.semantic_map import load_map, room_of, save_map, set_door_passable

from mapgen import random_grid_map, random_point_in
from oracles import all_pairs_dijkstra, brute_force_shortest, path_length


def points(path: Path) -> list:
    return [(w.anchor.x, w.anchor.y) for w in path.waypoints]


def assert_path_sound(smap, path: Path) -> None:
    """Structural Path invariants: endpoints, room-sharing, length, passability."""
    assert path.waypoints[0].kind == START
    assert path.waypoints[-1].kind == GOAL
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        assert a.rooms & b.rooms
    closed = {d.name for d in smap.doors if not d.passable}
    assert not (set(path.door_names()) & closed)
    assert path.length == pytest.approx(path_length(points(path)), abs=1e-12)


@pytest.fixture
def two_room(fixtures_dir):
    return load_map((fixtures_dir / "maps" / "two_room.json").read_text())


@pytest.fixture
def golden_map(fixtures_dir):
    return load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())


class TestBuildDoorGraph:
    """The door graph plan_path searches: start, goal and the passable doors of the map's index."""

    def test_single_room_two_nodes_one_edge(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "one_room.json").read_text())
        path = plan_path(smap, Point2(1, 1), Point2(3, 3))
        assert smap.passable_doors == {"studio": []}
        assert [w.kind for w in path.waypoints] == [START, GOAL]
        assert path.length == euclidean(Point2(1, 1), Point2(3, 3))

    def test_two_rooms_one_door(self, two_room):
        path = plan_path(two_room, Point2(0, 0), Point2(9, 3))
        assert two_room.passable_doors == {"room_a": ["door_ab"], "room_b": ["door_ab"]}
        assert [w.kind for w in path.waypoints] == [START, DOOR, GOAL]
        assert path.door_names() == ("door_ab",)
        assert [w.rooms for w in path.waypoints] == [
            frozenset({"room_a"}), frozenset({"room_a", "room_b"}), frozenset({"room_b"})
        ]

    def test_impassable_door_excluded_from_nodes(self, two_room):
        closed = set_door_passable(two_room, "door_ab", False)
        assert closed.passable_doors == {"room_a": [], "room_b": []}
        with pytest.raises(NoPath):
            plan_path(closed, Point2(0, 0), Point2(9, 3))
        with pytest.raises(NoPath):
            plan_path(two_room, Point2(0, 0), Point2(9, 3), ["door_ab"])
        with pytest.raises(NoPath):
            replan(two_room, Point2(0, 0), Point2(9, 3), "door_ab")

    def test_start_outside(self, two_room):
        for call in (
            lambda: plan_path(two_room, Point2(100, 100), Point2(9, 3)),
            lambda: replan(two_room, Point2(100, 100), Point2(9, 3), "door_ab"),
        ):
            with pytest.raises(OutsideArena) as err:
                call()
            assert err.value.which == "start"

    def test_goal_outside(self, two_room):
        for call in (
            lambda: plan_path(two_room, Point2(0, 0), Point2(100, 100)),
            lambda: replan(two_room, Point2(0, 0), Point2(100, 100), "door_ab"),
        ):
            with pytest.raises(OutsideArena) as err:
                call()
            assert err.value.which == "goal"


class TestPerRoomJoins:
    def test_neighbours_match_all_pairs_reference(self):
        """Routes, waypoints and bitwise lengths agree with Dijkstra on the all-pairs graph."""
        rng = random.Random(2410)
        seen = {"parallel doors": 0, "same room": 0, "endpoint in doorless room": 0,
                "route": 0, "no path": 0}
        for _ in range(80):
            doc, doors, cells = random_grid_map(rng)
            smap = load_map(json.dumps(doc))
            rooms = sorted(cells)
            open_pairs = [pair for _, _, pair, passable in doors if passable]
            seen["parallel doors"] += len(open_pairs) > len(set(open_pairs))
            doorless = {r for r in rooms if not any(r in pair for pair in open_pairs)}
            assert smap.passable_doors == {
                room: sorted(name for name, _, pair, passable in doors if passable and room in pair)
                for room in rooms
            }
            for _ in range(3):
                start_room = rng.choice(rooms)
                goal_room = start_room if rng.random() < 0.3 else rng.choice(rooms)
                start = random_point_in(rng, cells, start_room)
                goal = random_point_in(rng, cells, goal_room)
                seen["same room"] += start_room == goal_room
                seen["endpoint in doorless room"] += bool({start_room, goal_room} & doorless)
                closed = rng.choice([None] + [d[0] for d in doors])
                kept = [d if d[0] != closed else (*d[:3], False) for d in doors]
                expected = all_pairs_dijkstra(start, start_room, goal, goal_room, kept)
                try:
                    if closed is None:
                        path = plan_path(smap, Point2(*start), Point2(*goal))
                    else:
                        path = replan(smap, Point2(*start), Point2(*goal), closed)
                except NoPath:
                    assert expected is None
                    seen["no path"] += 1
                    continue
                assert expected is not None
                length, names, waypoints = expected
                assert list(path.door_names()) == names
                assert points(path) == waypoints
                assert path.length == length
                assert_path_sound(smap, path)
                assert closed not in path.door_names()
                seen["route"] += 1
        assert all(seen.values()), seen


class TestPlanPath:
    def test_same_room_direct(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "one_room.json").read_text())
        path = plan_path(smap, Point2(0, 0), Point2(3, 4))
        assert path.length == 5.0
        assert len(path.waypoints) == 2
        assert_path_sound(smap, path)

    def test_two_room_segment_sum(self, two_room):
        path = plan_path(two_room, Point2(0, 0), Point2(9, 3))
        assert path.length == 10.0
        assert path.door_names() == ("door_ab",)
        assert_path_sound(two_room, path)

    def test_furniture_goal(self, golden_map):
        start = Point2(1, 5)
        path = plan_path(golden_map, start, "shelf")
        assert path.door_names() == ("kitchen_living", "living_bedroom")
        expected = (
            euclidean(start, Point2(6, 3))
            + euclidean(Point2(6, 3), Point2(12, 3))
            + euclidean(Point2(12, 3), Point2(15, 2))
        )
        assert path.length == pytest.approx(expected, abs=1e-12)
        assert path.waypoints[-1].anchor == Point2(15, 2)
        assert_path_sound(golden_map, path)

    def test_furniture_goal_located_once_per_map(self, golden_map, monkeypatch):
        first = plan_path(golden_map, Point2(1, 5), "shelf")
        anchors, rooms = [], []
        anchor = semantic_map.anchor

        def counted_anchor(place):
            anchors.append(place.name)
            return anchor(place)

        def counted_room_of(smap, p):
            rooms.append(p)
            return room_of(smap, p)

        monkeypatch.setattr(semantic_map, "anchor", counted_anchor)
        monkeypatch.setattr(semantic_map, "room_of", counted_room_of)
        monkeypatch.setattr(nav, "room_of", counted_room_of)
        assert plan_path(golden_map, Point2(1, 5), "shelf") == first
        assert anchors == [] and rooms == [Point2(1, 5)]

    def test_point_goal_matches_furniture_goal(self, golden_map):
        by_name = plan_path(golden_map, Point2(1, 5), "shelf")
        by_point = plan_path(golden_map, Point2(1, 5), Point2(15, 2))
        assert by_name == by_point

    def test_unknown_furniture(self, golden_map):
        with pytest.raises(UnknownFurniture):
            plan_path(golden_map, Point2(1, 5), "bathtub")

    def test_zero_motion(self, two_room):
        path = plan_path(two_room, Point2(1, 1), Point2(1, 1))
        assert path.length == 0.0
        assert path_length(points(path)) == 0.0

    def test_no_path_when_only_door_closed(self, two_room):
        closed = set_door_passable(two_room, "door_ab", False)
        with pytest.raises(NoPath):
            plan_path(closed, Point2(0, 0), Point2(9, 3))

    def test_symmetric_tie_breaks_to_lexicographic_door(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "symmetric_doors.json").read_text())
        path = plan_path(smap, Point2(1, 0), Point2(7, 0))
        assert path.door_names() == ("door_a",)

    def test_deterministic_waypoints(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "symmetric_doors.json").read_text())
        first = plan_path(smap, Point2(1, 0), Point2(7, 0))
        second = plan_path(smap, Point2(1, 0), Point2(7, 0))
        assert first == second

    def test_direct_route_beats_door_detour_in_same_room(self, golden_map):
        path = plan_path(golden_map, Point2(1, 5), "kitchen_table")
        assert path.door_names() == ()
        assert path.length == euclidean(Point2(1, 5), Point2(2, 2))


class TestReplan:
    def test_single_door_disconnects(self, two_room):
        with pytest.raises(NoPath):
            replan(two_room, Point2(0, 0), Point2(9, 3), "door_ab")

    def test_reroutes_through_parallel_door(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "parallel_doors.json").read_text())
        direct = plan_path(smap, Point2(1, 0), Point2(7, 0))
        assert direct.door_names() == ("door_mid",)
        rerouted = replan(smap, Point2(1, 0), Point2(7, 0), "door_mid")
        assert rerouted.door_names() == ("door_up",)
        assert rerouted.length > direct.length
        expected = euclidean(Point2(1, 0), Point2(4, 2.5)) + euclidean(
            Point2(4, 2.5), Point2(7, 0)
        )
        assert rerouted.length == pytest.approx(expected, abs=1e-12)

    def test_closing_unused_door_keeps_path(self, golden_map):
        baseline = plan_path(golden_map, Point2(1, 5), "kitchen_table")
        after = replan(golden_map, Point2(1, 5), "kitchen_table", "living_bedroom")
        assert after == baseline

    def test_unknown_door(self, two_room):
        with pytest.raises(UnknownDoor):
            replan(two_room, Point2(0, 0), Point2(9, 3), "hatch")

    def test_original_map_unchanged(self, two_room):
        with pytest.raises(NoPath):
            replan(two_room, Point2(0, 0), Point2(9, 3), "door_ab")
        assert two_room.find_door("door_ab").passable


class TestPathLength:
    def test_matches_stored_length_on_random_paths(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(20):
            doc, _, cells = random_grid_map(rng)
            smap = load_map(json.dumps(doc))
            rooms = sorted(cells)
            for _ in range(3):
                start = Point2(*random_point_in(rng, cells, rng.choice(rooms)))
                goal = Point2(*random_point_in(rng, cells, rng.choice(rooms)))
                try:
                    path = plan_path(smap, start, goal)
                except NoPath:
                    continue
                assert abs(path_length(points(path)) - path.length) <= 1e-12
                checked += 1
        assert checked > 20


class TestOracleAgreement:
    def test_matches_brute_force_on_random_maps(self):
        rng = random.Random(404)
        compared = 0
        for _ in range(60):
            doc, doors, cells = random_grid_map(rng)
            smap = load_map(json.dumps(doc))
            rooms = sorted(cells)
            for _ in range(3):
                start_room = rng.choice(rooms)
                goal_room = rng.choice(rooms)
                start = random_point_in(rng, cells, start_room)
                goal = random_point_in(rng, cells, goal_room)
                assert room_of(smap, Point2(*start)) == start_room
                assert room_of(smap, Point2(*goal)) == goal_room
                expected = brute_force_shortest(start, start_room, goal, goal_room, doors)
                try:
                    path = plan_path(smap, Point2(*start), Point2(*goal))
                except NoPath:
                    assert expected is None
                    continue
                assert expected is not None
                assert_path_sound(smap, path)
                assert abs(path.length - expected[0]) <= 1e-9
                assert list(path.door_names()) == expected[1]
                compared += 1
        assert compared >= 100

    def test_monotone_under_door_closure(self):
        rng = random.Random(77)
        for _ in range(15):
            doc, doors, cells = random_grid_map(rng)
            smap = load_map(json.dumps(doc))
            rooms = sorted(cells)
            start = Point2(*random_point_in(rng, cells, rng.choice(rooms)))
            goal = Point2(*random_point_in(rng, cells, rng.choice(rooms)))
            try:
                baseline = plan_path(smap, start, goal)
            except NoPath:
                continue
            for door in smap.doors:
                try:
                    closed = replan(smap, start, goal, door.name)
                except NoPath:
                    continue
                assert closed.length >= baseline.length - 1e-12
                reopened = plan_path(
                    set_door_passable(smap, door.name, True), start, goal
                )
                assert reopened.length <= closed.length + 1e-12


# One golden map serves every example, so its door index is reused across them.
GOLDEN = load_map(
    (pathlib.Path(__file__).parent / "fixtures" / "maps" / "golden_arena.json").read_text()
)


def outcome(call):
    """A comparable record of a nav call: the route with its bitwise length, or the error."""
    try:
        path = call()
    except (NoPath, OutsideArena, UnknownDoor, UnknownFurniture) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "which", None)
    return "ok", path.waypoints, path.length.hex()


def with_doors_closed(smap, closed):
    for name in closed:
        smap = set_door_passable(smap, name, False)
    return smap


@st.composite
def nav_cases(draw):
    """(map, start, goal, door names): a mapgen grid map or the golden map.

    About one point in twelve lies outside every room, one goal in five
    names furniture (on a grid map, unknown furniture) and one door name in
    ten names no door, so every error shows up next to plenty of routes.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        smap = GOLDEN
        goals = ["shelf", "kitchen_table", "bathtub"]

        def inside():
            return Point2(rng.uniform(0.0, 18.0), rng.uniform(0.0, 6.0))
    else:
        doc, _, cells = random_grid_map(rng, max_doors=rng.choice([3, 6, 10]))
        smap = load_map(json.dumps(doc))
        rooms = sorted(cells)
        goals = ["bathtub"]

        def inside():
            return Point2(*random_point_in(rng, cells, rng.choice(rooms)))

    def point():
        return Point2(-50.0, rng.uniform(-50.0, 50.0)) if rng.random() < 0.08 else inside()

    start = point()
    goal = rng.choice(goals) if rng.random() < 0.2 else point()
    names = [d.name for d in smap.doors]
    closed = [
        "hatch" if not names or rng.random() < 0.1 else rng.choice(names)
        for _ in range(rng.randint(1, 3))
    ]
    return smap, start, goal, closed


class TestReplanEquivalence:
    """replan and plan_path(closed=...) search the same map; the reference closes copies."""

    @settings(max_examples=300, deadline=None)
    @given(nav_cases())
    def test_replan_matches_plan_on_a_closed_copy(self, case):
        smap, start, goal, closed = case
        door = closed[0]
        expected = outcome(lambda: plan_path(with_doors_closed(smap, [door]), start, goal))
        assert outcome(lambda: replan(smap, start, goal, door)) == expected

    @settings(max_examples=300, deadline=None)
    @given(nav_cases())
    def test_closed_doors_match_plan_on_a_closed_copy(self, case):
        smap, start, goal, closed = case
        expected = outcome(lambda: plan_path(with_doors_closed(smap, closed), start, goal))
        assert outcome(lambda: plan_path(smap, start, goal, closed)) == expected

    def test_error_order(self, two_room):
        """UnknownDoor, then UnknownFurniture, then OutsideArena for the start, then the goal."""
        outside = Point2(100, 100)
        cases = [  # (door, start, goal, error, which)
            ("hatch", outside, "bathtub", "UnknownDoor", None),
            ("door_ab", outside, "bathtub", "UnknownFurniture", None),
            ("door_ab", outside, outside, "OutsideArena", "start"),
            ("door_ab", Point2(0, 0), outside, "OutsideArena", "goal"),
        ]
        for door, start, goal, error, which in cases:
            got = outcome(lambda: replan(two_room, start, goal, door))
            assert (got[0], got[2]) == (error, which)
            expected = outcome(
                lambda: plan_path(with_doors_closed(two_room, [door]), start, goal)
            )
            assert got == expected

    def test_equal_length_routes_tie_break_on_the_door_sequence(self):
        # Four 4x4 rooms. Both routes from sw to ne are 2 + 2*sqrt(2) + 2, summed in
        # the same order, so the lengths are bitwise equal: ("d1", "z") sorts
        # before ("d2", "a") although "a" < "z".
        def square(x, y):
            return [[x, y], [x + 4, y], [x + 4, y + 4], [x, y + 4]]

        doc = {
            "rooms": [
                {"name": "sw", "contour": square(0, 0)},
                {"name": "se", "contour": square(4, 0)},
                {"name": "nw", "contour": square(0, 4)},
                {"name": "ne", "contour": square(4, 4)},
            ],
            "doors": [
                {"name": "d1", "position": [4, 2], "connects": ["sw", "se"]},
                {"name": "z", "position": [6, 4], "connects": ["se", "ne"]},
                {"name": "d2", "position": [2, 4], "connects": ["sw", "nw"]},
                {"name": "a", "position": [4, 6], "connects": ["nw", "ne"]},
            ],
        }
        smap = load_map(json.dumps(doc))
        start, goal = Point2(2, 2), Point2(6, 6)
        path = plan_path(smap, start, goal)
        assert path.door_names() == ("d1", "z")
        for door, doors in (("d1", ("d2", "a")), ("z", ("d2", "a")), ("a", ("d1", "z"))):
            detour = replan(smap, start, goal, door)
            assert detour.door_names() == doors
            assert detour.length == path.length
            assert detour == plan_path(with_doors_closed(smap, [door]), start, goal)


class TestDoorIndex:
    def test_built_on_first_query_not_at_load(self, golden_map):
        assert "passable_doors" not in vars(golden_map)
        plan_path(golden_map, Point2(1, 5), "shelf")
        assert "passable_doors" in vars(golden_map)

    def test_replan_searches_the_same_map(self, golden_map):
        index = golden_map.passable_doors
        replan(golden_map, Point2(1, 5), "kitchen_table", "living_bedroom")
        assert golden_map.passable_doors is index
        assert golden_map.find_door("kitchen_living").passable

    def test_a_copy_never_shares_the_index(self, fixtures_dir):
        text = (fixtures_dir / "maps" / "parallel_doors.json").read_text()
        start, goal = Point2(1, 0), Point2(7, 0)
        original = load_map(text)
        first = plan_path(original, start, goal)
        closed = set_door_passable(original, "door_mid", False)
        assert "passable_doors" not in vars(closed)
        on_copy = plan_path(closed, start, goal)
        again = plan_path(original, start, goal)
        assert closed.passable_doors is not original.passable_doors
        assert first == again == plan_path(load_map(text), start, goal)
        assert on_copy == plan_path(load_map(save_map(closed)), start, goal)
        assert first.door_names() == ("door_mid",)
        assert on_copy.door_names() == ("door_up",)
        reopened = set_door_passable(closed, "door_mid", True)
        assert plan_path(reopened, start, goal) == first
