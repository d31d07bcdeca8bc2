import json
import random

import pytest

from semplan.errors import NoPath, OutsideArena, UnknownFurniture
from semplan.geometry import Point2, euclidean
from semplan.nav import (
    DOOR,
    GOAL,
    START,
    NavNode,
    Path,
    build_door_graph,
    path_length,
    plan_path,
    replan,
)
from semplan.semantic_map import load_map, room_of, set_door_passable

from mapgen import random_grid_map, random_point_in
from oracles import brute_force_shortest


def assert_path_sound(smap, path: Path) -> None:
    """Structural Path invariants: endpoints, room-sharing, length, passability."""
    assert path.waypoints[0].kind == START
    assert path.waypoints[-1].kind == GOAL
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        assert a.rooms & b.rooms
    closed = {d.name for d in smap.doors if not d.passable}
    assert not (set(path.door_names()) & closed)
    assert path.length == pytest.approx(path_length(path), abs=1e-12)


@pytest.fixture
def two_room(fixtures_dir):
    return load_map((fixtures_dir / "maps" / "two_room.json").read_text())


@pytest.fixture
def golden_map(fixtures_dir):
    return load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())


class TestBuildDoorGraph:
    def test_single_room_two_nodes_one_edge(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "one_room.json").read_text())
        graph = build_door_graph(smap, Point2(1, 1), Point2(3, 3))
        assert set(graph.nodes) == {(START,), (GOAL,)}
        assert graph.neighbours((START,)) == [((GOAL,), euclidean(Point2(1, 1), Point2(3, 3)))]

    def test_two_rooms_one_door(self, two_room):
        graph = build_door_graph(two_room, Point2(0, 0), Point2(9, 3))
        assert set(graph.nodes) == {(START,), (GOAL,), (DOOR, "door_ab")}
        assert [n for n, _ in graph.neighbours((START,))] == [(DOOR, "door_ab")]
        assert [n for n, _ in graph.neighbours((GOAL,))] == [(DOOR, "door_ab")]

    def test_impassable_door_excluded_from_nodes(self, two_room):
        closed = set_door_passable(two_room, "door_ab", False)
        graph = build_door_graph(closed, Point2(0, 0), Point2(9, 3))
        assert set(graph.nodes) == {(START,), (GOAL,)}
        assert graph.neighbours((START,)) == []

    def test_start_outside(self, two_room):
        with pytest.raises(OutsideArena) as err:
            build_door_graph(two_room, Point2(100, 100), Point2(9, 3))
        assert err.value.which == "start"

    def test_goal_outside(self, two_room):
        with pytest.raises(OutsideArena) as err:
            build_door_graph(two_room, Point2(0, 0), Point2(100, 100))
        assert err.value.which == "goal"


def all_pairs_neighbours(nodes):
    """O(D^2) reference edges: every two nodes that share a room, by node id."""
    ids = sorted(nodes)
    expected = {node_id: [] for node_id in ids}
    for i, id_a in enumerate(ids):
        for id_b in ids[i + 1 :]:
            if nodes[id_a].rooms & nodes[id_b].rooms:
                weight = euclidean(nodes[id_a].anchor, nodes[id_b].anchor)
                expected[id_a].append((id_b, weight))
                expected[id_b].append((id_a, weight))
    return expected


class TestPerRoomJoins:
    def test_neighbours_match_all_pairs_reference(self):
        rng = random.Random(2410)
        seen = {"parallel doors": 0, "same room": 0, "endpoint in doorless room": 0}
        for _ in range(80):
            doc, doors, cells = random_grid_map(rng)
            smap = load_map(json.dumps(doc))
            rooms = sorted(cells)
            open_pairs = [pair for _, _, pair, passable in doors if passable]
            seen["parallel doors"] += len(open_pairs) > len(set(open_pairs))
            doorless = {r for r in rooms if not any(r in pair for pair in open_pairs)}
            for _ in range(3):
                start_room = rng.choice(rooms)
                goal_room = start_room if rng.random() < 0.3 else rng.choice(rooms)
                start = Point2(*random_point_in(rng, cells, start_room))
                goal = Point2(*random_point_in(rng, cells, goal_room))
                seen["same room"] += start_room == goal_room
                seen["endpoint in doorless room"] += bool({start_room, goal_room} & doorless)

                nodes = {
                    (START,): NavNode(START, start, frozenset((start_room,))),
                    (GOAL,): NavNode(GOAL, goal, frozenset((goal_room,))),
                }
                for name, position, pair, passable in doors:
                    if passable:
                        nodes[(DOOR, name)] = NavNode(DOOR, Point2(*position), pair, name)
                expected = all_pairs_neighbours(nodes)

                graph = build_door_graph(smap, start, goal)
                assert graph.nodes == nodes
                order = sorted(nodes)
                rng.shuffle(order)
                for node_id in order:
                    assert graph.neighbours(node_id) == expected[node_id]
                    assert graph.neighbours(node_id) is graph.neighbours(node_id)
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

    def test_builds_no_place_mapping(self, golden_map):
        plan_path(golden_map, Point2(1, 5), "shelf")
        assert "places" not in vars(golden_map)

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
        assert path_length(path) == 0.0

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
        from semplan.errors import UnknownDoor

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
                assert abs(path_length(path) - path.length) <= 1e-12
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
