import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semplan.errors import (
    DegeneratePolygon,
    InvalidPolygon,
    ParseError,
    UnknownDoor,
    UnknownFurniture,
    ValidationError,
)
from semplan.geometry import (
    BOUNDARY_EPS,
    Containment,
    Point2,
    centroid,
    point_in_polygon,
    validate_polygon,
)
from semplan.nav import plan_path
from semplan.semantic_map import (
    Door,
    Furniture,
    Room,
    SemanticLocation,
    anchor,
    load_map,
    make_map,
    map_warnings,
    room_of,
    save_map,
    semantic_location,
    set_door_passable,
)

from mapgen import CELL_H, CELL_W, random_grid_map


@pytest.fixture
def golden_map(fixtures_dir):
    return load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())


class TestLoadMap:
    def test_minimal_one_room(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "one_room.json").read_text())
        assert len(smap.rooms) == 1
        assert smap.rooms[0].name == "studio"
        assert smap.doors == ()
        assert smap.furniture == ()

    def test_dangling_furniture_room(self, fixtures_dir):
        with pytest.raises(ValidationError) as err:
            load_map((fixtures_dir / "maps" / "bad_dangling_room.json").read_text())
        assert err.value.entity == "kitchen_table"
        assert err.value.reason == "unknown room"

    def test_self_intersecting_contour(self, fixtures_dir):
        with pytest.raises(ValidationError) as err:
            load_map((fixtures_dir / "maps" / "bad_self_intersecting.json").read_text())
        assert err.value.entity == "twisted"
        assert "SelfIntersecting" in err.value.reason

    def test_names_are_interned_and_shared(self, fixtures_dir):
        text = (fixtures_dir / "maps" / "golden_arena.json").read_text()
        smap, again = load_map(text), load_map(text)
        rooms = smap.index.rooms
        for d in smap.doors:
            for name in d.connects:
                assert name is rooms[name].name
        for f in smap.furniture:
            assert f.room is rooms[f.room].name
        for group, other in zip(smap[:3], again[:3]):
            for entity, twin in zip(group, other):
                assert entity.name is twin.name

    def test_not_json(self):
        with pytest.raises(ParseError):
            load_map("not json at all {")

    def test_wrong_top_level(self):
        with pytest.raises(ParseError):
            load_map('["rooms"]')

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            load_map('{"rooms": [{"name": "a", "contour": [[0,0],[1,0],[1,1]], "color": "red"}]}')

    def test_no_rooms(self):
        with pytest.raises(ValidationError) as err:
            load_map('{"rooms": []}')
        assert err.value.entity == "map"

    def test_duplicate_room_name(self):
        doc = (
            '{"rooms": [{"name": "a", "contour": [[0,0],[1,0],[1,1]]},'
            ' {"name": "a", "contour": [[2,0],[3,0],[3,1]]}]}'
        )
        with pytest.raises(ValidationError) as err:
            load_map(doc)
        assert err.value.entity == "a"

    def test_door_unknown_room(self):
        doc = (
            '{"rooms": [{"name": "a", "contour": [[0,0],[4,0],[4,4],[0,4]]}],'
            ' "doors": [{"name": "d", "position": [4, 2], "connects": ["a", "b"]}]}'
        )
        with pytest.raises(ValidationError) as err:
            load_map(doc)
        assert err.value.entity == "d"

    def test_door_self_loop(self):
        doc = (
            '{"rooms": [{"name": "a", "contour": [[0,0],[4,0],[4,4],[0,4]]}],'
            ' "doors": [{"name": "d", "position": [4, 2], "connects": ["a", "a"]}]}'
        )
        with pytest.raises(ValidationError):
            load_map(doc)

    def test_furniture_centroid_outside_room(self):
        doc = (
            '{"rooms": [{"name": "a", "contour": [[0,0],[4,0],[4,4],[0,4]]}],'
            ' "furniture": [{"name": "t", "room": "a", "contour": [[10,10],[12,10],[12,12],[10,12]]}]}'
        )
        with pytest.raises(ValidationError) as err:
            load_map(doc)
        assert err.value.entity == "t"

    def test_nonfinite_coordinate(self):
        doc = (
            '{"rooms": [{"name": "a", "contour": [[0,0],[4,0],[4,4],[0,4]]}],'
            ' "doors": null}'
        )
        # null doors is a shape error, not a crash
        with pytest.raises((ParseError, TypeError, ValidationError)):
            load_map(doc)

    def test_nan_position_rejected(self):
        doc = (
            '{"rooms": [{"name": "a", "contour": [[0,0],[4,0],[4,4],[0,4]]},'
            ' {"name": "b", "contour": [[4,0],[8,0],[8,4],[4,4]]}],'
            ' "doors": [{"name": "d", "position": [NaN, 2], "connects": ["a", "b"]}]}'
        )
        with pytest.raises(ValidationError):
            load_map(doc)

    def test_passable_defaults_true(self, golden_map):
        assert all(d.passable for d in golden_map.doors)

    def test_golden_fixture_shape(self, golden_map):
        assert [r.name for r in golden_map.rooms] == ["bedroom", "kitchen", "living_room"]
        assert [f.name for f in golden_map.furniture] == ["kitchen_table", "shelf"]
        assert [d.name for d in golden_map.doors] == ["kitchen_living", "living_bedroom"]
        # connects pairs are stored sorted
        assert golden_map.find_door("kitchen_living").connects == ("kitchen", "living_room")


class TestSaveMap:
    def test_save_load_roundtrip_is_identity(self, golden_map):
        assert load_map(save_map(golden_map)) == golden_map

    def test_save_is_idempotent_bytewise(self, fixtures_dir):
        for path in sorted((fixtures_dir / "maps").glob("*.json")):
            if path.name.startswith("bad_"):
                continue
            smap = load_map(path.read_text())
            once = save_map(smap)
            again = save_map(load_map(once))
            assert once == again, path.name

    def test_matches_committed_canonical_golden(self, fixtures_dir, golden_map):
        golden = (fixtures_dir / "golden" / "golden_arena.canonical.json").read_text()
        assert save_map(golden_map) == golden

    def test_one_room_golden_bytes(self, fixtures_dir):
        smap = load_map((fixtures_dir / "maps" / "one_room.json").read_text())
        golden = (fixtures_dir / "golden" / "one_room.canonical.json").read_text()
        assert save_map(smap) == golden

    def test_doors_sorted_by_name(self):
        contour_a = validate_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        contour_b = validate_polygon([(4, 0), (8, 0), (8, 4), (4, 4)])
        smap = make_map(
            rooms=[Room("a", contour_a), Room("b", contour_b)],
            doors=[
                Door("b_door", Point2(4, 1), ("a", "b")),
                Door("a_door", Point2(4, 3), ("a", "b")),
            ],
        )
        out = save_map(smap)
        assert out.index('"a_door"') < out.index('"b_door"')


def ulps_from(x: float, k: int) -> float:
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def grid_with_wall_probes(rng: random.Random):
    """A mapgen grid map and points on it: uniform ones, and ones a few ulps
    either side of each grid wall, and of BOUNDARY_EPS off it, where rooms meet."""
    doc, _, cells = random_grid_map(rng)
    cols = max(i for i, _ in cells.values()) + 1
    rows = max(j for _, j in cells.values()) + 1
    width, height = cols * CELL_W, rows * CELL_H
    points = [Point2(rng.uniform(-1, width + 1), rng.uniform(-1, height + 1)) for _ in range(300)]
    walls = [(float(i * CELL_W), True) for i in range(cols + 1)]
    walls += [(float(j * CELL_H), False) for j in range(rows + 1)]
    for wall, vertical in walls:
        for offset in (-BOUNDARY_EPS, 0.0, BOUNDARY_EPS):
            for k in range(-3, 4):
                along = rng.uniform(-1, (height if vertical else width) + 1)
                across = ulps_from(wall + offset, k)
                points.append(Point2(across, along) if vertical else Point2(along, across))
    return load_map(json.dumps(doc)), points


class TestRoomOf:
    def test_room_centroid_maps_to_room(self, golden_map):
        from semplan.geometry import centroid

        for room in golden_map.rooms:
            assert room_of(golden_map, centroid(room.contour)) == room.name

    def test_point_outside_all_rooms(self, golden_map):
        assert room_of(golden_map, Point2(100, 100)) is None

    def test_matches_per_room_containment_oracle(self, golden_map):
        rng = random.Random(5)
        cases = [(golden_map, [Point2(rng.uniform(-2, 20), rng.uniform(-2, 8)) for _ in range(1000)])]
        cases += [grid_with_wall_probes(random.Random(seed)) for seed in range(8)]
        for smap, points in cases:
            for p in points:
                expected = None
                for room in sorted(smap.rooms, key=lambda r: r.name):
                    if point_in_polygon(p, room.contour) is not Containment.OUTSIDE:
                        expected = room.name
                        break
                assert room_of(smap, p) == expected

    def test_overlap_tie_break_lexicographic(self):
        overlapping = make_map(
            rooms=[
                Room("zeta", validate_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])),
                Room("alpha", validate_polygon([(2, 0), (6, 0), (6, 4), (2, 4)])),
            ]
        )
        assert room_of(overlapping, Point2(3, 2)) == "alpha"

    def test_within_eps_outside_bounding_box_is_boundary(self):
        smap = make_map(rooms=[Room("studio", validate_polygon([(0, 0), (4, 0), (4, 4), (0, 4)]))])
        half = BOUNDARY_EPS / 2
        for x, y in ((4 + half, 2), (-half, 2), (2, 4 + half), (2, -half), (4 + half, 4 + half)):
            assert room_of(smap, Point2(x, y)) == "studio"
        assert room_of(smap, Point2(4 + 2 * BOUNDARY_EPS, 2)) is None

    def test_matches_containment_ulps_either_side_of_eps(self):
        # Edge-distance rounding decides these points; room_of must agree
        # with point_in_polygon on every one of them.
        rng = random.Random(17)
        for _ in range(400):
            contour = validate_polygon([(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)])
            smap = make_map(rooms=[Room("r", contour)])
            for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
                vertex = max(contour.vertices, key=lambda v: sign * (v.x, v.y)[axis])
                coords = [vertex.x, vertex.y]
                coords[axis] += sign * BOUNDARY_EPS
                for _ in range(6):
                    p = Point2(*coords)
                    inside = point_in_polygon(p, contour) is not Containment.OUTSIDE
                    assert room_of(smap, p) == ("r" if inside else None)
                    coords[axis] = math.nextafter(coords[axis], sign * math.inf)


class TestSemanticLocation:
    def test_point_on_furniture(self, golden_map):
        loc = semantic_location(golden_map, Point2(2, 2))
        assert loc == SemanticLocation(room="kitchen", furniture="kitchen_table")

    def test_free_space(self, golden_map):
        loc = semantic_location(golden_map, Point2(5, 5))
        assert loc == SemanticLocation(room="kitchen")

    def test_outside_arena(self, golden_map):
        assert semantic_location(golden_map, Point2(-50, 0)) == SemanticLocation()


class TestSetDoorPassable:
    def test_close_door(self, golden_map):
        closed = set_door_passable(golden_map, "kitchen_living", False)
        assert not closed.find_door("kitchen_living").passable
        assert golden_map.find_door("kitchen_living").passable

    def test_close_then_reopen_restores_value(self, golden_map):
        closed = set_door_passable(golden_map, "kitchen_living", False)
        reopened = set_door_passable(closed, "kitchen_living", True)
        assert reopened == golden_map

    def test_unknown_door(self, golden_map):
        with pytest.raises(UnknownDoor):
            set_door_passable(golden_map, "trapdoor", False)

    def test_only_one_field_changes(self, golden_map):
        closed = set_door_passable(golden_map, "living_bedroom", False)
        assert closed.rooms == golden_map.rooms
        assert closed.furniture == golden_map.furniture
        for before, after in zip(golden_map.doors, closed.doors):
            if before.name == "living_bedroom":
                assert after.passable is False
                assert (after.name, after.position, after.connects) == (
                    before.name,
                    before.position,
                    before.connects,
                )
            else:
                assert before == after


def goal_anchor(smap, name):
    """Where plan_path ends for the furniture goal name."""
    return plan_path(smap, smap.locate(name)[0], name).waypoints[-1].anchor


class TestFurnitureAnchor:
    """A furniture goal's anchor, as SemanticMap.locate and nav.plan_path give it."""

    def test_table_anchor(self, golden_map):
        assert golden_map.locate("kitchen_table") == (Point2(2, 2), "kitchen")
        assert goal_anchor(golden_map, "kitchen_table") == Point2(2, 2)

    def test_unknown(self, golden_map):
        assert golden_map.locate("sofa") is None
        with pytest.raises(UnknownFurniture):
            plan_path(golden_map, Point2(2, 2), "sofa")

    def test_triangle_table(self):
        room = Room("a", validate_polygon([(-1, -1), (5, -1), (5, 5), (-1, 5)]))
        table = Furniture("t", "a", validate_polygon([(0, 0), (3, 0), (0, 3)]))
        smap = make_map(rooms=[room], furniture=[table])
        for point in (smap.locate("t")[0], goal_anchor(smap, "t")):
            assert point.x == pytest.approx(1.0)
            assert point.y == pytest.approx(1.0)


class TestLocate:
    def test_anchor_and_its_room_filled_one_name_at_a_time(self, golden_map):
        assert golden_map.located == {}
        for name, place in golden_map.places.items():
            point = anchor(place)
            assert golden_map.locate(name) == (point, room_of(golden_map, point))
            assert list(golden_map.located)[-1] == name
        assert list(golden_map.located) == list(golden_map.places)

    def test_unknown_place_is_none_and_not_stored(self, golden_map):
        assert golden_map.locate("garage") is None
        assert golden_map.locate("operator") is None
        assert golden_map.located == {}

    def test_room_is_room_of_not_the_furniture_room(self):
        # The table's anchor (6, 2) lies in both rooms; "a" is the smaller name.
        rooms = [Room("a", validate_polygon([(0, 0), (7, 0), (7, 4), (0, 4)])),
                 Room("b", validate_polygon([(5, 0), (12, 0), (12, 4), (5, 4)]))]
        table = Furniture("table", "b", validate_polygon([(5.5, 1), (6.5, 1), (6.5, 3), (5.5, 3)]))
        smap = make_map(rooms=rooms, furniture=[table])
        assert smap.locate("table") == (Point2(6, 2), "a")


@st.composite
def histograms(draw):
    """Columns of whole-metre widths and heights on one base line, turned to face any side."""
    n = draw(st.integers(1, 6))
    xs = [0]
    for width in draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)):
        xs.append(xs[-1] + width)
    heights = draw(st.lists(st.integers(1, 8), min_size=n, max_size=n))
    points = [(0, 0), (xs[-1], 0)]
    for i in reversed(range(n)):
        for p in ((xs[i + 1], heights[i]), (xs[i], heights[i])):
            if p != points[-1]:
                points.append(p)
    sx, sy = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1)))
    points = [(sx * x, sy * y) for x, y in points]
    return [(y, x) for x, y in points] if draw(st.booleans()) else points


@st.composite
def star_polygons(draw):
    """Vertices at whole-degree angles about the origin, so no sliver is thinner than BOUNDARY_EPS."""
    n = draw(st.integers(3, 12))
    degrees = draw(st.lists(st.integers(0, 359), min_size=n, max_size=n, unique=True))
    radii = draw(st.lists(st.floats(0.1, 10), min_size=n, max_size=n))
    return [(r * math.cos(math.radians(d)), r * math.sin(math.radians(d)))
            for d, r in zip(sorted(degrees), radii)]


class TestAnchor:
    @pytest.mark.parametrize("contour", [
        # A bar on two legs: the centroid (3, 4) lies on the bar's underside.
        [(0, 0), (0.75, 0), (0.75, 4), (5.25, 4), (5.25, 0), (6, 0), (6, 6), (0, 6)],
        # The centroid's y is 13.000000000000002, next to the edge at y = 13.
        [(0, 0), (2, 0), (2, 4), (4, 4), (4, 7), (1, 7), (1, 13), (8, 13), (8, 20), (0, 20)],
    ], ids=["on-edge", "near-edge"])
    def test_centroid_on_or_next_to_a_horizontal_edge(self, contour):
        place = Room("r", validate_polygon(contour))
        assert point_in_polygon(centroid(place.contour), place.contour) is Containment.BOUNDARY
        assert point_in_polygon(anchor(place), place.contour) is Containment.INSIDE

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(histograms(), star_polygons()))
    def test_anchor_lies_inside(self, contour):
        try:
            place = Room("r", validate_polygon(contour))
            centroid(place.contour)
        except (InvalidPolygon, DegeneratePolygon):
            assume(False)
        assert point_in_polygon(anchor(place), place.contour) is Containment.INSIDE


class TestWarnings:
    def test_door_outside_both_rooms_warns(self):
        smap = make_map(
            rooms=[
                Room("a", validate_polygon([(0, 0), (4, 0), (4, 4), (0, 4)])),
                Room("b", validate_polygon([(4, 0), (8, 0), (8, 4), (4, 4)])),
            ],
            doors=[Door("floating", Point2(20, 20), ("a", "b"))],
        )
        warnings = map_warnings(smap)
        assert len(warnings) == 1
        assert "floating" in warnings[0]

    def test_clean_map_has_no_warnings(self, golden_map):
        assert map_warnings(golden_map) == []
