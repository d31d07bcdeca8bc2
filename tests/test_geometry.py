import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semplan.errors import DegeneratePolygon, InvalidPolygon
from semplan.geometry import (
    BOUNDARY_EPS,
    MIN_AREA,
    Containment,
    Point2,
    centroid,
    cross,
    euclidean,
    point_in_polygon,
    validate_polygon,
)

from oracles import min_edge_distance, ray_cast_contains, two_walk_containment

UNIT_SQUARE = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])


def random_simple_polygon(rng: random.Random, max_vertices: int = 12):
    """Star-shaped polygon around a random center.

    Every angular gap stays below pi, so each edge is confined to its own
    wedge and the contour cannot self-intersect even with wildly varying
    radii (concave shapes are common).
    """
    n = rng.randint(3, max_vertices)
    cx = rng.uniform(-5.0, 5.0)
    cy = rng.uniform(-5.0, 5.0)
    gaps = [rng.uniform(0.6, 1.0) for _ in range(n)]
    scale = 2.0 * math.pi / sum(gaps)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    raw = []
    for g in gaps:
        r = rng.uniform(0.5, 3.0)
        raw.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
        angle += g * scale
    return raw, validate_polygon(raw)


class TestPoint2:
    """A frozen slots value: hashed as its (x, y) pair, equal only to a Point2."""

    def test_hash_is_the_pair_hash(self):
        p = Point2(1.5, -2)
        assert hash(p) == hash((p.x, p.y)) == hash((1.5, -2.0))

    def test_never_equals_its_pair(self):
        p = Point2(1, 5)
        assert p != (p.x, p.y) and (p.x, p.y) != p
        assert p == Point2(1.0, 5.0) and len({p, Point2(1, 5)}) == 1

    def test_assignment_raises(self):
        p = Point2(1, 5)
        for name in ("x", "y", "z"):
            with pytest.raises(AttributeError):
                setattr(p, name, 0.0)
        with pytest.raises(AttributeError):
            del p.x
        assert (p.x, p.y) == (1.0, 5.0)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        p = Point2(1, 5)
        copy = pickle.loads(pickle.dumps(p, protocol))
        assert type(copy) is Point2 and copy == p and hash(copy) == hash(p)

    def test_repr_is_the_golden_one(self):
        # tests/fixtures/golden/cli_outputs.json pins it in the NoPath message.
        assert repr(Point2(1, 5)) == "Point2(x=1.0, y=5.0)"
        assert str(Point2(15, 2.0)) == "Point2(x=15.0, y=2.0)"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0)
        with pytest.raises(ValueError):
            Point2(0, math.inf)


class TestCross:
    def test_unit_ccw_turn(self):
        assert cross(Point2(0, 0), Point2(1, 0), Point2(0, 1)) == 1.0

    def test_collinear(self):
        assert cross(Point2(0, 0), Point2(1, 0), Point2(2, 0)) == 0.0

    def test_cw_turn(self):
        assert cross(Point2(0, 0), Point2(0, 1), Point2(1, 0)) == -1.0

    def test_antisymmetry(self):
        rng = random.Random(7)
        for _ in range(200):
            o, a, b = (
                Point2(rng.uniform(-9, 9), rng.uniform(-9, 9)) for _ in range(3)
            )
            assert cross(o, a, b) == -cross(o, b, a)


class TestEuclidean:
    def test_3_4_5(self):
        assert euclidean(Point2(0, 0), Point2(3, 4)) == 5.0

    def test_identity(self):
        assert euclidean(Point2(1, 1), Point2(1, 1)) == 0.0

    def test_sqrt2(self):
        assert euclidean(Point2(0, 0), Point2(1, 1)) == pytest.approx(math.sqrt(2), abs=0)

    def test_triangle_inequality(self):
        rng = random.Random(11)
        for _ in range(500):
            a, b, c = (
                Point2(rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(3)
            )
            lhs = euclidean(a, c)
            rhs = euclidean(a, b) + euclidean(b, c)
            assert lhs <= rhs + 1e-12 * max(1.0, rhs)


class TestPointInPolygon:
    def test_center_of_square(self):
        assert point_in_polygon(Point2(0.5, 0.5), UNIT_SQUARE) is Containment.INSIDE

    def test_outside_square(self):
        assert point_in_polygon(Point2(2, 2), UNIT_SQUARE) is Containment.OUTSIDE

    def test_on_right_edge(self):
        assert point_in_polygon(Point2(1.0, 0.5), UNIT_SQUARE) is Containment.BOUNDARY

    def test_concave_polygon(self):
        # U-shape: the notch between the prongs is outside.
        u_shape = validate_polygon(
            [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
        )
        assert point_in_polygon(Point2(1.5, 2.0), u_shape) is Containment.OUTSIDE
        assert point_in_polygon(Point2(0.5, 2.0), u_shape) is Containment.INSIDE
        assert point_in_polygon(Point2(1.5, 0.5), u_shape) is Containment.INSIDE

    def test_matches_ray_casting_oracle(self):
        rng = random.Random(42)
        checked = 0
        for _ in range(100):
            raw, poly = random_simple_polygon(rng)
            xs = [v[0] for v in raw]
            ys = [v[1] for v in raw]
            pad = 0.5
            while True:
                p = (
                    rng.uniform(min(xs) - pad, max(xs) + pad),
                    rng.uniform(min(ys) - pad, max(ys) + pad),
                )
                if min_edge_distance(p, raw) > 1e-6:
                    break
            verdict = point_in_polygon(Point2(*p), poly)
            assert verdict is not Containment.BOUNDARY
            expected = ray_cast_contains(p[0], p[1], raw)
            assert (verdict is Containment.INSIDE) == expected
            checked += 1
        assert checked == 100

    def test_translation_invariance(self):
        rng = random.Random(13)
        for _ in range(50):
            raw, poly = random_simple_polygon(rng, max_vertices=8)
            p = (rng.uniform(-8, 8), rng.uniform(-8, 8))
            dx, dy = rng.uniform(-50, 50), rng.uniform(-50, 50)
            moved = validate_polygon([(x + dx, y + dy) for x, y in raw])
            before = point_in_polygon(Point2(*p), poly)
            after = point_in_polygon(Point2(p[0] + dx, p[1] + dy), moved)
            assert before is after


def points_ulps_either_side_of_eps(contour):
    """Points stepping by ulps across BOUNDARY_EPS beyond each extreme vertex."""
    for axis, sign in ((0, 1), (0, -1), (1, 1), (1, -1)):
        vertex = max(contour.vertices, key=lambda v: sign * (v.x, v.y)[axis])
        coords = [vertex.x, vertex.y]
        coords[axis] += sign * BOUNDARY_EPS
        for _ in range(6):
            yield Point2(*coords)
            coords[axis] = math.nextafter(coords[axis], sign * math.inf)


class TestPointInPolygonOneWalk:
    """point_in_polygon against the reference that walks the contour twice."""

    def check(self, p, poly):
        raw = [(v.x, v.y) for v in poly.vertices]
        expected = two_walk_containment((p.x, p.y), raw, BOUNDARY_EPS)
        assert point_in_polygon(p, poly).value == expected

    def test_agrees_ulps_either_side_of_eps(self):
        rng = random.Random(17)
        for _ in range(400):
            contour = validate_polygon([(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)])
            for p in points_ulps_either_side_of_eps(contour):
                self.check(p, contour)

    def test_agrees_a_few_ulps_around_exactly_eps_from_an_edge(self):
        rect = validate_polygon([(0, 0), (4, 0), (4, 3), (0, 3)])
        for toward in (-math.inf, math.inf):
            y = -BOUNDARY_EPS  # (2, y) starts exactly BOUNDARY_EPS below the bottom edge
            for _ in range(4):
                self.check(Point2(2.0, y), rect)
                y = math.nextafter(y, toward)

    def test_agrees_on_concave_polygons(self):
        rng = random.Random(23)
        for _ in range(200):
            raw, poly = random_simple_polygon(rng)
            for p in points_ulps_either_side_of_eps(poly):
                self.check(p, poly)
            for _ in range(10):
                x, y = rng.choice(raw)
                self.check(Point2(x + rng.uniform(-1, 1), y + rng.uniform(-1, 1)), poly)
            for v in poly.vertices:
                self.check(v, poly)


def two_walk_centroid(vertices):
    """centroid's outcome from two walks, the area and then the moments.

    The reference for the one-walk centroid: the float.hex pair of the
    result, or the DegeneratePolygon message.
    """
    n = len(vertices)
    area2 = 0.0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        area2 += a.x * b.y - a.y * b.x
    if not math.isfinite(area2):
        return "area overflows a float"
    if abs(area2) / 2.0 < MIN_AREA:
        return f"area {abs(area2) / 2.0} below {MIN_AREA}"
    cx = cy = 0.0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        w = a.x * b.y - b.x * a.y
        cx += (a.x + b.x) * w
        cy += (a.y + b.y) * w
    factor = 1.0 / (3.0 * area2)
    x, y = cx * factor, cy * factor
    if not (math.isfinite(x) and math.isfinite(y)):
        return "centroid overflows a float"
    return x.hex(), y.hex()


class TestCentroid:
    # Scales by 2**k around each outcome's threshold for these polygons: the
    # area below MIN_AREA, a plain centroid, the moments overflowing, and the
    # area overflowing (coordinates near 1e154).
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.one_of(st.integers(-24, -19), st.integers(-4, 4),
                     st.integers(336, 342), st.integers(508, 514)))
    @example(0, -30)
    @example(0, 0)
    @example(0, 340)
    @example(0, 512)
    def test_one_walk_equals_two_walks_bitwise(self, seed, k):
        raw, _ = random_simple_polygon(random.Random(seed))
        poly = validate_polygon([(x * 2.0**k, y * 2.0**k) for x, y in raw])
        try:
            c = centroid(poly)
        except DegeneratePolygon as exc:
            outcome = str(exc)
        else:
            outcome = c.x.hex(), c.y.hex()
        assert outcome == two_walk_centroid(poly.vertices)

    def test_unit_square(self):
        c = centroid(UNIT_SQUARE)
        assert (c.x, c.y) == (0.5, 0.5)

    def test_right_triangle(self):
        tri = validate_polygon([(0, 0), (3, 0), (0, 3)])
        c = centroid(tri)
        assert c.x == pytest.approx(1.0)
        assert c.y == pytest.approx(1.0)

    def test_degenerate_sliver(self):
        thin = validate_polygon([(0, 0), (1, 0), (0.5, 1e-14)])
        with pytest.raises(DegeneratePolygon):
            centroid(thin)

    def test_matches_monte_carlo_oracle(self):
        # Random convex polygons; rejection sampling over the bounding box.
        import numpy as np

        rng = np.random.default_rng(2024)
        polygons_checked = 0
        while polygons_checked < 3:
            n = int(rng.integers(4, 9))
            angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
            if np.min(np.diff(angles)) < 1e-1:
                continue
            cx0, cy0 = rng.uniform(-2, 2, size=2)
            raw = [(cx0 + math.cos(a), cy0 + math.sin(a)) for a in angles]
            poly = validate_polygon(raw)
            c = centroid(poly)

            xs = np.array([v[0] for v in raw])
            ys = np.array([v[1] for v in raw])
            px = rng.uniform(xs.min(), xs.max(), size=2_500_000)
            py = rng.uniform(ys.min(), ys.max(), size=2_500_000)
            inside = np.ones(px.shape, dtype=bool)
            for i in range(len(raw)):
                ax, ay = raw[i]
                bx, by = raw[(i + 1) % len(raw)]
                inside &= (bx - ax) * (py - ay) - (by - ay) * (px - ax) >= 0
            assert inside.sum() > 100_000
            assert abs(px[inside].mean() - c.x) < 1e-3
            assert abs(py[inside].mean() - c.y) < 1e-3
            polygons_checked += 1

    def test_convex_centroid_is_inside(self):
        rng = random.Random(99)
        for _ in range(50):
            n = rng.randint(3, 10)
            angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
            gaps = [b - a for a, b in zip(angles, angles[1:])]
            if gaps and min(gaps) < 1e-2:
                continue
            raw = [(2.0 * math.cos(a), 2.0 * math.sin(a)) for a in angles]
            if len(raw) < 3:
                continue
            poly = validate_polygon(raw)
            assert point_in_polygon(centroid(poly), poly) is not Containment.OUTSIDE


class TestValidatePolygon:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_a_plain_value_with_no_instance_dict(self, protocol):
        poly = validate_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert not hasattr(poly, "__dict__")
        copy = pickle.loads(pickle.dumps(poly, protocol))
        assert type(copy) is type(poly) and copy == poly and hash(copy) == hash(poly)

    def test_too_few_vertices(self):
        with pytest.raises(InvalidPolygon) as err:
            validate_polygon([(0, 0), (1, 0)])
        assert err.value.reason == "TooFewVertices"

    def test_cw_input_normalized_to_ccw(self):
        cw = [(0, 0), (0, 1), (1, 1), (1, 0)]
        poly = validate_polygon(cw)
        verts = [(v.x, v.y) for v in poly.vertices]
        assert sorted(verts) == sorted(cw)
        area2 = sum(
            ax * by - ay * bx
            for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1])
        )
        assert area2 > 0

    def test_bow_tie_rejected(self):
        with pytest.raises(InvalidPolygon) as err:
            validate_polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        assert err.value.reason == "SelfIntersecting"

    def test_duplicate_consecutive_vertex(self):
        with pytest.raises(InvalidPolygon) as err:
            validate_polygon([(0, 0), (0, 0), (1, 0), (1, 1)])
        assert err.value.reason == "DuplicateVertex"

    def test_closing_duplicate_vertex(self):
        with pytest.raises(InvalidPolygon) as err:
            validate_polygon([(0, 0), (1, 0), (1, 1), (0, 0)])
        assert err.value.reason == "DuplicateVertex"

    def test_collinear_contour_rejected(self):
        with pytest.raises(InvalidPolygon) as err:
            validate_polygon([(0, 0), (1, 0), (2, 0)])
        assert err.value.reason == "SelfIntersecting"

    def test_repeated_nonconsecutive_vertex_rejected(self):
        with pytest.raises(InvalidPolygon):
            validate_polygon([(0, 0), (1, 0), (2, 1), (1, 0), (0, 1)])

    def test_nonfinite_coordinate_rejected(self):
        with pytest.raises(ValueError):
            validate_polygon([(0, 0), (float("nan"), 0), (1, 1)])
