"""Planar primitives: points, simple polygons, containment and distance.

Containment uses cross-product (winding number) edge tests rather than ray
casting, with a three-valued result so behaviour on contour edges is
explicit and testable. Polygons are validated once at construction and
normalized to counter-clockwise vertex order, so every Polygon2 in the
system satisfies the invariants.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import Iterable, Sequence

from .errors import DegeneratePolygon, InvalidPolygon

# Distance (meters) below which a point counts as lying on a contour edge.
BOUNDARY_EPS = 1e-9

# Polygons thinner than this (square meters) have no usable centroid.
MIN_AREA = 1e-12


class Containment(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


class Point2:
    """An immutable point that hashes as its (x, y) pair but equals only a Point2.

    Not a tuple: point_in_polygon reads every vertex's x and y, and slots read fastest.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        fx, fy = float(x), float(y)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise ValueError(f"non-finite coordinate ({x}, {y})")
        object.__setattr__(self, "x", fx)
        object.__setattr__(self, "y", fy)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is Point2:
            return self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"Point2(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return Point2, (self.x, self.y)


def cross(origin: Point2, a: Point2, b: Point2) -> float:
    """z-component of (a - origin) x (b - origin).

    Positive when b lies counter-clockwise of a about origin, negative when
    clockwise, zero when the three points are collinear.
    """
    return (a.x - origin.x) * (b.y - origin.y) - (a.y - origin.y) * (b.x - origin.x)


def euclidean(a: Point2, b: Point2) -> float:
    """Euclidean distance in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def _dot_from(origin: Point2, a: Point2, b: Point2) -> float:
    return (a.x - origin.x) * (b.x - origin.x) + (a.y - origin.y) * (b.y - origin.y)


def _on_segment(p: Point2, a: Point2, b: Point2) -> bool:
    # Collinearity is assumed; checks the bounding box only.
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _segments_touch(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """True when closed segments ab and cd share at least one point."""
    d1 = cross(c, d, a)
    d2 = cross(c, d, b)
    d3 = cross(a, b, c)
    d4 = cross(a, b, d)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True
    if d1 == 0 and _on_segment(a, c, d):
        return True
    if d2 == 0 and _on_segment(b, c, d):
        return True
    if d3 == 0 and _on_segment(c, a, b):
        return True
    if d4 == 0 and _on_segment(d, a, b):
        return True
    return False


def _signed_area2(vertices: Sequence[Point2]) -> float:
    """Twice the signed area (positive for counter-clockwise contours)."""
    total = 0.0
    n = len(vertices)
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        total += a.x * b.y - a.y * b.x
    return total


class Polygon2(namedtuple("Polygon2", "vertices")):
    """A simple polygon, stored counter-clockwise.

    Construction validates the contour and raises InvalidPolygon with a
    reason code when it has fewer than three vertices, repeats a vertex
    consecutively (including the closing wrap) or self-intersects.
    """

    __slots__ = ()

    def __new__(cls, vertices: Iterable[Point2]):
        verts = tuple(vertices)
        if len(verts) < 3:
            raise InvalidPolygon("TooFewVertices", f"got {len(verts)}")
        n = len(verts)
        for i in range(n):
            if verts[i] == verts[(i + 1) % n]:
                raise InvalidPolygon("DuplicateVertex", f"at index {i}")
        _check_simple(verts)
        if _signed_area2(verts) < 0:
            verts = tuple(reversed(verts))
        return tuple.__new__(cls, (verts,))

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def edges(self) -> Iterable[tuple[Point2, Point2]]:
        n = len(self.vertices)
        for i in range(n):
            yield self.vertices[i], self.vertices[(i + 1) % n]


def _check_simple(verts: tuple[Point2, ...]) -> None:
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        for j in range(i + 1, n):
            c, d = verts[j], verts[(j + 1) % n]
            adjacent = j == i + 1 or (i == 0 and j == n - 1)
            if adjacent:
                # The shared endpoint is legal; doubling back along the
                # incoming edge is not.
                shared = b if j == i + 1 else a
                u = a if j == i + 1 else b
                w = d if j == i + 1 else c
                if cross(shared, u, w) == 0 and _dot_from(shared, u, w) > 0:
                    raise InvalidPolygon(
                        "SelfIntersecting", f"edges {i} and {j} overlap"
                    )
            elif _segments_touch(a, b, c, d):
                raise InvalidPolygon("SelfIntersecting", f"edges {i} and {j} cross")


def validate_polygon(raw_vertices: Iterable[Sequence[float] | Point2]) -> Polygon2:
    """Build a Polygon2 from raw (x, y) pairs, validating and normalizing."""
    points = tuple(
        v if isinstance(v, Point2) else Point2(float(v[0]), float(v[1]))
        for v in raw_vertices
    )
    return Polygon2(points)


def point_in_polygon(p: Point2, poly: Polygon2) -> Containment:
    """Three-valued containment via the winding number, in one walk of the contour.

    BOUNDARY wins whenever p lies within BOUNDARY_EPS of any edge; otherwise
    the winding number decides INSIDE vs OUTSIDE. Works for concave simple
    polygons.
    """
    px, py = p.x, p.y
    winding = 0
    a = poly.vertices[-1]
    for b in poly.vertices:
        # The distance from p to the closed segment ab, then cross(a, b, p),
        # inlined: this loop is most of map load and of room_of.
        ax, ay, by = a.x, a.y, b.y
        dx, dy = b.x - ax, by - ay
        seg_len_sq = dx * dx + dy * dy
        if seg_len_sq == 0.0:
            distance = math.hypot(px - ax, py - ay)
        else:
            t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / seg_len_sq))
            distance = math.hypot(px - (ax + t * dx), py - (ay + t * dy))
        if distance <= BOUNDARY_EPS:
            return Containment.BOUNDARY
        if ay <= py:
            if by > py and dx * (py - ay) - dy * (px - ax) > 0:
                winding += 1
        elif by <= py and dx * (py - ay) - dy * (px - ax) < 0:
            winding -= 1
        a = b
    return Containment.INSIDE if winding != 0 else Containment.OUTSIDE


def centroid(poly: Polygon2) -> Point2:
    """Area-weighted centroid of a simple polygon.

    Raises DegeneratePolygon when the area is below MIN_AREA, or when the
    coordinates are so large that the area or the centroid overflows.
    """
    area2 = cx = cy = 0.0
    for a, b in poly.edges():  # area2 sums as _signed_area2 does, in the same order
        w = a.x * b.y - a.y * b.x
        area2 += w
        cx += (a.x + b.x) * w
        cy += (a.y + b.y) * w
    if not math.isfinite(area2):
        raise DegeneratePolygon("area overflows a float")
    if abs(area2) / 2.0 < MIN_AREA:
        raise DegeneratePolygon(f"area {abs(area2) / 2.0} below {MIN_AREA}")
    factor = 1.0 / (3.0 * area2)
    x, y = cx * factor, cy * factor
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DegeneratePolygon("centroid overflows a float")
    return Point2(x, y)


def scanline_midpoint(poly: Polygon2, y: float) -> Point2:
    """Midpoint of the widest inside interval of a horizontal line near height y.

    The line runs midway between the nearest vertex heights at or below y
    and above it, so it meets no vertex and stays clear of every horizontal
    edge; its crossings follow the winding number's half-open rule. Raises
    DegeneratePolygon when the line misses the interior, as it does for a y
    outside the polygon's vertical extent, or the midpoint overflows a float.
    """
    below = max((v.y for v in poly.vertices if v.y <= y), default=y)
    above = min((v.y for v in poly.vertices if v.y > y), default=y)
    line = below / 2 + above / 2
    xs = sorted(
        a.x + (line - a.y) / (b.y - a.y) * (b.x - a.x)
        for a, b in poly.edges()
        if (a.y <= line) != (b.y <= line)
    )
    if not xs:
        raise DegeneratePolygon(f"no interior near the line y = {y}")
    x0, x1 = max(zip(xs[::2], xs[1::2]), key=lambda pair: pair[1] - pair[0])
    x = x0 / 2 + x1 / 2
    if not math.isfinite(x):
        raise DegeneratePolygon("interior point overflows a float")
    return Point2(x, line)
