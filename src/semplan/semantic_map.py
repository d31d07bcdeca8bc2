"""Labeled environment model: rooms, furniture and doors.

The map is an immutable value loaded from a JSON document. Entities are
stored sorted by name and door room pairs are stored sorted, so loading a
saved map yields an equal value and saving is canonical byte-for-byte:
entities sorted by name, object keys in schema order, 2-space indentation,
floats in shortest round-trip form.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Union

from .errors import (
    DegeneratePolygon,
    InvalidPolygon,
    ParseError,
    UnknownDoor,
    UnknownFurniture,
    ValidationError,
)
from .geometry import (
    BOUNDARY_EPS,
    Containment,
    Point2,
    Polygon2,
    centroid,
    point_in_polygon,
    scanline_midpoint,
    validate_polygon,
)
from .jsondoc import check_object, dump, load_object, parse_point, point_doc

# The move_to target that means the person, never a room or furniture name.
OPERATOR = "operator"


class Room(NamedTuple):
    name: str
    contour: Polygon2


class Furniture(NamedTuple):
    name: str
    room: str
    contour: Polygon2


class Door(NamedTuple):
    name: str
    position: Point2
    connects: tuple[str, str]  # sorted room-name pair
    passable: bool = True


class SemanticLocation(NamedTuple):
    room: Optional[str] = None
    furniture: Optional[str] = None


class MapIndex(NamedTuple):
    """SemanticMap.index, built on first use: rooms, furniture and doors by name."""

    rooms: dict
    furniture: dict
    doors: dict


class SemanticMap(namedtuple("SemanticMap", "rooms furniture doors")):
    """Rooms, furniture and doors, each sorted by name.

    No __slots__, so that the cached properties have an instance dict; a
    copy made by _replace or pickle starts with none. index shadows tuple.index.
    """

    def __reduce__(self):
        return SemanticMap, (self.rooms, self.furniture, self.doors)

    @cached_property
    def index(self) -> MapIndex:
        groups = (self.rooms, self.furniture, self.doors)
        return MapIndex(*({e.name: e for e in group} for group in groups))

    @cached_property
    def places(self) -> dict:
        """Rooms and furniture that move_to can target, by name; furniture wins a shared name."""
        return {**self.index.rooms, **self.index.furniture}

    @cached_property
    def place_words(self) -> frozenset:
        """The lowered, interned place names and OPERATOR: words that name no object."""
        return frozenset([OPERATOR, *(sys.intern(name.lower()) for name in self.places)])

    @cached_property
    def passable_doors(self) -> dict:
        """Room name -> names of the passable doors into that room; built on first use."""
        by_room = {r.name: [] for r in self.rooms}
        for d in self.doors:
            if d.passable:
                for room in d.connects:
                    by_room[room].append(d.name)
        return by_room

    @cached_property
    def room_boxes(self) -> tuple:
        """(x0, y0, x1, y1, name, contour) per room, in name order: room_of's box test."""
        boxes = []
        for name, contour in self.rooms:
            xs, ys = sorted([v.x for v in contour.vertices]), sorted([v.y for v in contour.vertices])
            # The edge distance rounds by a few ulps of the coordinates, so a point
            # just past BOUNDARY_EPS can still test as BOUNDARY: pad ~45 ulps more.
            pad = BOUNDARY_EPS + 1e-14 * max(-xs[0], -ys[0], xs[-1], ys[-1])
            boxes.append((xs[0] - pad, ys[0] - pad, xs[-1] + pad, ys[-1] + pad, name, contour))
        return tuple(boxes)

    @cached_property
    def components(self) -> dict:
        """Room name -> representative room, equal for rooms joined by passable doors.

        A union-find over the rooms, built once per map.
        """
        parent = {r.name: r.name for r in self.rooms}

        def find(room: str) -> str:
            while parent[room] != room:
                parent[room] = parent[parent[room]]
                room = parent[room]
            return room

        for d in self.doors:
            if d.passable:
                parent[find(d.connects[0])] = find(d.connects[1])
        return {room: find(room) for room in parent}

    @cached_property
    def derived(self) -> dict:
        """build -> build(self), for each table derive has built for this map."""
        return {}

    def derive(self, build):
        """build(self), built on this map's first call and then kept like a cached property.

        For tables that another module derives from the map and this module
        cannot build without importing it: skills' grounded candidates.
        """
        table = self.derived.get(build)
        if table is None:
            table = self.derived[build] = build(self)
        return table

    @cached_property
    def located(self) -> dict:
        """Place name -> (anchor, room); locate fills it one place at a time."""
        return {}

    def locate(self, name: str) -> Optional[tuple[Point2, Optional[str]]]:
        """(anchor, room_of(anchor)) of the place called name, or None if there is none.

        The room is room_of's, not Furniture.room: where contours overlap,
        the smallest containing room name wins.
        """
        hit = self.located.get(name)
        if hit is None:
            place = self.places.get(name)
            if place is None:
                return None
            point = anchor(place)
            hit = self.located[name] = (point, room_of(self, point))
        return hit

    def find_furniture(self, name: str) -> Furniture:
        if name not in self.index.furniture:
            raise UnknownFurniture(name)
        return self.index.furniture[name]

    def find_door(self, name: str) -> Door:
        if name not in self.index.doors:
            raise UnknownDoor(name)
        return self.index.doors[name]


def make_map(
    rooms: Iterable[Room],
    furniture: Iterable[Furniture] = (),
    doors: Iterable[Door] = (),
) -> SemanticMap:
    """Assemble and validate a map from entity values.

    Raises ValidationError naming the offending entity on duplicate names,
    a room or furniture named OPERATOR, dangling references, a room or
    furniture contour without an anchor, or a furniture anchor outside its room.
    """
    rooms = tuple(sorted(rooms, key=lambda r: r.name))
    furniture = tuple(sorted(furniture, key=lambda f: f.name))
    doors = tuple(
        sorted(
            (d._replace(connects=tuple(sorted(d.connects))) for d in doors),
            key=lambda d: d.name,
        )
    )

    if not rooms:
        raise ValidationError("map", "must contain at least one room")
    for entities, label in ((rooms, "room"), (furniture, "furniture"), (doors, "door")):
        seen = set()
        for e in entities:
            if not e.name:
                raise ValidationError(f"<unnamed {label}>", "empty name")
            if e.name in seen:
                raise ValidationError(e.name, f"duplicate {label} name")
            if e.name == OPERATOR and label != "door":
                raise ValidationError(e.name, f"reserved name: move_to({OPERATOR}) means the person")
            seen.add(e.name)

    room_names = {r.name: r for r in rooms}
    for r in rooms:
        anchor(r)
    for f in furniture:
        if f.room not in room_names:
            raise ValidationError(f.name, "unknown room")
        if point_in_polygon(anchor(f), room_names[f.room].contour) is Containment.OUTSIDE:
            raise ValidationError(f.name, f"anchor lies outside room {f.room}")
    for d in doors:
        a, b = d.connects
        if a == b:
            raise ValidationError(d.name, "connects a room to itself")
        for name in d.connects:
            if name not in room_names:
                raise ValidationError(d.name, f"unknown room {name}")

    return SemanticMap(rooms=rooms, furniture=furniture, doors=doors)


def anchor(place: Union[Room, Furniture]) -> Point2:
    """The point move_to(place) aims at; ValidationError names a place without one.

    The area centroid when it lies inside the contour; otherwise, for a
    concave contour, the midpoint of the widest inside interval of a
    horizontal line at about the centroid's height (geometry.scanline_midpoint).
    That midpoint must lie inside too; on a sliver it lies on the boundary.
    """
    try:
        point = centroid(place.contour)
        if point_in_polygon(point, place.contour) is not Containment.INSIDE:
            point = scanline_midpoint(place.contour, point.y)
            if point_in_polygon(point, place.contour) is not Containment.INSIDE:
                raise ValidationError(place.name, "no anchor inside the contour")
    except DegeneratePolygon as exc:
        raise ValidationError(place.name, str(exc)) from None
    return point


def _parse_contour(raw, entity: str) -> Polygon2:
    if not isinstance(raw, list):
        raise ParseError(f"{entity}: contour must be an array")
    points = [parse_point(v, f"{entity} contour") for v in raw]
    try:
        return validate_polygon(points)
    except InvalidPolygon as exc:
        raise ValidationError(entity, f"invalid contour: {exc.reason}") from None


def _parse_entries(doc: dict, key: str, required: tuple, optional: tuple = ()):
    """(name, entry) for each object in the array doc[key]."""
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ParseError(f"{key} must be an array")
    for i, entry in enumerate(raw):
        check_object(entry, required + optional, f"{key}[{i}]", required)
        if not isinstance(entry["name"], str):
            raise ParseError(f"{key}[{i}]: name must be a string")
        yield sys.intern(entry["name"]), entry


def load_map(text: str) -> SemanticMap:
    """Parse and validate a map document from its JSON text.

    Every name is interned, so a furniture's room and a door's connects are
    the very strings of the rooms they name, and equal names in other maps
    and in score tables (scorer.skill_key) are one object.
    """
    doc = load_object(text, ("rooms", "furniture", "doors"), "map")
    rooms = [
        Room(name, _parse_contour(entry["contour"], name))
        for name, entry in _parse_entries(doc, "rooms", ("name", "contour"))
    ]

    furniture = []
    for name, entry in _parse_entries(doc, "furniture", ("name", "room", "contour")):
        if not isinstance(entry["room"], str):
            raise ParseError(f"furniture {name}: room must be a string")
        room = sys.intern(entry["room"])
        furniture.append(Furniture(name, room, _parse_contour(entry["contour"], name)))

    doors = []
    door_keys = ("name", "position", "connects")
    for name, entry in _parse_entries(doc, "doors", door_keys, ("passable",)):
        connects = entry["connects"]
        if not (
            isinstance(connects, list) and len(connects) == 2
            and all(isinstance(r, str) for r in connects)
        ):
            raise ParseError(f"door {name}: connects must be [room, room]")
        passable = entry.get("passable", True)
        if not isinstance(passable, bool):
            raise ParseError(f"door {name}: passable must be a boolean")
        doors.append(
            Door(
                name,
                parse_point(entry["position"], f"door {name} position"),
                (sys.intern(connects[0]), sys.intern(connects[1])),
                passable,
            )
        )

    return make_map(rooms, furniture, doors)


def _contour_doc(poly: Polygon2) -> list[list[float]]:
    return [point_doc(v) for v in poly.vertices]


def save_map(smap: SemanticMap) -> str:
    """Serialize to the canonical document form."""
    doc = {
        "rooms": [{"name": r.name, "contour": _contour_doc(r.contour)} for r in smap.rooms],
        "furniture": [
            {"name": f.name, "room": f.room, "contour": _contour_doc(f.contour)}
            for f in smap.furniture
        ],
        "doors": [
            {
                "name": d.name,
                "position": point_doc(d.position),
                "connects": list(d.connects),
                "passable": d.passable,
            }
            for d in smap.doors
        ],
    }
    return dump(doc)


def room_of(smap: SemanticMap, p: Point2) -> Optional[str]:
    """Name of the room containing p (inside or on the contour).

    Overlapping contours are tolerated: the lexicographically smallest room
    name wins. Rooms are stored sorted, so the first hit is the answer.
    """
    x, y = p.x, p.y
    for x0, y0, x1, y1, name, contour in smap.room_boxes:
        if x0 <= x <= x1 and y0 <= y <= y1 and point_in_polygon(p, contour) is not Containment.OUTSIDE:
            return name
    return None


def semantic_location(smap: SemanticMap, p: Point2) -> SemanticLocation:
    """Room and, when applicable, the furniture contour the point is in."""
    room = room_of(smap, p)
    if room is None:
        return SemanticLocation()
    for f in smap.furniture:
        if f.room == room and point_in_polygon(p, f.contour) is not Containment.OUTSIDE:
            return SemanticLocation(room=room, furniture=f.name)
    return SemanticLocation(room=room)


def set_door_passable(smap: SemanticMap, door_name: str, passable: bool) -> SemanticMap:
    """Return a copy of the map with one door's passable flag changed."""
    smap.find_door(door_name)
    doors = tuple(
        d._replace(passable=passable) if d.name == door_name else d for d in smap.doors
    )
    return smap._replace(doors=doors)


def map_warnings(smap: SemanticMap) -> list[str]:
    """Advisory findings that do not invalidate the map.

    Currently: doors positioned outside both rooms they connect.
    """
    warnings = []
    for d in smap.doors:
        contained = any(
            point_in_polygon(d.position, smap.index.rooms[name].contour)
            is not Containment.OUTSIDE
            for name in d.connects
        )
        if not contained:
            warnings.append(
                f"door {d.name} lies outside both rooms it connects ({d.connects[0]}, {d.connects[1]})"
            )
    return warnings
