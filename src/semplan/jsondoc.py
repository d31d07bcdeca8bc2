"""JSON documents both ways: one object per file in, canonical text out.

Maps, worlds, score tables and scenario configs are each one JSON object
with a fixed set of keys, read here from text; points come from those or
from argv. A malformed input raises ParseError (wrong shape) or
ValidationError (a number that is not a finite float); the CLI exits 2 on
both. dump writes every document (a saved map, --format json) with keys in
insertion order; cli._world_doc, not load_world, sorts a world's placements.
"""

from __future__ import annotations

import json
from math import inf, isfinite
from typing import Collection

from .errors import ParseError, ValidationError
from .geometry import Point2


def load_object(text: str, allowed_keys: Collection[str], label: str) -> dict:
    """Parse JSON text holding one object with only allowed keys."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers undecodable bytes and integers past the
        # interpreter's digit limit; RecursionError, nesting too deep.
        raise ParseError(f"{label} is not valid JSON: {exc}") from None
    return check_object(doc, allowed_keys, label)


def dump(doc) -> str:
    """The canonical text of a document: two-space indent, one trailing newline."""
    return json.dumps(doc, indent=2) + "\n"


def check_object(value, allowed_keys: Collection[str], label: str, required_keys=()) -> dict:
    """value itself, once it is an object with only allowed and all required keys."""
    if not isinstance(value, dict):
        raise ParseError(f"{label} must be an object")
    unknown = set(value).difference(allowed_keys)
    if unknown:
        raise ParseError(f"{label}: unknown keys {sorted(unknown)}")
    missing = [key for key in required_keys if key not in value]
    if missing:
        raise ParseError(f"{label}: missing keys {missing}")
    return value


def finite(value, context: str) -> float:
    """A JSON or argv number as a float.

    Raises ParseError for bools and non-numbers, ValidationError for NaN,
    infinities and integers too large for a float.
    """
    if type(value) not in (float, int):  # JSON numbers are exactly these; bools are not numbers
        raise ParseError(f"{context}: expected a number")
    try:
        number = float(value)
    except OverflowError:
        number = inf
    if not isfinite(number):
        raise ValidationError(context, "not a finite number")
    return number


def parse_point(raw, context: str) -> Point2:
    """An [x, y] pair of finite numbers as a Point2."""
    if not isinstance(raw, list) or len(raw) != 2:
        raise ParseError(f"{context}: expected [x, y]")
    return Point2(finite(raw[0], context), finite(raw[1], context))


def point_doc(p: Point2) -> list[float]:
    """The [x, y] pair of a Point2; parse_point's inverse."""
    return [p.x, p.y]
