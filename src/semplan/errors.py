"""Exception hierarchy shared across the package.

Everything raised on purpose derives from SemplanError so the CLI can map
failures to exit codes in one place.
"""

from __future__ import annotations


class SemplanError(Exception):
    """Base class for all package errors."""


class InvalidPolygon(SemplanError):
    """Contour fails a structural invariant.

    ``reason`` is one of ``TooFewVertices``, ``DuplicateVertex``,
    ``SelfIntersecting``.
    """

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        message = reason if not detail else f"{reason}: {detail}"
        super().__init__(message)


class DegeneratePolygon(SemplanError):
    """Polygon area is too small for an area-weighted centroid."""


class ParseError(SemplanError):
    """Document is not well-formed against the file schema."""


class ValidationError(SemplanError):
    """A named entity violates a map or world invariant."""

    def __init__(self, entity: str, reason: str):
        self.entity = entity
        self.reason = reason
        super().__init__(f"{entity}: {reason}")


class UnknownDoor(SemplanError):
    pass


class UnknownFurniture(SemplanError):
    pass


class OutsideArena(SemplanError):
    """Start or goal point lies in no room. ``which`` is 'start' or 'goal'."""

    def __init__(self, which: str):
        self.which = which
        super().__init__(f"{which} point lies outside every room")


class NoPath(SemplanError):
    """Goal room unreachable through passable doors."""


class UnresolvedAmbiguity(SemplanError):
    """Clarification oracle could not supply a usable proper noun."""


class PlanTooLong(SemplanError):
    """done was not selected within the step budget."""


class ScorerFailure(SemplanError):
    """Scoring backend failed: scenario exhausted, endpoint unreachable or
    malformed reply."""


class ConfigMissing(SemplanError):
    """LLM endpoint or credential not configured."""


class UnknownSkill(SemplanError):
    pass


class InvalidGoalSpec(SemplanError):
    """Goal string is not deliver(X) or place(X,F)."""
