"""Discrete world simulator for replaying skill plans.

World state is a value: each skill application returns a new state plus
an outcome, leaving the input untouched. Perception is room-scoped (a
robot only finds objects on furniture in its current room) and there is
a single gripper. Movement checks reachability, not routes: move_to and
follow_person succeed when the target's room is connected to the robot's
room through passable doors (nav.plan_path gives the route). Failures never
raise; they come back as outcomes so a whole plan can be folded into a trace.
Objects lie on map furniture only: load_world enforces it, and a world built
by hand must keep it too.

run_plan locates the robot once and carries its room through the fold: only
a move changes it, to the target's room. A place's anchor and that anchor's
room are computed once per map (SemanticMap.locate). Placements keep the
world file's order, place appends, and only the CLI's report sorts them.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import InvalidGoalSpec, ParseError, UnknownSkill, ValidationError
from .geometry import Point2, euclidean
from .jsondoc import load_object, parse_point
from .semantic_map import OPERATOR, SemanticMap, room_of
from .skills import SkillInstance

HANDOVER_RANGE = 1.0

GRIPPER_OCCUPIED = "GripperOccupied"
NOT_FOUND = "NotFound"
NOT_VISIBLE = "NotVisible"
NOTHING_HELD = "NothingHeld"
TOO_FAR = "TooFar"
NO_PATH = "NoPath"
UNKNOWN_LOCATION = "UnknownLocation"
NOT_IN_ROOM = "NotInRoom"


class SkillOutcome(NamedTuple):
    ok: bool
    reason: Optional[str] = None

    @classmethod
    def failed(cls, reason: str) -> "SkillOutcome":
        return cls(ok=False, reason=reason)


# Outcomes are values, so every success is this one.
_SUCCESS = SkillOutcome(ok=True)


class WorldState(NamedTuple):
    """Placements, robot and operator poses, gripper and found-set."""

    placements: dict
    robot: Point2
    operator: Point2
    held: Optional[str] = None
    found: frozenset = frozenset()
    delivered: tuple = ()


class ExecTrace(NamedTuple):
    steps: tuple
    final: WorldState

    def all_ok(self) -> bool:
        return all(outcome.ok for _, outcome in self.steps)


def load_world(smap: SemanticMap, text: str) -> WorldState:
    """Parse a world fixture: {objects: {name: furniture}, robot, operator}."""
    doc = load_object(text, ("objects", "robot", "operator"), "world")
    objects = doc.get("objects", {})
    if not isinstance(objects, dict):
        raise ParseError("objects must be an object of name -> furniture")
    for name, furniture in objects.items():
        if not isinstance(furniture, str):
            raise ParseError(f"malformed object placement: {name!r}")
        if furniture not in smap.index.furniture:
            raise ValidationError(name, f"unknown furniture {furniture!r}")

    poses = {}
    for key in ("robot", "operator"):
        poses[key] = parse_point(doc.get(key), key)
        if room_of(smap, poses[key]) is None:
            raise ValidationError(key, "outside every room")
    return WorldState(placements=objects, **poses)


def _go_to(smap: SemanticMap, world: WorldState, here, target: Point2, there):
    # Rooms are free space, so this holds exactly when nav.plan_path finds a route.
    if here is None or there is None or smap.components[here] != smap.components[there]:
        return world, SkillOutcome.failed(NO_PATH), here
    return WorldState(world.placements, target, world.operator, world.held, world.found,
                      world.delivered), _SUCCESS, there


def _apply(smap: SemanticMap, world: WorldState, skill: SkillInstance, here: Optional[str]):
    """apply_skill with here = room_of(smap, world.robot) given; also returns the new here."""
    name = skill.name
    if name == "follow_person" or name == "move_to" and skill.args[0] == OPERATOR:
        return _go_to(smap, world, here, world.operator, room_of(smap, world.operator))
    if name == "move_to":
        located = smap.locate(skill.args[0])
        if located is None:
            return world, SkillOutcome.failed(UNKNOWN_LOCATION), here
        return _go_to(smap, world, here, *located)

    if name == "find_obj":
        obj = skill.args[0]
        furniture = world.placements.get(obj)
        if furniture is None:
            return world, SkillOutcome.failed(NOT_FOUND), here
        if smap.find_furniture(furniture).room != here:
            return world, SkillOutcome.failed(NOT_VISIBLE), here
        return WorldState(world.placements, world.robot, world.operator, world.held,
                          world.found | {obj}, world.delivered), _SUCCESS, here

    if name == "grasp":
        obj = skill.args[0]
        if world.held is not None:
            return world, SkillOutcome.failed(GRIPPER_OCCUPIED), here
        if obj not in world.found:
            return world, SkillOutcome.failed(NOT_VISIBLE), here
        furniture = world.placements.get(obj)
        if furniture is None:
            return world, SkillOutcome.failed(NOT_FOUND), here
        if smap.find_furniture(furniture).room != here:
            return world, SkillOutcome.failed(NOT_IN_ROOM), here
        placements = {k: v for k, v in world.placements.items() if k != obj}
        return WorldState(placements, world.robot, world.operator, obj, world.found - {obj},
                          world.delivered), _SUCCESS, here

    if name == "place":
        if world.held is None:
            return world, SkillOutcome.failed(NOTHING_HELD), here
        furniture = smap.index.furniture.get(skill.args[0])
        if furniture is None:
            return world, SkillOutcome.failed(UNKNOWN_LOCATION), here
        if furniture.room != here:
            return world, SkillOutcome.failed(NOT_IN_ROOM), here
        placements = {**world.placements, world.held: furniture.name}
        return WorldState(placements, world.robot, world.operator, None, world.found,
                          world.delivered), _SUCCESS, here

    if name == "handover":
        if world.held is None:
            return world, SkillOutcome.failed(NOTHING_HELD), here
        if euclidean(world.robot, world.operator) > HANDOVER_RANGE:
            return world, SkillOutcome.failed(TOO_FAR), here
        return WorldState(world.placements, world.robot, world.operator, None, world.found,
                          world.delivered + (world.held,)), _SUCCESS, here

    if name == "answer" or name == "done":
        return world, _SUCCESS, here

    raise UnknownSkill(f"simulator has no semantics for {name}")


def apply_skill(smap: SemanticMap, world: WorldState, skill: SkillInstance):
    """One skill transition; failures return the input world unchanged."""
    world, outcome, _ = _apply(smap, world, skill, room_of(smap, world.robot))
    return world, outcome


def run_plan(smap: SemanticMap, world: WorldState, plan) -> ExecTrace:
    """Fold apply_skill over a plan; stop at the first failure or at done."""
    steps = []
    here = room_of(smap, world.robot)
    for skill in plan:
        world, outcome, here = _apply(smap, world, skill, here)
        steps.append((skill, outcome))
        if not outcome.ok or skill.name == "done":
            break
    return ExecTrace(steps=tuple(steps), final=world)


_GOAL = re.compile(r"^(deliver|place)\(([^,()]+)(?:,([^,()]+))?\)$")


def check_goal(world: WorldState, goal_spec: str) -> bool:
    """Evaluate "deliver(X)" or "place(X,F)" against a world state."""
    match = _GOAL.match(goal_spec.strip())
    if not match:
        raise InvalidGoalSpec(f"malformed goal: {goal_spec!r}")
    kind, first, second = match.group(1), match.group(2).strip(), match.group(3)
    if kind == "deliver":
        if second is not None:
            raise InvalidGoalSpec("deliver takes one argument")
        return first in world.delivered
    if second is None:
        raise InvalidGoalSpec("place takes two arguments")
    return world.placements.get(first) == second.strip()
