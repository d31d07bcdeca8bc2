"""Shortest semantic paths over the door graph.

Rooms are treated as free space: travel inside one room is a straight
line, so a path is fully described by the sequence of doors it passes
through. The door graph's nodes are the start point, the goal anchor and
every passable door; edges join nodes that share a room. The doors come
from SemanticMap.passable_doors, and a furniture goal's anchor and room
from SemanticMap.locate; both are built once per map. A query makes a
node only for the doors on the route it returns. Closed doors are skipped
by the search itself, so replanning copies no map.

Dijkstra relaxes neighbours in node-id order and breaks ties
lexicographically on the door-name sequence, so equal-length alternatives
resolve deterministically. That sequence is also the route, so the search
keeps no parent pointers.
"""

from __future__ import annotations

import heapq
from typing import Collection, NamedTuple, Union

from .errors import NoPath, OutsideArena
from .geometry import Point2, euclidean
from .semantic_map import SemanticMap, room_of

START = "start"
GOAL = "goal"
DOOR = "door"

class NavNode(NamedTuple):
    """One vertex of the door graph."""

    kind: str
    anchor: Point2
    rooms: frozenset[str]
    door_name: Union[str, None] = None


class Path(NamedTuple):
    """A start-to-goal waypoint sequence with its total metric length."""

    waypoints: tuple[NavNode, ...]
    length: float

    def door_names(self) -> tuple[str, ...]:
        return tuple([n.door_name for n in self.waypoints if n.kind == DOOR])


def plan_path(
    smap: SemanticMap, start: Point2, goal: Union[str, Point2], closed: Collection[str] = ()
) -> Path:
    """Shortest start-to-goal path through passable doors, avoiding the doors in closed.

    Errors come in a fixed order: UnknownDoor for the first name in closed
    that the map lacks, UnknownFurniture for a goal name, then OutsideArena
    for the start and then the goal. Among equal-length routes the one whose
    door-name sequence sorts first wins, so repeated runs agree bytewise.
    """
    for name in closed:
        smap.find_door(name)
    if isinstance(goal, Point2):
        goal_anchor, goal_room = goal, room_of(smap, goal)
    else:
        smap.find_furniture(goal)
        goal_anchor, goal_room = smap.locate(goal)
    start_room = room_of(smap, start)
    if start_room is None:
        raise OutsideArena(START)
    if goal_room is None:
        raise OutsideArena(GOAL)
    doors = smap.index.doors
    by_room = smap.passable_doors

    start_id, goal_id = (START,), (GOAL,)
    # Priority = (distance, door-name sequence); the sequence settles ties.
    best: dict[tuple, tuple[float, tuple[str, ...]]] = {start_id: (0.0, ())}
    queue: list[tuple[float, tuple[str, ...], tuple]] = [(0.0, (), start_id)]
    # Closed doors count as settled, so the search never enters them.
    settled: set[tuple] = {(DOOR, name) for name in closed}

    while queue:
        dist, names, node_id = heapq.heappop(queue)
        if node_id in settled:
            continue
        settled.add(node_id)
        if node_id == goal_id:
            route = [doors[name] for name in names]
            return Path(
                (
                    NavNode(START, start, frozenset((start_room,))),
                    *[NavNode(DOOR, d.position, frozenset(d.connects), d.name) for d in route],
                    NavNode(GOAL, goal_anchor, frozenset((goal_room,))),
                ),
                length=dist,
            )
        if node_id == start_id:
            anchor, rooms = start, (start_room,)
        else:
            door = doors[node_id[1]]
            anchor, rooms = door.position, door.connects
        # Neighbours in node-id order: doors by name, then the goal. The
        # start is settled first, so it is never one.
        joined = {(DOOR, name) for room in rooms for name in by_room[room]}
        if goal_room in rooms:
            joined.add(goal_id)
        for next_id in sorted(joined - settled):
            if next_id == goal_id:
                candidate = (dist + euclidean(anchor, goal_anchor), names)
            else:
                name = next_id[1]
                candidate = (dist + euclidean(anchor, doors[name].position), names + (name,))
            if next_id not in best or candidate < best[next_id]:
                best[next_id] = candidate
                heapq.heappush(queue, (candidate[0], candidate[1], next_id))

    raise NoPath(f"no passable-door route from {start} to {goal_anchor}")


def replan(
    smap: SemanticMap, current: Point2, goal: Union[str, Point2], closed_door: str
) -> Path:
    """Re-solve with one door closed, on the same map (raises UnknownDoor first)."""
    return plan_path(smap, current, goal, (closed_door,))
