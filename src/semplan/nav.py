"""Door-graph construction and shortest semantic paths.

Rooms are treated as free space: travel inside one room is a straight
line, so a path is fully described by the sequence of doors it passes
through. The planner builds a graph over the start point, the goal anchor
and every passable door, buckets the nodes by room and joins nodes only
within a bucket; a node's edges are computed when Dijkstra first expands
it. Dijkstra breaks ties lexicographically on the door-name sequence, so
equal-length alternatives resolve deterministically, and keeps one parent
pointer per node to rebuild the route once, at the goal.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Union

from .errors import NoPath, OutsideArena
from .geometry import Point2, euclidean
from .semantic_map import SemanticMap, furniture_anchor, room_of, set_door_passable

START = "start"
GOAL = "goal"
DOOR = "door"

@dataclass(frozen=True)
class NavNode:
    """One vertex of the door graph."""

    kind: str
    anchor: Point2
    rooms: frozenset[str]
    door_name: Union[str, None] = None


@dataclass(frozen=True)
class Path:
    """A start-to-goal waypoint sequence with its total metric length."""

    waypoints: tuple[NavNode, ...]
    length: float

    def door_names(self) -> tuple[str, ...]:
        return tuple([n.door_name for n in self.waypoints if n.kind == DOOR])


@dataclass(frozen=True)
class DoorGraph:
    """Start, goal and passable doors; edges join nodes sharing a room.

    Node ids are ("start",), ("goal",) and ("door", name). Tuples keep door
    names from colliding with the two reserved endpoints.
    """

    nodes: dict
    edges: dict
    buckets: dict  # room name -> ids of the nodes in that room

    def neighbours(self, node_id: tuple):
        """(neighbour id, edge length) pairs, sorted by neighbour id."""
        found = self.edges.get(node_id)
        if found is None:
            node = self.nodes[node_id]
            joined = set()
            for room in node.rooms:
                joined.update(self.buckets[room])
            joined.discard(node_id)
            found = self.edges[node_id] = [
                (other, euclidean(node.anchor, self.nodes[other].anchor))
                for other in sorted(joined)
            ]
        return found


def _endpoint_node(smap: SemanticMap, kind: str, point: Point2) -> NavNode:
    room = room_of(smap, point)
    if room is None:
        raise OutsideArena(kind)
    return NavNode(kind=kind, anchor=point, rooms=frozenset((room,)))


def build_door_graph(smap: SemanticMap, start: Point2, goal_anchor: Point2) -> DoorGraph:
    """Graph over start, goal and passable doors; edges join nodes sharing a room."""
    nodes = {
        (START,): _endpoint_node(smap, START, start),
        (GOAL,): _endpoint_node(smap, GOAL, goal_anchor),
    }
    for door in smap.doors:
        if door.passable:
            nodes[(DOOR, door.name)] = NavNode(
                kind=DOOR,
                anchor=door.position,
                rooms=frozenset(door.connects),
                door_name=door.name,
            )
    buckets: dict = {}
    for node_id, node in nodes.items():
        for room in node.rooms:
            buckets.setdefault(room, []).append(node_id)
    return DoorGraph(nodes=nodes, edges={}, buckets=buckets)


def plan_path(smap: SemanticMap, start: Point2, goal: Union[str, Point2]) -> Path:
    """Shortest start-to-goal path through passable doors.

    Dijkstra over the door graph. Among equal-length routes the one whose
    door-name sequence sorts first wins, so repeated runs agree bytewise.
    """
    goal_anchor = goal if isinstance(goal, Point2) else furniture_anchor(smap, goal)
    graph = build_door_graph(smap, start, goal_anchor)

    start_id = (START,)
    goal_id = (GOAL,)
    # Priority = (distance, door-name sequence); the sequence settles ties.
    best: dict[tuple, tuple[float, tuple[str, ...]]] = {start_id: (0.0, ())}
    parent: dict[tuple, tuple] = {}
    queue: list[tuple[float, tuple[str, ...], tuple]] = [(0.0, (), start_id)]
    settled: set[tuple] = set()

    while queue:
        dist, names, node_id = heapq.heappop(queue)
        if node_id in settled:
            continue
        settled.add(node_id)
        if node_id == goal_id:
            route = [node_id]
            while route[-1] != start_id:
                route.append(parent[route[-1]])
            return Path(tuple([graph.nodes[i] for i in reversed(route)]), length=dist)
        for next_id, weight in graph.neighbours(node_id):
            if next_id in settled:
                continue
            next_names = names + (next_id[1],) if next_id[0] == DOOR else names
            candidate = (dist + weight, next_names)
            if next_id not in best or candidate < best[next_id]:
                best[next_id] = candidate
                parent[next_id] = node_id
                heapq.heappush(queue, (candidate[0], candidate[1], next_id))

    raise NoPath(f"no passable-door route from {start} to {goal_anchor}")


def replan(
    smap: SemanticMap, current: Point2, goal: Union[str, Point2], closed_door: str
) -> Path:
    """Re-solve after marking one door impassable (raises UnknownDoor first)."""
    return plan_path(set_door_passable(smap, closed_door, False), current, goal)


def path_length(path: Path) -> float:
    """Recompute the summed segment lengths of a path."""
    total = 0.0
    for a, b in zip(path.waypoints, path.waypoints[1:]):
        total += euclidean(a.anchor, b.anchor)
    return total
