"""Independent test oracles.

These are deliberately written against raw coordinate tuples and kept free
of any import from the package under test, so they stay an independent
cross-check rather than a mirror of the implementation.
"""

from __future__ import annotations

import heapq
import itertools
import math


def ray_cast_contains(px: float, py: float, vertices: list[tuple[float, float]]) -> bool:
    """Classic even-odd ray casting test (horizontal ray to +x).

    Boundary behaviour is unspecified; callers must keep test points away
    from the edges.
    """
    inside = False
    n = len(vertices)
    j = n - 1
    for i in range(n):
        xi, yi = vertices[i]
        xj, yj = vertices[j]
        if (yi > py) != (yj > py):
            x_cross = (xj - xi) * (py - yi) / (yj - yi) + xi
            if px < x_cross:
                inside = not inside
        j = i
    return inside


def _dist(a: tuple[float, float], b: tuple[float, float]) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


def point_segment_distance(
    p: tuple[float, float], a: tuple[float, float], b: tuple[float, float]
) -> float:
    """Distance from p to the closed segment ab."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def min_edge_distance(p: tuple[float, float], vertices: list[tuple[float, float]]) -> float:
    n = len(vertices)
    return min(
        point_segment_distance(p, vertices[i], vertices[(i + 1) % n]) for i in range(n)
    )


def two_walk_containment(
    p: tuple[float, float], vertices: list[tuple[float, float]], eps: float
) -> str:
    """"boundary", "inside" or "outside": the edge distances, then the winding number.

    The reference for geometry.point_in_polygon, which does both in one
    walk; the float operations are the same, so the two agree exactly.
    """
    n = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    if any(point_segment_distance(p, a, b) <= eps for a, b in edges):
        return "boundary"
    px, py = p
    winding = 0
    for (ax, ay), (bx, by) in edges:
        side = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        if ay <= py:
            if by > py and side > 0:
                winding += 1
        elif by <= py and side < 0:
            winding -= 1
    return "inside" if winding != 0 else "outside"


def check_rule_compliance(steps: list[tuple[str, tuple[str, ...]]]) -> list[str]:
    """Planning-rule violations in a (name, args) step sequence.

    Checks, independently of the planner: no consecutive repeats of one
    skill name, grasp only of an object found since the last grasp, one
    gripper (find_obj/grasp need it empty, place/handover need it full).
    """
    violations = []
    held = None
    findable: set[str] = set()
    prev_name = None
    for i, (name, args) in enumerate(steps):
        if name == prev_name:
            violations.append(f"step {i}: {name} repeats the previous skill name")
        if name == "grasp":
            if args[0] not in findable:
                violations.append(f"step {i}: grasp({args[0]}) without a fresh find_obj")
            if held is not None:
                violations.append(f"step {i}: grasp while holding {held}")
            held = args[0]
            findable = set()
        elif name == "find_obj":
            if held is not None:
                violations.append(f"step {i}: find_obj while holding {held}")
            findable.add(args[0])
        elif name in ("place", "handover"):
            if held is None:
                violations.append(f"step {i}: {name} with empty gripper")
            held = None
        prev_name = name
    return violations


def brute_force_shortest(
    start: tuple[float, float],
    start_room: str,
    goal: tuple[float, float],
    goal_room: str,
    doors: list[tuple[str, tuple[float, float], frozenset[str], bool]],
) -> tuple[float, list[str]] | None:
    """Exhaustive minimum over all simple door sequences.

    Doors are (name, position, {room_a, room_b}, passable) tuples. A
    sequence d1..dk is feasible when start_room is served by d1, consecutive
    doors share a room, and dk serves goal_room; the empty sequence is
    feasible when start_room == goal_room. Returns (length, door names) for
    the best sequence with ties broken by lexicographic door-name order, or
    None when no sequence connects start to goal.
    """
    open_doors = [d for d in doors if d[3]]
    best: tuple[float, list[str]] | None = None

    def consider(candidate: tuple[float, list[str]]) -> None:
        nonlocal best
        if best is None or candidate[0] < best[0] - 1e-12:
            best = candidate
        elif abs(candidate[0] - best[0]) <= 1e-12 and candidate[1] < best[1]:
            best = candidate

    if start_room == goal_room:
        consider((_dist(start, goal), []))

    for k in range(1, len(open_doors) + 1):
        for seq in itertools.permutations(open_doors, k):
            if start_room not in seq[0][2]:
                continue
            if goal_room not in seq[-1][2]:
                continue
            feasible = all(seq[i][2] & seq[i + 1][2] for i in range(k - 1))
            if not feasible:
                continue
            length = _dist(start, seq[0][1])
            for i in range(k - 1):
                length += _dist(seq[i][1], seq[i + 1][1])
            length += _dist(seq[-1][1], goal)
            consider((length, [d[0] for d in seq]))

    return best


def path_length(points: list[tuple[float, float]]) -> float:
    """Summed segment lengths along a waypoint sequence, in order."""
    total = 0.0
    for a, b in zip(points, points[1:]):
        total += _dist(a, b)
    return total


def all_pairs_dijkstra(
    start: tuple[float, float],
    start_room: str,
    goal: tuple[float, float],
    goal_room: str,
    doors: list[tuple[str, tuple[float, float], frozenset[str], bool]],
) -> tuple[float, list[str], list[tuple[float, float]]] | None:
    """Dijkstra over an explicit all-pairs door graph, built in O(D^2).

    Nodes are ("start",), ("goal",) and ("door", name) for each passable
    door of the (name, position, {room_a, room_b}, passable) tuples; every
    two nodes that share a room are joined, weighted by their distance.
    A node is settled by the least (distance, door names) key, so ties go
    to the lexicographically first door sequence, and distances are summed
    segment by segment along the route. Returns (length, door names,
    waypoints) or None when the goal is unreachable.
    """
    anchors = {("start",): start, ("goal",): goal}
    rooms = {("start",): {start_room}, ("goal",): {goal_room}}
    for name, position, pair, passable in doors:
        if passable:
            anchors[("door", name)] = position
            rooms[("door", name)] = set(pair)
    edges = {
        a: [(b, _dist(anchors[a], anchors[b]))
            for b in sorted(anchors) if b != a and rooms[a] & rooms[b]]
        for a in anchors
    }
    best = {("start",): (0.0, ())}
    queue = [(0.0, (), ("start",))]
    settled = set()
    while queue:
        dist, names, node = heapq.heappop(queue)
        if node in settled:
            continue
        settled.add(node)
        if node == ("goal",):
            points = [start] + [anchors[("door", n)] for n in names] + [goal]
            return dist, list(names), points
        for other, weight in edges[node]:
            if other in settled:
                continue
            key = (dist + weight, names + (other[1],) if other[0] == "door" else names)
            if other not in best or key < best[other]:
                best[other] = key
                heapq.heappush(queue, (*key, other))
    return None


def subset_scripted_score(scenario, request, failure, response):
    """A scripted scorer's reply as a copy of the row's entries for the candidates.

    The reference for scorer.ScriptedScorer.score, which returns a row whose
    keys are the candidates themselves without copying it. scenario is a
    (command, rows) pair; failure and response are the exception and the
    response type to build, passed in so that this module imports nothing
    from the package.
    """
    command, rows = scenario
    if request.command != command:
        raise failure(f"scenario scripted for {command!r}, got {request.command!r}")
    step = len(request.history)
    if step >= len(rows):
        raise failure(f"scenario exhausted at history length {step}")
    table = rows[step]
    try:
        scores = {c: table[c] for c in request.candidates}
    except KeyError as err:
        raise failure(f"no scripted score for {err.args[0].to_text()} at step {step}") from None
    return response(scores)
