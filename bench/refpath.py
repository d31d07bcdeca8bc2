"""Reference shortest paths for the nav checks, independent of semplan.nav.

Rooms come from grid arithmetic and door rooms from the generator, not
from the program's containment tests. Each node is joined only to the
doors of its own rooms through a per-room door index. The priority key is
the one semplan documents: (length, door-name sequence), so equal-length
routes resolve the same way.
"""

from __future__ import annotations

import heapq
import math

# Generated door names are letters and underscores, so these cannot collide.
START = "<start>"
GOAL = "<goal>"


def shortest_route(grid, passable, start, goal):
    """(door names, length) of the shortest route, or None when none exists.

    ``passable`` is the set of open door names; ``start`` and ``goal`` are
    (x, y) points strictly inside rooms of ``grid``.
    """
    by_room: dict = {}
    for name in passable:
        for room in grid.doors[name][0]:
            by_room.setdefault(room, []).append(name)
    start_room = grid.room_at(*start)
    goal_room = grid.room_at(*goal)

    def neighbours(node):
        rooms = (start_room,) if node == START else grid.doors[node][0]
        for room in rooms:
            for name in by_room.get(room, ()):
                if name != node:
                    yield name, grid.doors[name][1]
            if room == goal_room:
                yield GOAL, goal

    queue = [(0.0, (), START, start)]
    best = {START: (0.0, ())}
    settled = set()
    while queue:
        dist, names, node, point = heapq.heappop(queue)
        if node in settled:
            continue
        settled.add(node)
        if node == GOAL:
            return names, dist
        for nxt, nxt_point in neighbours(node):
            if nxt in settled:
                continue
            key = (dist + math.hypot(point[0] - nxt_point[0], point[1] - nxt_point[1]),
                   names if nxt == GOAL else names + (nxt,))
            if nxt not in best or key < best[nxt]:
                best[nxt] = key
                heapq.heappush(queue, (key[0], key[1], nxt, nxt_point))
    return None
