"""Seeded input generators: grid and house maps, nav queries, task scenarios.

Every generator draws from a ``random.Random`` it is handed, so one seed
fixes every input. Names use letters and underscores only, because the
command tokenizer in ``semplan.skills`` splits words at digits: a digit in
a furniture name would turn its pieces into stray object words.
"""

from __future__ import annotations

import json

ROOM_SIZE = 4.0
# Doors and query points keep this far from room corners and walls, so no
# point lies on a contour shared by two rooms.
MARGIN = 0.5

OBJECTS = ("apple", "banana", "book", "bottle", "cup", "keys", "milk", "phone")
FURNITURE_KINDS = ("table", "shelf")

INTENDED_SCORE = 0.8
OTHER_SCORE = 0.02


def _letter(i: int) -> str:
    return chr(ord("a") + i)


def room_name(r: int, c: int) -> str:
    return f"room_{_letter(r)}{_letter(c)}"


def _rect(x0: float, y0: float, x1: float, y1: float) -> list:
    return [[x0, y0], [x1, y0], [x1, y1], [x0, y1]]


def _round(v: float) -> float:
    return round(v, 3)


class GridMap:
    """A rows x cols grid of square rooms, one door per shared wall.

    ``doc`` is the map document the program loads; the other fields are the
    generator's own knowledge of it, which the reference checks rely on
    instead of the program's geometry.
    """

    def __init__(self, rng, rows, cols, kinds=("table",), closed_fraction=0.0,
                 isolated_fraction=0.0):
        if rows > 26 or cols > 26:
            raise ValueError("room names cover at most 26 rows and columns")
        rooms, furniture, doors = [], [], []
        # furniture name -> (room, centre point) and door name -> (rooms, position)
        self.furniture_at: dict = {}
        self.doors: dict = {}
        for r in range(rows):
            for c in range(cols):
                x0, y0 = c * ROOM_SIZE, r * ROOM_SIZE
                name = room_name(r, c)
                rooms.append({"name": name, "contour": _rect(x0, y0, x0 + ROOM_SIZE, y0 + ROOM_SIZE)})
                strip = ROOM_SIZE / len(kinds)
                for k, kind in enumerate(kinds):
                    w = _round(rng.uniform(0.3, 0.6) * strip)
                    h = _round(rng.uniform(0.6, 1.2))
                    fx = _round(x0 + k * strip + rng.uniform(0.3, strip - 0.3 - w))
                    fy = _round(y0 + rng.uniform(0.3, ROOM_SIZE - 0.3 - h))
                    fname = f"{kind}_{_letter(r)}{_letter(c)}"
                    furniture.append({"name": fname, "room": name,
                                      "contour": _rect(fx, fy, fx + w, fy + h)})
                    self.furniture_at[fname] = (name, (fx + w / 2.0, fy + h / 2.0))
        for r in range(rows):
            for c in range(cols):
                for dr, dc in ((0, 1), (1, 0)):
                    r2, c2 = r + dr, c + dc
                    if r2 >= rows or c2 >= cols:
                        continue
                    offset = _round(rng.uniform(MARGIN, ROOM_SIZE - MARGIN))
                    if dc:
                        pos = [c2 * ROOM_SIZE, _round(r * ROOM_SIZE + offset)]
                    else:
                        pos = [_round(c * ROOM_SIZE + offset), r2 * ROOM_SIZE]
                    a, b = room_name(r, c), room_name(r2, c2)
                    dname = f"door_{a[5:]}_{b[5:]}"
                    doors.append({"name": dname, "position": pos, "connects": [a, b],
                                  "passable": True})
                    self.doors[dname] = ((a, b), (pos[0], pos[1]))
        self.room_names = [r["name"] for r in rooms]
        # Exact counts, not a coin per door, so every seed gives a map with
        # the same number of open doors and the same graph size.
        isolated = set(rng.sample(self.room_names, int(round(isolated_fraction * len(rooms)))))
        others = [d for d in doors if not isolated & set(d["connects"])]
        closed = rng.sample(others, int(round(closed_fraction * len(doors))))
        for d in doors:
            if isolated & set(d["connects"]):
                d["passable"] = False
        for d in closed:
            d["passable"] = False
        self.passable = {d["name"] for d in doors if d["passable"]}
        self.doc = {"rooms": rooms, "furniture": furniture, "doors": doors}

    def text(self) -> str:
        return json.dumps(self.doc)

    def room_at(self, x: float, y: float) -> str:
        """Room of an interior point, by grid arithmetic."""
        return room_name(int(y // ROOM_SIZE), int(x // ROOM_SIZE))

    def interior_point(self, rng, room: str) -> tuple:
        r, c = ord(room[5]) - ord("a"), ord(room[6]) - ord("a")
        return (
            _round(c * ROOM_SIZE + rng.uniform(MARGIN, ROOM_SIZE - MARGIN)),
            _round(r * ROOM_SIZE + rng.uniform(MARGIN, ROOM_SIZE - MARGIN)),
        )

    def doors_of(self, room: str) -> list:
        return sorted(n for n, (rooms, _) in self.doors.items() if room in rooms)


def nav_queries(rng, grid: GridMap, count: int) -> list:
    """Start point, goal (furniture name or point), and plan or replan.

    The kinds cycle through the four pairs of (furniture or point goal,
    plan or replan), so every seed has the same mix; the seed picks the
    points, goals and doors. A replan closes a door of the start or goal
    room, preferring one that is still open, so it usually forces a detour.
    """
    furniture = sorted(grid.furniture_at)
    queries = []
    for k in range(count):
        start_room = rng.choice(grid.room_names)
        start = grid.interior_point(rng, start_room)
        if k % 2 == 0:
            goal = rng.choice(furniture)
            goal_room = grid.furniture_at[goal][0]
        else:
            goal_room = rng.choice(grid.room_names)
            goal = grid.interior_point(rng, goal_room)
        door = None
        if k % 4 >= 2:
            near = grid.doors_of(start_room) + grid.doors_of(goal_room)
            open_near = [d for d in near if d in grid.passable]
            door = rng.choice(open_near or near)
        queries.append({"start": start, "goal": goal, "close": door})
    return queries


def house_task(rng, rows: int, cols: int):
    """A house map with a fetch or put-away task whose plan is known.

    Returns (grid, world document, task dict); the task holds the command,
    the clarification answers, the intended steps and the goal spec.
    """
    grid = GridMap(rng, rows, cols, kinds=FURNITURE_KINDS)
    furniture = sorted(grid.furniture_at)
    placed = rng.sample(OBJECTS, 3)
    spots = rng.sample(furniture, 3)
    objects = dict(zip(placed, spots))
    target, source = placed[0], spots[0]
    robot = grid.interior_point(rng, rng.choice(grid.room_names))
    operator = grid.interior_point(rng, rng.choice(grid.room_names))
    world = {"objects": objects, "robot": list(robot), "operator": list(operator)}

    kind = rng.choice(("bring", "bring_vague", "put"))
    fetch = [f"move_to({source})", f"find_obj({target})", f"grasp({target})"]
    if kind == "put":
        dest = rng.choice([f for f in furniture if grid.furniture_at[f][0] != grid.furniture_at[source][0]])
        task = {
            "command": f"Put the {target} on the {dest}",
            "answers": [],
            "steps": fetch + [f"move_to({dest})", f"place({dest})", "done"],
            "goal": f"place({target},{dest})",
        }
    else:
        task = {
            "command": "Bring me the object" if kind == "bring_vague" else f"Bring me the {target}",
            "answers": [target] if kind == "bring_vague" else [],
            "steps": fetch + ["move_to(operator)", "handover", "done"],
            "goal": f"deliver({target})",
        }
    return grid, world, task


def score_rows(skills, universe, intended) -> list:
    """One score table per step over that step's admissible candidates.

    The intended skill scores INTENDED_SCORE and every other admissible
    candidate OTHER_SCORE, so the argmax replays the intended plan.
    """
    rows = []
    history: tuple = ()
    for step_text in intended:
        held, found = skills.history_hints(history)
        texts = [c.to_text() for c in skills.admissible_skills(universe, history, held, found)]
        if step_text not in texts:
            raise ValueError(f"intended step {step_text} not admissible after {list(history)}")
        rows.append({
            "history_length": len(history),
            "scores": {t: INTENDED_SCORE if t == step_text else OTHER_SCORE for t in texts},
        })
        history = history + (skills.parse_skill(step_text),)
    return rows
