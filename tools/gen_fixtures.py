"""Regenerate the scripted golden-scenario fixtures under tests/fixtures.

Each scenario is authored here as an intended skill sequence. The script
enumerates the admissible candidate set the planner will see at every
step, writes a score table that ranks the intended skill highest, then
verifies the whole loop: the scripted scorer reproduces the sequence,
the simulator executes it with all-Ok outcomes, and the goal holds.

Run from the repository root:  python3 tools/gen_fixtures.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from semplan.jsondoc import dump as dump_text
from semplan.scorer import ScriptedScorer, load_scenario
from semplan.semantic_map import load_map
from semplan.sim import check_goal, load_world, run_plan
from semplan.skills import (
    admissible_skills,
    ground_candidates,
    history_hints,
    parse_skill,
    plan_task,
    resolve_ambiguity,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
SCENARIOS = FIXTURES / "scenarios"

INTENDED_SCORE = 0.8
OTHER_SCORE = 0.02

SCENARIO_SPECS = [
    {
        "name": "bring_apple",
        "command": "Bring me the apple",
        "answers": [],
        "world": {"objects": {"apple": "kitchen_table"}, "robot": [16, 5], "operator": [9, 3]},
        "steps": [
            "move_to(kitchen_table)", "find_obj(apple)", "grasp(apple)",
            "move_to(operator)", "handover", "done",
        ],
        "goal": "deliver(apple)",
    },
    {
        "name": "bring_ambiguous_object",
        "command": "Bring me the object",
        "answers": ["apple"],
        "world": {"objects": {"apple": "kitchen_table"}, "robot": [16, 5], "operator": [9, 3]},
        "steps": [
            "move_to(kitchen_table)", "find_obj(apple)", "grasp(apple)",
            "move_to(operator)", "handover", "done",
        ],
        "goal": "deliver(apple)",
    },
    {
        "name": "put_cup_on_shelf",
        "command": "Put the cup on the shelf",
        "answers": [],
        "world": {"objects": {"cup": "kitchen_table"}, "robot": [1, 5], "operator": [9, 3]},
        "steps": [
            "move_to(kitchen_table)", "find_obj(cup)", "grasp(cup)",
            "move_to(shelf)", "place(shelf)", "done",
        ],
        "goal": "place(cup,shelf)",
    },
    {
        "name": "put_it_on_the_thing",
        "command": "Put it on the thing",
        "answers": ["cup", "shelf"],
        "world": {"objects": {"cup": "kitchen_table"}, "robot": [1, 5], "operator": [9, 3]},
        "steps": [
            "move_to(kitchen_table)", "find_obj(cup)", "grasp(cup)",
            "move_to(shelf)", "place(shelf)", "done",
        ],
        "goal": "place(cup,shelf)",
    },
    {
        "name": "follow_person",
        "command": "Follow the person",
        "answers": [],
        "world": {"objects": {}, "robot": [2, 2], "operator": [9, 3]},
        "steps": ["follow_person", "done"],
        "goal": None,
    },
    {
        "name": "answer_time",
        "command": "Tell me the time",
        "answers": [],
        "world": {"objects": {}, "robot": [3, 3], "operator": [3, 4]},
        "steps": ["answer(time)", "done"],
        "goal": None,
    },
    {
        "name": "bring_milk_from_shelf",
        "command": "Bring me the milk",
        "answers": [],
        "world": {"objects": {"milk": "shelf"}, "robot": [2, 2], "operator": [3, 5]},
        "steps": [
            "move_to(shelf)", "find_obj(milk)", "grasp(milk)",
            "move_to(operator)", "handover", "done",
        ],
        "goal": "deliver(milk)",
    },
    {
        "name": "restock_banana",
        "command": "Put the banana on the kitchen_table",
        "answers": [],
        "world": {"objects": {"banana": "shelf"}, "robot": [9, 3], "operator": [9, 3]},
        "steps": [
            "move_to(shelf)", "find_obj(banana)", "grasp(banana)",
            "move_to(kitchen_table)", "place(kitchen_table)", "done",
        ],
        "goal": "place(banana,kitchen_table)",
    },
    {
        "name": "swap_and_deliver",
        "command": "Put the apple on the shelf and bring me the milk",
        "answers": [],
        "world": {
            "objects": {"apple": "kitchen_table", "milk": "shelf"},
            "robot": [1, 5],
            "operator": [9, 3],
        },
        "steps": [
            "move_to(kitchen_table)", "find_obj(apple)", "grasp(apple)",
            "move_to(shelf)", "place(shelf)", "find_obj(milk)", "grasp(milk)",
            "move_to(operator)", "handover", "done",
        ],
        "goal": "deliver(milk)",
    },
    {
        "name": "inspect_kitchen",
        "command": "Go to the kitchen and find the apple",
        "answers": [],
        "world": {"objects": {"apple": "kitchen_table"}, "robot": [16, 5], "operator": [9, 3]},
        "steps": ["move_to(kitchen)", "find_obj(apple)", "done"],
        "goal": None,
    },
    {
        "name": "bring_something",
        "command": "Bring me something",
        "answers": ["milk"],
        "world": {"objects": {"milk": "shelf"}, "robot": [16, 5], "operator": [11, 3]},
        "steps": [
            "move_to(shelf)", "find_obj(milk)", "grasp(milk)",
            "move_to(operator)", "handover", "done",
        ],
        "goal": "deliver(milk)",
    },
    {
        "name": "stow_apple",
        "command": "Take the apple to the bedroom",
        "answers": [],
        "world": {"objects": {"apple": "kitchen_table"}, "robot": [9, 3], "operator": [9, 3]},
        "steps": [
            "move_to(kitchen_table)", "find_obj(apple)", "grasp(apple)",
            "move_to(bedroom)", "place(shelf)", "done",
        ],
        "goal": "place(apple,shelf)",
    },
]

# Alternates two skills forever so plan_task must hit its step cap.
STALL_SPEC = {
    "name": "stall",
    "command": "Bring me the apple",
    "answers": [],
    "world": {"objects": {"apple": "kitchen_table"}, "robot": [16, 5], "operator": [9, 3]},
    "steps": ["move_to(kitchen)", "find_obj(apple)"] * 10,
    "goal": None,
}


def dump(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dump_text(doc))


def build_rows(universe, intended):
    """One score table per step, covering that step's admissible set."""
    rows = []
    history: tuple = ()
    for step_text in intended:
        held, found = history_hints(history)
        candidates = admissible_skills(universe, history, held, found)
        texts = [c.to_text() for c in candidates]
        if step_text not in texts:
            raise SystemExit(
                f"intended step {step_text} not admissible after {list(history)}"
            )
        rows.append(
            {
                "history_length": len(history),
                "scores": {
                    t: (INTENDED_SCORE if t == step_text else OTHER_SCORE)
                    for t in texts
                },
            }
        )
        history = history + (parse_skill(step_text),)
    return rows


def generate(spec, smap, expect_completion: bool) -> dict:
    answers = list(spec["answers"])
    command = resolve_ambiguity(
        spec["command"], lambda _c: answers.pop(0) if answers else ""
    )
    universe = ground_candidates(smap, command)
    rows = build_rows(universe, spec["steps"])

    scenario_dir = SCENARIOS / spec["name"]
    dump(scenario_dir / "world.json", spec["world"])
    dump(scenario_dir / "scores.json", {"command": command.resolved, "rows": rows})
    dump(
        scenario_dir / "config.json",
        {
            "map": "../../maps/golden_arena.json",
            "world": "world.json",
            "command": spec["command"],
            "scorer": {"kind": "scripted", "path": "scores.json"},
            "max_steps": 20,
            "format": "json",
        },
    )

    if expect_completion:
        scorer = ScriptedScorer(load_scenario((scenario_dir / "scores.json").read_text()))
        trace = plan_task(command, scorer, universe)
        produced = [s.to_text() for s in trace.steps]
        if produced != spec["steps"]:
            raise SystemExit(f"{spec['name']}: planned {produced}, wanted {spec['steps']}")
        world = load_world(smap, (scenario_dir / "world.json").read_text())
        exec_trace = run_plan(smap, world, trace.steps)
        if not exec_trace.all_ok():
            raise SystemExit(f"{spec['name']}: simulation failed: {exec_trace.steps}")
        if spec["goal"] and not check_goal(exec_trace.final, spec["goal"]):
            raise SystemExit(f"{spec['name']}: goal {spec['goal']} not satisfied")

    return {
        "name": spec["name"],
        "command": spec["command"],
        "answers": spec["answers"],
        "goal": spec["goal"],
        "expected_steps": spec["steps"] if expect_completion else None,
        "expect": "ok" if expect_completion else "plan_too_long",
    }


def main() -> int:
    smap = load_map((FIXTURES / "maps" / "golden_arena.json").read_text())
    manifest = [generate(spec, smap, True) for spec in SCENARIO_SPECS]
    manifest.append(generate(STALL_SPEC, smap, False))
    dump(SCENARIOS / "manifest.json", manifest)
    print(f"wrote {len(manifest)} scenarios under {SCENARIOS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
