"""Command-line surface: map checks, localisation, path and task planning.

Exit codes are uniform across subcommands: 0 for success, 1 when planning
or execution fails (no path, plan cap, scorer giving up, a failed skill),
2 for input or configuration problems. Machine output (--format json) is
canonical: two-space indent, sorted entity keys, one trailing newline, so
repeated runs of a scripted scenario are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Optional

from .errors import NoPath, ParseError, PlanTooLong, ScorerFailure, SemplanError
from .jsondoc import check_object, dump, load_object, parse_point, point_doc
from .nav import plan_path
from .scorer import LlmScorer, ScriptedScorer, load_scenario
from .semantic_map import load_map, map_warnings, semantic_location
from .sim import check_goal, load_world, run_plan
from .skills import (
    DEFAULT_MAX_STEPS,
    Clarification,
    ground_candidates,
    parse_skill,
    plan_task,
    resolve_ambiguity,
)

PLANNING_ERRORS = (NoPath, PlanTooLong, ScorerFailure)

# Every character str.splitlines breaks at, mapped to its escape (\n, \x85, ...).
_ESCAPE_LINE_BREAKS = str.maketrans(
    {c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
)


def _emit(doc: dict, human_lines, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(dump(doc))
    else:
        for line in human_lines:
            print(line)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except ValueError as err:  # undecodable bytes, or a NUL in the path
        raise ParseError(f"cannot read {path!r}: {err}") from None


def cmd_map_validate(args) -> int:
    smap = load_map(_read(args.map))
    warnings = map_warnings(smap)
    doc = {
        "status": "ok",
        "rooms": len(smap.rooms),
        "furniture": len(smap.furniture),
        "doors": len(smap.doors),
        "warnings": warnings,
    }
    lines = [
        f"OK: {len(smap.rooms)} room(s), {len(smap.furniture)} furniture, "
        f"{len(smap.doors)} door(s)"
    ]
    lines.extend(f"warning: {w}" for w in warnings)
    _emit(doc, lines, args.format)
    return 0


def cmd_locate(args) -> int:
    smap = load_map(_read(args.map))
    location = semantic_location(smap, parse_point([args.x, args.y], "point"))
    doc = {"room": location.room, "furniture": location.furniture}
    if location.room is None:
        _emit(doc, ["unknown"], args.format)
        return 1
    text = location.room if location.furniture is None else (
        f"{location.room}/{location.furniture}"
    )
    _emit(doc, [text], args.format)
    return 0


def _parse_goal(text: str):
    parts = text.split(",")
    if len(parts) == 2:
        try:
            coords = [float(part) for part in parts]
        except ValueError:
            return text
        return parse_point(coords, "goal")
    return text


def _path_doc(path) -> dict:
    waypoints = []
    for node in path.waypoints:
        entry = {"kind": node.kind, "position": point_doc(node.anchor)}
        if node.door_name is not None:
            entry["door"] = node.door_name
        waypoints.append(entry)
    return {
        "status": "ok",
        "length": path.length,
        "doors": list(path.door_names()),
        "waypoints": waypoints,
    }


def _path_lines(path) -> list:
    lines = ["waypoints:"]
    for node in path.waypoints:
        label = node.kind if node.door_name is None else f"door {node.door_name}"
        lines.append(f"  {label} ({node.anchor.x:.6f}, {node.anchor.y:.6f})")
    lines.append(f"length: {path.length:.6f}")
    return lines


def cmd_plan_path(args) -> int:
    smap = load_map(_read(args.map))
    for name in args.close_door:
        smap.find_door(name)
    goal = _parse_goal(args.goal)
    path = plan_path(smap, parse_point(args.start, "start"), goal, args.close_door)
    _emit(_path_doc(path), _path_lines(path), args.format)
    return 0


def load_scenario_config(path: str) -> dict:
    """Parse a scenario file; relative paths resolve against its directory."""
    base = Path(path).parent
    keys = ("map", "world", "command", "scorer", "max_steps", "format")
    doc = load_object(_read(path), keys, "scenario config")
    for key in ("map", "world", "command"):
        if not isinstance(doc.get(key), str):
            raise ParseError(f"scenario config needs a {key} string")
    scorer = check_object(doc.get("scorer"), ("kind", "path"), "scorer")
    if scorer.get("kind") not in ("scripted", "llm"):
        raise ParseError("scorer must be {kind: scripted|llm, ...}")
    if not isinstance(scorer.get("path", ""), str):
        raise ParseError("scorer path must be a string")
    if scorer["kind"] == "scripted" and "path" not in scorer:
        raise ParseError("scripted scorer needs a path")
    max_steps = doc.get("max_steps", DEFAULT_MAX_STEPS)
    if isinstance(max_steps, bool) or not isinstance(max_steps, int) or max_steps < 1:
        raise ParseError("max_steps must be a positive integer")
    fmt = doc.get("format", "human")
    if fmt not in ("human", "json"):
        raise ParseError("format must be human or json")
    resolved_scorer = dict(scorer)
    if "path" in resolved_scorer:
        resolved_scorer["path"] = str(base / resolved_scorer["path"])
    return {
        "map": str(base / doc["map"]),
        "world": str(base / doc["world"]),
        "command": doc["command"],
        "scorer": resolved_scorer,
        "max_steps": max_steps,
        "format": fmt,
    }


def _build_scorer(spec: dict):
    if spec["kind"] == "scripted":
        return ScriptedScorer(load_scenario(_read(spec["path"])))
    return LlmScorer.from_env()


def _answer_oracle(answers, interactive: bool):
    queue = list(answers)

    def respond(clarification: Clarification) -> str:
        if queue:
            return queue.pop(0)
        if interactive:
            try:
                return input(f"{clarification.question} ")
            except EOFError:  # Ctrl-D at the prompt: no answer
                if sys.stdout.isatty():
                    print()  # end the prompt's line before the error line
        return ""

    return respond


def _world_doc(world) -> dict:
    return {
        "robot": point_doc(world.robot),
        "operator": point_doc(world.operator),
        "held": world.held,
        "placements": dict(sorted(world.placements.items())),
        "found": sorted(world.found),
        "delivered": list(world.delivered),
    }


def _exec_doc(exec_trace) -> dict:
    return {
        "steps": [
            {"skill": skill.to_text(), "ok": outcome.ok, "reason": outcome.reason}
            for skill, outcome in exec_trace.steps
        ],
        "final": _world_doc(exec_trace.final),
    }


def _report(exec_trace, goal_ok: Optional[bool], fields: dict, lines, fmt: str) -> int:
    """Emit a plan run: status, fields, execution, goal; 1 on a failed skill or unmet goal."""
    ok = exec_trace.all_ok()
    doc = {"status": "ok" if ok else "failed", **fields, "execution": _exec_doc(exec_trace)}
    if goal_ok is not None:
        doc["goal_satisfied"] = goal_ok
    _emit(doc, lines, fmt)
    return 0 if ok and goal_ok is not False else 1


def _plan_fields(command, trace) -> dict:
    texts = {c: c.to_text() for c in set().union(*trace.step_scores)}
    return {
        "command": {
            "raw": command.raw,
            "resolved": command.resolved,
            "substitutions": [list(pair) for pair in command.substitutions],
        },
        "metadata": dict(trace.metadata),
        "plan": [
            {
                "skill": skill.to_text(),
                "scores": {texts[c]: value for c, value in scores.items()},
            }
            for skill, scores in zip(trace.steps, trace.step_scores)
        ],
    }


def _plan_lines(command, trace, exec_trace) -> list:
    lines = [f"command: {command.raw}"]
    if command.resolved != command.raw:
        lines.append(f"resolved: {command.resolved}")
    lines.append("plan:")
    for i, (skill, scores) in enumerate(zip(trace.steps, trace.step_scores), 1):
        lines.append(f"  {i}. {skill.to_text()}  (p={scores[skill]:.4f})")
    lines.extend(_exec_lines(exec_trace, None))
    world = exec_trace.final
    held = world.held if world.held else "nothing"
    lines.append(
        f"final: robot at ({world.robot.x:.6f}, {world.robot.y:.6f}), "
        f"holding {held}, delivered [{', '.join(world.delivered)}]"
    )
    return lines


def cmd_plan_task(args) -> int:
    config = load_scenario_config(args.config)
    fmt = args.format or config["format"]
    smap = load_map(_read(config["map"]))
    world = load_world(smap, _read(config["world"]))
    scorer = _build_scorer(config["scorer"])
    oracle = _answer_oracle(args.answer, sys.stdin.isatty())
    command = resolve_ambiguity(config["command"], oracle)
    universe = ground_candidates(smap, command)
    trace = plan_task(command, scorer, universe, max_steps=config["max_steps"])
    exec_trace = run_plan(smap, world, trace.steps)
    goal_ok = check_goal(exec_trace.final, args.goal) if args.goal else None
    lines = _plan_lines(command, trace, exec_trace)
    return _report(exec_trace, goal_ok, _plan_fields(command, trace), lines, fmt)


def _exec_lines(exec_trace, goal_ok: Optional[bool]) -> list:
    lines = ["execution:"]
    for i, (skill, outcome) in enumerate(exec_trace.steps, 1):
        state = "Ok" if outcome.ok else f"Failed({outcome.reason})"
        lines.append(f"  {i}. {skill.to_text()}  {state}")
    if goal_ok is not None:
        lines.append(f"goal satisfied: {'yes' if goal_ok else 'no'}")
    return lines


def cmd_sim_run(args) -> int:
    smap = load_map(_read(args.map))
    world = load_world(smap, _read(args.world))
    plan = []
    for line in _read(args.plan).splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            plan.append(parse_skill(line))
    exec_trace = run_plan(smap, world, plan)
    goal_ok = check_goal(exec_trace.final, args.goal) if args.goal else None
    return _report(exec_trace, goal_ok, {}, _exec_lines(exec_trace, goal_ok), args.format)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semplan",
        description="Semantic-map navigation and LLM-scored skill planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="human"):
        p.add_argument("--format", choices=("human", "json"), default=default)

    map_parser = sub.add_parser("map", help="semantic map utilities")
    map_sub = map_parser.add_subparsers(dest="map_command", required=True)
    validate = map_sub.add_parser("validate", help="check a map file")
    validate.add_argument("map")
    add_format(validate)
    validate.set_defaults(func=cmd_map_validate)

    locate = sub.add_parser("locate", help="semantic location of a point")
    locate.add_argument("map")
    locate.add_argument("x", type=float)
    locate.add_argument("y", type=float)
    add_format(locate)
    locate.set_defaults(func=cmd_locate)

    plan_path_cmd = sub.add_parser("plan-path", help="shortest door-graph path")
    plan_path_cmd.add_argument("map")
    plan_path_cmd.add_argument("--start", nargs=2, type=float, required=True,
                               metavar=("X", "Y"))
    plan_path_cmd.add_argument("--goal", required=True,
                               help="furniture name or X,Y")
    plan_path_cmd.add_argument("--close-door", action="append", default=[],
                               metavar="NAME")
    add_format(plan_path_cmd)
    plan_path_cmd.set_defaults(func=cmd_plan_path)

    plan_task_cmd = sub.add_parser("plan-task", help="plan and simulate a command")
    plan_task_cmd.add_argument("--config", required=True)
    plan_task_cmd.add_argument("--answer", action="append", default=[],
                               help="pre-supplied clarification answer")
    plan_task_cmd.add_argument("--goal", help="goal spec to check after execution")
    plan_task_cmd.add_argument("--format", choices=("human", "json"), default=None)
    plan_task_cmd.set_defaults(func=cmd_plan_task)

    sim_parser = sub.add_parser("sim", help="world simulator")
    sim_sub = sim_parser.add_subparsers(dest="sim_command", required=True)
    sim_run = sim_sub.add_parser("run", help="execute a plan file")
    sim_run.add_argument("map")
    sim_run.add_argument("world")
    sim_run.add_argument("plan", help="file with one skill per line")
    sim_run.add_argument("--goal", help="goal spec to check after execution")
    add_format(sim_run)
    sim_run.set_defaults(func=cmd_sim_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SemplanError, OSError) as err:
        # Names and argv text reach the message verbatim: escape line breaks
        # so that every error is one stderr line.
        print(f"error: {str(err).translate(_ESCAPE_LINE_BREAKS)}", file=sys.stderr)
        return 1 if isinstance(err, PLANNING_ERRORS) else 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
