"""Record the CLI's exit code, stdout and stderr for a fixed set of argvs.

Writes tests/fixtures/golden/cli_outputs.json, which tests/test_cli_golden.py
replays in-process through semplan.cli.main. Each case holds an argv in
which "{fixtures}" stands for the tests/fixtures directory and "{plan}" for
a file holding the case's "plan" lines. Regenerate only when an output is
meant to change, and review the diff:

    PYTHONPATH=src python3 tools/gen_cli_golden.py < /dev/null
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from semplan.cli import main as cli_main
from semplan.jsondoc import dump

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"
OUT = FIXTURES / "golden" / "cli_outputs.json"
ARENA = "{fixtures}/maps/golden_arena.json"


def cases() -> list:
    out = []
    manifest = json.loads((FIXTURES / "scenarios" / "manifest.json").read_text())
    for entry in manifest:
        config = f"{{fixtures}}/scenarios/{entry['name']}/config.json"
        extra = [arg for answer in entry["answers"] for arg in ("--answer", answer)]
        if entry["goal"]:
            extra += ["--goal", entry["goal"]]
        for fmt in ("json", "human"):
            out.append({"argv": ["plan-task", "--config", config, *extra, "--format", fmt]})
    for entry in manifest:
        if entry["expected_steps"] is None:
            continue
        world = f"{{fixtures}}/scenarios/{entry['name']}/world.json"
        goal = ["--goal", entry["goal"]] if entry["goal"] else []
        for fmt in ("json", "human"):
            out.append({
                "argv": ["sim", "run", ARENA, world, "{plan}", *goal, "--format", fmt],
                "plan": entry["expected_steps"],
            })
    for path in sorted((FIXTURES / "maps").glob("*.json")):
        for fmt in ("json", "human"):
            out.append({"argv": ["map", "validate", f"{{fixtures}}/maps/{path.name}", "--format", fmt]})
    for fmt in ("json", "human"):
        out.extend([
            {"argv": ["plan-path", ARENA, "--start", "1", "5", "--goal", "shelf", "--format", fmt]},
            {"argv": ["plan-path", ARENA, "--start", "1", "5", "--goal", "17,5", "--format", fmt]},
            {"argv": ["plan-path", ARENA, "--start", "1", "5", "--goal", "shelf",
                      "--close-door", "living_bedroom", "--format", fmt]},
            {"argv": ["locate", ARENA, "4", "5", "--format", fmt]},
            {"argv": ["locate", ARENA, "2", "2", "--format", fmt]},
            {"argv": ["locate", ARENA, "100", "100", "--format", fmt]},
        ])
    # The failure branches: a failed skill, an unmet goal after a clean run,
    # and a plan-task whose goal does not hold.
    bring_apple = "{fixtures}/scenarios/bring_apple"
    for fmt in ("json", "human"):
        out.extend([
            {"argv": ["sim", "run", ARENA, f"{bring_apple}/world.json", "{plan}",
                      "--format", fmt],
             "plan": ["grasp(apple)"]},
            {"argv": ["sim", "run", ARENA, f"{bring_apple}/world.json", "{plan}",
                      "--goal", "deliver(apple)", "--format", fmt],
             "plan": ["done"]},
            {"argv": ["plan-task", "--config", f"{bring_apple}/config.json",
                      "--goal", "deliver(milk)", "--format", fmt]},
        ])
    return out


def run(case: dict, fixtures: Path, scratch: Path) -> dict:
    """Exit code, stdout and stderr of one case through semplan.cli.main."""
    plan = scratch / "plan.txt"
    if "plan" in case:
        plan.write_text("".join(line + "\n" for line in case["plan"]))
    argv = [a.replace("{fixtures}", str(fixtures)).replace("{plan}", str(plan))
            for a in case["argv"]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv)
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def main() -> int:
    recorded = []
    with tempfile.TemporaryDirectory() as scratch:
        for case in cases():
            recorded.append({**case, **run(case, FIXTURES, Path(scratch))})
    OUT.write_text(dump(recorded))
    print(f"wrote {len(recorded)} cases to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
