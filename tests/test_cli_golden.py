"""Replay the recorded CLI outputs byte for byte (tools/gen_cli_golden.py)."""

import json
from pathlib import Path

import pytest

from semplan.cli import build_parser, main

GOLDEN = Path(__file__).parent / "fixtures" / "golden" / "cli_outputs.json"
CASES = json.loads(GOLDEN.read_text())


def test_golden_covers_every_subcommand():
    assert {case["argv"][0] for case in CASES} == {
        "plan-task", "sim", "map", "plan-path", "locate"
    }
    assert sum(case["argv"][0] == "plan-task" for case in CASES) == 28


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{c['argv'][0]}" for i, c in enumerate(CASES)]
)
def test_cli_output_matches_golden(case, fixtures_dir, tmp_path, capsys):
    assert replay(case, fixtures_dir, tmp_path, capsys) == expected(case)


def test_reverse_order_through_one_parser(fixtures_dir, tmp_path, capsys):
    """All cases, last first, through one parser: none leaks state into a later one."""
    build_parser.cache_clear()
    for case in reversed(CASES):
        assert replay(case, fixtures_dir, tmp_path, capsys) == expected(case), case["argv"]
    assert build_parser.cache_info().misses == 1


def replay(case, fixtures_dir, tmp_path, capsys) -> tuple:
    plan = tmp_path / "plan.txt"
    if "plan" in case:
        plan.write_text("".join(line + "\n" for line in case["plan"]))
    argv = [
        a.replace("{fixtures}", str(fixtures_dir)).replace("{plan}", str(plan))
        for a in case["argv"]
    ]
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def expected(case) -> tuple:
    return case["exit"], case["stdout"], case["stderr"]
