import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from semplan.cli import _answer_oracle, build_parser, main
from semplan.semantic_map import load_map
from semplan.skills import Clarification, ground_candidates, resolve_ambiguity

from mockllm import MockLlmServer


def maps(fixtures_dir, name):
    return str(fixtures_dir / "maps" / name)


def scenario(fixtures_dir, name):
    return str(fixtures_dir / "scenarios" / name / "config.json")


class TestMapValidate:
    def test_valid_map(self, fixtures_dir, capsys):
        assert main(["map", "validate", maps(fixtures_dir, "golden_arena.json")]) == 0
        out = capsys.readouterr().out
        assert "3 room(s)" in out

    def test_dangling_furniture_room(self, fixtures_dir, capsys):
        rc = main(["map", "validate", maps(fixtures_dir, "bad_dangling_room.json")])
        assert rc == 2
        assert "kitchen_table" in capsys.readouterr().err

    def test_self_intersecting(self, fixtures_dir, capsys):
        rc = main(["map", "validate", maps(fixtures_dir, "bad_self_intersecting.json")])
        assert rc == 2
        assert "SelfIntersecting" in capsys.readouterr().err

    def test_missing_file(self, fixtures_dir):
        assert main(["map", "validate", maps(fixtures_dir, "no_such.json")]) == 2

    def test_json_format(self, fixtures_dir, capsys):
        assert main(
            ["map", "validate", maps(fixtures_dir, "golden_arena.json"), "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "status": "ok",
            "rooms": 3,
            "furniture": 2,
            "doors": 2,
            "warnings": [],
        }

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 2
        assert main(["map"]) == 2

    @pytest.mark.parametrize("module", ["semplan.cli", "semplan"])
    def test_python_m_runs_the_cli(self, fixtures_dir, capsys, module):
        argv = ["map", "validate", maps(fixtures_dir, "golden_arena.json")]
        assert main(argv) == 0
        in_process = capsys.readouterr().out
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout and proc.stdout == in_process


class TestLocate:
    def test_room_interior(self, fixtures_dir, capsys):
        assert main(["locate", maps(fixtures_dir, "golden_arena.json"), "4", "5"]) == 0
        assert capsys.readouterr().out.strip() == "kitchen"

    def test_furniture_surface(self, fixtures_dir, capsys):
        assert main(["locate", maps(fixtures_dir, "golden_arena.json"), "2", "2"]) == 0
        assert capsys.readouterr().out.strip() == "kitchen/kitchen_table"

    def test_exterior(self, fixtures_dir, capsys):
        assert main(["locate", maps(fixtures_dir, "golden_arena.json"), "100", "100"]) == 1
        assert capsys.readouterr().out.strip() == "unknown"

    def test_json_format(self, fixtures_dir, capsys):
        rc = main(
            ["locate", maps(fixtures_dir, "golden_arena.json"), "2", "2", "--format", "json"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out) == {
            "room": "kitchen",
            "furniture": "kitchen_table",
        }


class TestPlanPath:
    def test_same_room_length(self, fixtures_dir, capsys):
        rc = main(
            [
                "plan-path", maps(fixtures_dir, "one_room.json"),
                "--start", "0", "0", "--goal", "3,4",
            ]
        )
        assert rc == 0
        assert "length: 5.000000" in capsys.readouterr().out

    def test_closed_sole_door(self, fixtures_dir):
        rc = main(
            [
                "plan-path", maps(fixtures_dir, "two_room.json"),
                "--start", "0", "0", "--goal", "9,3", "--close-door", "door_ab",
            ]
        )
        assert rc == 1

    def test_reroute_through_parallel_door(self, fixtures_dir, capsys):
        args = [
            "plan-path", maps(fixtures_dir, "parallel_doors.json"),
            "--start", "1", "0", "--goal", "7,0", "--format", "json",
        ]
        assert main(list(args)) == 0
        direct = json.loads(capsys.readouterr().out)
        assert main(args + ["--close-door", "door_mid"]) == 0
        rerouted = json.loads(capsys.readouterr().out)
        assert direct["doors"] == ["door_mid"]
        assert rerouted["doors"] == ["door_up"]
        assert rerouted["length"] > direct["length"]

    def test_furniture_goal(self, fixtures_dir, capsys):
        rc = main(
            [
                "plan-path", maps(fixtures_dir, "golden_arena.json"),
                "--start", "1", "5", "--goal", "shelf", "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["doors"] == ["kitchen_living", "living_bedroom"]

    def test_unknown_furniture(self, fixtures_dir):
        rc = main(
            [
                "plan-path", maps(fixtures_dir, "golden_arena.json"),
                "--start", "1", "5", "--goal", "bathtub",
            ]
        )
        assert rc == 2

    def test_start_outside(self, fixtures_dir):
        rc = main(
            [
                "plan-path", maps(fixtures_dir, "golden_arena.json"),
                "--start", "100", "100", "--goal", "shelf",
            ]
        )
        assert rc == 2

    def test_unknown_close_door(self, fixtures_dir):
        rc = main(
            [
                "plan-path", maps(fixtures_dir, "golden_arena.json"),
                "--start", "1", "5", "--goal", "shelf", "--close-door", "hatch",
            ]
        )
        assert rc == 2


class TestPlanTask:
    def test_golden_scenario(self, fixtures_dir, capsys):
        rc = main(["plan-task", "--config", scenario(fixtures_dir, "bring_apple")])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        assert [step["skill"] for step in doc["plan"]] == [
            "move_to(kitchen_table)",
            "find_obj(apple)",
            "grasp(apple)",
            "move_to(operator)",
            "handover",
            "done",
        ]
        assert all(step["ok"] for step in doc["execution"]["steps"])
        assert doc["execution"]["final"]["delivered"] == ["apple"]
        assert doc["metadata"] == {"scorer": "scripted"}

    def test_byte_identical_repeat_runs(self, fixtures_dir, capsys):
        config = scenario(fixtures_dir, "bring_apple")
        assert main(["plan-task", "--config", config]) == 0
        first = capsys.readouterr().out
        assert main(["plan-task", "--config", config]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_ambiguous_without_answer(self, fixtures_dir, capsys):
        rc = main(
            ["plan-task", "--config", scenario(fixtures_dir, "bring_ambiguous_object")]
        )
        assert rc == 2
        assert "ambiguous" in capsys.readouterr().err.lower()

    def test_ambiguous_with_answer(self, fixtures_dir, capsys):
        rc = main(
            [
                "plan-task",
                "--config", scenario(fixtures_dir, "bring_ambiguous_object"),
                "--answer", "apple",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"]["resolved"] == "Bring me the apple"
        assert doc["command"]["substitutions"] == [["object", "apple"]]

    def test_eof_at_prompt_is_no_answer(self, fixtures_dir, monkeypatch, capsys):
        def end_of_input(_prompt):
            raise EOFError

        monkeypatch.setattr(sys.stdin, "isatty", lambda: True)
        monkeypatch.setattr("builtins.input", end_of_input)
        rc = main(
            ["plan-task", "--config", scenario(fixtures_dir, "bring_ambiguous_object")]
        )
        assert rc == 2
        assert capsys.readouterr() == (
            "", "error: no answer for ambiguous token 'object'\n"
        )

    @pytest.mark.parametrize("stdout_tty, printed", [(True, "\n"), (False, "")])
    def test_eof_at_a_terminal_prompt_ends_the_prompt_line(
        self, monkeypatch, capsys, stdout_tty, printed
    ):
        def end_of_input(_prompt):
            raise EOFError

        monkeypatch.setattr("builtins.input", end_of_input)
        monkeypatch.setattr(sys.stdout, "isatty", lambda: stdout_tty)
        respond = _answer_oracle([], interactive=True)
        assert respond(Clarification(question='What does "it" refer to?', slot="it")) == ""
        assert capsys.readouterr() == (printed, "")

    def test_plan_too_long(self, fixtures_dir, capsys):
        rc = main(["plan-task", "--config", scenario(fixtures_dir, "stall")])
        assert rc == 1
        assert "20" in capsys.readouterr().err

    def test_goal_flag(self, fixtures_dir, capsys):
        config = scenario(fixtures_dir, "bring_apple")
        assert main(["plan-task", "--config", config, "--goal", "deliver(apple)"]) == 0
        assert json.loads(capsys.readouterr().out)["goal_satisfied"] is True
        assert main(["plan-task", "--config", config, "--goal", "deliver(milk)"]) == 1
        assert json.loads(capsys.readouterr().out)["goal_satisfied"] is False

    def test_missing_config(self, fixtures_dir):
        assert main(["plan-task", "--config", str(fixtures_dir / "nope.json")]) == 2

    def test_bad_config_keys(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"map": "m.json"}')
        assert main(["plan-task", "--config", str(config)]) == 2

    def test_llm_scorer_unconfigured(self, fixtures_dir, tmp_path, monkeypatch):
        monkeypatch.delenv("SEMPLAN_LLM_ENDPOINT", raising=False)
        monkeypatch.delenv("SEMPLAN_LLM_KEY", raising=False)
        base = fixtures_dir / "scenarios" / "bring_apple"
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "map": str(fixtures_dir / "maps" / "golden_arena.json"),
                    "world": str(base / "world.json"),
                    "command": "Bring me the apple",
                    "scorer": {"kind": "llm"},
                }
            )
        )
        assert main(["plan-task", "--config", str(config)]) == 2

    def test_llm_positive_logprob_is_one_error_line(
        self, fixtures_dir, tmp_path, monkeypatch, capsys
    ):
        smap = load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())
        command = resolve_ambiguity("Bring me the apple", lambda _c: "")
        logprobs = {c.to_text(): [-1.0] for c in ground_candidates(smap, command)}
        logprobs["done"] = [800.0]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "map": str(fixtures_dir / "maps" / "golden_arena.json"),
            "world": str(fixtures_dir / "scenarios" / "bring_apple" / "world.json"),
            "command": "Bring me the apple",
            "scorer": {"kind": "llm"},
        }))
        with MockLlmServer(logprobs) as server:
            monkeypatch.setenv("SEMPLAN_LLM_ENDPOINT", server.url)
            monkeypatch.setenv("SEMPLAN_LLM_KEY", "test-key")
            assert main(["plan-task", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: positive logprob") and err.count("\n") == 1, err

    def test_human_format_override(self, fixtures_dir, capsys):
        rc = main(
            [
                "plan-task",
                "--config", scenario(fixtures_dir, "bring_apple"),
                "--format", "human",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "1. move_to(kitchen_table)" in out
        assert "execution:" in out

    def test_scripted_run_loads_no_http_code(self, fixtures_dir):
        argv = ["plan-task", "--config", scenario(fixtures_dir, "bring_apple")]
        code = (
            "import sys, semplan.cli\n"
            f"semplan.cli.main({argv!r})\n"
            "print(sorted({'requests', 'urllib.request', 'http.client', 'concurrent.futures',"
            " 'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"


class TestSimRun:
    def write_plan(self, tmp_path, lines):
        plan = tmp_path / "plan.txt"
        plan.write_text("\n".join(lines) + "\n")
        return str(plan)

    def test_golden_plan(self, fixtures_dir, tmp_path, capsys):
        plan = self.write_plan(
            tmp_path,
            [
                "# golden delivery plan",
                "move_to(kitchen_table)",
                "find_obj(apple)",
                "grasp(apple)",
                "move_to(operator)",
                "handover",
                "done",
            ],
        )
        rc = main(
            [
                "sim", "run",
                maps(fixtures_dir, "golden_arena.json"),
                str(fixtures_dir / "worlds" / "golden_world.json"),
                plan,
                "--goal", "deliver(apple)",
                "--format", "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "ok"
        assert doc["goal_satisfied"] is True

    def test_premature_grasp_fails(self, fixtures_dir, tmp_path, capsys):
        plan = self.write_plan(tmp_path, ["grasp(apple)", "done"])
        rc = main(
            [
                "sim", "run",
                maps(fixtures_dir, "golden_arena.json"),
                str(fixtures_dir / "worlds" / "golden_world.json"),
                plan,
            ]
        )
        assert rc == 1
        assert "Failed(NotVisible)" in capsys.readouterr().out

    def test_world_object_order_does_not_reach_the_output(self, fixtures_dir, tmp_path, capsys):
        manifest = json.loads((fixtures_dir / "scenarios" / "manifest.json").read_text())
        swap = next(e for e in manifest if e["name"] == "swap_and_deliver")
        plan = self.write_plan(tmp_path, swap["expected_steps"])
        objects = {"milk": "shelf", "cup": "kitchen_table", "banana": "shelf",
                   "apple": "kitchen_table"}
        outputs = []
        for order in (objects, dict(sorted(objects.items()))):
            world = tmp_path / "world.json"
            world.write_text(json.dumps({"objects": order, "robot": [1, 5], "operator": [9, 3]}))
            argv = ["sim", "run", maps(fixtures_dir, "golden_arena.json"), str(world), plan,
                    "--goal", "deliver(milk)", "--format", "json"]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        placements = json.loads(outputs[0])["execution"]["final"]["placements"]
        assert list(placements.items()) == [
            ("apple", "shelf"), ("banana", "shelf"), ("cup", "kitchen_table")
        ]

    def test_malformed_plan_line(self, fixtures_dir, tmp_path):
        plan = self.write_plan(tmp_path, ["grasp()"])
        rc = main(
            [
                "sim", "run",
                maps(fixtures_dir, "golden_arena.json"),
                str(fixtures_dir / "worlds" / "golden_world.json"),
                plan,
            ]
        )
        assert rc == 2


def run_cli(capsys, argv, fresh=False):
    """(exit code, stdout, stderr) of one main call; fresh rebuilds the parser."""
    if fresh:
        build_parser.cache_clear()
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestParserReuse:
    """main builds its parser once per process; no call leaks into the next."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_close_door_does_not_carry_over(self, fixtures_dir, capsys):
        argv = [
            "plan-path", maps(fixtures_dir, "parallel_doors.json"),
            "--start", "1", "0", "--goal", "7,0", "--format", "json",
        ]
        expected = run_cli(capsys, argv, fresh=True)
        assert json.loads(expected[1])["doors"] == ["door_mid"]
        closed = run_cli(capsys, argv + ["--close-door", "door_mid"])
        assert json.loads(closed[1])["doors"] == ["door_up"]
        assert run_cli(capsys, argv) == expected

    def test_answer_does_not_carry_over(self, fixtures_dir, capsys):
        argv = ["plan-task", "--config", scenario(fixtures_dir, "bring_ambiguous_object")]
        expected = run_cli(capsys, argv, fresh=True)
        assert expected == (2, "", "error: no answer for ambiguous token 'object'\n")
        assert run_cli(capsys, argv + ["--answer", "apple"])[0] == 0
        assert run_cli(capsys, argv) == expected

    @pytest.mark.parametrize("before, code", [
        (["plan-path", "--start", "1"], 2),
        (["plan-task", "--answer", "apple", "--bogus"], 2),
        (["--help"], 0),
        (["plan-path", "--help"], 0),
    ])
    def test_usage_error_or_help_then_valid_call(self, fixtures_dir, capsys, before, code):
        argv = [
            "plan-path", maps(fixtures_dir, "parallel_doors.json"),
            "--start", "1", "0", "--goal", "7,0",
        ]
        expected = run_cli(capsys, argv, fresh=True)
        assert run_cli(capsys, before)[0] == code
        assert run_cli(capsys, argv) == expected
