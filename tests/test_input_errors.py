"""Malformed maps, worlds, score tables, configs and argv exit 2 with one error line.

Each regression test feeds one malformed input through ``main`` and checks
exit code 2, a single ``error:`` line on stderr and no exception. The
property tests mutate the golden documents and draw random argv, and check
that ``main`` always returns 0, 1 or 2.
"""

import copy
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semplan.cli import main
from semplan.errors import ParseError, ValidationError
from semplan.jsondoc import dump, finite, load_object, parse_point, point_doc

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_MAP = FIXTURES / "maps" / "golden_arena.json"
BRING_APPLE = FIXTURES / "scenarios" / "bring_apple"
HUGE = 10 ** 400  # 401 digits: finite in JSON, too large for a float
HUGE_LITERAL = pytest.param(str(HUGE), id="401-digit-int")
PLAN = "move_to(kitchen_table)\nfind_obj(apple)\ngrasp(apple)\nmove_to(operator)\nhandover\ndone\n"
MARK = "@@literal@@"


def golden_documents() -> dict:
    config = json.loads((BRING_APPLE / "config.json").read_text())
    config.update(map="map.json", world="world.json")  # scorer.path is scores.json already
    return {
        "map": json.loads(GOLDEN_MAP.read_text()),
        "world": json.loads((BRING_APPLE / "world.json").read_text()),
        "scores": json.loads((BRING_APPLE / "scores.json").read_text()),
        "config": config,
    }


GOLDEN = golden_documents()


def write_scenario(directory: Path, **texts) -> Path:
    """map/world/scores/config .json in directory: golden unless given as text."""
    for name, doc in GOLDEN.items():
        (directory / f"{name}.json").write_text(texts.get(name, json.dumps(doc)))
    (directory / "plan.txt").write_text(PLAN)
    return directory


def with_literal(name: str, path: tuple, literal: str) -> str:
    """The golden document with the value at path written as raw JSON text."""
    doc = copy.deepcopy(GOLDEN[name])
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = MARK
    return json.dumps(doc).replace(json.dumps(MARK), literal)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def assert_input_error(argv):
    code, err = run(argv)
    assert code == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def plan_task(directory: Path):
    return ["plan-task", "--config", directory / "config.json"]


def sim_run(directory: Path):
    return ["sim", "run", directory / "map.json", directory / "world.json", directory / "plan.txt"]


class TestRegressions:
    def test_locate_nan(self):
        assert_input_error(["locate", GOLDEN_MAP, "nan", "0"])

    def test_plan_path_start_inf(self):
        assert_input_error(["plan-path", GOLDEN_MAP, "--start", "inf", "0", "--goal", "1,1"])

    def test_plan_path_goal_nan(self):
        assert_input_error(["plan-path", GOLDEN_MAP, "--start", "4", "5", "--goal", "nan,1"])

    def test_map_coordinate_huge_integer(self, tmp_path):
        text = with_literal("map", ("rooms", 0, "contour", 0, 0), str(HUGE))
        write_scenario(tmp_path, map=text)
        assert_input_error(["map", "validate", tmp_path / "map.json"])

    @pytest.mark.parametrize("literal", ["1e400", HUGE_LITERAL])
    def test_world_robot_out_of_range(self, tmp_path, literal):
        write_scenario(tmp_path, world=with_literal("world", ("robot", 0), literal))
        assert_input_error(sim_run(tmp_path))

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400", HUGE_LITERAL])
    def test_score_not_finite(self, tmp_path, literal):
        text = with_literal("scores", ("rows", 0, "scores", "done"), literal)
        write_scenario(tmp_path, scores=text)
        assert_input_error(plan_task(tmp_path))

    def test_score_negative(self, tmp_path):
        write_scenario(tmp_path, scores=with_literal("scores", ("rows", 0, "scores", "done"), "-1"))
        assert_input_error(plan_task(tmp_path))

    @pytest.mark.parametrize("row, literal", [(0, "false"), (1, "true"), (1, "1.0")])
    def test_history_length_not_an_int(self, tmp_path, row, literal):
        write_scenario(tmp_path, scores=with_literal("scores", ("rows", row, "history_length"), literal))
        assert_input_error(plan_task(tmp_path))

    @pytest.mark.parametrize("scorer", [
        {"kind": "llm", "path": 5},
        {"kind": "scripted", "path": "scores.json", "modle": "typo"},
    ], ids=["path-not-a-string", "unknown-key"])
    def test_scorer_object_checked(self, tmp_path, scorer):
        write_scenario(tmp_path, config=json.dumps({**GOLDEN["config"], "scorer": scorer}))
        assert_input_error(plan_task(tmp_path))

    def test_goal_name_with_newline(self):
        assert_input_error(["plan-path", GOLDEN_MAP, "--start", "1", "1", "--goal", "so\nfa"])

    def test_centroid_overflow(self, tmp_path):
        def square(lo, hi):
            return [[lo, lo], [hi, lo], [hi, hi], [lo, hi]]

        doc = copy.deepcopy(GOLDEN["map"])
        doc["rooms"].append({"name": "far", "contour": square(1e200, 3e200)})
        doc["furniture"].append({"name": "desk", "room": "far", "contour": square(1.5e200, 2e200)})
        write_scenario(tmp_path, map=json.dumps(doc))
        assert_input_error(["map", "validate", tmp_path / "map.json"])

    @pytest.mark.parametrize("command", ["validate", "sim"])
    def test_room_centroid_overflow_named_at_load(self, tmp_path, command):
        doc = copy.deepcopy(GOLDEN["map"])
        doc["rooms"].append({"name": "far", "contour": [[1e200, 1e200], [3e200, 1e200],
                                                        [3e200, 3e200], [1e200, 3e200]]})
        write_scenario(tmp_path, map=json.dumps(doc))
        (tmp_path / "plan.txt").write_text("move_to(far)\n")
        argv = ["map", "validate", tmp_path / "map.json"] if command == "validate" else sim_run(tmp_path)
        assert_input_error(argv)
        assert run(argv)[1].startswith("error: far: ")

    def test_degenerate_furniture_named(self, tmp_path):
        doc = copy.deepcopy(GOLDEN["map"])
        room = doc["furniture"][0]["room"]
        x, y = doc["furniture"][0]["contour"][0]
        sliver = [[x, y], [x + 1e-7, y], [x, y + 1e-7]]
        doc["furniture"].append({"name": "crumb", "room": room, "contour": sliver})
        write_scenario(tmp_path, map=json.dumps(doc))
        argv = ["map", "validate", tmp_path / "map.json"]
        assert_input_error(argv)
        assert run(argv)[1].startswith("error: crumb: ")

    @pytest.mark.parametrize("kind, entity", [
        ("rooms", {"name": "operator", "contour": [[20, 0], [24, 0], [24, 4], [20, 4]]}),
        ("furniture", {"name": "operator", "room": "kitchen",
                       "contour": [[4, 4], [5, 4], [5, 5], [4, 5]]}),
    ])
    def test_place_named_operator(self, tmp_path, kind, entity):
        doc = copy.deepcopy(GOLDEN["map"])
        doc[kind].append(entity)
        write_scenario(tmp_path, map=json.dumps(doc))
        argv = ["map", "validate", tmp_path / "map.json"]
        assert_input_error(argv)
        assert run(argv)[1].startswith("error: operator: ")

    def test_sliver_room_anchor_on_its_boundary(self, tmp_path):
        doc = {"rooms": [
            {"name": "hall", "contour": [[0, -1], [4, -1], [4, 2], [0, 2]]},
            {"name": "sliver", "contour": [[1, 0], [2, 2e-21], [1, 1e-9]]},
        ]}
        write_scenario(tmp_path, map=json.dumps(doc))
        argv = ["map", "validate", tmp_path / "map.json"]
        assert_input_error(argv)
        assert run(argv)[1].startswith("error: sliver: ")

    def test_map_not_utf8(self, tmp_path):
        write_scenario(tmp_path)
        (tmp_path / "map.json").write_bytes(b'{"rooms": [{"name": "k\xff\xfe"}]}')
        assert_input_error(["map", "validate", tmp_path / "map.json"])

    def test_map_nested_too_deep(self, tmp_path):
        write_scenario(tmp_path, map="[" * 100000 + "]" * 100000)
        assert_input_error(["map", "validate", tmp_path / "map.json"])

    def test_integer_past_digit_limit(self, tmp_path):
        text = with_literal("map", ("rooms", 0, "contour", 0, 0), "1" * 5000)
        write_scenario(tmp_path, map=text)
        assert_input_error(["map", "validate", tmp_path / "map.json"])


VALIDATE = ("map", "validate")


class TestLoaderBranches:
    """One malformed value per loader check: exit 2 and that check's one-line message."""

    @pytest.mark.parametrize("name, path, literal, command, message", [
        ("map", ("rooms", 0, "name"), '""', VALIDATE, "<unnamed room>: empty name"),
        ("map", ("furniture", 0, "name"), '""', VALIDATE, "<unnamed furniture>: empty name"),
        ("map", ("doors", 0, "name"), '""', VALIDATE, "<unnamed door>: empty name"),
        ("map", ("furniture", 0, "room"), "5", VALIDATE, "furniture shelf: room must be a string"),
        ("map", ("doors", 0, "connects"), '["kitchen"]', VALIDATE,
         "door living_bedroom: connects must be [room, room]"),
        ("map", ("doors", 0, "connects"), '["kitchen", 3]', VALIDATE,
         "door living_bedroom: connects must be [room, room]"),
        ("map", ("doors", 0, "connects"), '"kitchen"', VALIDATE,
         "door living_bedroom: connects must be [room, room]"),
        ("map", ("doors", 0, "passable"), '"yes"', VALIDATE,
         "door living_bedroom: passable must be a boolean"),
        ("map", ("doors", 0, "passable"), "1", VALIDATE,
         "door living_bedroom: passable must be a boolean"),
        ("world", ("objects", "apple"), "5", ("sim",), "malformed object placement: 'apple'"),
        ("scores", ("rows", 0, "scores"), "{}", ("plan-task",),
         "row 0 scores must be a nonempty object"),
        ("scores", ("rows", 0, "scores"), "[1]", ("plan-task",),
         "row 0 scores must be a nonempty object"),
        ("config", ("scorer",), '{"kind": "scripted"}', ("plan-task",),
         "scripted scorer needs a path"),
        ("config", ("max_steps",), "0", ("plan-task",), "max_steps must be a positive integer"),
        ("config", ("max_steps",), "true", ("plan-task",), "max_steps must be a positive integer"),
        ("config", ("format",), '"yaml"', ("plan-task",), "format must be human or json"),
        ("map", ("rooms", 0, "contour"), '"square"', VALIDATE, "kitchen: contour must be an array"),
        ("map", ("doors",), "{}", VALIDATE, "doors must be an array"),
        ("map", ("rooms", 0, "name"), "5", VALIDATE, "rooms[0]: name must be a string"),
        ("config", ("scorer", "kind"), '"oracle"', ("plan-task",),
         "scorer must be {kind: scripted|llm, ...}"),
    ])
    def test_exit_2_with_the_message(self, tmp_path, name, path, literal, command, message):
        write_scenario(tmp_path, **{name: with_literal(name, path, literal)})
        if command == VALIDATE:
            argv = [*VALIDATE, tmp_path / "map.json"]
        else:
            argv = sim_run(tmp_path) if command == ("sim",) else plan_task(tmp_path)
        assert_input_error(argv)
        assert run(argv)[1] == f"error: {message}\n"


class TestJsondoc:
    def test_load_object_rejects_unknown_keys(self):
        with pytest.raises(ParseError):
            load_object('{"a": 1, "b": 2}', ("a",), "doc")
        assert load_object('{"a": 1}', ("a",), "doc") == {"a": 1}

    @pytest.mark.parametrize("value", [True, "1", None, [1]])
    def test_finite_rejects_non_numbers(self, value):
        with pytest.raises(ParseError):
            finite(value, "x")

    @pytest.mark.parametrize("value", [
        float("nan"), float("inf"), -float("inf"), pytest.param(-HUGE, id="-401-digit-int"),
    ])
    def test_finite_rejects_out_of_range(self, value):
        with pytest.raises(ValidationError):
            finite(value, "x")

    def test_parse_point(self):
        assert parse_point([1, 2.5], "p").y == 2.5
        with pytest.raises(ParseError):
            parse_point([1, 2, 3], "p")

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0, -0.0)
    def test_point_doc_inverts_parse_point(self, x, y):
        doc = point_doc(parse_point([x, y], "p"))
        assert [v.hex() for v in doc] == [x.hex(), y.hex()]
        assert [v.hex() for v in json.loads(dump(doc))] == [x.hex(), y.hex()]


LITERALS = (
    "NaN", "Infinity", "-Infinity", "1e400", str(HUGE), "-" + str(HUGE),
    "true", "false", "null", '"x"', '""', '"so\\nfa"', '"\\r\\u2028"', "[]", "{}", "0",
    "-1", "1e-300",
)


def locations(node, prefix=()):
    """Every key path into nested dicts and lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from locations(child, prefix + (key,))


@st.composite
def mutated_document(draw):
    """(name, text): a golden document with one to three keys dropped, renamed or replaced."""
    name = draw(st.sampled_from(sorted(GOLDEN)))
    doc = copy.deepcopy(GOLDEN[name])
    literals = {}
    for n in range(draw(st.integers(1, 3))):
        paths = list(locations(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        op = draw(st.sampled_from(("drop", "rename", "replace")))
        if op == "drop":
            del parent[path[-1]]
        elif op == "rename" and isinstance(parent, dict):
            parent[f"{path[-1]}_"] = parent.pop(path[-1])
        else:
            mark = f"@@{n}@@"
            parent[path[-1]] = mark
            literals[mark] = draw(st.sampled_from(LITERALS))
    text = json.dumps(doc)
    for mark, literal in literals.items():
        text = text.replace(json.dumps(mark), literal)
    return name, text


@settings(max_examples=200, deadline=None)
@given(mutated_document())
def test_mutated_documents_exit_0_1_or_2(case):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        directory = write_scenario(Path(tmp), **{name: text})
        map_validate = ["map", "validate", directory / "map.json"]
        for argv in (plan_task(directory), sim_run(directory), map_validate):
            code, err = run(argv)
            assert code in (0, 1, 2)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err


NUMBER = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", str(HUGE), "True", "", "1,2"]),
    st.text(max_size=6),
)
# Names may hold line breaks; an error that quotes one is still one line.
NAME_TEXT = st.text(alphabet=st.sampled_from("ab,\n\r\x85\u2028"), max_size=6)
GOAL = st.one_of(
    st.sampled_from(["kitchen_table", "shelf", "sofa", ""]),
    st.tuples(NUMBER, NUMBER).map(",".join),
    st.text(max_size=8),
    NAME_TEXT,
)
DOOR = st.one_of(
    st.sampled_from(["kitchen_living", "living_bedroom"]), st.text(max_size=6), NAME_TEXT
)


ARGV = st.one_of(
    st.tuples(NUMBER, NUMBER).map(lambda xy: ["locate", GOLDEN_MAP, *xy]),
    st.builds(
        lambda x, y, goal, doors: [
            "plan-path", GOLDEN_MAP, "--start", x, y, "--goal", goal,
            *[arg for door in doors for arg in ("--close-door", door)],
        ],
        NUMBER, NUMBER, GOAL, st.lists(DOOR, max_size=2),
    ),
)


@settings(max_examples=200, deadline=None)
@given(ARGV)
def test_random_argv_exit_0_1_or_2(argv):
    code, err = run(argv)
    assert code in (0, 1, 2)
    # argparse reports its own usage errors; every other error is one line.
    assert err == "" or err.startswith("usage: ") or (
        err.startswith("error: ") and err.count("\n") == 1
    ), err
