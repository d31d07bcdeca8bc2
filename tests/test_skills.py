import json
import operator
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semplan.errors import (
    ParseError,
    PlanTooLong,
    ScorerFailure,
    UnknownSkill,
    UnresolvedAmbiguity,
)
from semplan.scorer import ScoreResponse, load_scenario
from semplan.semantic_map import load_map, save_map
from semplan.skills import (
    AMBIGUOUS_VOCABULARY,
    Clarification,
    Command,
    PlanTrace,
    SkillInstance,
    admissible_skills,
    extract_objects,
    ground_candidates,
    history_hints,
    parse_skill,
    plan_next,
    plan_task,
    resolve_ambiguity,
)

from mapgen import random_grid_map
from oracles import check_rule_compliance


@pytest.fixture
def golden_map(fixtures_dir):
    return load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())


def oracle_from(answers):
    """Answer provider that pops from a list and records the questions."""
    queue = list(answers)
    asked = []

    def respond(clarification: Clarification):
        asked.append(clarification)
        return queue.pop(0) if queue else ""

    respond.asked = asked
    return respond


class TableScorer:
    """Scores by skill text lookup; unknown candidates get the fallback."""

    def __init__(self, *tables, fallback=0.05):
        self.tables = [dict(t) for t in tables] or [{}]
        self.fallback = fallback
        self.calls = 0

    def describe(self):
        return {"scorer": "table"}

    def score(self, request):
        table = self.tables[min(len(request.history), len(self.tables) - 1)]
        self.calls += 1
        return ScoreResponse(
            {c: table.get(c.to_text(), self.fallback) for c in request.candidates}
        )


class TestSkillInstance:
    def test_text_forms(self):
        assert SkillInstance("move_to", ("kitchen",)).to_text() == "move_to(kitchen)"
        assert SkillInstance("handover").to_text() == "handover"
        assert str(SkillInstance("done")) == "done"

    def test_parse_round_trip(self):
        for text in ["move_to(kitchen)", "grasp(apple)", "handover", "done", "answer(time)"]:
            assert parse_skill(text).to_text() == text

    def test_parse_rejects_malformed(self):
        with pytest.raises(ParseError):
            parse_skill("grasp()")
        with pytest.raises(ParseError):
            parse_skill("grasp(a,b)")
        with pytest.raises(ParseError):
            parse_skill("Grasp(apple)")
        with pytest.raises(ParseError):
            parse_skill("handover(now) extra")

    def test_parse_unknown_name(self):
        with pytest.raises(UnknownSkill):
            parse_skill("fly(away)")

    def test_arity_enforced_at_construction(self):
        with pytest.raises(ValueError):
            SkillInstance("grasp")
        with pytest.raises(ValueError):
            SkillInstance("done", ("x",))
        with pytest.raises(UnknownSkill):
            SkillInstance("teleport", ("x",))


def golden_candidates(fixtures_dir):
    """Every grounded candidate of every golden scenario, with its scenario name."""
    manifest = json.loads((fixtures_dir / "scenarios" / "manifest.json").read_text())
    for entry in manifest:
        base = fixtures_dir / "scenarios" / entry["name"]
        config = json.loads((base / "config.json").read_text())
        smap = load_map((base / config["map"]).read_text())
        command = resolve_ambiguity(entry["command"], oracle_from(entry["answers"]))
        for candidate in ground_candidates(smap, command):
            yield entry["name"], candidate


def old_text(skill):
    """SkillInstance.to_text as an f-string over the fields, computed afresh."""
    return f"{skill.name}({','.join(skill.args)})" if skill.args else skill.name


class TestSkillInstanceCache:
    def test_golden_candidates(self, fixtures_dir):
        seen = 0
        for scenario, skill in golden_candidates(fixtures_dir):
            seen += 1
            assert hash(skill) == hash((skill.name, skill.args)), scenario
            assert skill.to_text() == str(skill) == old_text(skill), scenario
            twin = SkillInstance(skill.name, list(skill.args))
            assert twin == skill and hash(twin) == hash(skill)
            parsed = parse_skill(skill.to_text())
            assert parsed == skill and hash(parsed) == hash(skill)
            assert parsed.to_text() == skill.to_text()
            assert repr(skill) == f"SkillInstance(name={skill.name!r}, args={skill.args!r})"
            assert len({skill, twin, parsed}) == 1
        assert seen >= 100

    def test_replace_gives_the_new_text_and_hash(self):
        skill = SkillInstance("move_to", ("kitchen",))
        assert skill.to_text() == "move_to(kitchen)" and hash(skill)
        moved = skill._replace(args=("shelf",))
        assert moved.to_text() == "move_to(shelf)"
        assert hash(moved) == hash(("move_to", ("shelf",)))
        renamed = SkillInstance("done")._replace(name="handover")
        assert renamed.to_text() == "handover"
        assert hash(renamed) == hash(("handover", ()))

    def test_accepts_list_and_non_text_args_as_before(self):
        listed = SkillInstance("grasp", ["apple"])
        assert listed.args == ("apple",)
        assert hash(listed) == hash(("grasp", ("apple",)))
        odd = SkillInstance("grasp", [["apple"]])  # constructs; only text and hash fail
        assert odd.args == (["apple"],)
        with pytest.raises(TypeError):
            odd.to_text()
        with pytest.raises(TypeError):
            hash(odd)

    def test_copies_keep_text_and_hash(self):
        skill = SkillInstance("place", ("shelf",))
        assert hash(skill) and skill.to_text()
        for copy in (pickle.loads(pickle.dumps(skill)), skill._replace()):
            assert copy == skill and hash(copy) == hash(skill)
            assert copy.to_text() == "place(shelf)"

    def test_unpickled_hash_is_the_loading_process_hash(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        dump = (
            "import pickle, sys; from semplan.skills import SkillInstance\n"
            "skill = SkillInstance('grasp', ('apple',)); hash(skill); skill.to_text()\n"
            "sys.stdout.write(pickle.dumps(skill).hex())\n"
        )
        load = (
            "import pickle, sys\n"
            "skill = pickle.loads(bytes.fromhex(sys.stdin.read()))\n"
            "print(hash(skill) == hash((skill.name, skill.args)), skill.to_text())\n"
        )
        outputs = ""
        for seed, code in (("1", dump), ("2", load)):
            env = {**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}
            proc = subprocess.run([sys.executable, "-c", code], input=outputs,
                                  capture_output=True, text=True, timeout=60, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs = proc.stdout
        assert outputs.split() == ["True", "grasp(apple)"]


GOLDEN_CANDIDATES = tuple(
    skill for _, skill in golden_candidates(Path(__file__).parent / "fixtures")
)
COMMAND_WORDS = ("apple", "cup", "milk", "book", "bring", "me", "the", "and", "to")


@st.composite
def grounded_skills(draw):
    """A golden candidate, or a candidate grounded on a tests/mapgen.py map."""
    map_seed = draw(st.one_of(st.none(), st.integers(0, 10_000)))
    if map_seed is None:
        return draw(st.sampled_from(GOLDEN_CANDIDATES))
    doc, _, _ = random_grid_map(random.Random(map_seed))
    smap = load_map(json.dumps(doc))
    resolved = " ".join(draw(st.lists(st.sampled_from(COMMAND_WORDS + tuple(smap.places)))))
    return draw(st.sampled_from(ground_candidates(smap, Command(raw=resolved, resolved=resolved))))


class TestSkillInstanceTuple:
    """A skill is its (name, args) tuple: the tuple's hash and ==, its own text."""

    @settings(max_examples=100, deadline=None)
    @given(grounded_skills())
    def test_equal_and_hash_as_its_name_args_tuple(self, skill):
        pair = (skill.name, skill.args)
        assert skill == pair and pair == skill and hash(skill) == hash(pair)
        assert tuple(skill) == pair and type(skill.args) is tuple
        assert {skill: 1}[SkillInstance(*pair)] == 1

    @settings(max_examples=100, deadline=None)
    @given(grounded_skills())
    def test_parse_inverts_to_text(self, skill):
        parsed = parse_skill(skill.to_text())
        assert parsed == skill and type(parsed) is SkillInstance

    @settings(max_examples=100, deadline=None)
    @given(grounded_skills(), st.integers(0, pickle.HIGHEST_PROTOCOL))
    def test_pickle_round_trip(self, skill, protocol):
        copy = pickle.loads(pickle.dumps(skill, protocol))
        assert type(copy) is SkillInstance
        assert copy == skill and hash(copy) == hash(skill) and repr(copy) == repr(skill)

    @settings(max_examples=100, deadline=None)
    @given(grounded_skills())
    @example(SkillInstance("grasp", ("apple",)))
    def test_replace_goes_through_the_arity_check(self, skill):
        arity = len(skill.args)
        with pytest.raises(ValueError, match=rf"^{skill.name} takes {arity} argument\(s\), got 2$"):
            skill._replace(args=("a", "b"))


class TestGroundedInstances:
    """ground_candidates builds its skills unchecked; each is what the check builds."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10_000), st.lists(st.sampled_from(COMMAND_WORDS)))
    def test_mapgen_candidates_equal_checked_twins(self, map_seed, words):
        doc, _, _ = random_grid_map(random.Random(map_seed))
        smap = load_map(json.dumps(doc))
        resolved = " ".join(words)
        self.assert_checked_twins(ground_candidates(smap, Command(raw=resolved, resolved=resolved)))

    def test_golden_candidates_equal_checked_twins(self):
        self.assert_checked_twins(GOLDEN_CANDIDATES)

    @staticmethod
    def assert_checked_twins(candidates):
        for skill in candidates:
            twin = SkillInstance(*skill)
            assert type(skill) is SkillInstance and skill == twin
            assert hash(skill) == hash(twin) and repr(skill) == repr(twin)
            copy = pickle.loads(pickle.dumps(skill))
            assert type(copy) is SkillInstance and copy == twin and repr(copy) == repr(twin)


class TestResolveAmbiguity:
    def test_bring_me_the_object(self):
        oracle = oracle_from(["apple"])
        command = resolve_ambiguity("Bring me the object", oracle)
        assert command.resolved == "Bring me the apple"
        assert command.substitutions == (("object", "apple"),)
        assert [c.slot for c in oracle.asked] == ["object"]

    def test_unambiguous_passthrough(self):
        oracle = oracle_from([])
        command = resolve_ambiguity("Bring me the apple", oracle)
        assert command.resolved == command.raw == "Bring me the apple"
        assert command.substitutions == ()
        assert oracle.asked == []

    def test_two_substitutions(self):
        command = resolve_ambiguity("Put it on the thing", oracle_from(["cup", "shelf"]))
        assert command.resolved == "Put the cup on the shelf"
        assert len(command.substitutions) == 2

    def test_pronoun_gets_inserted_determiner(self):
        command = resolve_ambiguity("Bring me something", oracle_from(["banana"]))
        assert command.resolved == "Bring me the banana"

    def test_case_insensitive_matching(self):
        command = resolve_ambiguity("BRING ME THE OBJECT", oracle_from(["mug"]))
        assert command.resolved == "BRING ME THE mug"

    def test_punctuation_preserved(self):
        command = resolve_ambiguity("Bring it, please.", oracle_from(["cup"]))
        assert command.resolved == "Bring the cup, please."

    def test_empty_answer_raises(self):
        with pytest.raises(UnresolvedAmbiguity):
            resolve_ambiguity("Bring me the object", oracle_from([]))

    def test_ambiguous_answer_rejected(self):
        with pytest.raises(UnresolvedAmbiguity):
            resolve_ambiguity("Bring me the object", oracle_from(["red thing"]))

    def test_resolved_never_contains_vocabulary(self):
        commands = [
            "Bring me the object",
            "Put it on the thing",
            "Take them to the kitchen",
            "Find something for me",
            "Grab that one",
        ]
        answers = ["apple", "cup", "shelf", "plates", "snack", "mug"]
        for raw in commands:
            command = resolve_ambiguity(raw, oracle_from(list(answers)))
            resolved_words = {w.lower() for w in command.resolved.split()}
            assert not (resolved_words & AMBIGUOUS_VOCABULARY), command.resolved

    def test_substitution_count_equals_clarification_count(self):
        oracle = oracle_from(["cup", "shelf", "plate"])
        command = resolve_ambiguity("Put it on the thing near them", oracle)
        assert len(command.substitutions) == len(oracle.asked) == 3


class TestGrounding:
    def test_objects_from_command(self, golden_map):
        assert extract_objects(golden_map, "Bring me the apple") == ("apple",)

    def test_location_words_are_not_objects(self, golden_map):
        objects = extract_objects(golden_map, "Put the cup on the shelf")
        assert objects == ("cup",)

    def test_candidate_universe(self, golden_map):
        command = Command(raw="Bring me the apple", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        texts = [c.to_text() for c in universe]
        assert texts == sorted(texts)
        assert "move_to(kitchen_table)" in texts
        assert "move_to(operator)" in texts
        assert "move_to(bedroom)" in texts
        assert "find_obj(apple)" in texts
        assert "grasp(apple)" in texts
        assert "answer(apple)" in texts
        assert "place(shelf)" in texts
        assert "place(operator)" not in texts
        assert "handover" in texts
        assert "follow_person" in texts
        assert "done" in texts

    def test_name_shared_by_room_and_furniture_grounds_once(self, golden_map):
        doc = json.loads(save_map(golden_map))
        doc["furniture"].append(
            {"name": "kitchen", "room": "kitchen", "contour": [[4, 4], [5, 4], [5, 5], [4, 5]]}
        )
        smap = load_map(json.dumps(doc))
        command = Command(raw="Bring me the apple", resolved="Bring me the apple")
        texts = [c.to_text() for c in ground_candidates(smap, command)]
        assert texts.count("move_to(kitchen)") == 1
        assert texts.count("place(kitchen)") == 1

    def test_duplicate_words_ground_once(self, golden_map):
        command = Command(raw="", resolved="apple apple Apple")
        universe = ground_candidates(golden_map, command)
        assert [c for c in universe if c.name == "find_obj"] == [
            SkillInstance("find_obj", ("apple",))
        ]


class TestSharedTables:
    """Grounding reads per-map tables and skill_key's one skill per text."""

    COMMAND = Command(raw="Bring me the apple", resolved="Bring me the apple and the Kitchen")

    def test_equal_on_fresh_used_replaced_and_unpickled_maps(self, golden_map, fixtures_dir):
        used = load_map((fixtures_dir / "maps" / "golden_arena.json").read_text())
        expected = ground_candidates(used, self.COMMAND)
        maps = (golden_map, used, used._replace(), pickle.loads(pickle.dumps(used)))
        for smap in maps:
            assert ground_candidates(smap, self.COMMAND) == expected
        assert "kitchen" not in extract_objects(golden_map, self.COMMAND.resolved)

    def test_a_repeat_call_returns_the_very_same_skills(self, golden_map):
        first = ground_candidates(golden_map, self.COMMAND)
        second = ground_candidates(golden_map, self.COMMAND)
        assert len(first) == len(second) and all(map(operator.is_, first, second))
        # The map's tail is the one copies and other maps share through skill_key.
        copy = pickle.loads(pickle.dumps(golden_map))
        assert all(map(operator.is_, ground_candidates(copy, self.COMMAND), first))

    def test_score_rows_key_the_candidates_themselves(self, golden_map):
        universe = ground_candidates(golden_map, self.COMMAND)
        doc = {"command": "x", "rows": [{"history_length": 0,
                                         "scores": {c.to_text(): 1.0 for c in universe}}]}
        _, (row,) = load_scenario(json.dumps(doc))
        assert all(map(operator.is_, row, universe))

    def test_grounding_leaves_the_saved_and_pickled_bytes(self, fixtures_dir):
        text = (fixtures_dir / "maps" / "golden_arena.json").read_text()
        fresh, used = load_map(text), load_map(text)
        ground_candidates(used, self.COMMAND)
        assert {"place_words", "derived"} <= set(vars(used))
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert save_map(used) == save_map(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(used, protocol) == pickle.dumps(fresh, protocol)

    def test_a_place_named_with_capitals_keeps_its_word_out(self, golden_map):
        doc = json.loads(save_map(golden_map))
        for entity in doc["rooms"] + doc["furniture"] + doc["doors"]:
            if entity["name"] == "kitchen":
                entity["name"] = "Kitchen"
            if entity.get("room") == "kitchen":
                entity["room"] = "Kitchen"
            if "connects" in entity:
                entity["connects"] = ["Kitchen" if r == "kitchen" else r for r in entity["connects"]]
        smap = load_map(json.dumps(doc))
        assert "Kitchen" in smap.places and "kitchen" not in smap.places
        assert extract_objects(smap, "bring the kitchen apple from the KITCHEN") == ("apple",)
        texts = [c.to_text() for c in ground_candidates(smap, self.COMMAND)]
        assert "move_to(Kitchen)" in texts and "grasp(kitchen)" not in texts


class TestHistoryHints:
    def test_empty(self):
        assert history_hints(()) == (None, frozenset())

    def test_found_accumulates(self):
        held, found = history_hints((parse_skill("find_obj(apple)"),))
        assert held is None
        assert found == {"apple"}

    def test_grasp_clears_found_and_sets_held(self):
        held, found = history_hints(
            (parse_skill("find_obj(apple)"), parse_skill("grasp(apple)"))
        )
        assert held == "apple"
        assert found == frozenset()

    def test_place_and_handover_release(self):
        steps = (
            parse_skill("find_obj(apple)"),
            parse_skill("grasp(apple)"),
            parse_skill("place(shelf)"),
        )
        assert history_hints(steps) == (None, frozenset())
        steps = steps[:2] + (parse_skill("handover"),)
        assert history_hints(steps) == (None, frozenset())


class TestAdmissibleSkills:
    def setup_method(self):
        self.universe = (
            parse_skill("done"),
            parse_skill("find_obj(apple)"),
            parse_skill("find_obj(milk)"),
            parse_skill("grasp(apple)"),
            parse_skill("grasp(milk)"),
            parse_skill("handover"),
            parse_skill("move_to(kitchen)"),
            parse_skill("move_to(living_room)"),
            parse_skill("place(shelf)"),
        )

    def names(self, history, held=None, found=frozenset()):
        return [
            s.to_text()
            for s in admissible_skills(self.universe, history, held, found)
        ]

    def test_no_grasp_before_find(self):
        texts = self.names(())
        assert not any(t.startswith("grasp") for t in texts)
        assert "find_obj(apple)" in texts
        assert "done" in texts

    def test_no_consecutive_same_name(self):
        history = (parse_skill("move_to(kitchen)"),)
        texts = self.names(history)
        assert not any(t.startswith("move_to") for t in texts)

    def test_grasp_only_found_objects(self):
        history = (parse_skill("find_obj(apple)"),)
        texts = self.names(history, held=None, found=frozenset({"apple"}))
        assert "grasp(apple)" in texts
        assert "grasp(milk)" not in texts

    def test_place_handover_need_held(self):
        texts = self.names(())
        assert "place(shelf)" not in texts
        assert "handover" not in texts
        texts = self.names((parse_skill("grasp(apple)"),), held="apple")
        assert "place(shelf)" in texts
        assert "handover" in texts

    def test_one_gripper_blocks_find_and_grasp(self):
        texts = self.names((parse_skill("move_to(kitchen)"),), held="apple")
        assert not any(t.startswith(("find_obj", "grasp")) for t in texts)

    def test_done_always_present(self):
        for history, held in [((), None), ((parse_skill("done"),), None)]:
            assert "done" in self.names(history, held=held)

    def test_output_sorted(self):
        texts = self.names(())
        assert texts == sorted(texts)

    def test_keeps_skill_set_order(self):
        kept = admissible_skills(self.universe[::-1], (), None, frozenset())
        assert [s.to_text() for s in kept] == self.names(())[::-1]


class TestPlanNext:
    def test_argmax(self, golden_map):
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        scorer = TableScorer({"done": 0.9})
        assert plan_next(command, PlanTrace(), scorer, universe) == parse_skill("done")

    def test_tie_breaks_lexicographically(self):
        command = Command(raw="x", resolved="x")
        universe = (
            parse_skill("grasp(apple)"),
            parse_skill("move_to(table)"),
            parse_skill("done"),
        )
        trace = PlanTrace(steps=(parse_skill("find_obj(apple)"),))
        scorer = TableScorer(
            {"grasp(apple)": 0.5, "move_to(table)": 0.5, "done": 0.0}, fallback=0.0
        )
        chosen = plan_next(command, trace, scorer, universe)
        assert chosen == parse_skill("grasp(apple)")

    def test_tie_goes_to_the_first_candidate_in_skill_set(self):
        command = Command(raw="x", resolved="x")
        universe = (
            parse_skill("move_to(table)"),
            parse_skill("grasp(apple)"),
            parse_skill("done"),
        )
        trace = PlanTrace(steps=(parse_skill("find_obj(apple)"),))
        scorer = TableScorer(
            {"grasp(apple)": 0.5, "move_to(table)": 0.5, "done": 0.0}, fallback=0.0
        )
        chosen = plan_next(command, trace, scorer, universe)
        assert chosen == parse_skill("move_to(table)")


GOLDEN_STEP_TABLES = (
    {"move_to(kitchen_table)": 0.8},
    {"find_obj(apple)": 0.8},
    {"grasp(apple)": 0.8},
    {"move_to(operator)": 0.8},
    {"handover": 0.8},
    {"done": 0.8},
)


class TestPlanTask:
    def test_done_first_gives_single_step(self, golden_map):
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        trace = plan_task(command, TableScorer({"done": 1.0}), universe)
        assert [s.to_text() for s in trace.steps] == ["done"]

    def test_golden_six_step_plan(self, golden_map):
        command = Command(raw="Bring me the apple", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        trace = plan_task(command, TableScorer(*GOLDEN_STEP_TABLES), universe)
        assert [s.to_text() for s in trace.steps] == [
            "move_to(kitchen_table)",
            "find_obj(apple)",
            "grasp(apple)",
            "move_to(operator)",
            "handover",
            "done",
        ]
        assert check_rule_compliance([(s.name, s.args) for s in trace.steps]) == []

    def test_never_done_hits_cap(self, golden_map):
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        scorer = TableScorer({"done": 0.0}, fallback=1.0)
        with pytest.raises(PlanTooLong):
            plan_task(command, scorer, universe)
        assert scorer.calls == 20

    def test_max_steps_validation(self, golden_map):
        command = Command(raw="x", resolved="x")
        universe = ground_candidates(golden_map, command)
        with pytest.raises(ValueError):
            plan_task(command, TableScorer({"done": 1.0}), universe, max_steps=0)

    def test_step_scores_normalized(self, golden_map):
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        trace = plan_task(command, TableScorer(*GOLDEN_STEP_TABLES), universe)
        assert len(trace.step_scores) == len(trace.steps)
        for distribution in trace.step_scores:
            assert abs(sum(distribution.values()) - 1.0) <= 1e-9

    def test_metadata_records_scorer(self, golden_map):
        command = Command(raw="x", resolved="x")
        universe = ground_candidates(golden_map, command)
        trace = plan_task(command, TableScorer({"done": 1.0}), universe)
        assert dict(trace.metadata) == {"scorer": "table"}

    def test_random_scorers_always_yield_admissible_traces(self, golden_map):
        rng = random.Random(99)
        command = Command(raw="x", resolved="Bring me the apple and the cup")
        universe = ground_candidates(golden_map, command)

        class RandomScorer:
            def score(self, request):
                return ScoreResponse(
                    {c: rng.uniform(0.01, 1.0) for c in request.candidates}
                )

        for _ in range(40):
            try:
                trace = plan_task(command, RandomScorer(), universe)
            except PlanTooLong:
                continue
            steps = [(s.name, s.args) for s in trace.steps]
            assert check_rule_compliance(steps) == [], steps
            assert trace.steps[-1].name == "done"
            assert "done" not in [s.name for s in trace.steps[:-1]]

    def test_scale_invariance(self, golden_map):
        rng = random.Random(31337)
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        for _ in range(100):
            table = {c.to_text(): rng.uniform(0.001, 5.0) for c in universe}
            k = rng.choice([1e-6, 0.013, 1.0, 42.0, 1e7])
            scaled = {text: value * k for text, value in table.items()}
            base_choice = plan_next(
                Command(raw="x", resolved=command.resolved),
                PlanTrace(),
                TableScorer(table),
                universe,
            )
            scaled_choice = plan_next(
                Command(raw="x", resolved=command.resolved),
                PlanTrace(),
                TableScorer(scaled),
                universe,
            )
            assert base_choice == scaled_choice


class EditedScorer:
    """TableScorer's scores for the candidates, then edited by a function."""

    def __init__(self, edit):
        self.inner = TableScorer({"done": 0.9})
        self.edit = edit

    def score(self, request):
        return ScoreResponse(self.edit(dict(self.inner.score(request).scores)))


class TestScorerContract:
    """A scorer scores exactly the candidates; step_scores keep candidate order."""

    def plan(self, golden_map, edit):
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        return plan_task(command, EditedScorer(edit), universe)

    def test_missing_candidate_is_a_scorer_failure(self, golden_map):
        def drop_done(scores):
            del scores[SkillInstance("done")]
            return scores

        with pytest.raises(ScorerFailure, match="scorer must score exactly the candidates"):
            self.plan(golden_map, drop_done)

    def test_extra_entry_is_a_scorer_failure(self, golden_map):
        def add_stranger(scores):
            return {**scores, SkillInstance("answer", ("zebra",)): 40.0}

        with pytest.raises(ScorerFailure, match="scorer must score exactly the candidates"):
            self.plan(golden_map, add_stranger)

    def test_same_candidates_in_another_order_are_put_in_candidate_order(self, golden_map):
        expected = self.plan(golden_map, lambda scores: scores)
        reordered = self.plan(golden_map, lambda scores: dict(reversed(scores.items())))
        assert reordered == expected
        assert [list(d) for d in reordered.step_scores] == [
            list(d) for d in expected.step_scores
        ]

    def test_plain_tuple_keys_are_a_scorer_failure(self, golden_map):
        def plain(scores):
            return {(c.name, c.args): v for c, v in scores.items()}

        with pytest.raises(ScorerFailure, match="scorer must score exactly the candidates"):
            self.plan(golden_map, plain)

    def test_one_plain_tuple_key_is_a_scorer_failure(self, golden_map):
        def swap_done(scores):
            value = scores.pop(SkillInstance("done"))
            return {**scores, ("done", ()): value}

        with pytest.raises(ScorerFailure, match="scorer must score exactly the candidates"):
            self.plan(golden_map, swap_done)

    def test_plain_tuple_equal_to_a_candidate_rescores_that_candidate(self, golden_map):
        # Equal keys are one dict key: the candidate object stays the key and
        # takes the plain tuple's value, so the step plans with that value.
        def rescore_done(scores):
            scores = {c: 0.0 for c in scores}
            scores[("done", ())] = 1.0
            assert all(type(key) is SkillInstance for key in scores)
            return scores

        trace = self.plan(golden_map, rescore_done)
        assert trace.steps == (SkillInstance("done"),)
        assert type(trace.steps[0]) is SkillInstance
        assert trace.step_scores[0][SkillInstance("done")] == 1.0
        assert all(type(key) is SkillInstance for key in trace.step_scores[0])

    def test_equal_copies_as_keys_give_the_candidates_themselves(self, golden_map):
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        expected = plan_task(command, EditedScorer(lambda scores: scores), universe)
        copied = plan_task(command, EditedScorer(
            lambda scores: {parse_skill(c.to_text()): v for c, v in scores.items()}), universe)
        assert copied == expected
        assert all(any(step is c for c in universe) for step in copied.steps)
        for distribution in copied.step_scores:
            assert all(any(key is c for c in universe) for key in distribution)

    def test_plan_next_checks_the_same_contract(self, golden_map):
        command = Command(raw="x", resolved="Bring me the apple")
        universe = ground_candidates(golden_map, command)
        scorer = EditedScorer(lambda scores: dict(list(scores.items())[1:]))
        with pytest.raises(ScorerFailure, match="scorer must score exactly the candidates"):
            plan_next(command, PlanTrace(), scorer, universe)
