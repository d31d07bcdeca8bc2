"""The planner's one-pass step against the per-candidate loop it replaced.

The reference functions below are the earlier grounding, admissibility and
planning code, kept verbatim as an oracle: a step must choose the same
skill, give the same normalized scores (same keys in the same order, equal
floats) and raise PlanTooLong in the same cases.
"""

import json
import random
from operator import is_
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from semplan.errors import PlanTooLong, ScorerFailure
from semplan.scorer import ScoreRequest, ScoreResponse, ScriptedScorer, load_scenario, normalize
from semplan.semantic_map import OPERATOR, load_map
from semplan.skills import (
    Command,
    PlanTrace,
    SkillInstance,
    admissible_skills,
    extract_objects,
    ground_candidates,
    history_hints,
    plan_next,
    plan_task,
)
from semplan.skills import _admissible, _name_runs

from mapgen import random_grid_map
from oracles import subset_scripted_score


def reference_ground_candidates(smap, command):
    locations = sorted([*smap.places, OPERATOR])
    objects = extract_objects(smap, command.resolved)

    candidates = [SkillInstance("move_to", (loc,)) for loc in locations]
    for obj in objects:
        candidates.append(SkillInstance("find_obj", (obj,)))
        candidates.append(SkillInstance("grasp", (obj,)))
        candidates.append(SkillInstance("answer", (obj,)))
    candidates.extend(SkillInstance("place", (f.name,)) for f in smap.furniture)
    candidates.append(SkillInstance("handover"))
    candidates.append(SkillInstance("follow_person"))
    candidates.append(SkillInstance("done"))
    return tuple(sorted(candidates, key=lambda c: (c.name, c.args)))


def reference_admissible_skills(skill_set, history, held, found):
    previous = history[-1].name if history else None
    out = []
    for skill in skill_set:
        if skill.name == "done":
            out.append(skill)
            continue
        if skill.name == previous:
            continue
        if skill.name == "grasp" and (skill.args[0] not in found or held is not None):
            continue
        if skill.name in ("place", "handover") and held is None:
            continue
        if skill.name == "find_obj" and held is not None:
            continue
        out.append(skill)
    return tuple(out)


def reference_score_step(command, trace, scorer, skill_set):
    held, found = history_hints(trace.steps)
    candidates = reference_admissible_skills(skill_set, trace.steps, held, found)
    assert candidates, "done keeps the candidate set nonempty"
    request = ScoreRequest(
        command=command.resolved, history=trace.steps, candidates=candidates
    )
    distribution = normalize(scorer.score(request))
    best = None
    best_score = float("-inf")
    for candidate in candidates:
        score = distribution[candidate]
        if score > best_score:
            best, best_score = candidate, score
    return best, distribution


def reference_plan_task(command, scorer, skill_set, max_steps):
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    trace = PlanTrace(metadata=())
    for _ in range(max_steps):
        skill, distribution = reference_score_step(command, trace, scorer, skill_set)
        trace = PlanTrace(
            steps=trace.steps + (skill,),
            step_scores=trace.step_scores + (distribution,),
            metadata=trace.metadata,
        )
        if skill.name == "done":
            return trace
    raise PlanTooLong(f"done not selected within {max_steps} steps")


class SeededScorer:
    """Positive scores fixed by (seed, history length, candidate text).

    A third of the scores come from three fixed values, so ties are
    common; done_weight scales done's score so that some plans run out of
    steps.
    """

    def __init__(self, seed, done_weight):
        self.seed = seed
        self.done_weight = done_weight

    def score(self, request):
        step = len(request.history)
        scores = {}
        for candidate in request.candidates:
            rng = random.Random(f"{self.seed}|{step}|{candidate.to_text()}")
            value = rng.choice([0.25, 0.5, 1.0]) if rng.random() < 0.34 else rng.uniform(1e-3, 2.0)
            scores[candidate] = value * self.done_weight if candidate.name == "done" else value
        return ScoreResponse(scores)


FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_MAP = load_map((FIXTURES / "maps" / "golden_arena.json").read_text())
OBJECT_WORDS = ("apple", "cup", "milk", "banana", "book", "remote", "Apple")
FILLER_WORDS = ("bring", "me", "the", "and", "on", "to", "please", OPERATOR)


@st.composite
def planning_cases(draw):
    map_seed = draw(st.one_of(st.none(), st.integers(0, 10_000)))
    if map_seed is None:
        smap = GOLDEN_MAP
    else:
        doc, _, _ = random_grid_map(random.Random(map_seed))
        smap = load_map(json.dumps(doc))
    words = OBJECT_WORDS + FILLER_WORDS + tuple(smap.places)
    resolved = " ".join(draw(st.lists(st.sampled_from(words), max_size=8)))
    scorer = SeededScorer(draw(st.integers(0, 2**32)), draw(st.sampled_from([0.02, 0.3, 1.0, 3.0])))
    max_steps = draw(st.integers(1, 8))
    return smap, Command(raw=resolved, resolved=resolved), scorer, max_steps


def plan_or_too_long(plan, *args):
    try:
        return plan(*args)
    except PlanTooLong as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(planning_cases())
def test_plan_task_and_plan_next_match_the_per_candidate_loop(case):
    smap, command, scorer, max_steps = case
    universe = ground_candidates(smap, command)
    assert universe == reference_ground_candidates(smap, command)

    expected = plan_or_too_long(reference_plan_task, command, scorer, universe, max_steps)
    got = plan_or_too_long(plan_task, command, scorer, universe, max_steps)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got.steps == expected.steps
        assert [list(d.items()) for d in got.step_scores] == [
            list(d.items()) for d in expected.step_scores
        ]

    trace = PlanTrace()
    for _ in range(max_steps):
        skill, _ = reference_score_step(command, trace, scorer, universe)
        assert plan_next(command, trace, scorer, universe) == skill
        trace = PlanTrace(steps=trace.steps + (skill,))
        if skill.name == "done":
            break


@settings(max_examples=150, deadline=None)
@given(planning_cases(), st.randoms(use_true_random=False))
def test_admissible_skills_match_the_per_candidate_filter(case, rng):
    smap, command, _, _ = case
    universe = list(ground_candidates(smap, command))
    history = tuple(rng.choice(universe) for _ in range(rng.randint(0, 6)))
    if rng.random() < 0.5:
        rng.shuffle(universe)  # any skill_set order, not only the grounded one
    held, found = history_hints(history)
    assert admissible_skills(universe, history, held, found) == reference_admissible_skills(
        universe, history, held, found
    )



class RecordingScorer:
    """Passes each request to scorer and keeps it."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.requests = []

    def score(self, request):
        self.requests.append(request)
        return self.scorer.score(request)


@settings(max_examples=150, deadline=None)
@given(planning_cases())
def test_each_plan_step_scores_admissible_skills_of_its_history(case):
    # plan_task splits the universe into name runs once per plan; every
    # step's candidates must still be admissible_skills of that step's history.
    smap, command, scorer, max_steps = case
    universe = ground_candidates(smap, command)
    recording = RecordingScorer(scorer)
    plan_or_too_long(plan_task, command, recording, universe, max_steps)
    assert recording.requests
    for request in recording.requests:
        held, found = history_hints(request.history)
        assert request.candidates == admissible_skills(universe, request.history, held, found)


@settings(max_examples=100, deadline=None)
@given(planning_cases(), st.randoms(use_true_random=False))
def test_one_set_of_name_runs_serves_every_history(case, rng):
    smap, command, _, _ = case
    universe = list(ground_candidates(smap, command))
    if rng.random() < 0.5:
        rng.shuffle(universe)
    runs = _name_runs(universe)
    for _ in range(8):
        history = tuple(rng.choice(universe) for _ in range(rng.randint(0, 6)))
        held, found = history_hints(history)
        previous = history[-1].name if history else None
        got = _admissible(runs, previous, held, found)
        assert got == admissible_skills(universe, history, held, found)
        assert got == reference_admissible_skills(universe, history, held, found)


BRING_APPLE = FIXTURES / "scenarios" / "bring_apple"


def bring_apple():
    """The command, grounded universe, scenario and step cap of the bring_apple config."""
    config = json.loads((BRING_APPLE / "config.json").read_text())
    smap = load_map((BRING_APPLE / config["map"]).read_text())
    command = Command(raw=config["command"], resolved=config["command"])
    scenario = load_scenario((BRING_APPLE / config["scorer"]["path"]).read_text())
    return command, ground_candidates(smap, command), scenario, config["max_steps"]


class SubsetScorer:
    """A scripted scorer that copies the candidates' entries of every row."""

    def __init__(self, scenario):
        self.scenario = scenario

    def score(self, request):
        return subset_scripted_score(self.scenario, request, ScorerFailure, ScoreResponse)


def scores_items(trace):
    return [[(id(k), repr(v)) for k, v in d.items()] for d in trace.step_scores]


class TestScriptedRowsAcrossPlans:
    def test_planning_twice_with_one_scorer_gives_equal_traces(self):
        command, universe, scenario, max_steps = bring_apple()
        expected = reference_plan_task(command, SubsetScorer(scenario), universe, max_steps)
        scorer = ScriptedScorer(scenario)
        for _ in range(2):
            trace = plan_task(command, scorer, universe, max_steps)
            assert trace.steps == expected.steps
            assert scores_items(trace) == scores_items(expected)

    def test_two_plans_share_responses_but_not_distributions(self):
        command, universe, scenario, max_steps = bring_apple()
        scorer = ScriptedScorer(scenario)
        responses = []

        class Recording:
            def score(self, request):
                responses.append(scorer.score(request))
                return responses[-1]

        first = plan_task(command, Recording(), universe, max_steps)
        second = plan_task(command, Recording(), universe, max_steps)
        steps = len(first.steps)
        assert len(responses) == 2 * steps
        for step, (a, b) in enumerate(zip(responses[:steps], responses[steps:])):
            assert a is b and a.scores is scenario[1][step]
        assert first == second
        assert not any(map(is_, first.step_scores, second.step_scores))
        expected = scores_items(second)
        for distribution in first.step_scores:
            for candidate in distribution:
                distribution[candidate] = 0.0
        assert scores_items(second) == expected
        assert scores_items(plan_task(command, scorer, universe, max_steps)) == expected
