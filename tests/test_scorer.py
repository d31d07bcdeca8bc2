import functools
import json
import math
import random
import socket
import time
import urllib.request
from operator import is_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semplan.errors import ConfigMissing, ParseError, ScorerFailure, ValidationError
from semplan.scorer import (
    DEFAULT_MODEL,
    LlmConfig,
    LlmScorer,
    PROMPT_TEMPLATE_ID,
    ScoreRequest,
    ScoreResponse,
    ScriptedScorer,
    _suffix_logprob_sum,
    build_prompt,
    config_from_env,
    llm_score,
    load_scenario,
    normalize,
    skill_key,
)
from semplan.skills import SKILL_ARITIES, SkillInstance, parse_skill

from mockllm import MockLlmServer
from oracles import subset_scripted_score


def request_for(*texts, command="Bring me the apple", history=()):
    return ScoreRequest(
        command=command,
        history=tuple(parse_skill(t) for t in history),
        candidates=tuple(parse_skill(t) for t in texts),
    )


class TestScoreTypes:
    def test_request_requires_candidates(self):
        with pytest.raises(ValueError):
            ScoreRequest(command="x", history=(), candidates=())

    def test_response_rejects_negative(self):
        with pytest.raises(ScorerFailure):
            ScoreResponse({parse_skill("done"): -0.1})

    def test_response_rejects_nonfinite(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ScorerFailure):
                ScoreResponse({parse_skill("done"): bad})

    def test_response_rejects_all_zero(self):
        with pytest.raises(ScorerFailure):
            ScoreResponse({parse_skill("done"): 0.0, parse_skill("handover"): 0.0})

    def test_response_rejects_empty(self):
        with pytest.raises(ScorerFailure):
            ScoreResponse({})

    def test_response_rejects_an_int_too_large_for_a_float(self):
        with pytest.raises(ScorerFailure, match="non-finite score for done"):
            ScoreResponse({parse_skill("done"): 10**400})


def reference_check(scores: dict) -> None:
    """ScoreResponse's entry-by-entry check as it was before the one-pass check."""
    if not scores:
        raise ScorerFailure("empty score table")
    positive = False
    for candidate, value in scores.items():
        if not isinstance(value, (int, float)):
            raise ScorerFailure(f"non-finite score for {candidate}")
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ScorerFailure(f"non-finite score for {candidate}")
        if value < 0:
            raise ScorerFailure(f"negative score for {candidate}")
        positive = positive or value > 0
    if not positive:
        raise ScorerFailure("all scores are zero")


class Score(float):
    """A float subclass: a number, though not of an exact number type."""


def outcome(check, scores):
    try:
        check(scores)
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err), str(err)
    return None


SCORE_VALUES = st.one_of(
    st.booleans(),
    st.just(-0.0),
    st.just(0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=1e307, max_value=1.7e308),  # two of these overflow a sum
    st.integers(-(10**3), 10**3),
    st.integers(2**1023, 10**400),  # too large for a float
    st.builds(Score, st.floats(0.0, 10.0)),
    st.text(max_size=3),
    st.none(),
)


class TestScoreResponseCheck:
    """The one-pass check accepts and refuses exactly as the per-entry loop."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(SCORE_VALUES, max_size=6))
    @example([1e308, 1e308])
    @example([10**400, 1.0])
    @example([1.0, 10**400, -1.0])
    @example([-0.0, 0])
    @example([1.0, float("nan")])
    @example([False, True])
    def test_same_outcome_as_the_per_entry_loop(self, values):
        scores = {parse_skill(f"find_obj(x{i})"): v for i, v in enumerate(values)}
        assert outcome(ScoreResponse, scores) == outcome(reference_check, scores)


class TestNormalize:
    def test_even_split(self):
        a, b = parse_skill("grasp(a)"), parse_skill("grasp(b)")
        assert normalize(ScoreResponse({a: 2.0, b: 2.0})) == {a: 0.5, b: 0.5}

    def test_singleton(self):
        done = parse_skill("done")
        assert normalize(ScoreResponse({done: 3.0})) == {done: 1.0}

    def test_random_tables_sum_to_one(self):
        rng = random.Random(8)
        for _ in range(200):
            skills = [parse_skill(f"find_obj(x{i})") for i in range(rng.randint(1, 9))]
            response = ScoreResponse({s: rng.uniform(1e-6, 10.0) for s in skills})
            assert abs(sum(normalize(response).values()) - 1.0) <= 1e-9

    def test_scale_invariant_elementwise(self):
        rng = random.Random(9)
        for _ in range(200):
            skills = [parse_skill(f"find_obj(x{i})") for i in range(rng.randint(2, 8))]
            raw = {s: rng.uniform(1e-4, 3.0) for s in skills}
            k = rng.choice([1e-9, 0.5, 7.0, 1e8])
            base = normalize(ScoreResponse(raw))
            scaled = normalize(ScoreResponse({s: v * k for s, v in raw.items()}))
            for skill in skills:
                assert abs(base[skill] - scaled[skill]) <= 1e-12


def comprehension_normalize(scores: dict) -> dict:
    total = sum(scores.values())
    return {candidate: value / total for candidate, value in scores.items()}


NONNEGATIVE_SCORES = st.one_of(
    st.integers(0, 2**53),
    st.floats(0.0, 1e300),
    st.floats(0.0, 1e-300),  # subnormals: sums near underflow
    st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1.5, 3]),
)


class TestNormalizeBitwise:
    """The printed plan carries these floats, so any rewrite of normalize
    must give the comprehension's key order and the same bits."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(NONNEGATIVE_SCORES, min_size=1, max_size=50), st.randoms())
    def test_same_floats_and_order_as_the_comprehension(self, values, rng):
        candidates = [parse_skill(f"find_obj(x{i})") for i in range(len(values))]
        rng.shuffle(candidates)
        scores = dict(zip(candidates, values))
        try:
            response = ScoreResponse(scores)
        except ScorerFailure:
            return  # all zero
        got, expected = normalize(response), comprehension_normalize(scores)
        assert list(got) == list(expected) == candidates
        assert [v.hex() for v in got.values()] == [v.hex() for v in expected.values()]


SCENARIO_DOC = {
    "command": "Bring me the apple",
    "rows": [
        {"history_length": 0, "scores": {"move_to(kitchen_table)": 0.7, "done": 0.1}},
        {"history_length": 1, "scores": {"find_obj(apple)": 0.8, "done": 0.1}},
    ],
}


class TestScriptedScorer:
    def test_reads_row_for_history_length(self):
        scorer = ScriptedScorer(load_scenario(json.dumps(SCENARIO_DOC)))
        response = scorer.score(request_for("move_to(kitchen_table)", "done"))
        assert response.scores[parse_skill("move_to(kitchen_table)")] == 0.7

    def test_pure_function_of_inputs(self):
        scorer = ScriptedScorer(load_scenario(json.dumps(SCENARIO_DOC)))
        request = request_for("move_to(kitchen_table)", "done")
        assert scorer.score(request).scores == scorer.score(request).scores

    def test_exhaustion(self):
        scorer = ScriptedScorer(load_scenario(json.dumps(SCENARIO_DOC)))
        request = request_for(
            "done", history=("move_to(kitchen_table)", "find_obj(apple)")
        )
        with pytest.raises(ScorerFailure):
            scorer.score(request)

    def test_missing_candidate(self):
        scorer = ScriptedScorer(load_scenario(json.dumps(SCENARIO_DOC)))
        with pytest.raises(ScorerFailure, match=r"^no scripted score for handover at step 0$"):
            scorer.score(request_for("handover", "done"))

    @pytest.mark.parametrize("texts, missing", [
        (("handover", "follow_person", "done"), "handover"),
        (("follow_person", "handover", "done"), "follow_person"),
        (("done", "grasp(apple)", "handover"), "grasp(apple)"),
    ])
    def test_names_the_first_missing_candidate(self, texts, missing):
        scorer = ScriptedScorer(load_scenario(json.dumps(SCENARIO_DOC)))
        with pytest.raises(ScorerFailure) as err:
            scorer.score(request_for(*texts))
        assert str(err.value) == f"no scripted score for {missing} at step 0"

    def test_command_mismatch(self):
        scorer = ScriptedScorer(load_scenario(json.dumps(SCENARIO_DOC)))
        with pytest.raises(ScorerFailure):
            scorer.score(request_for("done", command="Wipe the table"))

    def test_extra_table_entries_ignored(self):
        scorer = ScriptedScorer(load_scenario(json.dumps(SCENARIO_DOC)))
        response = scorer.score(request_for("done"))
        assert set(response.scores) == {parse_skill("done")}


ROW_TEXTS = ("answer(cup)", "done", "find_obj(apple)", "follow_person", "grasp(apple)",
             "handover", "move_to(kitchen)", "place(table)")
ROW_VALUES = st.one_of(
    st.floats(0.0, 10.0),
    st.sampled_from([0.0, 0, -0.0, 3, -1.0]),
    st.floats(1e307, 1.7e308),  # two of these overflow a sum
)
ROW_KINDS = ("exact", "extra", "reordered", "plain", "missing")


@st.composite
def scripted_runs(draw):
    """A scenario with rows of every kind, and requests at a row's own
    candidates, at other candidates, or past the last row."""
    skills = [skill_key(t) for t in ROW_TEXTS]
    candidate_lists = st.lists(st.sampled_from(skills), min_size=1, max_size=6, unique=True)
    rows, own = [], []
    for _ in range(draw(st.integers(1, 4))):
        candidates = draw(candidate_lists)
        keys = list(candidates)
        kind = draw(st.sampled_from(ROW_KINDS))
        if kind == "extra" and len(keys) < len(skills):
            others = [s for s in skills if s not in keys]
            for skill in draw(st.lists(st.sampled_from(others), min_size=1, unique=True)):
                keys.insert(draw(st.integers(0, len(keys))), skill)
        elif kind == "reordered":
            keys = draw(st.permutations(keys))
        elif kind == "plain":
            keys = [tuple(k) for k in keys]  # equal to the skills, not the skills
        elif kind == "missing" and len(keys) > 1:
            del keys[draw(st.integers(0, len(keys) - 1))]
        values = draw(st.lists(ROW_VALUES, min_size=len(keys), max_size=len(keys)))
        rows.append(dict(zip(keys, values)))
        own.append(tuple(candidates))
    requests = []
    for _ in range(draw(st.integers(1, 10))):
        step = draw(st.integers(0, len(rows)))
        if step < len(rows) and draw(st.booleans()):
            candidates = own[step]
        else:
            candidates = draw(candidate_lists)
        requests.append(ScoreRequest("x", (skill_key("done"),) * step, candidates))
    return ("x", tuple(rows)), requests


def score_outcome(score, request):
    """The scores' keys (by identity) and values (by repr), or the error's type and text."""
    try:
        response = score(request)
    except Exception as err:  # noqa: BLE001 - the type and text are compared
        return type(err), str(err)
    assert type(response) is ScoreResponse
    return [(id(k), repr(v)) for k, v in response.scores.items()]


class TestExactRows:
    """A row whose keys are the candidates is the response; any other row is copied."""

    @settings(max_examples=300, deadline=None)
    @given(scripted_runs())
    def test_same_items_or_error_as_the_subset_copy(self, run):
        scenario, requests = run
        scorer = ScriptedScorer(scenario)
        reference = functools.partial(
            subset_scripted_score, scenario, failure=ScorerFailure, response=ScoreResponse)
        for request in requests:
            assert score_outcome(scorer.score, request) == score_outcome(reference, request)

    def test_an_exact_row_is_the_response(self):
        rows = load_scenario(json.dumps(SCENARIO_DOC))[1]
        scorer = ScriptedScorer(("Bring me the apple", rows))
        request = ScoreRequest("Bring me the apple", (), tuple(rows[0]))
        for _ in range(2):
            assert scorer.score(request).scores is rows[0]

    def test_other_rows_are_copied(self):
        rows = load_scenario(json.dumps(SCENARIO_DOC))[1]
        scorer = ScriptedScorer(("Bring me the apple", rows))
        for candidates in (tuple(rows[0])[::-1], tuple(rows[0])[:1], tuple(map(tuple, rows[0]))):
            response = scorer.score(ScoreRequest("Bring me the apple", (), candidates))
            assert response.scores is not rows[0]
            assert list(response.scores) == list(candidates)
            assert all(map(is_, response.scores, candidates))

    @pytest.mark.parametrize("values, message", [
        ([0.0, 0], "all scores are zero"),
        ([1.0, -1.0], "negative score for done"),
    ])
    def test_a_refused_exact_row_is_refused_at_every_use(self, values, message):
        candidates = (skill_key("answer(cup)"), skill_key("done"))
        scorer = ScriptedScorer(("x", (dict(zip(candidates, values)),)))
        for _ in range(2):
            with pytest.raises(ScorerFailure, match=f"^{message}$"):
                scorer.score(ScoreRequest("x", (), candidates))

    def test_an_exact_row_whose_sum_overflows_is_accepted(self):
        candidates = (skill_key("answer(cup)"), skill_key("done"))
        row = dict(zip(candidates, [1e308, 1e308]))
        assert ScriptedScorer(("x", (row,))).score(ScoreRequest("x", (), candidates)).scores is row


SKILL_TEXT = st.text(alphabet="(),_ amo", max_size=6)


@st.composite
def skills(draw):
    name = draw(st.sampled_from(sorted(SKILL_ARITIES)))
    return SkillInstance(name, [draw(SKILL_TEXT) for _ in range(SKILL_ARITIES[name])])


@st.composite
def skill_and_text(draw):
    """A skill and a text that is its own, a near miss of it, or arbitrary."""
    skill = draw(skills())
    own = skill.to_text()
    text = draw(st.one_of(
        st.just(own),
        st.just(f" {own}"),
        st.just(own.replace("(", "( ", 1)),
        st.just(own[:-1]),
        st.just(own + ")"),
        st.builds(lambda other: other.to_text(), skills()),
        st.text(alphabet="(),_ amodnevtf", max_size=12),
    ))
    return skill, text


class TestSkillKey:
    """A row text keys exactly the skill whose to_text() it is."""

    def test_no_skill_takes_two_arguments(self):
        # skill_key reads everything between the parentheses as one argument.
        assert max(SKILL_ARITIES.values()) <= 1

    @settings(max_examples=500, deadline=None)
    @given(skill_and_text())
    @example((SkillInstance("move_to", ("kitchen",)), "move_to( kitchen )"))
    @example((SkillInstance("move_to", ("a,b",)), "move_to(a,b)"))
    @example((SkillInstance("move_to", ("",)), "move_to()"))
    @example((SkillInstance("answer", ("f(x)",)), "answer(f(x))"))
    @example((SkillInstance("done"), "done()"))
    def test_key_equals_a_skill_exactly_when_it_is_its_text(self, case):
        skill, text = case
        own = skill.to_text() == text
        key = skill_key(text)
        assert (key == skill) == own
        assert ({key: 1}.get(skill) == 1) == own

    def test_text_with_inner_spaces_is_not_scored(self):
        doc = {"command": "x", "rows": [
            {"history_length": 0, "scores": {"move_to( kitchen )": 0.5, "done": 0.1}},
        ]}
        scorer = ScriptedScorer(load_scenario(json.dumps(doc)))
        with pytest.raises(ScorerFailure) as err:
            scorer.score(request_for("move_to(kitchen)", "done", command="x"))
        assert str(err.value) == "no scripted score for move_to(kitchen) at step 0"

    def test_place_name_with_a_comma_is_scored(self):
        doc = {"command": "x", "rows": [
            {"history_length": 0, "scores": {"move_to(a,b)": 0.5, "done": 0.1}},
        ]}
        scorer = ScriptedScorer(load_scenario(json.dumps(doc)))
        room = SkillInstance("move_to", ("a,b",))
        request = ScoreRequest("x", (), (room, SkillInstance("done")))
        assert scorer.score(request).scores == {room: 0.5, SkillInstance("done"): 0.1}

    def test_rows_share_one_key_per_text(self):
        _, (first, second) = load_scenario(json.dumps(SCENARIO_DOC))
        done = ("done", ())
        assert next(k for k in first if k == done) is next(k for k in second if k == done)


class TestLoadScenario:
    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            load_scenario("{nope")

    def test_rejects_gap_in_rows(self):
        doc = dict(SCENARIO_DOC, rows=[dict(SCENARIO_DOC["rows"][0], history_length=1)])
        with pytest.raises(ParseError):
            load_scenario(json.dumps(doc))

    def test_rejects_unknown_keys(self):
        with pytest.raises(ParseError):
            load_scenario(json.dumps(dict(SCENARIO_DOC, extra=1)))

    def test_rejects_non_numeric_scores(self):
        doc = {
            "command": "x",
            "rows": [{"history_length": 0, "scores": {"done": "high"}}],
        }
        with pytest.raises(ParseError):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("length", [False, True, 1.0])
    def test_rejects_history_length_not_an_int(self, length, rows):
        doc = {"command": "x", "rows": [
            {"history_length": i, "scores": {"done": 1.0}} for i in range(rows)
        ]}
        doc["rows"][rows - 1]["history_length"] = length
        with pytest.raises(ParseError, match=rf"^row {rows - 1} has history_length {length}$"):
            load_scenario(json.dumps(doc))

    def test_rejects_boolean_scores(self):
        doc = {"command": "x", "rows": [{"history_length": 0, "scores": {"done": True}}]}
        with pytest.raises(ParseError):
            load_scenario(json.dumps(doc))

    @pytest.mark.parametrize("scores, error, message", [
        ({"done": -1.0, "handover": "x"}, ParseError, "row 0 score handover: expected a number"),
        ({"done": -1.0, "handover": math.nan}, ValidationError, "handover: not a finite number"),
        ({"done": 1, "handover": -0.5}, ValidationError, "handover: negative"),
        ({"done": -0.5, "handover": 1}, ValidationError, "done: negative"),
    ])
    def test_type_and_finiteness_errors_come_before_negatives(self, scores, error, message):
        doc = {"command": "x", "rows": [{"history_length": 0, "scores": scores}]}
        with pytest.raises(error) as err:
            load_scenario(json.dumps(doc))
        assert str(err.value).endswith(message)


class TestConfig:
    def test_missing_everything(self):
        with pytest.raises(ConfigMissing):
            config_from_env({})

    def test_missing_key_only(self):
        with pytest.raises(ConfigMissing) as err:
            config_from_env({"SEMPLAN_LLM_ENDPOINT": "http://localhost:1"})
        assert "SEMPLAN_LLM_KEY" in str(err.value)

    def test_model_defaults(self):
        config = config_from_env(
            {"SEMPLAN_LLM_ENDPOINT": "http://localhost:1", "SEMPLAN_LLM_KEY": "k"}
        )
        assert config.model == DEFAULT_MODEL

    def test_unconfigured_scorer_makes_no_network_calls(self):
        with MockLlmServer({"done": [-1.0]}) as server:
            with pytest.raises(ConfigMissing):
                LlmScorer.from_env({})
            assert server.request_count == 0


def config_for(server, **overrides) -> LlmConfig:
    settings = dict(
        endpoint=server.url, key="test-key", backoff_base=0.01, timeout=5.0
    )
    settings.update(overrides)
    return LlmConfig(**settings)


class TestLlmScore:
    def test_exp_sum_of_suffix_logprobs(self):
        with MockLlmServer({"grasp(apple)": [-1.0], "handover": [-2.0]}) as server:
            response = llm_score(
                request_for("grasp(apple)", "handover"), config_for(server)
            )
        scores = {c.to_text(): v for c, v in response.scores.items()}
        assert scores["grasp(apple)"] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert scores["handover"] == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_multi_token_suffix_sums(self):
        with MockLlmServer({"move_to(kitchen)": [-0.5, -1.25, -0.125]}) as server:
            response = llm_score(request_for("move_to(kitchen)"), config_for(server))
        (value,) = response.scores.values()
        assert value == pytest.approx(math.exp(-1.875), abs=1e-12)

    def test_all_underflowing_candidates_score_relative_to_the_best(self):
        logprobs = {"done": [-400.0, -400.0], "handover": [-400.0, -401.0], "answer(apple)": [-1.0]}
        with MockLlmServer(logprobs) as server:
            underflow = llm_score(request_for("done", "handover"), config_for(server))
            mixed = llm_score(request_for("done", "answer(apple)"), config_for(server))
        scores = {c.to_text(): v for c, v in underflow.scores.items()}
        assert scores == {"done": 1.0, "handover": math.exp(-1.0)}
        scores = {c.to_text(): v for c, v in mixed.scores.items()}
        assert scores == {"done": 0.0, "answer(apple)": math.exp(-1.0)}

    def test_positive_logprob_is_a_scorer_failure(self):
        with MockLlmServer({"done": [800.0], "handover": [-1.0]}) as server:
            with pytest.raises(ScorerFailure):
                llm_score(request_for("done", "handover"), config_for(server))

    def test_prompt_includes_command_and_history(self):
        request = request_for(
            "grasp(apple)",
            history=("move_to(kitchen_table)", "find_obj(apple)"),
        )
        with MockLlmServer({"grasp(apple)": [-1.0]}) as server:
            llm_score(request, config_for(server))
            body = server.requests[0]
        prefix = build_prompt(request.command, request.history)
        assert body["prompt"] == prefix + " grasp(apple)"
        assert "Bring me the apple" in prefix
        assert "move_to(kitchen_table), find_obj(apple)" in prefix
        assert body["max_tokens"] == 0
        assert body["echo"] is True
        assert body["logprobs"] is True

    def test_retries_transient_then_succeeds(self):
        with MockLlmServer({"done": [-1.0]}) as server:
            server.fail_statuses = [500, 503]
            started = time.monotonic()
            response = llm_score(request_for("done"), config_for(server))
            elapsed = time.monotonic() - started
        assert server.request_count == 3
        (value,) = response.scores.values()
        assert value == pytest.approx(math.exp(-1.0), abs=1e-12)
        # Two backoff sleeps: base and 2 * base.
        assert elapsed >= 0.025

    def test_persistent_500_exhausts_retries(self):
        with MockLlmServer({"done": [-1.0]}) as server:
            server.fail_statuses = [500, 500, 500]
            with pytest.raises(ScorerFailure):
                llm_score(request_for("done"), config_for(server))
            assert server.request_count == 3

    def test_client_error_fails_fast(self):
        with MockLlmServer({"done": [-1.0]}) as server:
            server.fail_statuses = [404]
            with pytest.raises(ScorerFailure):
                llm_score(request_for("done"), config_for(server))
            assert server.request_count == 1

    def test_unreachable_endpoint(self):
        config = LlmConfig(
            endpoint="http://127.0.0.1:9", key="k", backoff_base=0.001, timeout=0.2
        )
        with pytest.raises(ScorerFailure):
            llm_score(request_for("done"), config)

    @pytest.mark.parametrize("endpoint, key", [
        ("localhost:9", "k"),
        ("ftp://127.0.0.1:9", "k"),
        ("file:///etc", "k"),
        ("http://[::1", "k"),
        ("http://a b", "k"),
        ("http://127.0.0.1:9", "a\nb"),
    ])
    def test_bad_endpoint_or_key_is_scorer_failure(self, monkeypatch, endpoint, key):
        def refuse(*args, **kwargs):
            raise socket.gaierror("no name lookups in this test")

        def never(*args, **kwargs):
            pytest.fail("opened a file: or ftp: URL")

        monkeypatch.setattr(socket, "getaddrinfo", refuse)
        monkeypatch.setattr(urllib.request.FileHandler, "file_open", never)
        monkeypatch.setattr(urllib.request.FTPHandler, "ftp_open", never)
        config = LlmConfig(endpoint=endpoint, key=key, backoff_base=0.001, timeout=0.2)
        with pytest.raises(ScorerFailure):
            llm_score(request_for("done"), config)

    @pytest.mark.parametrize("endpoint", [
        "localhost:9", "ftp://127.0.0.1:9", "file:///etc", "http://[::1",
    ])
    def test_non_http_endpoint_rejected_before_any_request(self, monkeypatch, endpoint):
        monkeypatch.setattr(
            urllib.request.OpenerDirector, "open", lambda *a, **kw: pytest.fail("request made")
        )
        config = LlmConfig(endpoint=endpoint, key="k", backoff_base=0.001, timeout=0.2)
        with pytest.raises(ScorerFailure):
            llm_score(request_for("done"), config)

    def test_sends_key_and_json(self):
        with MockLlmServer({"done": [-1.0]}) as server:
            llm_score(request_for("done"), config_for(server))
            (headers,) = server.headers
        assert headers["Authorization"] == "Bearer test-key"
        assert headers["Content-Type"] == "application/json"

    def test_redirect_drops_the_key(self):
        with MockLlmServer({"done": [-1.0]}) as server:
            server.redirect_to = server.url + "/elsewhere"
            with pytest.raises(ScorerFailure):
                llm_score(request_for("done"), config_for(server))
            assert [h.get("Authorization") for h in server.headers] == ["Bearer test-key", None]

    def test_redirect_to_ftp_is_not_followed(self, monkeypatch):
        monkeypatch.setattr(
            urllib.request.FTPHandler, "ftp_open", lambda *a: pytest.fail("opened ftp:")
        )
        with MockLlmServer({"done": [-1.0]}) as server:
            server.redirect_to = "ftp://127.0.0.1:9/x"
            with pytest.raises(ScorerFailure):
                llm_score(request_for("done"), config_for(server, backoff_base=0.001))

    def test_malformed_reply(self):
        with MockLlmServer({"done": [-1.0]}) as server:
            server.malformed = True
            with pytest.raises(ScorerFailure):
                llm_score(request_for("done"), config_for(server))

    @pytest.mark.parametrize("body", [
        b"[" * 100_000 + b"]" * 100_000, b"\xff\xfe", b"[1, 2]",
    ], ids=["nested-too-deep", "not-utf8", "not-an-object"])
    def test_unparseable_reply(self, body):
        with MockLlmServer({"done": [-1.0]}) as server:
            server.malformed = body
            with pytest.raises(ScorerFailure):
                llm_score(request_for("done"), config_for(server))

    def test_concurrency_capped(self):
        texts = [f"find_obj(x{i})" for i in range(8)]
        with MockLlmServer({t: [-1.0] for t in texts}, handler_delay=0.05) as server:
            llm_score(request_for(*texts), config_for(server))
            assert 2 <= server.max_in_flight <= 4

    def test_scorer_metadata_names_template(self):
        scorer = LlmScorer(LlmConfig(endpoint="http://x", key="k"))
        assert scorer.describe()["prompt_template"] == PROMPT_TEMPLATE_ID


def reply(offsets, logprobs):
    return {"choices": [{"logprobs": {"text_offset": offsets, "token_logprobs": logprobs}}]}


class TestSuffixLogprobSum:
    def test_sums_tokens_at_or_after_the_candidate(self):
        assert _suffix_logprob_sum(reply([0, 5, 9], [None, -0.5, -0.25]), 5) == -0.75

    @pytest.mark.parametrize("logprob", [800, 1e-300])
    def test_positive_logprob_rejected(self, logprob):
        with pytest.raises(ScorerFailure):
            _suffix_logprob_sum(reply([0, 5, 9], [None, -0.5, logprob]), 5)

    @pytest.mark.parametrize("logprob", [None, "x", math.nan, -math.inf])
    def test_missing_or_non_finite_logprob_rejected(self, logprob):
        with pytest.raises(ScorerFailure, match="^missing logprob for a candidate token$"):
            _suffix_logprob_sum(reply([0, 5, 9], [None, -0.5, logprob]), 5)

    def test_zero_logprob_accepted(self):
        assert _suffix_logprob_sum(reply([0, 5], [None, 0]), 5) == 0.0

    def test_truncated_reply_rejected(self):
        with pytest.raises(ScorerFailure):
            _suffix_logprob_sum(reply([0, 3], [None, -0.5]), 5)

    @pytest.mark.parametrize("offsets, logprobs", [
        ([0, 5, 9], [None, -0.5]),
        ([0, 5], [None, -0.5, -0.25]),
    ])
    def test_length_mismatch_rejected(self, offsets, logprobs):
        with pytest.raises(ScorerFailure):
            _suffix_logprob_sum(reply(offsets, logprobs), 5)
