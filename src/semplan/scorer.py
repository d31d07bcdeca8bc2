"""Likelihood scoring backends for the skill planner.

Two implementations of the same contract: a scripted scorer that replays
fixture tables (deterministic, used by tests and golden scenarios) and a
network scorer that reads per-token log-probabilities from a completions
endpoint and scores each candidate as exp(sum of its suffix logprobs).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import namedtuple
from operator import is_
from typing import NamedTuple

from .errors import ConfigMissing, ParseError, ScorerFailure, ValidationError
from .jsondoc import check_object, finite, load_object

PROMPT_TEMPLATE_ID = "skill-seq-v1"

ENDPOINT_VAR = "SEMPLAN_LLM_ENDPOINT"
KEY_VAR = "SEMPLAN_LLM_KEY"
MODEL_VAR = "SEMPLAN_LLM_MODEL"
DEFAULT_MODEL = "text-davinci-003"
# Completions requests in flight at once for one scoring step.
MAX_CONCURRENCY = 4


class ScoreRequest(namedtuple("ScoreRequest", "command history candidates")):
    __slots__ = ()

    def __new__(cls, command: str, history, candidates):
        history, candidates = tuple(history), tuple(candidates)
        if not candidates:
            raise ValueError("candidates must be nonempty")
        return tuple.__new__(cls, (command, history, candidates))

    _make = classmethod(lambda cls, iterable: cls(*iterable))


_NUMBER_TYPES = frozenset({int, float, bool})


class ScoreResponse(namedtuple("ScoreResponse", "scores probabilities")):
    """Raw nonnegative scores keyed by candidate, and each score divided by
    their sum, in the order of scores.

    Built from the scores alone: _make, _replace and pickle check them again
    and recompute the probabilities. Read-only: a scripted response's scores
    are its scenario row itself, and ScriptedScorer hands one response to
    every use of that row.
    """

    __slots__ = ()

    def __new__(cls, scores: dict):
        if not scores:
            raise ScorerFailure("empty score table")
        values = scores.values()
        # One C-level pass. A table it refuses is checked entry by entry,
        # which names the first bad entry or accepts what the pass cannot
        # (a subclass of int or float, finite scores whose sum overflows).
        try:
            valid = (
                _NUMBER_TYPES.issuperset(map(type, values))
                and min(values) >= 0
                and math.isfinite(total := sum(values))
                and any(values)
            )
        except OverflowError:  # an int too large for a float
            valid = False
        if not valid:
            positive = False
            for candidate, value in scores.items():
                if not isinstance(value, (int, float)) or not _finite(value):
                    raise ScorerFailure(f"non-finite score for {candidate}")
                if value < 0:
                    raise ScorerFailure(f"negative score for {candidate}")
                positive = positive or value > 0
            if not positive:
                raise ScorerFailure("all scores are zero")
            try:
                total = sum(values)
            except OverflowError:  # an int sum past the largest float met a float
                total = math.inf
            if total == math.inf:
                # Finite scores whose float sum overflows: divided by the
                # largest first, which keeps their order and so the argmax.
                top = max(values)
                values = [value / top for value in values]
                total = sum(values)
        return tuple.__new__(cls, (scores, tuple([value / total for value in values])))

    @classmethod
    def _make(cls, iterable):
        scores, *_ = iterable  # the probabilities are recomputed
        return cls(scores)

    def __reduce__(self):
        return type(self), (self.scores,)


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def normalize(response: ScoreResponse) -> dict:
    """A fresh dict of each candidate's probability; the values sum to 1."""
    return dict(zip(response.scores, response.probabilities))


@functools.lru_cache(maxsize=1024)
def skill_key(text: str) -> tuple:
    """The skill whose SkillInstance.to_text() is exactly text.

    No skill takes more than one argument, so everything between the first
    "(" and a closing ")" is that argument, commas and spaces included; text
    with no such parentheses is a name alone. Text that no skill prints
    gives a plain (name, args) pair that no skill equals. Cached, so that
    score rows and grounded candidates (skills.ground_candidates) share one
    immutable skill per text and a row lookup matches it by identity.
    """
    from .skills import SKILL_ARITIES, SkillInstance  # skills imports this module

    name, paren, rest = text.partition("(")
    if paren and rest.endswith(")"):
        key = (sys.intern(name), (sys.intern(rest[:-1]),))
    else:
        key = (sys.intern(text), ())
    if SKILL_ARITIES.get(key[0]) == len(key[1]):
        return tuple.__new__(SkillInstance, key)
    return key


def load_scenario(text: str) -> tuple[str, tuple]:
    """The (command, rows) pair of a scripted scenario; rows are indexed by history length.

    Each row maps the skill_key of each scored text to its score.
    """
    doc = load_object(text, ("command", "rows"), "scenario")
    command = doc.get("command")
    rows_raw = doc.get("rows")
    if not isinstance(command, str) or not isinstance(rows_raw, list):
        raise ParseError("scenario needs a command string and a rows array")
    rows = []
    row_keys = ("history_length", "scores")
    for i, row in enumerate(rows_raw):
        check_object(row, row_keys, f"row {i}", row_keys)
        history_length = row["history_length"]
        if type(history_length) is not int or history_length != i:
            raise ParseError(f"row {i} has history_length {history_length}")
        scores = row["scores"]
        if not isinstance(scores, dict) or not scores:
            raise ParseError(f"row {i} scores must be a nonempty object")
        row = {skill_key(k): finite(v, f"row {i} score {k}") for k, v in scores.items()}
        for k, v in scores.items():
            if v < 0:
                raise ValidationError(f"row {i} score {k}", "negative")
        rows.append(row)
    return command, tuple(rows)


class ScriptedScorer:
    """Replays a load_scenario (command, rows) pair, one row per history length.

    A candidate matches only the row entry whose text is exactly its
    to_text(). Table entries beyond the requested candidates are ignored; a
    missing candidate, an exhausted scenario, or a command mismatch all
    surface as ScorerFailure because they mean the fixture does not match
    the run.

    A row whose keys are the request's candidates themselves, in order, is
    the response's scores without a copy, and that response is checked on
    the row's first use and returned at every later one; a refused row is
    refused at every use. Rows and responses are read-only.
    """

    def __init__(self, scenario: tuple[str, tuple]):
        self.command, self.rows = scenario
        self._responses = [None] * len(self.rows)

    def describe(self) -> dict:
        return {"scorer": "scripted"}

    def score(self, request: ScoreRequest) -> ScoreResponse:
        if request.command != self.command:
            raise ScorerFailure(
                f"scenario scripted for {self.command!r}, "
                f"got {request.command!r}"
            )
        step = len(request.history)
        if step >= len(self.rows):
            raise ScorerFailure(f"scenario exhausted at history length {step}")
        table = self.rows[step]
        candidates = request.candidates
        if len(table) == len(candidates) and all(map(is_, table, candidates)):
            # The same items in the same order as the subset below.
            response = self._responses[step]
            if response is None:
                response = self._responses[step] = ScoreResponse(table)
            return response
        try:
            scores = {c: table[c] for c in candidates}
        except KeyError as err:
            missing = err.args[0].to_text()
            raise ScorerFailure(f"no scripted score for {missing} at step {step}") from None
        return ScoreResponse(scores)


class LlmConfig(NamedTuple):
    endpoint: str
    key: str
    model: str = DEFAULT_MODEL
    backoff_base: float = 0.5
    timeout: float = 30.0


def config_from_env(environ=None) -> LlmConfig:
    env = os.environ if environ is None else environ
    endpoint = env.get(ENDPOINT_VAR)
    key = env.get(KEY_VAR)
    missing = [name for name, value in ((ENDPOINT_VAR, endpoint), (KEY_VAR, key)) if not value]
    if missing:
        raise ConfigMissing(f"missing environment variables: {', '.join(missing)}")
    return LlmConfig(endpoint=endpoint, key=key, model=env.get(MODEL_VAR, DEFAULT_MODEL))


def build_prompt(command: str, history: tuple) -> str:
    """Shared prompt prefix; candidate text is appended after one space."""
    done_steps = ", ".join(step.to_text() for step in history) or "none"
    return (
        "A home service robot picks its next skill.\n"
        f"Command: {command}\n"
        f"Completed skills: {done_steps}\n"
        "Next skill:"
    )


def _suffix_logprob_sum(payload: dict, prefix_len: int) -> float:
    try:
        logprobs = payload["choices"][0]["logprobs"]
        tokens = zip(logprobs["text_offset"], logprobs["token_logprobs"], strict=True)
        suffix = [logprob for offset, logprob in tokens if offset >= prefix_len]
    except (KeyError, IndexError, TypeError, ValueError) as err:
        raise ScorerFailure(f"malformed completion reply: {err!r}") from err
    if not suffix:
        raise ScorerFailure("reply has no tokens for the candidate")
    total = 0.0
    for logprob in suffix:
        if not isinstance(logprob, (int, float)) or not math.isfinite(logprob):
            raise ScorerFailure("missing logprob for a candidate token")
        if logprob > 0:
            raise ScorerFailure(f"positive logprob {logprob} for a candidate token")
        total += logprob
    return total


def _post_with_retries(config: LlmConfig, body: dict) -> dict:
    # Imported here so that the scripted path loads no HTTP code.
    import urllib.request
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.parse import urlsplit

    url = config.endpoint.rstrip("/") + "/v1/completions"
    try:
        scheme = urlsplit(url).scheme
    except ValueError as err:
        raise ScorerFailure(f"bad endpoint URL: {err}") from err
    if scheme not in ("http", "https"):
        raise ScorerFailure(f"endpoint must be an http or https URL: {config.endpoint!r}")
    data = json.dumps(body).encode()
    # urlopen's handlers without ftp:, file: and data:, so that a redirect
    # leads only to http or https; proxies come from the environment.
    opener = urllib.request.OpenerDirector()
    for handler in (
        urllib.request.ProxyHandler,
        urllib.request.UnknownHandler,
        urllib.request.HTTPHandler,
        urllib.request.HTTPSHandler,
        urllib.request.HTTPDefaultErrorHandler,
        urllib.request.HTTPRedirectHandler,
        urllib.request.HTTPErrorProcessor,
    ):
        opener.add_handler(handler())
    attempts = 3
    last_error = "no attempt made"
    for attempt in range(attempts):
        if attempt:
            time.sleep(config.backoff_base * (2 ** (attempt - 1)))
        # A fresh request per attempt: opening one through a proxy rewrites it.
        request = urllib.request.Request(url, data, {"Content-Type": "application/json"})
        # Unredirected, so that a redirect never carries the key elsewhere.
        request.add_unredirected_header("Authorization", f"Bearer {config.key}")
        try:
            with opener.open(request, timeout=config.timeout) as reply:
                status, text = reply.status, reply.read()
        except HTTPError as err:
            status = err.code
            err.close()
        except (OSError, HTTPException, ValueError) as err:
            # OSError covers URLError and timeouts; ValueError, a header
            # value or host that http.client refuses.
            last_error = f"request failed: {err}"
            continue
        if status == 200:
            try:
                return json.loads(text)
            except (ValueError, RecursionError) as err:
                raise ScorerFailure(f"reply is not JSON: {err}") from err
        if status >= 500 or status == 429:
            last_error = f"transient HTTP {status}"
            continue
        raise ScorerFailure(f"HTTP {status} from scoring endpoint")
    raise ScorerFailure(f"{last_error} after {attempts} attempts")


def llm_score(request: ScoreRequest, config: LlmConfig) -> ScoreResponse:
    """Score each candidate as exp(sum of its continuation logprobs).

    One completions call per candidate with echo enabled and zero new
    tokens, so the reply carries logprobs for the prompt itself; only the
    tokens at or past the candidate's start offset count. When every
    exp(sum) underflows to 0, each candidate scores exp(sum - max sum)
    instead, which keeps the argmax.
    """
    # Imported here so that the scripted path loads no thread-pool code.
    from concurrent.futures import ThreadPoolExecutor

    prefix = build_prompt(request.command, request.history)

    def logprob_sum(candidate) -> float:
        body = {
            "model": config.model,
            "prompt": prefix + " " + candidate.to_text(),
            "max_tokens": 0,
            "echo": True,
            "logprobs": True,
        }
        payload = _post_with_retries(config, body)
        return _suffix_logprob_sum(payload, len(prefix))

    workers = max(1, min(MAX_CONCURRENCY, len(request.candidates)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        sums = list(pool.map(logprob_sum, request.candidates))
    values = [math.exp(s) for s in sums]
    if not any(values):
        top = max(sums)
        values = [math.exp(s - top) for s in sums]
    return ScoreResponse(dict(zip(request.candidates, values)))


class LlmScorer:
    def __init__(self, config: LlmConfig):
        self.config = config

    @classmethod
    def from_env(cls, environ=None) -> "LlmScorer":
        return cls(config_from_env(environ))

    def describe(self) -> dict:
        return {
            "scorer": "llm",
            "prompt_template": PROMPT_TEMPLATE_ID,
            "model": self.config.model,
        }

    def score(self, request: ScoreRequest) -> ScoreResponse:
        return llm_score(request, self.config)
