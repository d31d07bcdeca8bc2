"""Greedy skill sequencing with rule-filtered candidates.

The planner grounds a candidate skill universe from the map and the
command, filters it through hard admissibility rules, asks a scorer for
likelihoods, and appends the argmax until "done" wins. Rules:

  R1: a candidate whose name equals the previous step's name is rejected
      ("done" is exempt so the candidate set can never be empty).
  R2: grasp(x) requires find_obj(x) earlier with no grasp in between.
  R3: place/handover require a held object; find_obj/grasp require an
      empty gripper.
  R4: done is always admissible.
"""

from __future__ import annotations

import re
from collections import namedtuple
from itertools import groupby
from operator import is_, itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import (
    ParseError,
    PlanTooLong,
    ScorerFailure,
    UnknownSkill,
    UnresolvedAmbiguity,
)
from .scorer import ScoreRequest, ScoreResponse, normalize, skill_key
from .semantic_map import OPERATOR, SemanticMap

SKILL_ARITIES = {
    "move_to": 1,
    "find_obj": 1,
    "grasp": 1,
    "place": 1,
    "handover": 0,
    "answer": 1,
    "follow_person": 0,
    "done": 0,
}

DEFAULT_MAX_STEPS = 20

# Words treated as unresolved references in a command. The noun-like ones
# keep a preceding determiner when substituted; the pronoun-like ones are
# replaced together with an inserted "the".
AMBIGUOUS_VOCABULARY = frozenset({"object", "it", "thing", "something", "one", "them"})
_PRONOUN_LIKE = frozenset({"it", "them", "something"})
_DETERMINERS = frozenset(
    {"the", "a", "an", "this", "that", "these", "those", "some", "any"}
)

# Function words and common command verbs excluded when object nouns are
# extracted from a resolved command.
_STOPWORDS = _DETERMINERS | AMBIGUOUS_VOCABULARY | frozenset(
    {
        "me", "my", "your", "you", "i", "we", "us", "him", "her", "his",
        "hers", "their", "theirs", "its", "please", "and", "or", "then",
        "to", "on", "in", "at", "from", "into", "onto", "with", "for",
        "of", "up", "down", "over", "under", "there", "here", "by",
        "bring", "put", "take", "go", "move", "find", "get", "give",
        "fetch", "grab", "carry", "deliver", "hand", "pick", "place",
        "tell", "say", "answer", "follow", "come", "look", "search",
        "person", "what", "which", "who", "where", "is", "are", "was", "be",
    }
)


class SkillInstance(namedtuple("SkillInstance", "name args")):
    """A skill name with grounded arguments, e.g. grasp(apple).

    The (name, args) tuple itself: it hashes and compares as that tuple.
    _replace goes through __new__, so it checks the arity too.
    """

    __slots__ = ()

    def __new__(cls, name: str, args: Iterable[str] = ()):
        arity = SKILL_ARITIES.get(name)
        if arity is None:
            raise UnknownSkill(f"unknown skill: {name}")
        args = tuple(args)
        if len(args) != arity:
            raise ValueError(f"{name} takes {arity} argument(s), got {len(args)}")
        return tuple.__new__(cls, (name, args))

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def to_text(self) -> str:
        name, args = self
        return f"{name}({','.join(args)})" if args else name

    __str__ = to_text


_NAME = itemgetter(0)

_SKILL_TEXT = re.compile(r"^([a-z_]+)(?:\((.*)\))?$")


def parse_skill(text: str) -> SkillInstance:
    """Inverse of SkillInstance.to_text."""
    match = _SKILL_TEXT.match(text.strip())
    if not match:
        raise ParseError(f"malformed skill text: {text!r}")
    name, arg_text = match.group(1), match.group(2)
    if arg_text is None:
        args: tuple[str, ...] = ()
    else:
        args = tuple(part.strip() for part in arg_text.split(",")) if arg_text.strip() else ()
    try:
        return SkillInstance(name, args)
    except ValueError as err:
        raise ParseError(str(err)) from err


class Clarification(NamedTuple):
    """A question asked to pin down one ambiguous token."""

    question: str
    slot: str


class Command(NamedTuple):
    raw: str
    resolved: str
    substitutions: tuple[tuple[str, str], ...] = ()


class PlanTrace(NamedTuple):
    """Chosen steps plus the normalized candidate scores behind each one."""

    steps: tuple[SkillInstance, ...] = ()
    step_scores: tuple[dict, ...] = ()
    metadata: tuple[tuple[str, str], ...] = ()


AnswerOracle = Callable[[Clarification], Optional[str]]

_WORD = re.compile(r"[A-Za-z_']+")


def resolve_ambiguity(raw: str, oracle: AnswerOracle) -> Command:
    """Replace every ambiguous-vocabulary token via one clarification each.

    Noun-like tokens after a determiner are swapped in place ("the object"
    becomes "the apple"); pronoun-like or bare tokens are replaced with
    "the <answer>". The oracle is asked once per occurrence, in order.
    """
    substitutions = []
    resolved_parts = []
    cursor = 0
    prev_word: Optional[str] = None
    for match in _WORD.finditer(raw):
        word = match.group(0)
        lowered = word.lower()
        if lowered in AMBIGUOUS_VOCABULARY:
            question = f"What does \"{word}\" refer to?"
            answer = oracle(Clarification(question=question, slot=word))
            answer = (answer or "").strip()
            if not answer:
                raise UnresolvedAmbiguity(f"no answer for ambiguous token {word!r}")
            keeps_determiner = (
                lowered not in _PRONOUN_LIKE
                and prev_word is not None
                and prev_word in _DETERMINERS
            )
            replacement = answer if keeps_determiner else f"the {answer}"
            resolved_parts.append(raw[cursor : match.start()])
            resolved_parts.append(replacement)
            cursor = match.end()
            substitutions.append((word, answer))
        prev_word = lowered
    resolved_parts.append(raw[cursor:])
    resolved = "".join(resolved_parts)

    leftover = [
        w.group(0)
        for w in _WORD.finditer(resolved)
        if w.group(0).lower() in AMBIGUOUS_VOCABULARY
    ]
    if leftover:
        raise UnresolvedAmbiguity(
            f"clarification answers left ambiguous tokens in place: {leftover}"
        )
    return Command(raw=raw, resolved=resolved, substitutions=tuple(substitutions))


def extract_objects(smap: SemanticMap, resolved: str) -> tuple[str, ...]:
    """Object nouns: command words minus function words and location names."""
    place_words = smap.place_words
    seen = []
    for match in _WORD.finditer(resolved):
        word = match.group(0).lower()
        if word in _STOPWORDS or word in place_words:
            continue
        if word not in seen:
            seen.append(word)
    return tuple(sorted(seen))


# One skill per text, shared with the score rows that skill_key keys.
_DONE = skill_key("done")
_FOLLOW_PERSON = skill_key("follow_person")
_HANDOVER = skill_key("handover")


def _grounded_tail(smap: SemanticMap) -> tuple[SkillInstance, ...]:
    """move_to over the sorted places and OPERATOR, then place over the furniture.

    Built once per map (SemanticMap.derive); furniture is stored sorted by name.
    """
    locations = sorted([*smap.places, OPERATOR])
    return (
        *[skill_key(f"move_to({loc})") for loc in locations],
        *[skill_key(f"place({f.name})") for f in smap.furniture],
    )


def ground_candidates(smap: SemanticMap, command: Command) -> tuple[SkillInstance, ...]:
    """Every skill over map places and command objects, sorted by (name, args).

    Names are emitted in sorted order, each over its sorted arguments. Each
    skill is skill_key's for its text, and the move_to/place tail is the
    map's own, so equal candidates of every plan are one object.
    """
    objects = extract_objects(smap, command.resolved)
    return (
        *[skill_key(f"answer({obj})") for obj in objects],
        _DONE,
        *[skill_key(f"find_obj({obj})") for obj in objects],
        _FOLLOW_PERSON,
        *[skill_key(f"grasp({obj})") for obj in objects],
        _HANDOVER,
        *smap.derive(_grounded_tail),
    )


def history_hints(history: Iterable[SkillInstance]):
    """Derive (held, found) from a skill history.

    found clears at each grasp, so a later grasp(x) needs a fresh
    find_obj(x); held clears when the object is placed or handed over.
    """
    held: Optional[str] = None
    found: set[str] = set()
    for skill in history:
        if skill.name == "find_obj":
            found.add(skill.args[0])
        elif skill.name == "grasp":
            held = skill.args[0]
            found = set()
        elif skill.name in ("place", "handover"):
            held = None
    return held, frozenset(found)


def _name_runs(skill_set: Iterable[SkillInstance]) -> tuple:
    """(name, run) for each run of equal names in skill_set, each run a tuple."""
    return tuple((name, tuple(run)) for name, run in groupby(skill_set, _NAME))


def _admissible(runs: tuple, previous: Optional[str], held: Optional[str], found) -> tuple:
    """The skills of runs that survive rules R1 to R4, in order.

    Every rule but R2 depends on the name alone, so each run is kept or
    dropped whole; only grasp's run is filtered skill by skill.
    """
    out = []
    for name, run in runs:
        if name == "done":
            out += run
        elif name == previous:
            continue
        elif name == "grasp":
            if held is None:
                out += [skill for skill in run if skill.args[0] in found]
        elif name in ("place", "handover"):
            if held is not None:
                out += run
        elif name != "find_obj" or held is None:
            out += run
    return tuple(out)


def admissible_skills(
    skill_set: Iterable[SkillInstance],
    history: tuple[SkillInstance, ...],
    held: Optional[str],
    found: frozenset,
) -> tuple[SkillInstance, ...]:
    """Candidates surviving rules R1 to R4, in skill_set order."""
    previous = history[-1].name if history else None
    return _admissible(_name_runs(skill_set), previous, held, found)


def _step(command: Command, history: tuple, scorer, runs: tuple):
    """The argmax admissible skill after history, and the normalized scores.

    runs is _name_runs of the skill set.
    """
    held, found = history_hints(history)
    candidates = _admissible(runs, history[-1].name if history else None, held, found)
    assert candidates, "done keeps the candidate set nonempty"
    response = scorer.score(ScoreRequest(command.resolved, history, candidates))
    scores = response.scores
    if not (len(scores) == len(candidates) and all(map(is_, scores, candidates))):
        # A plain (name, args) tuple equals its skill but is not a candidate.
        if not all(type(k) is SkillInstance for k in scores) or set(scores) != set(candidates):
            raise ScorerFailure("scorer must score exactly the candidates")
        response = ScoreResponse({c: scores[c] for c in candidates})
    p = response.probabilities
    return candidates[p.index(max(p))], normalize(response)


def plan_next(command: Command, trace: PlanTrace, scorer, skill_set) -> SkillInstance:
    """Argmax of the normalized admissible scores; a tie goes to the first in skill_set."""
    return _step(command, trace.steps, scorer, _name_runs(skill_set))[0]


def _scorer_metadata(scorer) -> tuple[tuple[str, str], ...]:
    describe = getattr(scorer, "describe", None)
    if describe is None:
        return ()
    return tuple(sorted(describe().items()))


def plan_task(
    command: Command,
    scorer,
    skill_set,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> PlanTrace:
    """Append argmax skills until done is selected; cap at max_steps.

    Candidates keep skill_set order, and a tie goes to the first of them.
    skill_set is split into name runs once per plan.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    metadata = _scorer_metadata(scorer)
    runs = _name_runs(skill_set)
    steps: tuple[SkillInstance, ...] = ()
    step_scores = []
    for _ in range(max_steps):
        skill, distribution = _step(command, steps, scorer, runs)
        steps += (skill,)
        step_scores.append(distribution)
        if skill.name == "done":
            return PlanTrace(steps=steps, step_scores=tuple(step_scores), metadata=metadata)
    raise PlanTooLong(f"done not selected within {max_steps} steps")
