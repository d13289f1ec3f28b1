"""Future-sequence predictors over recognized action histories.

Three families: a repeat-last baseline, order-m Markov (n-gram) rollouts
with additive smoothing, and an LLM-backed predictor that renders a prompt,
queries a chat endpoint, and parses the reply back into actions. All of
them return exactly K candidate sequences of exactly the horizon length.
"""

from __future__ import annotations

import json
import logging
import re
import threading
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .dataset_io import ClipRecord, PredictionSet
from .errors import DataError, LlmError
from .taxonomy import Action, Taxonomy, format_action, parse_action

logger = logging.getLogger(__name__)

DEFAULT_CANDIDATES = 5
# Cap on the n-gram step memo; an entry costs its two width-long arrays plus
# about half a KB of Python objects (measured with tracemalloc at width 5).
STEP_MEMO_BYTES = 64 << 20
_STEP_ENTRY_OVERHEAD = 512


@dataclass(frozen=True)
class PromptTemplate:
    """System text plus a user template with {history} and {Z} placeholders."""

    system_text: str
    user_template: str


DEFAULT_PROMPT = PromptTemplate(
    system_text=(
        "You watch a first-person activity video and forecast what its wearer does next. "
        "Reply only with future actions, each a verb and a noun separated by one space, "
        "actions separated by commas."
    ),
    user_template=(
        "The observed actions so far, in order: {history}. "
        "Predict the next {Z} actions in order, comma-separated."
    ),
)


def load_prompt_template(path) -> PromptTemplate:
    """Read a template config file: JSON with system_text and user_template."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: template file must hold a JSON object")
    for key in ("system_text", "user_template"):
        if not isinstance(raw.get(key), str):
            raise DataError(f"{path}: missing or non-string field {key!r}")
    return PromptTemplate(raw["system_text"], raw["user_template"])


def render_prompt(template: PromptTemplate, history: str, horizon: int) -> str:
    """Substitute the history text and the horizon into the user template."""
    for placeholder in ("{history}", "{Z}"):
        if template.user_template.count(placeholder) != 1:
            raise DataError(f"user template must contain {placeholder} exactly once")
    return template.user_template.replace("{history}", history).replace("{Z}", str(int(horizon)))


def format_action_history(actions: list[Action], taxonomy: Taxonomy) -> str:
    if not actions:
        raise DataError("cannot format an empty action history")
    return ", ".join(format_action(a, taxonomy) for a in actions)


@dataclass
class ParsedResponse:
    """Actions recovered from a model reply, plus what was skipped or padded."""

    actions: list[Action]
    skipped: list[str]
    padded: int


_ENUM_PREFIX = re.compile(r"^\(?\d+[.):]\s*")


def parse_response(
    text: str, taxonomy: Taxonomy, horizon: int, fallback: Action | None = None
) -> ParsedResponse:
    """Total parser for model replies; always yields exactly `horizon` actions.

    Tokens are split on commas and newlines; a leading "1." / "2)" style
    enumeration marker is tolerated. Unparseable tokens are skipped and
    reported. Short outputs are padded by repeating the last parsed action,
    or `fallback` (pass the most frequent training action) when nothing
    parsed at all, or action (0, 0) as the last resort. Long outputs are
    truncated.
    """
    actions: list[Action] = []
    skipped: list[str] = []
    for raw in re.split(r"[,\n]+", text or ""):
        token = _ENUM_PREFIX.sub("", " ".join(raw.split()))
        if not token:
            continue
        try:
            actions.append(parse_action(token, taxonomy))
        except DataError:
            skipped.append(token)
    if len(actions) >= horizon:
        return ParsedResponse(actions[:horizon], skipped, 0)
    pad = horizon - len(actions)
    if actions:
        filler = actions[-1]
    elif fallback is not None:
        filler = fallback
    else:
        filler = Action(0, 0)
    return ParsedResponse(actions + [filler] * pad, skipped, pad)


class NgramModel:
    """Order-m Markov model over actions with additive smoothing beta > 0.

    Contexts are (m-1)-tuples of action ids (verb * |N| + noun); the
    smoothed conditional is a proper distribution for every context, seen
    or unseen. Rollout steps are memoized per (context, pool width) until
    the next observe().
    """

    def __init__(self, order: int, beta: float, num_verbs: int, num_nouns: int):
        if order < 1:
            raise DataError("n-gram order must be >= 1")
        if not beta > 0:
            raise DataError("smoothing beta must be > 0")
        self.order = order
        self.beta = float(beta)
        self.num_verbs = num_verbs
        self.num_nouns = num_nouns
        self.num_actions = num_verbs * num_nouns
        self._transitions: dict[tuple[int, ...], Counter] = {}
        self._occurrences: Counter = Counter()
        self._steps: dict[tuple[tuple[int, ...], int], tuple] = {}
        self._steps_bytes = 0
        self._steps_lock = threading.Lock()

    def action_id(self, action: Action) -> int:
        return action.verb * self.num_nouns + action.noun

    def action_from_id(self, idx: int) -> Action:
        return Action(idx // self.num_nouns, idx % self.num_nouns)

    def observe(self, actions: list[Action]) -> None:
        """Tally every length-m window of one clip's action sequence."""
        ids = [self.action_id(a) for a in actions]
        with self._steps_lock:
            self._steps.clear()
            self._steps_bytes = 0
        self._occurrences.update(ids)
        width = self.order
        for i in range(len(ids) - width + 1):
            context = tuple(ids[i : i + width - 1])
            self._transitions.setdefault(context, Counter())[ids[i + width - 1]] += 1

    def context_for(self, ids: list[int]) -> tuple[int, ...]:
        if self.order == 1:
            return ()
        return tuple(ids[-(self.order - 1) :])

    def conditional(self, context) -> np.ndarray:
        """Smoothed next-action distribution given a context of (m-1) action ids."""
        probs = np.full(self.num_actions, self.beta, dtype=float)
        for nxt, count in self._transitions.get(tuple(context), {}).items():
            probs[nxt] += count
        return probs / probs.sum()

    def step(self, context: tuple[int, ...], width: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Greedy next id, the `width` most probable ids, and their renormalized weights.

        Computed once per (context, width) from the dense conditional and then
        reused. Threads share the memo: a race at worst computes an entry
        twice, and entries are stored whole, under a lock. The memo starts
        over when its estimated size passes STEP_MEMO_BYTES, so wide pools
        over many distinct contexts cannot grow it without bound.
        """
        key = (context, width)
        step = self._steps.get(key)
        if step is None:
            probs = self.conditional(context)
            # Copy: a slice would keep the whole num_actions-wide argsort alive.
            pool = np.argsort(-probs, kind="stable")[:width].copy()
            weights = probs[pool]
            # argmax takes the first occurrence, so ties go to the lowest id.
            step = (int(np.argmax(probs)), pool, weights / weights.sum())
            with self._steps_lock:
                if self._steps_bytes > STEP_MEMO_BYTES:
                    self._steps.clear()
                    self._steps_bytes = 0
                self._steps[key] = step
                self._steps_bytes += _STEP_ENTRY_OVERHEAD + 2 * pool.nbytes
        return step

    def most_frequent_action(self) -> Action:
        if not self._occurrences:
            raise DataError("model has seen no actions")
        idx = min(self._occurrences, key=lambda a: (-self._occurrences[a], a))
        return self.action_from_id(idx)


def fit_ngram(
    annotations: list[ClipRecord], order: int, beta: float, taxonomy: Taxonomy
) -> NgramModel:
    """Fit transition counts over each clip's observed+future actions."""
    if not annotations:
        raise DataError("cannot fit an n-gram model on an empty corpus")
    model = NgramModel(order, beta, taxonomy.num_verbs, taxonomy.num_nouns)
    for record in annotations:
        model.observe(record.observed + list(record.future or ()))
    if not model._occurrences:
        raise DataError("annotation corpus contains no actions")
    return model


def _check_predict_args(clip_id: str, history, horizon: int, num_candidates: int) -> None:
    if not history:
        raise DataError(f"clip {clip_id!r}: empty history, nothing to anticipate from")
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    if num_candidates < 1:
        raise DataError("need at least one candidate sequence")


def _clip_stream_key(clip_id: str) -> int:
    # Stable across runs (unlike hash()) so per-clip sampling is order-independent.
    return zlib.crc32(clip_id.encode("utf-8"))


class RepeatLastPredictor:
    """K copies of the last observed action repeated across the horizon."""

    def predict(
        self,
        clip_id: str,
        history: list[Action],
        horizon: int = 20,
        num_candidates: int = DEFAULT_CANDIDATES,
    ) -> PredictionSet:
        _check_predict_args(clip_id, history, horizon, num_candidates)
        sequence = [history[-1]] * horizon
        return PredictionSet(clip_id, [list(sequence) for _ in range(num_candidates)])


class NgramPredictor:
    """Rollouts from an NgramModel.

    In greedy mode the first candidate is the argmax rollout (ties toward
    the lowest action id) and the remaining K-1 are sampled; in sample mode
    all K are sampled. Sampling draws from the `sample_top_k` most probable
    next actions at each step, re-seeded per clip so results do not depend
    on clip processing order.
    """

    def __init__(self, model: NgramModel, mode: str = "greedy", seed: int = 0, sample_top_k: int = 5):
        if mode not in ("greedy", "sample"):
            raise DataError(f"unknown decoding mode {mode!r}")
        if sample_top_k < 1:
            raise DataError("sample_top_k must be >= 1")
        self.model = model
        self.mode = mode
        self.seed = seed
        self.sample_top_k = sample_top_k

    def predict(
        self,
        clip_id: str,
        history: list[Action],
        horizon: int = 20,
        num_candidates: int = DEFAULT_CANDIDATES,
    ) -> PredictionSet:
        _check_predict_args(clip_id, history, horizon, num_candidates)
        rng = np.random.default_rng([self.seed, _clip_stream_key(clip_id)])
        candidates = []
        for index in range(num_candidates):
            greedy = self.mode == "greedy" and index == 0
            candidates.append(self._rollout(history, horizon, None if greedy else rng))
        return PredictionSet(clip_id, candidates)

    def _rollout(self, history: list[Action], horizon: int, rng) -> list[Action]:
        model = self.model
        width = min(self.sample_top_k, model.num_actions)
        ids = [model.action_id(a) for a in history]
        out: list[Action] = []
        for _ in range(horizon):
            greedy, pool, weights = model.step(model.context_for(ids), width)
            nxt = greedy if rng is None else int(rng.choice(pool, p=weights))
            ids.append(nxt)
            out.append(model.action_from_id(nxt))
        return out


class LlmPredictor:
    """Prompt a chat endpoint for K completions and parse each into a sequence.

    The first completion is requested at temperature 0, the rest at the
    configured sampling temperature. Endpoint errors are re-raised with the
    clip id attached.
    """

    def __init__(
        self,
        client,
        taxonomy: Taxonomy,
        template: PromptTemplate = DEFAULT_PROMPT,
        fallback: Action | None = None,
        temperature: float | None = None,
    ):
        self.client = client
        self.taxonomy = taxonomy
        self.template = template
        self.fallback = fallback
        self.temperature = temperature

    def predict(
        self,
        clip_id: str,
        history: list[Action],
        horizon: int = 20,
        num_candidates: int = DEFAULT_CANDIDATES,
    ) -> PredictionSet:
        _check_predict_args(clip_id, history, horizon, num_candidates)
        user = render_prompt(
            self.template, format_action_history(history, self.taxonomy), horizon
        )
        candidates = []
        for index in range(num_candidates):
            temperature = 0.0 if index == 0 else self.temperature
            try:
                text = self.client.complete(self.template.system_text, user, temperature)
            except LlmError as exc:
                raise type(exc)(f"clip {clip_id!r}: {exc}") from exc
            parsed = parse_response(text, self.taxonomy, horizon, self.fallback)
            if parsed.skipped or parsed.padded:
                logger.debug(
                    "clip %s candidate %d: skipped %d tokens, padded %d actions",
                    clip_id,
                    index,
                    len(parsed.skipped),
                    parsed.padded,
                )
            candidates.append(parsed.actions)
        return PredictionSet(clip_id, candidates)
