"""Future-sequence predictors over recognized action histories.

Three families: a repeat-last baseline, order-m Markov (n-gram) rollouts
with additive smoothing, and an LLM-backed predictor that renders a prompt,
queries a chat endpoint, and parses the reply back into actions. All of
them take the history as an L x 2 array of (verb id, noun id) rows and return
exactly K candidate sequences of exactly the horizon length.
"""

from __future__ import annotations

import logging
import math
import re
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._fileio import load_json
from .dataset_io import ClipRecord, PredictionSet
from .errors import DataError, LlmError
from .taxonomy import Taxonomy, format_actions, parse_action

logger = logging.getLogger(__name__)

DEFAULT_CANDIDATES = 5


@dataclass(frozen=True)
class PromptTemplate:
    """System text plus a user template with each of the {history} and {Z} placeholders exactly once."""

    system_text: str
    user_template: str

    def __post_init__(self):
        for placeholder in ("{history}", "{Z}"):
            if self.user_template.count(placeholder) != 1:
                raise DataError(f"user template must contain {placeholder} exactly once")


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
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise DataError(f"{path}: template file must hold a JSON object")
    for key in ("system_text", "user_template"):
        if not isinstance(raw.get(key), str):
            raise DataError(f"{path}: missing or non-string field {key!r}")
    try:
        return PromptTemplate(raw["system_text"], raw["user_template"])
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def render_prompt(template: PromptTemplate, history: str, horizon: int) -> str:
    """Substitute the history text and the horizon into the user template."""
    return template.user_template.replace("{history}", history).replace("{Z}", str(int(horizon)))


def format_action_history(actions: np.ndarray, taxonomy: Taxonomy) -> str:
    if not len(actions):
        raise DataError("cannot format an empty action history")
    return ", ".join(format_actions(actions, taxonomy))


@dataclass(eq=False)
class ParsedResponse:
    """Actions recovered from a model reply (a horizon x 2 id array), plus what was skipped or padded."""

    actions: np.ndarray
    skipped: list[str]
    padded: int


_ENUM_PREFIX = re.compile(r"^\(?\d+[.):]\s*")


def parse_response(text: str, taxonomy: Taxonomy, horizon: int,
                   fallback: tuple[int, int] | None = None) -> ParsedResponse:
    """Total parser for model replies; always yields exactly `horizon` actions.

    Tokens are split on commas and newlines; a leading "1." / "2)" style
    enumeration marker is tolerated. Unparseable tokens are skipped and
    reported. Short outputs are padded by repeating the last parsed action,
    or `fallback` (pass the most frequent training action's (verb id, noun
    id)) when nothing parsed at all, or action (0, 0) as the last resort. Long
    outputs are truncated.
    """
    actions: list[tuple[int, int]] = []
    skipped: list[str] = []
    for raw in re.split(r"[,\n]+", text or ""):
        token = _ENUM_PREFIX.sub("", " ".join(raw.split()))
        if not token:
            continue
        try:
            actions.append(parse_action(token, taxonomy))
        except DataError:
            skipped.append(token)
    actions = actions[:horizon]
    pad = horizon - len(actions)
    filler = (actions or [fallback or (0, 0)])[-1]  # the last parsed action, else the fallback, else (0, 0)
    return ParsedResponse(np.array(actions + [filler] * pad, np.intp).reshape(-1, 2), skipped, pad)


class NgramModel:
    """Order-m Markov model over actions with additive smoothing beta > 0.

    Contexts are (m-1)-tuples of action ids (verb * |N| + noun); the
    smoothed conditional is a proper distribution for every context, seen
    or unseen.
    """

    def __init__(self, order: int, beta: float, num_verbs: int, num_nouns: int):
        if order < 1:
            raise DataError("n-gram order must be >= 1")
        if not (math.isfinite(beta * num_verbs * num_nouns) and beta > 0):
            raise DataError(f"smoothing beta must be > 0 with beta * |V| * |N| finite, got {beta}")
        self.order = order
        self.beta = float(beta)
        self.num_verbs = num_verbs
        self.num_nouns = num_nouns
        self.num_actions = num_verbs * num_nouns
        self._transitions: dict[tuple[int, ...], Counter] = {}
        self._occurrences: Counter = Counter()

    def observe(self, actions: np.ndarray) -> None:
        """Tally every length-m window of one clip's L x 2 action sequence."""
        ids = (actions[:, 0] * self.num_nouns + actions[:, 1]).tolist()
        self._occurrences.update(ids)
        width = self.order
        for i in range(len(ids) - width + 1):
            context = tuple(ids[i : i + width - 1])
            self._transitions.setdefault(context, Counter())[ids[i + width - 1]] += 1

    def step(self, context: tuple[int, ...] | None, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The `width` (<= |V|*|N|) most probable next ids and their renormalized weights.

        Every id weighs beta plus its count after the context, and the pool
        takes ids by weight, descending, ties toward the lowest id: the
        observed successors by count, then the lowest unseen ids. So its first
        id is the argmax with ties toward the lowest id. Weights are
        (count + beta) over the pool's total. An unseen context, or None,
        gives the uniform step over the lowest `width` ids.
        """
        counts = self._transitions.get(context, {})
        successors = sorted(counts.items(), key=lambda item: (-item[1], item[0]))[:width]
        pool = np.array([nxt for nxt, _ in successors], dtype=np.intp)
        if len(pool) < width:
            # Every successor is in the pool, so the lowest unseen ids lie below width.
            unseen = np.ones(width, dtype=bool)
            unseen[pool[pool < width]] = False
            pool = np.concatenate([pool, np.flatnonzero(unseen)[: width - len(pool)]])
        weights = np.full(width, self.beta)
        weights[: len(successors)] += [count for _, count in successors]
        return pool, weights / weights.sum()

    def most_frequent_action(self) -> tuple[int, int]:
        """(verb id, noun id) of the most frequent action, ties toward the lowest id."""
        if not self._occurrences:
            raise DataError("model has seen no actions")
        idx = min(self._occurrences, key=lambda a: (-self._occurrences[a], a))
        return divmod(idx, self.num_nouns)


def fit_ngram(annotations: list[ClipRecord], order: int, beta: float, taxonomy: Taxonomy) -> NgramModel:
    """Fit transition counts over each clip's observed+future actions."""
    if not annotations:
        raise DataError("cannot fit an n-gram model on an empty corpus")
    model = NgramModel(order, beta, taxonomy.num_verbs, taxonomy.num_nouns)
    for record in annotations:
        model.observe(record.actions())
    if not model._occurrences:
        raise DataError("annotation corpus contains no actions")
    return model


def _check_predict_args(clip_id: str, history, horizon: int, num_candidates: int) -> None:
    if not len(history):
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

    def predict(self, clip_id: str, history: np.ndarray, horizon: int = 20,
                num_candidates: int = DEFAULT_CANDIDATES) -> PredictionSet:
        _check_predict_args(clip_id, history, horizon, num_candidates)
        return PredictionSet(clip_id, np.full((num_candidates, horizon, 2), history[-1], np.intp))


class NgramPredictor:
    """Rollouts from an NgramModel, for one clip (`predict`) or a whole corpus at once (`predict_corpus`).

    In greedy mode the first candidate is the argmax rollout (ties toward
    the lowest action id) and the remaining K-1 are sampled; in sample mode
    all K are sampled. Sampling draws from the `sample_top_k` most probable
    next actions at each step, re-seeded per clip, so a clip's result does
    not depend on clip order or on which clips share a batch.

    At construction the model is read into a table with a row per seen
    context and a last, uniform row for unseen ones: the pool, argmax first,
    and its cdf as Generator.choice builds it. A step finds every rollout's
    row through one sorted key array per context position (prefix code so
    far * (|V|*|N| + 1) + next id, so keys stay below (contexts + 1) *
    (|V|*|N| + 1) at any order), then searches the row's cdf for its uniform;
    an argmax step searches for 0.0. Memory is O(contexts x min(sample_top_k,
    |V|*|N|)). A later observe() on the model does not change the predictor.
    """

    def __init__(self, model: NgramModel, mode: str = "greedy", seed: int = 0, sample_top_k: int = 5):
        if mode not in ("greedy", "sample"):
            raise DataError(f"unknown decoding mode {mode!r}")
        if sample_top_k < 1:
            raise DataError("sample_top_k must be >= 1")
        if seed < 0:
            raise DataError("seed must be >= 0")
        self.model = model
        self.mode = mode
        self.seed = seed
        self.sample_top_k = sample_top_k
        contexts, radix = list(model._transitions), model.num_actions + 1
        if (len(contexts) + 1) * radix >= 2**63:
            raise DataError(f"{len(contexts)} contexts over {model.num_actions} actions overflow int64 keys")
        # Prefix codes, one level per context position; the last level's code is the row.
        grid = np.array(contexts, np.intp).reshape(len(contexts), model.order - 1)
        codes, self._levels = np.zeros(len(contexts), np.intp), []
        for position in range(model.order - 1):
            keys, codes = np.unique(codes * radix + grid[:, position], return_inverse=True)
            self._levels.append(np.append(keys, np.iinfo(np.int64).max))  # sentinel's index: unseen code
        rows = np.append(codes, len(contexts))  # each context's row, then the unseen row
        width = min(sample_top_k, model.num_actions)
        self._pool, self._cdf = np.empty((len(rows), width), np.intp), np.empty((len(rows), width))
        for row, context in zip(rows.tolist(), [*contexts, None]):
            self._pool[row], weights = model.step(context, width)
            cdf = np.cumsum(weights, out=self._cdf[row])
            if not abs(cdf[-1] - 1.0) <= np.sqrt(np.finfo(float).eps):  # choice's check on p
                raise DataError(f"n-gram weights for context {context} are not a finite distribution")
            cdf /= cdf[-1]

    def predict(self, clip_id: str, history: np.ndarray, horizon: int = 20,
                num_candidates: int = DEFAULT_CANDIDATES) -> PredictionSet:
        return self.predict_corpus({clip_id: history}, horizon, num_candidates)[0]

    def predict_corpus(self, histories: dict[str, np.ndarray], horizon: int = 20,
                       num_candidates: int = DEFAULT_CANDIDATES) -> list[PredictionSet]:
        """predict() for every clip id -> L x 2 history, in order; each step advances all C*K rollouts."""
        for clip_id, history in histories.items():
            _check_predict_args(clip_id, history, horizon, num_candidates)
        span, greedy, pad = self.model.order - 1, self.mode == "greedy", self.model.num_actions
        num_nouns = self.model.num_nouns
        # Each rollout's ids: its context, padded on the left with the unseen id |A|, then its future.
        ids = np.full((len(histories), num_candidates, span + horizon), pad, np.intp)
        uniforms = np.zeros((len(histories), num_candidates, horizon))
        for clip, (clip_id, history) in enumerate(histories.items()):
            # A uniform per sampled step, candidate-major as choice() drew them; 0.0: argmax step.
            if num_candidates > greedy:  # greedy with K=1 samples nothing: no Generator to seed
                rng = np.random.default_rng([self.seed, _clip_stream_key(clip_id)])
                uniforms[clip, greedy:] = rng.random((num_candidates - greedy, horizon))
            tail = history[-span:] if span else history[:0]
            ids[clip, :, span - len(tail) : span] = tail[:, 0] * num_nouns + tail[:, 1]
        ids, uniforms = ids.reshape(-1, span + horizon), uniforms.reshape(-1, horizon)
        for step in range(horizon):
            rows = np.zeros(len(ids), np.intp)  # each rollout's context row, one key level per position
            for position, keys in enumerate(self._levels):
                key = rows * (pad + 1) + ids[:, step + position]
                rows = keys.searchsorted(key)
                rows[keys[rows] != key] = len(keys) - 1  # the sentinel's index: unseen from here on
            ids[:, span + step] = self._pool[rows, _search_right(self._cdf, rows, uniforms[:, step])]
        futures = np.stack(np.divmod(ids[:, span:], num_nouns), axis=-1)
        futures = futures.reshape(len(histories), num_candidates, horizon, 2)
        return [PredictionSet(clip_id, candidates) for clip_id, candidates in zip(histories, futures)]


def _search_right(cdf: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """cdf[row].searchsorted(value, side="right") per (row, value): a binary search, one gather a probe."""
    width, flat = cdf.shape[1], cdf.ravel()
    base, count = rows * width - 1, np.zeros_like(rows)
    step = 1 << (width.bit_length() - 1)
    while step:
        probe = np.minimum(count + step, width)
        count = np.where(flat[base + probe] <= values, probe, count)
        step >>= 1
    return count


class LlmPredictor:
    """Prompt a chat endpoint for K completions and parse each into a sequence.

    The first completion is requested at temperature 0, the rest at the client
    config's sampling temperature. Endpoint errors are re-raised with the clip
    id attached.
    """

    def __init__(self, client, taxonomy: Taxonomy, template: PromptTemplate = DEFAULT_PROMPT,
                 fallback: tuple[int, int] | None = None):
        self.client = client
        self.taxonomy = taxonomy
        self.template = template
        self.fallback = fallback

    def predict(self, clip_id: str, history: np.ndarray, horizon: int = 20,
                num_candidates: int = DEFAULT_CANDIDATES, *, position: int = 0) -> PredictionSet:
        """K completions for one clip. Candidate i's request is keyed (position, i) in the
        client's log, `position` being the clip's place in the corpus, so the log of clips
        predicted on several threads lists them by (clip, candidate, attempt)."""
        _check_predict_args(clip_id, history, horizon, num_candidates)
        user = render_prompt(self.template, format_action_history(history, self.taxonomy), horizon)
        candidates = []
        for index in range(num_candidates):
            try:
                text = self.client.complete(
                    self.template.system_text, user, 0.0 if index == 0 else None, key=(position, index)
                )
            except LlmError as exc:
                raise type(exc)(f"clip {clip_id!r}: {exc}") from exc
            parsed = parse_response(text, self.taxonomy, horizon, self.fallback)
            if parsed.skipped or parsed.padded:
                logger.debug("clip %s candidate %d: skipped %d tokens, padded %d actions",
                             clip_id, index, len(parsed.skipped), parsed.padded)
            candidates.append(parsed.actions)
        return PredictionSet(clip_id, np.stack(candidates))
