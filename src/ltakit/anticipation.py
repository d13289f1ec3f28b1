"""Future-sequence predictors over recognized action histories.

Three families: a repeat-last baseline, order-m Markov (n-gram) rollouts
with additive smoothing, and an LLM-backed predictor that renders a prompt,
queries a chat endpoint, and parses the reply back into actions. All of
them take the history as an L x 2 array of (verb id, noun id) rows and return
exactly K candidate sequences of exactly the horizon length: `predict` for one
clip, `predict_corpus` for a `Predictions` table (the LLM's on a thread pool).
"""

from __future__ import annotations

import logging
import math
import re
import zlib
from dataclasses import dataclass

import numpy as np

from ._fileio import load_json
from .dataset_io import DEFAULT_HORIZON, Predictions, check_starts
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

    It keeps the action ids (verb * |N| + noun) of an L x 2 array of
    (verb id, noun id) rows, clip i being rows starts[i]:starts[i + 1], and
    `windows()` counts their length-m windows, none spanning two clips: a
    context is a window's first m-1 ids. The smoothed conditional is a proper
    distribution for every context, seen or unseen.
    """

    def __init__(self, order: int, beta: float, num_verbs: int, num_nouns: int,
                 actions: np.ndarray, starts: list[int]):
        if order < 1:
            raise DataError("n-gram order must be >= 1")
        if not (math.isfinite(beta * num_verbs * num_nouns) and beta > 0):
            raise DataError(f"smoothing beta must be > 0 with beta * |V| * |N| finite, got {beta}")
        self.order, self.beta, self.num_verbs, self.num_nouns = order, float(beta), num_verbs, num_nouns
        self.num_actions, self.starts = num_verbs * num_nouns, np.asarray(starts, np.intp)
        self.ids = actions[:, 0] * num_nouns + actions[:, 1]

    def windows(self) -> tuple[list[np.ndarray], np.ndarray, np.ndarray, np.ndarray]:
        """The context levels, then each distinct (context row, next id) of the windows inside one
        clip and its count, ordered by row and id: all found by sorting. Level p holds the sorted keys
        code * (|A| + 1) + id of the (p+1)-id prefixes, a code being a prefix's rank among the distinct
        ones, so keys stay below (contexts + 1) * (|A| + 1) and a context's code is its row."""
        ids, ends = self.ids, self.starts[1:]
        starts = np.flatnonzero(np.arange(len(ids)) + self.order <= np.repeat(ends, np.diff(self.starts)))
        radix, codes, levels = self.num_actions + 1, np.zeros(len(starts), np.intp), []
        for position in range(self.order):
            count = len(levels[-1]) if levels else int(len(starts) > 0)  # distinct codes so far
            if (count + 1) * radix >= 2**63:
                raise DataError(f"{count}+ contexts over {self.num_actions} actions overflow int64 keys")
            keys = codes * radix + ids[starts + position]
            if position < self.order - 1:
                keys, codes = np.unique(keys, return_inverse=True)
                levels.append(keys)
        keys, counts = np.unique(keys, return_counts=True)
        return (levels, *np.divmod(keys, radix), counts)

    def most_frequent_action(self) -> tuple[int, int]:
        """(verb id, noun id) of the most frequent action, ties toward the lowest id."""
        ids, counts = np.unique(self.ids, return_counts=True)
        if not len(ids):
            raise DataError("model has seen no actions")
        return divmod(int(ids[counts.argmax()]), self.num_nouns)


def fit_ngram(actions: np.ndarray, starts: list[int], order: int, beta: float, taxonomy: Taxonomy) -> NgramModel:
    """A model of the L x 2 actions, clip i being rows starts[i]:starts[i + 1], as
    `Annotations.actions()` gives each clip's observed+future actions; a predictor counts
    their windows when built."""
    if len(starts) < 2:
        raise DataError("cannot fit an n-gram model on an empty corpus")
    if not len(actions):
        raise DataError("annotation corpus contains no actions")
    return NgramModel(order, beta, taxonomy.num_verbs, taxonomy.num_nouns, actions, starts)


def _check_predict_args(clip_ids: list[str], starts: list[int], rows: int, horizon: int, num_candidates: int) -> None:
    empty = np.flatnonzero(np.diff(starts[: len(clip_ids) + 1]) < 1)  # starts past the clips: check_starts' error
    if len(empty):
        raise DataError(f"clip {clip_ids[empty[0]]!r}: empty history, nothing to anticipate from")
    check_starts(clip_ids, starts, rows)
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    if num_candidates < 1:
        raise DataError("need at least one candidate sequence")


def _k_each(clip_ids: list[str], candidates: np.ndarray, num_candidates: int, horizon: int) -> Predictions:
    """A table of the clips' candidates in clip order, K = `num_candidates` each: `candidates` as C*K x Z x 2."""
    return Predictions(list(clip_ids), list(range(0, len(clip_ids) * num_candidates + 1, num_candidates)),
                       candidates.reshape(-1, horizon, 2))


class _TablePredictor:
    """`predict`, a clip's K x Z x 2 candidates, as `predict_corpus` on a table of one clip."""

    def predict(self, clip_id: str, history: np.ndarray, horizon: int = DEFAULT_HORIZON,
                num_candidates: int = DEFAULT_CANDIDATES) -> np.ndarray:
        return self.predict_corpus([clip_id], [0, len(history)], history, horizon, num_candidates).candidates


class RepeatLastPredictor(_TablePredictor):
    """K copies of each clip's last observed action repeated across the horizon."""

    def predict_corpus(self, clip_ids: list[str], starts: list[int], history: np.ndarray,
                       horizon: int = DEFAULT_HORIZON, num_candidates: int = DEFAULT_CANDIDATES) -> Predictions:
        _check_predict_args(clip_ids, starts, len(history), horizon, num_candidates)
        last = history[np.asarray(starts[1:], np.intp) - 1].astype(np.intp)
        return _k_each(clip_ids, np.repeat(last, num_candidates * horizon, axis=0), num_candidates, horizon)


class NgramPredictor(_TablePredictor):
    """Rollouts from an NgramModel, for one clip (`predict`) or a whole corpus at once (`predict_corpus`).

    In greedy mode the first candidate is the argmax rollout (ties toward
    the lowest action id) and the remaining K-1 are sampled; in sample mode
    all K are sampled. Sampling draws from the `sample_top_k` most probable
    next actions at each step, re-seeded per clip, so a clip's result does
    not depend on clip order or on which clips share a batch.

    At construction the model's `windows()` are read into a table with a row
    per seen context and a last, uniform row for unseen ones: the pool,
    argmax first, and its cdf as Generator.choice builds it, written with
    whole-array operations in place. A step finds every rollout's row through
    the windows' context levels, one sorted key array per context position,
    then searches the row's cdf for its uniform; an argmax step searches for
    0.0. Memory is O(contexts x min(sample_top_k, |V|*|N|)).
    """

    def __init__(self, model: NgramModel, mode: str = "greedy", seed: int = 0, sample_top_k: int = 5):
        if mode not in ("greedy", "sample"):
            raise DataError(f"unknown decoding mode {mode!r}")
        if sample_top_k < 1:
            raise DataError("sample_top_k must be >= 1")
        if seed < 0:
            raise DataError("seed must be >= 0")
        self.model, self.mode, self.seed, self.sample_top_k = model, mode, seed, sample_top_k
        levels, rows, successors, counts = model.windows()
        self._levels = [np.append(keys, np.iinfo(np.int64).max) for keys in levels]  # sentinel's index: unseen code
        width, contexts = min(sample_top_k, model.num_actions), int(rows[-1]) + 1 if len(rows) else 0
        seen, place = np.bincount(rows, minlength=contexts + 1), np.arange(len(rows)) - np.searchsorted(rows, rows)
        # Where a row's successors all fit, the lowest unseen ids follow them: the k-th is k plus the
        # number of its successors s_i (the i-th lowest, i = place) with s_i - i <= k, a cumsum of 1 per
        # step after the first plus 1 at each s_i - i.
        self._pool = pool = np.empty((contexts + 1, width), np.intp)
        np.greater(np.arange(width), seen[:, None], out=pool)
        shift = seen[rows] + successors - place
        hits = (seen[rows] < width) & (shift < width)
        np.add.at(pool, (rows[hits], shift[hits]), 1)
        np.cumsum(pool, axis=1, out=pool)
        # Then each row's successors by count, descending, ties toward the lowest id, and the weights
        # (count + beta) over the row's total, as a cdf: all in place, as the table may be large.
        by_count = np.lexsort((-counts, rows))  # keeps rows sorted, so place is still each entry's column
        taken = place < width
        pool[rows[taken], place[taken]] = successors[by_count][taken]
        self._cdf = cdf = np.full((contexts + 1, width), model.beta)
        cdf[rows[taken], place[taken]] += counts[by_count][taken]
        np.divide(cdf, cdf.sum(axis=1, keepdims=True), out=cdf)
        np.cumsum(cdf, axis=1, out=cdf)
        if not (abs(cdf[:, -1] - 1.0) <= np.sqrt(np.finfo(float).eps)).all():  # choice's check on p
            raise DataError(f"n-gram weights with beta {model.beta} are not a finite distribution")
        np.divide(cdf, cdf[:, -1:].copy(), out=cdf)  # a copy: dividing by a view of cdf would copy cdf

    def predict_corpus(self, clip_ids: list[str], starts: list[int], history: np.ndarray,
                       horizon: int = DEFAULT_HORIZON, num_candidates: int = DEFAULT_CANDIDATES) -> Predictions:
        """predict() for every clip, clip i's history being rows starts[i]:starts[i + 1] of the L x 2
        `history`; each step advances all C*K rollouts."""
        _check_predict_args(clip_ids, starts, len(history), horizon, num_candidates)
        span, greedy, pad = self.model.order - 1, self.mode == "greedy", self.model.num_actions
        num_nouns = self.model.num_nouns
        # Each rollout's ids: its context (its last m-1 history ids, padded on the left with the unseen
        # id |A|), then its future.
        ids = np.full((len(clip_ids), num_candidates, span + horizon), pad, np.intp)
        bounds = np.asarray(starts, np.intp)[:, None]
        tail = bounds[1:] - span + np.arange(span)  # C x span: each clip's last history rows
        inside = tail >= bounds[:-1]
        ids[:, :, :span] = np.where(inside, (history[:, 0] * num_nouns + history[:, 1])[tail * inside], pad)[:, None]
        # A uniform per sampled step, candidate-major as choice() drew them; 0.0: argmax step.
        uniforms = np.zeros((len(clip_ids), num_candidates, horizon))
        if num_candidates > greedy:  # greedy with K=1 samples nothing: no Generator to seed
            for clip, clip_id in enumerate(clip_ids):
                rng = np.random.default_rng([self.seed, zlib.crc32(clip_id.encode("utf-8"))])  # not hash(): stable
                uniforms[clip, greedy:] = rng.random((num_candidates - greedy, horizon))
        ids, uniforms = ids.reshape(-1, span + horizon), uniforms.reshape(-1, horizon)
        for step in range(horizon):
            rows = np.zeros(len(ids), np.intp)  # each rollout's context row, one key level per position
            for position, keys in enumerate(self._levels):
                key = rows * (pad + 1) + ids[:, step + position]
                rows = keys.searchsorted(key)
                rows[keys[rows] != key] = len(keys) - 1  # the sentinel's index: unseen from here on
            ids[:, span + step] = self._pool[rows, _search_right(self._cdf, rows, uniforms[:, step])]
        return _k_each(clip_ids, np.stack(np.divmod(ids[:, span:], num_nouns), axis=-1), num_candidates, horizon)


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
    id attached. `predict_corpus` predicts `workers` clips at a time.
    """

    def __init__(self, client, taxonomy: Taxonomy, template: PromptTemplate = DEFAULT_PROMPT,
                 fallback: tuple[int, int] | None = None, workers: int = 1):
        if workers < 1:
            raise DataError(f"workers must be >= 1, got {workers}")
        self.client = client
        self.taxonomy = taxonomy
        self.template = template
        self.fallback = fallback
        self.workers = workers

    def predict_corpus(self, clip_ids: list[str], starts: list[int], history: np.ndarray,
                       horizon: int = DEFAULT_HORIZON, num_candidates: int = DEFAULT_CANDIDATES) -> Predictions:
        """predict() for clip i on rows starts[i]:starts[i + 1] of the L x 2 `history`, on `workers` threads
        that overlap endpoint waits. Each clip's place keys its requests, so the client's log is in clip order."""
        from concurrent.futures import ThreadPoolExecutor  # only a run that asks an endpoint loads it
        _check_predict_args(clip_ids, starts, len(history), horizon, num_candidates)
        run_clip = lambda i: self.predict(clip_ids[i], history[starts[i] : starts[i + 1]], horizon,
                                          num_candidates, position=i)
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            sets = list(pool.map(run_clip, range(len(clip_ids))))
        return _k_each(clip_ids, np.array(sets, np.intp), num_candidates, horizon)

    def predict(self, clip_id: str, history: np.ndarray, horizon: int = DEFAULT_HORIZON,
                num_candidates: int = DEFAULT_CANDIDATES, *, position: int = 0) -> np.ndarray:
        """K completions for one clip, as a K x Z x 2 array. Candidate i's request is keyed (position, i) in the
        client's log, `position` being the clip's place in the corpus, so the log of clips
        predicted on several threads lists them by (clip, candidate, attempt)."""
        _check_predict_args([clip_id], [0, len(history)], len(history), horizon, num_candidates)
        user = render_prompt(self.template, ", ".join(format_actions(history, self.taxonomy)), horizon)
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
        return np.stack(candidates)
