"""Co-occurrence re-ranking of per-segment verb/noun distributions.

Candidate pairs come from two anchored branches. The verb-anchored branch
takes the k most probable verbs; for each anchor verb v it rescores every
noun as

    q_v(n) = noun_probs[n] * row_stochastic[v][n]

keeps the k best nouns, scores each pair s(v, n) = verb_probs[v] * q_v(n),
and keeps the k best of those k*k pairs. The noun-anchored branch is the
mirror image using the column-stochastic form. The two branch lists are
unioned (an action appearing in both keeps its higher-scoring entry, the
verb-anchored one on an exact tie), and the chosen pair is the highest
score. Ties everywhere break toward the lower verb index, then the lower
noun index.

Results form one `Recognition` table of arrays, with no object per segment or
candidate. Every step scores a segment on its own, so `recognize_clip` runs
on blocks of BLOCK_SEGMENTS consecutive rows of the corpus arrays (views that
span clip boundaries) and joins the block results once. `save_recognition`
formats its lines straight from the table's arrays.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text
from .cooccurrence import CooccurrenceMatrix
from .dataset_io import Distributions, StageFile, check_starts, json_fallback
from .errors import DataError
from .taxonomy import Taxonomy, format_actions

BRANCH_VERB = "verb_anchored"
BRANCH_NOUN = "noun_anchored"

DEFAULT_TOP_K = 5

# Segments per re-ranked block. The largest intermediates of a block are
# BLOCK_SEGMENTS x k x max(|V|, |N|) arrays: 0.4 MB each at 97 x 300, k = 5.
BLOCK_SEGMENTS = 32


@dataclass(eq=False, frozen=True)
class Recognition:
    """Recognition output of a corpus: clip `clip_ids[i]` holds rows starts[i]:starts[i + 1].

    `chosen` and `naive` are S x 2 (verb id, noun id) arrays; `fallback[r]`
    marks row r's degenerate case, every candidate scored zero and the naive
    pair taken instead. All rows' candidates lie end to end in row order, best
    first: C x 2 `candidates`, C `scores` and C `verb_anchored` branch flags,
    of which `counts[r]` belong to row r. Naive recognition has no candidates.
    Construction checks the shapes, starts that run from 0 to S leaving no
    clip empty, and counts that sum to C; the arrays stay mutable.
    """

    clip_ids: list[str]
    starts: list[int]
    chosen: np.ndarray
    naive: np.ndarray
    candidates: np.ndarray
    scores: np.ndarray
    verb_anchored: np.ndarray
    counts: np.ndarray
    fallback: np.ndarray

    def __post_init__(self):
        arrays = self.chosen, self.naive, self.candidates, self.scores, self.verb_anchored, self.counts, self.fallback
        shapes = [np.shape(a) for a in arrays]
        rows, size = shapes[0][:1], shapes[2][:1]  # (S,) and (C,) once the shapes match
        if shapes != [rows + (2,), rows + (2,), size + (2,), size, size, rows, rows]:
            raise DataError(f"recognition shapes {shapes} of chosen..fallback (need S x 2, S x 2, C x 2, C, C, S, S)")
        check_starts(self.clip_ids, self.starts, rows[0])
        if self.counts.dtype.kind not in "iu" or (self.counts < 0).any() or self.counts.sum() != size[0]:
            raise DataError(f"candidate counts sum to {self.counts.sum()} over {size[0]} candidates "
                            "(need S nonnegative integers summing to C)")


def _branch(anchor_probs, other_probs, table, k: int):
    """Score one branch for S segments: S x k*k scores, anchor ids and other ids.

    `table[a]` is the other track's distribution given anchor a. Both top-k
    steps sort stably, so equal values keep index order.
    """
    anchors = np.argsort(-anchor_probs, axis=1, kind="stable")[:, :k]
    adjusted = other_probs[:, None, :] * table[anchors]
    others = np.argsort(-adjusted, axis=2, kind="stable")[:, :, :k]
    anchor_p = np.take_along_axis(anchor_probs, anchors, axis=1)
    scores = anchor_p[..., None] * np.take_along_axis(adjusted, others, axis=2)
    return scores.reshape(-1, k * k), np.repeat(anchors, k, axis=1), others.reshape(-1, k * k)


def _take(arrays, order) -> list[np.ndarray]:
    return [np.take_along_axis(a, order, axis=1) for a in arrays]


def _rerank(verb_probs: np.ndarray, noun_probs: np.ndarray, matrix: CooccurrenceMatrix, k: int):
    """One block's re-ranked rows: each row's best pair, then its candidates, scores, branch flags,
    count and fallback flag as in `Recognition`. The largest intermediates are S x k x
    max(|V|, |N|) scores and an S x 2k x 2k duplicate mask."""
    v_scores, v_verbs, v_nouns = _branch(verb_probs, noun_probs, matrix.row_stochastic, k)
    n_scores, n_nouns, n_verbs = _branch(noun_probs, verb_probs, matrix.col_stochastic.T, k)
    cuts = [  # each branch keeps its k best by (-score, verb, noun)
        _take((s, v, n), np.lexsort((n, v, -s), axis=1)[:, :k])
        for s, v, n in ((v_scores, v_verbs, v_nouns), (n_scores, n_verbs, n_nouns))
    ]
    scores, verbs, nouns = (np.concatenate(c, axis=1) for c in zip(*cuts))
    # Verb-anchored entries fill columns 0..k-1, so the column as last key breaks
    # an exact tie toward them; then each action keeps its first entry.
    columns = np.broadcast_to(np.arange(2 * k), scores.shape)
    order = np.lexsort((columns, nouns, verbs, -scores), axis=1)
    scores, verbs, nouns, columns = _take((scores, verbs, nouns, columns), order)
    same = (verbs[:, :, None] == verbs[:, None, :]) & (nouns[:, :, None] == nouns[:, None, :])
    first = ~np.tril(same, -1).any(axis=2)  # no earlier entry of the row holds this action
    return (
        np.stack([verbs[:, 0], nouns[:, 0]], axis=1), np.stack([verbs[first], nouns[first]], axis=1),
        scores[first], columns[first] < k, first.sum(axis=1), ~(scores[:, 0] > 0.0),
    )


def recognize_clip(table: Distributions, matrix: CooccurrenceMatrix, k: int = DEFAULT_TOP_K) -> Recognition:
    """Re-rank every segment of a table (one clip or a corpus).

    Each segment is scored on its own, so the rows are taken in blocks of
    BLOCK_SEGMENTS consecutive rows, views of the table's arrays that span
    clip boundaries, and the block results are joined once.
    """
    num_verbs, num_nouns = matrix.shape
    verb, noun = table.verb_probs.shape, table.noun_probs.shape
    if (verb[1], noun[1]) != (num_verbs, num_nouns):
        raise DataError(f"distribution shapes {verb} and {noun} do not match the {num_verbs}x{num_nouns} matrix "
                        "(need S x |V| and S x |N|)")
    if k < 1 or k > min(num_verbs, num_nouns):
        raise DataError(f"top-k={k} needs 1 <= k <= min(|V|, |N|) = {min(num_verbs, num_nouns)}")
    verb_probs, noun_probs = table.verb_probs, table.noun_probs
    blocks = [
        _rerank(verb_probs[lo : lo + BLOCK_SEGMENTS], noun_probs[lo : lo + BLOCK_SEGMENTS], matrix, k)
        for lo in range(0, max(len(verb_probs), 1), BLOCK_SEGMENTS)  # an empty table is one empty block
    ]
    best, candidates, scores, verb_anchored, counts, fallback = (np.concatenate(c) for c in zip(*blocks))
    naive = naive_clip(table).naive
    chosen = np.where(fallback[:, None], naive, best)
    return Recognition(table.clip_ids, table.starts, chosen, naive, candidates, scores, verb_anchored, counts, fallback)


def naive_clip(table: Distributions) -> Recognition:
    """Ablation path: per-track argmax pairs, no co-occurrence candidates."""
    naive = np.stack([table.verb_probs.argmax(axis=1), table.noun_probs.argmax(axis=1)], axis=1)
    return Recognition(
        table.clip_ids, table.starts, naive.copy(), naive, np.empty((0, 2), np.intp), np.empty(0),
        np.empty(0, bool), np.zeros(len(naive), np.intp), np.zeros(len(naive), bool),
    )


def save_recognition(path, table: Recognition, taxonomy: Taxonomy) -> None:
    """Write one line per segment, byte for byte what `json.dumps` writes for its
    {clip_id, segment, chosen, naive, fallback, candidates} record, actions as
    "verb noun" text and each candidate as {action, score, branch}.

    Lines are formatted straight from the table's arrays, with no record
    dict: each distinct action is written once (`format_actions`), and each
    score with `float.__repr__`, as `json.dumps` writes a finite float. Each
    clip's lines are written as they are made.
    """
    bounds = [0, *np.cumsum(table.counts).tolist()]  # row r's candidates are bounds[r]:bounds[r + 1]
    try:
        chosen, naive, actions = (format_actions(pairs, taxonomy, as_json=True)
                                  for pairs in (table.chosen, table.naive, table.candidates))
    except DataError:  # raise the first clip's error: its chosen, naive, then candidates
        for a, b in zip(table.starts, table.starts[1:]):
            for pairs in (table.chosen[a:b], table.naive[a:b], table.candidates[bounds[a] : bounds[b]]):
                taxonomy.check_ids(pairs)
        raise

    def lines(clip_id: str, a: int, b: int) -> str:
        c, d = bounds[a], bounds[b]
        candidates = [
            f'{{"action": {action}, "score": {score}, "branch": "{BRANCH_VERB if verb_anchored else BRANCH_NOUN}"}}'
            for action, score, verb_anchored in zip(
                actions[c:d], map(repr, table.scores[c:d].tolist()), table.verb_anchored[c:d].tolist()
            )
        ]
        head = '{"clip_id": ' + json.dumps(clip_id) + ', "segment": '
        return "".join(
            f'{head}{r - a}, "chosen": {chosen[r]}, "naive": {naive[r]}, "fallback": {"true" if fallback else "false"}, '
            f'"candidates": [{", ".join(candidates[bounds[r] - c : bounds[r + 1] - c])}]}}\n'
            for r, fallback in enumerate(table.fallback[a:b].tolist(), a)
        )

    atomic_write_text(path, map(lines, table.clip_ids, table.starts, table.starts[1:]))


@json_fallback
def load_recognition(path, taxonomy: Taxonomy, *, decode) -> Recognition:
    """The file as one table, read as `dataset_io.StageFile` reads and checks a segment file."""
    file = StageFile(path, taxonomy, decode, per_segment=True)
    heads, candidates, scores = array("q"), array("q"), array("d")  # heads: each row's chosen, naive
    verb_anchored, counts, fallback = array("b"), array("q"), array("b")
    with file.checking():
        for where, obj in file.rows():
            try:
                actions = [obj["chosen"], obj["naive"]]
                for raw in obj.get("candidates", []):
                    branch, score = raw["branch"], raw["score"]
                    if branch not in (BRANCH_VERB, BRANCH_NOUN):
                        raise DataError(f"unknown branch {branch!r}")
                    if type(score) not in (int, float) or not math.isfinite(score):  # JSON numbers only, not bools
                        raise DataError(f"candidate score must be a finite number, got {score!r}")
                    actions.append(raw["action"])
                    scores.append(score)
                    verb_anchored.append(branch == BRANCH_VERB)
                flag = obj.get("fallback", False)
                if not isinstance(flag, bool):
                    raise DataError(f"field 'fallback' must be true or false, got {flag!r}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                if isinstance(exc, DataError):
                    raise DataError(f"{where}: {exc}") from None
                raise DataError(f"{where}: malformed recognition record ({exc!r})") from None
            codes = file.code(actions)
            heads.fromlist(codes[:2])
            candidates.fromlist(codes[2:])
            counts.append(len(codes) - 2)
            fallback.append(flag)
    order, starts = file.order()
    counts = np.array(counts, np.intp)
    place = np.empty_like(counts)
    place[order] = np.arange(len(counts))  # each row's place in (clip, segment) order
    taken = np.argsort(np.repeat(place, counts), kind="stable")  # the candidates in that order
    heads = file.table[np.frombuffer(heads, np.int64)].reshape(-1, 2, 2)[order]
    candidates = file.table[np.frombuffer(candidates, np.int64)[taken]]
    scores, verb_anchored = np.frombuffer(scores)[taken], np.frombuffer(verb_anchored, bool)[taken]
    counts, fallback = counts[order], np.frombuffer(fallback, bool)[order]
    return Recognition(
        list(file.clip_ids), starts, heads[:, 0], heads[:, 1], candidates, scores, verb_anchored, counts, fallback
    )
