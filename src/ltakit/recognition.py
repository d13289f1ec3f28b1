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

An unsmoothed matrix is mostly zeros. Where row_stochastic[v][n] is 0, q_v(n)
is exactly 0 (probabilities are finite), and the nouns tied there lose to
every lower noun index, so v's k best nouns lie among its nonzero nouns and
its first k others. Each anchor scores only those columns, padded to one
width per matrix (every column of a smoothed one); the lists are built once
per `recognize_clip` call. The cut of each branch's k*k pairs and the union
select complex numbers -score + key*1j, which numpy orders by score, then by
the integer key that breaks the ties.

Results form one `Recognition` table of arrays, with no object per segment or
candidate. Every step scores a segment on its own, so `recognize_clip` runs
on blocks of consecutive rows of the corpus arrays (views that span clip
boundaries) and joins the block results once. `save_recognition`
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
from .dataset_io import Distributions, StageFile, check_clip_ids, check_starts, json_fallback
from .errors import DataError
from .taxonomy import Taxonomy, format_actions

BRANCH_VERB = "verb_anchored"
BRANCH_NOUN = "noun_anchored"

DEFAULT_TOP_K = 5

# Segments per re-ranked block. The largest intermediates of a block are S x k x w
# arrays, w the width of the column lists, so a block holds fewer segments where
# k x w is large: at most BLOCK_VALUES values each (384 KB of float64). At k = 5
# and w = 9 (97 x 300, at most 4 nouns a verb) that is 128 segments; at w = 300
# (a smoothed matrix) 32; at k = 97, 4 or fewer.
BLOCK_SEGMENTS = 128
BLOCK_VALUES = 48_000


@dataclass(eq=False, frozen=True)
class Recognition:
    """Recognition output of a corpus: clip `clip_ids[i]` holds rows starts[i]:starts[i + 1].

    `chosen` and `naive` are S x 2 (verb id, noun id) arrays; `fallback[r]`
    marks row r's degenerate case, every candidate scored zero and the naive
    pair taken instead. All rows' candidates lie end to end in row order, best
    first: C x 2 `candidates`, C `scores` and C `verb_anchored` branch flags,
    of which `counts[r]` belong to row r. Naive recognition has no candidates.
    Construction checks the shapes, distinct clip ids, starts that run from 0
    to S leaving no clip empty, and counts that sum to C; the arrays stay
    mutable.
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
        check_clip_ids(self.clip_ids, "recognition")
        check_starts(self.clip_ids, self.starts, rows[0])
        if self.counts.dtype.kind not in "iu" or (self.counts < 0).any() or self.counts.sum() != size[0]:
            raise DataError(f"candidate counts sum to {self.counts.sum()} over {size[0]} candidates "
                            "(need S nonnegative integers summing to C)")


def _columns(table: np.ndarray, k: int):
    """Each anchor's candidate columns, A x w ids in ascending order, and the table's A x w values
    there; the ids are None when w is every column.

    Where table[a, n] == 0 the adjusted score of n is exactly 0, and ties go to the lower column, so
    anchor a's top k lies among its nonzero columns and its first k zero columns. Each anchor keeps
    those and its next zero columns up to one width w, the largest nonzero count plus k.
    """
    num = table.shape[1]
    keep = table != 0
    nnz = keep.sum(axis=1)
    width = min(num, int(nnz.max()) + k)
    if width == num:  # a smoothed matrix: nothing to skip
        return None, table
    # Row a keeps its first width - nnz[a] zero columns, which lie below column `width`.
    keep[:, :width] |= np.cumsum(~keep[:, :width], axis=1) <= (width - nnz)[:, None]
    columns = (np.flatnonzero(keep) % num).reshape(len(table), width)
    return columns, np.take_along_axis(table, columns, axis=1)


def _top(values, ids, k: int) -> np.ndarray:
    """The k best entries of each row by (-value, id), unordered, as complex numbers -value + id*1j.

    numpy orders complex numbers by real part, then imaginary part, so one selection over them
    breaks ties toward the lower id. Ids are integers below 2**53, so they are exact as floats.
    """
    keyed = np.empty(np.broadcast_shapes(np.shape(values), np.shape(ids)), np.complex128)
    np.negative(values, out=keyed.real)
    keyed.imag = ids
    keyed.partition(k - 1, axis=-1)
    return keyed[..., :k]


def _branch(anchor_probs, other_probs, columns, values, k: int):
    """Score one branch for S segments: S x k x k scores, S x k x 1 anchor ids and S x k x k other ids.

    `values[a]` is the other track's distribution given anchor a at the ascending columns `columns[a]`
    (every column when None, see `_columns`). Both top-k steps sort stably, so equal values keep
    column order.
    """
    anchors = np.argsort(-anchor_probs, axis=1, kind="stable")[:, :k]
    if columns is None:  # every column: positions are column ids
        others, other_p = None, other_probs[:, None, :]
    else:  # each row's probabilities at its anchors' columns, gathered from the flat rows
        others = columns[anchors]
        other_p = np.take(other_probs, others + np.arange(0, other_probs.size, other_probs.shape[1])[:, None, None])
    adjusted = other_p * values[anchors]
    top = np.argsort(-adjusted, axis=2, kind="stable")[:, :, :k]
    anchor_p = np.take_along_axis(anchor_probs, anchors, axis=1)
    scores = anchor_p[..., None] * np.take_along_axis(adjusted, top, axis=2)
    return scores, anchors[..., None], top if others is None else np.take_along_axis(others, top, axis=2)


def _rerank(verb_probs: np.ndarray, noun_probs: np.ndarray, rows, cols, k: int):
    """One block's re-ranked rows: each row's best pair, then its candidates, scores, branch flags,
    count and fallback flag as in `Recognition`. `rows` and `cols` are the `_columns` of the row-
    and column-stochastic forms. The largest intermediates are S x k x w adjusted scores and S x k*k
    cut keys."""
    num_nouns = noun_probs.shape[1]
    v_scores, v_verbs, v_nouns = _branch(verb_probs, noun_probs, *rows, k)
    n_scores, n_nouns, n_verbs = _branch(noun_probs, verb_probs, *cols, k)
    # Each branch keeps its k best by (-score, verb, noun): the key is the action's code times 2,
    # plus 1 for the noun-anchored branch, so on an exact tie the verb-anchored entry sorts first.
    cuts = [
        _top(s.reshape(-1, k * k), (2 * (v * num_nouns + n) + branch).reshape(-1, k * k), k)
        for s, v, n, branch in ((v_scores, v_verbs, v_nouns, 0), (n_scores, n_verbs, n_nouns, 1))
    ]
    merged = np.sort(np.concatenate(cuts, axis=1), axis=1)
    scores, keys = -merged.real, merged.imag.astype(np.intp)
    actions = keys >> 1
    verbs, nouns = np.divmod(actions, num_nouns)
    # Each action keeps its first entry of the row: the first index of each (row, action) code.
    codes = actions + np.arange(len(keys))[:, None] * (verb_probs.shape[1] * num_nouns)
    first = np.zeros(keys.shape, bool)
    first.flat[np.unique(codes, return_index=True)[1]] = True
    return (
        np.stack([verbs[:, 0], nouns[:, 0]], axis=1), np.stack([verbs[first], nouns[first]], axis=1),
        scores[first], keys[first] & 1 == 0, first.sum(axis=1), ~(scores[:, 0] > 0.0),
    )


def recognize_clip(table: Distributions, matrix: CooccurrenceMatrix, k: int = DEFAULT_TOP_K) -> Recognition:
    """Re-rank every segment of a table (one clip or a corpus).

    Each segment is scored on its own, so the rows are taken in blocks of
    BLOCK_SEGMENTS consecutive rows (fewer where a block's k x w values would
    exceed BLOCK_VALUES), views of the table's arrays that span clip
    boundaries, and the block results are joined once.
    """
    num_verbs, num_nouns = matrix.shape
    verb, noun = table.verb_probs.shape, table.noun_probs.shape
    if (verb[1], noun[1]) != (num_verbs, num_nouns):
        raise DataError(f"distribution shapes {verb} and {noun} do not match the {num_verbs}x{num_nouns} matrix "
                        "(need S x |V| and S x |N|)")
    if k < 1 or k > min(num_verbs, num_nouns):
        raise DataError(f"top-k={k} needs 1 <= k <= min(|V|, |N|) = {min(num_verbs, num_nouns)}")
    verb_probs, noun_probs = table.verb_probs, table.noun_probs
    rows, cols = _columns(matrix.row_stochastic, k), _columns(matrix.col_stochastic.T, k)
    width = max(values.shape[1] for _, values in (rows, cols))
    size = max(1, min(BLOCK_SEGMENTS, BLOCK_VALUES // (k * width)))
    blocks = [
        _rerank(verb_probs[lo : lo + size], noun_probs[lo : lo + size], rows, cols, k)
        for lo in range(0, max(len(verb_probs), 1), size)  # an empty table is one empty block
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
