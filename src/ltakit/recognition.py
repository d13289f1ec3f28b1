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

A clip's result is one `ClipRecognition` of arrays, with no object per
segment or candidate. Every step scores a segment on its own, so a corpus is
re-ranked in blocks of BLOCK_SEGMENTS segments that span clip boundaries
(`rerank_blocks`), and the results are split back into per-clip views.
`save_recognition` formats its lines straight from those arrays.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._fileio import atomic_write_text
from .cooccurrence import CooccurrenceMatrix
from .dataset_io import ClipDistributions, StageFile
from .errors import DataError
from .taxonomy import Taxonomy

BRANCH_VERB = "verb_anchored"
BRANCH_NOUN = "noun_anchored"

DEFAULT_TOP_K = 5

# Segments per re-rank call in `rerank_blocks`. The largest intermediates of a
# call are BLOCK_SEGMENTS x k x max(|V|, |N|) arrays: 0.4 MB each at 97 x 300, k = 5.
BLOCK_SEGMENTS = 32


@dataclass(eq=False)
class ClipRecognition:
    """Recognition output for one clip of S segments.

    `chosen` and `naive` are S x 2 (verb id, noun id) arrays; `fallback[i]`
    marks segment i's degenerate case, every candidate scored zero and the
    naive pair taken instead. All segments' candidates lie end to end in
    segment order, best first: C x 2 `candidates`, C `scores` and C
    `verb_anchored` branch flags, of which `counts[i]` belong to segment i.
    Naive recognition has no candidates.
    """

    clip_id: str
    chosen: np.ndarray
    naive: np.ndarray
    candidates: np.ndarray
    scores: np.ndarray
    verb_anchored: np.ndarray
    counts: np.ndarray
    fallback: np.ndarray


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
    return scores.reshape(len(scores), -1), np.repeat(anchors, k, axis=1), others.reshape(len(scores), -1)


def _take(arrays, order) -> list[np.ndarray]:
    return [np.take_along_axis(a, order, axis=1) for a in arrays]


def _check_clip(clip: ClipDistributions, sizes: tuple[int, int] | None = None) -> None:
    """Both arrays must be S x |V| and S x |N| with S >= 1; `sizes` pins (|V|, |N|)."""
    verb, noun = clip.verb_probs.shape, clip.noun_probs.shape
    if not (len(verb) == len(noun) == 2 and verb[0] == noun[0] > 0 and sizes in (None, (verb[1], noun[1]))):
        target = "each other" if sizes is None else f"the {sizes[0]}x{sizes[1]} matrix"
        raise DataError(
            f"clip {clip.clip_id!r}: distribution shapes {verb} and {noun} do not match {target} "
            "(need S x |V| and S x |N| with S >= 1)"
        )


def recognize_clip(
    clip: ClipDistributions, matrix: CooccurrenceMatrix, k: int = DEFAULT_TOP_K
) -> ClipRecognition:
    """Re-rank all segments of one clip.

    The clip is scored as S x |V| and S x |N| arrays at once; the largest
    intermediates are S x k x max(|V|, |N|) scores and an S x 2k x 2k
    duplicate mask.
    """
    _check_clip(clip, matrix.shape)
    num_verbs, num_nouns = matrix.shape
    if k < 1 or k > min(num_verbs, num_nouns):
        raise DataError(f"top-k={k} needs 1 <= k <= min(|V|, |N|) = {min(num_verbs, num_nouns)}")
    verb_probs, noun_probs = clip.verb_probs, clip.noun_probs
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
    naive = naive_clip(clip).naive
    fallback = ~(scores[:, 0] > 0.0)
    chosen = np.where(fallback[:, None], naive, np.stack([verbs[:, 0], nouns[:, 0]], axis=1))
    return ClipRecognition(
        clip.clip_id, chosen, naive, np.stack([verbs[first], nouns[first]], axis=1), scores[first],
        columns[first] < k, first.sum(axis=1), fallback,
    )


def naive_clip(clip: ClipDistributions) -> ClipRecognition:
    """Ablation path: per-track argmax pairs, no co-occurrence candidates."""
    _check_clip(clip)
    naive = np.stack([clip.verb_probs.argmax(axis=1), clip.noun_probs.argmax(axis=1)], axis=1)
    return ClipRecognition(
        clip.clip_id, naive.copy(), naive, np.empty((0, 2), np.intp), np.empty(0), np.empty(0, bool),
        np.zeros(len(naive), np.intp), np.zeros(len(naive), bool),
    )


def rerank_blocks(
    clips: list[ClipDistributions], rerank: Callable[[ClipDistributions], ClipRecognition],
    sizes: tuple[int, int],
) -> list[ClipRecognition]:
    """Re-rank every clip's segments and return one `ClipRecognition` per clip.

    `rerank` is a one-clip call (`naive_clip`, or `recognize_clip` with its
    matrix and k). It scores each segment on its own, so it runs on blocks of
    BLOCK_SEGMENTS consecutive corpus rows that span clip boundaries. Each
    clip must be S x |V| and S x |N| with `sizes` = (|V|, |N|), and is checked
    before any block is built, so an error names the clip. The results are
    views of the concatenated block results.
    """
    for clip in clips:
        _check_clip(clip, sizes)
    starts = np.cumsum([0] + [len(clip.verb_probs) for clip in clips]).tolist()  # each clip's first row
    blocks = []
    for lo in range(0, starts[-1], BLOCK_SEGMENTS):
        hi = lo + BLOCK_SEGMENTS
        first, last = bisect_right(starts, lo) - 1, bisect_left(starts, hi)  # the clips rows lo:hi span
        pieces = [
            (clip.verb_probs[max(lo - start, 0) : hi - start], clip.noun_probs[max(lo - start, 0) : hi - start])
            for clip, start in zip(clips[first:last], starts[first:last])
        ]
        blocks.append(rerank(ClipDistributions("", *map(np.concatenate, zip(*pieces)))))
    if not blocks:
        return []
    fields = ("chosen", "naive", "candidates", "scores", "verb_anchored", "counts", "fallback")
    columns = (np.concatenate([getattr(block, name) for block in blocks]) for name in fields)
    return _split([clip.clip_id for clip in clips], starts, *columns)


def _split(clip_ids, starts, chosen, naive, candidates, scores, verb_anchored, counts, fallback):
    """Per-clip views of corpus-wide result columns, clip i holding rows starts[i]:starts[i + 1]."""
    bounds = np.concatenate([[0], np.cumsum(counts)])[starts].tolist()  # each clip's first candidate
    return [
        ClipRecognition(
            clip_id, chosen[a:b], naive[a:b], candidates[c:d], scores[c:d], verb_anchored[c:d], counts[a:b],
            fallback[a:b],
        )
        for clip_id, a, b, c, d in zip(clip_ids, starts, starts[1:], bounds, bounds[1:])
    ]


def save_recognition(path, clips: list[ClipRecognition], taxonomy: Taxonomy) -> None:
    """Write one line per segment, byte for byte what `json.dumps` writes for its
    {clip_id, segment, chosen, naive, fallback, candidates} record, actions as
    "verb noun" text and each candidate as {action, score, branch}.

    Lines are formatted straight from each clip's arrays, with no record
    dict: each label is JSON-escaped once per call, and each score is written
    with `float.__repr__`, as `json.dumps` writes a finite float. Each clip's
    lines are written as they are made.
    """
    verbs, nouns = ([json.dumps(label)[1:-1] for label in labels] for labels in (taxonomy.verbs, taxonomy.nouns))

    def texts(pairs: np.ndarray) -> list[str]:  # JSON strings of "verb noun"
        taxonomy.check_ids(pairs)
        return [f'"{verbs[v]} {nouns[n]}"' for v, n in pairs.tolist()]

    def lines(clip: ClipRecognition) -> str:
        chosen, naive, actions = texts(clip.chosen), texts(clip.naive), texts(clip.candidates)
        scores = map(repr, clip.scores.tolist())
        candidates = [
            f'{{"action": {action}, "score": {score}, "branch": "{BRANCH_VERB if verb_anchored else BRANCH_NOUN}"}}'
            for action, score, verb_anchored in zip(actions, scores, clip.verb_anchored.tolist())
        ]
        bounds = [0, *np.cumsum(clip.counts).tolist()]  # segment i's candidates are bounds[i]:bounds[i + 1]
        head = '{"clip_id": ' + json.dumps(clip.clip_id) + ', "segment": '
        return "".join(
            f'{head}{i}, "chosen": {chosen[i]}, "naive": {naive[i]}, "fallback": {"true" if fallback else "false"}, '
            f'"candidates": [{", ".join(candidates[bounds[i] : bounds[i + 1]])}]}}\n'
            for i, fallback in enumerate(clip.fallback.tolist())
        )

    atomic_write_text(path, map(lines, clips))


def load_recognition(path, taxonomy: Taxonomy) -> list[ClipRecognition]:
    """One record per clip, read as `dataset_io.StageFile` reads and checks a segment file."""
    file = StageFile(path, taxonomy, per_segment=True)
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
    return _split(file.clip_ids, starts, heads[:, 0], heads[:, 1], candidates, scores, verb_anchored, counts, fallback)
