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
segment or candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._fileio import atomic_write_text, dump_jsonl, iter_jsonl
from .cooccurrence import CooccurrenceMatrix
from .dataset_io import ClipDistributions, clip_rows, segment_key
from .errors import DataError
from .taxonomy import Taxonomy, format_actions, parse_actions

BRANCH_VERB = "verb_anchored"
BRANCH_NOUN = "noun_anchored"

DEFAULT_TOP_K = 5


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


def segment_records(clip: ClipRecognition, taxonomy: Taxonomy) -> list[dict]:
    """The clip's per-segment records as `save_recognition` writes them, actions as text."""
    chosen, naive = format_actions(clip.chosen, taxonomy), format_actions(clip.naive, taxonomy)
    candidates = [
        {"action": action, "score": score, "branch": BRANCH_VERB if verb_anchored else BRANCH_NOUN}
        for action, score, verb_anchored in zip(
            format_actions(clip.candidates, taxonomy), clip.scores.tolist(), clip.verb_anchored.tolist()
        )
    ]
    bounds = [0, *np.cumsum(clip.counts).tolist()]  # segment i's candidates are bounds[i]:bounds[i + 1]
    return [
        {"clip_id": clip.clip_id, "segment": i, "chosen": chosen[i], "naive": naive[i], "fallback": fallback,
         "candidates": candidates[bounds[i] : bounds[i + 1]]}
        for i, fallback in enumerate(clip.fallback.tolist())
    ]


def save_recognition(path, clips: list[ClipRecognition], taxonomy: Taxonomy) -> None:
    atomic_write_text(path, dump_jsonl(row for clip in clips for row in segment_records(clip, taxonomy)))


def load_recognition(path, taxonomy: Taxonomy) -> list[ClipRecognition]:
    """One record per clip, as `dataset_io.clip_rows` groups and checks the rows."""
    keys, rows = [], []
    seen: set[tuple[str, int]] = set()
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        keys.append(segment_key(obj, seen, where))
        try:
            actions, scores, verb_anchored = [obj["chosen"], obj["naive"]], [], []
            for raw in obj.get("candidates", []):
                branch, score = raw["branch"], raw["score"]
                if branch not in (BRANCH_VERB, BRANCH_NOUN):
                    raise DataError(f"unknown branch {branch!r}")
                if type(score) not in (int, float) or not math.isfinite(score):  # JSON numbers only, not bools
                    raise DataError(f"candidate score must be a finite number, got {score!r}")
                actions.append(raw["action"])
                scores.append(float(score))
                verb_anchored.append(branch == BRANCH_VERB)
            fallback = obj.get("fallback", False)
            if not isinstance(fallback, bool):
                raise DataError(f"field 'fallback' must be true or false, got {fallback!r}")
            rows.append((parse_actions(actions, taxonomy), scores, verb_anchored, fallback))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, DataError):
                raise DataError(f"{where}: {exc}") from None
            raise DataError(f"{where}: malformed recognition record ({exc!r})") from None
    clips = []
    for clip_id, positions in clip_rows(keys).items():
        ids, scores, verb_anchored, fallback = zip(*(rows[r] for r in positions))
        heads = np.stack([a[:2] for a in ids])  # each row's ids: chosen, naive, then its candidates
        clips.append(ClipRecognition(
            clip_id, heads[:, 0], heads[:, 1], np.concatenate([a[2:] for a in ids]),
            np.fromiter(chain.from_iterable(scores), float), np.fromiter(chain.from_iterable(verb_anchored), bool),
            np.array([len(a) - 2 for a in ids], np.intp), np.array(fallback),
        ))
    return clips
