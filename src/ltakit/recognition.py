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
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._fileio import atomic_write_text, dump_jsonl, iter_jsonl
from .cooccurrence import CooccurrenceMatrix
from .dataset_io import ClipDistributions, clip_rows, segment_key
from .errors import DataError
from .taxonomy import Action, Taxonomy, format_action, parse_action

BRANCH_VERB = "verb_anchored"
BRANCH_NOUN = "noun_anchored"

DEFAULT_TOP_K = 5


@dataclass(frozen=True)
class CandidatePair:
    action: Action
    score: float
    branch: str


@dataclass
class RecognitionResult:
    """Chosen pair, naive argmax pair, and the scored candidates for one segment.

    `used_fallback` marks the degenerate case where every candidate scored
    zero and the naive pair was taken instead.
    """

    clip_id: str
    segment_index: int
    chosen: Action
    naive: Action
    candidates: list[CandidatePair] = field(default_factory=list)
    used_fallback: bool = False


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
) -> list[RecognitionResult]:
    """Re-rank all segments of one clip, in segment order.

    The clip is scored as S x |V| and S x |N| arrays at once; the largest
    intermediate is S x k x max(|V|, |N|).
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
    scores, verbs, nouns, columns = (a.tolist() for a in _take((scores, verbs, nouns, columns), order))
    naive_verbs, naive_nouns = verb_probs.argmax(axis=1).tolist(), noun_probs.argmax(axis=1).tolist()

    results = []
    for i in range(len(verb_probs)):
        merged: dict[Action, CandidatePair] = {}
        for score, v, n, column in zip(scores[i], verbs[i], nouns[i], columns[i]):
            action = Action(v, n)
            if action not in merged:
                merged[action] = CandidatePair(action, score, BRANCH_VERB if column < k else BRANCH_NOUN)
        candidates = list(merged.values())
        naive = Action(naive_verbs[i], naive_nouns[i])
        fallback = not candidates[0].score > 0.0
        chosen = naive if fallback else candidates[0].action
        results.append(RecognitionResult(clip.clip_id, i, chosen, naive, candidates, fallback))
    return results


def naive_clip(clip: ClipDistributions) -> list[RecognitionResult]:
    """Ablation path: per-track argmax pairs, no co-occurrence candidates."""
    _check_clip(clip)
    verbs, nouns = clip.verb_probs.argmax(axis=1).tolist(), clip.noun_probs.argmax(axis=1).tolist()
    return [RecognitionResult(clip.clip_id, i, a, a) for i, a in enumerate(map(Action, verbs, nouns))]


def save_recognition(path, results: list[RecognitionResult], taxonomy: Taxonomy) -> None:
    rows = []
    for res in results:
        rows.append(
            {
                "clip_id": res.clip_id,
                "segment": int(res.segment_index),
                "chosen": format_action(res.chosen, taxonomy),
                "naive": format_action(res.naive, taxonomy),
                "fallback": bool(res.used_fallback),
                "candidates": [
                    {
                        "action": format_action(c.action, taxonomy),
                        "score": float(c.score),
                        "branch": c.branch,
                    }
                    for c in res.candidates
                ],
            }
        )
    atomic_write_text(path, dump_jsonl(rows))


def load_recognition(path, taxonomy: Taxonomy) -> dict[str, list[RecognitionResult]]:
    """Recognition rows per clip, as `dataset_io.clip_rows` groups and checks them."""
    results = []
    seen: set[tuple[str, int]] = set()
    parse = functools.cache(lambda text: parse_action(text, taxonomy))  # each distinct text parsed once
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        clip_id, segment = segment_key(obj, seen, where)
        try:
            candidates = []
            for raw in obj.get("candidates", []):
                branch = raw["branch"]
                if branch not in (BRANCH_VERB, BRANCH_NOUN):
                    raise DataError(f"unknown branch {branch!r}")
                candidates.append(CandidatePair(parse(raw["action"]), float(raw["score"]), branch))
            if not isinstance(obj.get("fallback", False), bool):
                raise DataError(f"field 'fallback' must be true or false, got {obj['fallback']!r}")
            results.append(
                RecognitionResult(
                    clip_id=clip_id,
                    segment_index=segment,
                    chosen=parse(obj["chosen"]),
                    naive=parse(obj["naive"]),
                    candidates=candidates,
                    used_fallback=obj.get("fallback", False),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, DataError):
                raise DataError(f"{where}: {exc}") from None
            raise DataError(f"{where}: malformed recognition record ({exc!r})") from None
    rows = clip_rows([(r.clip_id, r.segment_index) for r in results])
    return {clip_id: [results[r] for r in clip] for clip_id, clip in rows.items()}
