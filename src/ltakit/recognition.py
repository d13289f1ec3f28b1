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
from typing import TypeVar

import numpy as np

from ._fileio import atomic_write_text, dump_jsonl, iter_jsonl
from .cooccurrence import CooccurrenceMatrix
from .dataset_io import SegmentDistribution, segment_key
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


def top_k(probs, k: int) -> list[tuple[int, float]]:
    """The k highest entries as (index, value), ties broken by ascending index."""
    arr = np.asarray(probs, dtype=float)
    if arr.ndim != 1:
        raise DataError("top_k expects a 1-D vector")
    if k < 1 or k > arr.shape[0]:
        raise DataError(f"k={k} out of range for a vector of length {arr.shape[0]}")
    order = np.argsort(-arr, kind="stable")[:k]  # stable: equal values keep index order
    return [(int(i), float(arr[i])) for i in order]


def _order_key(candidate: CandidatePair):
    return (-candidate.score, candidate.action.verb, candidate.action.noun)


def _branch_best(candidates: list[CandidatePair], k: int) -> list[CandidatePair]:
    return sorted(candidates, key=_order_key)[:k]


def rerank(
    dist: SegmentDistribution, matrix: CooccurrenceMatrix, k: int = DEFAULT_TOP_K
) -> RecognitionResult:
    """Re-rank one segment's verb/noun distributions against co-occurrence."""
    num_verbs, num_nouns = matrix.shape
    if dist.verb_probs.shape[0] != num_verbs or dist.noun_probs.shape[0] != num_nouns:
        raise DataError(
            f"segment {dist.clip_id!r}/{dist.segment_index}: distribution sizes "
            f"({dist.verb_probs.shape[0]}, {dist.noun_probs.shape[0]}) do not match "
            f"the {num_verbs}x{num_nouns} matrix"
        )
    if k < 1 or k > min(num_verbs, num_nouns):
        raise DataError(f"top-k={k} needs 1 <= k <= min(|V|, |N|) = {min(num_verbs, num_nouns)}")

    verb_probs = dist.verb_probs
    noun_probs = dist.noun_probs

    verb_branch = []
    for v, p_verb in top_k(verb_probs, k):
        adjusted = noun_probs * matrix.row_stochastic[v]
        for n, q in top_k(adjusted, k):
            verb_branch.append(CandidatePair(Action(v, n), float(p_verb * q), BRANCH_VERB))

    noun_branch = []
    for n, p_noun in top_k(noun_probs, k):
        adjusted = verb_probs * matrix.col_stochastic[:, n]
        for v, q in top_k(adjusted, k):
            noun_branch.append(CandidatePair(Action(v, n), float(p_noun * q), BRANCH_NOUN))

    merged: dict[Action, CandidatePair] = {}
    for candidate in _branch_best(verb_branch, k) + _branch_best(noun_branch, k):
        held = merged.get(candidate.action)
        if held is None or candidate.score > held.score:
            merged[candidate.action] = candidate
    candidates = sorted(merged.values(), key=_order_key)

    naive = Action(int(np.argmax(verb_probs)), int(np.argmax(noun_probs)))
    if candidates[0].score > 0.0:
        chosen, used_fallback = candidates[0].action, False
    else:
        chosen, used_fallback = naive, True
    return RecognitionResult(
        dist.clip_id, dist.segment_index, chosen, naive, candidates, used_fallback
    )


# Per-segment records of one pipeline stage: inputs to or outputs of recognition.
Segment = TypeVar("Segment", SegmentDistribution, RecognitionResult)


def ordered_segments(segments: list[Segment]) -> list[Segment]:
    """One clip's segments in segment order; their indices must run contiguously from 0."""
    if not segments:
        raise DataError("no segments given")
    clip_ids = {s.clip_id for s in segments}
    if len(clip_ids) != 1:
        raise DataError(f"segments from multiple clips passed together: {sorted(clip_ids)}")
    ordered = sorted(segments, key=lambda s: s.segment_index)
    for expected, segment in enumerate(ordered):
        if segment.segment_index != expected:
            raise DataError(
                f"clip {segment.clip_id!r}: segment indices must be contiguous from 0, "
                f"expected {expected} but found {segment.segment_index}"
            )
    return ordered


def recognize_clip(
    distributions: list[SegmentDistribution], matrix: CooccurrenceMatrix, k: int = DEFAULT_TOP_K
) -> list[RecognitionResult]:
    """Re-rank all segments of one clip, in segment order (input order may be shuffled)."""
    return [rerank(d, matrix, k) for d in ordered_segments(distributions)]


def naive_clip(distributions: list[SegmentDistribution]) -> list[RecognitionResult]:
    """Ablation path: per-track argmax pairs, no co-occurrence candidates."""
    results = []
    for dist in ordered_segments(distributions):
        naive = Action(int(np.argmax(dist.verb_probs)), int(np.argmax(dist.noun_probs)))
        results.append(RecognitionResult(dist.clip_id, dist.segment_index, naive, naive))
    return results


def group_segments(segments: list[Segment]) -> dict[str, list[Segment]]:
    """Bucket segments per clip, clips kept in first-appearance order."""
    groups: dict[str, list[Segment]] = {}
    for segment in segments:
        groups.setdefault(segment.clip_id, []).append(segment)
    return groups


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


def load_recognition(path, taxonomy: Taxonomy) -> list[RecognitionResult]:
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
            results.append(
                RecognitionResult(
                    clip_id=clip_id,
                    segment_index=segment,
                    chosen=parse(obj["chosen"]),
                    naive=parse(obj["naive"]),
                    candidates=candidates,
                    used_fallback=bool(obj.get("fallback", False)),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, DataError):
                raise DataError(f"{where}: {exc}") from None
            raise DataError(f"{where}: malformed recognition record ({exc!r})") from None
    return results
