"""Edit-distance evaluation over candidate future sequences.

The corpus metric is the mean, over clips, of the best (minimum) normalized
edit distance among the K candidates, computed independently for the verb,
noun, and action projections of each sequence.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ._fileio import atomic_write_text
from .dataset_io import ClipRecord, PredictionSet
from .errors import DataError
from .recognition import RecognitionResult
from .taxonomy import Action


def damerau_levenshtein(a, b) -> int:
    """Damerau-Levenshtein distance, optimal string alignment (OSA) variant.

    Unit-cost insertions, deletions, substitutions, and transpositions of
    adjacent tokens. This is the restricted variant: no substring is edited
    more than once, so a transposed pair cannot be touched again. That makes
    e.g. distance("ca", "abc") == 3, where the unrestricted distance is 2.
    Tokens may be any equality-comparable values.
    """
    len_a, len_b = len(a), len(b)
    if len_a == 0:
        return len_b
    if len_b == 0:
        return len_a
    dist = [[0] * (len_b + 1) for _ in range(len_a + 1)]
    for i in range(len_a + 1):
        dist[i][0] = i
    for j in range(len_b + 1):
        dist[0][j] = j
    for i in range(1, len_a + 1):
        for j in range(1, len_b + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            best = min(
                dist[i - 1][j] + 1,  # delete
                dist[i][j - 1] + 1,  # insert
                dist[i - 1][j - 1] + cost,  # substitute / match
            )
            if i > 1 and j > 1 and a[i - 1] == b[j - 2] and a[i - 2] == b[j - 1]:
                best = min(best, dist[i - 2][j - 2] + 1)  # adjacent transposition
            dist[i][j] = best
    return dist[len_a][len_b]


def normalized_ed(pred, gt) -> float:
    """Edit distance divided by the sequence length, clamped into [0, 1]."""
    if len(pred) != len(gt):
        raise DataError(f"sequence length mismatch: {len(pred)} vs {len(gt)}")
    if not gt:
        raise DataError("cannot normalize over empty sequences")
    return min(1.0, damerau_levenshtein(pred, gt) / len(gt))


@dataclass
class ClipScores:
    """Per-clip minimum normalized EDs and the candidate index achieving each."""

    clip_id: str
    verb_ed: float
    noun_ed: float
    action_ed: float
    best_verb: int
    best_noun: int
    best_action: int


@dataclass
class EvalReport:
    verb_ed: float
    noun_ed: float
    action_ed: float
    ar_verb_acc: float | None
    ar_noun_acc: float | None
    ar_action_acc: float | None
    per_clip: list[ClipScores]


def _track_min(candidates: list[list], gt_track: list) -> tuple[float, int]:
    eds = [normalized_ed(cand, gt_track) for cand in candidates]
    best = min(range(len(eds)), key=lambda i: (eds[i], i))  # ties: lowest candidate index
    return eds[best], best


def clip_ed(prediction: PredictionSet, gt: list[Action]) -> ClipScores:
    """Min-over-candidates normalized ED for the verb, noun, and action tracks."""
    if not prediction.candidates:
        raise DataError(f"clip {prediction.clip_id!r} has no candidates (need K >= 1)")
    try:
        verb_ed, best_verb = _track_min(
            [[a.verb for a in c] for c in prediction.candidates], [a.verb for a in gt]
        )
        noun_ed, best_noun = _track_min(
            [[a.noun for a in c] for c in prediction.candidates], [a.noun for a in gt]
        )
        action_ed, best_action = _track_min(
            [[(a.verb, a.noun) for a in c] for c in prediction.candidates],
            [(a.verb, a.noun) for a in gt],
        )
    except DataError as exc:
        raise DataError(f"clip {prediction.clip_id!r}: {exc}") from None
    return ClipScores(prediction.clip_id, verb_ed, noun_ed, action_ed, best_verb, best_noun, best_action)


def ar_accuracy(
    recognition: list[RecognitionResult], annotations: list[ClipRecord]
) -> tuple[float, float, float]:
    """Percentage of recognized segments whose chosen verb / noun / full action
    matches the annotated observed action."""
    observed = {}
    for record in annotations:
        if record.clip_id in observed:
            raise DataError(f"duplicate clip id {record.clip_id!r} in annotations")
        observed[record.clip_id] = record.observed
    if not recognition:
        raise DataError("no recognition results to score")
    verb_ok = noun_ok = both_ok = 0
    for res in recognition:
        if res.clip_id not in observed:
            raise DataError(f"recognition result for unknown clip {res.clip_id!r}")
        segments = observed[res.clip_id]
        if not 0 <= res.segment_index < len(segments):
            raise DataError(
                f"clip {res.clip_id!r}: segment {res.segment_index} out of range "
                f"({len(segments)} observed)"
            )
        truth = segments[res.segment_index]
        verb_hit = res.chosen.verb == truth.verb
        noun_hit = res.chosen.noun == truth.noun
        verb_ok += verb_hit
        noun_ok += noun_hit
        both_ok += verb_hit and noun_hit
    total = len(recognition)
    return (100.0 * verb_ok / total, 100.0 * noun_ok / total, 100.0 * both_ok / total)


def corpus_eval(
    predictions: list[PredictionSet],
    annotations: list[ClipRecord],
    recognition: list[RecognitionResult] | None = None,
) -> EvalReport:
    """Evaluate predictions against every annotated clip that has a future.

    Prediction clip ids must cover the ground-truth clip ids exactly. The
    corpus EDs are unweighted per-clip means (fsum, so clip order cannot
    change them). AR accuracies are filled in only when recognition results
    are supplied.
    """
    ground_truth: dict[str, list[Action]] = {}
    ordered_ids = []
    for record in annotations:
        if record.clip_id in ground_truth:
            raise DataError(f"duplicate clip id {record.clip_id!r} in annotations")
        if record.future is not None:
            ground_truth[record.clip_id] = record.future
            ordered_ids.append(record.clip_id)
    if not ground_truth:
        raise DataError("no annotated clips carry a ground-truth future")

    by_clip: dict[str, PredictionSet] = {}
    for pred in predictions:
        if pred.clip_id in by_clip:
            raise DataError(f"duplicate clip id {pred.clip_id!r} in predictions")
        by_clip[pred.clip_id] = pred
    missing = [cid for cid in ordered_ids if cid not in by_clip]
    if missing:
        raise DataError(f"no prediction for clip {missing[0]!r} ({len(missing)} missing in total)")
    extra = sorted(set(by_clip) - set(ground_truth))
    if extra:
        raise DataError(f"prediction for unknown clip {extra[0]!r} ({len(extra)} extra in total)")

    rows = [clip_ed(by_clip[cid], ground_truth[cid]) for cid in ordered_ids]
    count = len(rows)
    verb_ed = math.fsum(r.verb_ed for r in rows) / count
    noun_ed = math.fsum(r.noun_ed for r in rows) / count
    action_ed = math.fsum(r.action_ed for r in rows) / count

    ar_verb = ar_noun = ar_action = None
    if recognition is not None:
        ar_verb, ar_noun, ar_action = ar_accuracy(recognition, annotations)
    return EvalReport(verb_ed, noun_ed, action_ed, ar_verb, ar_noun, ar_action, rows)


def format_report(report: EvalReport) -> str:
    """Plain-text summary: one ED row, plus an AR row when available."""
    lines = [
        "             verb      noun    action",
        f"ED       {report.verb_ed:8.4f}  {report.noun_ed:8.4f}  {report.action_ed:8.4f}",
    ]
    if report.ar_verb_acc is not None:
        lines.append(
            f"AR acc % {report.ar_verb_acc:8.2f}  {report.ar_noun_acc:8.2f}  {report.ar_action_acc:8.2f}"
        )
    return "\n".join(lines)


def save_report(path, report: EvalReport) -> None:
    payload = {
        "verb_ed": report.verb_ed,
        "noun_ed": report.noun_ed,
        "action_ed": report.action_ed,
        "ar_verb_acc": report.ar_verb_acc,
        "ar_noun_acc": report.ar_noun_acc,
        "ar_action_acc": report.ar_action_acc,
        "clips": [
            {
                "clip_id": r.clip_id,
                "verb_ed": r.verb_ed,
                "noun_ed": r.noun_ed,
                "action_ed": r.action_ed,
                "best_verb": r.best_verb,
                "best_noun": r.best_noun,
                "best_action": r.best_action,
            }
            for r in report.per_clip
        ],
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
