"""Edit-distance evaluation over candidate future sequences.

The corpus metric is the mean, over clips, of the best (minimum) normalized
edit distance among the K candidates, computed independently for the verb,
noun, and action projections of each sequence. The tracks are integer token
codes: the verb id, the noun id, and verb * n + noun for the action, where n is
1 + the largest noun id present, so equal codes mean equal actions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text
from .dataset_io import ClipRecord, PredictionSet
from .errors import DataError
from .recognition import Recognition


def damerau_levenshtein(a, b) -> np.ndarray:
    """Damerau-Levenshtein distance, optimal string alignment (OSA) variant.

    Unit-cost insertions, deletions, substitutions, and transpositions of
    adjacent tokens. This is the restricted variant: no substring is edited
    more than once, so a transposed pair cannot be touched again. That makes
    e.g. distance("ca", "abc") == 3, where the unrestricted distance is 2.

    `a` (..., La) and `b` (..., Lb) are integer token arrays whose leading
    axes broadcast; the result has the broadcast leading shape. The DP runs
    cell by cell over (i, j), and each cell is one array step over the batch.
    """
    a, b = np.asarray(a), np.asarray(b)
    # same[i, j] holds a[..., i] == b[..., j]; batch axes go last so each cell is contiguous.
    same = np.moveaxis(a[..., :, None] == b[..., None, :], (-2, -1), (0, 1)).copy()
    len_a, len_b, batch = same.shape[0], same.shape[1], same.shape[2:]
    # DP rows i - 2 and i - 1; cell j of a row is the distance to b's first j tokens.
    before, prev = None, np.zeros(batch, np.intp) + np.arange(len_b + 1).reshape(-1, *[1] * len(batch))
    for i in range(1, len_a + 1):
        row = np.empty_like(prev)
        row[0] = i
        for j in range(1, len_b + 1):
            # Every edit costs 1, so take the min of the predecessors first and add it once.
            cell = row[j, ...]  # a view even when the batch is 0-d
            np.minimum(prev[j], row[j - 1], out=cell)  # delete or insert
            np.minimum(cell, prev[j - 1] - same[i - 1, j - 1], out=cell)  # substitute or match
            if i > 1 and j > 1:  # adjacent transposition
                np.minimum(cell, before[j - 2], out=cell, where=same[i - 1, j - 2] & same[i - 2, j - 1])
            cell += 1
        before, prev = prev, row
    return prev[len_b]


def normalized_eds(pred, truth) -> np.ndarray:
    """`damerau_levenshtein(pred, truth)` over truth's length Z, clamped into [0, 1]; `pred` and
    `truth` are (..., Z) token arrays whose leading axes broadcast."""
    horizon = np.shape(truth)[-1]
    if horizon == 0:
        raise DataError("cannot normalize over empty sequences")
    if np.shape(pred)[-1] != horizon:
        raise DataError(f"sequence length mismatch: {np.shape(pred)[-1]} vs {horizon}")
    return np.minimum(1.0, damerau_levenshtein(pred, truth) / horizon)


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


def observed_rows(clip_ids, starts, annotations: list[ClipRecord]) -> np.ndarray:
    """The annotated observed action of each recognized segment: clip `clip_ids[i]` has
    starts[i + 1] - starts[i] segments, which must not outrun its observed actions."""
    observed = {}
    for record in annotations:
        if record.clip_id in observed:
            raise DataError(f"duplicate clip id {record.clip_id!r} in annotations")
        observed[record.clip_id] = record.observed
    rows = [np.empty((0, 2), np.intp)]
    for clip_id, a, b in zip(clip_ids, starts, starts[1:]):
        if clip_id not in observed:
            raise DataError(f"recognition result for unknown clip {clip_id!r}")
        segments = observed[clip_id]
        if b - a > len(segments):
            raise DataError(f"clip {clip_id!r}: segment {len(segments)} out of range ({len(segments)} observed)")
        rows.append(segments[: b - a])
    return np.concatenate(rows)


def ar_accuracy(recognition: Recognition, annotations: list[ClipRecord]) -> tuple[float, float, float]:
    """Percentage of recognized segments whose chosen verb / noun / full action
    matches the annotated observed action."""
    same = recognition.chosen == observed_rows(recognition.clip_ids, recognition.starts, annotations)
    if not len(same):  # S x 2: verb match, noun match
        raise DataError("no recognition results to score")
    verb_ok, noun_ok = same.sum(axis=0).tolist()
    both_ok = int(same.all(axis=1).sum())
    return (100.0 * verb_ok / len(same), 100.0 * noun_ok / len(same), 100.0 * both_ok / len(same))


def corpus_eval(
    predictions: list[PredictionSet],
    annotations: list[ClipRecord],
    recognition: Recognition | None = None,
) -> EvalReport:
    """Evaluate predictions against every annotated clip that has a future.

    Prediction clip ids must cover the ground-truth clip ids exactly, and all
    scored clips must share one horizon (score each horizon in its own call).
    Clips may differ in K. The corpus EDs are unweighted per-clip means (fsum,
    so clip order cannot change them). AR accuracies are filled in only when
    recognition results are supplied.
    """
    ground_truth: dict[str, np.ndarray] = {}
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

    horizon = len(ground_truth[ordered_ids[0]])
    for cid in ordered_ids:
        if len(ground_truth[cid]) != horizon:  # one horizon per call
            raise DataError(f"clip {cid!r}: future of {len(ground_truth[cid])} actions, not {horizon}")
        num_k, length, _ = by_clip[cid].candidates.shape
        if not num_k:
            raise DataError(f"clip {cid!r} has no candidates (need K >= 1)")
        if length != horizon:
            raise DataError(f"clip {cid!r}: sequence length mismatch: {length} vs {horizon}")

    # A clip with fewer than K candidates repeats its first one, which changes
    # neither its minimum nor the lowest index that reaches it.
    sets = [by_clip[cid].candidates for cid in ordered_ids]
    num_k = max(len(s) for s in sets)
    pred = np.stack([np.concatenate([s, s[:1].repeat(num_k - len(s), axis=0)]) for s in sets])
    truth = np.stack([ground_truth[cid] for cid in ordered_ids])[:, None]
    n = 1 + max(pred[..., 1].max(initial=0), truth[..., 1].max(initial=0))  # no actions at Z = 0

    def tracks(pairs):  # (clips, k, Z, 2) -> (3, clips, k, Z): verb, noun and action codes
        return np.stack([pairs[..., 0], pairs[..., 1], pairs[..., 0] * n + pairs[..., 1]])

    eds = normalized_eds(tracks(pred), tracks(truth))
    best = eds.argmin(axis=-1)  # the first minimum: ties go to the lowest candidate index
    rows = [
        ClipScores(cid, *ed, *idx)
        for cid, ed, idx in zip(ordered_ids, eds.min(axis=-1).T.tolist(), best.T.tolist())
    ]
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
        "clips": [  # ClipScores fields, in order; asdict would deep-copy each record
            {"clip_id": r.clip_id, "verb_ed": r.verb_ed, "noun_ed": r.noun_ed, "action_ed": r.action_ed,
             "best_verb": r.best_verb, "best_noun": r.best_noun, "best_action": r.best_action}
            for r in report.per_clip
        ],
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
