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
from itertools import compress, repeat

import numpy as np

from ._fileio import atomic_write_text
from .dataset_io import Annotations, Predictions
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
class EvalReport:
    """Corpus EDs and AR accuracies, plus each scored clip's minimum normalized EDs and the
    candidate index reaching each: C x 3 `eds` and `best`, columns verb, noun and action."""

    verb_ed: float
    noun_ed: float
    action_ed: float
    ar_verb_acc: float | None
    ar_noun_acc: float | None
    ar_action_acc: float | None
    clip_ids: list[str]
    eds: np.ndarray
    best: np.ndarray


def _lookup(ids: list[str], clip_ids: list[str]) -> np.ndarray:
    """Each of `clip_ids`' index in `ids`, a table's distinct clip ids; -1 where `ids` lacks it."""
    index = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(index.get, clip_ids, repeat(-1)), np.intp, len(clip_ids))


def observed_rows(clip_ids, starts, annotations: Annotations) -> np.ndarray:
    """The annotated observed action of each recognized segment: clip `clip_ids[i]` has
    segments starts[i]:starts[i + 1], which must not outrun its observed actions."""
    at, starts = _lookup(annotations.clip_ids, clip_ids), np.asarray(starts, np.intp)
    bounds, counts = np.asarray(annotations.starts, np.intp), np.diff(starts)
    sizes = bounds[at + 1] - bounds[at]
    bad = np.flatnonzero((at < 0) | (counts > sizes))
    if len(bad):
        clip_id, size = clip_ids[bad[0]], sizes[bad[0]]
        if at[bad[0]] < 0:
            raise DataError(f"recognition result for unknown clip {clip_id!r}")
        raise DataError(f"clip {clip_id!r}: segment {size} out of range ({size} observed)")
    return annotations.observed[np.repeat(bounds[at] - starts[:-1], counts) + np.arange(starts[0], starts[-1])]


def ar_accuracy(recognition: Recognition, annotations: Annotations) -> tuple[float, float, float]:
    """Percentage of recognized segments whose chosen verb / noun / full action
    matches the annotated observed action."""
    same = recognition.chosen == observed_rows(recognition.clip_ids, recognition.starts, annotations)
    if not len(same):  # S x 2: verb match, noun match
        raise DataError("no recognition results to score")
    verb_ok, noun_ok = same.sum(axis=0).tolist()
    both_ok = int(same.all(axis=1).sum())
    return (100.0 * verb_ok / len(same), 100.0 * noun_ok / len(same), 100.0 * both_ok / len(same))


def corpus_eval(
    predictions: Predictions,
    annotations: Annotations,
    recognition: Recognition | None = None,
) -> EvalReport:
    """Evaluate predictions against every annotated clip that has a future.

    Prediction clip ids must cover the ground-truth clip ids exactly. Clips
    may differ in K. The corpus EDs are unweighted per-clip means (fsum, so
    clip order cannot change them). AR accuracies are filled in only when
    recognition results are supplied.
    """
    clip_ids = list(compress(annotations.clip_ids, annotations.has_future.tolist()))
    if not clip_ids:
        raise DataError("no annotated clips carry a ground-truth future")
    at = _lookup(predictions.clip_ids, clip_ids)  # each scored clip's place in the predictions
    missing = np.flatnonzero(at < 0)
    if len(missing):
        raise DataError(f"no prediction for clip {clip_ids[missing[0]]!r} ({len(missing)} missing in total)")
    extra = np.flatnonzero(_lookup(clip_ids, predictions.clip_ids) < 0)  # in predictions order
    if len(extra):
        raise DataError(f"prediction for unknown clip {predictions.clip_ids[extra[0]]!r} ({len(extra)} extra in total)")

    length, horizon = predictions.candidates.shape[1], annotations.future.shape[1]
    if length != horizon:  # for every clip, so named by the first
        raise DataError(f"clip {clip_ids[0]!r}: sequence length mismatch: {length} vs {horizon}")
    bounds = np.asarray(predictions.starts, np.intp)
    sizes = bounds[at + 1] - bounds[at]

    # A clip with fewer than K candidates repeats its first one, which changes
    # neither its minimum nor the lowest index that reaches it.
    ks = np.arange(sizes.max())
    pred = predictions.candidates[bounds[at][:, None] + np.where(ks < sizes[:, None], ks, 0)]
    truth = annotations.future[:, None]
    n = 1 + max(pred[..., 1].max(initial=0), truth[..., 1].max(initial=0))  # no actions at Z = 0

    def tracks(pairs):  # (clips, k, Z, 2) -> (3, clips, k, Z): verb, noun and action codes
        return np.stack([pairs[..., 0], pairs[..., 1], pairs[..., 0] * n + pairs[..., 1]])

    eds = normalized_eds(tracks(pred), tracks(truth))
    best = eds.argmin(axis=-1).T  # the first minimum: ties go to the lowest candidate index
    eds = eds.min(axis=-1).T
    verb_ed, noun_ed, action_ed = (math.fsum(track) / len(clip_ids) for track in eds.T.tolist())

    ar_verb = ar_noun = ar_action = None
    if recognition is not None:
        ar_verb, ar_noun, ar_action = ar_accuracy(recognition, annotations)
    return EvalReport(verb_ed, noun_ed, action_ed, ar_verb, ar_noun, ar_action, clip_ids, eds, best)


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
            dict(zip(["clip_id", "verb_ed", "noun_ed", "action_ed", "best_verb", "best_noun", "best_action"],
                     [clip_id, *eds, *best]))
            for clip_id, eds, best in zip(report.clip_ids, report.eds.tolist(), report.best.tolist())
        ],
    }
    atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
