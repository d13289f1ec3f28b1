"""Edit-distance evaluation over candidate future sequences.

The corpus metric is the mean, over clips, of the best (minimum) normalized
edit distance among the K candidates, computed independently for the verb,
noun, and action projections of each sequence. The distance is the OSA
Damerau-Levenshtein DP run as bit-vector columns (Myers 1999, with Hyyro's
2003 transposition term), from masks of where each predicted token matches
the truth; an action matches where both its verb and its noun mask do.
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


def _match_masks(a, b) -> np.ndarray:
    """Bit j of word w of masks[i, ..., w] is set when a[..., i] == b[..., 64 * w + j]: a
    (La, *batch, W) uint64 array, W = max(1, ceil(Lb / 64)). Each token pair is compared once."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)  # a strided compare is ~5x slower
    same = np.packbits(a[..., :, None] == b[..., None, :], axis=-1, bitorder="little")
    masks = np.zeros((same.shape[-2], *same.shape[:-2], max(1, -(-b.shape[-1] // 64)) * 8), np.uint8)
    masks[..., : same.shape[-1]] = np.moveaxis(same, -2, 0)
    return masks.view("<u8")


def _osa(masks: np.ndarray, len_b: int) -> np.ndarray:
    """Each pair's OSA distance from its `_match_masks(a, b)` and Lb; see `damerau_levenshtein`."""
    len_a, batch, words = masks.shape[0], masks.shape[1:-1], masks.shape[-1]
    masks, one, top = masks.reshape(len_a, math.prod(batch), words), np.uint64(1), np.uint64(63)
    zero = np.zeros(masks.shape[1], np.uint64)  # 1-d even for one pair: numpy scalars warn on overflow
    vp, vn, d0, before = [~zero] * words, [zero] * words, [zero] * words, [zero] * words
    for i in range(len_a):
        for w in range(words):
            pm, up, down = masks[i, :, w], vp[w], vn[w]
            x, plus = ~d0[w] & pm, (pm & up) + up
            tr, total = ((x << one) | carry[0], plus + carry[1]) if w else (x << one, plus)
            d0[w] = diag = (tr & before[w]) | (total ^ up) | pm | down
            hp, hn = down | ~(diag | up), diag & up
            shifted_hp = (hp << one) | (carry[2] if w else one)
            shifted_hn = (hn << one) | carry[3] if w else hn << one
            if w < words - 1:  # what word w shifts or adds out of its top bit, carried into word w + 1
                carry = (x >> top, (plus < up) | (total < plus), hp >> top, hn >> top)
            vp[w], vn[w], before[w] = shifted_hn | ~(shifted_hp | diag), shifted_hp & diag, pm
    # Down the last column, D[Lb, La] = D[0, La] + the sum of its vertical deltas.
    bits = np.stack(vp + vn, -1).astype("<u8", copy=False).view(np.uint8).reshape(-1, 2, 8 * words)
    ups, downs = np.unpackbits(bits, axis=-1, count=len_b, bitorder="little").sum(-1, dtype=np.intp).T
    return (len_a + ups - downs).reshape(batch)[()]  # a numpy integer for one pair


def damerau_levenshtein(a, b) -> np.ndarray:
    """Damerau-Levenshtein distance, optimal string alignment (OSA) variant.

    Unit-cost insertions, deletions, substitutions, and transpositions of
    adjacent tokens. This is the restricted variant: no substring is edited
    more than once, so a transposed pair cannot be touched again. That makes
    e.g. distance("ca", "abc") == 3, where the unrestricted distance is 2.

    `a` (..., La) and `b` (..., Lb) are integer token arrays whose leading
    axes broadcast; the result has the broadcast leading shape. The DP runs a
    column per token of `a`, all pairs at once, as the bit-vector recurrence of
    Myers (JACM 46(3), 1999) with Hyyro's transposition term ((~D0 & PM) << 1) &
    PM_prev (Nordic J. Computing 10(1), 2003): ~20 uint64 operations per column
    and word, over words that hold the column's +1 / -1 vertical deltas at b's
    positions and carry the add and the shifts between them. The distance is
    La plus the last column's deltas.
    """
    return _osa(_match_masks(a, b), np.shape(b)[-1])


def track_eds(pred, truth) -> np.ndarray:
    """The (3, ...) verb, noun and action EDs of `pred` against `truth`, (..., Z, 2) (verb id,
    noun id) arrays of as many axes, whose leading axes broadcast: `damerau_levenshtein` over Z,
    clamped into [0, 1]. The verb and noun masks come from one build; an action matches where
    both of its ids do."""
    pred, truth = np.asarray(pred), np.asarray(truth)
    horizon = truth.shape[-2]
    if horizon == 0:
        raise DataError("cannot normalize over empty sequences")
    if pred.shape[-2] != horizon:
        raise DataError(f"sequence length mismatch: {pred.shape[-2]} vs {horizon}")
    masks = _match_masks(np.moveaxis(pred, -1, 0), np.moveaxis(truth, -1, 0))
    masks = np.concatenate([masks, masks[:, :1] & masks[:, 1:]], axis=1)  # Z x (verb, noun, action) x ...
    return np.minimum(1.0, _osa(masks, horizon) / horizon)


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
    eds = track_eds(pred, annotations.future[:, None])
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
