"""Dataset records and their file formats.

All three datasets are JSON lines, one record per line:

  annotations    {"clip_id": ..., "observed": ["verb noun", ...], "future": [...]}
  distributions  {"clip_id": ..., "segment": i, "verb_probs": [...], "noun_probs": [...]}
  predictions    {"clip_id": ..., "candidates": [["verb noun" x Z] x K]}

`future` is optional (test-mode clips); when present it holds exactly the
anticipation horizon worth of actions. Probability vectors are dense, one
entry per vocabulary item. A clip's predictions load as one K x Z x 2 integer
array of (verb id, noun id) steps. Loading preserves file order, except that
per-segment records are grouped per clip (clips in first-appearance order,
segments in index order). Annotations and predictions round-trip exactly;
distributions are renormalized on load, so a vector whose float sum is not
exactly 1 comes back rescaled by a few ulps and saves to different bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_text, dump_jsonl, iter_jsonl
from .errors import DataError
from .taxonomy import Action, Taxonomy, format_action, parse_action

DEFAULT_HORIZON = 20
DEFAULT_OBSERVED_SEGMENTS = 8

# Vectors whose sum strays further than this from 1 are rejected; anything
# inside the band is renormalized to sum exactly 1.
SUM_TOLERANCE = 1e-4


@dataclass
class ClipRecord:
    """One clip: its id, the observed action sequence, optionally the future one."""

    clip_id: str
    observed: list[Action]
    future: list[Action] | None = None


@dataclass(eq=False)
class ClipDistributions:
    """Recognition output for one clip: S x |V| verb and S x |N| noun probabilities, row i = segment i."""

    clip_id: str
    verb_probs: np.ndarray
    noun_probs: np.ndarray


@dataclass(eq=False)
class PredictionSet:
    """K candidate future sequences for one clip: a K x Z x 2 integer array, [k, z] = (verb id, noun id)."""

    clip_id: str
    candidates: np.ndarray


def _require(obj: dict, key: str, types, where: str):
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise DataError(f"{where}: field {key!r} has the wrong type")
    return value


def segment_key(obj: dict, seen: set[tuple[str, int]], where: str) -> tuple[str, int]:
    """A record's (clip_id, segment), checked and added to `seen`.

    The segment must be a nonnegative int (not a bool, not a float) and the
    pair must not be in `seen` already.
    """
    clip_id = _require(obj, "clip_id", str, where)
    segment = _require(obj, "segment", int, where)
    if isinstance(segment, bool) or segment < 0:
        raise DataError(f"{where}: segment index must be a nonnegative integer")
    key = (clip_id, segment)
    if key in seen:
        raise DataError(f"{where}: duplicate segment {segment} for clip {clip_id!r}")
    seen.add(key)
    return key


def clip_rows(keys: list[tuple[str, int]]) -> dict[str, list[int]]:
    """Positions of (clip_id, segment) keys per clip: clips in first-appearance order,
    each clip's in segment order, and its segments contiguous from 0 (else a DataError)."""
    groups: dict[str, list[tuple[int, int]]] = {}
    for row, (clip_id, segment) in enumerate(keys):
        groups.setdefault(clip_id, []).append((segment, row))
    rows = {}
    for clip_id, pairs in groups.items():
        pairs.sort()
        for expected, (segment, _) in enumerate(pairs):
            if segment != expected:
                raise DataError(
                    f"clip {clip_id!r}: segment indices must be contiguous from 0, "
                    f"expected {expected} but found {segment}"
                )
        rows[clip_id] = [row for _, row in pairs]
    return rows


def _parse_tokens(tokens, taxonomy: Taxonomy, where: str) -> list[Action]:
    actions = []
    for token in tokens:
        try:
            actions.append(parse_action(token, taxonomy))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return actions


def load_annotations(path, taxonomy: Taxonomy, horizon: int = DEFAULT_HORIZON) -> list[ClipRecord]:
    """Load clip annotations; any `future` present must be exactly `horizon` long."""
    records = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        clip_id = _require(obj, "clip_id", str, where)
        if clip_id in seen:
            raise DataError(f"{where}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        observed = _parse_tokens(_require(obj, "observed", list, where), taxonomy, where)
        future = None
        if obj.get("future") is not None:
            tokens = _require(obj, "future", list, where)
            if len(tokens) != horizon:
                raise DataError(
                    f"{where}: clip {clip_id!r} has a future of {len(tokens)} actions, expected {horizon}"
                )
            future = _parse_tokens(tokens, taxonomy, where)
        records.append(ClipRecord(clip_id, observed, future))
    return records


def save_annotations(path, records: list[ClipRecord], taxonomy: Taxonomy) -> None:
    rows = []
    for record in records:
        row = {
            "clip_id": record.clip_id,
            "observed": [format_action(a, taxonomy) for a in record.observed],
        }
        if record.future is not None:
            row["future"] = [format_action(a, taxonomy) for a in record.future]
        rows.append(row)
    atomic_write_text(path, dump_jsonl(rows))


def _clean_probs(values: list, expected_len: int, name: str, where: str) -> np.ndarray:
    if not set(map(type, values)) <= {float, int}:  # JSON numbers only: no str, bool, null or list
        raise DataError(f"{where}: {name} is not a vector of numbers")
    if len(values) != expected_len:
        raise DataError(f"{where}: {name} has length {len(values)}, expected {expected_len}")
    try:
        arr = np.asarray(values, dtype=float)
    except OverflowError:
        raise DataError(f"{where}: {name} contains a number too large for a float") from None
    if not np.isfinite(arr).all():
        raise DataError(f"{where}: {name} contains non-finite entries")
    if (arr < 0).any():
        raise DataError(f"{where}: {name} contains a negative probability")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise DataError(f"{where}: {name} sums to {total!r}, outside 1 +/- {SUM_TOLERANCE}")
    return arr / total


def load_distributions(path, taxonomy: Taxonomy) -> list[ClipDistributions]:
    """Load per-segment probability vectors as one record per clip (see `clip_rows`),
    renormalizing sums inside the tolerance band."""
    keys, verbs, nouns = [], {}, {}
    seen: set[tuple[str, int]] = set()
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        key = segment_key(obj, seen, where)
        verbs[len(keys)] = _clean_probs(
            _require(obj, "verb_probs", list, where), taxonomy.num_verbs, "verb_probs", where
        )
        nouns[len(keys)] = _clean_probs(
            _require(obj, "noun_probs", list, where), taxonomy.num_nouns, "noun_probs", where
        )
        keys.append(key)
    # Each row is dropped once its clip is stacked, so the file is held about once, not twice.
    return [
        ClipDistributions(clip_id, np.array([verbs.pop(r) for r in rows]), np.array([nouns.pop(r) for r in rows]))
        for clip_id, rows in clip_rows(keys).items()
    ]


def save_distributions(path, clips: list[ClipDistributions]) -> None:
    rows = [
        {"clip_id": clip.clip_id, "segment": i, "verb_probs": verb, "noun_probs": noun}
        for clip in clips
        for i, (verb, noun) in enumerate(zip(clip.verb_probs.tolist(), clip.noun_probs.tolist()))
    ]
    atomic_write_text(path, dump_jsonl(rows))


def load_predictions(path, taxonomy: Taxonomy, horizon: int = DEFAULT_HORIZON) -> list[PredictionSet]:
    """Load candidate future sets as K x Z x 2 id arrays; every candidate must be exactly `horizon` long."""
    verbs, nouns = taxonomy._verb_index, taxonomy._noun_index
    out = []
    seen: set[str] = set()
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        clip_id = _require(obj, "clip_id", str, where)
        if clip_id in seen:
            raise DataError(f"{where}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        raw = _require(obj, "candidates", list, where)
        if not raw:
            raise DataError(f"{where}: clip {clip_id!r} has no candidates (need K >= 1)")
        steps = []
        for idx, tokens in enumerate(raw):
            if not isinstance(tokens, list):
                raise DataError(f"{where}: candidate {idx} is not a list")
            if len(tokens) != horizon:
                raise DataError(
                    f"{where}: candidate {idx} has {len(tokens)} actions, expected {horizon}"
                )
            try:
                steps += [(verbs[v], nouns[n]) for v, n in (token.split(" ") for token in tokens)]
            except (AttributeError, ValueError, KeyError):  # not a string, not two labels, unknown label
                _parse_tokens(tokens, taxonomy, where)  # raises parse_action's error for the first bad token
                raise
        out.append(PredictionSet(clip_id, np.array(steps, dtype=np.intp).reshape(len(raw), horizon, 2)))
    return out


def save_predictions(path, predictions: list[PredictionSet], taxonomy: Taxonomy) -> None:
    verbs, nouns = taxonomy.verbs, taxonomy.nouns
    rows = []
    for p in predictions:
        outside = ((p.candidates < 0) | (p.candidates >= (len(verbs), len(nouns)))).any(axis=-1)
        if outside.any():  # a negative id would otherwise index the label list from its end
            verb, noun = p.candidates[outside][0].tolist()
            raise DataError(
                f"clip {p.clip_id!r}: action ({verb}, {noun}) out of range for "
                f"|V|={len(verbs)}, |N|={len(nouns)}"
            )
        candidates = [[verbs[v] + " " + nouns[n] for v, n in cand] for cand in p.candidates.tolist()]
        rows.append({"clip_id": p.clip_id, "candidates": candidates})
    atomic_write_text(path, dump_jsonl(rows))
