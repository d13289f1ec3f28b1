"""Dataset records and their file formats.

All three datasets are JSON lines, one record per line:

  annotations    {"clip_id": ..., "observed": ["verb noun", ...], "future": [...]}
  distributions  {"clip_id": ..., "segment": i, "verb_probs": [...], "noun_probs": [...]}
  predictions    {"clip_id": ..., "candidates": [["verb noun" x Z] x K]}

`future` is optional (test-mode clips); when present it holds exactly the
anticipation horizon worth of actions. Probability vectors are dense, one
entry per vocabulary item. Loading preserves file order, and every
save/load pair round-trips exactly on valid data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class SegmentDistribution:
    """Recognition output for one observed segment: dense verb and noun probabilities."""

    clip_id: str
    segment_index: int
    verb_probs: np.ndarray
    noun_probs: np.ndarray


@dataclass
class PredictionSet:
    """K candidate future sequences for one clip, each exactly horizon long."""

    clip_id: str
    candidates: list[list[Action]] = field(default_factory=list)


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


def _clean_probs(values, expected_len: int, name: str, where: str) -> np.ndarray:
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise DataError(f"{where}: {name} is not a numeric vector") from None
    if arr.ndim != 1 or arr.shape[0] != expected_len:
        raise DataError(f"{where}: {name} has length {arr.size}, expected {expected_len}")
    if not np.all(np.isfinite(arr)):
        raise DataError(f"{where}: {name} contains non-finite entries")
    if np.any(arr < 0):
        raise DataError(f"{where}: {name} contains a negative probability")
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise DataError(f"{where}: {name} sums to {total!r}, outside 1 +/- {SUM_TOLERANCE}")
    return arr / total


def load_distributions(path, taxonomy: Taxonomy) -> list[SegmentDistribution]:
    """Load per-segment probability vectors, renormalizing sums inside the tolerance band."""
    out = []
    seen: set[tuple[str, int]] = set()
    for lineno, obj in iter_jsonl(path):
        where = f"{path}:{lineno}"
        clip_id, segment = segment_key(obj, seen, where)
        verb_probs = _clean_probs(
            _require(obj, "verb_probs", list, where), taxonomy.num_verbs, "verb_probs", where
        )
        noun_probs = _clean_probs(
            _require(obj, "noun_probs", list, where), taxonomy.num_nouns, "noun_probs", where
        )
        out.append(SegmentDistribution(clip_id, segment, verb_probs, noun_probs))
    return out


def save_distributions(path, distributions: list[SegmentDistribution]) -> None:
    rows = [
        {
            "clip_id": d.clip_id,
            "segment": int(d.segment_index),
            "verb_probs": [float(x) for x in d.verb_probs],
            "noun_probs": [float(x) for x in d.noun_probs],
        }
        for d in distributions
    ]
    atomic_write_text(path, dump_jsonl(rows))


def load_predictions(path, taxonomy: Taxonomy, horizon: int = DEFAULT_HORIZON) -> list[PredictionSet]:
    """Load candidate future sets; every candidate must be exactly `horizon` long."""
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
        candidates = []
        for idx, tokens in enumerate(raw):
            if not isinstance(tokens, list):
                raise DataError(f"{where}: candidate {idx} is not a list")
            if len(tokens) != horizon:
                raise DataError(
                    f"{where}: candidate {idx} has {len(tokens)} actions, expected {horizon}"
                )
            candidates.append(_parse_tokens(tokens, taxonomy, where))
        out.append(PredictionSet(clip_id, candidates))
    return out


def save_predictions(path, predictions: list[PredictionSet], taxonomy: Taxonomy) -> None:
    rows = [
        {
            "clip_id": p.clip_id,
            "candidates": [[format_action(a, taxonomy) for a in cand] for cand in p.candidates],
        }
        for p in predictions
    ]
    atomic_write_text(path, dump_jsonl(rows))
