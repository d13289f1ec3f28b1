"""Dataset records and their file formats.

All three datasets are JSON lines, one record per line:

  annotations    {"clip_id": ..., "observed": ["verb noun", ...], "future": [...]}
  distributions  {"clip_id": ..., "segment": i, "verb_probs": [...], "noun_probs": [...]}
  predictions    {"clip_id": ..., "candidates": [["verb noun" x Z] x K]}

`future` is optional (test-mode clips); when present it holds exactly the
anticipation horizon worth of actions. Probability vectors are dense, one
entry per vocabulary item. In memory every action sequence is an integer
array of (verb id, noun id) rows: `observed` and `future` load as L x 2
arrays, and a clip's predictions as one K x Z x 2 array; `taxonomy` converts
between ids and text. Annotations and predictions round-trip exactly;
distributions are renormalized on load, so a vector whose float sum is not
exactly 1 comes back rescaled by a few ulps and saves to different bytes.

`read_clips` (one line per clip) and `read_segments` (one line per segment,
here and in `recognition`) are the one place where the stage files' rules
live: how lines are keyed, checked, ordered and grouped per clip.

Writing distributions costs float formatting, so `save_distributions` pays it
once per distinct value in a clip, not once per cell: a synth row holds only
2-3 distinct values. Each clip's text is written as it is made.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from ._fileio import atomic_write_text, dump_jsonl, iter_jsonl
from .errors import DataError
from .taxonomy import Taxonomy, format_actions, parse_actions

DEFAULT_HORIZON = 20

# Vectors whose sum strays further than this from 1 are rejected; anything
# inside the band is renormalized to sum exactly 1.
SUM_TOLERANCE = 1e-4


@dataclass(eq=False)
class ClipRecord:
    """One clip: its id, the observed action sequence, optionally the future one (L x 2 id arrays)."""

    clip_id: str
    observed: np.ndarray
    future: np.ndarray | None = None

    def actions(self) -> np.ndarray:
        """Observed then future actions as one L x 2 array."""
        return self.observed if self.future is None else np.concatenate([self.observed, self.future])


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


def read_clips(path) -> Iterator[tuple[str, str, dict]]:
    """Yield (where, clip_id, record) for each line of a one-line-per-clip file;
    every clip_id must be a string, and unique."""
    seen: set[str] = set()
    for where, obj in iter_jsonl(path):
        clip_id = _require(obj, "clip_id", str, where)
        if clip_id in seen:
            raise DataError(f"{where}: duplicate clip_id {clip_id!r}")
        seen.add(clip_id)
        yield where, clip_id, obj


def read_segments(path, parse, build) -> list:
    """`build(clip_id, rows)` for each clip of a one-line-per-segment file, with
    `rows` the clip's `parse(record, where)` results in segment order.

    Clips come in first-appearance order. Each (clip_id, segment) must be
    unique, the segment a nonnegative int (not a bool, not a float), and a
    clip's segments contiguous from 0. Every line is checked before any gap
    is reported, and a clip's rows are dropped once it is built, so the file
    is held about once, not twice.
    """
    clips: dict[str, dict] = {}  # clip_id -> {segment: row}
    for where, obj in iter_jsonl(path):
        clip_id = _require(obj, "clip_id", str, where)
        segment = _require(obj, "segment", int, where)
        if isinstance(segment, bool) or segment < 0:
            raise DataError(f"{where}: segment index must be a nonnegative integer")
        rows = clips.setdefault(clip_id, {})
        if segment in rows:
            raise DataError(f"{where}: duplicate segment {segment} for clip {clip_id!r}")
        rows[segment] = parse(obj, where)
    for clip_id, rows in clips.items():
        for expected, segment in enumerate(sorted(rows)):
            if segment != expected:
                raise DataError(
                    f"clip {clip_id!r}: segment indices must be contiguous from 0, "
                    f"expected {expected} but found {segment}"
                )
    return [build(clip_id, [rows.pop(s) for s in range(len(rows))]) for clip_id, rows in clips.items()]


def load_annotations(path, taxonomy: Taxonomy, horizon: int = DEFAULT_HORIZON) -> list[ClipRecord]:
    """Load clip annotations; any `future` present must be exactly `horizon` long."""
    records = []
    for where, clip_id, obj in read_clips(path):
        observed = parse_actions(_require(obj, "observed", list, where), taxonomy, where)
        future = None
        if obj.get("future") is not None:
            tokens = _require(obj, "future", list, where)
            if len(tokens) != horizon:
                raise DataError(
                    f"{where}: clip {clip_id!r} has a future of {len(tokens)} actions, expected {horizon}"
                )
            future = parse_actions(tokens, taxonomy, where)
        records.append(ClipRecord(clip_id, observed, future))
    return records


def save_annotations(path, records: list[ClipRecord], taxonomy: Taxonomy) -> None:
    rows = []
    for record in records:
        row = {
            "clip_id": record.clip_id,
            "observed": format_actions(record.observed, taxonomy),
        }
        if record.future is not None:
            row["future"] = format_actions(record.future, taxonomy)
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
    """Load per-segment probability vectors as one record per clip (see `read_segments`),
    renormalizing sums inside the tolerance band."""

    def parse(obj: dict, where: str) -> list[np.ndarray]:  # [verb_probs, noun_probs]
        return [
            _clean_probs(_require(obj, name, list, where), size, name, where)
            for name, size in (("verb_probs", taxonomy.num_verbs), ("noun_probs", taxonomy.num_nouns))
        ]

    return read_segments(path, parse, lambda clip_id, rows: ClipDistributions(clip_id, *map(np.array, zip(*rows))))


def save_distributions(path, clips: list[ClipDistributions]) -> None:
    """Write one line per segment, byte for byte what `json.dumps` writes for its
    {clip_id, segment, verb_probs, noun_probs} record, with every probability
    cast to float64 first (an int 1 is written as 1.0). Clips are streamed.

    Per clip, one `json.dumps` formats the unique values (keyed by bit pattern,
    which keeps -0.0 apart from 0.0), and rows are joined from those texts. On
    the bench's 1,280 synth segments (97 + 300 values each) this is ~10x faster
    than formatting every cell: 0.41-0.46 -> 0.04-0.05 s. Rows whose values are
    all distinct save nothing and pay for the unique and the join, up to ~1.3x
    slower: 0.33-0.35 -> 0.35-0.45 s on 1,280 Dirichlet rows.
    """
    atomic_write_text(path, map(_distribution_lines, clips))


def _distribution_lines(clip: ClipDistributions) -> str:
    probs = np.concatenate([clip.verb_probs, clip.noun_probs], axis=1, dtype=np.float64)
    bits, inverse = np.unique(probs.view(np.uint64), return_inverse=True)
    texts = np.array(json.dumps(bits.view(np.float64).tolist())[1:-1].split(", "), dtype=object)
    cells = texts[inverse.reshape(probs.shape)]  # numpy < 2 returns the inverse flat
    num_verbs = clip.verb_probs.shape[1]
    head = '{"clip_id": ' + json.dumps(clip.clip_id) + ', "segment": '
    return "".join(
        f'{head}{i}, "verb_probs": [{", ".join(verb)}], "noun_probs": [{", ".join(noun)}]}}\n'
        for i, (verb, noun) in enumerate(zip(cells[:, :num_verbs].tolist(), cells[:, num_verbs:].tolist()))
    )


def load_predictions(path, taxonomy: Taxonomy, horizon: int = DEFAULT_HORIZON) -> list[PredictionSet]:
    """Load candidate future sets as K x Z x 2 id arrays; every candidate must be exactly `horizon` long."""
    out = []
    for where, clip_id, obj in read_clips(path):
        raw = _require(obj, "candidates", list, where)
        if not raw:
            raise DataError(f"{where}: clip {clip_id!r} has no candidates (need K >= 1)")
        for idx, tokens in enumerate(raw):
            if not isinstance(tokens, list):
                raise DataError(f"{where}: candidate {idx} is not a list")
            if len(tokens) != horizon:
                raise DataError(
                    f"{where}: candidate {idx} has {len(tokens)} actions, expected {horizon}"
                )
        steps = parse_actions(list(chain.from_iterable(raw)), taxonomy, where)
        out.append(PredictionSet(clip_id, steps.reshape(len(raw), horizon, 2)))
    return out


def save_predictions(path, predictions: list[PredictionSet], taxonomy: Taxonomy) -> None:
    rows = []
    for p in predictions:
        num_k, horizon, _ = p.candidates.shape
        try:
            texts = format_actions(p.candidates.reshape(-1, 2), taxonomy)
        except DataError as exc:
            raise DataError(f"clip {p.clip_id!r}: {exc}") from None
        candidates = [texts[i * horizon : (i + 1) * horizon] for i in range(num_k)]
        rows.append({"clip_id": p.clip_id, "candidates": candidates})
    atomic_write_text(path, dump_jsonl(rows))
