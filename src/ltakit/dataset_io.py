"""Dataset records and their file formats.

All three datasets are JSON lines, one record per line:

  annotations    {"clip_id": ..., "observed": ["verb noun", ...], "future": [...]}
  distributions  {"clip_id": ..., "segment": i, "verb_probs": [...], "noun_probs": [...]}
  predictions    {"clip_id": ..., "candidates": [["verb noun" x Z] x K]}

`future` is optional (test-mode clips); when present it holds exactly the
anticipation horizon worth of actions. Probability vectors are dense, one
entry per vocabulary item. In memory every action is a (verb id, noun id)
row, and each file loads as one corpus table of clip ids, row starts and flat
arrays, clip i holding rows starts[i]:starts[i + 1]: observed actions in
`Annotations` (futures are one F x Z x 2 array of the clips that have one),
segments in `Distributions`, candidates in `Predictions`. `taxonomy` converts
between ids and text. Annotations and predictions round-trip exactly;
distributions are renormalized on load, so a vector whose float sum is not
exactly 1 comes back rescaled by a few ulps and saves to different bytes.

`StageFile` reads every stage file (per clip, or per segment here and in
`recognition`) in one pass, and is the one place where their rules live. Lines
decode with `orjson`, which rejects some lines `json` reads (NaN, 1e400, a
lone surrogate escape) and reads an integer past 64 bits as a float, so a
loader whose read raises a DataError reads the file again with `json`: files
load, and fail with the same text, as with `json` alone. Each line is reduced
at once to numbers appended to flat columns for the whole file; an action text
becomes a code, each distinct text kept once and resolved by one
`parse_actions` call. Checks that need no Python per value run on whole arrays
after the pass (one lexsort of the (clip, segment) keys, the probability
rules), yet the error raised is the first in the file. The columns become the
table's arrays with no object per clip.

Writing distributions costs float formatting, so `save_distributions` pays it
once per distinct value in a clip, not once per cell: a synth row holds only
2-3 distinct values. Each clip's text is written as it is made.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial, wraps
from itertools import chain, islice
from typing import Iterator

import numpy as np
import orjson

from ._fileio import atomic_write_text, float_texts, open_text
from .errors import DataError
from .taxonomy import Taxonomy, format_actions, parse_actions

DEFAULT_HORIZON = 20

# Vectors whose sum strays further than this from 1 are rejected; anything
# inside the band is renormalized to sum exactly 1.
SUM_TOLERANCE = 1e-4


@dataclass(eq=False)
class Annotations:
    """Annotated clips: clip `clip_ids[i]` observed the S x 2 rows starts[i]:starts[i + 1] of
    `observed` (possibly none). `future` is F x Z x 2, one Z-action future per clip that has one,
    in clip order; `has_future` is the length-C bool mask of those clips."""

    clip_ids: list[str]
    starts: list[int]
    observed: np.ndarray
    future: np.ndarray
    has_future: np.ndarray

    def actions(self) -> tuple[np.ndarray, list[int]]:
        """Each clip's observed then future actions, end to end as one L x 2 array, and each clip's
        row starts in it."""
        clips = np.concatenate([np.repeat(np.arange(len(self.clip_ids)), np.diff(self.starts)),
                                np.repeat(np.flatnonzero(self.has_future), self.future.shape[1])])
        pairs = np.concatenate([self.observed, self.future.reshape(-1, 2)])[np.argsort(clips, kind="stable")]
        return pairs, [0, *np.cumsum(np.bincount(clips, minlength=len(self.clip_ids))).tolist()]


@dataclass(eq=False)
class Distributions:
    """Per-segment probabilities of a corpus: S x |V| `verb_probs` and S x |N| `noun_probs`, clip
    `clip_ids[i]` holding rows starts[i]:starts[i + 1] in segment order (C clips, C + 1 starts)."""

    clip_ids: list[str]
    starts: list[int]
    verb_probs: np.ndarray
    noun_probs: np.ndarray


@dataclass(eq=False)
class Predictions:
    """Candidate futures: clip `clip_ids[i]` holds candidates starts[i]:starts[i + 1] of the N x Z x 2
    array `candidates`, [n, z] = (verb id, noun id); clips may differ in K."""

    clip_ids: list[str]
    starts: list[int]
    candidates: np.ndarray


def check_starts(clip_ids: list[str], starts: list[int], rows: int) -> None:
    """Each clip's rows starts[i]:starts[i + 1] must be nonempty, and all of them cover the `rows` rows."""
    if len(starts) != len(clip_ids) + 1 or starts[0] != 0 or starts[-1] != rows:
        raise DataError(f"clips {clip_ids[:1]}..{clip_ids[-1:]} hold rows {starts[:1]}..{starts[-1:]} of {rows} "
                        f"(need {len(clip_ids) + 1} row starts from 0 to {rows})")
    empty = np.flatnonzero(np.diff(starts) < 1)
    if len(empty):
        raise DataError(f"clip {clip_ids[empty[0]]!r} has no rows (need S >= 1)")


def json_fallback(load):
    """`load` decoding lines with `orjson.loads`, then with `json.loads` if that read raises a DataError."""

    @wraps(load)
    def loader(*args, **kwargs):
        try:
            return load(*args, decode=orjson.loads, **kwargs)
        except DataError:
            return load(*args, decode=json.loads, **kwargs)

    return loader


def _require(obj: dict, key: str, types, where: str):
    if key not in obj:
        raise DataError(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, types):
        raise DataError(f"{where}: field {key!r} has the wrong type")
    return value


class _TextCodes(dict):
    """Action text -> code by first appearance; `rows[code]` is the row of `lines` a text first appears on."""

    def __init__(self, lines: array):
        super().__init__()
        self.lines, self.texts, self.rows = lines, [], array("q")

    def new(self, text) -> int:  # also takes a JSON list or object, kept apart for its error
        self.texts.append(text)
        self.rows.append(len(self.lines) - 1)
        return len(self.texts) - 1

    def __missing__(self, text) -> int:
        self[text] = code = self.new(text)
        return code


class StageFile:
    """A JSONL stage file read into flat columns, row r its r-th record. A loader iterates `rows()`
    inside `checking()`, appends its own columns and codes its action texts with `code()`; after
    the block `table[code]` is a text's (verb id, noun id) row, and `order()` sorts the segments.
    `decode` reads one line's JSON value, raising a ValueError or RecursionError if it cannot."""

    def __init__(self, path, taxonomy: Taxonomy, decode, per_segment: bool = False):
        self.path, self.taxonomy, self.decode, self.per_segment = path, taxonomy, decode, per_segment
        self.clip_ids: dict[str, int] = {}  # clip_id -> code, in first-appearance order
        self.lines, self.clip_codes, self.segments = array("q"), array("q"), []  # per row; segments of any size
        self.codes = _TextCodes(self.lines)

    def where(self, row: int) -> str:
        return f"{self.path}:{self.lines[row]}"

    def rows(self) -> Iterator[tuple[str, dict]]:
        """("path:line", record) per non-blank line. Every clip_id is a string and every segment (0
        in a clip file) a nonnegative int, not a bool or a float; `checking()` finds a repeated
        (clip_id, segment) and `order()` a gap."""
        with open_text(self.path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line, where = raw.strip(), f"{self.path}:{lineno}"
                if not line:
                    continue
                try:
                    obj = self.decode(line)
                except (ValueError, RecursionError) as exc:  # also an int past the digit limit, or deep nesting
                    raise DataError(f"{where}: invalid JSON ({exc})") from None
                if not isinstance(obj, dict):
                    raise DataError(f"{where}: expected a JSON object per line")
                clip_id = _require(obj, "clip_id", str, where)
                segment = _require(obj, "segment", int, where) if self.per_segment else 0
                if isinstance(segment, bool) or segment < 0:
                    raise DataError(f"{where}: segment index must be a nonnegative integer")
                self.clip_codes.append(self.clip_ids.setdefault(clip_id, len(self.clip_ids)))
                self.segments.append(segment)
                self.lines.append(lineno)
                yield where, obj

    def code(self, tokens: list) -> list[int]:
        """Each token's text code; a text first seen here is kept with the current row."""
        try:
            return list(map(self.codes.__getitem__, tokens))
        except TypeError:  # a JSON list or object
            return [self.codes.new(t) if isinstance(t, (list, dict)) else self.codes[t] for t in tokens]

    @contextmanager
    def checking(self, *checks):
        """Read the file in this block, then run the deferred checks. Each returns (row, DataError)
        for its first bad row, or None; within a row, a repeated key comes first, then `checks` in
        order, then action texts. An error raised in the block gives way to a deferred one from an
        earlier row or earlier in its own, so the error raised is the first in the file."""
        checks = (self._repeated_key, *checks)
        try:
            yield
        except DataError:
            self._raise_first(checks)
            raise
        self._raise_first(checks)

    def _raise_first(self, checks) -> None:
        hits = [hit for hit in (check() for check in checks) if hit]
        row, error = min(hits, key=lambda hit: hit[0]) if hits else (len(self.lines), None)
        count = bisect_left(self.codes.rows, row)  # the texts first seen before that row
        wheres = [self.where(r) for r in self.codes.rows[:count]]
        self.table = parse_actions(self.codes.texts[:count], self.taxonomy, wheres)
        if error:
            raise error from None

    def _repeated_key(self):
        try:
            segments = np.array(self.segments, np.int64)
        except OverflowError:  # past int64: a gap for certain, kept exact for its message
            segments = np.array(self.segments, object)
        clips = np.array(self.clip_codes, np.int64)
        order = np.lexsort((segments, clips))
        self._sorted = order, clips[order], segments[order]  # for `order()`, once every row is read
        order, clips, segments = self._sorted
        repeats = order[1:][(clips[1:] == clips[:-1]) & (segments[1:] == segments[:-1])]
        if len(repeats):
            row = int(repeats.min())
            clip_id = list(self.clip_ids)[self.clip_codes[row]]
            rule = f"segment {self.segments[row]} for clip {clip_id!r}" if self.per_segment else f"clip_id {clip_id!r}"
            return row, DataError(f"{self.where(row)}: duplicate {rule}")

    def order(self) -> tuple[np.ndarray | slice, list[int]]:
        """The rows in (clip, segment) order (a plain slice, so no copy, if the file is in it) and
        each clip's span starts[k]:starts[k + 1] in it. Segments must be contiguous from 0."""
        order, clips, segments = self._sorted
        starts = np.searchsorted(clips, np.arange(len(self.clip_ids) + 1))
        positions = np.arange(len(order)) - starts[clips]
        gaps = np.flatnonzero(segments != positions)
        if len(gaps):
            first = gaps[0]
            raise DataError(
                f"clip {list(self.clip_ids)[clips[first]]!r}: segment indices must be contiguous from 0, "
                f"expected {positions[first]} but found {segments[first]}"
            )
        return slice(None) if (order == np.arange(len(order))).all() else order, starts.tolist()


@json_fallback
def load_annotations(path, taxonomy: Taxonomy, horizon: int = DEFAULT_HORIZON, *, decode) -> Annotations:
    """Load clip annotations as one table; any `future` present must be exactly `horizon` long."""
    file, observed, future, sizes, has_future = StageFile(path, taxonomy, decode), array("q"), array("q"), [], []
    with file.checking():
        for where, obj in file.rows():
            actions = _require(obj, "observed", list, where)
            observed.fromlist(file.code(actions))
            sizes.append(len(actions))
            actions = None if obj.get("future") is None else _require(obj, "future", list, where)
            if actions is not None and len(actions) != horizon:
                raise DataError(
                    f"{where}: clip {obj['clip_id']!r} has a future of {len(actions)} actions, expected {horizon}"
                )
            future.fromlist(file.code(actions or []))
            has_future.append(actions is not None)
    future = file.table[np.frombuffer(future, np.int64)].reshape(sum(has_future), max(horizon, 0), 2)
    return Annotations(list(file.clip_ids), [0, *np.cumsum(sizes, dtype=np.intp).tolist()],
                       file.table[np.frombuffer(observed, np.int64)], future, np.array(has_future, bool))


def _json_list(texts: Iterator[str], size: int) -> str:
    """The next `size` JSON texts as one JSON list, as `json.dumps` writes it."""
    return "[" + ", ".join(islice(texts, size)) + "]"


def save_annotations(path, annotations: Annotations, taxonomy: Taxonomy) -> None:
    """Write one line per clip, byte for byte what `json.dumps` writes for its {clip_id, observed,
    future} record (no future if it has none), joined from one `format_actions` call over all actions."""
    clip_ids, starts, rows = annotations.clip_ids, annotations.starts, len(annotations.observed)
    if len(starts) != len(clip_ids) + 1 or starts[0] != 0 or starts[-1] != rows or (np.diff(starts) < 0).any():
        raise DataError(f"clips {clip_ids[:1]}..{clip_ids[-1:]} hold observed rows {starts[:1]}..{starts[-1:]} of "
                        f"{rows} (need {len(clip_ids) + 1} nondecreasing row starts from 0 to {rows})")
    horizon, sizes, futures = annotations.future.shape[1], np.diff(starts).tolist(), annotations.has_future
    if len(futures) != len(clip_ids) or len(annotations.future) != futures.sum():
        raise DataError(f"{len(clip_ids)} clips with {len(futures)} has_future flags, {int(futures.sum())} set, "
                        f"hold {len(annotations.future)} futures (need a flag per clip, a future per set flag)")
    texts = iter(format_actions(annotations.actions()[0], taxonomy, as_json=True))
    atomic_write_text(path, ['{"clip_id": ' + json.dumps(clip_id) + ', "observed": ' + _json_list(texts, size)
                             + (', "future": ' + _json_list(texts, horizon) if future else "") + "}\n"
                             for clip_id, size, future in zip(clip_ids, sizes, futures.tolist())])


def _probs(column: array, size: int) -> np.ndarray:
    """The column's complete rows (a line can fail between its two vectors) as a rows x size view."""
    rows = len(column) // size
    return np.frombuffer(column, np.float64, rows * size).reshape(rows, size)


def _probs_error(file: StageFile, name: str, size: int, column: array):
    """(row, error) for the first row that is not finite, has a negative entry, or sums outside the band."""
    probs = _probs(column, size)
    with np.errstate(invalid="ignore", over="ignore"):
        totals = probs.sum(axis=1)
        rules = [~np.isfinite(probs).all(axis=1), (probs < 0).any(axis=1), np.abs(totals - 1.0) > SUM_TOLERANCE]
    bad = np.flatnonzero(np.logical_or.reduce(rules))
    if len(bad):
        row = int(bad[0])
        texts = ["contains non-finite entries", "contains a negative probability",
                 f"sums to {float(totals[row])!r}, outside 1 +/- {SUM_TOLERANCE}"]
        return row, DataError(f"{file.where(row)}: {name} {next(t for t, r in zip(texts, rules) if r[row])}")


@json_fallback
def load_distributions(path, taxonomy: Taxonomy, *, decode) -> Distributions:
    """Load per-segment probability vectors as one table (see `StageFile`), renormalizing sums
    inside the tolerance band."""
    file = StageFile(path, taxonomy, decode, per_segment=True)
    fields = [("verb_probs", taxonomy.num_verbs, array("d")), ("noun_probs", taxonomy.num_nouns, array("d"))]
    with file.checking(*(partial(_probs_error, file, *field) for field in fields)):
        for where, obj in file.rows():
            for name, size, column in fields:
                values = _require(obj, name, list, where)
                if not set(map(type, values)) <= {float, int}:  # JSON numbers only: no str, bool, null or list
                    raise DataError(f"{where}: {name} is not a vector of numbers")
                if len(values) != size:
                    raise DataError(f"{where}: {name} has length {len(values)}, expected {size}")
                try:
                    column.fromlist(values)  # all or nothing: a failed call leaves the column as it was
                except OverflowError:
                    raise DataError(f"{where}: {name} contains a number too large for a float") from None
    order, starts = file.order()
    verb, noun = (_probs(column, size)[order] for _, size, column in fields)
    for probs in (verb, noun):
        probs /= probs.sum(axis=1, keepdims=True)  # each row by its own sum, as checked
    return Distributions(list(file.clip_ids), starts, verb, noun)


def save_distributions(path, table: Distributions) -> None:
    """Write one line per segment, byte for byte what `json.dumps` writes for its
    {clip_id, segment, verb_probs, noun_probs} record, with every probability
    cast to float64 first (an int 1 is written as 1.0). Clips are streamed.

    Per clip, `_fileio.float_texts` formats the unique values (keyed by bit
    pattern, which keeps -0.0 apart from 0.0), and rows are joined from those
    texts. On the bench's 1,280 synth segments (97 + 300 values each) this is
    ~10x faster than formatting every cell: 0.41-0.46 -> 0.04-0.05 s. Rows
    whose values are all distinct save nothing and pay for the unique and the
    join, up to ~1.3x slower: 0.33-0.35 -> 0.35-0.45 s on 1,280 Dirichlet rows.
    """
    check_starts(table.clip_ids, table.starts, len(table.verb_probs))
    num_verbs = table.verb_probs.shape[1]

    def lines(clip_id: str, a: int, b: int) -> str:
        cells = float_texts(np.concatenate([table.verb_probs[a:b], table.noun_probs[a:b]], axis=1))
        head = '{"clip_id": ' + json.dumps(clip_id) + ', "segment": '
        return "".join(
            f'{head}{i}, "verb_probs": [{", ".join(verb)}], "noun_probs": [{", ".join(noun)}]}}\n'
            for i, (verb, noun) in enumerate(zip(cells[:, :num_verbs].tolist(), cells[:, num_verbs:].tolist()))
        )

    atomic_write_text(path, map(lines, table.clip_ids, table.starts, table.starts[1:]))


@json_fallback
def load_predictions(path, taxonomy: Taxonomy, horizon: int = DEFAULT_HORIZON, *, decode) -> Predictions:
    """Load candidate futures as one table; every candidate must be exactly `horizon` long."""
    file, codes, num_candidates = StageFile(path, taxonomy, decode), array("q"), [0]
    with file.checking():
        for where, obj in file.rows():
            raw = _require(obj, "candidates", list, where)
            if not raw:
                raise DataError(f"{where}: clip {obj['clip_id']!r} has no candidates (need K >= 1)")
            for idx, tokens in enumerate(raw):
                if not isinstance(tokens, list):
                    raise DataError(f"{where}: candidate {idx} is not a list")
                if len(tokens) != horizon:
                    raise DataError(f"{where}: candidate {idx} has {len(tokens)} actions, expected {horizon}")
            codes.fromlist(file.code(list(chain.from_iterable(raw))))
            num_candidates.append(len(raw))
    starts = np.cumsum(num_candidates).tolist()
    return Predictions(list(file.clip_ids), starts,
                       file.table[np.frombuffer(codes, np.int64)].reshape(starts[-1], max(horizon, 0), 2))


def save_predictions(path, predictions: Predictions, taxonomy: Taxonomy) -> None:
    """Write one line per clip, byte for byte what `json.dumps` writes for its {clip_id, candidates}
    record, joined from one `format_actions` call over all clips' actions; clips may differ in K."""
    starts, candidates = predictions.starts, predictions.candidates
    check_starts(predictions.clip_ids, starts, len(candidates))
    try:
        texts = iter(format_actions(candidates.reshape(-1, 2), taxonomy, as_json=True))
    except DataError as exc:  # name the clip of the first action at fault
        outside = ((candidates < 0) | (candidates >= (taxonomy.num_verbs, taxonomy.num_nouns))).any(axis=(1, 2))
        clip_id = predictions.clip_ids[bisect_right(starts, outside.argmax()) - 1]
        raise DataError(f"clip {clip_id!r}: {exc}") from None
    horizon = candidates.shape[1]
    atomic_write_text(path, ['{"clip_id": ' + json.dumps(clip_id) + ', "candidates": ['
                             + ", ".join(_json_list(texts, horizon) for _ in range(size)) + "]}\n"
                             for clip_id, size in zip(predictions.clip_ids, np.diff(starts).tolist())])
