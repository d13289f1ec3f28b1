"""Verb-noun co-occurrence counts and their stochastic normalizations.

The matrix file's sha256 covers the count rows as `save_matrix` formats them,
so `load_matrix` checks it on the raw rows and re-formats only on a mismatch.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._fileio import atomic_write_text, float_texts, open_text
from .errors import DataError, IntegrityError
from .taxonomy import Taxonomy

_HEADER = "#cooccurrence-matrix v1"


class CooccurrenceMatrix:
    """Raw |V| x |N| counts plus row- and column-stochastic forms.

    row_stochastic[v] is the noun distribution conditioned on verb v, and
    col_stochastic[:, n] the verb distribution conditioned on noun n, both
    with additive smoothing alpha:

        row_stochastic[v][n] = (counts[v][n] + alpha) / sum_n'(counts[v][n'] + alpha)

    With alpha > 0 every row and column is a proper distribution; with
    alpha == 0 all-zero rows/columns stay all-zero.
    """

    def __init__(self, counts, alpha: float = 0.0):
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] < 1:
            raise DataError("counts must be a 2-D matrix with at least one row and column")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0):
            raise DataError("counts must be finite and nonnegative")
        if not np.isfinite(alpha) or alpha < 0:
            raise DataError(f"smoothing alpha must be >= 0, got {alpha!r}")
        self.counts = counts
        self.alpha = float(alpha)
        smoothed = counts + self.alpha
        row_sums = smoothed.sum(axis=1, keepdims=True)
        col_sums = smoothed.sum(axis=0, keepdims=True)
        self.row_stochastic = np.divide(
            smoothed, row_sums, out=np.zeros_like(smoothed), where=row_sums > 0
        )
        self.col_stochastic = np.divide(
            smoothed, col_sums, out=np.zeros_like(smoothed), where=col_sums > 0
        )

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def total(self) -> float:
        return float(self.counts.sum())


def build_cooccurrence(pairs: np.ndarray, taxonomy: Taxonomy, alpha: float = 0.0) -> CooccurrenceMatrix:
    """Tally every (verb id, noun id) row of `pairs`, such as `Annotations.actions()`'s.

    The count matrix is permutation-invariant over row order, so it needs no clip starts. An
    empty corpus with alpha == 0 has no normalizable mass and is rejected.
    """
    counts = np.zeros((taxonomy.num_verbs, taxonomy.num_nouns))
    taxonomy.check_ids(pairs)
    np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
    if len(pairs) == 0 and alpha == 0:
        raise DataError("no actions to count and alpha == 0: nothing to normalize")
    return CooccurrenceMatrix(counts, alpha)


def _rows_text(counts: np.ndarray) -> list[str]:
    """Each row as its counts' texts (`_fileio.float_texts`) joined by spaces; they round-trip
    float64, so save -> load -> save is a fixed point."""
    return [" ".join(row) for row in float_texts(counts).tolist()]


def _digest(alpha: float, shape: tuple[int, int], rows: list[str]) -> str:
    """sha256 of the dims, alpha and the count rows as `_rows_text` formats them."""
    h = hashlib.sha256()
    h.update(f"{shape[0]}x{shape[1]};alpha={float(alpha)!r}".encode())
    for line in rows:
        h.update(b"\n")
        h.update(line.encode())
    return h.hexdigest()


def save_matrix(path, matrix: CooccurrenceMatrix) -> None:
    """Write the textual matrix file: header (dims, alpha, checksum) + dense count rows."""
    num_verbs, num_nouns = matrix.shape
    rows = _rows_text(matrix.counts)  # formatted once, for the digest and the file
    lines = [
        _HEADER,
        f"verbs {num_verbs}",
        f"nouns {num_nouns}",
        f"alpha {matrix.alpha!r}",
        f"sha256 {_digest(matrix.alpha, matrix.shape, rows)}",
        *rows,
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _header_value(line: str, key: str, path) -> str:
    parts = line.split(" ", 1)
    if len(parts) != 2 or parts[0] != key:
        raise DataError(f"{path}: expected '{key} ...' header line, found {line!r}")
    return parts[1]


def load_matrix(path, taxonomy: Taxonomy | None = None) -> CooccurrenceMatrix:
    """Read a matrix file back, verifying its checksum and optional taxonomy dims.

    The checksum is tried on the raw count rows, then on the parsed counts
    re-formatted, so a hand edit that keeps every value ("1" for "1.0") still
    loads and one that changes a value raises IntegrityError. Stochastic
    forms are recomputed from the stored counts, never trusted from disk.
    """
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 5 or lines[0] != _HEADER:
        raise DataError(f"{path}: not a co-occurrence matrix file")
    verbs, nouns, alpha = map(_header_value, lines[1:4], ["verbs", "nouns", "alpha"], [path] * 3)
    try:  # the conversions alone: a wrong key is a DataError, which is a ValueError too
        num_verbs, num_nouns, alpha = int(verbs), int(nouns), float(alpha)
    except ValueError:
        raise DataError(f"{path}: malformed header") from None
    if min(num_verbs, num_nouns) < 1:
        raise DataError(f"{path}: matrix must be at least 1x1, header says {num_verbs}x{num_nouns}")
    stored = _header_value(lines[4], "sha256", path)
    rows = lines[5:]
    if len(rows) != num_verbs:
        raise DataError(f"{path}: expected {num_verbs} count rows, found {len(rows)}")
    counts = []  # allocated from the rows read, never from the header's claim
    for i, row in enumerate(rows):
        values = row.split()
        if len(values) != num_nouns:
            raise DataError(f"{path}: row {i} has {len(values)} entries, expected {num_nouns}")
        try:
            counts.append(list(map(float, values)))
        except ValueError:
            raise DataError(f"{path}: row {i} contains a non-numeric entry") from None
    counts = np.array(counts)
    if _digest(alpha, counts.shape, rows) != stored and _digest(alpha, counts.shape, _rows_text(counts)) != stored:
        raise IntegrityError(f"{path}: checksum mismatch, file contents were altered")
    if taxonomy is not None and (num_verbs, num_nouns) != (taxonomy.num_verbs, taxonomy.num_nouns):
        raise DataError(
            f"{path}: matrix is {num_verbs}x{num_nouns} but the taxonomy is "
            f"{taxonomy.num_verbs}x{taxonomy.num_nouns}"
        )
    return CooccurrenceMatrix(counts, alpha)
