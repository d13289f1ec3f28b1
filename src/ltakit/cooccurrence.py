"""Verb-noun co-occurrence counts and their stochastic normalizations."""

from __future__ import annotations

import hashlib

import numpy as np

from ._fileio import atomic_write_text, open_text
from .errors import DataError, IntegrityError
from .dataset_io import ClipRecord
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


def build_cooccurrence(
    annotations: list[ClipRecord], taxonomy: Taxonomy, alpha: float = 0.0
) -> CooccurrenceMatrix:
    """Tally every action of every record (observed and future alike).

    The count matrix is permutation-invariant over record order. An empty
    corpus with alpha == 0 has no normalizable mass and is rejected.
    """
    counts = np.zeros((taxonomy.num_verbs, taxonomy.num_nouns))
    pairs = np.concatenate([np.empty((0, 2), np.intp)] + [record.actions() for record in annotations])
    taxonomy.check_ids(pairs)
    np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
    if len(pairs) == 0 and alpha == 0:
        raise DataError("no actions to count and alpha == 0: nothing to normalize")
    return CooccurrenceMatrix(counts, alpha)


def _rows_text(counts: np.ndarray) -> list[str]:
    # repr round-trips float64 exactly, so save -> load -> save is a fixed point.
    return [" ".join(repr(float(x)) for x in row) for row in counts]


def _digest(alpha: float, counts: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(f"{counts.shape[0]}x{counts.shape[1]};alpha={float(alpha)!r}".encode())
    for line in _rows_text(counts):
        h.update(b"\n")
        h.update(line.encode())
    return h.hexdigest()


def save_matrix(path, matrix: CooccurrenceMatrix) -> None:
    """Write the textual matrix file: header (dims, alpha, checksum) + dense count rows."""
    num_verbs, num_nouns = matrix.shape
    lines = [
        _HEADER,
        f"verbs {num_verbs}",
        f"nouns {num_nouns}",
        f"alpha {matrix.alpha!r}",
        f"sha256 {_digest(matrix.alpha, matrix.counts)}",
        *_rows_text(matrix.counts),
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _header_value(line: str, key: str, path) -> str:
    parts = line.split(" ", 1)
    if len(parts) != 2 or parts[0] != key:
        raise DataError(f"{path}: expected '{key} ...' header line, found {line!r}")
    return parts[1]


def load_matrix(path, taxonomy: Taxonomy | None = None) -> CooccurrenceMatrix:
    """Read a matrix file back, verifying its checksum and optional taxonomy dims.

    Stochastic forms are recomputed from the stored counts, never trusted
    from disk.
    """
    with open_text(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) < 5 or lines[0] != _HEADER:
        raise DataError(f"{path}: not a co-occurrence matrix file")
    try:
        num_verbs = int(_header_value(lines[1], "verbs", path))
        num_nouns = int(_header_value(lines[2], "nouns", path))
        alpha = float(_header_value(lines[3], "alpha", path))
    except ValueError:
        raise DataError(f"{path}: malformed header") from None
    stored = _header_value(lines[4], "sha256", path)
    rows = lines[5:]
    if len(rows) != num_verbs:
        raise DataError(f"{path}: expected {num_verbs} count rows, found {len(rows)}")
    counts = np.zeros((num_verbs, num_nouns))
    for i, row in enumerate(rows):
        values = row.split()
        if len(values) != num_nouns:
            raise DataError(f"{path}: row {i} has {len(values)} entries, expected {num_nouns}")
        try:
            counts[i] = [float(v) for v in values]
        except ValueError:
            raise DataError(f"{path}: row {i} contains a non-numeric entry") from None
    if _digest(alpha, counts) != stored:
        raise IntegrityError(f"{path}: checksum mismatch, file contents were altered")
    if taxonomy is not None and (num_verbs, num_nouns) != (taxonomy.num_verbs, taxonomy.num_nouns):
        raise DataError(
            f"{path}: matrix is {num_verbs}x{num_nouns} but the taxonomy is "
            f"{taxonomy.num_verbs}x{taxonomy.num_nouns}"
        )
    return CooccurrenceMatrix(counts, alpha)
