from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from ltakit.cooccurrence import CooccurrenceMatrix, build_cooccurrence, load_matrix, save_matrix
from ltakit.dataset_io import ClipRecord
from ltakit.errors import DataError, IntegrityError
from ltakit.taxonomy import Taxonomy

from conftest import actions
from oracles import tally_cooccurrence


def small_taxonomy(num_verbs=4, num_nouns=5):
    return Taxonomy(
        [f"v{i}" for i in range(num_verbs)],
        [f"n{j}" for j in range(num_nouns)],
    )


def random_records(rng, num_records, num_verbs=4, num_nouns=5):
    records = []
    for i in range(num_records):
        observed = actions(*[
            (int(rng.integers(num_verbs)), int(rng.integers(num_nouns)))
            for _ in range(int(rng.integers(1, 6)))
        ])
        future = None
        if rng.random() < 0.5:
            future = actions(*[
                (int(rng.integers(num_verbs)), int(rng.integers(num_nouns)))
                for _ in range(3)
            ])
        records.append(ClipRecord(f"c{i}", observed, future))
    return records


def test_single_action_lands_in_one_cell():
    tax = small_taxonomy()
    matrix = build_cooccurrence([ClipRecord("c", actions((0, 1)))], tax, alpha=0.5)
    expected = np.zeros((4, 5))
    expected[0, 1] = 1
    assert np.array_equal(matrix.counts, expected)


def test_row_normalization_two_nouns():
    tax = small_taxonomy(num_verbs=1, num_nouns=2)
    record = ClipRecord("c", actions((0, 0), (0, 0), (0, 1), (0, 1)))
    matrix = build_cooccurrence([record], tax, alpha=0.0)
    assert np.allclose(matrix.row_stochastic[0], [0.5, 0.5])


def test_counts_match_flat_tally_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        records = random_records(rng, 10)
        matrix = build_cooccurrence(records, small_taxonomy(), alpha=0.0)
        # The oracle reads attribute-style actions, as the benchmark's check hands it.
        as_objects = lambda pairs: [SimpleNamespace(verb=v, noun=n) for v, n in pairs.tolist()]
        flat = [
            SimpleNamespace(observed=as_objects(r.observed), future=None if r.future is None else as_objects(r.future))
            for r in records
        ]
        assert np.array_equal(matrix.counts, np.array(tally_cooccurrence(flat, 4, 5)))


def test_futures_are_counted():
    tax = small_taxonomy()
    record = ClipRecord("c", actions((0, 0)), None)
    with_future = ClipRecord("c", actions((0, 0)), actions((1, 1)))
    assert build_cooccurrence([record], tax, 0.1).total() == 1
    assert build_cooccurrence([with_future], tax, 0.1).total() == 2


def test_total_equals_action_count():
    rng = np.random.default_rng(12)
    records = random_records(rng, 25)
    total = sum(len(r.observed) + (0 if r.future is None else len(r.future)) for r in records)
    assert build_cooccurrence(records, small_taxonomy(), 0.0).total() == total


def test_smoothed_rows_and_cols_are_stochastic():
    rng = np.random.default_rng(13)
    records = random_records(rng, 15)
    matrix = build_cooccurrence(records, small_taxonomy(), alpha=0.7)
    assert np.all(np.abs(matrix.row_stochastic.sum(axis=1) - 1.0) < 1e-9)
    assert np.all(np.abs(matrix.col_stochastic.sum(axis=0) - 1.0) < 1e-9)


def test_unsmoothed_zero_rows_stay_zero():
    matrix = CooccurrenceMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]), alpha=0.0)
    assert np.array_equal(matrix.row_stochastic[1], [0.0, 0.0])
    assert np.allclose(matrix.col_stochastic[:, 0], [1.0, 0.0])


def test_build_is_permutation_invariant():
    rng = np.random.default_rng(14)
    records = random_records(rng, 30)
    shuffled = list(records)
    rng.shuffle(shuffled)
    a = build_cooccurrence(records, small_taxonomy(), 0.2)
    b = build_cooccurrence(shuffled, small_taxonomy(), 0.2)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.row_stochastic, b.row_stochastic)


def test_empty_corpus_unsmoothed_rejected():
    with pytest.raises(DataError, match="alpha"):
        build_cooccurrence([], small_taxonomy(), alpha=0.0)


def test_empty_corpus_smoothed_is_uniform():
    matrix = build_cooccurrence([], small_taxonomy(), alpha=1.0)
    assert np.allclose(matrix.row_stochastic, 1 / 5)


def test_out_of_range_action_rejected():
    # A negative id must not wrap around to the last row or column.
    for pair in [(4, 0), (0, 5), (-1, 0), (0, -1)]:
        with pytest.raises(DataError, match="out of range"):
            build_cooccurrence([ClipRecord("c", actions((0, 0), pair))], small_taxonomy(), 0.1)


def test_scaling_counts_leaves_normalizations_put():
    rng = np.random.default_rng(15)
    counts = rng.uniform(0.0, 9.0, (6, 7))
    base = CooccurrenceMatrix(counts, alpha=0.0)
    for factor in (0.5, 3.0, 1000.0):
        scaled = CooccurrenceMatrix(counts * factor, alpha=0.0)
        assert np.max(np.abs(scaled.row_stochastic - base.row_stochastic)) <= 1e-12
        assert np.max(np.abs(scaled.col_stochastic - base.col_stochastic)) <= 1e-12


class TestMatrixFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        records = random_records(rng, 12)
        matrix = build_cooccurrence(records, small_taxonomy(), alpha=0.25)
        path = tmp_path / "matrix.txt"
        save_matrix(path, matrix)
        loaded = load_matrix(path, small_taxonomy())
        assert np.array_equal(loaded.counts, matrix.counts)
        assert loaded.alpha == matrix.alpha
        assert np.array_equal(loaded.row_stochastic, matrix.row_stochastic)

    def test_fractional_counts_round_trip(self, tmp_path):
        matrix = CooccurrenceMatrix(np.array([[0.1, 2.5], [1e-17, 3.0]]), alpha=1e-3)
        path = tmp_path / "matrix.txt"
        save_matrix(path, matrix)
        loaded = load_matrix(path)
        assert np.array_equal(loaded.counts, matrix.counts)
        assert loaded.alpha == matrix.alpha

    def test_tampered_count_detected(self, tmp_path):
        matrix = CooccurrenceMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "matrix.txt"
        save_matrix(path, matrix)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace("4.0", "5.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IntegrityError, match="checksum"):
            load_matrix(path)

    def test_tampered_checksum_detected(self, tmp_path):
        matrix = CooccurrenceMatrix(np.array([[1.0, 2.0]]))
        path = tmp_path / "matrix.txt"
        save_matrix(path, matrix)
        text = path.read_text()
        digest = [l for l in text.splitlines() if l.startswith("sha256 ")][0].split()[1]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        path.write_text(text.replace(digest, flipped))
        with pytest.raises(IntegrityError):
            load_matrix(path)

    def test_taxonomy_dimension_mismatch(self, tmp_path):
        matrix = CooccurrenceMatrix(np.ones((2, 3)))
        path = tmp_path / "matrix.txt"
        save_matrix(path, matrix)
        with pytest.raises(DataError, match="2x3"):
            load_matrix(path, small_taxonomy())

    def test_not_a_matrix_file(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("something else\n")
        with pytest.raises(DataError):
            load_matrix(path)
