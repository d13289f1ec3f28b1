from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from ltakit.cooccurrence import CooccurrenceMatrix, _digest, build_cooccurrence, load_matrix, save_matrix
from ltakit.errors import DataError, IntegrityError
from ltakit.taxonomy import Taxonomy

from conftest import actions, annotations_table
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
        records.append((f"c{i}", observed, future))
    return records


def build(records, taxonomy, alpha):
    """The matrix of (clip_id, observed, future or None) records, through their annotations table."""
    return build_cooccurrence(annotations_table(records).actions()[0], taxonomy, alpha)


def test_single_action_lands_in_one_cell():
    tax = small_taxonomy()
    matrix = build([("c", actions((0, 1)))], tax, alpha=0.5)
    expected = np.zeros((4, 5))
    expected[0, 1] = 1
    assert np.array_equal(matrix.counts, expected)


def test_row_normalization_two_nouns():
    tax = small_taxonomy(num_verbs=1, num_nouns=2)
    record = ("c", actions((0, 0), (0, 0), (0, 1), (0, 1)))
    matrix = build([record], tax, alpha=0.0)
    assert np.allclose(matrix.row_stochastic[0], [0.5, 0.5])


def test_counts_match_flat_tally_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        records = random_records(rng, 10)
        matrix = build(records, small_taxonomy(), alpha=0.0)
        # The oracle reads attribute-style actions, as the benchmark's check hands it.
        as_objects = lambda pairs: [SimpleNamespace(verb=v, noun=n) for v, n in pairs.tolist()]
        flat = [
            SimpleNamespace(observed=as_objects(observed), future=None if future is None else as_objects(future))
            for _, observed, future in records
        ]
        assert np.array_equal(matrix.counts, np.array(tally_cooccurrence(flat, 4, 5)))


def test_futures_are_counted():
    tax = small_taxonomy()
    record = ("c", actions((0, 0)), None)
    with_future = ("c", actions((0, 0)), actions((1, 1)))
    assert build([record], tax, 0.1).total() == 1
    assert build([with_future], tax, 0.1).total() == 2


def test_total_equals_action_count():
    rng = np.random.default_rng(12)
    records = random_records(rng, 25)
    total = sum(len(observed) + (0 if future is None else len(future)) for _, observed, future in records)
    assert build(records, small_taxonomy(), 0.0).total() == total


def test_smoothed_rows_and_cols_are_stochastic():
    rng = np.random.default_rng(13)
    records = random_records(rng, 15)
    matrix = build(records, small_taxonomy(), alpha=0.7)
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
    a = build(records, small_taxonomy(), 0.2)
    b = build(shuffled, small_taxonomy(), 0.2)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.row_stochastic, b.row_stochastic)


def test_empty_corpus_unsmoothed_rejected():
    with pytest.raises(DataError, match="alpha"):
        build([], small_taxonomy(), alpha=0.0)


def test_empty_corpus_smoothed_is_uniform():
    matrix = build([], small_taxonomy(), alpha=1.0)
    assert np.allclose(matrix.row_stochastic, 1 / 5)


def test_out_of_range_action_rejected():
    # A negative id must not wrap around to the last row or column.
    for pair in [(4, 0), (0, 5), (-1, 0), (0, -1)]:
        with pytest.raises(DataError, match="out of range"):
            build([("c", actions((0, 0), pair))], small_taxonomy(), 0.1)


def test_scaling_counts_leaves_normalizations_put():
    rng = np.random.default_rng(15)
    counts = rng.uniform(0.0, 9.0, (6, 7))
    base = CooccurrenceMatrix(counts, alpha=0.0)
    for factor in (0.5, 3.0, 1000.0):
        scaled = CooccurrenceMatrix(counts * factor, alpha=0.0)
        assert np.max(np.abs(scaled.row_stochastic - base.row_stochastic)) <= 1e-12
        assert np.max(np.abs(scaled.col_stochastic - base.col_stochastic)) <= 1e-12


@pytest.mark.parametrize(
    "counts, alpha, message",
    [
        ([1.0, 2.0], 0.0, "counts must be a 2-D matrix with at least one row and column"),
        ([[[1.0]]], 0.0, "counts must be a 2-D matrix with at least one row and column"),
        ([[1.0, -1.0]], 0.0, "counts must be finite and nonnegative"),
        ([[1.0, float("nan")]], 0.0, "counts must be finite and nonnegative"),
        ([[1.0, 2.0]], -0.5, "smoothing alpha must be >= 0, got -0.5"),
        ([[1.0, 2.0]], 1e308, "smoothing alpha must keep the sums of counts + alpha finite, got 1e+308"),
        ([[1e308], [1e308]], 0.0, "smoothing alpha must keep the sums of counts + alpha finite, got 0.0"),
    ],
    ids=["1-d", "3-d", "negative", "nan", "negative-alpha", "overflowing-alpha", "overflowing-counts"],
)
def test_matrix_rejects_bad_counts_and_alpha(counts, alpha, message):
    with pytest.raises(DataError) as info:
        CooccurrenceMatrix(counts, alpha)
    assert str(info.value) == message


class TestMatrixFile:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(16)
        records = random_records(rng, 12)
        matrix = build(records, small_taxonomy(), alpha=0.25)
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

    def test_rows_are_repr_of_each_count(self, tmp_path):
        # Each distinct count is formatted once; the rows must still be every cell's repr.
        counts = np.array([[0.0, -0.0, 1.0, 0.1], [1e-17, 2.5, 0.0, 1.0], [7.0, 7.0, -0.0, 3e300]])
        # The bench's 97 x 300 shape: few distinct counts, and cells a dedupe could confuse.
        large = np.random.default_rng(3).choice([0.0, 0.0, 1.0, 2.0, 17.0], (97, 300))
        large.flat[:4] = [-0.0, 1e16, 0.1 + 0.2, 0.3]
        path = tmp_path / "matrix.txt"
        for matrix, head in ((counts, ["0.0", "-0.0"]), (large, ["-0.0", "1e+16", "0.30000000000000004", "0.3"])):
            save_matrix(path, CooccurrenceMatrix(matrix))
            rows = path.read_text().splitlines()[5:]
            assert rows == [" ".join(repr(float(x)) for x in row) for row in matrix.tolist()]
            assert rows[0].split()[: len(head)] == head
            assert np.array_equal(load_matrix(path).counts.view(np.uint64), matrix.view(np.uint64))

    def test_value_equal_rewrite_still_loads(self, tmp_path):
        # "1" for "1.0" changes the raw rows but not the counts the checksum covers.
        matrix = CooccurrenceMatrix(np.array([[1.0, 0.0], [3.0, 0.5]]))
        path = tmp_path / "matrix.txt"
        save_matrix(path, matrix)
        lines = path.read_text().splitlines()
        lines[5:] = ["1 0", "  3e0\t0.50 "]
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(load_matrix(path).counts, matrix.counts)

    def test_changed_count_exits_2(self, tmp_path, capsys):
        from ltakit.cli import run

        path, taxonomy = tmp_path / "matrix.txt", tmp_path / "taxonomy.txt"
        taxonomy.write_text("#verbs\nv0\nv1\n#nouns\nn0\nn1\n")
        (tmp_path / "d.jsonl").write_text(
            '{"clip_id": "c", "segment": 0, "verb_probs": [1.0, 0.0], "noun_probs": [0.5, 0.5]}\n'
        )
        save_matrix(path, CooccurrenceMatrix(np.array([[1.0, 0.0], [3.0, 0.5]])))
        lines = path.read_text().splitlines()
        lines[5] = "1.0 1e-300"
        path.write_text("\n".join(lines) + "\n")
        argv = ["recognize", "--distributions", str(tmp_path / "d.jsonl"), "--matrix", str(path),
                "--taxonomy", str(taxonomy), "--out", str(tmp_path / "r.jsonl")]
        assert run(argv) == 2
        assert "checksum mismatch" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

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

    @pytest.mark.parametrize(
        "verbs, nouns, rows", [(1, -1, "\n"), (0, 3, ""), (2, 0, "\n\n")], ids=["negative", "no-verbs", "no-nouns"]
    )
    def test_dimension_below_one_rejected(self, tmp_path, verbs, nouns, rows):
        path = tmp_path / "matrix.txt"
        path.write_text(f"#cooccurrence-matrix v1\nverbs {verbs}\nnouns {nouns}\nalpha 0.0\nsha256 0\n{rows}")
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: matrix must be at least 1x1, header says {verbs}x{nouns}"

    def test_header_larger_than_the_rows_rejected(self, tmp_path):
        # A header claiming ~7 PiB of counts must not be allocated before the rows are read.
        path = tmp_path / "matrix.txt"
        path.write_text(f"#cooccurrence-matrix v1\nverbs 1\nnouns {10**15}\nalpha 0.0\nsha256 0\n1.0\n")
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: row 0 has 1 entries, expected {10**15}"

    def test_not_a_matrix_file(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("something else\n")
        with pytest.raises(DataError):
            load_matrix(path)

    @pytest.mark.parametrize(
        "header, rows, message",
        [
            ("verbs 1\nnoun 2", ["1.0 2.0"], "expected 'nouns ...' header line, found 'noun 2'"),
            ("verbs 1.5\nnouns 2", ["1.0 2.0"], "malformed header"),
            ("verbs 1\nnouns two", ["1.0 2.0"], "malformed header"),
            ("verbs 2\nnouns 2", ["1.0 2.0"], "expected 2 count rows, found 1"),
            ("verbs 1\nnouns 2", ["1.0 x"], "row 0 contains a non-numeric entry"),
        ],
        ids=["wrong-key", "float-dims", "word-dims", "row-count", "non-numeric"],
    )
    def test_malformed_file_rejected(self, tmp_path, header, rows, message):
        path = tmp_path / "matrix.txt"
        path.write_text("\n".join(["#cooccurrence-matrix v1", header, "alpha 0.0", "sha256 0", *rows]) + "\n")
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: {message}"

    def test_wrong_alpha_key_rejected(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("#cooccurrence-matrix v1\nverbs 1\nnouns 1\nalfa 0.0\nsha256 0\n1.0\n")
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: expected 'alpha ...' header line, found 'alfa 0.0'"

    def test_wrong_checksum_key_rejected(self, tmp_path):
        path = tmp_path / "matrix.txt"
        path.write_text("#cooccurrence-matrix v1\nverbs 1\nnouns 1\nalpha 0.0\nmd5 0\n1.0\n")
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == f"{path}: expected 'sha256 ...' header line, found 'md5 0'"

    def test_negative_count_under_a_valid_checksum_exits_2(self, tmp_path, capsys):
        from ltakit.cli import run

        path, taxonomy = tmp_path / "matrix.txt", tmp_path / "taxonomy.txt"
        taxonomy.write_text("#verbs\nv0\n#nouns\nn0\nn1\n")
        (tmp_path / "d.jsonl").write_text(
            '{"clip_id": "c", "segment": 0, "verb_probs": [1.0], "noun_probs": [0.5, 0.5]}\n'
        )
        rows = ["1.0 -2.0"]
        path.write_text("\n".join(["#cooccurrence-matrix v1", "verbs 1", "nouns 2", "alpha 0.0",
                                   f"sha256 {_digest(0.0, (1, 2), rows)}", *rows]) + "\n")
        with pytest.raises(DataError) as info:
            load_matrix(path)
        assert str(info.value) == "counts must be finite and nonnegative"
        argv = ["recognize", "--distributions", str(tmp_path / "d.jsonl"), "--matrix", str(path),
                "--taxonomy", str(taxonomy), "--out", str(tmp_path / "r.jsonl")]
        assert run(argv) == 2
        assert capsys.readouterr().err == "ltakit: error: counts must be finite and nonnegative\n"
        assert not (tmp_path / "r.jsonl").exists()
