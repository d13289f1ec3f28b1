from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltakit import recognition
from ltakit.cooccurrence import CooccurrenceMatrix
from ltakit.dataset_io import Distributions, load_distributions
from ltakit.errors import DataError
from ltakit.recognition import (
    BLOCK_SEGMENTS,
    BRANCH_NOUN,
    BRANCH_VERB,
    Recognition,
    load_recognition,
    naive_clip,
    recognize_clip,
    save_recognition,
)
from ltakit.taxonomy import Taxonomy

from conftest import clips_of, random_distribution, table
from oracles import recognition_jsonl, rerank_reference


def segments(result):
    """Per segment: (chosen, naive, candidates, fallback), with pairs as (verb, noun) tuples
    and each candidate as ((verb, noun), score, branch)."""
    candidates = [
        (tuple(pair), score, BRANCH_VERB if verb_anchored else BRANCH_NOUN)
        for pair, score, verb_anchored in zip(
            result.candidates.tolist(), result.scores.tolist(), result.verb_anchored.tolist()
        )
    ]
    bounds = [0, *np.cumsum(result.counts).tolist()]
    return [
        (tuple(chosen), tuple(naive), candidates[bounds[i] : bounds[i + 1]], fallback)
        for i, (chosen, naive, fallback) in enumerate(
            zip(result.chosen.tolist(), result.naive.tolist(), result.fallback.tolist())
        )
    ]


def only_segment(result):
    """(chosen, naive, candidates, fallback) of a one-segment clip's recognition."""
    [segment] = segments(result)
    return segment


def one_clip(result, i):
    """Clip i of a recognition table as a one-clip table of views."""
    a, b = result.starts[i : i + 2]
    c, d = np.concatenate([[0], np.cumsum(result.counts)])[[a, b]]
    return Recognition(
        [result.clip_ids[i]], [0, b - a], result.chosen[a:b], result.naive[a:b], result.candidates[c:d],
        result.scores[c:d], result.verb_anchored[c:d], result.counts[a:b], result.fallback[a:b],
    )


def assert_same_recognition(got, want):
    assert got.clip_ids == want.clip_ids and got.starts == want.starts
    for name in ("chosen", "naive", "candidates", "scores", "verb_anchored", "counts", "fallback"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


def make_clip(verb_probs, noun_probs, clip_id="clip"):
    """A one-clip table from per-segment vectors; a single vector makes a one-segment clip."""
    verb_probs, noun_probs = (np.atleast_2d(np.asarray(probs, float)) for probs in (verb_probs, noun_probs))
    return table([(clip_id, verb_probs, noun_probs)])


class TestRerank:
    def test_one_hot_everything_agrees(self):
        counts = np.zeros((3, 4))
        counts[1, 2] = 5.0
        matrix = CooccurrenceMatrix(counts)
        dist = make_clip([0.1, 0.8, 0.1], [0.1, 0.1, 0.7, 0.1])
        chosen, naive, candidates, fallback = only_segment(recognize_clip(dist, matrix, k=2))
        assert chosen == (1, 2)
        assert naive == (1, 2)
        assert not fallback
        assert candidates[0][1] == pytest.approx(0.8 * 0.7)

    def test_cooccurrence_overrides_argmax_noun(self):
        # Noun 0 is slightly more probable, but verb 0 never co-occurs with it.
        counts = np.array([[0.0, 10.0], [5.0, 5.0]])
        matrix = CooccurrenceMatrix(counts)
        dist = make_clip([0.9, 0.1], [0.55, 0.45])
        chosen, naive, _, _ = only_segment(recognize_clip(dist, matrix, k=2))
        assert naive == (0, 0)
        assert chosen == (0, 1)

    def test_uniform_matrix_keeps_naive_choice(self):
        matrix = CooccurrenceMatrix(np.ones((4, 6)))
        rng = np.random.default_rng(22)
        for _ in range(50):
            dist = make_clip(random_distribution(rng, 4), random_distribution(rng, 6))
            chosen, naive, _, fallback = only_segment(recognize_clip(dist, matrix, k=3))
            assert chosen == naive
            assert not fallback

    def test_zero_matrix_falls_back_to_naive(self):
        matrix = CooccurrenceMatrix(np.zeros((3, 3)))
        dist = make_clip([0.2, 0.5, 0.3], [0.6, 0.3, 0.1])
        chosen, naive, candidates, fallback = only_segment(recognize_clip(dist, matrix, k=2))
        assert fallback
        assert chosen == naive == (1, 0)
        assert all(score == 0.0 for _, score, _ in candidates)

    def test_candidate_count_and_order(self):
        rng = np.random.default_rng(23)
        matrix = CooccurrenceMatrix(rng.uniform(0.1, 2.0, (5, 7)), alpha=0.0)
        for _ in range(50):
            dist = make_clip(random_distribution(rng, 5), random_distribution(rng, 7))
            k = int(rng.integers(1, 6))
            chosen, _, candidates, _ = only_segment(recognize_clip(dist, matrix, k))
            assert 1 <= len(candidates) <= 2 * k
            scores = [score for _, score, _ in candidates]
            assert scores == sorted(scores, reverse=True)
            assert len({action for action, _, _ in candidates}) == len(candidates)
            assert chosen == candidates[0][0]

    def test_matches_reference_exactly(self):
        # Clips of 1-4 segments; each segment is checked against the oracle on its
        # own, so no row of a clip can leak into another.
        rng = np.random.default_rng(24)
        fallbacks = 0
        for _ in range(300):
            num_verbs = int(rng.integers(2, 9))
            num_nouns = int(rng.integers(2, 9))
            counts = rng.choice([0.0, 1.0, 2.0, 5.0], size=(num_verbs, num_nouns))
            alpha = float(rng.choice([0.0, 0.5]))
            if alpha == 0.0:
                # Verb 0 and noun 0 co-occur with nothing, so a segment certain of
                # both scores zero on every candidate and falls back to naive.
                counts[0, :] = counts[:, 0] = 0.0
            matrix = CooccurrenceMatrix(counts, alpha)
            rows = []
            for s in range(int(rng.integers(1, 5))):
                if alpha == 0.0 and rng.random() < 0.3:
                    rows.append((np.eye(num_verbs)[0], np.eye(num_nouns)[0]))
                else:
                    rows.append((random_distribution(rng, num_verbs), random_distribution(rng, num_nouns)))
            k = int(rng.integers(1, min(num_verbs, num_nouns) + 1))
            result = recognize_clip(make_clip(*zip(*rows)), matrix, k)
            assert result.clip_ids == ["clip"] and result.starts == [0, len(rows)]
            fields = result.chosen, result.naive, result.counts, result.fallback
            assert [len(f) for f in fields] == [len(rows)] * 4
            assert len(result.candidates) == len(result.scores) == len(result.verb_anchored) == result.counts.sum()
            for s, ((verb_probs, noun_probs), got) in enumerate(zip(rows, segments(result))):
                chosen, candidates, naive, used_fallback = rerank_reference(
                    verb_probs, noun_probs,
                    matrix.row_stochastic, matrix.col_stochastic, k,
                )
                assert got[0] == chosen
                assert got[1] == naive
                assert got[3] == used_fallback
                assert [(v, n, score, branch) for (v, n), score, branch in got[2]] == candidates
                fallbacks += used_fallback
        assert fallbacks > 0

    def test_branch_tie_keeps_verb_anchored_entry(self):
        # A fully symmetric setup makes both branches score every pair identically,
        # so after the tie rule the merged list carries only verb-anchored tags.
        matrix = CooccurrenceMatrix(np.array([[4.0, 0.0], [0.0, 4.0]]))
        dist = make_clip([0.7, 0.3], [0.7, 0.3])
        _, _, candidates, _ = only_segment(recognize_clip(dist, matrix, k=2))
        assert candidates == [
            ((0, 0), 0.7 * 0.7, BRANCH_VERB),
            ((1, 1), 0.3 * 0.3, BRANCH_VERB),
        ]

    def test_noun_branch_entry_survives_when_strictly_better(self):
        # Pair (1, 0) is reachable only through the noun anchor at k=1.
        matrix = CooccurrenceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        dist = make_clip([0.6, 0.4], [0.8, 0.2])
        _, _, candidates, _ = only_segment(recognize_clip(dist, matrix, k=1))
        by_action = {action: branch for action, _, branch in candidates}
        assert by_action[(1, 0)] == BRANCH_NOUN

    def test_scaling_both_inputs_keeps_ranking(self):
        rng = np.random.default_rng(25)
        counts = rng.uniform(0.0, 3.0, (4, 5))
        matrix = CooccurrenceMatrix(counts)
        scaled = CooccurrenceMatrix(counts * 250.0)
        for _ in range(50):
            dist = make_clip(random_distribution(rng, 4), random_distribution(rng, 5))
            a = recognize_clip(dist, matrix, k=3)
            b = recognize_clip(dist, scaled, k=3)
            assert np.array_equal(a.chosen, b.chosen)
            assert np.array_equal(a.candidates, b.candidates)

    def test_size_mismatch_rejected(self):
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        with pytest.raises(DataError, match="do not match"):
            recognize_clip(make_clip([0.5, 0.5], [0.25] * 4), matrix, k=2)

    @pytest.mark.parametrize(
        "verb_shape, noun_shape, naive_rejects",  # naive_clip has no matrix to match columns against
        [
            ((2, 3), (3, 4), True),
            ((2, 2), (2, 4), False),
            ((2, 3), (2, 5), False),
            ((3,), (4,), True),
            ((1, 2, 3), (1, 2, 4), True),
        ],
    )
    def test_mismatched_rows_or_columns_rejected(self, verb_shape, noun_shape, naive_rejects):
        # Arrays whose rows differ, or that are not 2-D, cannot form a table; columns are pinned by the matrix.
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        fields = ["c"], [0, verb_shape[0]], np.full(verb_shape, 0.25), np.full(noun_shape, 0.25)
        if naive_rejects:
            with pytest.raises(DataError, match=r"^distribution shapes .* do not match each other"):
                Distributions(*fields)
            return
        clip = Distributions(*fields)
        with pytest.raises(DataError, match=r"^distribution shapes .* the 3x4 matrix"):
            recognize_clip(clip, matrix, k=2)
        assert len(naive_clip(clip).chosen) == verb_shape[0]

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_bounds_checked_against_min_dim(self, k):
        matrix = CooccurrenceMatrix(np.ones((3, 5)))
        with pytest.raises(DataError, match="min"):
            recognize_clip(make_clip([0.3, 0.3, 0.4], [0.2] * 5), matrix, k=k)


class TestClipLevel:
    """Segment order and contiguity are the loaders' job; each clip arrives in segment order."""

    RECOGNITION_ROW = '{{"clip_id": "{}", "segment": {}, "chosen": "take spoon", "naive": "take spoon"}}\n'

    def write_distributions(self, path, rng, rows):
        """(clip_id, segment) rows with random kitchen-sized vectors, in the given order."""
        written = {}
        with open(path, "w") as fh:
            for clip_id, segment in rows:
                vectors = random_distribution(rng, 4), random_distribution(rng, 5)
                written[clip_id, segment] = vectors
                fh.write(json.dumps({"clip_id": clip_id, "segment": segment,
                                     "verb_probs": vectors[0].tolist(), "noun_probs": vectors[1].tolist()}) + "\n")
        return written

    def write_recognition(self, path, rows):
        path.write_text("".join(self.RECOGNITION_ROW.format(clip_id, segment) for clip_id, segment in rows))

    def test_results_in_segment_order_despite_shuffle(self, tmp_path, kitchen):
        rng = np.random.default_rng(26)
        matrix = CooccurrenceMatrix(np.ones((4, 5)))
        path = tmp_path / "dist.jsonl"
        written = self.write_distributions(path, rng, [("c", 3), ("c", 0), ("c", 2), ("c", 1)])
        clip = load_distributions(path, kitchen)
        assert clip.clip_ids == ["c"] and clip.starts == [0, 4]
        for s in range(4):
            assert np.allclose(clip.verb_probs[s], written["c", s][0], rtol=0, atol=1e-15)
            assert np.allclose(clip.noun_probs[s], written["c", s][1], rtol=0, atol=1e-15)
        result = recognize_clip(clip, matrix, k=2)
        assert result.clip_ids == ["c"]
        assert len(result.chosen) == len(result.counts) == 4

    def test_gap_in_segments_rejected(self, tmp_path, kitchen):
        rng = np.random.default_rng(27)
        path = tmp_path / "dist.jsonl"
        self.write_distributions(path, rng, [("c", 0), ("c", 2)])
        with pytest.raises(DataError, match="clip 'c': segment indices must be contiguous from 0, expected 1 but found 2"):
            load_distributions(path, kitchen)
        path = tmp_path / "recognition.jsonl"
        self.write_recognition(path, [("a", 0), ("c", 2), ("c", 0)])
        with pytest.raises(DataError, match="clip 'c': segment indices must be contiguous from 0, expected 1 but found 2"):
            load_recognition(path, kitchen)

    def test_empty_clip_rejected(self):
        # A clip with no segments cannot form a table, so neither recognize_clip nor naive_clip sees one.
        with pytest.raises(DataError, match=r"clip 'c'.*S >= 1"):
            Distributions(["c"], [0, 0], np.empty((0, 2)), np.empty((0, 2)))

    def test_naive_clip_is_pure_argmax(self):
        clip = make_clip([[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.4, 0.1], [0.1, 0.3, 0.6]], "c")
        result = naive_clip(clip)
        assert result.clip_ids == ["c"] and result.starts == [0, 2]
        assert result.chosen.tolist() == result.naive.tolist() == [[0, 0], [1, 2]]
        assert not np.shares_memory(result.chosen, result.naive)
        assert result.candidates.shape == (0, 2) and len(result.scores) == len(result.verb_anchored) == 0
        assert result.counts.tolist() == [0, 0]
        assert result.fallback.tolist() == [False, False]

    def test_loaders_keep_first_appearance_order(self, tmp_path, kitchen):
        rng = np.random.default_rng(29)
        rows = [("z", 1), ("a", 0), ("z", 0)]
        path = tmp_path / "dist.jsonl"
        written = self.write_distributions(path, rng, rows)
        clips = clips_of(load_distributions(path, kitchen))
        assert [clip_id for clip_id, _, _ in clips] == ["z", "a"]
        assert clips[0][1].shape == (2, 4) and clips[1][2].shape == (1, 5)
        assert np.allclose(clips[0][2][0], written["z", 0][1], rtol=0, atol=1e-15)
        path = tmp_path / "recognition.jsonl"
        self.write_recognition(path, rows)
        loaded = load_recognition(path, kitchen)
        assert loaded.clip_ids == ["z", "a"]
        assert loaded.starts == [0, 2, 3] and len(loaded.chosen) == 3


class TestRecognitionFile:
    def test_round_trip(self, tmp_path, kitchen):
        rng = np.random.default_rng(30)
        matrix = CooccurrenceMatrix(
            rng.uniform(0.0, 4.0, (kitchen.num_verbs, kitchen.num_nouns)), alpha=0.1
        )
        clip = make_clip(
            [random_distribution(rng, kitchen.num_verbs) for _ in range(3)],
            [random_distribution(rng, kitchen.num_nouns) for _ in range(3)],
            "clip_a",
        )
        want = recognize_clip(clip, matrix, k=3)
        path = tmp_path / "recognition.jsonl"
        save_recognition(path, want, kitchen)
        got = load_recognition(path, kitchen)
        assert got.clip_ids == want.clip_ids == ["clip_a"]
        assert len(got.chosen) == len(want.chosen) == 3
        assert_same_recognition(got, want)
        # Hand-written rows load to the ids their texts name.
        rows = [
            '{"clip_id": "c", "segment": %d, "chosen": "take spoon", "naive": "stir pot",'
            ' "candidates": [{"action": "take spoon", "score": 0.5, "branch": "verb_anchored"},'
            ' {"action": "wash cup", "score": 0.2, "branch": "noun_anchored"}]}\n' % s
            for s in range(3)
        ]
        path.write_text("".join(rows))
        loaded = load_recognition(path, kitchen)
        assert [candidates[1][0] for _, _, candidates, _ in segments(loaded)] == [(3, 2)] * 3
        assert loaded.chosen.tolist() == [[0, 0]] * 3 and loaded.naive.tolist() == [[2, 1]] * 3

    def test_ragged_candidates_save_load_save_is_byte_identical(self, tmp_path, kitchen):
        # Segments with no candidates field, 0, 1 and 2k candidates (k = 2), in two interleaved clips.
        candidate = '{"action": "%s", "score": %s, "branch": "%s"}'
        four = ", ".join([
            candidate % ("wash cup", "0.375", "verb_anchored"),
            candidate % ("take spoon", "0.25", "noun_anchored"),
            candidate % ("stir pot", "0.25", "verb_anchored"),
            candidate % ("put bowl", "0", "noun_anchored"),
        ])
        head = '{"clip_id": "%s", "segment": %d, "chosen": "wash cup", "naive": "put pan", "fallback": %s'
        lines = [
            head % ("a", 1, "false") + ', "candidates": []}',
            head % ("b", 0, "true") + "}",
            head % ("a", 0, "false") + ', "candidates": [%s]}' % four,
            head % ("a", 2, "false") + ', "candidates": [%s]}' % candidate % ("take pot", "1", "noun_anchored"),
        ]
        source = tmp_path / "source.jsonl"
        source.write_text("\n".join(lines) + "\n")
        loaded = load_recognition(source, kitchen)
        assert loaded.clip_ids == ["a", "b"] and loaded.starts == [0, 3, 4]
        assert loaded.counts.tolist() == [4, 0, 1, 0]
        assert loaded.verb_anchored.tolist() == [True, False, True, False, False]
        assert loaded.scores.tolist() == [0.375, 0.25, 0.25, 0.0, 1.0]
        assert loaded.fallback.tolist() == [False, False, False, True]
        assert one_clip(loaded, 1).candidates.shape == (0, 2)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_recognition(first, loaded, kitchen)
        assert_same_recognition(load_recognition(first, kitchen), loaded)
        save_recognition(second, load_recognition(first, kitchen), kitchen)
        assert first.read_bytes() == second.read_bytes()
        saved = [json.loads(line) for line in first.read_text().splitlines()]
        assert [(row["clip_id"], row["segment"], len(row["candidates"])) for row in saved] == [
            ("a", 0, 4), ("a", 1, 0), ("a", 2, 1), ("b", 0, 0)
        ]

    def test_unknown_branch_rejected(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text(
            '{"clip_id": "c", "segment": 0, "chosen": "take spoon", "naive": "take spoon",'
            ' "fallback": false, "candidates": [{"action": "take spoon", "score": 0.5,'
            ' "branch": "sideways"}]}\n'
        )
        with pytest.raises(DataError, match="sideways"):
            load_recognition(path, kitchen)

    ROW = '{{"clip_id": "c", "segment": {}, "chosen": "take spoon", "naive": "take spoon"}}\n'

    def test_negative_segment_rejected(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text(self.ROW.format(0) + self.ROW.format(-1))
        with pytest.raises(DataError, match=":2: segment index must be a nonnegative integer"):
            load_recognition(path, kitchen)

    def test_duplicate_segment_rejected(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text(self.ROW.format(0) + self.ROW.format(1) + self.ROW.format(1))
        with pytest.raises(DataError, match=":3: duplicate segment 1 for clip 'c'"):
            load_recognition(path, kitchen)

    def test_fractional_segment_rejected(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text(self.ROW.format(0) + self.ROW.format(1.9))
        with pytest.raises(DataError, match=":2: field 'segment' has the wrong type"):
            load_recognition(path, kitchen)

    @pytest.mark.parametrize("value", ['"false"', "1", "null"])
    def test_non_boolean_fallback_rejected(self, tmp_path, kitchen, value):
        path = tmp_path / "recognition.jsonl"
        path.write_text(
            self.ROW.format(0)
            + '{"clip_id": "c", "segment": 1, "chosen": "take spoon", "naive": "take spoon",'
            ' "fallback": %s}\n' % value
        )
        with pytest.raises(DataError, match=":2: field 'fallback' must be true or false"):
            load_recognition(path, kitchen)

    SCORED = (
        '{"clip_id": "c", "segment": 1, "chosen": "take spoon", "naive": "take spoon",'
        ' "candidates": [{"action": "take spoon", "score": %s, "branch": "verb_anchored"}]}\n'
    )

    @pytest.mark.parametrize("score", ['"nan"', '"0.5"', "true", "false", "null", "[0.5]", "NaN", "Infinity", "-1e999"])
    def test_score_must_be_a_finite_number(self, tmp_path, kitchen, score):
        path = tmp_path / "recognition.jsonl"
        path.write_text(self.ROW.format(0) + self.SCORED % score)
        with pytest.raises(DataError, match=":2: candidate score must be a finite number, got "):
            load_recognition(path, kitchen)

    def test_score_too_large_for_a_float_rejected(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text(self.ROW.format(0) + self.SCORED % ("1" + "0" * 400))
        with pytest.raises(DataError, match=":2: .*too large"):
            load_recognition(path, kitchen)

    def test_integer_score_loads_as_float(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text(self.ROW.format(0) + self.SCORED % "1")
        clip = load_recognition(path, kitchen)
        assert segments(clip)[1][2] == [((0, 0), 1.0, BRANCH_VERB)]
        assert clip.scores.dtype == np.float64 and type(clip.scores.tolist()[0]) is float

    def test_missing_field_names_location(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text('{"clip_id": "c", "segment": 0, "chosen": "take spoon"}\n')
        with pytest.raises(DataError, match=":1"):
            load_recognition(path, kitchen)


def corpus(rng, num_verbs, num_nouns, lengths, ties=False):
    """(clip_id, verb_probs, noun_probs) clips of the given segment counts. With `ties`, rows take a
    few repeated values, so anchors, adjusted scores and pair scores tie; otherwise they are random
    distributions."""
    clips = []
    for c, length in enumerate(lengths):
        probs = []
        for size in (num_verbs, num_nouns):
            raw = rng.choice([0.0, 1.0, 2.0], (length, size)) if ties else rng.uniform(0.01, 1.0, (length, size))
            raw[:, 0] += 1.0  # no all-zero row
            probs.append(raw / raw.sum(axis=1, keepdims=True))
        clips.append((f"c{c}", *probs))
    return clips


class TestBlocks:
    """`recognize_clip` re-ranks a table in blocks of rows that span clips; results equal one-clip tables."""

    LENGTHS = [1, 7, 8, 2 * BLOCK_SEGMENTS + 3, 1, BLOCK_SEGMENTS, 5]

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_blocks_equal_clip_by_clip(self, ties, k):
        rng = np.random.default_rng(40 + k)
        counts = rng.choice([0.0, 1.0, 1.0, 3.0], (6, 9))
        counts[0] = 0.0  # a verb that co-occurs with nothing: its certain segments fall back
        matrix = CooccurrenceMatrix(counts)
        clips = corpus(rng, 6, 9, self.LENGTHS, ties)
        clips[0][1][:] = np.eye(6)[0]
        got = recognize_clip(table(clips), matrix, k)
        assert_agrees_with_reference(table(clips), matrix, k)
        assert got.clip_ids == [clip[0] for clip in clips] and got.starts == table(clips).starts
        for i, clip in enumerate(clips):
            assert_same_recognition(one_clip(got, i), recognize_clip(table([clip]), matrix, k))
        assert one_clip(got, 0).fallback.all()
        naive = naive_clip(table(clips))
        for i, clip in enumerate(clips):
            assert_same_recognition(one_clip(naive, i), naive_clip(table([clip])))

    def test_blocks_are_consecutive_rows_at_most_block_size(self, monkeypatch):
        corpus_table = table(corpus(np.random.default_rng(42), 6, 9, self.LENGTHS))
        calls, branch = [], recognition._branch

        def record(anchor_probs, other_probs, *rest):
            calls.append((anchor_probs, other_probs))
            return branch(anchor_probs, other_probs, *rest)

        monkeypatch.setattr(recognition, "_branch", record)
        recognize_clip(corpus_table, CooccurrenceMatrix(np.ones((6, 9))), 3)
        blocks = calls[::2]  # (verb rows, noun rows) of each block; its noun branch gets them swapped
        assert all(a is d and b is c for (a, b), (c, d) in zip(blocks, calls[1::2])) and len(calls) == 2 * len(blocks)
        sizes = [len(verb) for verb, _ in blocks]
        assert max(sizes) <= BLOCK_SEGMENTS
        assert all(size == BLOCK_SEGMENTS for size in sizes[:-1])
        for i, name in enumerate(("verb_probs", "noun_probs")):
            whole = getattr(corpus_table, name)
            assert all(np.shares_memory(block[i], whole) for block in blocks)  # row views, not copies
            assert np.array_equal(np.concatenate([block[i] for block in blocks]), whole)

    @pytest.mark.parametrize("values, size", [(5 * 27 + 26, 5), (1, 1)], ids=["five", "one"])
    def test_blocks_hold_at_most_block_values(self, monkeypatch, values, size):
        # k = 3 over all 9 nouns is 27 values a segment, so a block holds BLOCK_VALUES // 27 segments.
        corpus_table = table(corpus(np.random.default_rng(42), 6, 9, self.LENGTHS))
        matrix = CooccurrenceMatrix(np.ones((6, 9)))
        want, sizes, branch = recognize_clip(corpus_table, matrix, 3), [], recognition._branch

        def record(anchor_probs, *rest):
            sizes.append(len(anchor_probs))
            return branch(anchor_probs, *rest)

        monkeypatch.setattr(recognition, "BLOCK_VALUES", values)
        monkeypatch.setattr(recognition, "_branch", record)
        assert_same_recognition(recognize_clip(corpus_table, matrix, 3), want)
        assert max(sizes) == size and all(rows == size for rows in sizes[:-2])  # two branches a block

    def test_no_clips(self):
        empty = Distributions([], [0], np.empty((0, 2)), np.empty((0, 2)))
        for result in (naive_clip(empty), recognize_clip(empty, CooccurrenceMatrix(np.ones((2, 2))), 2)):
            assert result.clip_ids == [] and result.starts == [0]
            assert result.chosen.shape == result.naive.shape == result.candidates.shape == (0, 2)
            assert len(result.scores) == len(result.verb_anchored) == len(result.counts) == len(result.fallback) == 0

    def test_error_names_the_clip(self):
        # Rows 0:6 of clips c0, c1 and c2; the starts leave a clip empty or do not cover the rows.
        whole = table(corpus(np.random.default_rng(41), 3, 4, [2, 3, 1]))
        cases = {
            (0, 2, 2, 6): r"^clip 'c1' has no rows \(need S >= 1\)$",
            (0, 4, 2, 6): r"^clip 'c1' has no rows",
            (0, 2, 5, 5): r"^clips \['c0'\]\.\.\['c2'\] hold rows \[0\]\.\.\[5\] of 6 \(need 4 row starts from 0",
            (1, 2, 5, 6): r"^clips \['c0'\]\.\.\['c2'\] hold rows \[1\]\.\.\[6\] of 6",
            (0, 2, 6): r"^clips \['c0'\]\.\.\['c2'\] hold rows \[0\]\.\.\[6\] of 6 \(need 4 row starts",
        }
        for starts, message in cases.items():  # refused when built, before recognize_clip or naive_clip
            with pytest.raises(DataError, match=message):
                Distributions(whole.clip_ids, list(starts), whole.verb_probs, whole.noun_probs)


def sparse_counts(rng, num_verbs, num_nouns, low, high):
    """Counts with `low` to `high` nonzero nouns per verb, at random columns."""
    counts = np.zeros((num_verbs, num_nouns))
    for row in counts:
        columns = rng.choice(num_nouns, int(rng.integers(low, high + 1)), replace=False)
        row[columns] = rng.choice([1.0, 2.0, 5.0], len(columns))
    return counts


def assert_agrees_with_reference(distributions, matrix, k):
    """Every segment's recognition equals `rerank_reference`'s, scores bit for bit."""
    got = segments(recognize_clip(distributions, matrix, k))
    for verb_probs, noun_probs, segment in zip(distributions.verb_probs, distributions.noun_probs, got):
        chosen, candidates, naive, used_fallback = rerank_reference(
            verb_probs, noun_probs, matrix.row_stochastic, matrix.col_stochastic, k
        )
        candidates = [((v, n), score, branch) for v, n, score, branch in candidates]
        assert segment == (chosen, naive, candidates, used_fallback)


def widths(matrix, k):
    """The column-list widths of the verb- and noun-anchored branches; |N| or |V| is every column."""
    return [values.shape[1] for _, values in (recognition._columns(matrix.row_stochastic, k),
                                              recognition._columns(matrix.col_stochastic.T, k))]


class TestSparseColumns:
    """Each anchor scores only its nonzero columns and its first zero ones; results equal the reference."""

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_width_below_the_vocabulary(self, ties, k):
        rng = np.random.default_rng(60 + k)
        matrix = CooccurrenceMatrix(sparse_counts(rng, 12, 40, 1, 3))
        assert widths(matrix, k)[0] < 40
        assert_agrees_with_reference(table(corpus(rng, 12, 40, [5, 9, 2], ties)), matrix, k)

    @pytest.mark.parametrize("k", [1, 4])
    def test_all_zero_rows_and_columns(self, k):
        rng = np.random.default_rng(70 + k)
        counts = sparse_counts(rng, 10, 30, 1, 3)
        counts[[0, 4]] = 0.0
        counts[:, [0, 1, 7, 29]] = 0.0
        matrix = CooccurrenceMatrix(counts)
        clips = corpus(rng, 10, 30, [6, 6], ties=True)
        clips[0][1][:3] = np.eye(10)[[0, 4, 0]]  # certain of a verb with no counts: fallbacks
        assert_agrees_with_reference(table(clips), matrix, k)
        nothing = CooccurrenceMatrix(np.zeros((10, 30)))
        assert widths(nothing, k) == [k, k]
        assert_agrees_with_reference(table(clips), nothing, k)
        assert recognize_clip(table(clips), nothing, k).fallback.all()

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_smoothed_matrix_scores_every_column(self, ties):
        rng = np.random.default_rng(80)
        matrix = CooccurrenceMatrix(sparse_counts(rng, 12, 40, 1, 3), alpha=0.5)
        assert widths(matrix, 4) == [40, 12]
        assert_agrees_with_reference(table(corpus(rng, 12, 40, [7, 4], ties)), matrix, 4)

    @pytest.mark.parametrize("k, lengths", [(5, [8, 8]), (97, [2, 1])])
    def test_epic_vocabulary(self, k, lengths):
        # 97 verbs x 300 nouns with at most 4 nouns a verb, as on the bench; k = 97 is every verb.
        rng = np.random.default_rng(90 + k)
        matrix = CooccurrenceMatrix(sparse_counts(rng, 97, 300, 1, 4))
        verb_width, noun_width = widths(matrix, k)
        assert verb_width <= 4 + k < 300 and (noun_width == 97) == (k == 97)
        for ties in (False, True):
            assert_agrees_with_reference(table(corpus(rng, 97, 300, lengths, ties)), matrix, k)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_density_and_k(self, data):
        num_verbs, num_nouns = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 12))
        density = data.draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (num_verbs, num_nouns)
        counts = np.where(rng.random(shape) < density, rng.choice([1.0, 3.0], shape), 0.0)
        matrix = CooccurrenceMatrix(counts, data.draw(st.sampled_from([0.0, 0.0, 0.25])))
        k = data.draw(st.integers(1, min(num_verbs, num_nouns)))
        clips = corpus(rng, num_verbs, num_nouns, [data.draw(st.integers(1, 4))], data.draw(st.booleans()))
        assert_agrees_with_reference(table(clips), matrix, k)


# Labels JSON escapes: a quote, a backslash, a tab, non-ASCII, and a character outside the BMP.
ODD_VERBS = ['ta"ke', "st\\ir", "wäsch", "a\tb", "🥄"]
ODD_NOUNS = ['"', "\\", "tôt", "鍋", "x\u00e9", "bowl"]


class TestSaveBytes:
    """`save_recognition` writes what `json.dumps` of each segment's record dict writes."""

    @pytest.mark.parametrize("k", [1, 5, 20, 97])
    def test_reranked_bytes_equal_dict_writer(self, tmp_path, k):
        rng = np.random.default_rng(50 + k)
        taxonomy = Taxonomy([f"verb_{i}" for i in range(97)] + ODD_VERBS, [f"noun_{j}" for j in range(120)] + ODD_NOUNS)
        counts = rng.choice([0.0, 0.0, 1.0, 4.0], (taxonomy.num_verbs, taxonomy.num_nouns))
        counts[3] = 0.0
        matrix = CooccurrenceMatrix(counts)
        clips = corpus(rng, taxonomy.num_verbs, taxonomy.num_nouns, [3, 8, 1, 5])
        clips[1][1][2:4] = np.eye(taxonomy.num_verbs)[3]  # certain of a verb with no counts: fallbacks
        clips.append(('cl"ip\\ é🥄', np.eye(taxonomy.num_verbs)[-5:], np.eye(taxonomy.num_nouns)[-6:-1]))
        recognized = recognize_clip(table(clips), matrix, k)
        assert recognized.fallback.any()
        self.assert_bytes(tmp_path, recognized, taxonomy)

    def test_naive_and_loaded_bytes_equal_dict_writer(self, tmp_path):
        rng = np.random.default_rng(60)
        taxonomy = Taxonomy(ODD_VERBS, ODD_NOUNS)
        clips = table(corpus(rng, 5, 6, [2, 1, 4]) + [("\"\\ü", np.eye(5), np.eye(6)[:5])])
        self.assert_bytes(tmp_path, naive_clip(clips), taxonomy)
        matrix = CooccurrenceMatrix(rng.choice([0.0, 2.0], (5, 6)))
        recognized = recognize_clip(clips, matrix, 4)
        path = self.assert_bytes(tmp_path, recognized, taxonomy)
        self.assert_bytes(tmp_path, load_recognition(path, taxonomy), taxonomy)  # loaded arrays are views too

    def test_out_of_range_id_names_the_first_clip_at_fault(self, tmp_path, kitchen):
        clips = naive_clip(table(corpus(np.random.default_rng(61), 4, 5, [2, 2, 2])))
        clips.naive[3] = (0, 9)  # clip 1, segment 1
        clips.chosen[4] = (7, 0)  # clip 2, segment 0
        with pytest.raises(DataError, match=r"action \(0, 9\) out of range"):
            save_recognition(tmp_path / "r.jsonl", clips, kitchen)
        assert not (tmp_path / "r.jsonl").exists()

    @staticmethod
    def assert_bytes(tmp_path, clips, taxonomy):
        path = tmp_path / "recognition.jsonl"
        save_recognition(path, clips, taxonomy)
        want = recognition_jsonl(clips, taxonomy)
        assert path.read_bytes() == want.encode()
        return path
