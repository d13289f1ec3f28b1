from __future__ import annotations

import json

import numpy as np
import pytest

from ltakit.cooccurrence import CooccurrenceMatrix
from ltakit.dataset_io import ClipDistributions, load_distributions
from ltakit.errors import DataError
from ltakit.recognition import (
    BRANCH_NOUN,
    BRANCH_VERB,
    load_recognition,
    naive_clip,
    recognize_clip,
    save_recognition,
)

from conftest import random_distribution
from oracles import rerank_reference


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


def assert_same_recognition(got, want):
    assert got.clip_id == want.clip_id
    for name in ("chosen", "naive", "candidates", "scores", "verb_anchored", "counts", "fallback"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), name


def make_clip(verb_probs, noun_probs, clip_id="clip"):
    """One clip from per-segment vectors; a single vector makes a one-segment clip."""
    return ClipDistributions(
        clip_id, np.atleast_2d(np.asarray(verb_probs, float)), np.atleast_2d(np.asarray(noun_probs, float))
    )


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
            assert result.clip_id == "clip"
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

    def test_ragged_clip_rejected_before_stacking(self):
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        clip = make_clip([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]], [[0.25] * 4], "c")
        with pytest.raises(DataError, match=r"clip 'c': distribution shapes \(2, 3\) and \(1, 4\) do not match"):
            recognize_clip(clip, matrix, k=2)

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
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        clip = ClipDistributions("c", np.full(verb_shape, 0.25), np.full(noun_shape, 0.25))
        with pytest.raises(DataError, match=r"clip 'c': distribution shapes .* the 3x4 matrix"):
            recognize_clip(clip, matrix, k=2)
        if naive_rejects:
            with pytest.raises(DataError, match=r"clip 'c': distribution shapes .* do not match each other"):
                naive_clip(clip)
        else:
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
        [clip] = load_distributions(path, kitchen)
        for s in range(4):
            assert np.allclose(clip.verb_probs[s], written["c", s][0], rtol=0, atol=1e-15)
            assert np.allclose(clip.noun_probs[s], written["c", s][1], rtol=0, atol=1e-15)
        result = recognize_clip(clip, matrix, k=2)
        assert result.clip_id == "c"
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
        clip = ClipDistributions("c", np.empty((0, 2)), np.empty((0, 2)))
        with pytest.raises(DataError, match=r"clip 'c'.*S >= 1"):
            recognize_clip(clip, CooccurrenceMatrix(np.ones((2, 2))))
        with pytest.raises(DataError, match=r"clip 'c'.*S >= 1"):
            naive_clip(clip)

    def test_naive_clip_is_pure_argmax(self):
        clip = make_clip([[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.4, 0.1], [0.1, 0.3, 0.6]], "c")
        result = naive_clip(clip)
        assert result.clip_id == "c"
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
        clips = load_distributions(path, kitchen)
        assert [c.clip_id for c in clips] == ["z", "a"]
        assert clips[0].verb_probs.shape == (2, 4) and clips[1].noun_probs.shape == (1, 5)
        assert np.allclose(clips[0].noun_probs[0], written["z", 0][1], rtol=0, atol=1e-15)
        path = tmp_path / "recognition.jsonl"
        self.write_recognition(path, rows)
        clips = load_recognition(path, kitchen)
        assert [c.clip_id for c in clips] == ["z", "a"]
        assert [len(c.chosen) for c in clips] == [2, 1]


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
        save_recognition(path, [want], kitchen)
        [got] = load_recognition(path, kitchen)
        assert got.clip_id == want.clip_id == "clip_a"
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
        [loaded] = load_recognition(path, kitchen)
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
        assert [clip.clip_id for clip in loaded] == ["a", "b"]
        assert loaded[0].counts.tolist() == [4, 0, 1] and loaded[1].counts.tolist() == [0]
        assert loaded[0].verb_anchored.tolist() == [True, False, True, False, False]
        assert loaded[0].scores.tolist() == [0.375, 0.25, 0.25, 0.0, 1.0]
        assert loaded[1].fallback.tolist() == [True] and loaded[1].candidates.shape == (0, 2)
        first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
        save_recognition(first, loaded, kitchen)
        for got, want in zip(load_recognition(first, kitchen), loaded):
            assert_same_recognition(got, want)
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
        [clip] = load_recognition(path, kitchen)
        assert segments(clip)[1][2] == [((0, 0), 1.0, BRANCH_VERB)]
        assert clip.scores.dtype == np.float64 and type(clip.scores.tolist()[0]) is float

    def test_missing_field_names_location(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text('{"clip_id": "c", "segment": 0, "chosen": "take spoon"}\n')
        with pytest.raises(DataError, match=":1"):
            load_recognition(path, kitchen)
