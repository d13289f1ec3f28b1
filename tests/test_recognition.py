from __future__ import annotations

import json

import numpy as np
import pytest

from ltakit.cooccurrence import CooccurrenceMatrix
from ltakit.dataset_io import ClipDistributions, load_distributions
from ltakit.errors import DataError
from ltakit import recognition
from ltakit.recognition import (
    BRANCH_NOUN,
    BRANCH_VERB,
    load_recognition,
    naive_clip,
    recognize_clip,
    save_recognition,
)
from ltakit.taxonomy import Action, Taxonomy

from conftest import random_distribution
from oracles import rerank_reference


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
        result = recognize_clip(dist, matrix, k=2)[0]
        assert result.chosen == Action(1, 2)
        assert result.naive == Action(1, 2)
        assert not result.used_fallback
        assert result.candidates[0].score == pytest.approx(0.8 * 0.7)

    def test_cooccurrence_overrides_argmax_noun(self):
        # Noun 0 is slightly more probable, but verb 0 never co-occurs with it.
        counts = np.array([[0.0, 10.0], [5.0, 5.0]])
        matrix = CooccurrenceMatrix(counts)
        dist = make_clip([0.9, 0.1], [0.55, 0.45])
        result = recognize_clip(dist, matrix, k=2)[0]
        assert result.naive == Action(0, 0)
        assert result.chosen == Action(0, 1)

    def test_uniform_matrix_keeps_naive_choice(self):
        matrix = CooccurrenceMatrix(np.ones((4, 6)))
        rng = np.random.default_rng(22)
        for _ in range(50):
            dist = make_clip(random_distribution(rng, 4), random_distribution(rng, 6))
            result = recognize_clip(dist, matrix, k=3)[0]
            assert result.chosen == result.naive
            assert not result.used_fallback

    def test_zero_matrix_falls_back_to_naive(self):
        matrix = CooccurrenceMatrix(np.zeros((3, 3)))
        dist = make_clip([0.2, 0.5, 0.3], [0.6, 0.3, 0.1])
        result = recognize_clip(dist, matrix, k=2)[0]
        assert result.used_fallback
        assert result.chosen == result.naive == Action(1, 0)
        assert all(c.score == 0.0 for c in result.candidates)

    def test_candidate_count_and_order(self):
        rng = np.random.default_rng(23)
        matrix = CooccurrenceMatrix(rng.uniform(0.1, 2.0, (5, 7)), alpha=0.0)
        for _ in range(50):
            dist = make_clip(random_distribution(rng, 5), random_distribution(rng, 7))
            k = int(rng.integers(1, 6))
            result = recognize_clip(dist, matrix, k)[0]
            assert 1 <= len(result.candidates) <= 2 * k
            scores = [c.score for c in result.candidates]
            assert scores == sorted(scores, reverse=True)
            assert len({c.action for c in result.candidates}) == len(result.candidates)
            assert result.chosen == result.candidates[0].action

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
            results = recognize_clip(make_clip(*zip(*rows)), matrix, k)
            assert len(results) == len(rows)
            for s, ((verb_probs, noun_probs), result) in enumerate(zip(rows, results)):
                chosen, candidates, naive, used_fallback = rerank_reference(
                    verb_probs, noun_probs,
                    matrix.row_stochastic, matrix.col_stochastic, k,
                )
                assert result.segment_index == s
                assert (result.chosen.verb, result.chosen.noun) == chosen
                assert (result.naive.verb, result.naive.noun) == naive
                assert result.used_fallback == used_fallback
                got = [(c.action.verb, c.action.noun, c.score, c.branch) for c in result.candidates]
                assert got == candidates
                fallbacks += used_fallback
        assert fallbacks > 0

    def test_branch_tie_keeps_verb_anchored_entry(self):
        # A fully symmetric setup makes both branches score every pair identically,
        # so after the tie rule the merged list carries only verb-anchored tags.
        matrix = CooccurrenceMatrix(np.array([[4.0, 0.0], [0.0, 4.0]]))
        dist = make_clip([0.7, 0.3], [0.7, 0.3])
        result = recognize_clip(dist, matrix, k=2)[0]
        got = [(c.action, c.score, c.branch) for c in result.candidates]
        assert got == [
            (Action(0, 0), 0.7 * 0.7, BRANCH_VERB),
            (Action(1, 1), 0.3 * 0.3, BRANCH_VERB),
        ]

    def test_noun_branch_entry_survives_when_strictly_better(self):
        # Pair (1, 0) is reachable only through the noun anchor at k=1.
        matrix = CooccurrenceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        dist = make_clip([0.6, 0.4], [0.8, 0.2])
        result = recognize_clip(dist, matrix, k=1)[0]
        by_action = {c.action: c.branch for c in result.candidates}
        assert by_action[Action(1, 0)] == BRANCH_NOUN

    def test_scaling_both_inputs_keeps_ranking(self):
        rng = np.random.default_rng(25)
        counts = rng.uniform(0.0, 3.0, (4, 5))
        matrix = CooccurrenceMatrix(counts)
        scaled = CooccurrenceMatrix(counts * 250.0)
        for _ in range(50):
            dist = make_clip(random_distribution(rng, 4), random_distribution(rng, 5))
            a = recognize_clip(dist, matrix, k=3)[0]
            b = recognize_clip(dist, scaled, k=3)[0]
            assert a.chosen == b.chosen
            assert [c.action for c in a.candidates] == [c.action for c in b.candidates]

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
            assert len(naive_clip(clip)) == verb_shape[0]

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
        results = recognize_clip(clip, matrix, k=2)
        assert [r.segment_index for r in results] == [0, 1, 2, 3]
        assert all(r.clip_id == "c" for r in results)

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
        results = naive_clip(clip)
        assert [r.segment_index for r in results] == [0, 1]
        assert results[0].chosen == results[0].naive == Action(0, 0)
        assert results[1].chosen == Action(1, 2)
        assert results[0].candidates == []
        assert not results[0].used_fallback

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
        groups = load_recognition(path, kitchen)
        assert list(groups) == ["z", "a"]
        assert [r.segment_index for r in groups["z"]] == [0, 1]


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
        results = recognize_clip(clip, matrix, k=3)
        path = tmp_path / "recognition.jsonl"
        save_recognition(path, results, kitchen)
        groups = load_recognition(path, kitchen)
        assert list(groups) == ["clip_a"]
        loaded = groups["clip_a"]
        assert len(loaded) == len(results)
        for got, want in zip(loaded, results):
            assert got.clip_id == want.clip_id
            assert got.segment_index == want.segment_index
            assert got.chosen == want.chosen
            assert got.naive == want.naive
            assert got.used_fallback == want.used_fallback
            assert got.candidates == want.candidates

    def test_each_distinct_action_text_parsed_once(self, tmp_path, kitchen, monkeypatch):
        rows = [
            '{"clip_id": "c", "segment": %d, "chosen": "take spoon", "naive": "stir pot",'
            ' "candidates": [{"action": "take spoon", "score": 0.5, "branch": "verb_anchored"},'
            ' {"action": "wash cup", "score": 0.2, "branch": "noun_anchored"}]}\n' % s
            for s in range(3)
        ]
        path = tmp_path / "recognition.jsonl"
        path.write_text("".join(rows))
        calls = []
        real = recognition.parse_action
        monkeypatch.setattr(recognition, "parse_action", lambda text, tax: calls.append(text) or real(text, tax))
        loaded = load_recognition(path, kitchen)
        assert sorted(calls) == ["stir pot", "take spoon", "wash cup"]
        assert [r.candidates[1].action for r in loaded["c"]] == [Action(3, 2)] * 3
        # Each load starts from an empty table.
        load_recognition(path, kitchen)
        assert len(calls) == 6

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

    def test_missing_field_names_location(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text('{"clip_id": "c", "segment": 0, "chosen": "take spoon"}\n')
        with pytest.raises(DataError, match=":1"):
            load_recognition(path, kitchen)
