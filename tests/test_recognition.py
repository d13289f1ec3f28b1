from __future__ import annotations

import numpy as np
import pytest

from ltakit.cooccurrence import CooccurrenceMatrix
from ltakit.dataset_io import SegmentDistribution
from ltakit.errors import DataError
from ltakit import recognition
from ltakit.recognition import (
    BRANCH_NOUN,
    BRANCH_VERB,
    group_segments,
    load_recognition,
    naive_clip,
    recognize_clip,
    rerank,
    save_recognition,
    top_k,
)
from ltakit.taxonomy import Action, Taxonomy

from conftest import random_distribution
from oracles import rerank_reference, top_k_by_sort


def make_dist(verb_probs, noun_probs, clip_id="clip", segment=0):
    return SegmentDistribution(
        clip_id, segment, np.asarray(verb_probs, float), np.asarray(noun_probs, float)
    )


class TestTopK:
    def test_basic(self):
        assert top_k([0.1, 0.7, 0.2], 2) == [(1, 0.7), (2, 0.2)]

    def test_tie_prefers_lower_index(self):
        assert top_k([0.4, 0.4, 0.2], 1) == [(0, 0.4)]
        assert top_k([0.2, 0.4, 0.4], 2) == [(1, 0.4), (2, 0.4)]

    def test_k_equals_length_is_full_ranking(self):
        assert [i for i, _ in top_k([0.3, 0.5, 0.2], 3)] == [1, 0, 2]

    @pytest.mark.parametrize("k", [0, 4, -1])
    def test_k_out_of_range(self, k):
        with pytest.raises(DataError, match="out of range"):
            top_k([0.1, 0.2, 0.7], k)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            size = int(rng.integers(1, 12))
            values = rng.choice([0.0, 0.1, 0.25, 0.5], size=size).tolist()
            k = int(rng.integers(1, size + 1))
            assert top_k(values, k) == top_k_by_sort(values, k)


class TestRerank:
    def test_one_hot_everything_agrees(self):
        counts = np.zeros((3, 4))
        counts[1, 2] = 5.0
        matrix = CooccurrenceMatrix(counts)
        dist = make_dist([0.1, 0.8, 0.1], [0.1, 0.1, 0.7, 0.1])
        result = rerank(dist, matrix, k=2)
        assert result.chosen == Action(1, 2)
        assert result.naive == Action(1, 2)
        assert not result.used_fallback
        assert result.candidates[0].score == pytest.approx(0.8 * 0.7)

    def test_cooccurrence_overrides_argmax_noun(self):
        # Noun 0 is slightly more probable, but verb 0 never co-occurs with it.
        counts = np.array([[0.0, 10.0], [5.0, 5.0]])
        matrix = CooccurrenceMatrix(counts)
        dist = make_dist([0.9, 0.1], [0.55, 0.45])
        result = rerank(dist, matrix, k=2)
        assert result.naive == Action(0, 0)
        assert result.chosen == Action(0, 1)

    def test_uniform_matrix_keeps_naive_choice(self):
        matrix = CooccurrenceMatrix(np.ones((4, 6)))
        rng = np.random.default_rng(22)
        for _ in range(50):
            dist = make_dist(random_distribution(rng, 4), random_distribution(rng, 6))
            result = rerank(dist, matrix, k=3)
            assert result.chosen == result.naive
            assert not result.used_fallback

    def test_zero_matrix_falls_back_to_naive(self):
        matrix = CooccurrenceMatrix(np.zeros((3, 3)))
        dist = make_dist([0.2, 0.5, 0.3], [0.6, 0.3, 0.1])
        result = rerank(dist, matrix, k=2)
        assert result.used_fallback
        assert result.chosen == result.naive == Action(1, 0)
        assert all(c.score == 0.0 for c in result.candidates)

    def test_candidate_count_and_order(self):
        rng = np.random.default_rng(23)
        matrix = CooccurrenceMatrix(rng.uniform(0.1, 2.0, (5, 7)), alpha=0.0)
        for _ in range(50):
            dist = make_dist(random_distribution(rng, 5), random_distribution(rng, 7))
            k = int(rng.integers(1, 6))
            result = rerank(dist, matrix, k)
            assert 1 <= len(result.candidates) <= 2 * k
            scores = [c.score for c in result.candidates]
            assert scores == sorted(scores, reverse=True)
            assert len({c.action for c in result.candidates}) == len(result.candidates)
            assert result.chosen == result.candidates[0].action

    def test_matches_reference_exactly(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            num_verbs = int(rng.integers(2, 9))
            num_nouns = int(rng.integers(2, 9))
            matrix = CooccurrenceMatrix(
                rng.choice([0.0, 1.0, 2.0, 5.0], size=(num_verbs, num_nouns)),
                alpha=float(rng.choice([0.0, 0.5])),
            )
            dist = make_dist(
                random_distribution(rng, num_verbs), random_distribution(rng, num_nouns)
            )
            k = int(rng.integers(1, min(num_verbs, num_nouns) + 1))
            result = rerank(dist, matrix, k)
            chosen, candidates, naive, used_fallback = rerank_reference(
                dist.verb_probs, dist.noun_probs,
                matrix.row_stochastic, matrix.col_stochastic, k,
            )
            assert (result.chosen.verb, result.chosen.noun) == chosen
            assert (result.naive.verb, result.naive.noun) == naive
            assert result.used_fallback == used_fallback
            got = [(c.action.verb, c.action.noun, c.score, c.branch) for c in result.candidates]
            assert got == candidates

    def test_branch_tie_keeps_verb_anchored_entry(self):
        # A fully symmetric setup makes both branches score every pair identically,
        # so after the tie rule the merged list carries only verb-anchored tags.
        matrix = CooccurrenceMatrix(np.array([[4.0, 0.0], [0.0, 4.0]]))
        dist = make_dist([0.7, 0.3], [0.7, 0.3])
        result = rerank(dist, matrix, k=2)
        got = [(c.action, c.score, c.branch) for c in result.candidates]
        assert got == [
            (Action(0, 0), 0.7 * 0.7, BRANCH_VERB),
            (Action(1, 1), 0.3 * 0.3, BRANCH_VERB),
        ]

    def test_noun_branch_entry_survives_when_strictly_better(self):
        # Pair (1, 0) is reachable only through the noun anchor at k=1.
        matrix = CooccurrenceMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]))
        dist = make_dist([0.6, 0.4], [0.8, 0.2])
        result = rerank(dist, matrix, k=1)
        by_action = {c.action: c.branch for c in result.candidates}
        assert by_action[Action(1, 0)] == BRANCH_NOUN

    def test_scaling_both_inputs_keeps_ranking(self):
        rng = np.random.default_rng(25)
        counts = rng.uniform(0.0, 3.0, (4, 5))
        matrix = CooccurrenceMatrix(counts)
        scaled = CooccurrenceMatrix(counts * 250.0)
        for _ in range(50):
            dist = make_dist(random_distribution(rng, 4), random_distribution(rng, 5))
            a = rerank(dist, matrix, k=3)
            b = rerank(dist, scaled, k=3)
            assert a.chosen == b.chosen
            assert [c.action for c in a.candidates] == [c.action for c in b.candidates]

    def test_size_mismatch_rejected(self):
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        with pytest.raises(DataError, match="do not match"):
            rerank(make_dist([0.5, 0.5], [0.25] * 4), matrix, k=2)

    @pytest.mark.parametrize("k", [0, 4])
    def test_k_bounds_checked_against_min_dim(self, k):
        matrix = CooccurrenceMatrix(np.ones((3, 5)))
        with pytest.raises(DataError, match="min"):
            rerank(make_dist([0.3, 0.3, 0.4], [0.2] * 5), matrix, k=k)


class TestClipLevel:
    def build(self, rng, clip_id, segments):
        return [
            make_dist(random_distribution(rng, 3), random_distribution(rng, 4), clip_id, s)
            for s in segments
        ]

    def test_results_in_segment_order_despite_shuffle(self):
        rng = np.random.default_rng(26)
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        dists = self.build(rng, "c", [3, 0, 2, 1])
        results = recognize_clip(dists, matrix, k=2)
        assert [r.segment_index for r in results] == [0, 1, 2, 3]
        assert all(r.clip_id == "c" for r in results)

    def test_gap_in_segments_rejected(self):
        rng = np.random.default_rng(27)
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        with pytest.raises(DataError, match="expected 1 but found 2"):
            recognize_clip(self.build(rng, "c", [0, 2]), matrix)

    def test_mixed_clips_rejected(self):
        rng = np.random.default_rng(28)
        matrix = CooccurrenceMatrix(np.ones((3, 4)))
        dists = self.build(rng, "a", [0]) + self.build(rng, "b", [1])
        with pytest.raises(DataError, match="multiple clips"):
            recognize_clip(dists, matrix)

    def test_empty_clip_rejected(self):
        with pytest.raises(DataError, match="no segments"):
            recognize_clip([], CooccurrenceMatrix(np.ones((2, 2))))

    def test_naive_clip_is_pure_argmax(self):
        dists = [
            make_dist([0.2, 0.8], [0.1, 0.3, 0.6], "c", 1),
            make_dist([0.9, 0.1], [0.5, 0.4, 0.1], "c", 0),
        ]
        results = naive_clip(dists)
        assert [r.segment_index for r in results] == [0, 1]
        assert results[0].chosen == results[0].naive == Action(0, 0)
        assert results[1].chosen == Action(1, 2)
        assert results[0].candidates == []
        assert not results[0].used_fallback

    def test_group_segments_keeps_first_appearance_order(self):
        rng = np.random.default_rng(29)
        dists = (
            self.build(rng, "z", [0]) + self.build(rng, "a", [0]) + self.build(rng, "z", [1])
        )
        groups = group_segments(dists)
        assert list(groups) == ["z", "a"]
        assert [d.segment_index for d in groups["z"]] == [0, 1]


class TestRecognitionFile:
    def test_round_trip(self, tmp_path, kitchen):
        rng = np.random.default_rng(30)
        matrix = CooccurrenceMatrix(
            rng.uniform(0.0, 4.0, (kitchen.num_verbs, kitchen.num_nouns)), alpha=0.1
        )
        dists = [
            make_dist(
                random_distribution(rng, kitchen.num_verbs),
                random_distribution(rng, kitchen.num_nouns),
                "clip_a",
                s,
            )
            for s in range(3)
        ]
        results = recognize_clip(dists, matrix, k=3)
        path = tmp_path / "recognition.jsonl"
        save_recognition(path, results, kitchen)
        loaded = load_recognition(path, kitchen)
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
        assert [r.candidates[1].action for r in loaded] == [Action(3, 2)] * 3
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

    def test_missing_field_names_location(self, tmp_path, kitchen):
        path = tmp_path / "recognition.jsonl"
        path.write_text('{"clip_id": "c", "segment": 0, "chosen": "take spoon"}\n')
        with pytest.raises(DataError, match=":1"):
            load_recognition(path, kitchen)
