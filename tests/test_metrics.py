from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ltakit.dataset_io import ClipRecord, PredictionSet
from ltakit.errors import DataError
from ltakit.metrics import (
    ar_accuracy,
    corpus_eval,
    damerau_levenshtein,
    format_report,
    normalized_ed,
    save_report,
)
from ltakit.recognition import ClipRecognition

from oracles import min_track_ed, osa_distance


def codes(text):
    """A string as an integer token sequence, one code per character."""
    return [ord(ch) for ch in text]


class TestDamerauLevenshtein:
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "xy", 2),
            ("abc", "abd", 1),
            ("abc", "acb", 1),
            ("abcd", "acbd", 1),
            ("kitten", "sitting", 3),
            ("ab", "ba", 1),
            ("abc", "ca", 3),
            ("ca", "abc", 3),
        ],
    )
    def test_known_pairs(self, a, b, expected):
        assert damerau_levenshtein(codes(a), codes(b)) == expected

    def test_restricted_variant_pins_transposition_rule(self):
        # The unrestricted distance would be 2 here (transpose, then insert).
        assert damerau_levenshtein(codes("ca"), codes("abc")) == 3

    def test_works_on_arbitrary_tokens(self):
        # Action codes verb * |N| + noun, far apart and beyond 16 bits, plus a negative code.
        a = [0 * 300 + 1, 96 * 300 + 299, -7, 2**40]
        b = [96 * 300 + 299, 0 * 300 + 1, -7, 2**40]
        assert damerau_levenshtein(a, b) == 1
        assert damerau_levenshtein(a, [0 * 300 + 2, 96 * 300 + 299, -7, 2**40]) == 1

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            a = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 8)))]
            b = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 8)))]
            assert damerau_levenshtein(a, b) == osa_distance(a, b)

    @pytest.mark.parametrize("symbols", [2, 6])
    def test_batch_matches_oracle_pair_by_pair(self, symbols):
        # Every length pair 0..8 x 0..8, equal and unequal, 10 pairs each in one call.
        rng = np.random.default_rng(45 + symbols)
        for len_a in range(9):
            for len_b in range(9):
                a = rng.integers(0, symbols, size=(10, len_a))
                b = rng.integers(0, symbols, size=(10, len_b))
                got = damerau_levenshtein(a, b)
                assert got.shape == (10,)
                want = [osa_distance(x, y) for x, y in zip(a.tolist(), b.tolist())]
                assert got.tolist() == want

    def test_leading_axes_broadcast(self):
        rng = np.random.default_rng(46)
        a = rng.integers(0, 3, size=(4, 1, 5))
        b = rng.integers(0, 3, size=(3, 6))
        got = damerau_levenshtein(a, b)
        assert got.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                assert got[i, j] == osa_distance(a[i, 0].tolist(), b[j].tolist())

    @pytest.mark.parametrize("length", [64, 65, 100])
    def test_long_sequences_match_oracle(self, length):
        # Lengths at and past 64, the width of one machine word.
        rng = np.random.default_rng(length)
        a = rng.integers(0, 3, size=(20, length))
        b = a.copy()
        b[:, ::7] = rng.integers(0, 3, size=b[:, ::7].shape)  # near pairs, not only far ones
        b[10:] = rng.integers(0, 3, size=(10, length))
        want = [osa_distance(x, y) for x, y in zip(a.tolist(), b.tolist())]
        assert damerau_levenshtein(a, b).tolist() == want
        assert damerau_levenshtein(a[:, :-3], b).tolist() == [
            osa_distance(x, y) for x, y in zip(a[:, :-3].tolist(), b.tolist())
        ]

    @given(
        st.lists(st.integers(0, 3), max_size=7),
        st.lists(st.integers(0, 3), max_size=7),
    )
    def test_metric_properties(self, a, b):
        d = damerau_levenshtein(a, b)
        assert d == damerau_levenshtein(b, a)
        assert (d == 0) == (a == b)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))

    @given(
        st.lists(st.integers(0, 2), max_size=5),
        st.lists(st.integers(0, 2), max_size=5),
        st.lists(st.integers(0, 2), max_size=5),
    )
    def test_triangle_inequality(self, a, b, c):
        assert damerau_levenshtein(a, c) <= (
            damerau_levenshtein(a, b) + damerau_levenshtein(b, c)
        )


class TestNormalizedEd:
    def test_identical_is_zero(self):
        assert normalized_ed([1, 2, 3], [1, 2, 3]) == 0.0

    def test_simple_fraction(self):
        assert normalized_ed([1, 2, 9, 4], [1, 2, 3, 4]) == 0.25

    def test_clamped_to_one(self):
        assert normalized_ed([9, 8], [1, 2]) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length mismatch"):
            normalized_ed([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            normalized_ed([], [])


def pred_set(clip_id, candidates):
    """One clip's predictions from K lists of (verb, noun) pairs."""
    return PredictionSet(clip_id, np.array(candidates).reshape(len(candidates), -1, 2))


def actions(pairs):
    """An L x 2 (verb id, noun id) array from a list of pairs."""
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def random_pairs(rng, length, num_verbs, num_nouns):
    return [(int(rng.integers(num_verbs)), int(rng.integers(num_nouns))) for _ in range(length)]


def clip_scores(prediction, gt):
    """The per-clip row of a one-clip corpus."""
    report = corpus_eval([prediction], [ClipRecord(prediction.clip_id, actions([]), actions(gt))])
    return report.per_clip[0]


def assert_matches_loop_oracle(scores, cands, gt):
    for track, got_ed, got_idx in [
        (lambda a: a[0], scores.verb_ed, scores.best_verb),
        (lambda a: a[1], scores.noun_ed, scores.best_noun),
        (lambda a: a, scores.action_ed, scores.best_action),
    ]:
        want_ed, want_idx = min_track_ed(cands, gt, track)
        assert got_ed == want_ed
        assert got_idx == want_idx


class TestClipEd:
    def test_perfect_candidate_zeroes_all_tracks(self):
        gt = actions([(0, 1), (1, 2), (0, 3)])
        pred = pred_set("c", [[(1, 1), (1, 1), (1, 1)], [(0, 1), (1, 2), (0, 3)]])
        scores = clip_scores(pred, gt)
        assert (scores.verb_ed, scores.noun_ed, scores.action_ed) == (0.0, 0.0, 0.0)
        assert (scores.best_verb, scores.best_noun, scores.best_action) == (1, 1, 1)

    def test_tracks_minimize_independently(self):
        gt = actions([(0, 0), (1, 1)])
        # Candidate 0 nails the verbs, candidate 1 nails the nouns.
        pred = pred_set("c", [[(0, 9), (1, 9)], [(9, 0), (9, 1)]])
        scores = clip_scores(pred, gt)
        assert scores.verb_ed == 0.0 and scores.best_verb == 0
        assert scores.noun_ed == 0.0 and scores.best_noun == 1
        assert scores.action_ed == 1.0
        assert scores.best_action == 0  # tie between candidates, lowest index wins

    def test_action_track_needs_joint_match(self):
        gt = actions([(0, 0)])
        pred = pred_set("c", [[(0, 9)]])
        scores = clip_scores(pred, gt)
        assert scores.verb_ed == 0.0
        assert scores.noun_ed == 1.0
        assert scores.action_ed == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            horizon = int(rng.integers(1, 9))
            num_candidates = int(rng.integers(1, 5))
            gt = random_pairs(rng, horizon, 3, 4)
            cands = [
                random_pairs(rng, horizon, 3, 4)
                for _ in range(num_candidates)
            ]
            assert_matches_loop_oracle(clip_scores(pred_set("c", cands), gt), cands, gt)

    def test_more_candidates_never_hurt(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            gt = random_pairs(rng, 6, 3, 3)
            cands = [
                random_pairs(rng, 6, 3, 3)
                for _ in range(4)
            ]
            smaller = clip_scores(pred_set("c", cands[:2]), gt)
            larger = clip_scores(pred_set("c", cands), gt)
            assert larger.verb_ed <= smaller.verb_ed
            assert larger.noun_ed <= smaller.noun_ed
            assert larger.action_ed <= smaller.action_ed

    def test_no_candidates_rejected(self):
        with pytest.raises(DataError, match="K >= 1"):
            clip_scores(PredictionSet("c", np.empty((0, 1, 2), np.intp)), actions([(0, 0)]))

    def test_length_mismatch_names_clip(self):
        with pytest.raises(DataError, match="'c9'"):
            clip_scores(pred_set("c9", [[(0, 0), (0, 0)]]), actions([(0, 0)]))


def recog(clip_id, *chosen_pairs):
    """One clip's recognition: segment i chose `chosen_pairs[i]`, naive agreeing."""
    chosen = actions(list(chosen_pairs))
    return ClipRecognition(
        clip_id, chosen, chosen.copy(), actions([]), np.empty(0), np.empty(0, bool),
        np.zeros(len(chosen), np.intp), np.zeros(len(chosen), bool),
    )


class TestArAccuracy:
    def test_all_correct(self):
        ann = [ClipRecord("c", actions([(0, 0), (1, 1)]))]
        rec = [recog("c", (0, 0), (1, 1))]
        assert ar_accuracy(rec, ann) == (100.0, 100.0, 100.0)

    def test_partial_tracks(self):
        ann = [ClipRecord("c", actions([(0, 0), (1, 1), (2, 2), (3, 3)]))]
        rec = [
            recog(
                "c",
                (0, 0),  # both right
                (1, 9),  # verb only
                (9, 2),  # noun only
                (9, 9),  # neither
            )
        ]
        assert ar_accuracy(rec, ann) == (50.0, 50.0, 25.0)

    def test_segments_counted_across_clips(self):
        # A clip may have fewer recognized segments than observed ones; only those count.
        ann = [ClipRecord("a", actions([(0, 0), (1, 1), (2, 2)])), ClipRecord("b", actions([(3, 3)]))]
        assert ar_accuracy([recog("a", (0, 0)), recog("b", (3, 9))], ann) == (100.0, 50.0, 50.0)

    def test_unknown_clip_rejected(self):
        ann = [ClipRecord("c", actions([(0, 0)]))]
        with pytest.raises(DataError, match="unknown clip"):
            ar_accuracy([recog("other", (0, 0))], ann)

    def test_segment_out_of_range_rejected(self):
        # The clip's record has more segments than the clip has observed actions.
        ann = [ClipRecord("c", actions([(0, 0)])), ClipRecord("d", actions([(0, 0), (1, 1)]))]
        with pytest.raises(DataError, match=r"clip 'd': segment 2 out of range \(2 observed\)"):
            ar_accuracy([recog("c", (0, 0)), recog("d", (0, 0), (1, 1), (1, 1))], ann)

    def test_empty_recognition_rejected(self):
        with pytest.raises(DataError, match="no recognition"):
            ar_accuracy([], [ClipRecord("c", actions([(0, 0)]))])

    def test_every_record_empty_rejected(self):
        ann = [ClipRecord("c", actions([(0, 0)])), ClipRecord("d", actions([(1, 1)]))]
        with pytest.raises(DataError, match="no recognition results to score"):
            ar_accuracy([recog("c"), recog("d")], ann)


class TestCorpusEval:
    def corpus(self):
        gt_a = [(0, 0), (1, 1), (0, 2)]
        gt_b = [(1, 0), (1, 0), (1, 0)]
        annotations = [
            ClipRecord("a", actions([(0, 0)]), actions(gt_a)),
            ClipRecord("b", actions([(1, 1)]), actions(gt_b)),
            ClipRecord("obs_only", actions([(1, 1)]), None),
        ]
        return annotations, gt_a, gt_b

    def test_perfect_predictions_score_zero(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b])]
        report = corpus_eval(preds, annotations)
        assert (report.verb_ed, report.noun_ed, report.action_ed) == (0.0, 0.0, 0.0)
        assert report.ar_verb_acc is None
        assert len(report.per_clip) == 2

    def test_mean_is_plain_average(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [[(0, 9), (0, 9), (0, 9)]])]
        report = corpus_eval(preds, annotations)
        assert report.verb_ed == pytest.approx(0.5)
        assert report.noun_ed == pytest.approx(0.5)
        assert report.action_ed == pytest.approx(0.5)

    def test_clips_without_future_are_not_scored(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b])]
        report = corpus_eval(preds, annotations)
        assert [r.clip_id for r in report.per_clip] == ["a", "b"]

    def test_missing_prediction_names_clip(self):
        annotations, gt_a, _ = self.corpus()
        with pytest.raises(DataError, match="no prediction for clip 'b'"):
            corpus_eval([pred_set("a", [gt_a])], annotations)

    def test_extra_prediction_rejected(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [
            pred_set("a", [gt_a]),
            pred_set("b", [gt_b]),
            pred_set("obs_only", [gt_b]),
        ]
        with pytest.raises(DataError, match="unknown clip 'obs_only'"):
            corpus_eval(preds, annotations)

    def test_duplicate_prediction_rejected(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b]), pred_set("a", [gt_a])]
        with pytest.raises(DataError, match="duplicate clip id 'a'"):
            corpus_eval(preds, annotations)

    def test_duplicate_annotation_rejected(self):
        annotations, gt_a, gt_b = self.corpus()
        annotations.append(ClipRecord("a", actions([(0, 0)]), actions(gt_a)))
        with pytest.raises(DataError, match="duplicate clip id 'a'"):
            corpus_eval([pred_set("a", [gt_a]), pred_set("b", [gt_b])], annotations)

    def test_no_scorable_clips_rejected(self):
        annotations = [ClipRecord("c", actions([(0, 0)]), None)]
        with pytest.raises(DataError, match="future"):
            corpus_eval([], annotations)

    def test_prediction_order_is_irrelevant(self):
        rng = np.random.default_rng(44)
        annotations = []
        preds = []
        for i in range(40):
            gt = random_pairs(rng, 5, 3, 4)
            cand = random_pairs(rng, 5, 3, 4)
            annotations.append(ClipRecord(f"c{i}", actions([(0, 0)]), actions(gt)))
            preds.append(pred_set(f"c{i}", [cand]))
        base = corpus_eval(preds, annotations)
        shuffled = list(preds)
        rng.shuffle(shuffled)
        again = corpus_eval(shuffled, annotations)
        assert again.verb_ed == base.verb_ed
        assert again.noun_ed == base.noun_ed
        assert again.action_ed == base.action_ed

    def test_ragged_candidates_match_loop_oracle(self):
        # K varies from clip to clip, as in an externally written predictions.jsonl.
        rng = np.random.default_rng(47)
        annotations, preds, sets = [], [], {}
        for i in range(60):
            gt = random_pairs(rng, 5, 3, 4)
            cands = [
                random_pairs(rng, 5, 3, 4)
                for _ in range(int(rng.integers(1, 6)))
            ]
            annotations.append(ClipRecord(f"c{i}", actions([(0, 0)]), actions(gt)))
            preds.append(pred_set(f"c{i}", cands))
            sets[f"c{i}"] = (cands, gt)
        assert len({len(p.candidates) for p in preds}) > 1
        report = corpus_eval(preds, annotations)
        for row in report.per_clip:
            assert_matches_loop_oracle(row, *sets[row.clip_id])

    def test_mixed_horizon_rejected(self):
        annotations, gt_a, gt_b = self.corpus()
        annotations[1] = ClipRecord("b", actions([(1, 1)]), actions(gt_b[:2]))
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b[:2]])]
        with pytest.raises(DataError, match="clip 'b'"):
            corpus_eval(preds, annotations)

    def test_mean_matches_fsum_of_per_clip_rows(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [[(1, 1), (1, 1), (0, 2)]]), pred_set("b", [gt_b])]
        report = corpus_eval(preds, annotations)
        assert report.action_ed == math.fsum(r.action_ed for r in report.per_clip) / 2

    def test_ar_block_present_when_recognition_given(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b])]
        rec = [recog("a", (0, 0)), recog("b", (1, 0))]
        report = corpus_eval(preds, annotations, rec)
        assert report.ar_verb_acc == 100.0
        assert report.ar_noun_acc == 50.0
        assert report.ar_action_acc == 50.0


class TestReportOutput:
    def build_report(self):
        annotations = [ClipRecord("a", actions([(0, 0)]), actions([(0, 0), (1, 1)]))]
        preds = [pred_set("a", [[(0, 0), (1, 9)]])]
        rec = [recog("a", (0, 0))]
        return corpus_eval(preds, annotations, rec)

    def test_format_report_layout(self):
        report = self.build_report()
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0].split() == ["verb", "noun", "action"]
        assert lines[1].split() == ["ED", "0.0000", "0.5000", "0.5000"]
        assert lines[2].split() == ["AR", "acc", "%", "100.00", "100.00", "100.00"]

    def test_format_report_without_ar(self):
        report = self.build_report()
        report.ar_verb_acc = None
        assert len(format_report(report).splitlines()) == 2

    def test_save_report_json(self, tmp_path):
        report = self.build_report()
        path = tmp_path / "report.json"
        save_report(path, report)
        payload = json.loads(path.read_text())
        assert payload["verb_ed"] == 0.0
        assert payload["noun_ed"] == 0.5
        assert payload["ar_verb_acc"] == 100.0
        assert payload["clips"][0]["clip_id"] == "a"
        assert payload["clips"][0]["best_action"] == 0
