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
    clip_ed,
    corpus_eval,
    damerau_levenshtein,
    format_report,
    normalized_ed,
    save_report,
)
from ltakit.recognition import RecognitionResult
from ltakit.taxonomy import Action

from oracles import min_track_ed, osa_distance


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
        assert damerau_levenshtein(a, b) == expected

    def test_restricted_variant_pins_transposition_rule(self):
        # The unrestricted distance would be 2 here (transpose, then insert).
        assert damerau_levenshtein("ca", "abc") == 3

    def test_works_on_arbitrary_tokens(self):
        a = [(0, 1), (2, 3), (4, 5)]
        b = [(2, 3), (0, 1), (4, 5)]
        assert damerau_levenshtein(a, b) == 1

    def test_matches_recursive_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            a = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 8)))]
            b = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 8)))]
            assert damerau_levenshtein(a, b) == osa_distance(a, b)

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
    return PredictionSet(clip_id, [[Action(v, n) for v, n in cand] for cand in candidates])


def actions(pairs):
    return [Action(v, n) for v, n in pairs]


class TestClipEd:
    def test_perfect_candidate_zeroes_all_tracks(self):
        gt = actions([(0, 1), (1, 2), (0, 3)])
        pred = pred_set("c", [[(1, 1), (1, 1), (1, 1)], [(0, 1), (1, 2), (0, 3)]])
        scores = clip_ed(pred, gt)
        assert (scores.verb_ed, scores.noun_ed, scores.action_ed) == (0.0, 0.0, 0.0)
        assert (scores.best_verb, scores.best_noun, scores.best_action) == (1, 1, 1)

    def test_tracks_minimize_independently(self):
        gt = actions([(0, 0), (1, 1)])
        # Candidate 0 nails the verbs, candidate 1 nails the nouns.
        pred = pred_set("c", [[(0, 9), (1, 9)], [(9, 0), (9, 1)]])
        scores = clip_ed(pred, gt)
        assert scores.verb_ed == 0.0 and scores.best_verb == 0
        assert scores.noun_ed == 0.0 and scores.best_noun == 1
        assert scores.action_ed == 1.0
        assert scores.best_action == 0  # tie between candidates, lowest index wins

    def test_action_track_needs_joint_match(self):
        gt = actions([(0, 0)])
        pred = pred_set("c", [[(0, 9)]])
        scores = clip_ed(pred, gt)
        assert scores.verb_ed == 0.0
        assert scores.noun_ed == 1.0
        assert scores.action_ed == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            horizon = int(rng.integers(1, 9))
            num_candidates = int(rng.integers(1, 5))
            gt = [Action(int(rng.integers(3)), int(rng.integers(4))) for _ in range(horizon)]
            cands = [
                [Action(int(rng.integers(3)), int(rng.integers(4))) for _ in range(horizon)]
                for _ in range(num_candidates)
            ]
            scores = clip_ed(PredictionSet("c", cands), gt)
            for track, got_ed, got_idx in [
                (lambda a: a.verb, scores.verb_ed, scores.best_verb),
                (lambda a: a.noun, scores.noun_ed, scores.best_noun),
                (lambda a: (a.verb, a.noun), scores.action_ed, scores.best_action),
            ]:
                want_ed, want_idx = min_track_ed(cands, gt, track)
                assert got_ed == want_ed
                assert got_idx == want_idx

    def test_more_candidates_never_hurt(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            gt = [Action(int(rng.integers(3)), int(rng.integers(3))) for _ in range(6)]
            cands = [
                [Action(int(rng.integers(3)), int(rng.integers(3))) for _ in range(6)]
                for _ in range(4)
            ]
            smaller = clip_ed(PredictionSet("c", cands[:2]), gt)
            larger = clip_ed(PredictionSet("c", cands), gt)
            assert larger.verb_ed <= smaller.verb_ed
            assert larger.noun_ed <= smaller.noun_ed
            assert larger.action_ed <= smaller.action_ed

    def test_no_candidates_rejected(self):
        with pytest.raises(DataError, match="K >= 1"):
            clip_ed(PredictionSet("c", []), actions([(0, 0)]))

    def test_length_mismatch_names_clip(self):
        with pytest.raises(DataError, match="'c9'"):
            clip_ed(pred_set("c9", [[(0, 0), (0, 0)]]), actions([(0, 0)]))


def recog(clip_id, segment, chosen_pair, naive_pair=None):
    chosen = Action(*chosen_pair)
    naive = Action(*naive_pair) if naive_pair else chosen
    return RecognitionResult(clip_id, segment, chosen, naive)


class TestArAccuracy:
    def test_all_correct(self):
        ann = [ClipRecord("c", actions([(0, 0), (1, 1)]))]
        rec = [recog("c", 0, (0, 0)), recog("c", 1, (1, 1))]
        assert ar_accuracy(rec, ann) == (100.0, 100.0, 100.0)

    def test_partial_tracks(self):
        ann = [ClipRecord("c", actions([(0, 0), (1, 1), (2, 2), (3, 3)]))]
        rec = [
            recog("c", 0, (0, 0)),  # both right
            recog("c", 1, (1, 9)),  # verb only
            recog("c", 2, (9, 2)),  # noun only
            recog("c", 3, (9, 9)),  # neither
        ]
        assert ar_accuracy(rec, ann) == (50.0, 50.0, 25.0)

    def test_unknown_clip_rejected(self):
        ann = [ClipRecord("c", actions([(0, 0)]))]
        with pytest.raises(DataError, match="unknown clip"):
            ar_accuracy([recog("other", 0, (0, 0))], ann)

    def test_segment_out_of_range_rejected(self):
        ann = [ClipRecord("c", actions([(0, 0)]))]
        with pytest.raises(DataError, match="out of range"):
            ar_accuracy([recog("c", 1, (0, 0))], ann)

    def test_negative_segment_rejected(self):
        # -1 would otherwise score against the clip's last observed action.
        ann = [ClipRecord("c", actions([(0, 0), (1, 1)]))]
        with pytest.raises(DataError, match="out of range"):
            ar_accuracy([recog("c", -1, (1, 1))], ann)

    def test_empty_recognition_rejected(self):
        with pytest.raises(DataError, match="no recognition"):
            ar_accuracy([], [ClipRecord("c", actions([(0, 0)]))])


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
            gt = [Action(int(rng.integers(3)), int(rng.integers(4))) for _ in range(5)]
            cand = [Action(int(rng.integers(3)), int(rng.integers(4))) for _ in range(5)]
            annotations.append(ClipRecord(f"c{i}", actions([(0, 0)]), gt))
            preds.append(PredictionSet(f"c{i}", [cand]))
        base = corpus_eval(preds, annotations)
        shuffled = list(preds)
        rng.shuffle(shuffled)
        again = corpus_eval(shuffled, annotations)
        assert again.verb_ed == base.verb_ed
        assert again.noun_ed == base.noun_ed
        assert again.action_ed == base.action_ed

    def test_mean_matches_fsum_of_per_clip_rows(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [[(1, 1), (1, 1), (0, 2)]]), pred_set("b", [gt_b])]
        report = corpus_eval(preds, annotations)
        assert report.action_ed == math.fsum(r.action_ed for r in report.per_clip) / 2

    def test_ar_block_present_when_recognition_given(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b])]
        rec = [recog("a", 0, (0, 0)), recog("b", 0, (1, 0))]
        report = corpus_eval(preds, annotations, rec)
        assert report.ar_verb_acc == 100.0
        assert report.ar_noun_acc == 50.0
        assert report.ar_action_acc == 50.0


class TestReportOutput:
    def build_report(self):
        annotations = [ClipRecord("a", actions([(0, 0)]), actions([(0, 0), (1, 1)]))]
        preds = [pred_set("a", [[(0, 0), (1, 9)]])]
        rec = [recog("a", 0, (0, 0))]
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
