from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ltakit.errors import DataError
from ltakit.metrics import (
    ar_accuracy,
    corpus_eval,
    damerau_levenshtein,
    format_report,
    normalized_eds,
    observed_rows,
    save_report,
)
from ltakit.recognition import Recognition

from conftest import annotations_table, predictions_table
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

    @pytest.mark.parametrize("length", [63, 127, 128, 129])
    def test_lengths_at_word_edges_match_oracle(self, length):
        # One token short of, at and one past a multiple of 64: the carries between words.
        rng = np.random.default_rng(length)
        a = rng.integers(0, 3, size=(12, length))
        b = a.copy()
        b[:, ::5] = rng.integers(0, 3, size=b[:, ::5].shape)
        b[6:] = rng.integers(0, 3, size=(6, length))
        assert damerau_levenshtein(a, b).tolist() == [osa_distance(x, y) for x, y in zip(a.tolist(), b.tolist())]

    @pytest.mark.parametrize("len_a, len_b", [(63, 129), (129, 63), (64, 127), (128, 65), (1, 130), (130, 1)])
    def test_unequal_long_lengths_match_oracle(self, len_a, len_b):
        # Either side the longer; b's length sets the number of words, a's the number of columns.
        rng = np.random.default_rng(len_a * 1000 + len_b)
        a, b = rng.integers(0, 3, size=(6, len_a)), rng.integers(0, 3, size=(6, len_b))
        assert damerau_levenshtein(a, b).tolist() == [osa_distance(x, y) for x, y in zip(a.tolist(), b.tolist())]

    @pytest.mark.parametrize("left", [0, 63, 127])
    def test_transposition_across_word_boundary_is_one_edit(self, left):
        # Positions 63/64 and 127/128 straddle a word boundary; 0/1 sits at bit 0 of the first word.
        a = np.arange(130)
        b = a.copy()
        b[[left, left + 1]] = b[[left + 1, left]]
        assert damerau_levenshtein(a, b) == 1
        assert damerau_levenshtein(b, a) == 1

    @pytest.mark.parametrize("len_a, len_b", [(130, 130), (130, 70), (70, 130), (64, 129)])
    def test_long_all_equal_and_all_distinct_pairs(self, len_a, len_b):
        assert damerau_levenshtein(np.arange(len_a), np.arange(len_a)) == 0
        assert damerau_levenshtein(np.full(len_a, 5), np.full(len_b, 5)) == abs(len_a - len_b)
        assert damerau_levenshtein(np.arange(len_a), np.arange(len_b) + len_a) == max(len_a, len_b)

    @given(st.integers(2, 3), st.integers(0, 140), st.integers(0, 140), st.data())
    def test_matches_oracle_up_to_three_words(self, symbols, len_a, len_b, data):
        tokens = st.integers(0, symbols - 1)
        a = data.draw(st.lists(tokens, min_size=len_a, max_size=len_a))
        b = data.draw(st.lists(tokens, min_size=len_b, max_size=len_b))
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
    """`normalized_eds`, the one normalizer `corpus_eval` and `report` score through."""

    def test_identical_is_zero(self):
        assert normalized_eds([1, 2, 3], [1, 2, 3]) == 0.0

    def test_simple_fraction(self):
        assert normalized_eds([1, 2, 9, 4], [1, 2, 3, 4]) == 0.25

    def test_clamped_to_one(self):
        assert normalized_eds([9, 8], [1, 2]) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="length mismatch"):
            normalized_eds([1], [1, 2])

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="empty"):
            normalized_eds([], [])


def pred_set(clip_id, candidates):
    """One clip's predictions from K lists of (verb, noun) pairs, for `predictions_table`."""
    return clip_id, np.array(candidates).reshape(len(candidates), -1, 2)


def actions(pairs):
    """An L x 2 (verb id, noun id) array from a list of pairs."""
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def random_pairs(rng, length, num_verbs, num_nouns):
    return [(int(rng.integers(num_verbs)), int(rng.integers(num_nouns))) for _ in range(length)]


def clip_scores(prediction, gt):
    """The verb, noun and action (EDs, best indices) of a one-clip corpus, as two lists."""
    report = corpus_eval(predictions_table([prediction]), annotations_table([(prediction[0], [], gt)]))
    return report.eds[0].tolist(), report.best[0].tolist()


def assert_matches_loop_oracle(eds, best, cands, gt):
    tracks = [lambda a: a[0], lambda a: a[1], lambda a: a]
    assert [min_track_ed(cands, gt, track) for track in tracks] == list(zip(eds, best))


class TestClipEd:
    def test_perfect_candidate_zeroes_all_tracks(self):
        gt = actions([(0, 1), (1, 2), (0, 3)])
        pred = pred_set("c", [[(1, 1), (1, 1), (1, 1)], [(0, 1), (1, 2), (0, 3)]])
        eds, best = clip_scores(pred, gt)
        assert eds == [0.0, 0.0, 0.0]
        assert best == [1, 1, 1]

    def test_tracks_minimize_independently(self):
        gt = actions([(0, 0), (1, 1)])
        # Candidate 0 nails the verbs, candidate 1 nails the nouns.
        pred = pred_set("c", [[(0, 9), (1, 9)], [(9, 0), (9, 1)]])
        (verb_ed, noun_ed, action_ed), (best_verb, best_noun, best_action) = clip_scores(pred, gt)
        assert verb_ed == 0.0 and best_verb == 0
        assert noun_ed == 0.0 and best_noun == 1
        assert action_ed == 1.0
        assert best_action == 0  # tie between candidates, lowest index wins

    def test_action_track_needs_joint_match(self):
        gt = actions([(0, 0)])
        pred = pred_set("c", [[(0, 9)]])
        eds, _ = clip_scores(pred, gt)
        assert eds == [0.0, 1.0, 1.0]

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
            assert_matches_loop_oracle(*clip_scores(pred_set("c", cands), gt), cands, gt)

    def test_more_candidates_never_hurt(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            gt = random_pairs(rng, 6, 3, 3)
            cands = [
                random_pairs(rng, 6, 3, 3)
                for _ in range(4)
            ]
            smaller, _ = clip_scores(pred_set("c", cands[:2]), gt)
            larger, _ = clip_scores(pred_set("c", cands), gt)
            assert all(large <= small for large, small in zip(larger, smaller))

    def test_no_candidates_rejected(self):
        # A clip with no candidates cannot form a table, so corpus_eval never sees one.
        with pytest.raises(DataError, match=r"^clip 'c' has no rows \(need S >= 1\)$"):
            predictions_table([("c", np.empty((0, 1, 2), np.intp))])

    def test_length_mismatch_names_clip(self):
        with pytest.raises(DataError, match="clip 'c9': sequence length mismatch: 2 vs 1"):
            clip_scores(pred_set("c9", [[(0, 0), (0, 0)]]), actions([(0, 0)]))


def recog(**clips):
    """A recognition table: in clip `clip_id`, segment i chose `clips[clip_id][i]`, naive agreeing."""
    chosen = actions([pair for pairs in clips.values() for pair in pairs])
    starts = np.cumsum([0] + [len(pairs) for pairs in clips.values()]).tolist()
    return Recognition(
        list(clips), starts, chosen, chosen.copy(), actions([]), np.empty(0), np.empty(0, bool),
        np.zeros(len(chosen), np.intp), np.zeros(len(chosen), bool),
    )


class TestArAccuracy:
    def test_all_correct(self):
        ann = annotations_table([("c", [(0, 0), (1, 1)])])
        rec = recog(c=[(0, 0), (1, 1)])
        assert ar_accuracy(rec, ann) == (100.0, 100.0, 100.0)

    def test_partial_tracks(self):
        ann = annotations_table([("c", [(0, 0), (1, 1), (2, 2), (3, 3)])])
        rec = recog(
            c=[
                (0, 0),  # both right
                (1, 9),  # verb only
                (9, 2),  # noun only
                (9, 9),  # neither
            ]
        )
        assert ar_accuracy(rec, ann) == (50.0, 50.0, 25.0)

    def test_segments_counted_across_clips(self):
        # A clip may have fewer recognized segments than observed ones; only those count.
        ann = annotations_table([("a", [(0, 0), (1, 1), (2, 2)]), ("b", [(3, 3)])])
        assert ar_accuracy(recog(a=[(0, 0)], b=[(3, 9)]), ann) == (100.0, 50.0, 50.0)

    def test_unknown_clip_rejected(self):
        ann = annotations_table([("c", [(0, 0)])])
        with pytest.raises(DataError, match="unknown clip"):
            ar_accuracy(recog(other=[(0, 0)]), ann)

    def test_segment_out_of_range_rejected(self):
        # The clip's record has more segments than the clip has observed actions.
        ann = annotations_table([("c", [(0, 0)]), ("d", [(0, 0), (1, 1)])])
        with pytest.raises(DataError, match=r"clip 'd': segment 2 out of range \(2 observed\)"):
            ar_accuracy(recog(c=[(0, 0)], d=[(0, 0), (1, 1), (1, 1)]), ann)

    def test_empty_recognition_rejected(self):
        with pytest.raises(DataError, match="no recognition"):
            ar_accuracy(recog(), annotations_table([("c", [(0, 0)])]))

    def test_every_record_empty_rejected(self):
        # A recognized clip holds at least one segment, so a table of empty clips is refused when built.
        with pytest.raises(DataError, match=r"^clip 'c' has no rows \(need S >= 1\)$"):
            recog(c=[], d=[])


def observed_rows_oracle(recognized, annotations):
    """The per-clip reference for `observed_rows`: (clip_id, segment count) pairs against
    (clip_id, observed pairs) annotations, through a dict, raising what the gather raises first."""
    observed = {}
    for clip_id, pairs in annotations:
        if clip_id in observed:
            raise DataError(f"duplicate clip id {clip_id!r} in annotations")
        observed[clip_id] = pairs
    rows = []
    for clip_id, count in recognized:
        if clip_id not in observed:
            raise DataError(f"recognition result for unknown clip {clip_id!r}")
        if count > len(observed[clip_id]):
            raise DataError(f"clip {clip_id!r}: segment {len(observed[clip_id])} out of range "
                            f"({len(observed[clip_id])} observed)")
        rows += observed[clip_id][:count]
    return rows


class TestObservedRowsGather:
    @given(st.data())
    def test_gather_equals_per_clip_oracle(self, data):
        # Shuffled recognition clips, a subset of the annotations, each with at most its observed
        # run's segments (empty runs too); sometimes an unknown clip, one segment too many or a
        # repeated annotation clip.
        action = st.tuples(st.integers(0, 3), st.integers(0, 4))
        ids = data.draw(st.lists(st.sampled_from("abcdefgh"), unique=True, max_size=6))
        annotations = [(clip_id, data.draw(st.lists(action, max_size=4))) for clip_id in ids]
        if annotations and data.draw(st.integers(0, 9)) == 0:
            annotations.insert(data.draw(st.integers(0, len(annotations))), data.draw(st.sampled_from(annotations)))
        chosen = data.draw(st.permutations(annotations))[: data.draw(st.integers(0, len(annotations)))]
        recognized = [(clip_id, data.draw(st.integers(0, len(pairs) + (data.draw(st.integers(0, 9)) == 0))))
                      for clip_id, pairs in chosen]
        if data.draw(st.integers(0, 9)) == 0:
            recognized.insert(data.draw(st.integers(0, len(recognized))), ("zz", 1))
        starts = np.cumsum([0] + [count for _, count in recognized]).tolist()
        try:
            want = observed_rows_oracle(recognized, annotations)
        except DataError as exc:  # a repeated annotation clip is refused when its table is built
            with pytest.raises(DataError) as info:
                observed_rows([clip_id for clip_id, _ in recognized], starts, annotations_table(annotations))
            assert str(info.value) == str(exc)
            return
        table = annotations_table(annotations)
        got = observed_rows([clip_id for clip_id, _ in recognized], starts, table)
        assert got.dtype == np.intp and got.tolist() == [list(pair) for pair in want]
        if want:  # ar_accuracy scores a recognition of those rows, one of them off in the noun
            chosen = actions(want)
            chosen[0, 1] += 1
            recognized = [(clip_id, count) for clip_id, count in recognized if count]  # a recognized clip has rows
            starts = np.cumsum([0] + [count for _, count in recognized]).tolist()
            rec = Recognition([clip_id for clip_id, _ in recognized], starts, chosen, chosen, actions([]), np.empty(0),
                              np.empty(0, bool), np.zeros(len(want), np.intp), np.zeros(len(want), bool))
            noun = 100.0 * (len(want) - 1) / len(want)
            assert ar_accuracy(rec, table) == (100.0, noun, noun)


class TestCorpusEval:
    def corpus(self):
        gt_a = [(0, 0), (1, 1), (0, 2)]
        gt_b = [(1, 0), (1, 0), (1, 0)]
        annotations = [("a", [(0, 0)], gt_a), ("b", [(1, 1)], gt_b), ("obs_only", [(1, 1)], None)]
        return annotations, gt_a, gt_b

    def evaluate(self, preds, annotations, recognition=None):
        return corpus_eval(predictions_table(preds), annotations_table(annotations), recognition)

    def test_perfect_predictions_score_zero(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b])]
        report = self.evaluate(preds, annotations)
        assert (report.verb_ed, report.noun_ed, report.action_ed) == (0.0, 0.0, 0.0)
        assert report.ar_verb_acc is None
        assert len(report.clip_ids) == len(report.eds) == len(report.best) == 2

    def test_mean_is_plain_average(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [[(0, 9), (0, 9), (0, 9)]])]
        report = self.evaluate(preds, annotations)
        assert report.verb_ed == pytest.approx(0.5)
        assert report.noun_ed == pytest.approx(0.5)
        assert report.action_ed == pytest.approx(0.5)

    def test_clips_without_future_are_not_scored(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b])]
        report = self.evaluate(preds, annotations)
        assert report.clip_ids == ["a", "b"]

    def test_missing_prediction_names_clip(self):
        annotations, gt_a, _ = self.corpus()
        with pytest.raises(DataError, match="no prediction for clip 'b'"):
            self.evaluate([pred_set("a", [gt_a])], annotations)

    def test_extra_prediction_rejected(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [
            pred_set("a", [gt_a]),
            pred_set("b", [gt_b]),
            pred_set("obs_only", [gt_b]),
        ]
        with pytest.raises(DataError, match="unknown clip 'obs_only'"):
            self.evaluate(preds, annotations)

    def test_extra_prediction_named_in_predictions_order(self):
        # The first extra clip of the predictions, not the alphabetically first one.
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("zz", [gt_a]), pred_set("a", [gt_a]), pred_set("b", [gt_b]), pred_set("bb", [gt_b])]
        with pytest.raises(DataError, match=r"prediction for unknown clip 'zz' \(2 extra in total\)"):
            self.evaluate(preds, annotations)

    def test_duplicate_prediction_rejected(self):
        # Refused when the table is built, before corpus_eval.
        _, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b]), pred_set("a", [gt_a])]
        with pytest.raises(DataError, match="duplicate clip id 'a'"):
            predictions_table(preds)

    def test_duplicate_annotation_rejected(self):
        # Refused when the table is built, before corpus_eval.
        annotations, gt_a, _ = self.corpus()
        annotations.append(("a", [(0, 0)], gt_a))
        with pytest.raises(DataError, match="duplicate clip id 'a'"):
            annotations_table(annotations)

    def test_no_scorable_clips_rejected(self):
        annotations = [("c", [(0, 0)], None)]
        with pytest.raises(DataError, match="future"):
            self.evaluate([], annotations)

    def test_prediction_order_is_irrelevant(self):
        rng = np.random.default_rng(44)
        annotations = []
        preds = []
        for i in range(40):
            gt = random_pairs(rng, 5, 3, 4)
            cand = random_pairs(rng, 5, 3, 4)
            annotations.append((f"c{i}", [(0, 0)], gt))
            preds.append(pred_set(f"c{i}", [cand]))
        base = self.evaluate(preds, annotations)
        shuffled = list(preds)
        rng.shuffle(shuffled)
        again = self.evaluate(shuffled, annotations)
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
            annotations.append((f"c{i}", [(0, 0)], gt))
            preds.append(pred_set(f"c{i}", cands))
            sets[f"c{i}"] = (cands, gt)
        assert len({len(candidates) for _, candidates in preds}) > 1
        report = self.evaluate(preds, annotations)
        for clip_id, eds, best in zip(report.clip_ids, report.eds.tolist(), report.best.tolist()):
            assert_matches_loop_oracle(eds, best, *sets[clip_id])

    def test_mean_matches_fsum_of_per_clip_rows(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [[(1, 1), (1, 1), (0, 2)]]), pred_set("b", [gt_b])]
        report = self.evaluate(preds, annotations)
        assert report.action_ed == math.fsum(report.eds[:, 2].tolist()) / 2

    def test_ar_block_present_when_recognition_given(self):
        annotations, gt_a, gt_b = self.corpus()
        preds = [pred_set("a", [gt_a]), pred_set("b", [gt_b])]
        rec = recog(a=[(0, 0)], b=[(1, 0)])
        report = self.evaluate(preds, annotations, rec)
        assert report.ar_verb_acc == 100.0
        assert report.ar_noun_acc == 50.0
        assert report.ar_action_acc == 50.0


class TestReportOutput:
    def build_report(self):
        annotations = annotations_table([("a", [(0, 0)], [(0, 0), (1, 1)])])
        preds = predictions_table([pred_set("a", [[(0, 0), (1, 9)]])])
        rec = recog(a=[(0, 0)])
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
        # Each clip's object holds its id, then its EDs and best indices, verb, noun and action.
        assert [list(clip.items()) for clip in payload["clips"]] == [
            [("clip_id", clip_id), *zip(["verb_ed", "noun_ed", "action_ed"], eds),
             *zip(["best_verb", "best_noun", "best_action"], best)]
            for clip_id, eds, best in zip(report.clip_ids, report.eds.tolist(), report.best.tolist())
        ]
