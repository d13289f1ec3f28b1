from __future__ import annotations

import dataclasses
import json
import math
import tempfile
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import given, strategies as st

from ltakit.cli import run
from ltakit.dataset_io import (
    Distributions,
    Predictions,
    load_annotations,
    load_distributions,
    load_predictions,
    save_annotations,
    save_distributions,
    save_predictions,
)
from ltakit.cooccurrence import CooccurrenceMatrix
from ltakit.errors import DataError
from ltakit.recognition import load_recognition, naive_clip, recognize_clip, save_recognition
from ltakit.synthgen import SynthConfig, generate_corpus
from ltakit.taxonomy import Taxonomy, load_taxonomy

from conftest import actions, annotations_table, clips_of, predictions_table, table
from oracles import distributions_jsonl
from test_golden import DISTRIBUTIONS, TAXONOMY, TEST, TRAIN


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


class TestReaders:
    """The file rules every loader shares, pinned to their full messages."""

    SEGMENT_LOADERS = {
        "distributions": (load_distributions, {"verb_probs": [1, 0, 0, 0], "noun_probs": [1, 0, 0, 0, 0]}),
        "recognition": (load_recognition, {"chosen": "take spoon", "naive": "take spoon"}),
    }
    CLIP_LOADERS = {
        "annotations": (load_annotations, {"observed": ["take spoon"]}),
        "predictions": (load_predictions, {"candidates": [["take spoon"] * 20]}),
    }
    GAP = "clip 'c': segment indices must be contiguous from 0, expected 1 but found 2"

    @pytest.mark.parametrize("loader", list(SEGMENT_LOADERS))
    @pytest.mark.parametrize(
        "keys, message",
        [
            ([{"segment": 0}], ":1: missing field 'clip_id'"),
            ([{"clip_id": "c", "segment": 0}, {"clip_id": 7, "segment": 1}], ":2: field 'clip_id' has the wrong type"),
            ([{"clip_id": "c"}], ":1: missing field 'segment'"),
            ([{"clip_id": "c", "segment": True}], ":1: segment index must be a nonnegative integer"),
            ([{"clip_id": "c", "segment": 1.0}], ":1: field 'segment' has the wrong type"),
            ([{"clip_id": "c", "segment": -1}], ":1: segment index must be a nonnegative integer"),
            ([{"clip_id": "c", "segment": s} for s in (0, 1, 1)], ":3: duplicate segment 1 for clip 'c'"),
            ([{"clip_id": "c", "segment": s} for s in (0, 2)], GAP),
            # Every line is read before a gap is reported.
            ([{"clip_id": "c", "segment": s} for s in (0, 2, -1)], ":3: segment index must be a nonnegative integer"),
        ],
        ids=["no-clip-id", "int-clip-id", "no-segment", "bool-segment", "float-segment", "negative-segment",
             "duplicate", "gap", "bad-line-before-gap"],
    )
    def test_segment_file_rules(self, tmp_path, kitchen, loader, keys, message):
        load, payload = self.SEGMENT_LOADERS[loader]
        path = tmp_path / f"{loader}.jsonl"
        write_jsonl(path, [{**key, **payload} for key in keys])
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        assert str(info.value) == (message if message == self.GAP else f"{path}{message}")

    @pytest.mark.parametrize("loader", [*SEGMENT_LOADERS, *CLIP_LOADERS])
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"clip_id": "c"} x', "Extra data: line 1 column 18 (char 17)"),
            ('\ufeff{"clip_id": "c"}', "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
            ('{"clip_id": [}', "Expecting value: line 1 column 14 (char 13)"),
        ],
        ids=["extra-data", "bom", "bad-value"],
    )
    def test_invalid_json_is_json_loads_message(self, tmp_path, kitchen, loader, text, message):
        load, _ = {**self.SEGMENT_LOADERS, **self.CLIP_LOADERS}[loader]
        path = tmp_path / f"{loader}.jsonl"
        path.write_text("\n" + text + "\n", encoding="utf-8")
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        assert str(info.value) == f"{path}:2: invalid JSON ({message})"

    # Per loader: a line-2 payload whose value error is found on whole arrays after the
    # pass (deferred), one found while the line is read, and the message line 2 must raise.
    BAD_VALUES = {
        "distributions": [
            ({"verb_probs": [0.5, 0.5, 0.5, 0], "noun_probs": [1, 0, 0, 0, 0]},
             ":2: verb_probs sums to 1.5, outside 1 +/- 0.0001"),
            ({"verb_probs": [1, 0, 0, 0], "noun_probs": [1, 0, 0]}, ":2: noun_probs has length 3, expected 5"),
        ],
        "recognition": [
            ({"chosen": "take spoon", "naive": "take knife"}, ":2: unknown noun 'knife'"),
            ({"chosen": "take spoon", "naive": "take spoon", "fallback": 0},
             ":2: field 'fallback' must be true or false, got 0"),
        ],
    }

    @pytest.mark.parametrize("loader", list(SEGMENT_LOADERS))
    @pytest.mark.parametrize("deferred", [True, False], ids=["deferred", "on-read"])
    @pytest.mark.parametrize("third", [{"segment": 1}, {"segment": 3}], ids=["then-duplicate", "then-gap"])
    def test_first_bad_line_wins(self, tmp_path, kitchen, loader, deferred, third):
        load, payload = self.SEGMENT_LOADERS[loader]
        bad, message = self.BAD_VALUES[loader][0 if deferred else 1]
        path = tmp_path / f"{loader}.jsonl"
        write_jsonl(path, [{"clip_id": "c", "segment": 0, **payload}, {"clip_id": "c", "segment": 1, **bad},
                           {"clip_id": "c", **third, **payload}])
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("loader", list(SEGMENT_LOADERS))
    def test_repeated_segment_before_a_later_value_error(self, tmp_path, kitchen, loader):
        load, payload = self.SEGMENT_LOADERS[loader]
        bad, _ = self.BAD_VALUES[loader][0]
        path = tmp_path / f"{loader}.jsonl"
        write_jsonl(path, [{"clip_id": "c", "segment": 0, **payload}, {"clip_id": "c", "segment": 0, **bad}])
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        # Same line: the key rule comes before the values, as when every line was checked as read.
        assert str(info.value) == f"{path}:2: duplicate segment 0 for clip 'c'"

    def test_earlier_vector_wins_within_a_line(self, tmp_path, kitchen):
        path = tmp_path / "distributions.jsonl"
        write_jsonl(path, [{"clip_id": "c", "segment": 0, "verb_probs": [1, 0, -0.5, 0.5], "noun_probs": "x"}])
        with pytest.raises(DataError) as info:
            load_distributions(path, kitchen)
        assert str(info.value) == f"{path}:1: verb_probs contains a negative probability"

    def test_gap_past_int64_keeps_its_segment(self, tmp_path, kitchen):
        load, payload = self.SEGMENT_LOADERS["recognition"]
        path = tmp_path / "recognition.jsonl"
        write_jsonl(path, [{"clip_id": "c", "segment": s, **payload} for s in (0, 2**70, 2**64)])
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        assert str(info.value) == f"clip 'c': segment indices must be contiguous from 0, expected 1 but found {2**64}"

    @pytest.mark.parametrize(
        "second, third, message",
        [
            ({"candidates": [["take spoon", "fold pot"]]}, {"clip_id": "c1"}, ":2: unknown verb 'fold'"),
            ({"candidates": [["take spoon", "fold pot"]]}, {}, ":2: unknown verb 'fold'"),
            ({"candidates": [["take spoon"]]}, {"clip_id": "c1"}, ":2: candidate 0 has 1 actions, expected 2"),
            ({"candidates": [["take spoon", "take pot"]], "clip_id": "c1"}, {"candidates": [["fold pot"] * 2]},
             ":2: duplicate clip_id 'c1'"),
        ],
        ids=["text-then-duplicate", "text-then-no-clip-id", "length-then-duplicate", "duplicate-then-text"],
    )
    def test_first_bad_line_wins_in_predictions(self, tmp_path, kitchen, second, third, message):
        path = tmp_path / "predictions.jsonl"
        good = {"candidates": [["take spoon", "stir pot"]]}
        write_jsonl(path, [{"clip_id": "c1", **good}, {"clip_id": "c2", **second}, {**good, **third}])
        with pytest.raises(DataError) as info:
            load_predictions(path, kitchen, horizon=2)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("loader", list(CLIP_LOADERS))
    @pytest.mark.parametrize(
        "keys, message",
        [
            ([{}], ":1: missing field 'clip_id'"),
            ([{"clip_id": "c1"}, {"clip_id": "c1"}], ":2: duplicate clip_id 'c1'"),
        ],
        ids=["no-clip-id", "duplicate"],
    )
    def test_clip_file_rules(self, tmp_path, kitchen, loader, keys, message):
        load, payload = self.CLIP_LOADERS[loader]
        path = tmp_path / f"{loader}.jsonl"
        write_jsonl(path, [{**key, **payload} for key in keys])
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("loader", [*SEGMENT_LOADERS, *CLIP_LOADERS])
    def test_a_json_array_line_is_refused(self, tmp_path, kitchen, loader):
        load, payload = {**self.SEGMENT_LOADERS, **self.CLIP_LOADERS}[loader]
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(json.dumps({"clip_id": "c", "segment": 0, **payload}) + "\n[1, 2]\n")
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        assert str(info.value) == f"{path}:2: expected a JSON object per line"

    # Each field that holds actions, as a line-2 record whose two tokens are a and b (horizon 2).
    TOKEN_FIELDS = {
        "observed": (load_annotations, lambda a, b: {"observed": ["take spoon", a, b]}),
        "future": (load_annotations, lambda a, b: {"observed": ["take spoon"], "future": [a, b]}),
        "candidates": (load_predictions, lambda a, b: {"candidates": [["take spoon", "stir pot"], [a, b]]}),
        "chosen-naive": (load_recognition, lambda a, b: {"segment": 0, "chosen": a, "naive": b}),
        "candidate-actions": (load_recognition, lambda a, b: {"segment": 0, "chosen": "take spoon", "naive": "take pot",
                                                              "candidates": [{"action": t, "branch": "verb_anchored",
                                                                              "score": 0.5} for t in (a, b)]}),
    }

    @pytest.mark.parametrize("field", list(TOKEN_FIELDS))
    @pytest.mark.parametrize(
        "tokens, message",
        [
            ((["x"], "fold pot"), "action entries must be strings, got ['x']"),
            (("fold pot", ["x"]), "unknown verb 'fold'"),
            (({"a": 1}, "take knife"), "action entries must be strings, got {'a': 1}"),
            (("take knife", {"a": 1}), "unknown noun 'knife'"),
            (("take spoon", [["take spoon"]]), "action entries must be strings, got [['take spoon']]"),
            ((7, ["x"]), "action entries must be strings, got 7"),
        ],
        ids=["list-then-text", "text-then-list", "dict-then-text", "text-then-dict", "good-then-list", "int-then-list"],
    )
    def test_first_bad_token_in_order_wins(self, tmp_path, kitchen, field, tokens, message):
        # A JSON list or object among the action tokens is refused in token order, like a text that does not parse.
        load, record = self.TOKEN_FIELDS[field]
        path = tmp_path / "stage.jsonl"
        write_jsonl(path, [{"clip_id": "c1", **record("take spoon", "stir pot")}, {"clip_id": "c2", **record(*tokens)}])
        with pytest.raises(DataError) as info:
            load(path, kitchen, **({} if load is load_recognition else {"horizon": 2}))
        assert str(info.value) == f"{path}:2: {message}"

    # A clip file's record whose action text does not parse (a segment file's: BAD_VALUES).
    BAD_TEXTS = {"annotations": {"observed": ["take spoon", "fold pot"]},
                 "predictions": {"candidates": [["take spoon"] * 19 + ["fold pot"]]}}

    @pytest.mark.parametrize("loader", list(CLIP_LOADERS))
    def test_repeated_clip_id_before_a_bad_text_on_its_line(self, tmp_path, kitchen, loader):
        load, payload = self.CLIP_LOADERS[loader]
        path = tmp_path / f"{loader}.jsonl"
        write_jsonl(path, [{"clip_id": "c", **payload}, {"clip_id": "c", **self.BAD_TEXTS[loader]}])
        with pytest.raises(DataError) as info:
            load(path, kitchen)
        assert str(info.value) == f"{path}:2: duplicate clip_id 'c'"

    def test_bad_text_before_a_later_repeated_clip_id(self, tmp_path, kitchen):
        # Predictions: test_first_bad_line_wins_in_predictions; segment files: test_first_bad_line_wins.
        path = tmp_path / "annotations.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "observed": ["take spoon"]}, {"clip_id": "c2", **self.BAD_TEXTS["annotations"]},
                           {"clip_id": "c1", "observed": []}])
        with pytest.raises(DataError) as info:
            load_annotations(path, kitchen)
        assert str(info.value) == f"{path}:2: unknown verb 'fold'"

    @pytest.mark.parametrize("index", [0, 1])
    def test_candidate_that_is_not_a_list(self, tmp_path, kitchen, index):
        path = tmp_path / "predictions.jsonl"
        candidates = [["take spoon", "stir pot"], ["take spoon", "stir pot"]]
        candidates[index] = "take spoon"
        write_jsonl(path, [{"clip_id": "c", "candidates": candidates}])
        with pytest.raises(DataError) as info:
            load_predictions(path, kitchen, horizon=2)
        assert str(info.value) == f"{path}:1: candidate {index} is not a list"


# Labels for the writers' byte tests: quotes, backslashes, control and non-ASCII characters, a lone surrogate.
ODD_LABEL = st.sampled_from(['"', "\\", 'a"b', "\x00", "\n", "\x7f", "é", "鍋", "🥄", "\u2028", "\ud800"]) | st.text(
    st.characters(blacklist_characters=" "), min_size=1, max_size=3)


class TestAnnotations:
    @given(st.data())
    def test_save_bytes_equal_json_dumps_of_each_record(self, data):
        verbs, nouns = (data.draw(st.lists(ODD_LABEL, min_size=1, max_size=4, unique=True)) for _ in range(2))
        action = st.tuples(st.integers(0, len(verbs) - 1), st.integers(0, len(nouns) - 1))
        horizon = data.draw(st.integers(0, 4))
        future = st.lists(action, min_size=horizon, max_size=horizon).map(lambda pairs: actions(*pairs))
        clip_ids = data.draw(st.lists(st.text(max_size=4), max_size=4, unique=True))  # an id names one clip
        records = [(clip_id, actions(*data.draw(st.lists(action, max_size=4))), data.draw(st.none() | future))
                   for clip_id in clip_ids]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ann.jsonl"
            save_annotations(path, annotations_table(records, horizon), Taxonomy(verbs, nouns))
            got = path.read_text(encoding="utf-8")
        text = lambda pairs: [f"{verbs[v]} {nouns[n]}" for v, n in pairs.tolist()]
        rows = [{"clip_id": clip_id, "observed": text(observed), **({} if future is None else {"future": text(future)})}
                for clip_id, observed, future in records]
        assert got == "".join(json.dumps(row) + "\n" for row in rows)

    def test_save_rejects_the_first_action_out_of_range(self, tmp_path, kitchen):
        records = annotations_table([("a", actions((0, 0)), actions((0, 7))), ("b", actions((9, 0)))])
        with pytest.raises(DataError, match=r"^action \(0, 7\) out of range for \|V\|=4, \|N\|=5$"):
            save_annotations(tmp_path / "ann.jsonl", records, kitchen)
        assert not (tmp_path / "ann.jsonl").exists()

    def test_single_clip(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(
            path,
            [
                {
                    "clip_id": "c1",
                    "observed": ["take spoon"] * 8,
                    "future": ["stir pot"] * 20,
                }
            ],
        )
        records = load_annotations(path, kitchen)
        assert (records.clip_ids, records.starts, records.has_future.tolist()) == (["c1"], [0, 8], [True])
        assert records.observed.tolist() == [[0, 0]] * 8
        assert records.future.tolist() == [[[2, 1]] * 20]
        assert records.observed.dtype == records.future.dtype == np.intp

    def test_future_optional(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "observed": ["take spoon"]}])
        loaded = load_annotations(path, kitchen)
        assert loaded.has_future.tolist() == [False] and loaded.future.shape == (0, 20, 2)

    def test_short_future_names_clip(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c9", "observed": [], "future": ["take spoon"] * 19}])
        with pytest.raises(DataError, match="c9"):
            load_annotations(path, kitchen)

    def test_horizon_parameter(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "observed": [], "future": ["take spoon"] * 3}])
        assert load_annotations(path, kitchen, horizon=3).future.tolist() == [[[0, 0]] * 3]

    def test_negative_horizon_loads_files_without_futures(self, tmp_path, kitchen):
        # No future or candidate can be -1 actions long, so only such files load, as empty futures.
        write_jsonl(tmp_path / "ann.jsonl", [{"clip_id": "c1", "observed": ["take spoon"]}])
        (tmp_path / "pred.jsonl").write_text("")
        assert load_annotations(tmp_path / "ann.jsonl", kitchen, horizon=-1).future.shape == (0, 0, 2)
        assert load_predictions(tmp_path / "pred.jsonl", kitchen, horizon=-1).candidates.shape == (0, 0, 2)

    def test_empty_file(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        path.write_text("")
        loaded = load_annotations(path, kitchen)
        assert (loaded.clip_ids, loaded.starts) == ([], [0])
        assert (loaded.observed.shape, loaded.future.shape, loaded.has_future.shape) == ((0, 2), (0, 20, 2), (0,))

    def test_duplicate_clip_id(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(
            path,
            [
                {"clip_id": "c1", "observed": ["take spoon"]},
                {"clip_id": "c1", "observed": ["put pot"]},
            ],
        )
        with pytest.raises(DataError, match="duplicate"):
            load_annotations(path, kitchen)

    def test_unknown_label_with_location(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "observed": ["fly spoon"]}])
        with pytest.raises(DataError, match=r":1.*fly"):
            load_annotations(path, kitchen)

    def test_observed_text_error_before_future_length(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "observed": ["take spoon", "fly spoon"], "future": ["take pot"]}])
        with pytest.raises(DataError) as info:
            load_annotations(path, kitchen)
        assert str(info.value) == f"{path}:1: unknown verb 'fly'"

    def test_invalid_json_line(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"clip_id": "c1", "observed": []}\nnot json\n')
        with pytest.raises(DataError, match=":2"):
            load_annotations(path, kitchen)

    def test_missing_file(self, tmp_path, kitchen):
        with pytest.raises(FileNotFoundError):
            load_annotations(tmp_path / "nope.jsonl", kitchen)

    def test_round_trip(self, tmp_path, kitchen):
        records = annotations_table([
            ("a", actions((0, 0), (2, 1)), actions(*[(1, 1)] * 20)),
            ("b", actions((3, 4)), None),
            ("c", actions(), None),
        ])
        path = tmp_path / "ann.jsonl"
        save_annotations(path, records, kitchen)
        assert_identical(load_annotations(path, kitchen), records)


class TestDistributions:
    def base_row(self, kitchen, **overrides):
        row = {
            "clip_id": "c1",
            "segment": 0,
            "verb_probs": [1.0, 0.0, 0.0, 0.0],
            "noun_probs": [0.2, 0.2, 0.2, 0.2, 0.2],
        }
        row.update(overrides)
        return row

    def test_loads_and_orders(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(
            path,
            [self.base_row(kitchen, segment=1, verb_probs=[0.0, 1.0, 0.0, 0.0]), self.base_row(kitchen, segment=0)],
        )
        clip = load_distributions(path, kitchen)
        assert clip.clip_ids == ["c1"] and clip.starts == [0, 2]
        # Row i is segment i, whatever the file order.
        assert clip.verb_probs.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        assert clip.noun_probs.shape == (2, 5)

    def test_renormalizes_inside_band(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(
            path,
            [self.base_row(kitchen, noun_probs=[0.19999, 0.2, 0.2, 0.2, 0.19996])],
        )
        dist = load_distributions(path, kitchen)
        assert abs(float(dist.noun_probs.sum()) - 1.0) < 1e-12

    def test_sum_outside_band_rejected(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(path, [self.base_row(kitchen, verb_probs=[0.5, 0.3, 0.1, 0.08])])
        with pytest.raises(DataError, match="sums to"):
            load_distributions(path, kitchen)

    def test_negative_probability_rejected(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(path, [self.base_row(kitchen, verb_probs=[1.01, -0.01, 0.0, 0.0])])
        with pytest.raises(DataError, match="negative"):
            load_distributions(path, kitchen)

    def test_wrong_length_rejected(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(path, [self.base_row(kitchen, verb_probs=[0.5, 0.5])])
        with pytest.raises(DataError, match="length"):
            load_distributions(path, kitchen)

    @pytest.mark.parametrize(
        "verb_probs",
        [["1.0", "0", "0", "0"], [True, False, False, False], [1.0, 0.0, 0.0, None], [[1.0], [0.0], [0.0], [0.0]],
         [1.0, 0.0, 0.0, False]],
    )
    def test_non_number_entries_rejected(self, tmp_path, kitchen, verb_probs):
        path = tmp_path / "dist.jsonl"
        write_jsonl(path, [self.base_row(kitchen), self.base_row(kitchen, segment=1, verb_probs=verb_probs)])
        with pytest.raises(DataError, match=r":2: verb_probs is not a vector of numbers"):
            load_distributions(path, kitchen)

    def test_integer_too_large_for_a_float_rejected(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(path, [self.base_row(kitchen, noun_probs=[10**400, 0, 0, 0, 0])])
        with pytest.raises(DataError, match=r":1: noun_probs contains a number too large"):
            load_distributions(path, kitchen)

    def test_non_finite_rejected(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        row = self.base_row(kitchen)
        text = json.dumps(row).replace("1.0", "NaN", 1)
        path.write_text(text + "\n")
        with pytest.raises(DataError, match="finite"):
            load_distributions(path, kitchen)

    def test_duplicate_segment_rejected(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(path, [self.base_row(kitchen), self.base_row(kitchen)])
        with pytest.raises(DataError, match="duplicate"):
            load_distributions(path, kitchen)

    def test_round_trip_exact_for_dyadic_values(self, tmp_path, kitchen):
        # Sums are exactly 1.0 here, so renormalization divides by 1.0 and
        # the JSON float round trip must reproduce every bit.
        dists = table([(
            "c1",
            np.array([[0.5, 0.25, 0.125, 0.125], [0.125, 0.125, 0.25, 0.5]]),
            np.array([[0.5, 0.25, 0.125, 0.0625, 0.0625], [0.0625, 0.0625, 0.125, 0.25, 0.5]]),
        )])
        path = tmp_path / "dist.jsonl"
        save_distributions(path, dists)
        loaded = load_distributions(path, kitchen)
        assert np.array_equal(loaded.verb_probs, dists.verb_probs)
        assert np.array_equal(loaded.noun_probs, dists.noun_probs)

    def test_round_trip_renormalizes_inexact_sums(self, tmp_path, kitchen):
        # 0.7 + 0.1 + 0.1 + 0.1 is one ulp shy of 1.0, so the loader rescales.
        dists = table([("c1", np.array([[0.7, 0.1, 0.1, 0.1]]), np.array([[0.5, 0.2, 0.1, 0.1, 0.1]]))])
        path = tmp_path / "dist.jsonl"
        save_distributions(path, dists)
        loaded = load_distributions(path, kitchen)
        assert loaded.verb_probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(loaded.verb_probs, dists.verb_probs, atol=1e-12)
        assert np.allclose(loaded.noun_probs, dists.noun_probs, atol=1e-12)


    def test_renormalization_matches_row_by_row_bitwise(self, tmp_path):
        # All-distinct Dirichlet rows at the ROADMAP widths (97 and 300, past numpy's
        # 128-value pairwise-sum block): the whole-array axis-1 sums must divide each
        # row exactly as its own 1-D sum would, and recognition must write the same bytes.
        rng = np.random.default_rng(17)
        wide = Taxonomy([f"v{i}" for i in range(97)], [f"n{i}" for i in range(300)])
        clips = table([(f"c{i}", rng.dirichlet(np.ones(97), 6), rng.dirichlet(np.ones(300), 6)) for i in range(8)])
        path = tmp_path / "dist.jsonl"
        save_distributions(path, clips)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        by_row = {}
        for row in rows:
            for name in ("verb_probs", "noun_probs"):
                raw = np.array(row[name])
                by_row[row["clip_id"], row["segment"], name] = raw / raw.sum()
        assert any(np.array(row["noun_probs"]).sum() != 1.0 for row in rows)  # the division is not a no-op
        loaded = load_distributions(path, wide)
        for clip_id, *probs in clips_of(loaded):
            for name, got in zip(("verb_probs", "noun_probs"), probs):
                want = np.stack([by_row[clip_id, i, name] for i in range(len(got))])
                assert got.tobytes() == want.tobytes()
        matrix = CooccurrenceMatrix(rng.integers(0, 5, (97, 300)), alpha=0.5)
        one_by_one = table([(clip_id, *(np.stack([by_row[clip_id, i, name] for i in range(6)])
                                        for name in ("verb_probs", "noun_probs"))) for clip_id in clips.clip_ids])
        texts = []
        for source in (loaded, one_by_one):
            out = tmp_path / f"recognition{len(texts)}.jsonl"
            save_recognition(out, recognize_clip(source, matrix), wide)
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestSaveDistributionsBytes:
    """save_distributions formats each distinct value once; its bytes must equal
    one json.dumps per segment record (oracles.distributions_jsonl)."""

    @staticmethod
    def saved(tmp_path, clips) -> str:
        path = tmp_path / "dist.jsonl"
        save_distributions(path, clips)
        return path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("seed", [0, 1, 2, 7])
    def test_generated_corpus(self, tmp_path, seed):
        config = SynthConfig(
            num_verbs=9, num_nouns=40, num_templates=2, routine_length=12, num_clips=30,
            observed_segments=4, horizon=6, verb_distractor_mass=0.2, noun_distractor_mass=0.3,
            routine_jitter=0.1, seed=seed,
        )
        clips = generate_corpus(config).distributions
        assert self.saved(tmp_path, clips) == distributions_jsonl(clips)

    def test_edge_values(self, tmp_path):
        # -0.0 and 0.0 in one row must not share a text; the rest span json's float
        # forms: subnormal, exponent, short decimal, large, one and non-finite.
        verb = np.array([[-0.0, 0.0, 5e-324, 1e-05], [0.1, 1e16, 1.0, 0.0]])
        noun = np.array([[float("nan"), float("inf"), -float("inf"), 1 / 3, 0.0], [0.0, -0.0, 0.1, 0.1, 2.5e-300]])
        clips = table([("edge", verb, noun)])
        text = self.saved(tmp_path, clips)
        assert text == distributions_jsonl(clips)
        assert '"verb_probs": [-0.0, 0.0, 5e-324, 1e-05]' in text
        assert '"noun_probs": [NaN, Infinity, -Infinity, 0.3333333333333333, 0.0]' in text

    @given(st.data())
    def test_any_floats(self, data):
        # Cells come from a small pool, so values repeat within and across rows;
        # 0.0 and -0.0 are equal as floats but must keep their own texts.
        pool = [0.0, -0.0] + data.draw(st.lists(st.floats(width=64), max_size=5))
        rows = data.draw(st.integers(1, 4))  # a clip holds at least one row
        verbs, nouns = (data.draw(st.integers(0, 4)) for _ in range(2))
        cells = data.draw(st.lists(st.sampled_from(pool), min_size=rows * (verbs + nouns),
                                   max_size=rows * (verbs + nouns)))
        probs = np.array(cells, dtype=np.float64).reshape(rows, verbs + nouns)
        clips = table([("h", probs[:, :verbs], probs[:, verbs:])])
        with tempfile.TemporaryDirectory() as tmp:
            assert self.saved(Path(tmp), clips) == distributions_jsonl(clips)

    def test_float32_input(self, tmp_path):
        rng = np.random.default_rng(5)
        clips = table([
            ("f32", rng.dirichlet(np.ones(4), 3).astype(np.float32), rng.dirichlet(np.ones(5), 3).astype(np.float32))
        ])
        assert self.saved(tmp_path, clips) == distributions_jsonl(clips)

    def test_clip_id_is_json_escaped(self, tmp_path):
        clips = table([('qu"ote \\ caf\u00e9 \u53a8\u623f', np.eye(2, 4), np.eye(2, 5))])
        text = self.saved(tmp_path, clips)
        assert text == distributions_jsonl(clips)
        assert text.startswith('{"clip_id": "qu\\"ote \\\\ caf\\u00e9 \\u53a8\\u623f", "segment": 0, ')

    def test_int_input_is_written_as_floats(self, tmp_path):
        # Every entry is cast to float64: an int 1 is written as 1.0, never as the
        # float whose bits are 1 (5e-324).
        ints = table([("i", np.array([[1, 0, 0, 0]]), np.array([[0, 0, 1, 0, 0]]))])
        text = self.saved(tmp_path, ints)
        assert text == (
            '{"clip_id": "i", "segment": 0, "verb_probs": [1.0, 0.0, 0.0, 0.0], '
            '"noun_probs": [0.0, 0.0, 1.0, 0.0, 0.0]}\n'
        )
        floats = table([("i", ints.verb_probs.astype(float), ints.noun_probs.astype(float))])
        assert text == distributions_jsonl(floats)

    def test_every_line_starts_with_the_clip_id(self, tmp_path):
        # bench/run.py splits the file by reading the id off this prefix.
        clips = generate_corpus(SynthConfig(num_clips=5, seed=3)).distributions
        lines = self.saved(tmp_path, clips).splitlines()
        assert len(lines) == len(clips.verb_probs)
        assert all(line.startswith('{"clip_id": ') for line in lines)


class TestWritersCheckStarts:
    """A table whose `starts` do not split its rows into clips as its writer needs is refused when it
    is built, so no writer is handed one and nothing is written."""

    NEED = "of 3 (need 3 row starts from 0 to 3)"
    CASES = {
        "empty-clip": (["a", "empty", "b"], [0, 2, 2, 3], "clip 'empty' has no rows (need S >= 1)"),
        "short-starts": (["a", "b"], [0, 3], f"clips ['a']..['b'] hold rows [0]..[3] {NEED}"),
        "uncovered-rows": (["a", "b"], [0, 1, 2], f"clips ['a']..['b'] hold rows [0]..[2] {NEED}"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("writer", ["distributions", "recognition", "predictions"])
    def test_bad_starts_rejected(self, tmp_path, writer, case):
        clip_ids, starts, message = self.CASES[case]
        distributions = Distributions(["a", "b"], [0, 2, 3], np.eye(3, 4), np.eye(3, 5))
        table = {"distributions": distributions, "recognition": naive_clip(distributions),
                 "predictions": Predictions(["a", "b"], [0, 2, 3], np.zeros((3, 2, 2), np.intp))}[writer]
        path = tmp_path / f"{writer}.jsonl"
        with pytest.raises(DataError) as info:
            dataclasses.replace(table, clip_ids=clip_ids, starts=starts)
        assert str(info.value) == message
        assert not path.exists()

    OBSERVED = "clips ['a']..['{}'] hold observed rows [{}]..[{}] of 3 (need {} nondecreasing row starts from 0 to 3)"
    FUTURES = "2 clips with {} has_future flags, {} set, hold {} futures (need a flag per clip, a future per set flag)"
    ANNOTATION_CASES = {
        "rows-past-last-start": ({"starts": [0, 1, 2]}, OBSERVED.format("b", 0, 2, 3)),
        "short-starts": ({"starts": [0, 3]}, OBSERVED.format("b", 0, 3, 3)),
        "not-from-0": ({"starts": [1, 2, 3]}, OBSERVED.format("b", 1, 3, 3)),
        "decreasing": ({"clip_ids": ["a", "b", "c"], "starts": [0, 2, 1, 3], "has_future": np.array([1, 0, 0], bool)},
                       OBSERVED.format("c", 0, 3, 4)),
        "flag-missing": ({"has_future": np.array([True])}, FUTURES.format(1, 1, 1)),
        "future-missing": ({"has_future": np.array([True, True])}, FUTURES.format(2, 2, 1)),
        "future-extra": ({"future": np.zeros((2, 1, 2), np.intp)}, FUTURES.format(2, 1, 2)),
    }

    @pytest.mark.parametrize("case", list(ANNOTATION_CASES))
    def test_bad_annotations_rejected(self, tmp_path, case):
        # Observed runs may be empty, but the starts must cover every observed row and the futures
        # match the flags; a table that breaks either would lose rows or futures in the file.
        fields, message = self.ANNOTATION_CASES[case]
        annotations = annotations_table([("a", [(0, 0), (1, 1)], [(2, 2)]), ("b", [(3, 3)])])
        path = tmp_path / "annotations.jsonl"
        with pytest.raises(DataError) as info:
            dataclasses.replace(annotations, **fields)
        assert str(info.value) == message
        assert not path.exists()


def assert_identical(got, want):
    """Equal loader results: the same types, lists and dataclass fields, arrays equal in dtype, shape and bytes."""
    assert type(got) is type(want)
    if isinstance(got, list):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_identical(a, b)
    elif dataclasses.is_dataclass(got):
        for field in dataclasses.fields(got):
            assert_identical(getattr(got, field.name), getattr(want, field.name))
    elif isinstance(got, np.ndarray):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    else:
        assert got == want


class TestDecoders:
    """Stage lines decode with orjson; `json` is the oracle. A number orjson accepts reads as `json`
    reads it, and a file only `json` accepts loads through the loaders' re-read with `json`."""

    @staticmethod
    def assert_decoders_agree(texts):
        """orjson reads each literal as `json` does: the same type, floats bit for bit (repr tells
        every double apart, -0.0 too). An integer past the 64-bit range is a float in orjson."""
        text = "[" + ", ".join(texts) + "]"
        oracle = [float(v) if type(v) is int and not -2**63 <= v < 2**64 else v for v in json.loads(text)]
        assert [(type(v), repr(v)) for v in orjson.loads(text)] == [(type(v), repr(v)) for v in oracle]

    @staticmethod
    def midpoints(a: float) -> list[str]:
        """The exact decimal midpoint between `a` and the next double up, and one unit of its last
        digit below and above it."""
        with localcontext() as ctx:
            ctx.prec = 1200  # exact: a double's decimal expansion has at most 767 significant digits
            mid = (Decimal(a) + Decimal(math.nextafter(a, math.inf))) / 2
            unit = Decimal((0, (1,), mid.as_tuple().exponent))
            return [str(mid - unit), str(mid), str(mid + unit)]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
    def test_floats_bit_for_bit(self, values):
        self.assert_decoders_agree([text for v in values for text in (repr(v), "%.17g" % v, "%.25e" % v)])

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, max_value=1.7e308), max_size=10))
    def test_midpoints_bit_for_bit(self, values):
        self.assert_decoders_agree([text for v in values for text in self.midpoints(v)])

    def test_edge_values(self):
        largest = 1.7976931348623157e308
        subnormal_top, normal_bottom = 2.225073858507201e-308, 2.2250738585072014e-308
        edges = [0.0, -0.0, 5e-324, -5e-324, 1e-320, subnormal_top, normal_bottom, 0.1, 1.0, largest, -largest]
        texts = [text for v in edges for text in (repr(v), "%.17g" % v, "%.25e" % v)]
        texts += [text for v in edges[:-2] + [math.nextafter(largest, 0.0)] for text in self.midpoints(v)]
        texts += ["-0", "0e0", "-0e-400", "1e-400", "2.4703282292062327e-324", "2.4703282292062328e-324"]
        texts += [str(n) for n in (-2**63 - 1, -2**63, 2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**64, 10**30)]
        self.assert_decoders_agree(texts)

    @pytest.fixture
    def golden(self, tmp_path):
        """The golden test's inputs, and the recognition and predictions files its pipeline makes."""
        p = lambda name: str(tmp_path / name)
        (tmp_path / "taxonomy.txt").write_text(TAXONOMY, encoding="utf-8")
        write_jsonl(tmp_path / "train.jsonl", TRAIN)
        write_jsonl(tmp_path / "test.jsonl", TEST)
        write_jsonl(tmp_path / "distributions.jsonl",
                    [{"clip_id": c, "segment": s, "verb_probs": v, "noun_probs": n} for c, s, v, n in DISTRIBUTIONS])
        common = ["--taxonomy", p("taxonomy.txt"), "--horizon", "3"]
        assert run(["build-cooccur", "--annotations", p("train.jsonl"), *common, "--out", p("matrix.txt")]) == 0
        assert run(["recognize", "--distributions", p("distributions.jsonl"), "--matrix", p("matrix.txt"),
                    "--taxonomy", p("taxonomy.txt"), "--top-k", "2", "--out", p("recognition.jsonl")]) == 0
        assert run(["anticipate", "--recognition", p("recognition.jsonl"), *common, "--candidates", "2",
                    "--train-annotations", p("train.jsonl"), "--out", p("predictions.jsonl")]) == 0
        return tmp_path, load_taxonomy(tmp_path / "taxonomy.txt")

    @pytest.mark.parametrize("loader, name, args", [
        (load_annotations, "train.jsonl", (3,)), (load_annotations, "test.jsonl", (3,)),
        (load_distributions, "distributions.jsonl", ()), (load_recognition, "recognition.jsonl", ()),
        (load_predictions, "predictions.jsonl", (3,)),
    ], ids=["train", "test", "distributions", "recognition", "predictions"])
    def test_loaders_equal_through_either_decoder(self, golden, loader, name, args):
        tmp_path, taxonomy = golden
        path = tmp_path / name
        by_json = loader.__wrapped__(path, taxonomy, *args, decode=json.loads)
        assert_identical(loader.__wrapped__(path, taxonomy, *args, decode=orjson.loads), by_json)
        assert_identical(loader(path, taxonomy, *args), by_json)

    def test_synth_distributions_equal_through_either_decoder(self, tmp_path):
        config = SynthConfig(num_verbs=9, num_nouns=40, num_templates=2, routine_length=12, num_clips=20, horizon=6,
                             observed_segments=4, verb_distractor_mass=0.2, noun_distractor_mass=0.3, seed=7)
        corpus = generate_corpus(config)
        path = tmp_path / "distributions.jsonl"
        save_distributions(path, corpus.distributions)
        by_json = load_distributions.__wrapped__(path, corpus.taxonomy, decode=json.loads)
        assert_identical(load_distributions.__wrapped__(path, corpus.taxonomy, decode=orjson.loads), by_json)

    # Each loader's valid record, edited into one that orjson rejects and json reads.
    JSON_ONLY = {
        "lone-surrogate-clip-id": ('"clip_id": "c\\ud800"', "c\ud800"),
        "nan-in-unknown-field": ('"clip_id": "c", "note": NaN', "c"),
        "overflow-in-unknown-field": ('"clip_id": "c", "note": 1e400', "c"),
    }

    @pytest.mark.parametrize("case", list(JSON_ONLY))
    @pytest.mark.parametrize("loader", [*TestReaders.SEGMENT_LOADERS, *TestReaders.CLIP_LOADERS])
    def test_json_only_files_still_load(self, tmp_path, kitchen, loader, case):
        per_segment = loader in TestReaders.SEGMENT_LOADERS
        load, payload = {**TestReaders.SEGMENT_LOADERS, **TestReaders.CLIP_LOADERS}[loader]
        edit, clip_id = self.JSON_ONLY[case]
        record = json.dumps({"clip_id": "c", **({"segment": 0} if per_segment else {}), **payload})
        path = tmp_path / f"{loader}.jsonl"
        path.write_text(record.replace('"clip_id": "c"', edit) + "\n", encoding="utf-8")
        with pytest.raises(DataError):
            load.__wrapped__(path, kitchen, decode=orjson.loads)
        loaded = load(path, kitchen)
        assert_identical(loaded, load.__wrapped__(path, kitchen, decode=json.loads))
        assert loaded.clip_ids == [clip_id]


class TestPredictions:
    def test_round_trip(self, tmp_path, kitchen):
        rng = np.random.default_rng(3)
        preds = predictions_table([
            (
                f"c{i}",
                np.array([
                    [(int(rng.integers(4)), int(rng.integers(5))) for _ in range(20)]
                    for _ in range(5)
                ]),
            )
            for i in range(2)
        ])
        path = tmp_path / "pred.jsonl"
        save_predictions(path, preds, kitchen)
        loaded = load_predictions(path, kitchen)
        assert (loaded.clip_ids, loaded.starts) == (["c0", "c1"], [0, 5, 10])
        assert loaded.candidates.shape == (10, 20, 2)
        assert np.array_equal(loaded.candidates, preds.candidates)

    def test_tokens_are_verb_then_noun_labels(self, tmp_path, kitchen):
        path = tmp_path / "pred.jsonl"
        save_predictions(path, predictions_table([("c1", np.array([[(3, 0), (0, 4)]]))]), kitchen)
        assert json.loads(path.read_text())["candidates"] == [["wash spoon", "take bowl"]]
        assert load_predictions(path, kitchen, horizon=2).candidates.tolist() == [[[3, 0], [0, 4]]]

    @pytest.mark.parametrize(
        "token, message",
        [
            (7, "action entries must be strings, got 7"),
            ("take", "malformed action 'take': expected 'verb noun' with a single space"),
            ("take  spoon", "malformed action 'take  spoon': expected 'verb noun' with a single space"),
            ("fold spoon", "unknown verb 'fold'"),
            ("take knife", "unknown noun 'knife'"),
        ],
        ids=["not-a-string", "one-label", "two-spaces", "unknown-verb", "unknown-noun"],
    )
    def test_bad_token_names_the_line(self, tmp_path, kitchen, token, message):
        path = tmp_path / "pred.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "candidates": [["take spoon", token]]}])
        with pytest.raises(DataError) as info:
            load_predictions(path, kitchen, horizon=2)
        assert str(info.value) == f"{path}:1: {message}"

    @given(st.data())
    def test_bytes_equal_json_dumps_of_each_record(self, data):
        # Labels with quotes, backslashes, control and non-ASCII characters; K differs per clip
        # (K >= 1: the writer refuses a clip with none, as the loader does), Z down to empty
        # candidates, and no clips at all.
        verbs, nouns = (data.draw(st.lists(ODD_LABEL, min_size=1, max_size=4, unique=True)) for _ in range(2))
        action = st.tuples(st.integers(0, len(verbs) - 1), st.integers(0, len(nouns) - 1))
        predictions, horizon = [], data.draw(st.integers(0, 4))
        for clip_id in data.draw(st.lists(st.text(max_size=4), max_size=4, unique=True)):  # ids name one clip
            num_k = data.draw(st.integers(1, 3))
            pairs = data.draw(st.lists(action, min_size=num_k * horizon, max_size=num_k * horizon))
            predictions.append((clip_id, actions(*pairs).reshape(num_k, horizon, 2)))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pred.jsonl"
            save_predictions(path, predictions_table(predictions, horizon), Taxonomy(verbs, nouns))
            got = path.read_text(encoding="utf-8")
        records = [{"clip_id": clip_id, "candidates": [[f"{verbs[v]} {nouns[n]}" for v, n in candidate]
                                                      for candidate in candidates.tolist()]}
                   for clip_id, candidates in predictions]
        assert got == "".join(json.dumps(record) + "\n" for record in records)

    def test_out_of_range_error_names_the_first_clip_at_fault(self, tmp_path, kitchen):
        path = tmp_path / "pred.jsonl"
        predictions = predictions_table([("fine", np.zeros((2, 2, 2), np.intp)),
                                         ("first", actions((0, 0), (0, 5), (4, 0), (0, 0)).reshape(2, 2, 2)),
                                         ("second", actions((-1, 0), (0, 0)).reshape(1, 2, 2))])
        with pytest.raises(DataError) as info:
            save_predictions(path, predictions, kitchen)
        assert str(info.value) == "clip 'first': action (0, 5) out of range for |V|=4, |N|=5"
        assert not path.exists()

    @pytest.mark.parametrize(
        "pair", [(4, 0), (0, 5), (-1, 0), (0, -1)], ids=["verb-4", "noun-5", "verb-minus-1", "noun-minus-1"]
    )
    def test_save_rejects_ids_out_of_range(self, tmp_path, kitchen, pair):
        path = tmp_path / "pred.jsonl"
        with pytest.raises(DataError, match="out of range"):
            save_predictions(path, predictions_table([("c1", np.array([[(0, 0), pair]]))]), kitchen)
        assert not path.exists()

    def test_zero_candidates_rejected(self, tmp_path, kitchen):
        path = tmp_path / "pred.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "candidates": []}])
        with pytest.raises(DataError, match="K >= 1"):
            load_predictions(path, kitchen)

    def test_wrong_candidate_length_rejected(self, tmp_path, kitchen):
        path = tmp_path / "pred.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "candidates": [["take spoon"] * 19]}])
        with pytest.raises(DataError, match="19"):
            load_predictions(path, kitchen)

    def test_duplicate_clip_rejected(self, tmp_path, kitchen):
        path = tmp_path / "pred.jsonl"
        row = {"clip_id": "c1", "candidates": [["take spoon"] * 20]}
        write_jsonl(path, [row, row])
        with pytest.raises(DataError, match="duplicate"):
            load_predictions(path, kitchen)

    def test_missing_file(self, tmp_path, kitchen):
        with pytest.raises(FileNotFoundError):
            load_predictions(tmp_path / "nope.jsonl", kitchen)


class TestTableRoundTrip:
    """`load_*(save_*(table))` gives the table back field for field, dtypes included."""

    CLIP_IDS = st.lists(st.text(max_size=4), unique=True, max_size=5)
    ACTION = st.tuples(st.integers(0, 3), st.integers(0, 4))  # the kitchen taxonomy's ids

    @given(st.data())
    def test_annotations(self, data):
        # Mixed futures, empty observed runs and zero clips, all under one horizon.
        horizon = data.draw(st.integers(0, 3))
        future = st.lists(self.ACTION, min_size=horizon, max_size=horizon)
        clips = [(clip_id, data.draw(st.lists(self.ACTION, max_size=4)), data.draw(st.none() | future))
                 for clip_id in data.draw(self.CLIP_IDS)]
        self.assert_round_trip(annotations_table(clips, horizon), save_annotations, load_annotations, horizon)

    @given(st.data())
    def test_predictions(self, data):
        # Ragged K (the files need K >= 1), empty candidates and zero clips.
        horizon = data.draw(st.integers(0, 3))
        candidate = st.lists(self.ACTION, min_size=horizon, max_size=horizon)
        clips = [(clip_id, np.array(data.draw(st.lists(candidate, min_size=1, max_size=3)), np.intp))
                 for clip_id in data.draw(self.CLIP_IDS)]
        clips = [(clip_id, candidates.reshape(len(candidates), horizon, 2)) for clip_id, candidates in clips]
        self.assert_round_trip(predictions_table(clips, horizon), save_predictions, load_predictions, horizon)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_synth_annotations(self, seed):
        config = SynthConfig(num_verbs=9, num_nouns=40, num_templates=2, routine_length=12, num_clips=20, horizon=6,
                             observed_segments=4, routine_jitter=0.2, seed=seed)
        corpus = generate_corpus(config)
        self.assert_round_trip(corpus.annotations, save_annotations, load_annotations, config.horizon, corpus.taxonomy)

    @staticmethod
    def assert_round_trip(table, save, load, horizon, taxonomy=Taxonomy(["take", "put", "stir", "wash"],
                                                                           ["spoon", "pot", "cup", "pan", "bowl"])):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.jsonl"
            save(path, table, taxonomy)
            assert_identical(load(path, taxonomy, horizon), table)
