from __future__ import annotations

import json

import numpy as np
import pytest

from ltakit.dataset_io import (
    ClipRecord,
    PredictionSet,
    ClipDistributions,
    load_annotations,
    load_distributions,
    load_predictions,
    save_annotations,
    save_distributions,
    save_predictions,
)
from ltakit.errors import DataError

from conftest import actions


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


class TestAnnotations:
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
        assert len(records) == 1
        assert records[0].clip_id == "c1"
        assert records[0].observed.tolist() == [[0, 0]] * 8
        assert records[0].future.tolist() == [[2, 1]] * 20
        assert records[0].observed.dtype == np.intp

    def test_future_optional(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "observed": ["take spoon"]}])
        assert load_annotations(path, kitchen)[0].future is None

    def test_short_future_names_clip(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c9", "observed": [], "future": ["take spoon"] * 19}])
        with pytest.raises(DataError, match="c9"):
            load_annotations(path, kitchen)

    def test_horizon_parameter(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        write_jsonl(path, [{"clip_id": "c1", "observed": [], "future": ["take spoon"] * 3}])
        assert load_annotations(path, kitchen, horizon=3)[0].future.tolist() == [[0, 0]] * 3

    def test_empty_file(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        path.write_text("")
        assert load_annotations(path, kitchen) == []

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

    def test_invalid_json_line(self, tmp_path, kitchen):
        path = tmp_path / "ann.jsonl"
        path.write_text('{"clip_id": "c1", "observed": []}\nnot json\n')
        with pytest.raises(DataError, match=":2"):
            load_annotations(path, kitchen)

    def test_missing_file(self, tmp_path, kitchen):
        with pytest.raises(FileNotFoundError):
            load_annotations(tmp_path / "nope.jsonl", kitchen)

    def test_round_trip(self, tmp_path, kitchen):
        records = [
            ClipRecord("a", actions((0, 0), (2, 1)), actions(*[(1, 1)] * 20)),
            ClipRecord("b", actions((3, 4)), None),
            ClipRecord("c", actions(), None),
        ]
        path = tmp_path / "ann.jsonl"
        save_annotations(path, records, kitchen)
        loaded = load_annotations(path, kitchen)
        assert [r.clip_id for r in loaded] == ["a", "b", "c"]
        for got, want in zip(loaded, records):
            assert np.array_equal(got.observed, want.observed) and got.observed.shape == want.observed.shape
            assert (got.future is None) == (want.future is None)
            assert want.future is None or np.array_equal(got.future, want.future)


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
        [clip] = load_distributions(path, kitchen)
        assert clip.clip_id == "c1"
        # Row i is segment i, whatever the file order.
        assert clip.verb_probs.tolist() == [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        assert clip.noun_probs.shape == (2, 5)

    def test_renormalizes_inside_band(self, tmp_path, kitchen):
        path = tmp_path / "dist.jsonl"
        write_jsonl(
            path,
            [self.base_row(kitchen, noun_probs=[0.19999, 0.2, 0.2, 0.2, 0.19996])],
        )
        dist = load_distributions(path, kitchen)[0]
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
        dists = [
            ClipDistributions(
                "c1",
                np.array([[0.5, 0.25, 0.125, 0.125], [0.125, 0.125, 0.25, 0.5]]),
                np.array([[0.5, 0.25, 0.125, 0.0625, 0.0625], [0.0625, 0.0625, 0.125, 0.25, 0.5]]),
            )
        ]
        path = tmp_path / "dist.jsonl"
        save_distributions(path, dists)
        loaded = load_distributions(path, kitchen)
        assert np.array_equal(loaded[0].verb_probs, dists[0].verb_probs)
        assert np.array_equal(loaded[0].noun_probs, dists[0].noun_probs)

    def test_round_trip_renormalizes_inexact_sums(self, tmp_path, kitchen):
        # 0.7 + 0.1 + 0.1 + 0.1 is one ulp shy of 1.0, so the loader rescales.
        dists = [
            ClipDistributions(
                "c1", np.array([[0.7, 0.1, 0.1, 0.1]]), np.array([[0.5, 0.2, 0.1, 0.1, 0.1]])
            )
        ]
        path = tmp_path / "dist.jsonl"
        save_distributions(path, dists)
        loaded = load_distributions(path, kitchen)
        assert loaded[0].verb_probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(loaded[0].verb_probs, dists[0].verb_probs, atol=1e-12)
        assert np.allclose(loaded[0].noun_probs, dists[0].noun_probs, atol=1e-12)


class TestPredictions:
    def test_round_trip(self, tmp_path, kitchen):
        rng = np.random.default_rng(3)
        preds = [
            PredictionSet(
                f"c{i}",
                np.array([
                    [(int(rng.integers(4)), int(rng.integers(5))) for _ in range(20)]
                    for _ in range(5)
                ]),
            )
            for i in range(2)
        ]
        path = tmp_path / "pred.jsonl"
        save_predictions(path, preds, kitchen)
        loaded = load_predictions(path, kitchen)
        assert [p.clip_id for p in loaded] == [p.clip_id for p in preds]
        for got, want in zip(loaded, preds):
            assert got.candidates.shape == (5, 20, 2)
            assert np.array_equal(got.candidates, want.candidates)

    def test_tokens_are_verb_then_noun_labels(self, tmp_path, kitchen):
        path = tmp_path / "pred.jsonl"
        save_predictions(path, [PredictionSet("c1", np.array([[(3, 0), (0, 4)]]))], kitchen)
        assert json.loads(path.read_text())["candidates"] == [["wash spoon", "take bowl"]]
        assert load_predictions(path, kitchen, horizon=2)[0].candidates.tolist() == [[[3, 0], [0, 4]]]

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

    @pytest.mark.parametrize(
        "pair", [(4, 0), (0, 5), (-1, 0), (0, -1)], ids=["verb-4", "noun-5", "verb-minus-1", "noun-minus-1"]
    )
    def test_save_rejects_ids_out_of_range(self, tmp_path, kitchen, pair):
        path = tmp_path / "pred.jsonl"
        with pytest.raises(DataError, match="out of range"):
            save_predictions(path, [PredictionSet("c1", np.array([[(0, 0), pair]]))], kitchen)
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
