"""The corpus tables check their own layout when built: clip i holds rows starts[i]:starts[i + 1]."""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltakit.dataset_io import (
    Annotations,
    Distributions,
    Predictions,
    save_annotations,
    save_distributions,
    save_predictions,
)
from ltakit.errors import DataError
from ltakit.metrics import ar_accuracy, corpus_eval
from ltakit.recognition import Recognition, save_recognition
from ltakit.taxonomy import Taxonomy

KITCHEN = Taxonomy(["take", "put", "stir", "wash"], ["spoon", "pot", "cup", "pan", "bowl"])


def recognition(starts, chosen, candidates, counts) -> Recognition:
    """A recognition table of clips a and b, naive agreeing with chosen, every segment a fallback."""
    chosen, candidates = np.asarray(chosen, np.intp).reshape(-1, 2), np.asarray(candidates, np.intp).reshape(-1, 2)
    return Recognition(["a", "b"], starts, chosen, chosen.copy(), candidates, np.ones(len(candidates)),
                       np.ones(len(candidates), bool), np.asarray(counts), np.ones(len(chosen), bool))


class TestRepros:
    """Tables that, unchecked, make a stage fail with a bare IndexError or a nonsense message, or
    write a file that drops or garbles rows."""

    def annotations(self, starts) -> Annotations:
        # Clips a and b, 2 observed rows in all, each clip with a 3-step future.
        return Annotations(["a", "b"], starts, np.zeros((2, 2), np.intp), np.zeros((2, 3, 2), np.intp),
                           np.ones(2, bool))

    @pytest.mark.parametrize("starts, rows", [([0, 1, 5], "[0]..[5] of 2"), ([0, 1], "[0]..[1] of 2")],
                             ids=["past-the-candidates", "one-start-short"])
    def test_predictions_starts_past_the_candidates(self, starts, rows):
        # corpus_eval would index past the candidates.
        with pytest.raises(DataError, match=rf"^clips \['a'\]\.\.\['b'\] hold rows {re.escape(rows)} "):
            Predictions(["a", "b"], starts, np.zeros((2, 3, 2), np.intp))
        good = Predictions(["a", "b"], [0, 1, 2], np.zeros((2, 3, 2), np.intp))
        assert corpus_eval(good, self.annotations([0, 1, 2])).action_ed == 0.0

    @pytest.mark.parametrize("starts", [[0, 1, 5], [0, 2, 1]], ids=["past-the-rows", "decreasing"])
    def test_observed_starts_past_the_rows_or_decreasing(self, starts):
        # ar_accuracy would index past the observed rows with [0, 1, 5], and with [0, 2, 1] report
        # "segment -1 out of range (-1 observed)".
        with pytest.raises(DataError, match=r"nondecreasing row starts from 0 to 2\)$"):
            self.annotations(starts)
        rec = recognition([0, 1, 2], [(0, 0), (0, 0)], [], [0, 0])
        assert ar_accuracy(rec, self.annotations([0, 1, 2])) == (100.0, 100.0, 100.0)

    def test_recognition_counts_must_sum_to_the_candidates(self):
        # save_recognition would write this table with 2 of its 3 candidates dropped.
        with pytest.raises(DataError, match=r"^candidate counts sum to 1 over 3 candidates"):
            recognition([0, 1, 2], [(0, 0), (1, 1)], [(0, 0), (1, 1), (2, 2)], [1, 0])
        for counts in ([2, -1], [1.0, 0.0]):  # negative, or not integers
            with pytest.raises(DataError, match=r"^candidate counts sum to 1\.?0? over 1 candidates"):
                recognition([0, 1, 2], [(0, 0), (1, 1)], [(0, 0)], np.array(counts))

    def test_predictions_must_be_n_by_z_by_2(self):
        # save_predictions would write {"clip_id": "a", "candidates": [["take cup"]]}, which no horizon reads.
        with pytest.raises(DataError, match=r"^candidates of shape \(1, 2\) \(need N x Z x 2\)$"):
            Predictions(["a"], [0, 1], np.zeros((1, 2), np.intp))

    def test_repeated_clip_id_rejected_when_built(self):
        # save_annotations wrote two {"clip_id": "b", ...} lines, which load_annotations refuses
        # (":3: duplicate clip_id 'b'"); the first id given again is named.
        ids, pairs = ["a", "b", "b", "a"], np.zeros((4, 2), np.intp)
        tables = {
            "annotations": lambda: Annotations(ids, [0, 1, 2, 3, 4], pairs, np.zeros((0, 3, 2), np.intp),
                                               np.zeros(4, bool)),
            "distributions": lambda: Distributions(ids, [0, 1, 2, 3, 4], np.full((4, 4), 0.25), np.full((4, 5), 0.2)),
            "predictions": lambda: Predictions(ids, [0, 1, 2, 3, 4], np.zeros((4, 3, 2), np.intp)),
            "recognition": lambda: Recognition(ids, [0, 1, 2, 3, 4], pairs, pairs, np.empty((0, 2), np.intp),
                                               np.empty(0), np.empty(0, bool), np.zeros(4, np.intp), np.ones(4, bool)),
        }
        for name, build in tables.items():
            with pytest.raises(DataError, match=rf"^duplicate clip id 'b' in {name}$"):
                build()

    def test_tables_are_frozen(self):
        table = Predictions(["a"], [0, 1], np.zeros((1, 2, 2), np.intp))
        with pytest.raises(AttributeError):
            table.starts = [0, 0]


def layout_ok(starts, clips: int, rows: int, empty_ok: bool) -> bool:
    """C + 1 starts from 0 to `rows`, each run nonempty or, with `empty_ok`, not negative."""
    return (len(starts) == clips + 1 and starts[0] == 0 and starts[-1] == rows
            and all(b - a >= (0 if empty_ok else 1) for a, b in zip(starts, starts[1:])))


@st.composite
def layouts(draw, clip_ids: list[str], empty_ok: bool):
    """Starts for the clips, each run 0 to 3 rows (seldom 0 unless `empty_ok`), now and then with an
    inner start past the next one or equal to the one before, or all replaced; and the rows, now and
    then one off the last start."""
    runs = [1, 1, 2, 3] + [0] * (3 if empty_ok else 0) + [1] * 8 + [0]
    starts = np.cumsum([0, *(draw(st.sampled_from(runs)) for _ in clip_ids)]).tolist()
    fault, inner = draw(st.integers(0, 9)), draw(st.integers(1, max(1, len(starts) - 2)))
    if fault == 0 and len(starts) > 2:
        starts[inner] = starts[inner + 1] + 1
    elif fault == 1 and len(starts) > 2:
        starts[inner] = starts[inner - 1]
    elif fault == 2:
        starts = draw(st.lists(st.integers(-1, starts[-1] + 1), max_size=len(clip_ids) + 2))
    return starts, max(0, (starts[-1] if starts else 0) + draw(st.sampled_from([0] * 20 + [-1, 1])))


@st.composite
def shapes(draw, *dims: int) -> tuple[int, ...]:
    """`dims`, now and then with its last axis dropped, grown or repeated."""
    return draw(st.sampled_from([dims] * 30 + [dims[:-1], (*dims[:-1], dims[-1] + 1), (*dims, dims[-1])]))


def ids(rng, shape) -> np.ndarray:
    """Action ids, now and then out of the kitchen's range."""
    return rng.integers(-1, 6, shape) if rng.random() < 0.1 else rng.integers(0, 4, shape)


@st.composite
def tables(draw):
    """(kind, fields, valid) for one random table of each kind over shared clip ids; `valid` says by
    the rules, clip by clip, whether the table may be built."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    clip_ids = draw(st.lists(st.sampled_from("abcdef"), unique=True, min_size=1, max_size=4) | st.just([]))
    horizon = draw(st.integers(0, 3))
    drawn = []

    starts, rows = draw(layouts(clip_ids, empty_ok=True))
    flags = rng.random(len(clip_ids)) < 0.8
    flags = draw(st.sampled_from([flags] * 20 + [flags[1:], flags.astype(np.intp)]))
    futures = int(np.sum(flags)) + draw(st.sampled_from([0] * 20 + [1]))
    observed, future = ids(rng, draw(shapes(rows, 2))), ids(rng, draw(shapes(futures, horizon, 2)))
    valid = (observed.ndim == 2 and observed.shape[1] == 2 and future.ndim == 3 and future.shape[2] == 2
             and layout_ok(starts, len(clip_ids), len(observed), empty_ok=True)
             and flags.dtype == bool and flags.shape == (len(clip_ids),) and len(future) == flags.sum())
    drawn.append((Annotations, (clip_ids, starts, observed, future, flags), valid))

    starts, rows = draw(layouts(clip_ids, empty_ok=False))
    verb, noun = rng.random(draw(shapes(rows, 4))), rng.random(draw(shapes(rows, 5)))
    valid = (verb.ndim == noun.ndim == 2 and len(verb) == len(noun)
             and layout_ok(starts, len(clip_ids), len(verb), empty_ok=False))
    drawn.append((Distributions, (clip_ids, starts, verb, noun), valid))

    futured = [clip_id for clip_id, flag in zip(clip_ids, flags.tolist()) if flag]
    predicted = draw(st.sampled_from([futured] * 4 + [clip_ids]))
    starts, rows = draw(layouts(predicted, empty_ok=False))
    candidates = ids(rng, draw(shapes(rows, draw(st.sampled_from([horizon] * 9 + [horizon + 1])), 2)))
    valid = (candidates.ndim == 3 and candidates.shape[2] == 2
             and layout_ok(starts, len(predicted), len(candidates), empty_ok=False))
    drawn.append((Predictions, (predicted, starts, candidates), valid))

    recognized = draw(st.permutations(clip_ids))[: draw(st.integers(0, len(clip_ids)))]
    starts, rows = draw(layouts(recognized, empty_ok=False))
    counts = rng.integers(0, 3, draw(shapes(rows)))
    size = max(0, int(counts.sum()) + draw(st.sampled_from([0] * 20 + [-1, 1])))
    arrays = [ids(rng, draw(shapes(rows, 2))), ids(rng, draw(shapes(rows, 2))), ids(rng, draw(shapes(size, 2))),
              rng.random(draw(shapes(size))), rng.random(draw(shapes(size))) < 0.5, counts,
              rng.random(draw(shapes(rows))) < 0.1]
    need = [(rows, 2), (rows, 2), (size, 2), (size,), (size,), (rows,), (rows,)]
    valid = ([a.shape for a in arrays] == need and layout_ok(starts, len(recognized), rows, empty_ok=False)
             and counts.sum() == size)
    drawn.append((Recognition, (recognized, starts, *arrays), valid))
    return drawn


class TestRandomTables:
    @given(tables())
    def test_built_iff_valid_and_consumers_raise_only_data_errors(self, drawn):
        # A table the rules reject raises DataError when built. One they accept goes through the
        # writers, corpus_eval and ar_accuracy, which may refuse it (ids out of range, no futures,
        # mismatched horizons, unknown clips) but only with a DataError.
        built = {}
        for kind, fields, valid in drawn:
            if valid:
                built[kind] = kind(*fields)
            else:
                with pytest.raises(DataError):
                    kind(*fields)
        calls = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.jsonl"
            if Annotations in built:
                calls.append(lambda: save_annotations(path, built[Annotations], KITCHEN))
            if Distributions in built:
                calls.append(lambda: save_distributions(path, built[Distributions]))
            if Predictions in built:
                calls.append(lambda: save_predictions(path, built[Predictions], KITCHEN))
            if Recognition in built:
                calls.append(lambda: save_recognition(path, built[Recognition], KITCHEN))
            if Annotations in built and Predictions in built:
                calls.append(lambda: corpus_eval(built[Predictions], built[Annotations], built.get(Recognition)))
            if Annotations in built and Recognition in built:
                calls.append(lambda: ar_accuracy(built[Recognition], built[Annotations]))
            for call in calls:
                try:
                    call()
                except DataError:
                    pass
