from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from ltakit.cooccurrence import build_cooccurrence
from ltakit.dataset_io import (
    load_annotations,
    load_distributions,
    save_annotations,
    save_distributions,
)
from ltakit.errors import DataError
from ltakit.metrics import ar_accuracy
from ltakit.recognition import naive_clip, recognize_clip
from ltakit.synthgen import SynthConfig, generate_corpus, provenance
from ltakit.taxonomy import save_taxonomy

from conftest import annotation_clips, clips_of
from oracles import synth_rows


def small_config(**overrides):
    base = dict(
        num_verbs=4,
        num_nouns=24,
        num_templates=2,
        routine_length=10,
        num_clips=12,
        observed_segments=3,
        horizon=5,
        noise_temperature=0.05,
        seed=5,
    )
    base.update(overrides)
    return SynthConfig(**base)


def as_lists(annotations):
    """An annotations table as comparable plain lists: (clip id, observed pairs, future pairs or None)."""
    return [(clip_id, observed.tolist(), None if future is None else future.tolist())
            for clip_id, observed, future in annotation_clips(annotations)]


class TestConfigValidation:
    def test_default_config_is_valid(self):
        SynthConfig().validate()

    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"num_clips": 0}, "num_clips"),
            ({"observed_segments": 6, "horizon": 5}, "routine_length"),
            ({"noise_temperature": 0.0}, "noise_temperature"),
            ({"noun_distractor_mass": 1.0}, "noun_distractor_mass"),
            ({"verb_distractor_mass": -0.1}, "verb_distractor_mass"),
            ({"routine_jitter": 1.5}, "routine_jitter"),
            ({"num_templates": 3, "routine_length": 10, "num_nouns": 24}, "replacement"),
            ({"noise_temperature": 1e-320}, "1 / noise_temperature finite"),  # softening would overflow
        ],
    )
    def test_invalid_configs_rejected(self, overrides, fragment):
        with pytest.raises(DataError, match=fragment):
            small_config(**overrides).validate()


class TestCorpusShape:
    def test_counts_and_lengths(self):
        config = small_config()
        corpus = generate_corpus(config)
        assert corpus.taxonomy.num_verbs == 4
        assert corpus.taxonomy.num_nouns == 24
        assert len(corpus.annotations.clip_ids) == 12
        assert corpus.distributions.clip_ids == corpus.annotations.clip_ids
        assert corpus.distributions.starts == corpus.annotations.starts == list(range(0, 37, 3))
        assert corpus.distributions.verb_probs.shape == (36, 4) and corpus.distributions.noun_probs.shape == (36, 24)
        assert corpus.annotations.observed.shape == (36, 2)
        assert corpus.annotations.future.shape == (12, 5, 2) and corpus.annotations.has_future.all()
        assert corpus.templates.shape == (2, 10, 2)
        assert corpus.annotations.observed.dtype == corpus.annotations.future.dtype == np.intp

    def test_clip_ids_are_unique_and_ordered(self):
        corpus = generate_corpus(small_config())
        ids = corpus.annotations.clip_ids
        assert ids == sorted(set(ids))

    def test_actions_follow_compatibility_pattern(self):
        corpus = generate_corpus(small_config())
        for verb, noun in corpus.annotations.actions()[0].tolist():
            assert noun % 4 == verb

    def test_cooccurrence_counts_live_on_compatible_cells_only(self):
        corpus = generate_corpus(small_config())
        matrix = build_cooccurrence(corpus.annotations.actions()[0], corpus.taxonomy, alpha=0.0)
        for v in range(4):
            for n in range(24):
                if n % 4 != v:
                    assert matrix.counts[v, n] == 0.0

    def test_template_actions_never_repeat(self):
        corpus = generate_corpus(small_config())
        seen = [tuple(a) for t in corpus.templates.tolist() for a in t]
        assert len(set(seen)) == len(seen)

    def test_clips_are_windows_of_a_template(self):
        corpus = generate_corpus(small_config())
        cycles = set()
        for template in corpus.templates.tolist():
            doubled = [tuple(a) for a in template + template]
            for start in range(len(template)):
                cycles.add(tuple(doubled[start : start + 8]))
        for _, observed, future in annotation_clips(corpus.annotations):
            assert tuple(map(tuple, np.concatenate([observed, future]).tolist())) in cycles

    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    @pytest.mark.parametrize("shape", [
        # the bench's corpus, fewer clips
        dict(num_verbs=97, num_nouns=300, observed_segments=8, horizon=20, noun_distractor_mass=0.3,
             routine_jitter=0.05, num_templates=3, routine_length=30, num_clips=24),
        dict(num_verbs=8, num_nouns=96, verb_distractor_mass=0.2, noun_distractor_mass=0.3,
             routine_jitter=0.1, num_clips=40),
        dict(num_clips=40),  # the defaults: no distractors
        dict(num_verbs=1, num_nouns=12, num_templates=1, routine_length=10, observed_segments=4, horizon=6,
             verb_distractor_mass=0.5, noun_distractor_mass=0.5, num_clips=5),  # empty distractor pools
    ], ids=["bench", "8x96-distractors", "defaults", "one-verb"])
    def test_rows_equal_row_by_row_reference_bitwise(self, seed, shape):
        # The rows are built as whole arrays; each must keep the bits of the
        # per-segment softmax, distractor move and renormalization.
        config = SynthConfig(**shape, seed=seed)
        corpus = generate_corpus(config)
        reference = synth_rows(config)
        assert len(corpus.distributions.clip_ids) == len(reference) == config.num_clips
        for (_, verb_probs, noun_probs), (verbs, nouns) in zip(clips_of(corpus.distributions), reference):
            assert verb_probs.dtype == noun_probs.dtype == np.float64
            assert verb_probs.tobytes() == verbs.tobytes() and verb_probs.shape == verbs.shape
            assert noun_probs.tobytes() == nouns.tobytes() and noun_probs.shape == nouns.shape

    def test_distributions_are_normalized(self):
        corpus = generate_corpus(small_config(noun_distractor_mass=0.4))
        dist = corpus.distributions
        assert dist.verb_probs.sum(axis=1) == pytest.approx(1.0)
        assert dist.noun_probs.sum(axis=1) == pytest.approx(1.0)
        assert np.all(dist.verb_probs >= 0)
        assert np.all(dist.noun_probs >= 0)


class TestDeterminism:
    def test_same_seed_identical_corpus(self):
        a = generate_corpus(small_config())
        b = generate_corpus(small_config())
        assert as_lists(a.annotations) == as_lists(b.annotations)
        da, db = a.distributions, b.distributions
        assert da.clip_ids == db.clip_ids and da.starts == db.starts
        assert np.array_equal(da.verb_probs, db.verb_probs)
        assert np.array_equal(da.noun_probs, db.noun_probs)

    def test_same_seed_identical_files(self, tmp_path):
        for which in ("one", "two"):
            corpus = generate_corpus(small_config(noun_distractor_mass=0.3))
            save_taxonomy(tmp_path / f"{which}.tax", corpus.taxonomy)
            save_annotations(tmp_path / f"{which}.ann", corpus.annotations, corpus.taxonomy)
            save_distributions(tmp_path / f"{which}.dist", corpus.distributions)
        assert (tmp_path / "one.tax").read_bytes() == (tmp_path / "two.tax").read_bytes()
        assert (tmp_path / "one.ann").read_bytes() == (tmp_path / "two.ann").read_bytes()
        assert (tmp_path / "one.dist").read_bytes() == (tmp_path / "two.dist").read_bytes()

    def test_different_seed_differs(self):
        a = generate_corpus(small_config(seed=5))
        b = generate_corpus(small_config(seed=6))
        assert as_lists(a.annotations) != as_lists(b.annotations)


class TestRoundTrip:
    def test_generated_files_satisfy_the_loaders(self, tmp_path):
        config = small_config(noun_distractor_mass=0.4, verb_distractor_mass=0.1)
        corpus = generate_corpus(config)
        save_annotations(tmp_path / "ann.jsonl", corpus.annotations, corpus.taxonomy)
        save_distributions(tmp_path / "dist.jsonl", corpus.distributions)
        annotations = load_annotations(tmp_path / "ann.jsonl", corpus.taxonomy, horizon=5)
        assert as_lists(annotations) == as_lists(corpus.annotations)
        got, want = load_distributions(tmp_path / "dist.jsonl", corpus.taxonomy), corpus.distributions
        assert got.clip_ids == want.clip_ids and got.starts == want.starts
        assert np.allclose(got.verb_probs, want.verb_probs, atol=1e-12)
        assert np.allclose(got.noun_probs, want.noun_probs, atol=1e-12)


class TestNoiseBehaviour:
    def test_noiseless_distributions_argmax_to_truth(self):
        corpus = generate_corpus(small_config())
        truth = {(clip_id, i): a for clip_id, observed, _ in annotation_clips(corpus.annotations)
                 for i, a in enumerate(observed)}
        for clip_id, verbs, nouns in clips_of(corpus.distributions):
            for i, (verb_probs, noun_probs) in enumerate(zip(verbs, nouns)):
                want = truth[(clip_id, i)]
                assert int(np.argmax(verb_probs)) == want[0]
                assert int(np.argmax(noun_probs)) == want[1]

    def test_distractor_mass_lands_on_incompatible_nouns(self):
        config = small_config(noun_distractor_mass=0.4, num_clips=30)
        corpus = generate_corpus(config)
        truth = {(clip_id, i): a for clip_id, observed, _ in annotation_clips(corpus.annotations)
                 for i, a in enumerate(observed)}
        flipped = 0
        for clip_id, _, nouns in clips_of(corpus.distributions):
            for i, noun_probs in enumerate(nouns):
                want = truth[(clip_id, i)]
                top = int(np.argmax(noun_probs))
                if top != want[1]:
                    flipped += 1
                    assert top % 4 != want[0]
        assert flipped > 0

    def test_reranking_beats_naive_on_noisy_nouns(self):
        config = small_config(
            num_nouns=24, num_clips=40, noun_distractor_mass=0.45, seed=11
        )
        corpus = generate_corpus(config)
        matrix = build_cooccurrence(corpus.annotations.actions()[0], corpus.taxonomy, alpha=0.0)
        reranked = recognize_clip(corpus.distributions, matrix, k=4)
        naive = naive_clip(corpus.distributions)
        _, _, rerank_acc = ar_accuracy(reranked, corpus.annotations)
        _, _, naive_acc = ar_accuracy(naive, corpus.annotations)
        assert rerank_acc > naive_acc

    def test_jitter_breaks_cycles(self):
        base = generate_corpus(small_config(seed=3))
        jittered = generate_corpus(small_config(seed=3, routine_jitter=0.5))
        assert as_lists(base.annotations) != as_lists(jittered.annotations)


class TestProvenance:
    def test_provenance_round_trips_config(self):
        config = small_config(noun_distractor_mass=0.25)
        info = provenance(config, "0.1.0")
        assert info["version"] == "0.1.0"
        rebuilt = SynthConfig(**info["config"])
        assert rebuilt == config
        assert dataclasses.asdict(rebuilt) == info["config"]
