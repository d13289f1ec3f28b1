"""Seeded synthetic corpora for exercising the whole pipeline at desk scale.

Routines are action cycles drawn from a structured compatibility pattern:
noun n is compatible with exactly one verb (n mod |V|), so the ground-truth
co-occurrence matrix is block-structured. Template actions are sampled
without replacement, which keeps every action's successor unique and makes
the cycles learnable by a low-order Markov model. Clips are wraparound
windows over a routine: the first chunk observed, the next `horizon` the
future.

Per-segment recognition distributions soften the true one-hot with a
temperature, then (optionally) move distractor mass onto confusable labels:
for nouns, the distractors are nouns compatible with *other* verbs, which
is exactly the error co-occurrence re-ranking can undo. The mass moved is
drawn per segment from U(0, 2 * configured mass), so some segments flip
their argmax and some do not.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset_io import ClipDistributions, ClipRecord
from .errors import DataError
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class SynthConfig:
    num_verbs: int = 8
    num_nouns: int = 96
    num_templates: int = 3
    routine_length: int = 30
    num_clips: int = 200
    observed_segments: int = 8
    horizon: int = 20
    noise_temperature: float = 0.05
    verb_distractor_mass: float = 0.0
    noun_distractor_mass: float = 0.0
    routine_jitter: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        for name in ("num_verbs", "num_nouns", "num_templates", "routine_length", "num_clips",
                     "observed_segments", "horizon"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if self.observed_segments + self.horizon > self.routine_length:
            raise DataError(
                f"observed_segments + horizon = {self.observed_segments + self.horizon} "
                f"exceeds routine_length = {self.routine_length}"
            )
        if not self.noise_temperature > 0:
            raise DataError("noise_temperature must be > 0")
        for name in ("verb_distractor_mass", "noun_distractor_mass"):
            value = getattr(self, name)
            if not 0 <= value < 1:
                raise DataError(f"{name} must lie in [0, 1)")
        if not 0 <= self.routine_jitter <= 1:
            raise DataError("routine_jitter must lie in [0, 1]")
        if self.num_templates * self.routine_length > self.num_nouns:
            raise DataError(
                "templates draw actions without replacement, so "
                f"num_templates * routine_length = {self.num_templates * self.routine_length} "
                f"must not exceed num_nouns = {self.num_nouns}"
            )


@dataclass(eq=False)
class SynthCorpus:
    """A generated corpus; `templates` is T x routine_length x 2, one (verb id, noun id) routine per row."""

    taxonomy: Taxonomy
    annotations: list[ClipRecord]
    distributions: list[ClipDistributions]
    templates: np.ndarray


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


def _noisy_vector(size, true_index, distractor_pool, mass, temperature, rng) -> np.ndarray:
    logits = np.zeros(size)
    logits[true_index] = 1.0
    vec = _softmax(logits / temperature)
    if mass > 0 and distractor_pool:
        drawn = min(float(rng.uniform(0.0, 2.0 * mass)), 0.95)
        target = distractor_pool[int(rng.integers(len(distractor_pool)))]
        vec = (1.0 - drawn) * vec
        vec[target] += drawn
    return vec / vec.sum()


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Deterministically generate taxonomy, annotations, and distributions from a seed."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    num_verbs, num_nouns = config.num_verbs, config.num_nouns
    taxonomy = Taxonomy(
        [f"verb_{i:03d}" for i in range(num_verbs)],
        [f"noun_{j:03d}" for j in range(num_nouns)],
    )
    verb_pools = [[u for u in range(num_verbs) if u != v] for v in range(num_verbs)]
    noun_pools = [[n for n in range(num_nouns) if n % num_verbs != v] for v in range(num_verbs)]

    length = config.routine_length
    drawn = rng.permutation(num_nouns)[: config.num_templates * length].astype(np.intp)
    templates = np.stack([drawn % num_verbs, drawn], axis=1).reshape(config.num_templates, length, 2)

    window = config.observed_segments + config.horizon
    annotations: list[ClipRecord] = []
    distributions: list[ClipDistributions] = []
    for c in range(config.num_clips):
        routine = templates[int(rng.integers(config.num_templates))]
        offset = int(rng.integers(length))
        actions = routine[(offset + np.arange(window)) % length]
        if config.routine_jitter > 0:
            for i in range(window):
                if rng.random() < config.routine_jitter:
                    noun = int(rng.integers(num_nouns))
                    actions[i] = noun % num_verbs, noun
        clip_id = f"clip_{c:05d}"
        observed = actions[: config.observed_segments]
        annotations.append(ClipRecord(clip_id, observed, actions[config.observed_segments :]))
        verbs, nouns = [], []
        for verb, noun in observed.tolist():
            verbs.append(_noisy_vector(
                num_verbs, verb, verb_pools[verb], config.verb_distractor_mass, config.noise_temperature, rng
            ))
            nouns.append(_noisy_vector(
                num_nouns, noun, noun_pools[verb], config.noun_distractor_mass, config.noise_temperature, rng
            ))
        distributions.append(ClipDistributions(clip_id, np.array(verbs), np.array(nouns)))
    return SynthCorpus(taxonomy, annotations, distributions, templates)


def provenance(config: SynthConfig, version: str) -> dict:
    """Everything needed to regenerate a corpus byte-for-byte."""
    return {"generator": "ltakit.synthgen", "version": version, "config": asdict(config)}
