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

import math
from dataclasses import asdict, dataclass

import numpy as np

from .dataset_io import Annotations, Distributions
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
        if not (self.noise_temperature > 0 and math.isfinite(1 / self.noise_temperature)):
            raise DataError("noise_temperature must be > 0 with 1 / noise_temperature finite")
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
    annotations: Annotations
    distributions: Distributions
    templates: np.ndarray


def _noisy_rows(size: int, true_ids: np.ndarray, drawn: np.ndarray, targets: np.ndarray,
                temperature: float) -> np.ndarray:
    """One probability row per segment, built as whole-array passes: the one-hot of its true id,
    softened (`/ temperature`, `exp(x - rowmax)`, `/ rowsum`), then `drawn` of its mass moved
    onto its distractor `targets` and `/ rowsum` again. A row that draws none moves 0.0, which
    leaves its bits as they are."""
    rows = np.zeros((len(true_ids), size))
    segments = np.arange(len(true_ids))
    rows[segments, true_ids] = 1.0
    rows /= temperature
    rows -= rows.max(axis=1, keepdims=True)
    np.exp(rows, out=rows)
    rows /= rows.sum(axis=1, keepdims=True)
    rows *= (1.0 - drawn)[:, None]
    rows[segments, targets] += drawn
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """Deterministically generate taxonomy, annotations, and distributions from a seed.

    The generator is called clip by clip in a fixed order (template, offset,
    jitter; then per segment the verb distractor, then the noun one), and the
    probability rows are built afterwards for the whole corpus at once.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    num_verbs, num_nouns = config.num_verbs, config.num_nouns
    taxonomy = Taxonomy(
        [f"verb_{i:03d}" for i in range(num_verbs)],
        [f"noun_{j:03d}" for j in range(num_nouns)],
    )
    verb_pools = [[u for u in range(num_verbs) if u != v] for v in range(num_verbs)]
    noun_pools = [[n for n in range(num_nouns) if n % num_verbs != v] for v in range(num_verbs)]

    def distractor(pool: list[int], mass: float) -> tuple[float, int]:
        """(mass moved, distractor id) for one segment's row; (0.0, 0) when nothing is drawn."""
        if mass > 0 and pool:
            drawn = min(float(rng.uniform(0.0, 2.0 * mass)), 0.95)
            return drawn, pool[int(rng.integers(len(pool)))]
        return 0.0, 0

    length = config.routine_length
    drawn = rng.permutation(num_nouns)[: config.num_templates * length].astype(np.intp)
    templates = np.stack([drawn % num_verbs, drawn], axis=1).reshape(config.num_templates, length, 2)

    window, num_obs = config.observed_segments + config.horizon, config.observed_segments
    windows = np.empty((config.num_clips, window, 2), np.intp)
    moves = []  # per segment: verb mass, verb distractor, noun mass, noun distractor
    for actions in windows:
        routine = templates[int(rng.integers(config.num_templates))]
        offset = int(rng.integers(length))
        actions[:] = routine[(offset + np.arange(window)) % length]
        if config.routine_jitter > 0:
            for i in range(window):
                if rng.random() < config.routine_jitter:
                    noun = int(rng.integers(num_nouns))
                    actions[i] = noun % num_verbs, noun
        for verb in actions[:num_obs, 0].tolist():
            moves.append((*distractor(verb_pools[verb], config.verb_distractor_mass),
                          *distractor(noun_pools[verb], config.noun_distractor_mass)))
    observed, moves = windows[:, :num_obs].reshape(-1, 2), np.array(moves)
    temperature = config.noise_temperature
    verbs = _noisy_rows(num_verbs, observed[:, 0], moves[:, 0], moves[:, 1].astype(np.intp), temperature)
    nouns = _noisy_rows(num_nouns, observed[:, 1], moves[:, 2], moves[:, 3].astype(np.intp), temperature)
    clip_ids, starts = [f"clip_{c:05d}" for c in range(config.num_clips)], list(range(0, len(observed) + 1, num_obs))
    annotations = Annotations(clip_ids, starts, observed, windows[:, num_obs:], np.ones(config.num_clips, bool))
    return SynthCorpus(taxonomy, annotations, Distributions(clip_ids, starts, verbs, nouns), templates)


def provenance(config: SynthConfig, version: str) -> dict:
    """Everything needed to regenerate a corpus byte-for-byte."""
    return {"generator": "ltakit.synthgen", "version": version, "config": asdict(config)}
