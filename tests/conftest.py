from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from ltakit.taxonomy import Taxonomy

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


@pytest.fixture
def kitchen() -> Taxonomy:
    return Taxonomy(
        ["take", "put", "stir", "wash"],
        ["spoon", "pot", "cup", "pan", "bowl"],
    )


def actions(*pairs) -> np.ndarray:
    """An L x 2 array of (verb id, noun id) rows, one per pair given."""
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.uniform(0.01, 1.0, size)
    return raw / raw.sum()
