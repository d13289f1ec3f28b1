"""Long-term action anticipation toolkit.

Recognition re-ranking through verb-noun co-occurrence, pluggable
future-sequence predictors (n-gram rollouts, repeat-last, a chat-LLM
endpoint), and edit-distance evaluation, plus a seeded synthetic corpus
generator so the whole pipeline runs end to end at desk scale.

The package namespace holds what the README's "Library use" example imports
and the error types; every other name is imported from its submodule.
"""

__version__ = "0.1.0"

from .anticipation import NgramPredictor, fit_ngram
from .cooccurrence import build_cooccurrence
from .errors import (
    DataError,
    IntegrityError,
    LlmError,
    ProtocolError,
    ScriptExhausted,
    TransportError,
)
from .metrics import corpus_eval
from .recognition import recognize_clip
from .synthgen import SynthConfig, generate_corpus

__all__ = [
    "DataError",
    "IntegrityError",
    "LlmError",
    "NgramPredictor",
    "ProtocolError",
    "ScriptExhausted",
    "SynthConfig",
    "TransportError",
    "build_cooccurrence",
    "corpus_eval",
    "fit_ngram",
    "generate_corpus",
    "recognize_clip",
]
