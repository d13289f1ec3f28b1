"""Long-term action anticipation toolkit.

Recognition re-ranking through verb-noun co-occurrence, pluggable
future-sequence predictors (n-gram rollouts, repeat-last, a chat-LLM
endpoint), and edit-distance evaluation, plus a seeded synthetic corpus
generator so the whole pipeline runs end to end at desk scale.
"""

__version__ = "0.1.0"

from .taxonomy import Action, Taxonomy, format_action, load_taxonomy, parse_action, save_taxonomy
from .dataset_io import (
    ClipRecord,
    PredictionSet,
    SegmentDistribution,
    load_annotations,
    load_distributions,
    load_predictions,
    save_annotations,
    save_distributions,
    save_predictions,
)
from .cooccurrence import CooccurrenceMatrix, build_cooccurrence, load_matrix, save_matrix
from .recognition import (
    CandidatePair,
    RecognitionResult,
    group_segments,
    load_recognition,
    naive_clip,
    recognize_clip,
    rerank,
    save_recognition,
    top_k,
)
from .anticipation import (
    LlmPredictor,
    NgramModel,
    NgramPredictor,
    PromptTemplate,
    RepeatLastPredictor,
    fit_ngram,
    format_history,
    parse_response,
    render_prompt,
)
from .llm_client import Failure, LlmClient, LlmConfig, MockLlmClient, complete, mock_from_script
from .metrics import (
    EvalReport,
    ar_accuracy,
    clip_ed,
    corpus_eval,
    damerau_levenshtein,
    format_report,
    normalized_ed,
    save_report,
)
from .synthgen import SynthConfig, SynthCorpus, generate_corpus
from .errors import (
    DataError,
    IntegrityError,
    LlmError,
    ProtocolError,
    ScriptExhausted,
    TransportError,
)

__all__ = [
    "Action",
    "CandidatePair",
    "ClipRecord",
    "CooccurrenceMatrix",
    "DataError",
    "EvalReport",
    "Failure",
    "IntegrityError",
    "LlmClient",
    "LlmConfig",
    "LlmError",
    "LlmPredictor",
    "MockLlmClient",
    "NgramModel",
    "NgramPredictor",
    "PredictionSet",
    "PromptTemplate",
    "ProtocolError",
    "RecognitionResult",
    "RepeatLastPredictor",
    "ScriptExhausted",
    "SegmentDistribution",
    "SynthConfig",
    "SynthCorpus",
    "Taxonomy",
    "TransportError",
    "ar_accuracy",
    "build_cooccurrence",
    "clip_ed",
    "complete",
    "corpus_eval",
    "damerau_levenshtein",
    "fit_ngram",
    "format_action",
    "format_history",
    "format_report",
    "generate_corpus",
    "group_segments",
    "load_annotations",
    "load_distributions",
    "load_matrix",
    "load_predictions",
    "load_recognition",
    "load_taxonomy",
    "mock_from_script",
    "naive_clip",
    "normalized_ed",
    "parse_action",
    "parse_response",
    "recognize_clip",
    "render_prompt",
    "rerank",
    "save_annotations",
    "save_distributions",
    "save_matrix",
    "save_predictions",
    "save_recognition",
    "save_report",
    "save_taxonomy",
    "top_k",
]
