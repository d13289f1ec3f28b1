from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import settings

from ltakit.dataset_io import Annotations, Distributions, Predictions
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


def table(clips) -> Distributions:
    """A distributions table of (clip_id, S x |V| verb_probs, S x |N| noun_probs) clips, in order."""
    starts = np.cumsum([0] + [len(verb) for _, verb, _ in clips]).tolist()
    verb, noun = (np.concatenate([clip[i] for clip in clips]) for i in (1, 2))
    return Distributions([clip_id for clip_id, _, _ in clips], starts, verb, noun)


def clips_of(distributions: Distributions) -> list:
    """Each clip of a table as (clip_id, verb_probs, noun_probs), its rows as views."""
    starts = distributions.starts
    return [(clip_id, distributions.verb_probs[a:b], distributions.noun_probs[a:b])
            for clip_id, a, b in zip(distributions.clip_ids, starts, starts[1:])]


def annotations_table(clips, horizon: int = 0) -> Annotations:
    """An annotations table of (clip_id, observed) or (clip_id, observed, future) clips, in order: lists
    of (verb id, noun id) pairs or L x 2 arrays, a future of None meaning none. The futures share
    one horizon; `horizon` sets it when no clip has a future."""
    observed = [actions(*clip[1]) for clip in clips]
    futures = [actions(*clip[2]) for clip in clips if len(clip) > 2 and clip[2] is not None]
    return Annotations(
        [clip[0] for clip in clips], np.cumsum([0] + [len(pairs) for pairs in observed]).tolist(),
        np.concatenate([actions(), *observed]),
        np.stack(futures) if futures else np.empty((0, horizon, 2), np.intp),
        np.array([len(clip) > 2 and clip[2] is not None for clip in clips], bool),
    )


def annotation_clips(annotations: Annotations) -> list:
    """Each clip of a table as (clip_id, observed, future or None), its rows as views."""
    futures = iter(annotations.future)
    return [(clip_id, annotations.observed[a:b], next(futures) if has_future else None)
            for clip_id, a, b, has_future in zip(annotations.clip_ids, annotations.starts, annotations.starts[1:],
                                                 annotations.has_future.tolist())]


def predictions_table(clips, horizon: int = 0) -> Predictions:
    """A predictions table of (clip_id, K x Z x 2 candidates) clips, in order; `horizon` sets Z when
    there are no clips."""
    candidates = [np.asarray(cands, np.intp) for _, cands in clips]
    return Predictions([clip_id for clip_id, _ in clips], np.cumsum([0] + [len(c) for c in candidates]).tolist(),
                       np.concatenate(candidates) if candidates else np.empty((0, horizon, 2), np.intp))


def prediction_clips(predictions: Predictions) -> list:
    """Each clip of a table as (clip_id, candidates), its candidates as a view."""
    starts = predictions.starts
    return [(clip_id, predictions.candidates[a:b]) for clip_id, a, b in zip(predictions.clip_ids, starts, starts[1:])]


def random_distribution(rng: np.random.Generator, size: int) -> np.ndarray:
    raw = rng.uniform(0.01, 1.0, size)
    return raw / raw.sum()


class JsonHandler(BaseHTTPRequestHandler):
    """Request handler base for test endpoints served by the `serve` fixture."""

    def read_json(self):
        return json.loads(self.rfile.read(int(self.headers["Content-Length"])))

    def reply(self, status: int, body, headers: dict | None = None) -> None:
        """Send `body` (bytes as they are, anything else as JSON) with `status`."""
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        self.send_response(status)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def chat_completion(text: str) -> dict:
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


@pytest.fixture
def serve():
    """`serve(handler_class)` starts an HTTP server on 127.0.0.1 and returns its base URL.

    Servers run in daemon threads and are shut down when the test ends.
    """
    servers = []

    def start(handler) -> str:
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        server.daemon_threads = True
        # A short poll interval keeps shutdown() at teardown quick.
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()
