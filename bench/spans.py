"""In-memory span recorder wrapped around the public functions ltakit.cli calls.

A span is (run id, span id, parent id, name, start, end, attributes). The
parent is the innermost open span on the same thread; a span opened on a
worker thread with nothing open there gets the current stage span as its
parent, so `--workers N` calls still nest under their stage. Spans stay in
memory until `dump` writes them out at the end of a run.

Wrappers are installed only inside `Tracer.installed()` and the original
attributes are restored on exit, so untraced runs execute unmodified code.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager

_MISSING = object()


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.clients: list = []  # LlmClient instances seen, for attempt counts
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, root: bool = False):
        """Record one span; the yielded dict becomes the span's attributes."""
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            span_id = next(self._ids)
        attrs: dict = {}
        stack.append(span_id)
        if root:
            self._root = span_id
        start = time.perf_counter()
        try:
            yield attrs
        except BaseException:
            attrs["error"] = True
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            record = {"run": self.run_id, "id": span_id, "parent": parent, "name": name,
                      "start": start, "end": end, "attrs": attrs}
            with self._lock:
                self.spans.append(record)

    def wrap(self, name: str, fn, on_result=None, on_self=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_self:
                with self._lock:
                    if not any(c is args[0] for c in self.clients):
                        self.clients.append(args[0])
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    attrs.update(on_result(result))
                return result

        return traced

    @contextmanager
    def installed(self):
        """Patch the traced names for the duration of the block, then restore them."""
        saved = []
        try:
            for owner, attr, name, extra in _targets():
                saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), **extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def _parse_counts(parsed) -> dict:
    return {"skipped": len(parsed.skipped), "padded": parsed.padded}


def _targets():
    """(owner, attribute, span name, wrap options) for every traced call site."""
    import ltakit.anticipation as anticipation
    import ltakit.cli as cli
    from ltakit.anticipation import LlmPredictor, NgramPredictor
    from ltakit.llm_client import LlmClient

    layers = {
        "synthgen": ["generate_corpus"],
        "dataset_io": ["load_annotations", "load_distributions", "load_predictions",
                       "save_annotations", "save_distributions", "save_predictions"],
        "cooccurrence": ["build_cooccurrence", "save_matrix", "load_matrix"],
        "recognition": ["recognize_clip", "naive_clip", "save_recognition", "load_recognition"],
        "anticipation": ["fit_ngram"],
        "metrics": ["corpus_eval", "save_report"],
    }
    targets = [(cli, fn, f"{layer}.{fn}", {}) for layer, fns in layers.items() for fn in fns]
    targets += [
        (NgramPredictor, "predict", "anticipation.NgramPredictor.predict", {}),
        (LlmPredictor, "predict", "anticipation.LlmPredictor.predict", {}),
        (LlmClient, "complete", "llm_client.LlmClient.complete", {"on_self": True}),
        (anticipation, "parse_response", "anticipation.parse_response",
         {"on_result": _parse_counts}),
    ]
    return targets
