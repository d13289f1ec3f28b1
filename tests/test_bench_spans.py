"""bench/spans.py wraps ltakit functions by the names ltakit.cli binds; each must exist."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"
