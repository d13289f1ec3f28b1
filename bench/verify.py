"""Correctness checks and workload-property counters, computed from a run's output files.

Nothing here imports ltakit: files are parsed with json, actions stay
"verb noun" strings, and the re-ranking and edit-distance references are the
loop-only implementations in tests/oracles.py.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

SAMPLE = 24  # segments and clips checked against the oracles per run


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_taxonomy(path) -> tuple[dict, dict]:
    sections: dict[str, list[str]] = {"#verbs": [], "#nouns": []}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line in sections:
                current = sections[line]
            elif line:
                current.append(line)
    return ({v: i for i, v in enumerate(sections["#verbs"])},
            {n: i for i, n in enumerate(sections["#nouns"])})


def evenly_spaced(count: int, size: int = SAMPLE) -> list[int]:
    return sorted({i * count // size for i in range(min(size, count))})


@dataclass
class Outputs:
    """Parsed output files of one run, plus the set-up files they were made from."""

    verbs: dict
    nouns: dict
    train: list[dict]
    test: list[dict]
    recognition: list[dict]
    predictions: list[dict]
    report: dict

    @classmethod
    def load(cls, files: dict) -> "Outputs":
        verbs, nouns = read_taxonomy(files["taxonomy"])
        with open(files["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        return cls(verbs, nouns, read_jsonl(files["train"]), read_jsonl(files["test"]),
                   read_jsonl(files["recognition"]), read_jsonl(files["predictions"]), report)

    def ids(self, token: str) -> tuple[int, int]:
        verb, noun = token.split(" ")
        return self.verbs[verb], self.nouns[noun]

    def histories(self) -> dict[str, list[str]]:
        rows = sorted(self.recognition, key=lambda r: (r["clip_id"], r["segment"]))
        out: dict[str, list[str]] = {}
        for row in rows:
            out.setdefault(row["clip_id"], []).append(row["chosen"])
        return out


def _stochastic(counts: list[list[float]]) -> tuple[list[list[float]], list[list[float]]]:
    row_sums = [sum(r) for r in counts]
    col_sums = [sum(r[n] for r in counts) for n in range(len(counts[0]))]
    row = [[c / s if s > 0 else 0.0 for c in r] for r, s in zip(counts, row_sums)]
    col = [[c / s if s > 0 else 0.0 for c, s in zip(r, col_sums)] for r in counts]
    return row, col


def check_rerank(out: Outputs, distributions_path, top_k: int | None, oracles) -> tuple[bool, str]:
    """Sampled segments vs oracles.rerank_reference (or the per-track argmax when naive)."""
    with open(distributions_path, encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    by_key = {(r["clip_id"], r["segment"]): r for r in out.recognition}
    if top_k is not None:
        actions = lambda tokens: [SimpleNamespace(verb=v, noun=n) for v, n in map(out.ids, tokens)]
        clips = [SimpleNamespace(observed=actions(c["observed"]), future=actions(c.get("future") or []))
                 for c in out.train]
        counts = oracles.tally_cooccurrence(clips, len(out.verbs), len(out.nouns))
        row, col = _stochastic(counts)
    bad = []
    for index in evenly_spaced(len(lines)):
        dist = json.loads(lines[index])
        verb_probs = np.asarray(dist["verb_probs"], dtype=float)
        noun_probs = np.asarray(dist["noun_probs"], dtype=float)
        verb_probs, noun_probs = verb_probs / verb_probs.sum(), noun_probs / noun_probs.sum()
        got = by_key.get((dist["clip_id"], dist["segment"]))
        naive = (int(np.argmax(verb_probs)), int(np.argmax(noun_probs)))
        if got is None:
            bad.append(f"{dist['clip_id']}/{dist['segment']} missing")
            continue
        if top_k is None:
            expected = (naive, naive, False, [])
        else:
            chosen, candidates, naive, fallback = oracles.rerank_reference(
                verb_probs, noun_probs, row, col, top_k)
            expected = (chosen, naive, fallback, candidates)
        actual = (out.ids(got["chosen"]), out.ids(got["naive"]), got["fallback"],
                  [(*out.ids(c["action"]), c["score"], c["branch"]) for c in got["candidates"]])
        if actual != expected:
            bad.append(f"{dist['clip_id']}/{dist['segment']}")
    return not bad, f"{len(evenly_spaced(len(lines)))} segments, mismatched: {bad[:3]}"


def check_ed(out: Outputs, oracles) -> tuple[bool, str]:
    """Sampled clips: per-track min ED and best index vs oracles.min_track_ed."""
    futures = {c["clip_id"]: c["future"] for c in out.test}
    per_clip = {c["clip_id"]: c for c in out.report["clips"]}
    tracks = {"verb": lambda t: t.split(" ")[0], "noun": lambda t: t.split(" ")[1],
              "action": lambda t: t}
    bad = []
    sample = [out.predictions[i] for i in evenly_spaced(len(out.predictions))]
    for pred in sample:
        row = per_clip.get(pred["clip_id"])
        for track, project in tracks.items():
            ed, best = oracles.min_track_ed(pred["candidates"], futures[pred["clip_id"]], project)
            if row is None or (row[f"{track}_ed"], row[f"best_{track}"]) != (ed, best):
                bad.append(f"{pred['clip_id']}/{track}")
    return not bad, f"{len(sample)} clips, mismatched: {bad[:3]}"


def check_shape(out: Outputs, candidates: int, horizon: int) -> tuple[bool, str]:
    """Every test clip has exactly one prediction set of K candidates of Z actions."""
    ids = [p["clip_id"] for p in out.predictions]
    wrong = [p["clip_id"] for p in out.predictions
             if len(p["candidates"]) != candidates
             or any(len(c) != horizon for c in p["candidates"])]
    same_clips = ids == [c["clip_id"] for c in out.test]
    return same_clips and not wrong, f"{len(ids)} sets, same clips: {same_clips}, wrong shape: {wrong[:3]}"


def recognition_counters(out: Outputs) -> dict:
    truth = {c["clip_id"]: c["observed"] for c in out.test}
    flips = [r for r in out.recognition if r["chosen"] != r["naive"]]
    right = sum(r["chosen"] == truth[r["clip_id"]][r["segment"]] for r in flips)
    return {
        "recognition.segments": len(out.recognition),
        "recognition.flips": len(flips),
        "recognition.flips_correct_share": right / len(flips) if flips else 0.0,
        "recognition.fallbacks": sum(bool(r["fallback"]) for r in out.recognition),
    }


def context_counters(out: Outputs, order: int) -> dict:
    """Shares of rollout steps whose order-(m-1) context repeats within the run,
    and whose context never occurs in the train annotations."""
    width = order - 1
    train_contexts = set()
    for clip in out.train:
        seq = clip["observed"] + (clip.get("future") or [])
        train_contexts.update(tuple(seq[i:i + width]) for i in range(len(seq) - order + 1))
    histories = out.histories()
    seen = set()
    steps = repeats = unseen = 0
    for pred in out.predictions:
        history = histories[pred["clip_id"]]
        for candidate in pred["candidates"]:
            seq = history + candidate
            for t in range(len(history), len(seq)):
                context = tuple(seq[t - width:t])
                steps += 1
                repeats += context in seen
                unseen += context not in train_contexts
                seen.add(context)
    return {
        "anticipation.context_repeat_share": repeats / steps,
        "anticipation.unseen_context_share": unseen / steps,
    }
