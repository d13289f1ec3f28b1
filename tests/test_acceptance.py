"""Acceptance suite: ten end-to-end checks, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they happen; without -s they still appear in captured output on failure.
Every check computes its outcome first, prints exactly one [PASS]/[FAIL]
line, then asserts, so a red run always says which guarantee broke.
"""

from __future__ import annotations

import json
import time

import numpy as np

from ltakit.anticipation import NgramPredictor, RepeatLastPredictor, fit_ngram, parse_response
from ltakit.cli import run
from ltakit.cooccurrence import CooccurrenceMatrix, build_cooccurrence
from ltakit.dataset_io import (
    Distributions,
    Predictions,
    load_annotations,
    load_predictions,
    save_predictions,
)
from ltakit.metrics import ar_accuracy, corpus_eval, damerau_levenshtein
from ltakit.recognition import BRANCH_NOUN, BRANCH_VERB, naive_clip, recognize_clip
from ltakit.synthgen import SynthConfig, generate_corpus
from ltakit.taxonomy import Taxonomy, load_taxonomy

from conftest import annotation_clips, annotations_table, predictions_table, random_distribution
from oracles import osa_distance, rerank_reference


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def segment(rng, num_verbs, num_nouns, quantized=False):
    if quantized:
        def vec(size):
            raw = rng.integers(0, 3, size=size).astype(float)
            if raw.sum() == 0:
                raw[int(rng.integers(size))] = 1.0
            return raw / raw.sum()
    else:
        def vec(size):
            return random_distribution(rng, size)
    return Distributions(["clip"], [0, 1], vec(num_verbs)[None], vec(num_nouns)[None])


def test_a01_edit_distance_matches_independent_oracle():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    total, exact = 1200, 0
    for _ in range(total):
        a = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 7)))]
        b = [int(x) for x in rng.integers(0, 4, size=int(rng.integers(0, 7)))]
        exact += damerau_levenshtein(a, b) == osa_distance(a, b)
    elapsed = time.monotonic() - start
    ok = exact == total and elapsed < 30.0
    verdict(
        "A01 edit distance vs oracle",
        ok,
        f"{exact}/{total} random pairs exact (len<=6, 4 tokens) in {elapsed:.1f}s",
    )


def test_a02_reranking_matches_independent_oracle():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    total = exact = 0
    for quantized in (False, True):
        for _ in range(600):
            num_verbs = int(rng.integers(2, 13))
            num_nouns = int(rng.integers(2, 13))
            if quantized:
                counts = rng.integers(0, 3, size=(num_verbs, num_nouns)).astype(float)
                alpha = float(rng.choice([0.0, 1.0]))
            else:
                counts = rng.uniform(0.0, 4.0, (num_verbs, num_nouns))
                alpha = float(rng.choice([0.0, 0.37]))
            matrix = CooccurrenceMatrix(counts, alpha)
            dist = segment(rng, num_verbs, num_nouns, quantized)
            k = int(rng.integers(1, min(num_verbs, num_nouns) + 1))
            result = recognize_clip(dist, matrix, k)
            chosen, candidates, naive, used_fallback = rerank_reference(
                dist.verb_probs[0], dist.noun_probs[0],
                matrix.row_stochastic, matrix.col_stochastic, k,
            )
            got = [
                (v, n, score, BRANCH_VERB if verb_anchored else BRANCH_NOUN)
                for (v, n), score, verb_anchored in zip(
                    result.candidates.tolist(), result.scores.tolist(), result.verb_anchored.tolist()
                )
            ]
            total += 1
            exact += (
                list(map(tuple, result.chosen.tolist())) == [chosen]
                and list(map(tuple, result.naive.tolist())) == [naive]
                and result.fallback.tolist() == [used_fallback]
                and result.counts.tolist() == [len(got)]
                and got == candidates
            )
    elapsed = time.monotonic() - start
    ok = exact == total and elapsed < 30.0
    verdict(
        "A02 re-ranking vs oracle",
        ok,
        f"{exact}/{total} instances exact incl. scores and tie-breaks in {elapsed:.1f}s",
    )


def test_a03_reranking_invariant_to_count_scale():
    rng = np.random.default_rng(1003)
    counts = rng.uniform(0.0, 6.0, (7, 9))
    base = CooccurrenceMatrix(counts, alpha=0.0)
    dists = [segment(rng, 7, 9) for _ in range(200)]
    base_results = [recognize_clip(d, base, k=4) for d in dists]
    worst_delta = 0.0
    stable = True
    for factor in (0.5, 3.0, 1000.0):
        scaled = CooccurrenceMatrix(counts * factor, alpha=0.0)
        worst_delta = max(
            worst_delta,
            float(np.max(np.abs(scaled.row_stochastic - base.row_stochastic))),
            float(np.max(np.abs(scaled.col_stochastic - base.col_stochastic))),
        )
        for dist, want in zip(dists, base_results):
            got = recognize_clip(dist, scaled, k=4)
            if not (np.array_equal(got.chosen, want.chosen) and np.array_equal(got.candidates, want.candidates)):
                stable = False
    ok = worst_delta <= 1e-12 and stable
    verdict(
        "A03 count-scale invariance",
        ok,
        f"max stochastic-form drift {worst_delta:.2e} over x0.5/x3/x1000, "
        f"rankings {'stable' if stable else 'changed'} on 200 segments",
    )


def test_a04_uniform_matrix_reduces_to_naive():
    rng = np.random.default_rng(1004)
    matrix = CooccurrenceMatrix(np.ones((6, 8)), alpha=0.0)
    total, agree = 1000, 0
    for _ in range(total):
        dist = segment(rng, 6, 8)
        result = recognize_clip(dist, matrix, k=3)
        agree += np.array_equal(result.chosen, result.naive) and result.fallback.tolist() == [False]
    ok = agree == total
    verdict(
        "A04 uniform co-occurrence is a no-op",
        ok,
        f"chosen == naive on {agree}/{total} random segments",
    )


def test_a05_reranking_beats_naive_on_corrupted_nouns():
    start = time.monotonic()
    margins = []
    for seed in (101, 202, 303):
        config = SynthConfig(
            num_verbs=8,
            num_nouns=96,
            num_templates=3,
            routine_length=30,
            num_clips=500,
            observed_segments=8,
            horizon=20,
            noise_temperature=0.05,
            noun_distractor_mass=0.4,
            seed=seed,
        )
        corpus = generate_corpus(config)
        matrix = build_cooccurrence(corpus.annotations.actions()[0], corpus.taxonomy, alpha=0.0)
        reranked = recognize_clip(corpus.distributions, matrix, k=5)
        naive = naive_clip(corpus.distributions)
        _, _, rerank_acc = ar_accuracy(reranked, corpus.annotations)
        _, _, naive_acc = ar_accuracy(naive, corpus.annotations)
        margins.append(rerank_acc - naive_acc)
    elapsed = time.monotonic() - start
    ok = all(m > 0 for m in margins) and elapsed < 60.0
    verdict(
        "A05 re-ranking recovers corrupted nouns",
        ok,
        "AR action margin over naive "
        + ", ".join(f"{m:+.1f}pp" for m in margins)
        + f" across 3 seeds (4000 segments each) in {elapsed:.1f}s",
    )


def test_a06_ngram_learns_routines_repeat_last_does_not():
    start = time.monotonic()
    config = SynthConfig(
        num_verbs=8,
        num_nouns=96,
        num_templates=3,
        routine_length=30,
        num_clips=600,
        observed_segments=8,
        horizon=20,
        noise_temperature=0.05,
        seed=77,
    )
    corpus = generate_corpus(config)
    clips = annotation_clips(corpus.annotations)
    train, held_out = annotations_table(clips[:500]), annotations_table(clips[500:])
    model = fit_ngram(*train.actions(), order=2, beta=0.1, taxonomy=corpus.taxonomy)
    histories = held_out.clip_ids, held_out.starts, held_out.observed
    ngram_preds = NgramPredictor(model, mode="greedy").predict_corpus(*histories, 20, 1)
    repeat_preds = RepeatLastPredictor().predict_corpus(*histories, 20, 1)
    ngram_report = corpus_eval(ngram_preds, held_out)
    repeat_report = corpus_eval(repeat_preds, held_out)
    elapsed = time.monotonic() - start
    ok = (
        ngram_report.action_ed <= 0.05
        and repeat_report.action_ed > ngram_report.action_ed
        and elapsed < 60.0
    )
    verdict(
        "A06 order-2 rollouts learn routines",
        ok,
        f"held-out action ED {ngram_report.action_ed:.4f} (<= 0.05) vs "
        f"repeat-last {repeat_report.action_ed:.4f} on 100 clips in {elapsed:.1f}s",
    )


def test_a07_response_parser_is_total():
    rng = np.random.default_rng(1007)
    taxonomy = Taxonomy(["take", "put", "stir"], ["spoon", "pot", "cup", "pan"])
    adversarial = [
        "",
        ",,,,",
        "\n\n\n",
        "1. take spoon, 2) put pot\n(3): garbage here",
        "take  spoon  ,  put\tpot",
        "take spoon put pot",
        "0" * 500,
        "take spoon," * 100,
    ]
    total = ok_count = 0
    for text in adversarial:
        for horizon in (1, 5, 20):
            parsed = parse_response(text, taxonomy, horizon)
            total += 1
            ok_count += parsed.actions.shape == (horizon, 2) and all(
                0 <= v < 3 and 0 <= n < 4 for v, n in parsed.actions.tolist()
            )
    for _ in range(1200):
        blob = bytes(rng.integers(0, 256, size=int(rng.integers(0, 80)), dtype=np.uint8))
        horizon = int(rng.integers(1, 26))
        parsed = parse_response(blob.decode("latin-1"), taxonomy, horizon)
        total += 1
        ok_count += parsed.actions.shape == (horizon, 2) and all(
            0 <= v < 3 and 0 <= n < 4 for v, n in parsed.actions.tolist()
        )
    ok = ok_count == total
    verdict(
        "A07 reply parser is total",
        ok,
        f"{ok_count}/{total} arbitrary inputs yielded exactly-horizon, in-range actions",
    )


def test_a08_extra_candidates_never_hurt():
    rng = np.random.default_rng(1008)
    total = monotone = 0
    for _ in range(1000):
        gt = np.array([(int(rng.integers(4)), int(rng.integers(5))) for _ in range(8)])
        cands = [
            [(int(rng.integers(4)), int(rng.integers(5))) for _ in range(8)]
            for _ in range(4)
        ]
        pairs = np.array(cands)
        # One corpus per K, each holding the same single clip.
        rows = [  # each K's verb, noun and action ED
            corpus_eval(predictions_table([("c", pairs[: j + 1])]), annotations_table([("c", gt[:0], gt)])).eds[0]
            for j in range(4)
        ]
        total += 1
        monotone += all((rows[j + 1] <= rows[j]).all() for j in range(3))
    ok = monotone == total
    verdict(
        "A08 min-over-candidates monotonicity",
        ok,
        f"{monotone}/{total} candidate sets: growing K never increased any track ED",
    )


def test_a09_cli_chain_is_deterministic_and_calibrated(tmp_path):
    start = time.monotonic()
    synth_flags = [
        "--verbs", "6", "--nouns", "36", "--templates", "2", "--routine-length", "12",
        "--clips", "40", "--n-obs", "4", "--horizon", "8",
        "--eps-noun", "0.3", "--seed", "21",
    ]

    def chain(root):
        corpus = root / "corpus"
        art = {
            "matrix": root / "matrix.txt",
            "recognition": root / "recognition.jsonl",
            "predictions": root / "predictions.jsonl",
            "report": root / "report.json",
        }
        codes = [
            run(["synth", "--out-dir", str(corpus), *synth_flags]),
            run([
                "build-cooccur", "--annotations", str(corpus / "annotations.jsonl"),
                "--taxonomy", str(corpus / "taxonomy.txt"), "--horizon", "8",
                "--out", str(art["matrix"]),
            ]),
            run([
                "recognize", "--distributions", str(corpus / "distributions.jsonl"),
                "--matrix", str(art["matrix"]), "--taxonomy", str(corpus / "taxonomy.txt"),
                "--top-k", "4", "--out", str(art["recognition"]),
            ]),
            run([
                "anticipate", "--recognition", str(art["recognition"]),
                "--taxonomy", str(corpus / "taxonomy.txt"), "--predictor", "ngram",
                "--train-annotations", str(corpus / "annotations.jsonl"),
                "--order", "2", "--horizon", "8", "--candidates", "3",
                "--out", str(art["predictions"]),
            ]),
            run([
                "evaluate", "--predictions", str(art["predictions"]),
                "--annotations", str(corpus / "annotations.jsonl"),
                "--taxonomy", str(corpus / "taxonomy.txt"),
                "--recognition", str(art["recognition"]), "--horizon", "8",
                "--out", str(art["report"]),
            ]),
        ]
        return codes, art, corpus

    codes_one, art_one, corpus_one = chain(tmp_path / "one")
    codes_two, art_two, _ = chain(tmp_path / "two")
    clean = all(c == 0 for c in codes_one + codes_two)
    identical = all(
        art_one[key].read_bytes() == art_two[key].read_bytes()
        for key in ("matrix", "recognition", "predictions", "report")
    )

    taxonomy = load_taxonomy(corpus_one / "taxonomy.txt")
    annotations = load_annotations(corpus_one / "annotations.jsonl", taxonomy, horizon=8)
    futured = [clip_id for clip_id, has in zip(annotations.clip_ids, annotations.has_future) if has]
    perfect = Predictions(futured, list(range(len(futured) + 1)), annotations.future)
    perfect_path = tmp_path / "perfect.jsonl"
    save_predictions(perfect_path, perfect, taxonomy)
    report_path = tmp_path / "perfect_report.json"
    calib_code = run([
        "evaluate", "--predictions", str(perfect_path),
        "--annotations", str(corpus_one / "annotations.jsonl"),
        "--taxonomy", str(corpus_one / "taxonomy.txt"),
        "--recognition", str(art_one["recognition"]), "--horizon", "8",
        "--out", str(report_path),
    ])
    if report_path.is_file():
        payload = json.loads(report_path.read_text())
    else:
        payload = {"verb_ed": -1.0, "noun_ed": -1.0, "action_ed": -1.0, "ar_action_acc": -1.0}
    calibrated = (
        calib_code == 0
        and payload["verb_ed"] == 0.0
        and payload["noun_ed"] == 0.0
        and payload["action_ed"] == 0.0
        and payload["ar_action_acc"] == 100.0
    )
    elapsed = time.monotonic() - start
    ok = clean and identical and calibrated and elapsed < 60.0
    verdict(
        "A09 CLI chain determinism and calibration",
        ok,
        f"two runs byte-identical: {identical}; ground-truth predictions score "
        f"ED {payload['action_ed']:.4f} / AR {payload['ar_action_acc']:.2f}% in {elapsed:.1f}s",
    )


def test_a10_scripted_llm_path_survives_failures(tmp_path):
    synth_flags = [
        "--verbs", "4", "--nouns", "20", "--templates", "2", "--routine-length", "10",
        "--clips", "6", "--n-obs", "3", "--horizon", "5", "--seed", "33",
    ]
    corpus = tmp_path / "corpus"
    matrix = tmp_path / "matrix.txt"
    recognition = tmp_path / "recognition.jsonl"
    predictions = tmp_path / "predictions.jsonl"
    request_log = tmp_path / "requests.jsonl"
    codes = [
        run(["synth", "--out-dir", str(corpus), *synth_flags]),
        run([
            "build-cooccur", "--annotations", str(corpus / "annotations.jsonl"),
            "--taxonomy", str(corpus / "taxonomy.txt"), "--horizon", "5",
            "--out", str(matrix),
        ]),
        run([
            "recognize", "--distributions", str(corpus / "distributions.jsonl"),
            "--matrix", str(matrix), "--taxonomy", str(corpus / "taxonomy.txt"),
            "--top-k", "4", "--out", str(recognition),
        ]),
    ]

    reply = ", ".join(["verb_001 noun_001"] * 5)
    script = tmp_path / "script.json"
    # Two injected outages: mid-stream transport failures that must be retried.
    entries = [{"fail": "outage one"}] + [reply] * 5 + [{"fail": "outage two"}] + [reply] * 7
    script.write_text(json.dumps(entries))
    codes.append(run([
        "anticipate", "--recognition", str(recognition),
        "--taxonomy", str(corpus / "taxonomy.txt"), "--predictor", "llm",
        "--llm-script", str(script),
        "--train-annotations", str(corpus / "annotations.jsonl"),
        "--llm-request-log", str(request_log),
        "--horizon", "5", "--candidates", "2", "--out", str(predictions),
    ]))
    clean = all(c == 0 for c in codes)

    taxonomy = load_taxonomy(corpus / "taxonomy.txt")
    loaded = load_predictions(predictions, taxonomy, horizon=5)
    shaped = loaded.starts == list(range(0, 13, 2)) and loaded.candidates.shape == (12, 5, 2)

    logged = [json.loads(l) for l in request_log.read_text().splitlines()]
    # 6 clips x 2 candidates = 12 deliveries, plus 2 retried failures.
    count_right = len(logged) == 14
    bodies_clean = all(set(b) == {"model", "messages", "temperature", "max_tokens"} for b in logged)

    rec_rows = [json.loads(l) for l in recognition.read_text().splitlines()]
    by_clip: dict[str, list] = {}
    for row in rec_rows:
        by_clip.setdefault(row["clip_id"], []).append(row)
    first_clip = rec_rows[0]["clip_id"]
    history = ", ".join(
        r["chosen"] for r in sorted(by_clip[first_clip], key=lambda r: r["segment"])
    )
    prompt_carries_history = history in logged[0]["messages"][1]["content"]

    ok = clean and shaped and count_right and bodies_clean and prompt_carries_history
    verdict(
        "A10 scripted endpoint path",
        ok,
        f"exit codes {codes}, {len(logged)} token-free request bodies logged, "
        f"full history in prompt: {prompt_carries_history}",
    )
