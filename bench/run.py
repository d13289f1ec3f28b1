"""Pipeline benchmark for ltakit: set-up, timed pipeline runs, correctness checks, one JSON line.

Usage (from the repository root):

    python3 bench/run.py --workload routine --seed 7 --seconds 50 --trace 0

Set-up (synthesize a seeded corpus, split it by clip order into a train and
a test half, start the stub endpoint when the workload needs one) runs in
this process. The pipeline (build-cooccur -> recognize -> anticipate ->
evaluate through ltakit.cli.run) runs in a separate process, bench/pipeline.py,
repeatedly until --seconds are spent. Outputs are then checked against
independent references (bench/verify.py, tests/oracles.py).

--trace 0 prints the end-to-end metrics, and set-up is repeated between
chunks of the pipeline window so that its samples span the same time;
--trace 1 traces alternate iterations and prints the per-layer metrics.
Either way the last line of standard output is {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable table and the sha256 of every output. See
bench/NOTES.md for why each workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from pipeline import sha256_file

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Untraced runs split the pipeline window into SETUP_SAMPLES equal chunks and
# time set-up once before each chunk. Host CPU speed drifts over tens of
# seconds; samples spread over the whole window see the same drift that the
# pipeline totals average over, where back-to-back samples see one phase of it.
SETUP_SAMPLES = 7

# Both workloads share one corpus (ROADMAP's fixed vocabulary) and its shape.
CLIPS = 160  # the first half trains, the second half is scored
VERBS, NOUNS, HORIZON = 97, 300, 20
CORPUS = ["--verbs", str(VERBS), "--nouns", str(NOUNS), "--n-obs", "8",
          "--horizon", str(HORIZON), "--eps-noun", "0.3", "--jitter", "0.05",
          "--templates", "3", "--routine-length", "30"]
CANDIDATES = 5
ORDER = 2  # n-gram order whose contexts the context shares describe


@dataclass(frozen=True)
class Workload:
    recognize: list
    anticipate: list
    top_k: int | None  # None: naive recognition
    heldout_ed: bool = True  # action ED of 0 means train leaked into test
    stub: bool = False


WORKLOADS = {
    "routine": Workload(
        recognize=["--top-k", "5"], top_k=5,
        anticipate=["--predictor", "ngram", "--order", str(ORDER), "--mode", "greedy"],
    ),
    "llm-stub": Workload(
        recognize=["--naive"], top_k=None,
        anticipate=["--predictor", "llm", "--llm-model", "stub", "--workers", "2"],
        heldout_ed=False, stub=True,
    ),
}

# Printed in the --trace 0 table but not in the result line: held-out ED varies
# too much across seeds to bound (bench/NOTES.md), and failures are carried by
# the result line's attempted/failed counts.
TABLE_ONLY = {"verb_ed": "ratio", "noun_ed": "ratio", "action_ed": "ratio", "failed_frac": "ratio"}


class Ledger:
    """Counts attempted operations and failures, and keeps a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {name}: {detail}")
        return ok


def quiet_cli(argv: list[str]) -> int:
    from ltakit.cli import run

    with contextlib.redirect_stdout(io.StringIO()):
        return run(argv)


def split_corpus(wdir: Path, train_clips: int) -> None:
    """First `train_clips` annotated clips train, the rest are the test split."""
    with open(wdir / "annotations.jsonl", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    (wdir / "train.jsonl").write_text("".join(lines[:train_clips]), encoding="utf-8")
    (wdir / "test.jsonl").write_text("".join(lines[train_clips:]), encoding="utf-8")
    test_ids = {json.loads(line)["clip_id"] for line in lines[train_clips:]}
    with open(wdir / "distributions.jsonl", encoding="utf-8") as src, \
            open(wdir / "test_distributions.jsonl", "w", encoding="utf-8") as dst:
        for line in src:
            # save_distributions writes {"clip_id": "<id>", ... first; reading the id
            # off the line avoids parsing tens of MB of scores during set-up.
            key, _, clip_id = line.split('"', 4)[1:4]
            if key != "clip_id":
                raise RuntimeError("distributions line does not start with clip_id")
            if clip_id in test_ids:
                dst.write(line)


def start_stub() -> tuple[subprocess.Popen, int]:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "stub.py"), "--verbs", str(VERBS), "--nouns", str(NOUNS),
         "--horizon", str(HORIZON)],
        stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if not line.startswith("port "):
        stop(proc)
        raise RuntimeError("stub endpoint did not start")
    return proc, int(line.split()[1])


def stop(proc: subprocess.Popen | None) -> None:
    if proc is not None and proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def set_up(workload: Workload, seed: int, clips: int, wdir: Path, ledger: Ledger):
    """One full set-up: synth, split, stub. Returns (seconds, stub, port, digests)."""
    start = time.perf_counter()
    rc = quiet_cli(["synth", "--out-dir", str(wdir), "--clips", str(clips),
                    "--seed", str(seed)] + CORPUS)
    if not ledger.record("synth", rc == 0, f"exit {rc}"):
        raise RuntimeError("synth failed")
    split_corpus(wdir, clips // 2)
    stub, port = start_stub() if workload.stub else (None, None)
    seconds = time.perf_counter() - start
    digests = {name: sha256_file(wdir / name)
               for name in ("taxonomy.txt", "train.jsonl", "test.jsonl", "test_distributions.jsonl")}
    return seconds, stub, port, digests


def plan_stages(workload: Workload, wdir: Path, port) -> tuple[list, dict | None]:
    tax, train, test = str(wdir / "taxonomy.txt"), str(wdir / "train.jsonl"), str(wdir / "test.jsonl")
    matrix, rec = str(wdir / "matrix.txt"), str(wdir / "recognition.jsonl")
    pred, report = str(wdir / "predictions.jsonl"), str(wdir / "report.json")
    z = str(HORIZON)
    anticipate = (["anticipate", "--recognition", rec, "--taxonomy", tax,
                   "--train-annotations", train, "--horizon", z,
                   "--candidates", str(CANDIDATES)] + workload.anticipate)
    if workload.stub:
        anticipate += ["--llm-endpoint", f"http://127.0.0.1:{port}/v1/chat/completions"]
    stages = [
        {"name": "build_cooccur", "outputs": [matrix],
         "argv": ["build-cooccur", "--annotations", train, "--taxonomy", tax,
                  "--horizon", z, "--out", matrix]},
        {"name": "recognize", "outputs": [rec],
         "argv": ["recognize", "--distributions", str(wdir / "test_distributions.jsonl"),
                  "--matrix", matrix, "--taxonomy", tax, "--out", rec] + workload.recognize},
        {"name": "anticipate", "outputs": [pred], "argv": anticipate + ["--out", pred]},
        {"name": "evaluate", "outputs": [report],
         "argv": ["evaluate", "--predictions", pred, "--annotations", test, "--taxonomy", tax,
                  "--recognition", rec, "--horizon", z, "--out", report]},
    ]
    reference = None
    if workload.stub:  # serial reference for the `--workers N` identical-output guarantee
        ref = str(wdir / "predictions_workers1.jsonl")
        argv = list(anticipate)
        argv[argv.index("--workers") + 1] = "1"
        reference = {"name": "anticipate_workers1", "outputs": [ref], "argv": argv + ["--out", ref]}
    return stages, reference


def run_pipeline(plan: dict, wdir: Path, chunks: list, between, timeout: float | None) -> dict:
    """Run the pipeline process chunk by chunk, calling `between()` between chunks.

    Each chunk is (until, min iterations): the loop runs until it has run for
    `until` seconds over all chunks so far, and at least `min iterations`
    in this chunk. The process is killed if it has not finished after
    `timeout` seconds.
    """
    plan_path = wdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    with open(wdir / "pipeline.err", "w+", encoding="utf-8") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "pipeline.py"), str(plan_path)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True)
        watchdog = threading.Timer(timeout, proc.kill) if timeout else None
        try:
            if watchdog:
                watchdog.start()
            for i, (until, min_iterations) in enumerate(chunks):
                if i:
                    between()
                proc.stdin.write(f"run {until} {min_iterations}\n")
                proc.stdin.flush()
                if proc.stdout.readline() != "done\n":
                    break  # a stage failed, or the watchdog killed the process
            proc.stdin.close()
            proc.wait()
        finally:
            if watchdog:
                watchdog.cancel()
            stop(proc)
        if proc.returncode != 0:
            err.seek(0)
            raise RuntimeError(f"pipeline process exited {proc.returncode}: {err.read()[-2000:]}")
    return json.loads(Path(plan["result"]).read_text(encoding="utf-8"))


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((SRC / "ltakit").glob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_determinism(result: dict, setup_digests: list[dict], key: str, ledger: Ledger) -> dict:
    """Same outputs in every iteration and set-up, the serial reference, and earlier runs."""
    outputs = [{f: d for s in it["stages"].values() for f, d in s.get("digests", {}).items()}
               for it in result["iterations"]]
    ledger.record("setup digests repeat", all(d == setup_digests[0] for d in setup_digests),
                  "set-up outputs differ between repeats")
    ledger.record("stage digests repeat", all(o == outputs[0] for o in outputs),
                  "stage outputs differ between iterations")
    digests = {**setup_digests[0], **outputs[0]}
    if "reference" in result:
        ref = result["reference"]
        same = ref["rc"] == 0 and ref["digests"]["predictions_workers1.jsonl"] == digests.get("predictions.jsonl")
        ledger.record("workers 2 == workers 1", same, "llm predictions depend on --workers")
    record_path = WORK / "digests" / f"{key}.json"
    record = {"code": code_digest(), "digests": digests}
    if record_path.exists():
        previous = json.loads(record_path.read_text(encoding="utf-8"))
        if previous["code"] == record["code"]:
            ledger.record("digests match earlier run", previous["digests"] == digests,
                          f"outputs differ from the earlier run recorded in {record_path.name}")
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return digests


def check_outputs(workload: Workload, wdir: Path, ledger: Ledger):
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    from verify import Outputs, check_ed, check_rerank, check_shape

    out = Outputs.load({
        "taxonomy": wdir / "taxonomy.txt", "train": wdir / "train.jsonl",
        "test": wdir / "test.jsonl", "recognition": wdir / "recognition.jsonl",
        "predictions": wdir / "predictions.jsonl", "report": wdir / "report.json",
    })
    ledger.record("recognition vs rerank_reference",
                  *check_rerank(out, wdir / "test_distributions.jsonl", workload.top_k, oracles))
    ledger.record("ED vs min_track_ed", *check_ed(out, oracles))
    ledger.record("K x Z prediction sets", *check_shape(out, CANDIDATES, HORIZON))
    if workload.heldout_ed:
        ledger.record("held-out action ED > 0", out.report["action_ed"] > 0,
                      "action ED is 0: the model is scored on what it was fitted on")
    return out


def busy(iterations: list, stage: str | None = None) -> float:
    """Summed wall time of one stage (or all stages) over the given iterations."""
    return sum(s["wall"] for it in iterations for name, s in it["stages"].items()
               if stage in (None, name))


def measured(result: dict, traced: bool) -> list:
    return [it for it in result["iterations"] if not it["warmup"] and it["traced"] == traced]


def end_to_end(result: dict, setup_seconds: list, out, ledger: Ledger) -> dict:
    # Host speed drifts in phases of seconds to tens of seconds; totals over the
    # whole window average the phases, where a per-iteration median would snap
    # to whichever phase covered most of the window.
    its = measured(result, traced=False)
    clips, segments, report = len(out.test), len(out.recognition), out.report
    return {
        "setup_s": statistics.median(setup_seconds),
        "pipeline_s": busy(its) / len(its),
        "recognize.segments_per_s": segments * len(its) / busy(its, "recognize"),
        "anticipate.clips_per_s": clips * len(its) / busy(its, "anticipate"),
        "evaluate.clips_per_s": clips * len(its) / busy(its, "evaluate"),
        "peak_rss_mb": result["peak_rss_mb"],
        "ar_action_acc": report["ar_action_acc"],
        "verb_ed": report["verb_ed"], "noun_ed": report["noun_ed"],
        "action_ed": report["action_ed"],
        "failed_frac": ledger.failed / max(ledger.attempted, 1),
    }


def _percentile(values: list, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _self_time(stage_span: dict, children: list) -> float:
    intervals = sorted((max(c["start"], stage_span["start"]), min(c["end"], stage_span["end"]))
                       for c in children)
    covered, reach = 0.0, stage_span["start"]
    for start, end in intervals:
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return stage_span["end"] - stage_span["start"] - covered


def per_layer(result: dict, spans: list, setup_spans: list, out,
              wdir: Path, stub_service_ms: float) -> dict:
    from verify import context_counters, recognition_counters

    clips, segments = len(out.test), len(out.recognition)
    runs: dict[str, list] = {}
    for span in spans:
        runs.setdefault(span["run"], []).append(span)
    per_run, predict_ms, request_ms = [], [], []
    traced = measured(result, traced=True)
    for run_spans, it in zip(runs.values(), traced):
        total: dict[str, float] = {}
        for s in run_spans:
            total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        t = lambda name: total.get(name, 0.0)
        predicts = [s for s in run_spans if s["name"].endswith("Predictor.predict")]
        requests = [s for s in run_spans if s["name"] == "llm_client.LlmClient.complete"]
        parses = [s for s in run_spans if s["name"] == "anticipation.parse_response"]
        predict_ms += [1000 * (s["end"] - s["start"]) for s in predicts]
        request_ms += [1000 * (s["end"] - s["start"]) for s in requests]
        m = {
            "dataset_io.load_distributions_s": t("dataset_io.load_distributions"),
            "dataset_io.load_annotations_s": t("dataset_io.load_annotations"),
            "dataset_io.save_predictions_s": t("dataset_io.save_predictions"),
            "dataset_io.load_predictions_s": t("dataset_io.load_predictions"),
            "cooccurrence.build_s": t("cooccurrence.build_cooccurrence"),
            "cooccurrence.save_s": t("cooccurrence.save_matrix"),
            "cooccurrence.load_s": t("cooccurrence.load_matrix"),
            "recognition.rerank_s": t("recognition.recognize_clip"),
            "recognition.rerank_us_per_segment": 1e6 * t("recognition.recognize_clip") / segments,
            "recognition.save_s": t("recognition.save_recognition"),
            "recognition.load_s": t("recognition.load_recognition"),
            "anticipation.fit_ngram_s": t("anticipation.fit_ngram"),
            "anticipation.predict_s": sum(s["end"] - s["start"] for s in predicts),
            "anticipation.parse_skipped": sum(s["attrs"]["skipped"] for s in parses),
            "anticipation.parse_padded": sum(s["attrs"]["padded"] for s in parses),
            "llm_client.requests": len(requests),
            "llm_client.retries": it["stages"]["anticipate"].get("llm_attempts", 0) - len(requests),
            "llm_client.failed": sum(bool(s["attrs"].get("error")) for s in requests),
            "llm_client.concurrency_mean":
                sum(r["end"] - r["start"] for r in requests) / t("cli.anticipate"),
            "metrics.corpus_eval_s": t("metrics.corpus_eval"),
            "metrics.us_per_pair": 1e6 * t("metrics.corpus_eval") / (clips * CANDIDATES * 3),
        }
        for s in run_spans:
            if s["name"].startswith("cli."):
                children = [c for c in run_spans if c["parent"] == s["id"]]
                m[f"{s['name']}.self_s"] = _self_time(s, children)
        per_run.append(m)
    metrics = {name: statistics.median([m[name] for m in per_run]) for name in per_run[0]}
    setup = {}
    for s in setup_spans:
        setup[s["name"]] = setup.get(s["name"], 0.0) + s["end"] - s["start"]
    untraced = measured(result, traced=False)
    request_p50 = _percentile(request_ms, 50)
    metrics.update({
        "synthgen.generate_s": setup.get("synthgen.generate_corpus", 0.0),
        "dataset_io.save_distributions_s": setup.get("dataset_io.save_distributions", 0.0),
        "dataset_io.distributions_mb": (wdir / "test_distributions.jsonl").stat().st_size / 1e6,
        "anticipation.predict_ms_p50": _percentile(predict_ms, 50),
        "anticipation.predict_ms_p99": _percentile(predict_ms, 99),
        "anticipation.steps": clips * CANDIDATES * HORIZON,
        "llm_client.request_ms_p50": request_p50,
        "llm_client.request_ms_p99": _percentile(request_ms, 99),
        "llm_client.overhead_ms_p50": request_p50 - stub_service_ms if request_ms else 0.0,
        "metrics.ed_pairs": clips * CANDIDATES * 3,
        "metrics.verb_ed": out.report["verb_ed"],
        "metrics.noun_ed": out.report["noun_ed"],
        "metrics.action_ed": out.report["action_ed"],
        "trace_overhead_frac": (busy(traced) / len(traced)) / (busy(untraced) / len(untraced)) - 1,
    })
    metrics.update(recognition_counters(out))
    metrics.update(context_counters(out, ORDER))
    return metrics


def stub_stats(port) -> float:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/stats", timeout=10) as resp:
        return json.load(resp)["service_ms_p50"]


def main() -> int:
    parser = argparse.ArgumentParser(description="ltakit pipeline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--clips", type=int, help="override the workload's corpus size")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # so `finally` stops the children
    if not (SRC / "ltakit" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"bench: {SRC / 'ltakit'} or tests/oracles.py not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    declared = {m["name"]: m["unit"] for m in spec}
    workload = WORKLOADS[args.workload]
    clips = args.clips or CLIPS
    wdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    wdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    stub = None
    try:
        from ltakit import cli  # noqa: F401  (before the first set-up sample, so none pays for imports)

        setup_seconds, setup_digests, setup_spans = [], [], []

        def set_up_again():
            seconds, repeat_stub, _, digests = set_up(workload, args.seed, clips, wdir / "repeat", ledger)
            stop(repeat_stub)
            setup_seconds.append(seconds)
            setup_digests.append(digests)

        if args.trace:
            from spans import Tracer

            tracer = Tracer(f"{args.workload}-setup")
            with tracer.installed():
                seconds, stub, port, digests = set_up(workload, args.seed, clips, wdir, ledger)
            setup_spans = tracer.spans
            chunks = [(args.seconds, 5)]  # warm-up, then at least two traced iterations
        else:
            seconds, stub, port, digests = set_up(workload, args.seed, clips, wdir, ledger)
            setup_seconds.append(seconds)
            # warm-up plus at least one timed iteration in the first chunk, one in each later one
            chunks = [(args.seconds * (i + 1) / SETUP_SAMPLES, 2 if i == 0 else 1)
                      for i in range(SETUP_SAMPLES)]
        setup_digests.append(digests)
        stages, reference = plan_stages(workload, wdir, port)
        plan = {"run_id": f"{args.workload}-seed{args.seed}-{os.getpid()}", "src": str(SRC),
                "trace": bool(args.trace), "stages": stages,
                "reference": reference, "result": str(wdir / "result.json"),
                "spans": str(wdir / "spans.jsonl")}
        # Default sizes finish well inside this; a --clips override may take longer.
        timeout = args.seconds + 120 if args.clips is None else None
        result = run_pipeline(plan, wdir, chunks, set_up_again, timeout)
        for it in result["iterations"] + ([{"stages": {"ref": result["reference"]}}]
                                          if "reference" in result else []):
            for name, s in it["stages"].items():
                ledger.record(f"stage {name}", s["rc"] == 0, f"exit {s['rc']}")
        if workload.stub:  # each llm anticipate run sends K requests per test clip
            runs = sum("anticipate" in it["stages"] for it in result["iterations"]) + 1
            ledger.attempted += runs * (clips - clips // 2) * CANDIDATES
        if any(s["rc"] != 0 for it in result["iterations"] for s in it["stages"].values()):
            raise RuntimeError("a pipeline stage failed")
        digests = check_determinism(result, setup_digests,
                                    f"{args.workload}-seed{args.seed}-clips{clips}", ledger)
        out = check_outputs(workload, wdir, ledger)
        if args.trace:
            spans = [json.loads(line) for line in open(plan["spans"], encoding="utf-8")]
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            shutil.copy(plan["spans"], WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
            service = stub_stats(port) if workload.stub else 0.0
            metrics = per_layer(result, spans, setup_spans, out, wdir, service)
        else:
            metrics = end_to_end(result, setup_seconds, out, ledger)
        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise RuntimeError(f"BENCHMARK.json names metrics this run does not compute: {missing}")
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        for note in ledger.notes:
            print(note, file=sys.stderr)
        return 1
    finally:
        stop(stub)
        shutil.rmtree(wdir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  clips {clips} ({len(out.test)} test)  "
          f"iterations {len(result['iterations'])} (first is warm-up)  trace {args.trace}")
    if setup_seconds:
        print("  set-up samples (s): " + " ".join(f"{x:.3f}" for x in setup_seconds))
    units = {**TABLE_ONLY, **declared}
    for name in list(declared) + [n for n in metrics if n not in declared]:
        print(f"  {name:40s} {metrics[name]:14.6g} {units[name]}")
    for note in ledger.notes:
        print(note)
    print("sha256 " + json.dumps(digests, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
