from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import JsonHandler, chat_completion
from ltakit.cli import run
from ltakit.dataset_io import Predictions, load_annotations, load_predictions
from ltakit.taxonomy import load_taxonomy
from ltakit import dataset_io


SYNTH_FLAGS = [
    "--verbs", "4",
    "--nouns", "24",
    "--templates", "2",
    "--routine-length", "10",
    "--clips", "12",
    "--n-obs", "3",
    "--horizon", "5",
    "--eps-noun", "0.4",
    "--seed", "9",
]


class DeterministicChat(JsonHandler):
    """A chat endpoint whose reply depends only on the request's messages and temperature."""

    def do_POST(self):
        request = self.read_json()
        key = json.dumps([request["messages"], request["temperature"]], sort_keys=True)
        rng = random.Random(hashlib.sha256(key.encode()).digest())
        # Five actions from the SYNTH_FLAGS vocabulary, plus a token the parser skips.
        tokens = [f"verb_{rng.randrange(4):03d} noun_{rng.randrange(24):03d}" for _ in range(5)]
        tokens.insert(rng.randrange(6), "n/a")
        self.reply(200, chat_completion(", ".join(tokens)))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI pass: synth -> build-cooccur -> recognize -> anticipate."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = root / "corpus"
    paths = {
        "root": root,
        "corpus": corpus,
        "taxonomy": corpus / "taxonomy.txt",
        "annotations": corpus / "annotations.jsonl",
        "distributions": corpus / "distributions.jsonl",
        "matrix": root / "matrix.txt",
        "recognition": root / "recognition.jsonl",
        "predictions": root / "predictions.jsonl",
    }
    assert run(["synth", "--out-dir", str(corpus), *SYNTH_FLAGS]) == 0
    assert run([
        "build-cooccur",
        "--annotations", str(paths["annotations"]),
        "--taxonomy", str(paths["taxonomy"]),
        "--horizon", "5",
        "--out", str(paths["matrix"]),
    ]) == 0
    assert run([
        "recognize",
        "--distributions", str(paths["distributions"]),
        "--matrix", str(paths["matrix"]),
        "--taxonomy", str(paths["taxonomy"]),
        "--top-k", "4",
        "--out", str(paths["recognition"]),
    ]) == 0
    assert run([
        "anticipate",
        "--recognition", str(paths["recognition"]),
        "--taxonomy", str(paths["taxonomy"]),
        "--predictor", "ngram",
        "--train-annotations", str(paths["annotations"]),
        "--order", "2",
        "--beta", "0.1",
        "--horizon", "5",
        "--candidates", "3",
        "--out", str(paths["predictions"]),
    ]) == 0
    return paths


class TestPipeline:
    def test_all_artifacts_exist(self, pipeline):
        for key in ("taxonomy", "annotations", "distributions", "matrix", "recognition", "predictions"):
            assert pipeline[key].is_file(), key

    def test_predictions_have_requested_shape(self, pipeline):
        taxonomy = load_taxonomy(pipeline["taxonomy"])
        predictions = load_predictions(pipeline["predictions"], taxonomy, horizon=5)
        assert len(predictions.clip_ids) == 12
        assert predictions.starts == list(range(0, 37, 3))
        assert predictions.candidates.shape == (36, 5, 2)

    def test_evaluate_prints_and_saves_report(self, pipeline, capsys):
        out = pipeline["root"] / "report.json"
        code = run([
            "evaluate",
            "--predictions", str(pipeline["predictions"]),
            "--annotations", str(pipeline["annotations"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--recognition", str(pipeline["recognition"]),
            "--horizon", "5",
            "--out", str(out),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["verb", "noun", "action"]
        assert lines[1].startswith("ED ")
        assert lines[2].startswith("AR acc % ")
        payload = json.loads(out.read_text())
        assert set(payload) >= {"verb_ed", "noun_ed", "action_ed", "clips"}
        assert len(payload["clips"]) == 12

    def test_ground_truth_predictions_score_zero(self, pipeline, capsys):
        taxonomy = load_taxonomy(pipeline["taxonomy"])
        annotations = load_annotations(pipeline["annotations"], taxonomy, horizon=5)
        futured = [clip_id for clip_id, has in zip(annotations.clip_ids, annotations.has_future) if has]
        perfect = Predictions(futured, list(range(len(futured) + 1)), annotations.future)
        path = pipeline["root"] / "perfect.jsonl"
        dataset_io.save_predictions(path, perfect, taxonomy)
        code = run([
            "evaluate",
            "--predictions", str(path),
            "--annotations", str(pipeline["annotations"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--horizon", "5",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split() == ["ED", "0.0000", "0.0000", "0.0000"]

    def test_extra_prediction_named_in_file_order(self, pipeline, capsys):
        # Every annotated clip's future, then extra clips written in reverse alphabetical order:
        # the error names the first extra clip of the file.
        rows = [json.loads(line) for line in pipeline["annotations"].read_text().splitlines()]
        extra = [f"{prefix}_{i:05d}" for i, prefix in zip((17, 9, 3, 0), ("zz", "mm", "cc", "bb"))]
        path = pipeline["root"] / "extra.jsonl"
        path.write_text("".join(json.dumps({"clip_id": clip_id, "candidates": [rows[0]["future"]]}) + "\n"
                                for clip_id in [row["clip_id"] for row in rows] + extra))
        code = run(["evaluate", "--predictions", str(path), "--annotations", str(pipeline["annotations"]),
                    "--taxonomy", str(pipeline["taxonomy"]), "--horizon", "5"])
        assert code == 2
        assert capsys.readouterr().err == "ltakit: error: prediction for unknown clip 'zz_00017' (4 extra in total)\n"

    def test_naive_ablation_differs_from_reranked(self, pipeline):
        naive_out = pipeline["root"] / "naive.jsonl"
        code = run([
            "recognize",
            "--distributions", str(pipeline["distributions"]),
            "--matrix", str(pipeline["matrix"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--naive",
            "--out", str(naive_out),
        ])
        assert code == 0
        naive_chosen = [json.loads(l)["chosen"] for l in naive_out.read_text().splitlines()]
        rerank_chosen = [
            json.loads(l)["chosen"] for l in pipeline["recognition"].read_text().splitlines()
        ]
        assert naive_chosen != rerank_chosen

    @pytest.mark.parametrize("mode", ["greedy", "sample", "llm"])
    def test_parallel_anticipation_matches_serial(self, pipeline, mode, serve):
        # Worker threads share one predictor; switch threads as often as the
        # interpreter allows so that races get a chance to show.
        if mode == "llm":
            predictor = ["--predictor", "llm", "--llm-endpoint", serve(DeterministicChat), "--llm-model", "m"]
        else:
            predictor = ["--predictor", "ngram", "--order", "2", "--mode", mode, "--seed", "21"]
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in ("1", "4"):
                out = pipeline["root"] / f"anticipate_{mode}_{workers}.jsonl"
                assert run([
                    "anticipate",
                    "--recognition", str(pipeline["recognition"]),
                    "--taxonomy", str(pipeline["taxonomy"]),
                    "--train-annotations", str(pipeline["annotations"]),
                    *predictor,
                    "--horizon", "5",
                    "--candidates", "3",
                    "--workers", workers,
                    "--out", str(out),
                ]) == 0
                outputs.append(out.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1]

    def test_live_request_log_is_independent_of_workers(self, pipeline, serve):
        # Requests from 4 threads reach the endpoint in whatever order the threads
        # run; the log lists them by (clip, candidate, attempt) all the same.
        endpoint = serve(DeterministicChat)
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in ("1", "4"):
                out = pipeline["root"] / f"anticipate_log_{workers}.jsonl"
                log = pipeline["root"] / f"requests_{workers}.jsonl"
                assert run([
                    "anticipate",
                    "--recognition", str(pipeline["recognition"]),
                    "--taxonomy", str(pipeline["taxonomy"]),
                    "--predictor", "llm", "--llm-endpoint", endpoint, "--llm-model", "m",
                    "--horizon", "5",
                    "--candidates", "3",
                    "--workers", workers,
                    "--llm-request-log", str(log),
                    "--out", str(out),
                ]) == 0
                outputs.append((out.read_bytes(), log.read_bytes()))
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        assert len(outputs[0][1].splitlines()) == 12 * 3

    def test_anticipation_orders_history_by_segment(self, pipeline):
        # Each clip's rows in reverse segment order (clips keep their order):
        # the history must still be read in segment order.
        clips: dict[str, list[str]] = {}
        for line in pipeline["recognition"].read_text().splitlines():
            clips.setdefault(json.loads(line)["clip_id"], []).append(line)
        reversed_rows = pipeline["root"] / "recognition_reversed.jsonl"
        reversed_rows.write_text(
            "".join(f"{line}\n" for rows in clips.values() for line in reversed(rows))
        )
        outputs = []
        for recognition in (pipeline["recognition"], reversed_rows):
            out = pipeline["root"] / f"anticipate_{recognition.stem}.jsonl"
            assert run([
                "anticipate",
                "--recognition", str(recognition),
                "--taxonomy", str(pipeline["taxonomy"]),
                "--predictor", "ngram",
                "--train-annotations", str(pipeline["annotations"]),
                "--order", "2",
                "--horizon", "5",
                "--candidates", "3",
                "--out", str(out),
            ]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_report_dumps_one_clip(self, pipeline, capsys):
        code = run([
            "report",
            "--clip", "clip_00003",
            "--annotations", str(pipeline["annotations"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--recognition", str(pipeline["recognition"]),
            "--predictions", str(pipeline["predictions"]),
            "--horizon", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("clip clip_00003")
        assert "observed:" in out
        assert "candidates per segment:" in out
        assert "future (ground truth):" in out
        assert "predicted candidates:" in out
        assert "action ED" in out

    def test_report_unknown_clip_is_data_error(self, pipeline):
        code = run([
            "report",
            "--clip", "no_such_clip",
            "--annotations", str(pipeline["annotations"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--horizon", "5",
        ])
        assert code == 2

    @pytest.mark.parametrize("naive", [False, True], ids=["rerank", "naive"])
    def test_empty_corpus_runs_through(self, pipeline, tmp_path, capsys, naive):
        # No clips: every stage still succeeds and writes an empty file.
        empty = tmp_path / "distributions.jsonl"
        empty.write_text("")
        recognition, predictions = tmp_path / "recognition.jsonl", tmp_path / "predictions.jsonl"
        assert run([
            "recognize", "--distributions", str(empty), "--matrix", str(pipeline["matrix"]),
            "--taxonomy", str(pipeline["taxonomy"]), "--top-k", "4", "--out", str(recognition),
            *(["--naive"] if naive else []),
        ]) == 0
        assert recognition.read_bytes() == b""
        assert run([
            "anticipate", "--recognition", str(recognition), "--taxonomy", str(pipeline["taxonomy"]),
            "--train-annotations", str(pipeline["annotations"]), "--horizon", "5", "--out", str(predictions),
        ]) == 0
        assert predictions.read_bytes() == b""
        mode = "naive" if naive else "reranked (top-4)"
        assert capsys.readouterr() == (
            f"wrote 0 {mode} segments for 0 clips to {recognition}\n"
            f"wrote 0 prediction sets (5 x 5 each) to {predictions}\n",
            "",
        )


class TestDeterminism:
    def test_synth_twice_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert run(["synth", "--out-dir", str(tmp_path / name), *SYNTH_FLAGS]) == 0
        for fname in ("taxonomy.txt", "annotations.jsonl", "distributions.jsonl"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_sampled_anticipation_is_seed_stable(self, pipeline, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            assert run([
                "anticipate",
                "--recognition", str(pipeline["recognition"]),
                "--taxonomy", str(pipeline["taxonomy"]),
                "--predictor", "ngram",
                "--train-annotations", str(pipeline["annotations"]),
                "--mode", "sample",
                "--seed", "13",
                "--horizon", "5",
                "--candidates", "3",
                "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "synth" in capsys.readouterr().out

    def test_subcommand_help_exits_zero(self, capsys):
        assert run(["anticipate", "--help"]) == 0
        assert "--predictor" in capsys.readouterr().out

    def test_version_exits_zero(self, capsys):
        assert run(["--version"]) == 0
        assert "ltakit" in capsys.readouterr().out

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["build-cooccur", "--annotations", "x.jsonl"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        code = run([
            "build-cooccur",
            "--annotations", str(tmp_path / "absent.jsonl"),
            "--taxonomy", str(tmp_path / "absent.txt"),
            "--out", str(tmp_path / "m.txt"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["deep", "long-int"])
    def test_json_past_the_decoders_limits_is_data_error(self, pipeline, tmp_path, capsys, case):
        # orjson rejects the NaN line (and the 5,001-digit int), so `json` reads the file again: nesting
        # past its recursion limit, or an int past Python's digit limit, is then invalid JSON, not a crash.
        head = pipeline["distributions"].read_text().splitlines()[0][:-1]
        lines = {"deep": [head + ', "note": NaN}', head + ', "note": ' + "[" * 100_000 + "]" * 100_000 + "}"],
                 "long-int": [head + ', "note": 1' + "0" * 5_000 + "}"]}[case]
        path = tmp_path / "distributions.jsonl"
        path.write_text("\n".join(lines) + "\n")
        argv = ["recognize", "--distributions", str(path), "--matrix", str(pipeline["matrix"]),
                "--taxonomy", str(pipeline["taxonomy"]), "--out", str(tmp_path / "r.jsonl")]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"ltakit: error: {path}:{len(lines)}: invalid JSON (")
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("case", ["deep", "long-int"])
    def test_whole_json_file_past_the_decoders_limits_is_data_error(self, pipeline, tmp_path, capsys, case):
        template = tmp_path / "prompt.json"
        template.write_text({"deep": '{"system_text": "s", "user_template": "{history} {Z}", "note": '
                                     + "[" * 100_000 + "]" * 100_000 + "}",
                             "long-int": '{"system_text": "s", "user_template": "{history} {Z}", "note": 1'
                                         + "0" * 5_000 + "}"}[case])
        (tmp_path / "script.json").write_text('["take spoon"]')
        argv = ["anticipate", "--recognition", str(pipeline["recognition"]), "--taxonomy", str(pipeline["taxonomy"]),
                "--predictor", "llm", "--llm-script", str(tmp_path / "script.json"), "--prompt-template", str(template),
                "--out", str(tmp_path / "p.jsonl")]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith(f"ltakit: error: {template}: invalid JSON (")

    NOT_UTF8 = b'{"clip_id": "c\xff"}\n'

    @pytest.mark.parametrize(
        "kind, content",
        [
            ("taxonomy", b"#verbs\ntake\xff\n#nouns\nspoon\n"),
            ("annotations", NOT_UTF8),
            ("distributions", NOT_UTF8),
            ("matrix", b"#cooccurrence-matrix v1\nverbs \xff\n"),
            ("recognition", NOT_UTF8),
            ("predictions", NOT_UTF8),
            ("prompt_template", b'{"system_text": "s", '),
            ("prompt_template", b'{"system_text": "\xff", "user_template": "{history} {Z}"}'),
            ("llm_script", b'["take spoon", '),
            ("llm_script", b'["take \xff"]'),
        ],
        ids=["taxonomy", "annotations", "distributions", "matrix", "recognition", "predictions",
             "prompt-template-json", "prompt-template-utf8", "llm-script-json", "llm-script-utf8"],
    )
    def test_unreadable_input_file_is_data_error(self, pipeline, tmp_path, capsys, kind, content):
        # Each file a command reads; the one under test is replaced by undecodable or invalid bytes.
        files = {key: str(pipeline[key]) for key in ("taxonomy", "annotations", "distributions", "matrix",
                                                    "recognition", "predictions")}
        files["prompt_template"] = str(tmp_path / "prompt.json")
        files["llm_script"] = str(tmp_path / "script.json")
        (tmp_path / "prompt.json").write_text(json.dumps({"system_text": "s", "user_template": "{history} {Z}"}))
        (tmp_path / "script.json").write_text(json.dumps(["take spoon"]))
        bad = tmp_path / f"bad_{kind}"
        bad.write_bytes(content)
        files[kind] = str(bad)
        out = str(tmp_path / "out")
        tax = ["--taxonomy", files["taxonomy"], "--horizon", "5"]
        build = ["build-cooccur", "--annotations", files["annotations"], *tax, "--out", out]
        recognize = ["recognize", "--distributions", files["distributions"], "--matrix", files["matrix"],
                     "--taxonomy", files["taxonomy"], "--out", out]
        anticipate = ["anticipate", "--recognition", files["recognition"], *tax, "--out", out]
        argv = {
            "taxonomy": build,
            "annotations": build,
            "distributions": recognize,
            "matrix": recognize,
            "recognition": [*anticipate, "--predictor", "repeat-last"],
            "predictions": ["evaluate", "--predictions", files["predictions"], "--annotations", files["annotations"],
                            *tax],
            "prompt_template": [*anticipate, "--predictor", "llm", "--llm-script", files["llm_script"],
                                "--prompt-template", files["prompt_template"]],
            "llm_script": [*anticipate, "--predictor", "llm", "--llm-script", files["llm_script"]],
        }[kind]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ltakit: error: {bad}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "evaluate"])
    def test_zero_horizon_is_data_error(self, tmp_path, capsys, command):
        # Empty futures and candidates load at --horizon 0, but an ED over no actions has no normalizer.
        (tmp_path / "taxonomy.txt").write_text("#verbs\ntake\n#nouns\nspoon\n")
        (tmp_path / "test.jsonl").write_text(json.dumps({"clip_id": "c", "observed": ["take spoon"], "future": []}))
        (tmp_path / "predictions.jsonl").write_text(json.dumps({"clip_id": "c", "candidates": [[]]}))
        common = ["--annotations", str(tmp_path / "test.jsonl"), "--taxonomy", str(tmp_path / "taxonomy.txt"),
                  "--predictions", str(tmp_path / "predictions.jsonl"), "--horizon", "0"]
        assert run(["report", "--clip", "c", *common] if command == "report" else ["evaluate", *common]) == 2
        assert capsys.readouterr() == ("", "ltakit: error: cannot normalize over empty sequences\n")

    def test_tampered_matrix_is_data_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad_matrix.txt"
        text = pipeline["matrix"].read_text().splitlines()
        text[-1] = text[-1] + "9"  # turns the last count into a different number
        bad.write_text("\n".join(text) + "\n")
        code = run([
            "recognize",
            "--distributions", str(pipeline["distributions"]),
            "--matrix", str(bad),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        assert "checksum" in capsys.readouterr().err

    def test_negative_matrix_dimension_is_data_error(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad_matrix.txt"
        bad.write_text("#cooccurrence-matrix v1\nverbs 1\nnouns -1\nalpha 0.0\nsha256 0\n\n")
        code = run([
            "recognize",
            "--distributions", str(pipeline["distributions"]),
            "--matrix", str(bad),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"ltakit: error: {bad}: matrix must be at least 1x1, header says 1x-1\n"

    def test_ngram_without_training_data_is_usage_error(self, pipeline, tmp_path, capsys):
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "ngram",
            "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 1
        assert "--train-annotations" in capsys.readouterr().err

    def test_llm_without_endpoint_or_script_is_usage_error(self, pipeline, tmp_path):
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 1

    def test_llm_script_with_workers_is_usage_error(self, pipeline, tmp_path, capsys):
        # A script hands entries to threads in arrival order, so the output would vary.
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["verb_000 noun_000"] * 12))
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-script", str(script),
            "--horizon", "5",
            "--candidates", "1",
            "--workers", "2",
            "--out", str(out),
        ])
        assert code == 1
        assert "--llm-script" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_anticipate_workers_below_one_is_usage_error(self, pipeline, tmp_path, capsys, workers):
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "repeat-last",
            "--workers", workers,
            "--out", str(out),
        ])
        assert code == 1
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_bad_llm_timeout_is_data_error(self, pipeline, tmp_path, capsys, timeout):
        # Rejected before any request: the endpoint below is never contacted.
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-endpoint", "http://localhost:1/v1",
            "--llm-model", "m",
            "--llm-timeout", timeout,
            "--llm-max-retries", "0",
            "--out", str(out),
        ])
        assert code == 2
        assert "ltakit: error: timeout" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("temperature", ["nan", "inf"])
    def test_nonfinite_llm_temperature_is_data_error(self, pipeline, tmp_path, capsys, temperature):
        # Rejected before any request: the endpoint below is never contacted.
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-endpoint", "http://localhost:1/v1",
            "--llm-model", "m",
            "--llm-temperature", temperature,
            "--llm-max-retries", "0",
            "--out", str(out),
        ])
        assert code == 2
        assert "ltakit: error: temperature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "endpoint",
        ["file:///etc/hostname", "ftp://127.0.0.1:9/v1", "localhost:8000/v1", "http://[::1", "http://127.0.0.1:9/a b",
         "http://127.0.0.1:9/\u00e9"],
    )
    def test_non_http_llm_endpoint_is_data_error(self, pipeline, tmp_path, capsys, endpoint):
        # Rejected at once: no request, no retry and no backoff sleep.
        out = tmp_path / "p.jsonl"
        log = tmp_path / "requests.jsonl"
        start = time.monotonic()
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-endpoint", endpoint,
            "--llm-model", "m",
            "--llm-request-log", str(log),
            "--out", str(out),
        ])
        assert code == 2
        assert "ltakit: error: endpoint URL must be http or https" in capsys.readouterr().err
        assert time.monotonic() - start < 2.0  # retrying would sleep 0.5 + 1 + 2 s of backoff
        assert not out.exists() and not log.exists()

    def test_infinite_beta_is_data_error(self, pipeline, tmp_path, capsys):
        # Sampling would otherwise draw from all-NaN weights.
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--train-annotations", str(pipeline["annotations"]),
            "--beta", "inf",
            "--mode", "sample",
            "--horizon", "5",
            "--out", str(out),
        ])
        assert code == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_beta_is_data_error(self, pipeline, tmp_path, capsys):
        # Finite, but (count + beta) summed over a pool overflows to inf.
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--train-annotations", str(pipeline["annotations"]),
            "--beta", "1e308",
            "--mode", "sample",
            "--horizon", "5",
            "--out", str(out),
        ])
        assert code == 2
        assert "beta" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_synth_seed_is_data_error(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert run(["synth", "--out-dir", str(out_dir), "--clips", "5", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_negative_anticipate_seed_is_data_error(self, pipeline, tmp_path, capsys, mode):
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--train-annotations", str(pipeline["annotations"]),
            "--seed", "-3",
            "--mode", mode,
            "--horizon", "5",
            "--out", str(out),
        ])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("temperature", ["nan", "inf", "-1"])
    def test_bad_llm_temperature_with_script_is_data_error(self, pipeline, tmp_path, capsys, temperature):
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["verb_000 noun_000"] * 24))
        out = tmp_path / "p.jsonl"
        log = tmp_path / "req.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-script", str(script),
            "--llm-temperature", temperature,
            "--llm-request-log", str(log),
            "--horizon", "5",
            "--candidates", "2",
            "--out", str(out),
        ])
        assert code == 2
        assert "ltakit: error: temperature" in capsys.readouterr().err
        assert not out.exists() and not log.exists()

    @pytest.mark.parametrize("command", ["anticipate", "report", "evaluate"])
    def test_recognition_gap_is_data_error(self, pipeline, tmp_path, capsys, command):
        # Without segment 1, clip_00003's history would silently close over the gap.
        gapped = tmp_path / "gapped.jsonl"
        gapped.write_text("".join(
            f"{line}\n"
            for line in pipeline["recognition"].read_text().splitlines()
            if (json.loads(line)["clip_id"], json.loads(line)["segment"]) != ("clip_00003", 1)
        ))
        common = ["--recognition", str(gapped), "--taxonomy", str(pipeline["taxonomy"]), "--horizon", "5"]
        out = tmp_path / "p.jsonl"
        if command == "anticipate":
            argv = ["anticipate", *common, "--predictor", "repeat-last", "--out", str(out)]
        elif command == "report":
            # The gap is in another clip than --clip: the file is rejected as a whole.
            argv = ["report", *common, "--clip", "clip_00000", "--annotations", str(pipeline["annotations"])]
        else:
            argv = ["evaluate", *common, "--predictions", str(pipeline["predictions"]),
                    "--annotations", str(pipeline["annotations"]), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "ltakit: error: clip 'clip_00003'" in err and "contiguous" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "evaluate"])
    def test_recognition_past_the_observed_actions_is_data_error(self, pipeline, tmp_path, capsys, command):
        # clip_00000 observes 3 actions; a copy of its segment 0 as segment 3 makes a fourth recognized one.
        lines = pipeline["recognition"].read_text().splitlines()
        first = json.loads(lines[0])
        assert (first["clip_id"], first["segment"]) == ("clip_00000", 0)
        longer = tmp_path / "longer.jsonl"
        longer.write_text("\n".join([*lines, json.dumps({**first, "segment": 3})]) + "\n")
        common = ["--recognition", str(longer), "--taxonomy", str(pipeline["taxonomy"]), "--horizon", "5",
                  "--annotations", str(pipeline["annotations"])]
        out = tmp_path / "report.json"
        if command == "report":
            argv = ["report", *common, "--clip", "clip_00000"]
        else:
            argv = ["evaluate", *common, "--predictions", str(pipeline["predictions"]), "--out", str(out)]
        assert run(argv) == 2
        assert capsys.readouterr() == ("", "ltakit: error: clip 'clip_00000': segment 3 out of range (3 observed)\n")
        assert not out.exists()

    def test_distributions_gap_is_data_error(self, pipeline, tmp_path, capsys):
        gapped = tmp_path / "gapped.jsonl"
        gapped.write_text("".join(
            f"{line}\n"
            for line in pipeline["distributions"].read_text().splitlines()
            if (json.loads(line)["clip_id"], json.loads(line)["segment"]) != ("clip_00005", 0)
        ))
        out = tmp_path / "r.jsonl"
        code = run([
            "recognize",
            "--distributions", str(gapped),
            "--matrix", str(pipeline["matrix"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--top-k", "4",
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "ltakit: error: clip 'clip_00005': segment indices must be contiguous from 0, expected 0 but found 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["anticipate", "report"])
    def test_non_string_action_is_data_error(self, pipeline, tmp_path, capsys, command):
        lines = pipeline["recognition"].read_text().splitlines()
        first = json.loads(lines[0])
        first["chosen"] = 5
        broken = tmp_path / "broken.jsonl"
        broken.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        common = ["--recognition", str(broken), "--taxonomy", str(pipeline["taxonomy"]), "--horizon", "5"]
        out = tmp_path / "p.jsonl"
        if command == "anticipate":
            argv = ["anticipate", *common, "--predictor", "repeat-last", "--out", str(out)]
        else:
            argv = ["report", *common, "--clip", first["clip_id"], "--annotations", str(pipeline["annotations"])]
        assert run(argv) == 2
        assert f"ltakit: error: {broken}:1: action entries must be strings, got 5" in capsys.readouterr().err
        assert not out.exists()

    def test_persistent_transport_failure_exits_three(self, pipeline, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"fail": "endpoint down"}] * 8))
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-script", str(script),
            "--horizon", "5",
            "--candidates", "1",
            "--out", str(tmp_path / "p.jsonl"),
        ])
        assert code == 3
        assert "endpoint down" in capsys.readouterr().err

    def test_missing_prediction_clip_is_data_error(self, pipeline, tmp_path, capsys):
        partial = tmp_path / "partial.jsonl"
        lines = pipeline["predictions"].read_text().splitlines()
        partial.write_text("\n".join(lines[1:]) + "\n")
        code = run([
            "evaluate",
            "--predictions", str(partial),
            "--annotations", str(pipeline["annotations"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--horizon", "5",
        ])
        assert code == 2
        assert "no prediction" in capsys.readouterr().err


def test_llm_flag_defaults_are_llm_config_defaults():
    from ltakit.cli import _build_parser
    from ltakit.llm_client import LlmConfig

    flags = _build_parser()[2]
    for field in ("temperature", "max_tokens", "timeout", "max_retries"):
        assert flags[f"llm_{field}"].default == getattr(LlmConfig, field)
    assert LlmConfig("mock://local", "m").max_tokens == 256  # what --llm-max-tokens has always sent


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "verbs": 4, "nouns": 24, "templates": 2, "routine-length": 10,
            "clips": 3, "n-obs": 3, "horizon": 5, "seed": 1,
        }))
        out = tmp_path / "corpus"
        assert run(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert "wrote 3 clips" in capsys.readouterr().out

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "verbs": 4, "nouns": 24, "templates": 2, "routine-length": 10,
            "clips": 3, "n-obs": 3, "horizon": 5, "seed": 1,
        }))
        out = tmp_path / "corpus"
        assert run(["synth", "--config", str(cfg), "--out-dir", str(out), "--clips", "5"]) == 0
        assert "wrote 5 clips" in capsys.readouterr().out

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fantasy-knob": 1}))
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert "fantasy-knob" in capsys.readouterr().err

    def test_config_holding_a_json_array_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([{"clips": 3}]))
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"ltakit: error: config file {cfg} must hold a JSON object\n"
        assert not (tmp_path / "x").exists()

    def test_invalid_config_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{ not json")
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting, flag",
        [
            ({"candidates": 2.5}, "candidates"),  # the flag's type is int
            ({"candidates": "three"}, "candidates"),
            ({"mode": "bogus"}, "mode"),  # not one of the flag's choices
            ({"order": None}, "order"),
            ({"naive": "yes"}, "naive"),  # a store_true flag takes only true or false
        ],
    )
    def test_config_value_is_checked_like_its_flag(self, pipeline, tmp_path, capsys, setting, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(setting))
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate", "--config", str(cfg),
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--train-annotations", str(pipeline["annotations"]),
            "--horizon", "5",
            "--out", str(out),
        ])
        assert code == 1
        assert f"config key {flag!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_take_their_flags_types(self, pipeline, tmp_path):
        # Numbers, numeric strings and booleans arrive as the flags would parse them.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"candidates": 2, "beta": "0.1", "mode": "sample", "naive": True}))
        from_config = tmp_path / "config.jsonl"
        from_flags = tmp_path / "flags.jsonl"
        common = [
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--train-annotations", str(pipeline["annotations"]),
            "--horizon", "5",
        ]
        assert run(["anticipate", "--config", str(cfg), *common, "--out", str(from_config)]) == 0
        assert run([
            "anticipate", *common, "--candidates", "2", "--beta", "0.1", "--mode", "sample",
            "--out", str(from_flags),
        ]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()
        recognize = [
            "--distributions", str(pipeline["distributions"]),
            "--matrix", str(pipeline["matrix"]),
            "--taxonomy", str(pipeline["taxonomy"]),
        ]
        assert run(["recognize", "--config", str(cfg), *recognize, "--out", str(from_config)]) == 0
        assert run(["recognize", *recognize, "--naive", "--out", str(from_flags)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"clips": "\xff"}')
        assert run(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ltakit: error: config file {cfg}: not UTF-8 text")
        assert not (tmp_path / "x").exists()

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert run([
            "synth", "--config", str(tmp_path / "absent.json"), "--out-dir", str(tmp_path / "x")
        ]) == 1

    @pytest.mark.parametrize("form", [["--conf", "{cfg}"], ["--conf={cfg}"]], ids=["separate", "equals"])
    def test_abbreviated_config_flag_is_applied(self, tmp_path, capsys, form):
        # argparse accepts any unambiguous prefix of a flag, --config included.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clips": 3}))
        argv = ["synth", "--out-dir", str(tmp_path / "b"), *(token.format(cfg=cfg) for token in form)]
        assert run(argv) == 0
        assert "wrote 3 clips" in capsys.readouterr().out

    def test_config_without_a_value_is_usage_error(self, tmp_path, capsys):
        assert run(["synth", "--out-dir", str(tmp_path / "x"), "--config"]) == 1
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("content", [None, "{ not json", '{"fantasy-knob": 1}'], ids=["missing", "json", "key"])
    def test_ambiguous_prefix_is_reported_before_the_config(self, tmp_path, capsys, content):
        # In synth, --c could match --clips as well as --config: the full parser's error wins.
        cfg = tmp_path / "cfg.json"
        if content is not None:
            cfg.write_text(content)
        assert run(["synth", "--out-dir", str(tmp_path / "x"), "--c", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "ambiguous option: --c could match --config, --clips" in err
        assert "ltakit: error: " not in err  # no config error before or after it
        assert not (tmp_path / "x").exists()

    def test_unambiguous_prefix_still_reads_the_config(self, tmp_path, capsys):
        # evaluate has no other flag that starts with --c.
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{ not json")
        absent = str(tmp_path / "absent")
        argv = ["evaluate", "--predictions", absent, "--annotations", absent, "--taxonomy", absent, "--c", str(cfg)]
        assert run(argv) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestNoClips:
    @pytest.mark.parametrize("predictor, bad_horizon_code", [("repeat-last", 2), ("ngram", 2), ("llm", 2)])
    def test_empty_recognition_file(self, tmp_path, capsys, predictor, bad_horizon_code):
        # No clip to predict: an empty predictions file. A horizon below 1 is rejected even then:
        # every predictor checks its arguments on the whole table before it predicts a clip.
        (tmp_path / "taxonomy.txt").write_text("#verbs\ntake\n#nouns\nspoon\n")
        (tmp_path / "recognition.jsonl").write_text("")
        write_jsonl = lambda name, rows: (tmp_path / name).write_text("".join(json.dumps(r) + "\n" for r in rows))
        write_jsonl("train.jsonl", [{"clip_id": "t", "observed": ["take spoon"] * 2}])
        (tmp_path / "script.json").write_text(json.dumps(["take spoon"]))
        argv = ["anticipate", "--recognition", str(tmp_path / "recognition.jsonl"), "--taxonomy",
                str(tmp_path / "taxonomy.txt"), "--predictor", predictor, "--train-annotations",
                str(tmp_path / "train.jsonl"), "--llm-script", str(tmp_path / "script.json"),
                "--out", str(tmp_path / "predictions.jsonl")]
        assert run([*argv, "--horizon", "3"]) == 0
        assert (tmp_path / "predictions.jsonl").read_text() == ""
        assert run([*argv, "--horizon", "-1"]) == bad_horizon_code
        assert capsys.readouterr().err == "ltakit: error: horizon must be >= 1\n"


class TestLlmPath:
    def test_scripted_llm_run_with_request_log(self, pipeline, tmp_path):
        taxonomy = load_taxonomy(pipeline["taxonomy"])
        reply = ", ".join(["verb_001 noun_001"] * 5)
        entries = [{"fail": "transient blip"}] + [reply] * (12 * 2)
        script = tmp_path / "script.json"
        script.write_text(json.dumps(entries))
        log = tmp_path / "requests.jsonl"
        out = tmp_path / "llm_predictions.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-script", str(script),
            "--train-annotations", str(pipeline["annotations"]),
            "--llm-request-log", str(log),
            "--horizon", "5",
            "--candidates", "2",
            "--out", str(out),
        ])
        assert code == 0
        predictions = load_predictions(out, taxonomy, horizon=5)
        assert len(predictions.clip_ids) == 12
        assert predictions.starts == list(range(0, 25, 2))

        logged = [json.loads(l) for l in log.read_text().splitlines()]
        # 24 successful requests plus the one retried failure.
        assert len(logged) == 25
        for body in logged:
            assert set(body) == {"model", "messages", "temperature", "max_tokens"}
            assert body["messages"][0]["role"] == "system"
            assert body["messages"][1]["role"] == "user"
        # The user prompt carries the full recognized history of its clip.
        first_rec = json.loads(pipeline["recognition"].read_text().splitlines()[0])
        assert first_rec["chosen"] in logged[0]["messages"][1]["content"]

    def test_script_takes_the_llm_flags(self, pipeline, tmp_path, capsys):
        recognition = tmp_path / "one_clip.jsonl"
        recognition.write_text("".join(
            f"{line}\n"
            for line in pipeline["recognition"].read_text().splitlines()
            if json.loads(line)["clip_id"] == "clip_00000"
        ))
        script = tmp_path / "script.json"
        script.write_text(json.dumps([{"fail": "x"}, "verb_000 noun_000"]))
        log = tmp_path / "requests.jsonl"
        out = tmp_path / "p.jsonl"
        argv = [
            "anticipate",
            "--recognition", str(recognition),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-script", str(script),
            "--llm-request-log", str(log),
            "--horizon", "5",
            "--candidates", "1",
            "--out", str(out),
        ]

        def logged():
            return [(b["model"], b["max_tokens"]) for b in map(json.loads, log.read_text().splitlines())]

        assert run(argv) == 0
        assert logged() == [("scripted-mock", 256)] * 2  # the flag defaults; one failure retried
        assert run(argv + ["--llm-model", "m1", "--llm-max-tokens", "77"]) == 0
        assert logged() == [("m1", 77)] * 2
        out.unlink()
        log.unlink()
        assert run(argv + ["--llm-max-retries", "0"]) == 3
        assert "ltakit: error: clip 'clip_00000': x" in capsys.readouterr().err
        assert run(argv + ["--llm-timeout", "nan"]) == 2
        assert "ltakit: error: timeout must be finite" in capsys.readouterr().err
        assert not out.exists() and not log.exists()

    def test_prompt_template_flag(self, pipeline, tmp_path):
        template = tmp_path / "prompt.json"
        template.write_text(json.dumps({
            "system_text": "forecast",
            "user_template": "past: {history} next {Z}",
        }))
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["verb_000 noun_000"] * 12))
        log = tmp_path / "requests.jsonl"
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-script", str(script),
            "--prompt-template", str(template),
            "--llm-request-log", str(log),
            "--horizon", "5",
            "--candidates", "1",
            "--out", str(out),
        ])
        assert code == 0
        body = json.loads(log.read_text().splitlines()[0])
        assert body["messages"][0]["content"] == "forecast"
        assert body["messages"][1]["content"].startswith("past: ")
        assert body["messages"][1]["content"].endswith("next 5")

    def test_prompt_template_without_horizon_names_the_file(self, pipeline, tmp_path, capsys):
        template = tmp_path / "prompt.json"
        template.write_text(json.dumps({"system_text": "forecast", "user_template": "past: {history}"}))
        script = tmp_path / "script.json"
        script.write_text(json.dumps(["verb_000 noun_000"]))
        out = tmp_path / "p.jsonl"
        code = run([
            "anticipate",
            "--recognition", str(pipeline["recognition"]),
            "--taxonomy", str(pipeline["taxonomy"]),
            "--predictor", "llm",
            "--llm-script", str(script),
            "--prompt-template", str(template),
            "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ltakit: error: {template}: ")
        assert err.endswith(": user template must contain {Z} exactly once\n")
        assert not out.exists()


def _pyproject() -> dict:
    """The checkout's ``pyproject.toml``, parsed."""
    try:
        import tomllib
    except ImportError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def _version_line() -> str:
    return f"ltakit {_pyproject()['project']['version']}\n"


class TestInstalledEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ltakit.cli", "--version"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _version_line()

    def test_cli_import_pulls_in_no_http_library(self):
        # The live client uses the standard library (numpy and orjson are the runtime dependencies),
        # and imports its transport, which pulls in ssl and email, only when it sends a request.
        # The thread pool is imported only where LlmPredictor.predict_corpus runs its clips.
        modules = {"requests", "urllib3", "http.client", "urllib.request", "ssl", "email", "concurrent.futures"}
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, ltakit.cli; print(sorted({modules!r} & set(sys.modules)))"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_console_script_on_path(self, tmp_path):
        """The declared ``ltakit`` script, written as installers write it, is found and runs."""
        scripts = _pyproject()["project"].get("scripts", {})
        assert "ltakit" in scripts, "pyproject.toml declares no 'ltakit' console script"
        module, _, attr = scripts["ltakit"].partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        launcher = bin_dir / "ltakit"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        launcher.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))

        exe = shutil.which("ltakit", path=env["PATH"])
        assert exe == str(launcher)
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == _version_line()

    @pytest.mark.skipif(shutil.which("ltakit") is None, reason="no installed 'ltakit' console script on PATH")
    def test_installed_console_script_runs(self):
        exe = shutil.which("ltakit")
        proc = subprocess.run([exe, "--version"], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
