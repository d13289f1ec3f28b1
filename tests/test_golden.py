"""Pinned sha256 of every stage output on small hand-written inputs.

The inputs are written out below. Every probability is dyadic and synth is
not run, so no `np.exp` result reaches the hashed bytes and the digests hold
on every supported numpy. A refactor that claims byte-identical outputs must
leave every digest here unchanged; a change that alters output bytes on
purpose updates the digest and says why.
"""

from __future__ import annotations

import hashlib
import json

from ltakit.cli import run

TAXONOMY = "#verbs\ntake\nput\nstir\nwash\n#nouns\nspoon\npot\ncup\npan\nbowl\n"

TRAIN = [
    {"clip_id": "a", "observed": ["take spoon", "stir pot", "put cup"],
     "future": ["take spoon", "stir pot", "put cup"]},
    {"clip_id": "b", "observed": ["stir pot", "put cup", "take spoon"],
     "future": ["stir pot", "put cup", "take pan"]},
    {"clip_id": "c", "observed": ["put cup", "take spoon", "stir pot"],
     "future": ["put pan", "take spoon", "stir pot"]},
]

TEST = [
    {"clip_id": "d", "observed": ["take spoon", "stir pot", "put cup"],
     "future": ["take spoon", "stir pot", "put pan"]},
    {"clip_id": "e", "observed": ["put cup", "stir pot", "wash bowl"],
     "future": ["take pan", "put cup", "stir pot"]},
]

# Segments interleaved across clips; e/2 is all mass on a pair no training clip has (a fallback).
DISTRIBUTIONS = [
    ("d", 0, [0.5, 0.25, 0.125, 0.125], [0.5, 0.5, 0.0, 0.0, 0.0]),
    ("e", 1, [0.5, 0.0, 0.5, 0.0], [0.25, 0.5, 0.25, 0.0, 0.0]),
    ("d", 1, [0.25, 0.25, 0.5, 0.0], [0.25, 0.25, 0.25, 0.25, 0.0]),
    ("e", 0, [0.25, 0.5, 0.25, 0.0], [0.0, 0.5, 0.25, 0.25, 0.0]),
    ("d", 2, [0.125, 0.375, 0.25, 0.25], [0.0625, 0.125, 0.5, 0.25, 0.0625]),
    ("e", 2, [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0, 1.0]),
]

# K=2 replies for d then e: clean; enumerated with a bad token (skipped, padded);
# nothing parseable (the fallback); a transport failure, then a long reply (truncated).
SCRIPT = [
    "take spoon, stir pot, put cup",
    "1. stir pot\n2. bogus token\n3. put cup",
    "nonsense",
    {"fail": "dropped"},
    "take pan, put cup, stir pot, wash bowl",
]

DIGESTS = {
    "matrix.txt": "5008edad031e9454f2a063e3e8e08584d2566de9d671b89843109f5d4121ab9c",
    "recognition_top2.jsonl": "0dbb1cd010fbc0d7ffbdab89b40c44d275e455cd756a37a93441621a7929dfe5",
    "recognition_top4.jsonl": "0178640d7c8138a859b7fbf2ddc3c055949746a4e4d8b0e8b4f830c71cd7c905",
    "recognition_naive.jsonl": "0739be6bb44c7d5285adc500d1a47a83dc18e905ef44211e0b701bc7a3261095",
    "ngram_greedy.jsonl": "71c61c3638bcbd817adadd9926b3d93e3c8a147e283db3be25b908e298cb3147",
    "ngram_sample.jsonl": "cee928d631909dcb139169fc1b62f1719dd9f8aab981a2fe1fb8a55fe4d29b7c",
    "frequency.jsonl": "13939045c68815fc7fff7ef1a6d6fa9fc853fe141c7fda00e7cfb2144dc01246",
    "repeat_last.jsonl": "b9e77ef304da644a694da6ac07bfc8f1de79d57f4a1e461e782771100c4c75a5",
    "llm.jsonl": "37f9961dfd3a53f7c56639cd10d2b4dc348a60b8886275d396c35b39e8946dac",
    "llm_requests.jsonl": "b74308f1faa53eb7045e815d18865b1c2321e53f7d4ff2186faac0afbd286139",
    "report.json": "95911803cb5c36e1b90f5ee948d30c628e897659a40c17500533338ae7feadd5",
    "evaluate.stdout": "d9e154ad551431b0c635b27b7040dcb4d5cdb524208aab21c08f6c52c446d904",
    "report.stdout": "7b880b9286b26a37726651459848985b1ceee8b3834d663999fbaf09e4978eaa",
}


def _jsonl(rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def test_stage_outputs_match_pinned_digests(tmp_path, capsys):
    (tmp_path / "taxonomy.txt").write_text(TAXONOMY, encoding="utf-8")
    (tmp_path / "train.jsonl").write_text(_jsonl(TRAIN), encoding="utf-8")
    (tmp_path / "test.jsonl").write_text(_jsonl(TEST), encoding="utf-8")
    (tmp_path / "distributions.jsonl").write_text(_jsonl(
        {"clip_id": c, "segment": s, "verb_probs": v, "noun_probs": n} for c, s, v, n in DISTRIBUTIONS
    ), encoding="utf-8")
    (tmp_path / "script.json").write_text(json.dumps(SCRIPT), encoding="utf-8")
    p = lambda name: str(tmp_path / name)
    common = ["--taxonomy", p("taxonomy.txt"), "--horizon", "3"]
    stdout = {}

    def ok(*argv, capture=None):
        capsys.readouterr()
        assert run(list(argv)) == 0, (argv, capsys.readouterr().err)
        if capture:
            stdout[capture] = capsys.readouterr().out

    ok("build-cooccur", "--annotations", p("train.jsonl"), *common, "--out", p("matrix.txt"))
    recognize = ["recognize", "--distributions", p("distributions.jsonl"), "--matrix", p("matrix.txt"),
                 "--taxonomy", p("taxonomy.txt")]
    ok(*recognize, "--top-k", "2", "--out", p("recognition_top2.jsonl"))
    ok(*recognize, "--top-k", "4", "--out", p("recognition_top4.jsonl"))
    ok(*recognize, "--naive", "--out", p("recognition_naive.jsonl"))
    anticipate = ["anticipate", "--recognition", p("recognition_top2.jsonl"), *common, "--candidates", "2",
                  "--train-annotations", p("train.jsonl")]
    ok(*anticipate, "--predictor", "ngram", "--beta", "0.5", "--candidates", "3", "--out", p("ngram_greedy.jsonl"))
    ok(*anticipate, "--predictor", "ngram", "--mode", "sample", "--seed", "3", "--sample-top-k", "3",
       "--out", p("ngram_sample.jsonl"))
    ok(*anticipate, "--predictor", "frequency", "--out", p("frequency.jsonl"))
    ok(*anticipate, "--predictor", "repeat-last", "--out", p("repeat_last.jsonl"))
    ok(*anticipate, "--predictor", "llm", "--llm-script", p("script.json"), "--llm-max-retries", "1",
       "--llm-request-log", p("llm_requests.jsonl"), "--out", p("llm.jsonl"))
    ok("evaluate", "--predictions", p("ngram_greedy.jsonl"), "--annotations", p("test.jsonl"), *common,
       "--recognition", p("recognition_top2.jsonl"), "--out", p("report.json"), capture="evaluate.stdout")
    ok("report", "--clip", "e", "--annotations", p("test.jsonl"), *common,
       "--recognition", p("recognition_top2.jsonl"), "--predictions", p("llm.jsonl"), capture="report.stdout")

    digests = {
        name: hashlib.sha256(
            stdout[name].encode() if name in stdout else (tmp_path / name).read_bytes()
        ).hexdigest()
        for name in DIGESTS
    }
    assert digests == DIGESTS
