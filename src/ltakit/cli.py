"""Command-line pipeline: synth -> build-cooccur -> recognize -> anticipate -> evaluate.

Stage boundaries are plain files, so any stage can be swapped for externally
produced data. All outputs are written atomically (temp file + rename).

Exit codes: 0 success, 1 usage error, 2 data validation or I/O error,
3 endpoint transport error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from pathlib import Path

from . import __version__
from ._fileio import atomic_write_text, load_json
from .anticipation import (
    DEFAULT_CANDIDATES,
    DEFAULT_PROMPT,
    LlmPredictor,
    NgramPredictor,
    RepeatLastPredictor,
    fit_ngram,
    load_prompt_template,
)
from .cooccurrence import build_cooccurrence, load_matrix, save_matrix
from .dataset_io import (
    DEFAULT_HORIZON,
    load_annotations,
    load_distributions,
    load_predictions,
    save_annotations,
    save_distributions,
    save_predictions,
)
from .errors import DataError, LlmError
from .llm_client import LlmClient, LlmConfig, MockLlmClient, load_script
from .metrics import corpus_eval, format_report, normalized_eds, observed_rows, save_report
from .recognition import (
    BRANCH_NOUN, BRANCH_VERB, DEFAULT_TOP_K, load_recognition, naive_clip, recognize_clip, save_recognition,
)
from .synthgen import SynthConfig, generate_corpus, provenance
from .taxonomy import Taxonomy, format_actions, load_taxonomy, save_taxonomy


class UsageError(Exception):
    """Flag combinations argparse cannot express (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _cmd_synth(args) -> None:
    config = SynthConfig(
        num_verbs=args.verbs,
        num_nouns=args.nouns,
        num_templates=args.templates,
        routine_length=args.routine_length,
        num_clips=args.clips,
        observed_segments=args.n_obs,
        horizon=args.horizon,
        noise_temperature=args.tau,
        verb_distractor_mass=args.eps_verb,
        noun_distractor_mass=args.eps_noun,
        routine_jitter=args.jitter,
        seed=args.seed,
    )
    corpus = generate_corpus(config)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_taxonomy(out_dir / "taxonomy.txt", corpus.taxonomy)
    save_annotations(out_dir / "annotations.jsonl", corpus.annotations, corpus.taxonomy)
    save_distributions(out_dir / "distributions.jsonl", corpus.distributions)
    atomic_write_text(out_dir / "provenance.json", json.dumps(provenance(config, __version__), indent=2) + "\n")
    print(f"wrote {len(corpus.annotations.clip_ids)} clips / {len(corpus.annotations.observed)} segments to {out_dir}")


def _cmd_build_cooccur(args) -> None:
    taxonomy = load_taxonomy(args.taxonomy)
    annotations = load_annotations(args.annotations, taxonomy, args.horizon)
    matrix = build_cooccurrence(annotations.actions()[0], taxonomy, args.alpha)
    save_matrix(args.out, matrix)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} matrix ({int(matrix.total())} actions) to {args.out}")


def _cmd_recognize(args) -> None:
    taxonomy = load_taxonomy(args.taxonomy)
    matrix = load_matrix(args.matrix, taxonomy)
    table = load_distributions(args.distributions, taxonomy)
    recognized = naive_clip(table) if args.naive else recognize_clip(table, matrix, args.top_k)
    save_recognition(args.out, recognized, taxonomy)
    mode = "naive" if args.naive else f"reranked (top-{args.top_k})"
    print(f"wrote {len(recognized.chosen)} {mode} segments for {len(table.clip_ids)} clips to {args.out}")


def _build_predictor(args, taxonomy: Taxonomy):
    """The predictor the flags ask for."""
    train = None
    if args.train_annotations:
        train = load_annotations(args.train_annotations, taxonomy, args.horizon)

    if args.predictor == "repeat-last":
        return RepeatLastPredictor()

    if args.predictor in ("ngram", "frequency"):
        if train is None:
            raise UsageError(f"--predictor {args.predictor} requires --train-annotations")
        order = 1 if args.predictor == "frequency" else args.order
        model = fit_ngram(*train.actions(), order, args.beta, taxonomy)
        return NgramPredictor(model, args.mode, args.seed, args.sample_top_k)

    # LLM path: a scripted mock when --llm-script is given, a live client otherwise.
    # Both take their config from the same flags; scripted failures never sleep.
    if args.llm_script:
        if args.workers > 1:
            # Script entries go to threads in arrival order, so output would vary run to run.
            raise UsageError("--llm-script replays its entries in request order; use --workers 1")
    elif not args.llm_endpoint or not args.llm_model:
        raise UsageError("--predictor llm requires --llm-endpoint and --llm-model (or --llm-script)")
    config = LlmConfig(
        endpoint_url="mock://local" if args.llm_script else args.llm_endpoint,
        model_name=args.llm_model or "scripted-mock",
        temperature=args.llm_temperature,
        max_tokens=args.llm_max_tokens,
        timeout=args.llm_timeout,
        max_retries=args.llm_max_retries,
        auth_token_env_var=args.llm_auth_env,
        backoff_base=0.0 if args.llm_script else LlmConfig.backoff_base,
    )
    client = MockLlmClient(load_script(args.llm_script), config) if args.llm_script else LlmClient(config)
    template = load_prompt_template(args.prompt_template) if args.prompt_template else DEFAULT_PROMPT
    fallback = fit_ngram(*train.actions(), 1, 1.0, taxonomy).most_frequent_action() if train else None
    return LlmPredictor(client, taxonomy, template, fallback, workers=args.workers)


def _cmd_anticipate(args) -> None:
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    taxonomy = load_taxonomy(args.taxonomy)
    recognition = load_recognition(args.recognition, taxonomy)
    clip_ids, starts = recognition.clip_ids, recognition.starts
    predictor = _build_predictor(args, taxonomy)
    predictions = predictor.predict_corpus(clip_ids, starts, recognition.chosen, args.horizon, args.candidates)
    save_predictions(args.out, predictions, taxonomy)
    if args.llm_request_log and args.predictor == "llm":
        atomic_write_text(args.llm_request_log, "".join(json.dumps(r) + "\n" for r in predictor.client.requests))
    print(f"wrote {len(clip_ids)} prediction sets ({args.candidates} x {args.horizon} each) to {args.out}")


def _cmd_evaluate(args) -> None:
    taxonomy = load_taxonomy(args.taxonomy)
    annotations = load_annotations(args.annotations, taxonomy, args.horizon)
    predictions = load_predictions(args.predictions, taxonomy, args.horizon)
    recognition = load_recognition(args.recognition, taxonomy) if args.recognition else None
    report = corpus_eval(predictions, annotations, recognition)
    if args.out:
        save_report(args.out, report)
    print(format_report(report))


def _cmd_report(args) -> None:
    taxonomy = load_taxonomy(args.taxonomy)
    annotations = load_annotations(args.annotations, taxonomy, args.horizon)
    if args.clip not in annotations.clip_ids:
        raise DataError(f"clip {args.clip!r} not found in {args.annotations}")
    at = annotations.clip_ids.index(args.clip)
    observed = annotations.observed[annotations.starts[at] : annotations.starts[at + 1]]
    future = annotations.future[annotations.has_future[:at].sum()] if annotations.has_future[at] else None

    lines = [f"clip {args.clip}"]
    recognition = load_recognition(args.recognition, taxonomy) if args.recognition else None
    marks, candidates = [], None  # per recognized segment: the mark on its observed line, its candidates
    if recognition is not None and args.clip in recognition.clip_ids:
        at = recognition.clip_ids.index(args.clip)
        a, b = recognition.starts[at : at + 2]
        observed_rows([args.clip], [a, b], annotations)  # the segments must not outrun the observed actions
        chosen, naive = (format_actions(pairs[a:b], taxonomy) for pairs in (recognition.chosen, recognition.naive))
        marks = [f"  | chosen: {c}  naive: {n}" + "  (fallback)" * f
                 for c, n, f in zip(chosen, naive, recognition.fallback[a:b].tolist())]
        c = int(recognition.counts[:a].sum())  # the clip's first candidate
        d = c + int(recognition.counts[a:b].sum())
        texts = iter([
            f"{action} {score:.4g} ({BRANCH_VERB if verb_anchored else BRANCH_NOUN})"
            for action, score, verb_anchored in zip(
                format_actions(recognition.candidates[c:d], taxonomy), recognition.scores[c:d].tolist(),
                recognition.verb_anchored[c:d].tolist(),
            )
        ])
        candidates = [  # segment i's candidates are the next `count`
            f"  [{i}] {', '.join(islice(texts, count)) or '-'}"
            for i, count in enumerate(recognition.counts[a:b].tolist())
        ]
    lines.append("observed:")
    for i, action in enumerate(format_actions(observed, taxonomy)):
        lines.append(f"  [{i}] {action}{marks[i] if i < len(marks) else ''}")
    if candidates is not None:
        lines += ["candidates per segment:", *candidates]
    if future is not None:
        lines.append("future (ground truth):")
        lines.append("  " + ", ".join(format_actions(future, taxonomy)))
    predictions = load_predictions(args.predictions, taxonomy, args.horizon) if args.predictions else None
    if predictions is not None and args.clip in predictions.clip_ids:
        at = predictions.clip_ids.index(args.clip)
        prediction = predictions.candidates[predictions.starts[at] : predictions.starts[at + 1]]
        lines.append("predicted candidates:")
        if future is not None:
            codes = lambda pairs: pairs[..., 0] * taxonomy.num_nouns + pairs[..., 1]  # action codes
            eds = normalized_eds(codes(prediction), codes(future)).tolist()
        for idx, candidate in enumerate(prediction):
            ed = "" if future is None else f"action ED {eds[idx]:.4f}: "
            lines.append(f"  [{idx}] {ed}{', '.join(format_actions(candidate, taxonomy))}")
    print("\n".join(lines))


def _build_parser() -> tuple[_Parser, _Parser, dict[str, argparse.Action], list[_Parser]]:
    """The --config parser, which reads that flag alone, and the full parser; its flags; every parser."""
    flags: dict[str, argparse.Action] = {}  # dest -> flag; a dest means the same on every subcommand

    def with_config(p):
        p.add_argument("--config", help="JSON file supplying flag defaults; explicit flags win")
        return p

    config = with_config(_Parser(prog="ltakit", add_help=False))
    parser = _Parser(prog="ltakit", description="Long-term action anticipation pipeline: "
                     "synthesize, re-rank, anticipate, evaluate.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    with_config(parser)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # Subcommands parse into a fresh namespace whose values overwrite the root
    # one, so config-supplied defaults must be installed on every parser.
    parsers = [parser]

    def new_command(name, help_text):
        p = with_config(sub.add_parser(name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter))
        parsers.append(p)
        return p

    def arg(p, *names, **kwargs):
        action = p.add_argument(*names, **kwargs)
        flags[action.dest] = action

    p = new_command("synth", "generate a seeded synthetic corpus")
    arg(p, "--out-dir", required=True, help="directory for taxonomy/annotations/distributions")
    arg(p, "--verbs", type=int, default=8, help="vocabulary size |V|")
    arg(p, "--nouns", type=int, default=96, help="vocabulary size |N|")
    arg(p, "--templates", type=int, default=3, help="number of routine templates")
    arg(p, "--routine-length", type=int, default=30, help="actions per routine cycle")
    arg(p, "--clips", type=int, default=200, help="number of clips to window out")
    arg(p, "--n-obs", type=int, default=8, help="observed segments per clip")
    arg(p, "--horizon", type=int, default=DEFAULT_HORIZON, help="future actions per clip (Z)")
    arg(p, "--tau", type=float, default=0.05, help="softening temperature for true labels")
    arg(p, "--eps-verb", type=float, default=0.0, help="mean distractor mass on verbs")
    arg(p, "--eps-noun", type=float, default=0.0, help="mean distractor mass on nouns")
    arg(p, "--jitter", type=float, default=0.0, help="per-position chance of going off-routine")
    arg(p, "--seed", type=int, default=0, help="generator seed")
    p.set_defaults(handler=_cmd_synth)

    p = new_command("build-cooccur", "tally the verb-noun co-occurrence matrix")
    arg(p, "--annotations", required=True, help="annotations JSONL")
    arg(p, "--taxonomy", required=True, help="taxonomy file")
    arg(p, "--alpha", type=float, default=0.0, help="additive smoothing")
    arg(p, "--horizon", type=int, default=DEFAULT_HORIZON, help="expected future length (Z)")
    arg(p, "--out", required=True, help="matrix file to write")
    p.set_defaults(handler=_cmd_build_cooccur)

    p = new_command("recognize", "re-rank per-segment distributions against co-occurrence")
    arg(p, "--distributions", required=True, help="distributions JSONL")
    arg(p, "--matrix", required=True, help="co-occurrence matrix file")
    arg(p, "--taxonomy", required=True, help="taxonomy file")
    arg(p, "--top-k", type=int, default=DEFAULT_TOP_K, help="anchors per branch")
    arg(p, "--naive", action="store_true", help="ablation: per-track argmax, no re-ranking")
    arg(p, "--out", required=True, help="recognition JSONL to write")
    p.set_defaults(handler=_cmd_recognize)

    p = new_command("anticipate", "predict K future sequences per clip")
    arg(p, "--recognition", required=True, help="recognition JSONL (the observed history)")
    arg(p, "--taxonomy", required=True, help="taxonomy file")
    arg(p, "--predictor", choices=["ngram", "frequency", "repeat-last", "llm"], default="ngram",
        help="prediction backend")
    arg(p, "--train-annotations", help="annotations JSONL used to fit ngram/frequency (and the llm fallback)")
    arg(p, "--order", type=int, default=2, help="n-gram order m")
    arg(p, "--beta", type=float, default=0.1, help="n-gram additive smoothing")
    arg(p, "--horizon", type=int, default=DEFAULT_HORIZON, help="future actions to predict (Z)")
    arg(p, "--candidates", type=int, default=DEFAULT_CANDIDATES, help="candidate sequences per clip (K)")
    arg(p, "--mode", choices=["greedy", "sample"], default="greedy", help="n-gram decoding mode")
    arg(p, "--seed", type=int, default=0, help="sampling seed")
    arg(p, "--sample-top-k", type=int, default=5, help="sampling truncation width")
    arg(p, "--prompt-template", help="JSON prompt template file (system_text, user_template)")
    arg(p, "--llm-endpoint", help="chat-completions endpoint URL")
    arg(p, "--llm-model", help="model name sent in requests")
    arg(p, "--llm-temperature", type=float, default=LlmConfig.temperature,
        help="sampling temperature for candidates 2..K")
    arg(p, "--llm-max-tokens", type=int, default=LlmConfig.max_tokens, help="completion token budget")
    arg(p, "--llm-timeout", type=float, default=LlmConfig.timeout, help="request timeout in seconds")
    arg(p, "--llm-max-retries", type=int, default=LlmConfig.max_retries, help="transport retries per request")
    arg(p, "--llm-auth-env", default="", help="environment variable holding the bearer token")
    arg(p, "--llm-script", help="scripted mock responses (JSON array) instead of a live endpoint")
    arg(p, "--llm-request-log", help="write every request body (token-free) to this JSONL file")
    arg(p, "--workers", type=int, default=1, help="clip-parallel worker threads")
    arg(p, "--out", required=True, help="predictions JSONL to write")
    p.set_defaults(handler=_cmd_anticipate)

    p = new_command("evaluate", "score predictions against ground-truth futures")
    arg(p, "--predictions", required=True, help="predictions JSONL")
    arg(p, "--annotations", required=True, help="annotations JSONL with futures")
    arg(p, "--taxonomy", required=True, help="taxonomy file")
    arg(p, "--recognition", help="recognition JSONL; enables the AR accuracy block")
    arg(p, "--horizon", type=int, default=DEFAULT_HORIZON, help="future length (Z)")
    arg(p, "--out", help="report JSON to write")
    p.set_defaults(handler=_cmd_evaluate)

    p = new_command("report", "qualitative dump for a single clip")
    arg(p, "--clip", required=True, help="clip id to inspect")
    arg(p, "--annotations", required=True, help="annotations JSONL")
    arg(p, "--taxonomy", required=True, help="taxonomy file")
    arg(p, "--recognition", help="recognition JSONL")
    arg(p, "--predictions", help="predictions JSONL")
    arg(p, "--horizon", type=int, default=DEFAULT_HORIZON, help="future length (Z)")
    p.set_defaults(handler=_cmd_report)

    return config, parser, flags, parsers


def _read_config(path) -> dict:
    """The --config file's flag defaults; none without the flag."""
    if path is None:
        return {}
    try:
        raw = load_json(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    except DataError as exc:  # undecodable bytes or invalid JSON
        raise UsageError(f"config file {exc}") from None
    if not isinstance(raw, dict):
        raise UsageError(f"config file {path} must hold a JSON object")
    return raw


def _config_value(key: str, value, flag: argparse.Action):
    """A config value checked as the flag would check it on the command line."""
    if flag.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise UsageError(f"config key {key!r} must be true or false, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise UsageError(f"config key {key!r} must be a string or a number, got {value!r}")
    try:
        value = flag.type(str(value)) if flag.type else str(value)
    except ValueError:
        raise UsageError(f"config key {key!r}: invalid {flag.type.__name__} value {value!r}") from None
    if flag.choices is not None and value not in flag.choices:
        raise UsageError(f"config key {key!r}: invalid choice {value!r} (choose from {flag.choices})")
    return value


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    config_parser, parser, flags, parsers = _build_parser()
    try:
        # The file supplies the full parser's defaults, so a parser of --config alone reads it first,
        # taking any abbreviation argparse takes (--conf).
        try:
            config = _read_config(config_parser.parse_known_args(argv)[0].config)
            if config:
                unknown = sorted(k for k in config if k.replace("-", "_") not in flags)
                if unknown:
                    raise UsageError(f"unknown config key {unknown[0]!r}")
                defaults = {
                    k.replace("-", "_"): _config_value(k, v, flags[k.replace("-", "_")])
                    for k, v in config.items()
                }
                for p in parsers:
                    p.set_defaults(**defaults)
        except UsageError:
            parser.parse_args(argv)  # the full parser's own usage error (such as an ambiguous --c) comes first
            raise
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"ltakit: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help (0) or usage error (1)
        return exc.code if isinstance(exc.code, int) else 0
    try:
        args.handler(args)
    except (UsageError, DataError, OSError, LlmError) as exc:
        print(f"ltakit: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 3 if isinstance(exc, LlmError) else 2
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
