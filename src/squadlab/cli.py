"""Command-line pipeline: preprocess -> pseudo-embed -> train -> predict ->
evaluate -> ensemble, plus a selftest of the golden fixtures.

Every command writes a run manifest next to its outputs so the invocation
can be reproduced.  Exit codes: 0 success, 1 usage error, 2 data error.
All randomness flows from --seed (fallback: the SQUADLAB_SEED env var, then
0), a non-negative integer.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import sys
import time

import numpy as np

from . import BLAS_THREAD_VARS, __version__
from .data import (DataError, PreprocessConfig, load_pretokenized,
                   load_squad_json, load_vocab, preprocess_dataset,
                   read_features, toy_tokenize, write_features)
from .embeddings import (PseudoEmbedder, check_embedder,
                         load_embedding_fixture, save_embedding_fixture)
from .ensemble import (PredictionSet, check_weight, decode_logit_set,
                       load_logits_dump, mean_logits, save_logits_dump,
                       weighted_voting, weighted_voting_with_mean_logits)
from .heads import (DEFAULT_MAX_ANSWER_LENGTH, DEFAULT_N_BEST,
                    DEFAULT_NULL_THRESHOLD, read_predictions,
                    write_predictions)
from .scoring import evaluate, predictions_from_file, write_report
from .synth import question_tokens, word_tokenize
from .training import (ARCHITECTURES, Hyperparams, ModelConfig, build_model,
                       load_model, predict, save_model, train,
                       write_loss_curve)


def _build() -> dict:
    """What an output's bytes may depend on besides the code, the inputs
    and the seed: numpy's version, its BLAS, and the BLAS thread settings
    of the environment (None where unset)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # a numpy without the "dicts" mode
        blas = {}
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}}


def _manifest_path(out_path) -> str:
    return str(out_path) + ".manifest.json"


def _write_manifest(out_path, command, args_dict, inputs, outputs, seed,
                    elapsed):
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(args_dict.items())
                   if k not in ("func",)},
        "inputs": inputs,
        "outputs": outputs,
        "seed": seed,
        "toolkit_version": __version__,
        "build": _build(),
        "wall_time_s": round(elapsed, 3),
        # the process's peak so far (Linux reports ru_maxrss in KiB)
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 3),
    }
    with open(_manifest_path(out_path), "w", encoding="utf-8") as f:
        json.dump(manifest, f, ensure_ascii=False, indent=2)


def _tokenizers(args, examples):
    """qid -> tokenized context, as ``--pretokenized`` or ``--vocab`` say
    (default: whole words).  Pretokenized tokens must cover every question,
    and their spans must end within its context."""
    if args.pretokenized:
        ctx_map = load_pretokenized(args.pretokenized)
        for ex in examples:
            if ex.qid not in ctx_map:
                raise DataError(f"{args.pretokenized}: no tokens for "
                                f"question {ex.qid!r}")
            reach = max((end for _, end in ctx_map[ex.qid].token_word_span),
                        default=0)
            if reach > len(ex.context):
                raise DataError(
                    f"{args.pretokenized}: question {ex.qid!r}: a span ends "
                    f"at character {reach}, past its context's "
                    f"{len(ex.context)}")
    elif args.vocab:
        vocab = load_vocab(args.vocab)
        ctx_map = {ex.qid: toy_tokenize(ex.context, vocab) for ex in examples}
    else:
        # default: whole-word tokens
        ctx_map = {ex.qid: word_tokenize(ex.context) for ex in examples}
    return ctx_map


def cmd_preprocess(args):
    examples = load_squad_json(args.data)
    cfg = PreprocessConfig(max_seq_length=args.max_seq_length,
                           doc_stride=args.doc_stride)
    features = preprocess_dataset(examples, _tokenizers(args, examples), cfg,
                                  question_tokens)
    write_features(args.out, features)
    print(f"wrote {len(features)} features for {len(examples)} examples "
          f"to {args.out}", file=sys.stderr)
    tokens = args.pretokenized or args.vocab  # the file _tokenizers read
    return [args.data, *([tokens] if tokens else [])], [args.out]


def cmd_pseudo_embed(args):
    features = read_features(args.features)
    if not features:
        raise DataError(f"{args.features} holds no features to embed")
    embedder = PseudoEmbedder(args.d_model, args.seed)
    matrices = [embedder.embed(f) for f in features]
    save_embedding_fixture(args.out, matrices)
    print(f"wrote {len(matrices)} embedding matrices to {args.out}",
          file=sys.stderr)
    return [args.features], [args.out]


def _provider(spec, d_model, seed):
    """The embedder ``--embeddings`` names: 'pseudo' or a fixture path."""
    if spec == "pseudo":
        return PseudoEmbedder(d_model, seed)
    return load_embedding_fixture(spec)


def _embedding_inputs(args):
    """The embedding fixture a command read, as manifest inputs."""
    return [] if args.embeddings == "pseudo" else [args.embeddings]


def cmd_train(args):
    features = read_features(args.features)
    cfg = ModelConfig(architecture=args.arch, d_model=args.d_model,
                      hidden=args.hidden, dropout_rate=args.dropout_rate)
    hp = Hyperparams(learning_rate=args.learning_rate,
                     batch_size=args.batch_size, epochs=args.epochs,
                     max_seq_length=args.max_seq_length,
                     doc_stride=args.doc_stride, seed=args.seed)
    provider = _provider(args.embeddings, args.d_model, args.seed)
    width = provider.identity()["d_model"]
    if width != args.d_model:
        raise DataError(f"{args.embeddings} holds d_model={width} "
                        f"embeddings, --d-model is {args.d_model}")
    model = build_model(cfg, args.seed)
    result = train(model, features, provider, hp)
    save_model(args.out, model,
               hyperparams={**vars(hp), "embeddings": provider.identity()})
    outputs = [args.out]
    if args.loss_curve:
        write_loss_curve(args.loss_curve, result)
        outputs.append(args.loss_curve)
    print(f"trained {args.arch} ({model.parameter_count()} parameters), "
          f"final loss {result.final_loss():.4f}", file=sys.stderr)
    return [args.features, *_embedding_inputs(args)], outputs


def _evaluation_inputs(args):
    """The ``--features`` records and the ``--data`` contexts by qid, for
    ``predict`` and the ensembles that decode; every ``--data`` question
    needs a feature."""
    features = read_features(args.features)
    examples = load_squad_json(args.data)
    covered = {f.qid for f in features}
    uncovered = [ex.qid for ex in examples if ex.qid not in covered]
    if uncovered:
        raise DataError(f"{args.features} has no features for "
                        f"{len(uncovered)} of {len(examples)} --data "
                        f"questions; first: {uncovered[:5]}")
    return features, {ex.qid: ex.context for ex in examples}


def cmd_predict(args):
    features, context_by_qid = _evaluation_inputs(args)
    model = load_model(args.checkpoint)
    provider = _provider(args.embeddings, model.cfg.d_model, args.seed)
    check_embedder(model.hyperparams.get("embeddings"), provider,
                   args.checkpoint)
    records, logit_sets = predict(
        model, features, provider, context_by_qid,
        n_best=args.n_best, max_answer_length=args.max_answer_length,
        model_f1_weight=args.model_f1_weight,
    )
    write_predictions(args.out, records)
    outputs = [args.out]
    if args.logits_out:
        save_logits_dump(args.logits_out, logit_sets)
        outputs.append(args.logits_out)
    print(f"wrote predictions for {len(records)} questions to {args.out}",
          file=sys.stderr)
    return ([args.features, args.data, args.checkpoint,
             *_embedding_inputs(args)], outputs)


def cmd_evaluate(args):
    examples = load_squad_json(args.gold)
    records = read_predictions(args.pred)
    answers = predictions_from_file(records,
                                    null_threshold=args.null_threshold)
    report = evaluate(answers, examples)
    print(report.summary())
    print(f"EM={report.em:.1f}")
    print(f"F1={report.f1:.1f}")
    outputs = []
    if args.out:
        write_report(args.out, report)
        outputs.append(args.out)
    return [args.pred, args.gold], outputs


def cmd_ensemble(args):
    inputs = list(args.pred)
    sets = []
    for i, path in enumerate(args.pred):
        weight = args.weights[i] if args.weights else None
        sets.append(PredictionSet.from_records(
            path, read_predictions(path), weight=weight))
    if args.strategy == "weighted-voting":
        records = weighted_voting(sets, null_threshold=args.null_threshold)
    else:
        dumps = [load_logits_dump(p) for p in args.dumps]
        inputs += list(args.dumps) + [args.features, args.data]
        features, context_by_qid = _evaluation_inputs(args)
        features_by_key = {(f.qid, f.feature_index): f for f in features}
        if args.strategy == "mean-logits":
            records = decode_logit_set(mean_logits(dumps), features_by_key,
                                       context_by_qid)
        else:  # wv-mean-logits
            records = weighted_voting_with_mean_logits(
                sets, dumps, args.mean_weight, features_by_key,
                context_by_qid, null_threshold=args.null_threshold)
    write_predictions(args.out, records)
    print(f"{args.strategy}: wrote {len(records)} predictions to {args.out}",
          file=sys.stderr)
    return inputs, [args.out]


def cmd_selftest(args):
    from .selftest import run_selftest
    ok = run_selftest(verbose=True)
    if not ok:
        raise DataError("selftest failed")
    return [], []


def _add_seed(p):
    p.add_argument("--seed", type=int, default=None,
                   help="rng seed (default: SQUADLAB_SEED env var or 0)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one, so in-process callers of ``main`` pay for it once.  Parsing
    leaves it unchanged; callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="squadlab",
        description="desk-scale extractive question answering pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each default is read from the library (dataclass fields are class
    # attributes holding their defaults)

    p = sub.add_parser("preprocess", help="SQuAD JSON -> feature file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-seq-length", type=int,
                   default=Hyperparams.max_seq_length)
    p.add_argument("--doc-stride", type=int, default=Hyperparams.doc_stride)
    tokens = p.add_mutually_exclusive_group()
    tokens.add_argument("--pretokenized",
                        help="JSON-lines {qid, tokens, spans}")
    tokens.add_argument("--vocab",
                        help="subword vocab file for the toy tokenizer")
    _add_seed(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pseudo-embed",
                       help="deterministic embeddings for a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    _add_seed(p)
    p.set_defaults(func=cmd_pseudo_embed)

    p = sub.add_parser("train", help="train one architecture")
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True,
                   help="embedding fixture path, or 'pseudo'")
    p.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-curve")
    p.add_argument("--d-model", type=int, default=ModelConfig.d_model)
    p.add_argument("--hidden", type=int, default=ModelConfig.hidden)
    # accepted so older command lines parse: every BiDAF tag uses chars
    p.add_argument("--use-char-embedding", action="store_true",
                   default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.add_argument("--learning-rate", type=float,
                   default=Hyperparams.learning_rate)
    p.add_argument("--batch-size", type=int, default=Hyperparams.batch_size)
    p.add_argument("--epochs", type=int, default=Hyperparams.epochs)
    p.add_argument("--max-seq-length", type=int,
                   default=Hyperparams.max_seq_length)
    p.add_argument("--doc-stride", type=int, default=Hyperparams.doc_stride)
    p.add_argument("--dropout-rate", type=float,
                   default=ModelConfig.dropout_rate)
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="checkpoint + features -> predictions")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--data", required=True,
                   help="SQuAD JSON supplying context text")
    p.add_argument("--out", required=True)
    p.add_argument("--logits-out")
    p.add_argument("--n-best", type=int, default=DEFAULT_N_BEST)
    p.add_argument("--max-answer-length", type=int,
                   default=DEFAULT_MAX_ANSWER_LENGTH)
    p.add_argument("--model-f1-weight", type=float)
    _add_seed(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="EM/F1 against gold answers")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.add_argument("--null-threshold", type=float,
                   default=DEFAULT_NULL_THRESHOLD)
    _add_seed(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="combine member model predictions")
    p.add_argument("--strategy", required=True,
                   choices=list(_ENSEMBLE_INPUTS))
    p.add_argument("--pred", nargs="*", default=[])
    p.add_argument("--weights", nargs="*", type=float)
    p.add_argument("--dumps", nargs="*", default=[])
    p.add_argument("--features")
    p.add_argument("--data")
    p.add_argument("--mean-weight", type=float)
    p.add_argument("--out", required=True)
    p.add_argument("--null-threshold", type=float, default=None,
                   help="voting strategies only (default 0)")
    _add_seed(p)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("selftest",
                       help="gradient checks and golden fixtures")
    _add_seed(p)
    p.set_defaults(func=cmd_selftest)

    return parser


# per ensemble strategy: the flags it needs and the flags it may take; any
# other ensemble flag is a usage error, since the strategy would ignore it
_ENSEMBLE_INPUTS = {
    "mean-logits": (("--dumps", "--features", "--data"), ()),
    "weighted-voting": (("--pred",), ("--weights", "--null-threshold")),
    "wv-mean-logits": (("--pred", "--dumps", "--features", "--data",
                        "--mean-weight"), ("--weights", "--null-threshold")),
}
_ENSEMBLE_FLAGS = ("--pred", "--weights", "--dumps", "--features", "--data",
                   "--mean-weight", "--null-threshold")
# the flags that name files a command writes, and those that name files it
# reads; each output, and the manifest written next to it, needs a path no
# other of these names
_OUTPUT_FLAGS = ("--out", "--loss-curve", "--logits-out")
_INPUT_FLAGS = ("--data", "--features", "--embeddings", "--checkpoint",
                "--pretokenized", "--vocab", "--pred", "--dumps", "--gold")


def _flag(args, flag):
    return getattr(args, flag[2:].replace("-", "_"), None)


def _paths(args, flags):
    """(flag, path) for each path the command's ``flags`` name; the
    pseudo embedder is no file."""
    for flag in flags:
        value = _flag(args, flag)
        for path in value if isinstance(value, list) else [value]:
            if path is not None and (flag, path) != ("--embeddings",
                                                     "pseudo"):
                yield flag, path


def _validate(args, parser):
    source = "--seed"
    if args.seed is None:
        source, env = "SQUADLAB_SEED", os.environ.get("SQUADLAB_SEED")
        try:
            args.seed = int(env) if env else 0
        except ValueError:
            parser.error(f"SQUADLAB_SEED must be an integer, got {env!r}")
    if args.seed < 0:
        parser.error(f"{source} must be at least 0, got {args.seed}")
    if args.command == "predict":
        for flag, value in (("--n-best", args.n_best),
                            ("--max-answer-length", args.max_answer_length)):
            if value < 1:
                parser.error(f"{flag} must be at least 1")
    if args.command == "ensemble":
        needs, may = _ENSEMBLE_INPUTS[args.strategy]
        given = [flag for flag in _ENSEMBLE_FLAGS
                 if _flag(args, flag) not in (None, [])]
        missing = [flag for flag in needs if flag not in given]
        if missing:
            parser.error(f"{args.strategy} requires {', '.join(missing)}")
        unread = [flag for flag in given if flag not in needs + may]
        if unread:
            parser.error(f"{args.strategy} takes no {', '.join(unread)}: it "
                         f"reads only {', '.join(needs + may)}")
        if args.weights and len(args.weights) != len(args.pred):
            parser.error("--weights must match the number of --pred files")
        if "--null-threshold" in may and args.null_threshold is None:
            args.null_threshold = DEFAULT_NULL_THRESHOLD
    weights = [("--model-f1-weight", getattr(args, "model_f1_weight", None)),
               ("--mean-weight", getattr(args, "mean_weight", None))]
    weights += [("--weights", w) for w in getattr(args, "weights", None) or []]
    for flag, weight in weights:
        if weight is not None:
            try:
                check_weight(flag, weight)
            except ValueError as e:
                parser.error(str(e))
    threshold = getattr(args, "null_threshold", None)
    if threshold is not None and not math.isfinite(threshold):
        parser.error(f"--null-threshold must be finite, got {threshold}")
    written = {}
    for flag, path in [*_paths(args, _OUTPUT_FLAGS),
                       *_paths(args, _INPUT_FLAGS)]:
        names = [(flag, path)]
        if flag in _OUTPUT_FLAGS:
            names.append((f"{flag}'s manifest", _manifest_path(path)))
        for name, named in names:
            real = os.path.realpath(named)
            if real in written:
                parser.error(f"{name} and {written[real]} name the same file "
                             f"{named}; each output needs a path of its own")
            if flag in _OUTPUT_FLAGS:
                written[real] = name


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args, parser)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    started = time.monotonic()
    try:
        inputs, outputs = args.func(args)
    except (DataError, OSError, KeyError, ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    elapsed = time.monotonic() - started
    for out in outputs:
        _write_manifest(out, args.command, vars(args), inputs, outputs,
                        args.seed, elapsed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
