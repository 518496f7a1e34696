"""Command-line pipeline: preprocess -> pseudo-embed -> train -> predict ->
evaluate -> ensemble, plus a selftest of the golden fixtures.

Every command writes a run manifest next to its outputs so the invocation
can be reproduced.  Exit codes: 0 success, 1 usage error, 2 data error.
All randomness flows from --seed (fallback: the SQUADLAB_SEED env var).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .data import (DataError, PreprocessConfig, load_pretokenized,
                   load_squad_json, load_vocab, preprocess_dataset,
                   read_features, toy_tokenize, write_features)
from .embeddings import (PseudoEmbedder, check_embedder,
                         load_embedding_fixture, save_embedding_fixture)
from .ensemble import (PredictionSet, decode_logit_set, load_logits_dump,
                       mean_logits, save_logits_dump, weighted_voting,
                       weighted_voting_with_mean_logits)
from .heads import (DEFAULT_NULL_THRESHOLD, read_predictions,
                    write_predictions)
from .scoring import evaluate, predictions_from_file, write_report
from .synth import question_tokens, word_tokenize
from .training import (ARCHITECTURES, Hyperparams, ModelConfig, build_model,
                       load_model, predict, save_model, train,
                       write_loss_curve)


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
        "wall_time_s": round(elapsed, 3),
    }
    path = str(out_path) + ".manifest.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, ensure_ascii=False, indent=2)


def _tokenizers(args, examples):
    """Context tokenizer map + question tokenizer for preprocess."""
    if args.pretokenized:
        ctx_map = load_pretokenized(args.pretokenized)
        for ex in examples:
            if ex.qid not in ctx_map:
                raise DataError(f"{args.pretokenized}: no tokens for "
                                f"question {ex.qid!r}")
    elif args.vocab:
        vocab = load_vocab(args.vocab)
        ctx_map = {ex.qid: toy_tokenize(ex.context, vocab) for ex in examples}
    else:
        # default: whole-word tokens
        ctx_map = {ex.qid: word_tokenize(ex.context) for ex in examples}
    return ctx_map, question_tokens


def cmd_preprocess(args):
    examples = load_squad_json(args.data)
    ctx_map, q_tok = _tokenizers(args, examples)
    cfg = PreprocessConfig(max_seq_length=args.max_seq_length,
                           doc_stride=args.doc_stride)
    features = preprocess_dataset(examples, ctx_map, cfg, q_tok)
    write_features(args.out, features)
    print(f"wrote {len(features)} features for {len(examples)} examples "
          f"to {args.out}", file=sys.stderr)
    return [args.data], [args.out]


def cmd_pseudo_embed(args):
    features = read_features(args.features)
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
    model = build_model(cfg, args.seed)
    provider = _provider(args.embeddings, args.d_model, args.seed)
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


def cmd_predict(args):
    features = read_features(args.features)
    examples = load_squad_json(args.data)
    context_by_qid = {ex.qid: ex.context for ex in examples}
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
            f"model-{i}", read_predictions(path), weight=weight))
    if args.strategy == "weighted-voting":
        records = weighted_voting(sets, null_threshold=args.null_threshold)
    else:
        dumps = [load_logits_dump(p) for p in args.dumps]
        inputs += list(args.dumps) + [args.features, args.data]
        features = read_features(args.features)
        features_by_key = {(f.qid, f.feature_index): f for f in features}
        examples = load_squad_json(args.data)
        context_by_qid = {ex.qid: ex.context for ex in examples}
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squadlab",
        description="desk-scale extractive question answering pipeline",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="SQuAD JSON -> feature file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-seq-length", type=int, default=384)
    p.add_argument("--doc-stride", type=int, default=128)
    p.add_argument("--pretokenized", help="JSON-lines {qid, tokens, spans}")
    p.add_argument("--vocab", help="subword vocab file for the toy tokenizer")
    _add_seed(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("pseudo-embed",
                       help="deterministic embeddings for a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--d-model", type=int, default=64)
    _add_seed(p)
    p.set_defaults(func=cmd_pseudo_embed)

    p = sub.add_parser("train", help="train one architecture")
    p.add_argument("--features", required=True)
    p.add_argument("--embeddings", required=True,
                   help="embedding fixture path, or 'pseudo'")
    p.add_argument("--arch", required=True, choices=ARCHITECTURES)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-curve")
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--hidden", type=int, default=32)
    # accepted so older command lines parse: every BiDAF tag uses chars
    p.add_argument("--use-char-embedding", action="store_true",
                   default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--max-seq-length", type=int, default=384)
    p.add_argument("--doc-stride", type=int, default=128)
    p.add_argument("--dropout-rate", type=float, default=0.2)
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
    p.add_argument("--n-best", type=int, default=20)
    p.add_argument("--max-answer-length", type=int, default=30)
    p.add_argument("--model-f1-weight", type=float)
    _add_seed(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="EM/F1 against gold answers")
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out")
    p.add_argument("--null-threshold", type=float, default=0.0)
    _add_seed(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ensemble", help="combine member model predictions")
    p.add_argument("--strategy", required=True,
                   choices=["mean-logits", "weighted-voting",
                            "wv-mean-logits"])
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


def _validate(args, parser):
    if args.seed is None:
        env = os.environ.get("SQUADLAB_SEED")
        try:
            args.seed = int(env) if env else 0
        except ValueError:
            parser.error(f"SQUADLAB_SEED must be an integer, got {env!r}")
    if args.command == "predict":
        for flag, value in (("--n-best", args.n_best),
                            ("--max-answer-length", args.max_answer_length)):
            if value < 1:
                parser.error(f"{flag} must be at least 1")
    if args.command == "ensemble":
        needs_dumps = args.strategy in ("mean-logits", "wv-mean-logits")
        if needs_dumps and (not args.dumps or not args.features
                            or not args.data):
            parser.error(f"{args.strategy} requires --dumps, --features "
                         f"and --data")
        if args.strategy != "mean-logits" and not args.pred:
            parser.error(f"{args.strategy} requires --pred files")
        if args.strategy == "wv-mean-logits" and args.mean_weight is None:
            parser.error("wv-mean-logits requires --mean-weight")
        if args.weights and len(args.weights) != len(args.pred):
            parser.error("--weights must match the number of --pred files")
        if args.strategy == "mean-logits":
            if args.null_threshold is not None:
                parser.error("mean-logits takes no --null-threshold: it "
                             "writes n-best lists; pass it to evaluate")
        elif args.null_threshold is None:
            args.null_threshold = DEFAULT_NULL_THRESHOLD


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
