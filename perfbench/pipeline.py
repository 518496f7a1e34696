"""Workloads, one timed pipeline pass through ``squadlab.cli.main``, and the
output checks run after the timed section.

A pass is the paper's pipeline as a user runs it: preprocess and
pseudo-embed a training and an evaluation corpus, train each of the five
architectures, predict with every checkpoint (writing predictions and logit
dumps), combine the members with all three ensemble strategies, and score
each ensemble.  Every CLI call builds its own embedder and models, so caches
fill inside the timed pass, as they do for a user.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import ARCHITECTURES, Tracer, layer_metrics

MODEL_F1_WEIGHTS = (60.0, 62.0, 64.0, 66.0, 68.0)  # one per architecture
MEAN_LOGITS_WEIGHT = 70.0
STRATEGIES = ("weighted-voting", "mean-logits", "wv-mean-logits")
SETUP_REPEATS = 3  # before every pass, so set-ups spread over the run
# The ensemble stage takes a fraction of a second, so each pass repeats it
# (same inputs, fresh outputs) to measure it over more time.
ENSEMBLE_ROUNDS = 5


@dataclass(frozen=True)
class Workload:
    why: str
    train_questions: int
    train_context_words: int
    eval_questions: int
    eval_context_words: int
    max_seq_length: int
    doc_stride: int


# Sizes keep one pass to several seconds on a 2-vCPU machine, so a run of
# ``run_seconds`` holds several passes.
WORKLOADS = {
    "long-train": Workload(
        why="seq 160 with 3 overlapping chunks per question: long "
            "recurrences, T^2 attention, big backward graphs and multi-chunk "
            "aggregation",
        train_questions=1, train_context_words=300,
        eval_questions=1, eval_context_words=300,
        max_seq_length=160, doc_stride=64),
    "paper-infer": Workload(
        why="the paper's base shape (seq 384, stride 128, 3 chunks), "
            "inference-dominated (one train step per model): forward graph, "
            "11k-pair decode, checkpoint and dump I/O",
        train_questions=1, train_context_words=376,
        eval_questions=1, eval_context_words=800,
        max_seq_length=384, doc_stride=128),
}


def write_corpora(workload: Workload, seed: int, directory: Path) -> None:
    """The workload's training and evaluation SQuAD files, from ``seed``."""
    from squadlab.synth import make_synthetic_examples, write_squad_json
    directory.mkdir(parents=True, exist_ok=True)
    for split, n, words, corpus_seed in (
            ("train", workload.train_questions, workload.train_context_words,
             2 * seed),
            ("eval", workload.eval_questions, workload.eval_context_words,
             2 * seed + 1)):
        write_squad_json(directory / f"{split}.json", make_synthetic_examples(
            n, seed=corpus_seed, context_words=words))


@dataclass
class Op:
    """One CLI call; ``outputs`` are the artifacts its checks cover."""
    command: str
    arch: str | None
    argv: list
    outputs: list
    kind: str = ""  # "nbest", "voted" or "report": the check of its outputs


def pass_ops(workload: Workload, seed: int, data: Path, out: Path) -> list:
    def o(name):
        return str(out / name)

    shape = ["--max-seq-length", str(workload.max_seq_length),
             "--doc-stride", str(workload.doc_stride)]
    seed_arg = ["--seed", str(seed)]
    ops = []
    for split in ("train", "eval"):
        ops.append(Op("preprocess", None, [
            "preprocess", "--data", str(data / f"{split}.json"),
            "--out", o(f"{split}.features.jsonl")] + shape + seed_arg,
            [o(f"{split}.features.jsonl")]))
        ops.append(Op("pseudo-embed", None, [
            "pseudo-embed", "--features", o(f"{split}.features.jsonl"),
            "--out", o(f"{split}.emb.bin")] + seed_arg,
            [o(f"{split}.emb.bin")]))
    for arch in ARCHITECTURES:
        ops.append(Op("train", arch, [
            "train", "--features", o("train.features.jsonl"),
            "--embeddings", o("train.emb.bin"), "--arch", arch,
            "--use-char-embedding", "--epochs", "1",
            "--out", o(f"{arch}.ckpt.json"),
            "--loss-curve", o(f"{arch}.loss.csv")] + shape + seed_arg,
            [o(f"{arch}.ckpt.json"), o(f"{arch}.loss.csv")]))
    for arch, weight in zip(ARCHITECTURES, MODEL_F1_WEIGHTS):
        ops.append(Op("predict", arch, [
            "predict", "--checkpoint", o(f"{arch}.ckpt.json"),
            "--features", o("eval.features.jsonl"),
            "--embeddings", o("eval.emb.bin"),
            "--data", str(data / "eval.json"),
            "--out", o(f"{arch}.pred.jsonl"),
            "--logits-out", o(f"{arch}.logits.bin"),
            "--model-f1-weight", str(weight)] + seed_arg,
            [o(f"{arch}.pred.jsonl"), o(f"{arch}.logits.bin")], "nbest"))
    preds = [o(f"{a}.pred.jsonl") for a in ARCHITECTURES]
    dumps = [o(f"{a}.logits.bin") for a in ARCHITECTURES]
    context = ["--features", o("eval.features.jsonl"),
               "--data", str(data / "eval.json")]
    strategy_args = {
        "weighted-voting": ["--pred"] + preds,
        "mean-logits": ["--dumps"] + dumps + context,
        "wv-mean-logits": ["--pred"] + preds + ["--dumps"] + dumps + context
        + ["--mean-weight", str(MEAN_LOGITS_WEIGHT)],
    }
    for r in range(ENSEMBLE_ROUNDS):
        for strategy in STRATEGIES:
            ops.append(Op("ensemble", None, [
                "ensemble", "--strategy", strategy] + strategy_args[strategy]
                + ["--out", o(f"{strategy}.r{r}.jsonl")] + seed_arg,
                [o(f"{strategy}.r{r}.jsonl")],
                "nbest" if strategy == "mean-logits" else "voted"))
        for strategy in STRATEGIES:
            ops.append(Op("evaluate", None, [
                "evaluate", "--pred", o(f"{strategy}.r{r}.jsonl"),
                "--gold", str(data / "eval.json"),
                "--out", o(f"{strategy}.r{r}.report.json")] + seed_arg,
                [o(f"{strategy}.r{r}.report.json")], "report"))
    return ops


@dataclass
class PassResult:
    ops: list
    returns: list  # exit code per op, or the exception text
    seconds: list  # wall time per op
    wall_s: float
    traced: bool

    def stage_seconds(self, *commands) -> float:
        return sum(s for op, s in zip(self.ops, self.seconds)
                   if op.command in commands)


def run_pass(ops, tracer=None, pass_index=0) -> PassResult:
    """Run every op in order through ``cli.main``; only the calls are timed."""
    cli = importlib.import_module("squadlab.cli")
    returns, seconds = [], []
    sink = io.StringIO()
    started = time.perf_counter()
    for op in ops:
        root = (tracer.begin_call(op.command, op.arch, pass_index)
                if tracer else None)
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = cli.main(op.argv)
        except Exception as e:  # a crash is a failed op, not a dead bench
            rc = f"{type(e).__name__}: {e}"
        seconds.append(time.perf_counter() - t)
        if root is not None:
            tracer.end(root)
        returns.append(rc)
        sink.seek(0)
        sink.truncate()
    return PassResult(ops, returns, seconds, time.perf_counter() - started,
                      tracer is not None)


# -- output checks ---------------------------------------------------------


def _sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _records(path) -> list:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _check_predictions(path, kind, qids) -> str | None:
    records = _records(path)
    got = [r["qid"] for r in records]
    if sorted(got) != qids:
        return f"{path}: covers {len(set(got))} of {len(qids)} qids once"
    for r in records:
        nbest = r["nbest"]
        if not all(math.isfinite(c["score"]) for c in nbest):
            return f"{path}: non-finite score for {r['qid']}"
        if kind == "voted" and len(nbest) != 1:
            return f"{path}: {r['qid']} has {len(nbest)} voted answers"
        if kind == "nbest":
            nulls = sum(c["start_token"] is None for c in nbest)
            if nulls != 1:
                return f"{path}: {r['qid']} has {nulls} null candidates"
            scores = [c["score"] for c in nbest]
            if scores != sorted(scores, reverse=True):
                return f"{path}: n-best of {r['qid']} is not sorted"
    return None


def _check_report(path) -> str | None:
    with open(path, encoding="utf-8") as f:
        report = json.load(f)
    if not (0.0 <= report["em"] <= 100.0 and 0.0 <= report["f1"] <= 100.0):
        return f"{path}: EM/F1 out of range"
    return None


def check_passes(passes, qids) -> list:
    """Per op of every pass: None if it passed, else the reason.

    An op passes when it exited 0, its outputs pass their format check, and
    every output is byte-identical to the same op's output in the first
    pass (the determinism contract: same seed, same bytes).
    """
    reference = None
    failures = []
    for p in passes:
        digests = []
        for op, rc in zip(p.ops, p.returns):
            why = None
            if rc != 0:
                why = f"{op.command} {op.arch or ''} returned {rc!r}"
            try:
                digest = [_sha256(path) for path in op.outputs]
                if why is None and op.kind in ("nbest", "voted"):
                    why = _check_predictions(op.outputs[0], op.kind, qids)
                elif why is None and op.kind == "report":
                    why = _check_report(op.outputs[0])
            except (OSError, ValueError, KeyError, TypeError) as e:
                digest, why = None, why or f"unreadable output: {e}"
            digests.append(digest)
            failures.append(why)
        if reference is None:
            reference = digests
        else:
            start = len(failures) - len(digests)
            for i, (ref, got) in enumerate(zip(reference, digests)):
                if failures[start + i] is None and ref != got:
                    failures[start + i] = (f"{p.ops[i].outputs} differ "
                                           f"from the first pass")
    return failures


def count_lines(path) -> int:
    """Non-empty lines of ``path``; 0 if a failed op never wrote it."""
    try:
        with open(path, encoding="utf-8") as f:
            return sum(1 for line in f if line.strip())
    except FileNotFoundError:
        return 0


# -- one measured run --------------------------------------------------------


@dataclass
class Measurement:
    metrics: dict  # name -> (value, unit)
    samples: dict  # name -> how it was aggregated, with the sample count
    attempted: int
    failures: list  # one reason per failed op
    passes: list  # every PassResult, in the order run
    missing: list  # trace targets this version of squadlab lacks


def _throughput(units_per_pass, passes, *commands):
    return (units_per_pass * len(passes)
            / sum(p.stage_seconds(*commands) for p in passes))


def _squadlab_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "squadlab" or name.startswith("squadlab.")}


def set_up(workload: Workload, seed: int, directory: Path) -> list:
    """Import squadlab afresh and write the corpora, SETUP_REPEATS times;
    returns each repeat's seconds.  Modules imported before the call are
    put back afterwards, so callers keep the objects they hold."""
    before = _squadlab_modules()
    times = []
    for _ in range(SETUP_REPEATS):
        for name in _squadlab_modules():
            del sys.modules[name]
        t = time.perf_counter()
        importlib.import_module("squadlab.cli")
        write_corpora(workload, seed, directory)
        times.append(time.perf_counter() - t)
    if before:
        for name in _squadlab_modules():
            del sys.modules[name]
        sys.modules.update(before)
    return times


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work: Path, trace_out: Path | None = None) -> Measurement:
    """Set up, run passes for ``seconds``, check every output, and return
    the end-to-end metrics (``trace`` False) or the per-layer metrics.

    With ``trace``, untraced and traced passes alternate, so the trace
    overhead is measured in-run under the same machine load.
    """
    setup_times = []

    def one_pass(index, tracer=None):
        # each pass reads corpora its own set-up wrote; the set-up is untimed
        # for the pass, so set-up samples spread over the whole run
        out = work / f"pass-{index:02d}"
        setup_times.extend(set_up(workload, seed, out / "data"))
        return run_pass(pass_ops(workload, seed, out / "data", out), tracer,
                        index)

    passes = []
    tracer = Tracer() if trace else None
    started = time.perf_counter()
    while True:
        if trace and len(passes) % 2 == 1:  # alternate: drift hits both alike
            tracer.install()
            try:
                passes.append(one_pass(len(passes), tracer))
            finally:
                tracer.uninstall()
        else:
            passes.append(one_pass(len(passes)))
        if any(rc != 0 for rc in passes[-1].returns):
            break
        # start another pass only if at least half of it fits the budget
        if (time.perf_counter() - started + passes[-1].wall_s / 2 > seconds
                and (not trace or len(passes) >= 2)):
            break
    plain = passes[0::2] if trace else passes
    traced = passes[1::2] if trace else []

    with open(work / "pass-00" / "data" / "eval.json", encoding="utf-8") as f:
        blob = json.load(f)
    qids = sorted(qa["id"] for art in blob["data"]
                  for para in art["paragraphs"] for qa in para["qas"])
    failures = [why for why in check_passes(passes, qids) if why]
    attempted = sum(len(p.ops) for p in passes)

    if trace:
        if trace_out is not None:
            tracer.write(trace_out)
        metrics = layer_metrics(tracer)
        overhead = (statistics.median(p.wall_s for p in traced)
                    / statistics.median(p.wall_s for p in plain) - 1.0
                    if traced else 0.0)
        metrics["trace.overhead_share"] = (overhead, "share")
        samples = {name: f"over {len(traced)} traced passes"
                   for name in metrics}
        samples["trace.overhead_share"] = (
            f"medians of {len(traced)} traced, {len(plain)} untraced passes")
        return Measurement(metrics, samples, attempted, failures, passes,
                           tracer.missing)

    first = work / "pass-00"
    train_units = count_lines(first / "train.features.jsonl") * len(
        ARCHITECTURES)
    predict_units = count_lines(first / "eval.features.jsonl") * len(
        ARCHITECTURES)
    ensemble_units = len(qids) * len(STRATEGIES)
    # throughputs are work over time summed across the run's passes, so a
    # short stage is measured over the whole run, not one moment of it
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (statistics.median(p.wall_s for p in plain), "s"),
        "train_feat_per_s": (_throughput(
            train_units, plain, "train"), "1/s"),
        "predict_feat_per_s": (_throughput(
            predict_units, plain, "predict"), "1/s"),
        "ensemble_q_per_s": (_throughput(
            ensemble_units * ENSEMBLE_ROUNDS, plain, "ensemble", "evaluate"),
            "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    samples = {name: f"summed over {len(plain)} passes" for name in metrics}
    samples["setup_s"] = f"median of {len(setup_times)} set-ups"
    samples["run_s"] = f"median of {len(plain)} passes"
    samples["peak_rss_mb"] = "process peak"
    return Measurement(metrics, samples, attempted, failures, passes, [])
