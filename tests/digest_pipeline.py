"""Run a small seeded pipeline through ``squadlab.cli.main`` and print the
sha256 of every artifact it writes, manifests excluded (they hold wall
times and peak RSS), with the build that wrote them: numpy's version, its
BLAS name and version and the BLAS thread variables (``cli._build()``, as
manifests record them) and the machine.

The pipeline is the paper's: preprocess and pseudo-embed a training and an
evaluation corpus (the evaluation corpus is also preprocessed from
``--pretokenized`` word tokens and with a ``--vocab`` of subwords, features
that nothing downstream reads), train all five architectures (with ``--loss-curve``),
predict with each checkpoint (with ``--logits-out``), combine the members
with the three ensemble strategies, and evaluate every prediction file.
``tests/test_artifact_digests.py`` runs this script in a subprocess with the
BLAS thread variables removed, so at the package's one-thread default, and
compares its output with ``tests/artifact_digests.json``.

A change that alters outputs on purpose regenerates that list with::

    python tests/digest_pipeline.py --write

and names in CHANGES.md which artifacts changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from squadlab import cli  # noqa: E402
from squadlab.data import write_jsonl  # noqa: E402
from squadlab.synth import (make_synthetic_examples, word_tokenize,  # noqa: E402
                            write_squad_json)
from squadlab.training import ARCHITECTURES  # noqa: E402

DIGESTS = HERE / "artifact_digests.json"
SEED = "7"
# seq 32 with stride 8 gives the 30-word evaluation contexts several
# chunks per question, so aggregation across chunks is covered
SHAPE = ["--max-seq-length", "32", "--doc-stride", "8"]
CORPORA = {"train": (3, 12, 14), "eval": (3, 30, 15)}  # n, words, seed
# subwords for the toy tokenizer: some filler words split in two, some
# kept whole, the rest fall back to characters
VOCAB = ("al", "pha", "bra", "vo", "char", "lie", "del", "ta", "echo", "fox",
         "trot", "golf", "ho", "tel", "1", "23", "42", "107")
MODEL_F1_WEIGHTS = (60.0, 62.0, 64.0, 66.0, 68.0)
STRATEGIES = ("weighted-voting", "mean-logits", "wv-mean-logits")


def _commands(d: Path) -> list:
    def o(name):
        return str(d / name)

    seed = ["--seed", SEED]
    cmds = []
    for split in CORPORA:
        cmds.append(["preprocess", "--data", o(f"{split}.json"),
                     "--out", o(f"{split}.features.jsonl")] + SHAPE + seed)
        cmds.append(["pseudo-embed", "--features", o(f"{split}.features.jsonl"),
                     "--out", o(f"{split}.emb.bin")] + seed)
    for tokenizer, source in (("pretokenized", "eval.tok.jsonl"),
                              ("vocab", "vocab.txt")):
        cmds.append(["preprocess", "--data", o("eval.json"),
                     f"--{tokenizer}", o(source),
                     "--out", o(f"eval.{tokenizer}.features.jsonl")]
                    + SHAPE + seed)
    for arch in ARCHITECTURES:
        cmds.append(["train", "--features", o("train.features.jsonl"),
                     "--embeddings", o("train.emb.bin"), "--arch", arch,
                     "--epochs", "2", "--batch-size", "2",
                     "--out", o(f"{arch}.ckpt.json"),
                     "--loss-curve", o(f"{arch}.loss.csv")] + SHAPE + seed)
    for arch, weight in zip(ARCHITECTURES, MODEL_F1_WEIGHTS):
        cmds.append(["predict", "--checkpoint", o(f"{arch}.ckpt.json"),
                     "--features", o("eval.features.jsonl"),
                     "--embeddings", o("eval.emb.bin"),
                     "--data", o("eval.json"),
                     "--out", o(f"{arch}.pred.jsonl"),
                     "--logits-out", o(f"{arch}.logits.bin"),
                     "--model-f1-weight", str(weight)] + seed)
    preds = [o(f"{a}.pred.jsonl") for a in ARCHITECTURES]
    dumps = [o(f"{a}.logits.bin") for a in ARCHITECTURES]
    context = ["--features", o("eval.features.jsonl"),
               "--data", o("eval.json")]
    members = {
        "weighted-voting": ["--pred"] + preds,
        "mean-logits": ["--dumps"] + dumps + context,
        "wv-mean-logits": ["--pred"] + preds + ["--dumps"] + dumps + context
        + ["--mean-weight", "70"],
    }
    for strategy in STRATEGIES:
        cmds.append(["ensemble", "--strategy", strategy] + members[strategy]
                    + ["--out", o(f"{strategy}.jsonl")] + seed)
    for name in [*ARCHITECTURES, *STRATEGIES]:
        pred = o(f"{name}.pred.jsonl" if name in ARCHITECTURES
                 else f"{name}.jsonl")
        cmds.append(["evaluate", "--pred", pred, "--gold", o("eval.json"),
                     "--out", o(f"{name}.report.json")] + seed)
    return cmds


def run_pipeline() -> dict:
    """sha256 of every non-manifest file one pipeline pass writes, by name;
    a command that fails raises RuntimeError with its stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for split, (n, words, corpus_seed) in CORPORA.items():
            write_squad_json(d / f"{split}.json", make_synthetic_examples(
                n, seed=corpus_seed, context_words=words))
        n, words, corpus_seed = CORPORA["eval"]
        write_jsonl(d / "eval.tok.jsonl", [
            {"qid": ex.qid, "tokens": ctx.tokens, "spans": ctx.token_word_span}
            for ex in make_synthetic_examples(n, seed=corpus_seed,
                                              context_words=words)
            for ctx in [word_tokenize(ex.context)]])
        (d / "vocab.txt").write_text("\n".join(VOCAB) + "\n",
                                     encoding="utf-8")
        for argv in _commands(d):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}: "
                                   f"{err.getvalue().strip()}")
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(d.iterdir())
                if not p.name.endswith(".manifest.json")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true",
                    help=f"write the digests to {DIGESTS.name}")
    args = ap.parse_args()
    # numpy, its BLAS and the BLAS thread variables, as manifests record
    snapshot = {**cli._build(), "machine": platform.machine(),
                "digests": run_pipeline()}
    text = json.dumps(snapshot, indent=2, sort_keys=True) + "\n"
    if args.write:
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
