"""The package fixes the BLAS thread count: importing squadlab before numpy
sets each of ``BLAS_THREAD_VARS`` that the caller left unset to "1", so a
fresh process writes the one-thread bytes whatever the machine's core
count, and a count the caller chose is kept."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squadlab
from squadlab import BLAS_THREAD_VARS, cli
from squadlab.synth import make_synthetic_examples, write_squad_json

SRC = str(Path(squadlab.__file__).resolve().parent.parent)


def _env(**variables):
    """This environment without the thread variables, squadlab importable,
    and then ``variables``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return {**env, **variables}


def _after_import(first="", **variables):
    """The thread variables as a fresh process started with
    ``_env(**variables)`` sees them after ``first`` and ``import
    squadlab``."""
    code = (f"import json, os\n{first}\nimport squadlab\nprint(json.dumps("
            f"{{v: os.environ.get(v) for v in squadlab.BLAS_THREAD_VARS}}))")
    done = subprocess.run([sys.executable, "-c", code], env=_env(**variables),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestDefault:
    def test_unset_variables_become_one(self):
        assert _after_import() == dict.fromkeys(BLAS_THREAD_VARS, "1")

    def test_nothing_changes_after_numpy(self):
        assert _after_import("import numpy") == dict.fromkeys(BLAS_THREAD_VARS)

    def test_a_variable_the_caller_set_is_kept(self):
        # the OpenBLAS that numpy wheels bundle ignores MKL_NUM_THREADS,
        # so the value starts no thread
        assert _after_import(MKL_NUM_THREADS="2") == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "2"}


@pytest.fixture(scope="module")
def attention_model(tmp_path_factory):
    """An attention model trained at long-train's shape (seq 160, stride
    64, 300-word contexts: 3 packed chunks), and a predict of it that runs
    in a fresh process with ``_env(**variables)`` and gives its logit dump
    and its manifest."""
    tmp_path = tmp_path_factory.mktemp("threads")

    def o(name):
        return str(tmp_path / name)

    shape = ["--max-seq-length", "160", "--doc-stride", "64", "--seed", "7"]
    for split, seed in (("train", 14), ("eval", 15)):
        write_squad_json(o(f"{split}.json"), make_synthetic_examples(
            1, seed=seed, context_words=300))
        assert cli.main(["preprocess", "--data", o(f"{split}.json"),
                         "--out", o(f"{split}.jsonl")] + shape) == 0
        assert cli.main(["pseudo-embed", "--features", o(f"{split}.jsonl"),
                         "--out", o(f"{split}.emb.bin")]) == 0
    assert cli.main(["train", "--features", o("train.jsonl"),
                     "--embeddings", o("train.emb.bin"),
                     "--arch", "gru_attn_selfattn_gru_bidaf",
                     "--use-char-embedding", "--epochs", "1",
                     "--out", o("model.ckpt")] + shape) == 0

    def predict(name, **variables):
        done = subprocess.run(
            [sys.executable, "-m", "squadlab.cli", "predict",
             "--checkpoint", o("model.ckpt"), "--features", o("eval.jsonl"),
             "--embeddings", o("eval.emb.bin"), "--data", o("eval.json"),
             "--out", o(f"{name}.pred.jsonl"),
             "--logits-out", o(f"{name}.logits.bin"), "--seed", "7"],
            env=_env(**variables), capture_output=True, text=True,
            timeout=300)
        assert done.returncode == 0, done.stderr
        manifest = json.loads(
            (tmp_path / f"{name}.logits.bin.manifest.json").read_text())
        return (tmp_path / f"{name}.logits.bin").read_bytes(), manifest

    return predict


def test_predict_with_unset_variables_writes_the_one_thread_dump(
        attention_model):
    """The attention model's predict writes the same logit dump with the
    thread variables unset as with each at 1.  Unset, OpenBLAS would
    use one thread per CPU, and at these shapes a product inside
    ``dot_product_attention`` then takes another summation order; on a
    1-CPU machine both runs use one thread, so this test cannot fail
    there whatever the package does."""
    unset, _ = attention_model("unset")
    one, _ = attention_model("one", **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    assert unset == one


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="needs 2 CPUs for 2 BLAS threads")
def test_a_callers_two_threads_are_kept_and_recorded(attention_model):
    """A caller that sets OPENBLAS_NUM_THREADS=2 keeps it: two such
    predicts write the same dump, and each manifest records "2" beside
    the package's 1 for the variables left unset.  Whether that dump
    equals the one-thread dump depends on the BLAS, so it is not
    checked."""
    runs = [attention_model(f"two-{i}", OPENBLAS_NUM_THREADS="2")
            for i in range(2)]
    assert runs[0][0] == runs[1][0]
    for _, manifest in runs:
        assert manifest["build"]["blas_threads"] == {
            "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
