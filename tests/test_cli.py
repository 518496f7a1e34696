import argparse
import json
import resource
import struct
from pathlib import Path

import numpy as np
import pytest

from squadlab import cli, selftest
from squadlab.autograd import (CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                               load_checkpoint)
from squadlab.cli import build_parser, main
from squadlab.data import (RawExample, read_features, read_records,
                           write_features, write_jsonl, write_records)
from squadlab.embeddings import (EmbeddingMatrix, load_embedding_fixture,
                                 save_embedding_fixture)
from squadlab.ensemble import save_logits_dump
from squadlab.heads import (SpanLogits, read_predictions,
                            write_predictions)
from squadlab.synth import (make_synthetic_examples, word_tokenize,
                            write_squad_json)
from squadlab.training import ModelConfig, build_model, load_model, save_model


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "data.json"
    write_squad_json(path, make_synthetic_examples(n=10, seed=3))
    return path


class TestSelftest:
    def test_exit_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failed_check_prints_fail_and_exits_2(self, capsys,
                                                  monkeypatch):
        monkeypatch.setattr(selftest, "align_answer_to_tokens",
                            lambda ctx, span: (0, 0))
        assert main(["selftest"]) == 2
        out, err = capsys.readouterr()
        assert "FAIL  obama align" in out.splitlines()
        assert err.splitlines()[-1] == "error: selftest failed"


class TestExitCodes:
    def test_missing_input_is_2(self, tmp_path, capsys):
        code = main(["preprocess", "--data", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "f.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_is_1(self, capsys):
        assert main(["train", "--features", "x"]) == 1

    def test_ensemble_flag_validation(self, tmp_path, capsys):
        code = main(["ensemble", "--strategy", "mean-logits",
                     "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "--dumps" in capsys.readouterr().err

    def test_predict_limits_below_one_are_1(self, tmp_path, capsys):
        base = ["predict", "--checkpoint", "c", "--features", "f",
                "--embeddings", "e", "--data", "d",
                "--out", str(tmp_path / "p.jsonl")]
        for flag in ("--n-best", "--max-answer-length"):
            for value in ("0", "-1"):
                assert main(base + [flag, value]) == 1, (flag, value)
                assert f"{flag} must be at least 1" in capsys.readouterr().err

    PREDICT = ["predict", "--checkpoint", "c", "--features", "f",
               "--embeddings", "e", "--data", "d", "--out", "p.jsonl"]
    VOTE = ["ensemble", "--strategy", "weighted-voting", "--out", "o.jsonl",
            "--pred", "a.jsonl", "b.jsonl"]
    WV = ["ensemble", "--strategy", "wv-mean-logits", "--out", "o.jsonl",
          "--pred", "a.jsonl", "--dumps", "a.bin", "--features", "f",
          "--data", "d"]
    NON_FINITE = [
        (PREDICT + ["--model-f1-weight", "nan"],
         "--model-f1-weight must be finite and positive, got nan"),
        (PREDICT + ["--model-f1-weight", "inf"],
         "--model-f1-weight must be finite and positive, got inf"),
        (PREDICT + ["--model-f1-weight", "0"],
         "--model-f1-weight must be finite and positive, got 0.0"),
        (VOTE + ["--weights", "nan", "1"],
         "--weights must be finite and positive, got nan"),
        (VOTE + ["--weights", "1", "-2"],
         "--weights must be finite and positive, got -2.0"),
        (VOTE + ["--null-threshold=-inf"],
         "--null-threshold must be finite, got -inf"),
        (WV + ["--mean-weight", "nan"],
         "--mean-weight must be finite and positive, got nan"),
        (["evaluate", "--pred", "p", "--gold", "g", "--null-threshold",
          "nan"], "--null-threshold must be finite, got nan"),
    ]

    @pytest.mark.parametrize("argv, message", NON_FINITE,
                             ids=[m.split()[0] + "=" + m.split()[-1]
                                  for _, m in NON_FINITE])
    def test_non_finite_or_non_positive_weight_is_1(self, tmp_path, capsys,
                                                    monkeypatch, argv,
                                                    message):
        # refused before any input is opened (none of them exists)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_weights_count_must_match_pred(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.VOTE + ["--weights", "1"]) == 1
        assert "--weights must match the number of --pred files" in \
            capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_predict_has_no_null_threshold(self, tmp_path, capsys):
        # the no-answer threshold belongs to evaluate and the voting
        # ensembles; predict writes the whole n-best list
        code = main(["predict", "--checkpoint", "c", "--features", "f",
                     "--embeddings", "e", "--data", "d",
                     "--out", str(tmp_path / "p.jsonl"),
                     "--null-threshold", "1"])
        assert code == 1
        assert "--null-threshold" in capsys.readouterr().err

    def test_non_integer_env_seed_is_1(self, corpus, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.setenv("SQUADLAB_SEED", "abc")
        out = tmp_path / "f.jsonl"
        assert main(["preprocess", "--data", str(corpus),
                     "--out", str(out)]) == 1
        assert "SQUADLAB_SEED must be an integer, got 'abc'" in \
            capsys.readouterr().err
        assert not out.exists()
        # an explicit --seed needs no fallback
        assert main(["preprocess", "--data", str(corpus), "--out", str(out),
                     "--seed", "4"]) == 0

    def test_env_seed_reaches_manifest(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("SQUADLAB_SEED", "5")
        out = tmp_path / "f.jsonl"
        assert main(["preprocess", "--data", str(corpus),
                     "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["seed"] == 5

    # every command, with inputs that do not exist
    SEEDED = {
        "preprocess": ["--data", "d.json", "--out", "f.jsonl"],
        "pseudo-embed": ["--features", "f.jsonl", "--out", "e.bin"],
        "train": ["--features", "f.jsonl", "--embeddings", "pseudo",
                  "--arch", "squad_out", "--out", "m.ckpt"],
        "predict": ["--checkpoint", "m.ckpt", "--features", "f.jsonl",
                    "--embeddings", "pseudo", "--data", "d.json",
                    "--out", "p.jsonl"],
        "evaluate": ["--pred", "p.jsonl", "--gold", "d.json"],
        "ensemble": ["--strategy", "weighted-voting", "--pred", "p.jsonl",
                     "--out", "o.jsonl"],
        "selftest": [],
    }

    @pytest.mark.parametrize("source", ["--seed", "SQUADLAB_SEED"])
    @pytest.mark.parametrize("command", list(SEEDED))
    def test_negative_seed_is_1(self, tmp_path, capsys, monkeypatch, command,
                                source):
        # refused before any input is opened or any check runs
        monkeypatch.chdir(tmp_path)
        argv = [command, *self.SEEDED[command]]
        if source == "--seed":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("SQUADLAB_SEED", "-1")
        assert main(argv) == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error" in line]
        assert errors == [f"squadlab: error: {source} must be at least 0, "
                          f"got -1"]
        assert list(tmp_path.iterdir()) == []

    def test_bad_json_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"data": "not-a-list"}')
        code = main(["preprocess", "--data", str(bad),
                     "--out", str(tmp_path / "f.jsonl")])
        assert code == 2


class TestOutputPaths:
    """Each file a command writes needs a path that no other output and no
    input of the call names, however spelled; a clash is a usage error
    before anything is opened."""

    @staticmethod
    def _refused(argv, capsys, flags):
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if "error:" in line]) == 1
        assert err[-1].startswith("squadlab: error: ")
        assert f"{flags[0]} and {flags[1]} name the same file" in err[-1]

    def test_train_out_and_loss_curve(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("m.ckpt").write_bytes(b"kept")
        self._refused(["train", "--features", "f.jsonl", "--embeddings",
                       "pseudo", "--arch", "squad_out", "--out", "m.ckpt",
                       "--loss-curve", "m.ckpt"], capsys,
                      ("--loss-curve", "--out"))
        assert list(tmp_path.iterdir()) == [tmp_path / "m.ckpt"]
        assert Path("m.ckpt").read_bytes() == b"kept"

    def test_pseudo_embed_over_its_features(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("f.jsonl").write_bytes(b"kept")
        self._refused(["pseudo-embed", "--features", "f.jsonl", "--out",
                       "f.jsonl"], capsys, ("--features", "--out"))
        assert list(tmp_path.iterdir()) == [tmp_path / "f.jsonl"]
        assert Path("f.jsonl").read_bytes() == b"kept"

    PREDICT = ["predict", "--features", "f", "--embeddings", "e",
               "--data", "d.json", "--out", "p.jsonl"]
    CLASHES = [
        (PREDICT + ["--checkpoint", "c", "--logits-out", "sub/../c"],
         ("--checkpoint", "--logits-out")),
        (PREDICT + ["--checkpoint", "c", "--logits-out", "p.jsonl"],
         ("--logits-out", "--out")),
        (PREDICT + ["--checkpoint", "link"], ("--checkpoint", "--out")),
        (["evaluate", "--pred", "p.jsonl", "--gold", "g.json", "--out",
          "./g.json"], ("--gold", "--out")),
        (["ensemble", "--strategy", "weighted-voting", "--pred", "a.jsonl",
          "o.jsonl", "--out", "o.jsonl"], ("--pred", "--out")),
        (["ensemble", "--strategy", "mean-logits", "--dumps", "a.bin",
          "--features", "f", "--data", "d.json", "--out", "a.bin"],
         ("--dumps", "--out")),
        (["preprocess", "--data", "d.json", "--vocab", "v.txt", "--out",
          "v.txt"], ("--vocab", "--out")),
        (["preprocess", "--data", "d.json", "--pretokenized", "t.jsonl",
          "--out", "t.jsonl"], ("--pretokenized", "--out")),
        (["train", "--features", "f", "--embeddings", "e.bin", "--arch",
          "squad_out", "--out", "e.bin"], ("--embeddings", "--out")),
    ]

    @pytest.mark.parametrize("argv, flags", CLASHES,
                             ids=["-".join(f[2:] for f in flags)
                                  for _, flags in CLASHES])
    def test_an_output_over_another_path_is_1(self, tmp_path, capsys,
                                              monkeypatch, argv, flags):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "p.jsonl")
        self._refused(argv, capsys, flags)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "sub"]

    MANIFEST_CLASHES = [
        (["train", "--features", "f", "--embeddings", "pseudo", "--arch",
          "squad_out", "--out", "m.ckpt", "--loss-curve",
          "m.ckpt.manifest.json"], ("--loss-curve", "--out's manifest")),
        (PREDICT + ["--checkpoint", "c", "--logits-out",
                    "p.jsonl.manifest.json"],
         ("--logits-out", "--out's manifest")),
        (["train", "--features", "f", "--embeddings", "pseudo", "--arch",
          "squad_out", "--out", "m.ckpt.manifest.json", "--loss-curve",
          "m.ckpt"], ("--loss-curve's manifest", "--out")),
        (["evaluate", "--pred", "p.jsonl", "--gold",
          "sub/../r.json.manifest.json", "--out", "r.json"],
         ("--gold", "--out's manifest")),
    ]

    @pytest.mark.parametrize("argv, flags", MANIFEST_CLASHES,
                             ids=["train-loss-curve", "predict-logits-out",
                                  "train-out", "evaluate-gold"])
    def test_a_path_over_an_outputs_manifest_is_1(self, tmp_path, capsys,
                                                  monkeypatch, argv, flags):
        """Each output's manifest is written after the command, so a path
        that names it would be overwritten or, for an input, replaced."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        for name in ("m.ckpt.manifest.json", "p.jsonl.manifest.json",
                     "r.json.manifest.json"):
            Path(name).write_bytes(b"kept")
        before = sorted(tmp_path.iterdir())
        self._refused(argv, capsys, flags)
        assert sorted(tmp_path.iterdir()) == before
        assert all(p.read_bytes() == b"kept" for p in before if p.is_file())

    def test_pseudo_names_no_file(self, tmp_path, monkeypatch):
        # --embeddings pseudo reads nothing, so an output may be "pseudo"
        monkeypatch.chdir(tmp_path)
        parser = build_parser()
        args = parser.parse_args(["train", "--features", "f",
                                  "--embeddings", "pseudo", "--arch",
                                  "squad_out", "--out", "pseudo"])
        cli._validate(args, parser)


class TestPreprocess:
    def test_chunking_via_cli(self, tmp_path):
        """A 12-word context with a tight budget must split into overlapping
        chunks that all show up in the feature file."""
        data = tmp_path / "jay.json"
        ctx = " ".join(f"word{i:02d}" for i in range(12))
        blob = {"version": "v2.0", "data": [{"title": "t", "paragraphs": [{
            "context": ctx,
            "qas": [{"id": "jay-1", "question": "How old is Jay?",
                     "is_impossible": False,
                     "answers": [{"text": "word07", "answer_start": ctx.index("word07")}]}],
        }]}]}
        data.write_text(json.dumps(blob))
        out = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(data), "--out", str(out),
                     "--max-seq-length", "12", "--doc-stride", "2"]) == 0
        feats = read_features(out)
        assert len(feats) > 1
        budget = 12 - 4 - 3  # question is 4 words, 3 separators
        for f in feats:
            assert sum(f.context_mask) <= budget
        # consecutive full chunks share exactly doc_stride context tokens
        first = [t for t, m in zip(feats[0].tokens, feats[0].context_mask) if m]
        second = [t for t, m in zip(feats[1].tokens, feats[1].context_mask) if m]
        assert first[-2:] == second[:2]
        # exactly one chunk carries the gold span
        gold = [f for f in feats if f.start_position != 0]
        assert len(gold) == 1

    def test_manifest_written(self, corpus, tmp_path):
        out = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus),
                     "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "feats.jsonl.manifest.json")
                              .read_text())
        assert manifest["command"] == "preprocess"
        assert manifest["seed"] == 0
        assert str(corpus) in manifest["inputs"]
        assert str(out) in manifest["outputs"]
        assert "toolkit_version" in manifest and "wall_time_s" in manifest
        # the process peak so far, in MB, rounded like wall_time_s
        peak = manifest["peak_rss_mb"]
        assert isinstance(peak, float) and peak > 0
        assert peak == round(peak, 3)
        assert peak <= round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, 3)

    @pytest.mark.parametrize("flag", ["--pretokenized", "--vocab"])
    def test_manifest_names_the_token_file(self, tmp_path, flag):
        examples = make_synthetic_examples(n=3, seed=3)
        data, tokens = tmp_path / "data.json", tmp_path / "tokens"
        write_squad_json(data, examples)
        if flag == "--vocab":
            tokens.write_text("alpha\nbravo\n")
        else:
            write_jsonl(tokens, [
                {"qid": ex.qid, "tokens": ctx.tokens,
                 "spans": ctx.token_word_span}
                for ex in examples for ctx in [word_tokenize(ex.context)]])
        out = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(data), flag, str(tokens),
                     "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == [str(data), str(tokens)]

    def test_pretokenized_with_vocab_is_1(self, tmp_path, capsys):
        """One tokenizer per run: --vocab beside --pretokenized was dropped
        while the manifest's config still named it."""
        examples = make_synthetic_examples(n=3, seed=3)
        data, tok, vocab = (tmp_path / name for name in
                            ("data.json", "tok.jsonl", "vocab.txt"))
        write_squad_json(data, examples)
        write_jsonl(tok, [{"qid": ex.qid, "tokens": ctx.tokens,
                           "spans": ctx.token_word_span}
                          for ex in examples
                          for ctx in [word_tokenize(ex.context)]])
        vocab.write_text("alpha\nbravo\n")
        out = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(data), "--pretokenized",
                     str(tok), "--vocab", str(vocab), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: argument --vocab: not allowed with argument "
            "--pretokenized")
        assert not out.exists()

    def test_manifest_records_the_build(self, corpus, tmp_path, monkeypatch):
        """numpy's version and BLAS, and the BLAS thread variables as the
        environment sets them (None where unset)."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus),
                     "--out", str(out)]) == 0
        build = json.loads((tmp_path / "feats.jsonl.manifest.json")
                           .read_text())["build"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert build == {
            "numpy": np.__version__,
            "blas": {"name": blas["name"], "version": blas["version"]},
            "blas_threads": {"OPENBLAS_NUM_THREADS": "1",
                             "OMP_NUM_THREADS": "2",
                             "MKL_NUM_THREADS": None}}

    def test_rerun_byte_identical(self, corpus, tmp_path):
        out = tmp_path / "feats.jsonl"
        main(["preprocess", "--data", str(corpus), "--out", str(out)])
        first = out.read_bytes()
        main(["preprocess", "--data", str(corpus), "--out", str(out)])
        assert out.read_bytes() == first


class TestEvaluateCommand:
    def _einstein(self, tmp_path):
        gold = tmp_path / "gold.json"
        blob = {"version": "v2.0", "data": [{"title": "t", "paragraphs": [{
            "context": "Albert Einstein developed relativity.",
            "qas": [
                {"id": "t3-0", "question": "who", "is_impossible": False,
                 "answers": [{"text": "Albert Einstein", "answer_start": 0}]},
                {"id": "t3-1", "question": "who", "is_impossible": False,
                 "answers": [{"text": "Albert Einstein", "answer_start": 0}]},
            ],
        }]}]}
        gold.write_text(json.dumps(blob))
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, [
            {"qid": "t3-0", "null_score": -10.0, "nbest": [
                {"text": "Einstein", "start_token": 6, "end_token": 6,
                 "feature_index": 0, "score": 3.0}]},
            {"qid": "t3-1", "null_score": -10.0, "nbest": [
                {"text": "Albert Einstein", "start_token": 5, "end_token": 6,
                 "feature_index": 0, "score": 3.0}]},
        ])
        return gold, pred

    def test_corpus_em_50(self, tmp_path, capsys):
        gold, pred = self._einstein(tmp_path)
        assert main(["evaluate", "--pred", str(pred),
                     "--gold", str(gold)]) == 0
        out = capsys.readouterr().out
        assert "EM=50.0" in out
        assert "F1=83.3" in out

    def test_report_file(self, tmp_path, capsys):
        gold, pred = self._einstein(tmp_path)
        out = tmp_path / "report.json"
        main(["evaluate", "--pred", str(pred), "--gold", str(gold),
              "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["em"] == 50.0

    def test_missing_predictions_give_count_and_first_five(self, corpus,
                                                           tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, [
            {"qid": f"synth-{i:04d}", "null_score": 0.0, "nbest": []}
            for i in (0, 2, 9)])
        out = tmp_path / "report.json"
        assert main(["evaluate", "--pred", str(pred), "--gold", str(corpus),
                     "--out", str(out)]) == 2
        assert _error_line(capsys) == (
            "error: predictions have no answer for 7 of 10 gold questions; "
            "first: ['synth-0001', 'synth-0003', 'synth-0004', "
            "'synth-0005', 'synth-0006']")
        assert not out.exists()


class TestPipeline:
    def test_end_to_end(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats.jsonl"
        emb = tmp_path / "emb.bin"
        ckpt = tmp_path / "model.json"
        pred = tmp_path / "pred.jsonl"
        curve = tmp_path / "loss.csv"

        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        assert main(["pseudo-embed", "--features", str(feats),
                     "--out", str(emb), "--d-model", "24",
                     "--seed", "1"]) == 0
        assert main(["train", "--features", str(feats),
                     "--embeddings", str(emb), "--arch", "squad_out",
                     "--out", str(ckpt), "--loss-curve", str(curve),
                     "--d-model", "24", "--learning-rate", "0.01",
                     "--batch-size", "4", "--epochs", "2",
                     "--max-seq-length", "32", "--doc-stride", "4",
                     "--dropout-rate", "0.1", "--seed", "1"]) == 0
        assert main(["predict", "--checkpoint", str(ckpt),
                     "--features", str(feats), "--embeddings", str(emb),
                     "--data", str(corpus), "--out", str(pred),
                     "--seed", "1"]) == 0
        assert main(["evaluate", "--pred", str(pred),
                     "--gold", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "EM=" in out and "F1=" in out
        assert curve.read_text().startswith("step,loss")
        for produced in (feats, emb, ckpt, pred):
            assert (tmp_path / (produced.name + ".manifest.json")).exists()

    def test_char_flag_has_no_effect(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        ckpts = []
        for flag in ([], ["--use-char-embedding"]):
            ckpts.append(tmp_path / f"model{len(ckpts)}.json")
            assert main(["train", "--features", str(feats), "--embeddings",
                         "pseudo", "--arch", "gru_highway_gru_bidaf",
                         "--out", str(ckpts[-1]), "--d-model", "8",
                         "--hidden", "4", "--epochs", "1"] + flag) == 0
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()
        assert "combiner.char_cnn.K" in load_checkpoint(ckpts[0])[0]
        capsys.readouterr()
        assert main(["train", "--help"]) == 0
        assert "char" not in capsys.readouterr().out

    def test_predict_rerun_identical(self, corpus, tmp_path):
        feats = tmp_path / "feats.jsonl"
        emb = tmp_path / "emb.bin"
        ckpt = tmp_path / "model.json"
        main(["preprocess", "--data", str(corpus), "--out", str(feats),
              "--max-seq-length", "32", "--doc-stride", "4"])
        main(["pseudo-embed", "--features", str(feats), "--out", str(emb),
              "--d-model", "24", "--seed", "1"])
        main(["train", "--features", str(feats), "--embeddings", str(emb),
              "--arch", "squad_out", "--out", str(ckpt), "--d-model", "24",
              "--epochs", "1", "--max-seq-length", "32", "--doc-stride", "4",
              "--seed", "1"])
        pred = tmp_path / "pred.jsonl"
        dump = tmp_path / "logits.bin"
        blobs = []
        for _ in range(2):
            main(["predict", "--checkpoint", str(ckpt), "--features",
                  str(feats), "--embeddings", str(emb), "--data", str(corpus),
                  "--out", str(pred), "--logits-out", str(dump),
                  "--seed", "1"])
            blobs.append((pred.read_bytes(), dump.read_bytes()))
        assert blobs[0] == blobs[1]

    def test_ensemble_round_trip(self, corpus, tmp_path):
        feats = tmp_path / "feats.jsonl"
        emb = tmp_path / "emb.bin"
        main(["preprocess", "--data", str(corpus), "--out", str(feats),
              "--max-seq-length", "32", "--doc-stride", "4"])
        main(["pseudo-embed", "--features", str(feats), "--out", str(emb),
              "--d-model", "24", "--seed", "1"])
        preds, dumps = [], []
        for seed in (1, 2):
            ckpt = tmp_path / f"model{seed}.json"
            pred = tmp_path / f"pred{seed}.jsonl"
            dump = tmp_path / f"logits{seed}.bin"
            main(["train", "--features", str(feats), "--embeddings",
                  str(emb), "--arch", "squad_out", "--out", str(ckpt),
                  "--d-model", "24", "--epochs", "1", "--max-seq-length",
                  "32", "--doc-stride", "4", "--seed", str(seed)])
            main(["predict", "--checkpoint", str(ckpt), "--features",
                  str(feats), "--embeddings", str(emb), "--data",
                  str(corpus), "--out", str(pred), "--logits-out",
                  str(dump), "--model-f1-weight", f"{60 + seed}",
                  "--seed", "1"])
            preds.append(str(pred))
            dumps.append(str(dump))

        for strategy, extra in (
            ("weighted-voting", []),
            ("mean-logits", ["--dumps"] + dumps
             + ["--features", str(feats), "--data", str(corpus)]),
            ("wv-mean-logits", ["--dumps"] + dumps
             + ["--features", str(feats), "--data", str(corpus),
                "--mean-weight", "62"]),
        ):
            out = tmp_path / f"ens-{strategy}.jsonl"
            args = ["ensemble", "--strategy", strategy, "--out", str(out)]
            if strategy != "mean-logits":
                args += ["--pred"] + preds
            assert main(args + extra) == 0, strategy
            assert main(["evaluate", "--pred", str(out),
                         "--gold", str(corpus)]) == 0


def _error_line(capsys):
    """The single stderr line of a failed command."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


class TestArtifactErrors:
    @staticmethod
    def _features(corpus, tmp_path, capsys):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        capsys.readouterr()
        return feats

    def test_truncated_embedding_fixture_is_2(self, corpus, tmp_path,
                                               capsys):
        feats = self._features(corpus, tmp_path, capsys)
        full = tmp_path / "emb.bin"
        save_embedding_fixture(full, [
            EmbeddingMatrix("q0", 0, np.ones((2, 3))),
            EmbeddingMatrix("q1", 1, np.ones((1, 3))),
        ])
        blob = full.read_bytes()
        cut = tmp_path / "cut.bin"
        # every prefix, so every header boundary and every field interior
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            code = main(["train", "--features", str(feats), "--embeddings",
                         str(cut), "--arch", "squad_out",
                         "--out", str(tmp_path / "m.json"),
                         "--d-model", "3"])
            assert code == 2, size
            assert "truncated" in _error_line(capsys), size

    def test_truncated_logits_dump_is_2(self, corpus, tmp_path, capsys):
        feats = self._features(corpus, tmp_path, capsys)
        full = tmp_path / "dump.bin"
        save_logits_dump(full, {
            ("q0", 0): SpanLogits("q0", 0, np.ones(3), np.zeros(3)),
            ("q1", 1): SpanLogits("q1", 1, np.ones(2), np.zeros(2)),
        })
        blob = full.read_bytes()
        cut = tmp_path / "cut.bin"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            code = main(["ensemble", "--strategy", "mean-logits",
                         "--dumps", str(cut), str(full),
                         "--features", str(feats), "--data", str(corpus),
                         "--out", str(tmp_path / "ens.jsonl")])
            assert code == 2, size
            assert "truncated" in _error_line(capsys), size

    @pytest.mark.parametrize("d_model, seq_len", [
        (2**31, 2**31), (0xFFFFFFFF, 0xFFFFFFFF), (64, 2**16)],
        ids=["overflows-int64", "wraps-negative", "past-the-end"])
    def test_record_sizes_past_the_end_are_2(self, corpus, tmp_path, capsys,
                                             d_model, seq_len):
        # a header that claims more payload than the file holds is refused
        # before any read of that size
        feats = self._features(corpus, tmp_path, capsys)
        emb = tmp_path / "huge.bin"
        head = b'{"d_model": 3}'
        start = (b"SQEM" + struct.pack("<II", 2, len(head)) + head
                 + struct.pack("<I", 1)
                 + struct.pack("<I2sIIII", 2, b"q0", 0, 2, seq_len, d_model))
        emb.write_bytes(start + bytes(16))
        code = main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "squad_out",
                     "--out", str(tmp_path / "m.json"), "--d-model", "3"])
        assert code == 2
        assert _error_line(capsys) == (
            f"error: {emb}: record 0: truncated: needed "
            f"{8 * d_model * seq_len} bytes at offset {len(start)}, file "
            f"has 16")

    @pytest.mark.parametrize("at, where, needed", [
        (8, "header: ", 2**32 - 1), (36, "record 0: ", 4 * (2**32 - 1))],
        ids=["header-length", "rank"])
    def test_header_and_rank_past_the_end_are_2(self, corpus, tmp_path,
                                                capsys, at, where, needed):
        # a u32 of 2^32 - 1 at ``at`` (the header's byte length, the
        # record's rank) claims more than the file holds
        feats = self._features(corpus, tmp_path, capsys)
        dump = tmp_path / "dump.bin"
        save_logits_dump(dump, {
            ("synth-0000", 0): SpanLogits("synth-0000", 0, np.ones(3),
                                          np.zeros(3))})
        blob = bytearray(dump.read_bytes())
        blob[at:at + 4] = struct.pack("<I", 2**32 - 1)
        dump.write_bytes(bytes(blob))
        assert main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", str(dump), "--features", str(feats),
                     "--data", str(corpus),
                     "--out", str(tmp_path / "ens.jsonl")]) == 2
        assert _error_line(capsys).startswith(
            f"error: {dump}: {where}truncated: needed {needed} bytes at "
            f"offset {at + 4}")

    def test_version_1_fixture_and_dump_are_2(self, corpus, tmp_path, capsys):
        # the layouts before the JSON header: u32 fields, seq_len records
        feats = self._features(corpus, tmp_path, capsys)
        emb, dump = tmp_path / "v1.emb", tmp_path / "v1.dump"
        emb.write_bytes(b"SQEM" + struct.pack("<III", 1, 1, 1)
                        + struct.pack("<I2sIId", 2, b"q0", 0, 1, 0.5))
        dump.write_bytes(b"SQLD" + struct.pack("<II", 1, 1)
                         + struct.pack("<I2sIIdd", 2, b"q0", 0, 1, 0.5, 0.5))
        assert main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "squad_out",
                     "--out", str(tmp_path / "m.ckpt"), "--d-model", "1"]) == 2
        assert _error_line(capsys) == (
            f"error: {emb}: unsupported version 1; this build reads "
            f"version 2")
        assert main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", str(dump), "--features", str(feats),
                     "--data", str(corpus),
                     "--out", str(tmp_path / "ens.jsonl")]) == 2
        assert _error_line(capsys) == (
            f"error: {dump}: unsupported version 1; this build reads "
            f"version 2")

    def test_arrays_of_the_wrong_rank_are_2(self, corpus, tmp_path, capsys):
        # a fixture matrix must be [seq_len, d_model], a dump [2, seq_len]
        feats = self._features(corpus, tmp_path, capsys)
        emb, dump = tmp_path / "emb.bin", tmp_path / "dump.bin"
        write_records(emb, b"SQEM", 2, {"d_model": 3},
                      [("q0", 0, np.ones((2, 3))), ("q1", 0, np.ones(3))])
        assert main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "squad_out",
                     "--out", str(tmp_path / "m.ckpt"), "--d-model", "3"]) == 2
        assert _error_line(capsys) == (
            f"error: {emb}: matrix for (qid='q1', feature_index=0) has shape "
            f"[3], not [seq_len, 3]")
        write_records(dump, b"SQLD", 2, {}, [("q0", 1, np.ones((3, 2)))])
        assert main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", str(dump), "--features", str(feats),
                     "--data", str(corpus),
                     "--out", str(tmp_path / "ens.jsonl")]) == 2
        assert _error_line(capsys) == (
            f"error: {dump}: logits for (qid='q0', feature_index=1) have "
            f"shape [3, 2], not [2, seq_len]")

    def test_nonfinite_embedding_in_predict_is_2(self, corpus, tmp_path,
                                                 capsys):
        feats = self._features(corpus, tmp_path, capsys)
        emb = tmp_path / "emb.bin"
        ckpt = tmp_path / "model.json"
        assert main(["pseudo-embed", "--features", str(feats),
                     "--out", str(emb), "--d-model", "8"]) == 0
        assert main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "squad_out", "--out", str(ckpt),
                     "--d-model", "8", "--epochs", "1"]) == 0
        store = load_embedding_fixture(emb)
        features = read_features(feats)
        victim = features[3]
        matrices = [store.get(f.qid, f.feature_index) for f in features]
        matrices[3].matrix[1, 2] = np.nan
        save_embedding_fixture(emb, matrices)
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(ckpt), "--features",
                     str(feats), "--embeddings", str(emb), "--data",
                     str(corpus), "--out", str(tmp_path / "pred.jsonl")])
        assert code == 2
        line = _error_line(capsys)
        assert f"qid={victim.qid!r}" in line
        assert f"feature_index={victim.feature_index}" in line

    def test_trailing_bytes_are_2(self, corpus, tmp_path, capsys):
        feats = self._features(corpus, tmp_path, capsys)
        emb = tmp_path / "emb.bin"
        save_embedding_fixture(emb, [EmbeddingMatrix("q0", 0, np.ones((2, 3)))])
        emb.write_bytes(emb.read_bytes() + bytes(8))
        code = main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "squad_out",
                     "--out", str(tmp_path / "m.json"), "--d-model", "3"])
        assert code == 2
        line = _error_line(capsys)
        assert str(emb) in line and "8 trailing bytes" in line

        dump = tmp_path / "dump.bin"
        save_logits_dump(dump, {
            ("q0", 0): SpanLogits("q0", 0, np.ones(3), np.zeros(3))})
        dump.write_bytes(dump.read_bytes() + bytes(16))
        code = main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", str(dump), "--features", str(feats),
                     "--data", str(corpus),
                     "--out", str(tmp_path / "ens.jsonl")])
        assert code == 2
        line = _error_line(capsys)
        assert str(dump) in line and "16 trailing bytes" in line

    def test_nonfinite_logit_dump_is_2(self, corpus, tmp_path, capsys):
        feats = self._features(corpus, tmp_path, capsys)
        dump = tmp_path / "dump.bin"
        for bad in (np.nan, np.inf):
            start = np.array([0.5, 1.0, 2.0])
            start[1] = bad
            save_logits_dump(dump, {
                ("q0", 0): SpanLogits("q0", 0, np.ones(3), np.zeros(3)),
                ("q1", 2): SpanLogits("q1", 2, start, np.zeros(3)),
            })
            code = main(["ensemble", "--strategy", "mean-logits",
                         "--dumps", str(dump), "--features", str(feats),
                         "--data", str(corpus),
                         "--out", str(tmp_path / "ens.jsonl")])
            assert code == 2
            line = _error_line(capsys)
            assert str(dump) in line and "non-finite" in line
            assert "qid='q1'" in line and "feature_index=2" in line


class TestLogitLengthMismatch:
    """Dumps made from features of one max_seq_length, decoded against
    features of the same corpus at another."""

    @staticmethod
    def _features(tmp_path, seq):
        corpus = tmp_path / "long.json"
        write_squad_json(corpus, make_synthetic_examples(
            n=3, seed=5, context_words=40))
        feats = tmp_path / f"feats{seq}.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", str(seq), "--doc-stride", "8"]) == 0
        return corpus, feats

    @pytest.mark.parametrize("other_seq", [48, 24],
                             ids=["longer-features", "shorter-features"])
    def test_mismatched_length_is_2(self, tmp_path, capsys, other_seq):
        corpus, feats = self._features(tmp_path, 32)
        rng = np.random.default_rng(0)
        dumps = []
        for k in range(2):
            dump = tmp_path / f"dump{k}.bin"
            save_logits_dump(dump, {
                (f.qid, f.feature_index): SpanLogits(
                    f.qid, f.feature_index, rng.normal(size=len(f.tokens)),
                    rng.normal(size=len(f.tokens)))
                for f in read_features(feats)})
            dumps.append(str(dump))
        _, other = self._features(tmp_path, other_seq)
        first = min(read_features(other), key=lambda f: (f.qid,
                                                         f.feature_index))
        dumped = next(f for f in read_features(feats)
                      if (f.qid, f.feature_index) == (first.qid, 0))
        assert len(first.tokens) != len(dumped.tokens)
        capsys.readouterr()
        code = main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", *dumps, "--features", str(other),
                     "--data", str(corpus),
                     "--out", str(tmp_path / "ens.jsonl")])
        assert code == 2
        line = _error_line(capsys)
        assert f"qid={first.qid!r}, feature_index=0" in line
        n = len(dumped.tokens)
        assert f"lengths {n}/{n}" in line
        assert f"has {len(first.tokens)} tokens" in line


class TestLogitKeyMismatch:
    """Dump keys the features or the data do not have: one error line that
    names the key and the input that lacks it."""

    @staticmethod
    def _ensemble(tmp_path, capsys, keys, features, data):
        rng = np.random.default_rng(1)
        dumps = []
        for k in range(2):
            dump = tmp_path / f"dump{k}.bin"
            save_logits_dump(dump, {key: SpanLogits(*key, rng.normal(size=n),
                                                    rng.normal(size=n))
                                    for key, n in keys.items()})
            dumps.append(str(dump))
        capsys.readouterr()
        code = main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", *dumps, "--features", str(features),
                     "--data", str(data), "--out", str(tmp_path / "e.jsonl")])
        assert code == 2
        return _error_line(capsys)

    @staticmethod
    def _preprocess(tmp_path, n):
        corpus = tmp_path / f"corpus{n}.json"
        write_squad_json(corpus, make_synthetic_examples(n=n, seed=5))
        feats = tmp_path / f"feats{n}.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out",
                     str(feats)]) == 0
        return corpus, feats

    def test_key_not_in_features_is_2(self, tmp_path, capsys):
        corpus, feats = self._preprocess(tmp_path, 2)
        line = self._ensemble(tmp_path, capsys, {("nope", 0): 8}, feats,
                              corpus)
        assert "qid='nope', feature_index=0" in line
        assert "no feature of that key in the features" in line

    def test_qid_not_in_data_is_2(self, tmp_path, capsys):
        _, feats = self._preprocess(tmp_path, 3)
        small, _ = self._preprocess(tmp_path, 1)
        keys = {(f.qid, f.feature_index): len(f.tokens)
                for f in read_features(feats)}
        missing = min(q for q, _ in keys if q != "synth-0000")
        line = self._ensemble(tmp_path, capsys, keys, feats, small)
        assert f"qid={missing!r}, feature_index=0" in line
        assert f"the data has no question {missing!r}" in line


class TestEnsembleThreshold:
    def test_mean_logits_rejects_null_threshold(self, tmp_path, capsys):
        # mean-logits writes n-best lists and takes no decision
        code = main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", "a.bin", "b.bin", "--features", "f",
                     "--data", "d", "--out", str(tmp_path / "o.jsonl"),
                     "--null-threshold", "0"])
        assert code == 1
        assert "--null-threshold" in capsys.readouterr().err

    NEEDS = {
        "mean-logits": ["--dumps", "a.bin", "--features", "f", "--data", "d"],
        "weighted-voting": ["--pred", "p.jsonl"],
        "wv-mean-logits": ["--pred", "p.jsonl", "--dumps", "a.bin",
                           "--features", "f", "--data", "d",
                           "--mean-weight", "60"],
    }
    UNREAD = [
        ("weighted-voting", ["--dumps", "a.bin"]),
        ("weighted-voting", ["--features", "f"]),
        ("weighted-voting", ["--data", "d"]),
        ("weighted-voting", ["--mean-weight", "0"]),
        ("mean-logits", ["--pred", "p.jsonl"]),
        ("mean-logits", ["--weights", "1"]),
        ("mean-logits", ["--mean-weight", "60"]),
    ]

    @pytest.mark.parametrize("strategy, extra", UNREAD,
                             ids=[f"{s}{e[0]}" for s, e in UNREAD])
    def test_flag_the_strategy_does_not_read_is_1(self, tmp_path, capsys,
                                                  strategy, extra):
        # refused before any input is opened (none of them exists)
        code = main(["ensemble", "--strategy", strategy,
                     "--out", str(tmp_path / "o.jsonl")]
                    + self.NEEDS[strategy] + extra)
        assert code == 1
        err = capsys.readouterr().err
        assert f"{strategy} takes no {extra[0]}: it reads only" in err

    @pytest.mark.parametrize("strategy", list(NEEDS))
    def test_each_needed_flag_is_required(self, tmp_path, capsys, strategy):
        needs = self.NEEDS[strategy]
        for i in range(0, len(needs), 2):
            code = main(["ensemble", "--strategy", strategy,
                         "--out", str(tmp_path / "o.jsonl")]
                        + needs[:i] + needs[i + 2:])
            assert code == 1, needs[i]
            assert f"{strategy} requires {needs[i]}" in \
                capsys.readouterr().err

    def test_weighted_voting_honours_null_threshold(self, tmp_path):
        # the span scores 1.0 below the null score: a no-answer vote at
        # threshold 0, a span vote once the threshold exceeds the gap
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, [
            {"qid": "q", "null_score": 4.0, "model_f1_weight": 70.0,
             "nbest": [
                 {"text": "the span", "start_token": 3, "end_token": 4,
                  "feature_index": 0, "score": 3.0},
                 {"text": "", "start_token": None, "end_token": None,
                  "feature_index": 0, "score": 4.0}]},
        ])
        voted = {}
        for threshold in ("0", "2", None):
            out = tmp_path / f"ens-{threshold}.jsonl"
            flag = [] if threshold is None else ["--null-threshold", threshold]
            assert main(["ensemble", "--strategy", "weighted-voting",
                         "--pred", str(pred), "--out", str(out)] + flag) == 0
            voted[threshold] = read_predictions(out)[0]["nbest"][0]["text"]
        # without the flag the voting strategies use threshold 0
        assert voted == {"0": "", "2": "the span", None: ""}
        manifest = json.loads((tmp_path / "ens-None.jsonl.manifest.json")
                              .read_text())
        assert manifest["config"]["null_threshold"] == 0.0


class TestInvalidUtf8:
    """Invalid UTF-8 in an artifact ends in one error line that names the
    file, and the line or record where the reader has one."""

    def test_prediction_line(self, corpus, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        good = {"qid": "synth-0000", "nbest": [], "null_score": 0.0}
        # the CRLF line and the blank line before the bad one still count
        pred.write_bytes(json.dumps(good).encode() + b"\r\n\n\xff\xfe\n")
        assert main(["evaluate", "--pred", str(pred),
                     "--gold", str(corpus)]) == 2
        assert _error_line(capsys).startswith(
            f"error: {pred}: line 3: 'utf-8' codec can't decode byte 0xff")

    def test_dump_qid(self, corpus, tmp_path, capsys):
        feats = TestArtifactErrors._features(corpus, tmp_path, capsys)
        dump = tmp_path / "dump.bin"
        save_logits_dump(dump, {
            ("synth-0000", 0): SpanLogits("synth-0000", 0, np.ones(3),
                                          np.zeros(3))})
        blob = bytearray(dump.read_bytes())
        blob[blob.index(b"synth-0000")] = 0xFF
        dump.write_bytes(bytes(blob))
        assert main(["ensemble", "--strategy", "mean-logits",
                     "--dumps", str(dump), "--features", str(feats),
                     "--data", str(corpus),
                     "--out", str(tmp_path / "ens.jsonl")]) == 2
        assert _error_line(capsys).startswith(
            f"error: {dump}: record 0: key: 'utf-8' codec can't decode "
            f"byte 0xff")

    def test_squad_context(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        data.write_bytes(b'{"data": [{"paragraphs": [{"context": "a\xffb", '
                         b'"qas": []}]}]}')
        assert main(["preprocess", "--data", str(data),
                     "--out", str(tmp_path / "f.jsonl")]) == 2
        assert _error_line(capsys).startswith(
            f"error: {data}: malformed JSON: 'utf-8' codec can't decode "
            f"byte 0xff")

    def test_checkpoint(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        blob = ckpt.read_bytes()
        for old, new, where in ((b'"squad_out"', b'"squad_ou\xff"', "header"),
                                (b"head.W", b"head\xffW", "record 0: key")):
            assert blob.count(old) == 1
            ckpt.write_bytes(blob.replace(old, new))
            capsys.readouterr()
            assert _predict(ckpt, feats, corpus, tmp_path,
                            ["--embeddings", "pseudo"]) == 2
            assert _error_line(capsys).startswith(
                f"error: {ckpt}: {where}: 'utf-8' codec can't decode byte "
                f"0xff")


def _train_squad_out(corpus, tmp_path, embeddings_args, seed="0"):
    """Preprocess the corpus and train one squad_out checkpoint."""
    feats = tmp_path / "feats.jsonl"
    ckpt = tmp_path / "model.ckpt"
    assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                 "--max-seq-length", "32", "--doc-stride", "4"]) == 0
    assert main(["train", "--features", str(feats), "--arch", "squad_out",
                 "--out", str(ckpt), "--d-model", "8", "--epochs", "1",
                 "--seed", seed] + embeddings_args) == 0
    return feats, ckpt


def _predict(ckpt, feats, corpus, tmp_path, embeddings_args):
    return main(["predict", "--checkpoint", str(ckpt), "--features",
                 str(feats), "--data", str(corpus),
                 "--out", str(tmp_path / "pred.jsonl")] + embeddings_args)


def _rewrite(ckpt, edit):
    """Write back a checkpoint after ``edit(header, records)``; the header
    holds seed and hyperparams, a record is (name, 0, array)."""
    header, records = read_records(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    edit(header, records)
    write_records(ckpt, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, records)


class TestCheckpointErrors:
    @staticmethod
    def _corrupt(ckpt, edit):
        _rewrite(ckpt, lambda header, records: edit(header))

    def _expect_2(self, corpus, tmp_path, capsys, feats, ckpt):
        capsys.readouterr()
        code = _predict(ckpt, feats, corpus, tmp_path,
                        ["--embeddings", "pseudo", "--seed", "0"])
        assert code == 2
        return _error_line(capsys)

    def test_version_1_rejected(self, corpus, tmp_path, capsys):
        # the JSON checkpoints of versions 1 and 2, and a container that
        # claims another version
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        params, seed, hp = load_checkpoint(ckpt)
        good = ckpt.read_bytes()
        for version in (1, 2):
            ckpt.write_text(json.dumps({
                "format": "squadlab-checkpoint", "version": version,
                "seed": seed, "hyperparams": hp,
                "params": {name: {"shape": list(a.shape),
                                  "values": a.ravel().tolist()}
                           for name, a in params.items()}}))
            line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
            assert line == (f"error: {ckpt}: bad magic b'{{\"fo', expected "
                            f"b'SQCK'")
        ckpt.write_bytes(good[:4] + struct.pack("<I", 2) + good[8:])
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert line == (f"error: {ckpt}: unsupported version 2; this build "
                        f"reads version 3")

    def test_truncated_file(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        blob = ckpt.read_bytes()
        # inside the magic, the header, the record count and the last record
        head = struct.unpack("<I", blob[8:12])[0]
        for size in (0, 1, 7, 12 + head // 2, 14 + head, len(blob) // 2,
                     len(blob) - 1):
            ckpt.write_bytes(blob[:size])
            line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
            assert "truncated: needed" in line, size

    def test_malformed_params(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        good = ckpt.read_bytes()
        first = next(iter(load_checkpoint(ckpt)[0]))
        _rewrite(ckpt, lambda header, records: records.append(records[0]))
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert line.endswith(f"(key={first!r}, index=0) repeats an earlier "
                             f"record")
        ckpt.write_bytes(good)
        _rewrite(ckpt, lambda header, records: records.clear())
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert line.startswith(f"error: {ckpt}: parameter names do not "
                               f"match the architecture")

    def test_a_record_at_another_index_is_2(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])

        def second_head(header, records):
            W = next(r[2] for r in records if r[0] == "head.W")
            records.append(("head.W", 1, np.full_like(W, 7.0)))
        _rewrite(ckpt, second_head)
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert line == (f"error: {ckpt}: parameter 'head.W' is stored at "
                        f"index 1; a checkpoint keeps each at index 0")
        assert not (tmp_path / "pred.jsonl").exists()

    def test_parameter_shape_must_match_model(self, corpus, tmp_path,
                                              capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        good = ckpt.read_bytes()
        want = load_checkpoint(ckpt)[0]["head.W"].shape
        for shape in (want[::-1], (want[0] * want[1],), (want[0], 3)):
            ckpt.write_bytes(good)

            def reshape(header, records):
                i = [r[0] for r in records].index("head.W")
                records[i] = ("head.W", 0, np.zeros(shape))
            _rewrite(ckpt, reshape)
            line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
            assert line == (f"error: {ckpt}: parameter 'head.W' has shape "
                            f"{shape}, model expects {want}")

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_parameter_is_2(self, corpus, tmp_path, capsys, bad):
        # refused when the model is loaded, naming the checkpoint and the
        # parameter, not at the first question's forward
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])

        def poison(header, records):
            records[-1][2][0] = bad
        _rewrite(ckpt, poison)
        name = list(load_checkpoint(ckpt)[0])[-1]
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert line == (f"error: {ckpt}: parameter {name!r} holds a "
                        f"non-finite value")

    @pytest.mark.parametrize("edit, why", [
        (lambda hp: hp["model_config"].update(n_layers=2), "n_layers"),
        (lambda hp: hp["model_config"].update(use_char_embedding=True),
         "'use_char_embedding'"),
        (lambda hp: hp.pop("model_config"), "model_config"),
        (lambda hp: hp.update(model_config=[1, 2]), "model_config"),
        (lambda hp: hp["model_config"].update(architecture="nope"),
         "unknown architecture"),
    ], ids=["unknown-key", "use_char_embedding", "missing", "not-an-object",
            "bad-architecture"])
    def test_bad_model_config(self, corpus, tmp_path, capsys, edit, why):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        self._corrupt(ckpt, lambda b: edit(b["hyperparams"]))
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert str(ckpt) in line and why in line

    @pytest.mark.parametrize("edit", [
        lambda emb: [8],
        lambda emb: "pseudo",
        lambda emb: {k: v for k, v in emb.items() if k != "d_model"},
        lambda emb: {k: v for k, v in emb.items() if k != "kind"},
        lambda emb: {k: v for k, v in emb.items() if k != "seed"},
        lambda emb: {**emb, "d_model": "8"},
        lambda emb: {**emb, "kind": "albert"},
    ], ids=["a-list", "a-string", "no-d_model", "no-kind", "no-seed",
            "string-d_model", "unknown-kind"])
    def test_bad_embeddings_identity(self, corpus, tmp_path, capsys, edit):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        self._corrupt(ckpt, lambda b: b["hyperparams"].update(
            embeddings=edit(b["hyperparams"]["embeddings"])))
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert str(ckpt) in line and "hyperparams.embeddings" in line

    @pytest.mark.parametrize("field", ["seed", "hyperparams"])
    def test_missing_field_is_2(self, corpus, tmp_path, capsys, field):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        self._corrupt(ckpt, lambda b: b.pop(field))
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert line == f"error: {ckpt}: checkpoint missing field {field!r}"

    def test_hyperparams_not_an_object(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        self._corrupt(ckpt, lambda b: b.update(hyperparams=[]))
        line = self._expect_2(corpus, tmp_path, capsys, feats, ckpt)
        assert str(ckpt) in line and "model_config" in line


class TestManifests:
    def test_embedding_fixture_is_an_input(self, corpus, tmp_path):
        feats = tmp_path / "feats.jsonl"
        emb = tmp_path / "emb.bin"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        assert main(["pseudo-embed", "--features", str(feats), "--out",
                     str(emb), "--d-model", "8"]) == 0
        for emb_arg, listed in ((str(emb), [str(emb)]), ("pseudo", [])):
            feats, ckpt = _train_squad_out(corpus, tmp_path,
                                           ["--embeddings", emb_arg])
            assert _predict(ckpt, feats, corpus, tmp_path,
                            ["--embeddings", emb_arg]) == 0
            train = json.loads(Path(f"{ckpt}.manifest.json").read_text())
            pred = json.loads(
                (tmp_path / "pred.jsonl.manifest.json").read_text())
            assert train["inputs"] == [str(feats)] + listed
            assert pred["inputs"] == [str(feats), str(corpus),
                                      str(ckpt)] + listed


class TestEmbedderIdentity:
    def test_pseudo_seed_mismatch_is_2(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        hp = load_checkpoint(ckpt)[2]
        assert hp["embeddings"] == {"kind": "pseudo", "d_model": 8,
                                    "seed": 0}
        capsys.readouterr()
        assert _predict(ckpt, feats, corpus, tmp_path,
                        ["--embeddings", "pseudo", "--seed", "7"]) == 2
        line = _error_line(capsys)
        assert "seed 0" in line and "seed 7" in line
        assert _predict(ckpt, feats, corpus, tmp_path,
                        ["--embeddings", "pseudo", "--seed", "0"]) == 0

    def test_fixture_identity_and_width(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats.jsonl"
        main(["preprocess", "--data", str(corpus), "--out", str(feats),
              "--max-seq-length", "32", "--doc-stride", "4"])
        emb8, emb6 = tmp_path / "emb8.bin", tmp_path / "emb6.bin"
        for path, width in ((emb8, "8"), (emb6, "6")):
            assert main(["pseudo-embed", "--features", str(feats),
                         "--out", str(path), "--d-model", width,
                         "--seed", "3"]) == 0
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", str(emb8)])
        hp = load_checkpoint(ckpt)[2]
        assert hp["embeddings"] == {"kind": "fixture", "d_model": 8,
                                    "seed": None}
        capsys.readouterr()
        assert _predict(ckpt, feats, corpus, tmp_path,
                        ["--embeddings", str(emb6)]) == 2
        line = _error_line(capsys)
        assert "d_model=8" in line and "d_model=6" in line
        # a fixture's seed is unknown, so another predict seed is allowed
        assert _predict(ckpt, feats, corpus, tmp_path,
                        ["--embeddings", str(emb8), "--seed", "9"]) == 0


class TestTrainSettings:
    """A setting train cannot honour ends in one `error:` line and exit 2,
    before any checkpoint is written."""

    @pytest.mark.parametrize("flags, message", [
        (["--learning-rate", "nan"],
         "learning_rate must be finite and positive, got nan"),
        (["--learning-rate", "inf"],
         "learning_rate must be finite and positive, got inf"),
        (["--hidden", "0"], "hidden must be positive, got 0"),
        (["--d-model", "-8"], "d_model must be positive, got -8"),
    ], ids=["nan-rate", "inf-rate", "zero-hidden", "negative-d-model"])
    def test_bad_setting_is_2(self, corpus, tmp_path, capsys, flags,
                              message):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "model.json"
        assert main(["train", "--features", str(feats), "--embeddings",
                     "pseudo", "--arch", "gru_highway_gru_bidaf",
                     "--out", str(ckpt), "--d-model", "8", "--epochs", "1"]
                    + flags) == 2
        assert _error_line(capsys) == f"error: {message}"
        assert not ckpt.exists()

    def test_fixture_narrower_than_d_model_is_2(self, corpus, tmp_path,
                                                capsys):
        feats, emb = tmp_path / "feats.jsonl", tmp_path / "emb8.bin"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        assert main(["pseudo-embed", "--features", str(feats),
                     "--out", str(emb), "--d-model", "8"]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "model.json"
        assert main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "gru_highway_gru_bidaf",
                     "--out", str(ckpt), "--d-model", "16"]) == 2
        assert _error_line(capsys) == (
            f"error: {emb} holds d_model=8 embeddings, --d-model is 16")
        assert not ckpt.exists()

    def test_non_finite_weight_in_a_prediction_file_is_2(self, tmp_path,
                                                         capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"qid": "q", "null_score": 4.0, "nbest": [], '
                        '"model_f1_weight": NaN}\n', encoding="utf-8")
        assert main(["ensemble", "--strategy", "weighted-voting",
                     "--pred", str(pred),
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert _error_line(capsys) == (
            f"error: {pred}: line 1: non-finite number NaN")

    def test_repeated_qid_in_a_prediction_file_is_2(self, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        rec = json.dumps({"qid": "q", "null_score": 4.0, "nbest": []})
        pred.write_text(f"{rec}\n{rec}\n", encoding="utf-8")
        assert main(["ensemble", "--strategy", "weighted-voting",
                     "--pred", str(pred), "--weights", "60",
                     "--out", str(tmp_path / "o.jsonl")]) == 2
        assert _error_line(capsys) == (
            f"error: {pred}: line 2: qid 'q' repeats an earlier line")

    def test_no_weight_anywhere_is_2(self, tmp_path, capsys):
        # neither --weights nor a model_f1_weight in the file
        pred = tmp_path / "pred.jsonl"
        pred.write_text('{"qid": "q", "null_score": 4.0, "nbest": []}\n',
                        encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["ensemble", "--strategy", "weighted-voting",
                     "--pred", str(pred), "--out", str(out)]) == 2
        assert _error_line(capsys) == (
            f"error: model {pred}: no single model_f1_weight in file and "
            f"none supplied")
        assert not out.exists()

    @pytest.mark.parametrize("second, message", [
        ('{"qid": "q", "null_score": 4.0, "nbest": [], '
         '"model_f1_weight": 60}\n' * 2,
         "{bad}: line 2: qid 'q' repeats an earlier line"),
        ('{"qid": "q", "null_score": 4.0, "nbest": []}\n',
         "model {bad}: no single model_f1_weight in file and none supplied"),
        ('{"qid": "r", "null_score": 4.0, "nbest": [], '
         '"model_f1_weight": 60}\n',
         None)], ids=["duplicate-qid", "no-weight", "other-qids"])
    def test_the_faulty_one_of_two_prediction_files_is_named(
            self, tmp_path, capsys, second, message):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        good.write_text('{"qid": "q", "null_score": 4.0, "nbest": [], '
                        '"model_f1_weight": 70}\n', encoding="utf-8")
        bad.write_text(second, encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["ensemble", "--strategy", "weighted-voting",
                     "--pred", str(good), str(bad), "--out", str(out)]) == 2
        if message is None:  # the two files cover different qids
            message = (f"models {str(good)!r} and {str(bad)!r} cover "
                       f"different qids; first differences: ['q', 'r']")
        else:
            message = message.format(bad=bad)
        assert _error_line(capsys) == f"error: {message}"
        assert not out.exists()


class TestInputErrors:
    """An unreadable path or a malformed record ends in one `error:` line
    and exit 2, not a traceback."""

    def test_predict_features_directory_is_2(self, corpus, tmp_path, capsys):
        _, ckpt = _train_squad_out(corpus, tmp_path,
                                   ["--embeddings", "pseudo"])
        capsys.readouterr()
        code = main(["predict", "--checkpoint", str(ckpt), "--features",
                     str(tmp_path), "--embeddings", "pseudo", "--data",
                     str(corpus), "--out", str(tmp_path / "pred.jsonl")])
        assert code == 2
        assert str(tmp_path) in _error_line(capsys)

    def test_evaluate_out_directory_is_2(self, tmp_path, capsys):
        gold, pred = TestEvaluateCommand()._einstein(tmp_path)
        out_dir = tmp_path / "reports"
        out_dir.mkdir()
        code = main(["evaluate", "--pred", str(pred), "--gold", str(gold),
                     "--out", str(out_dir)])
        assert code == 2
        assert str(out_dir) in _error_line(capsys)

    @pytest.mark.parametrize("line, problem", [
        ("[1]", "expected a JSON object, got list"),
        ('{"qid": "a"}', "nbest must be a list"),
        ('{"qid": 7, "nbest": [], "null_score": 0}', "qid must be a string"),
        ('{"qid": "a", "nbest": [], "null_score": "0"}',
         "null_score must be a number"),
        ('{"qid": "a", "nbest": [1], "null_score": 0}', "nbest[0]"),
        ("{", "line 2: Expecting property name"),
    ], ids=["a-list", "qid-only", "int-qid", "string-null-score",
            "bad-entry", "bad-json"])
    def test_malformed_prediction_record_is_2(self, tmp_path, capsys, line,
                                              problem):
        gold, pred = TestEvaluateCommand()._einstein(tmp_path)
        first = pred.read_text().splitlines()[0]
        pred.write_text(first + "\n" + line + "\n")
        code = main(["evaluate", "--pred", str(pred), "--gold", str(gold)])
        assert code == 2
        err = _error_line(capsys)
        assert err.startswith(f"error: {pred}: line 2: "), err
        assert problem in err

    _BAD_SPAN = ("nbest[0]: start_token and end_token must both be null, "
                 "or ints with 0 <= start_token <= end_token")

    @pytest.mark.parametrize("field, value, problem", [
        ("text", [1], "nbest[0].text must be a string"),
        ("start_token", [1], _BAD_SPAN),
        ("start_token", "1", _BAD_SPAN),
        ("start_token", 1.5, _BAD_SPAN),
        ("start_token", True, _BAD_SPAN),
        ("start_token", None, _BAD_SPAN),
        ("start_token", 7, _BAD_SPAN),
        ("end_token", -1, _BAD_SPAN),
        ("feature_index", -1, "nbest[0].feature_index must be an int >= 0"),
        ("feature_index", True, "nbest[0].feature_index must be an int >= 0"),
        ("feature_index", "0", "nbest[0].feature_index must be an int >= 0"),
        ("model_f1_weight", [1], "model_f1_weight must be a number"),
        ("model_f1_weight", "0.5", "model_f1_weight must be a number"),
    ], ids=["list-text", "list-start", "string-start", "float-start",
            "bool-start", "null-start-int-end", "start-after-end",
            "negative-end", "negative-feature-index", "bool-feature-index",
            "string-feature-index", "list-weight", "string-weight"])
    @pytest.mark.parametrize("command", ["evaluate", "weighted-voting"])
    def test_mistyped_prediction_field_is_2(self, tmp_path, capsys, field,
                                            value, problem, command):
        gold, pred = TestEvaluateCommand()._einstein(tmp_path)
        lines = pred.read_text().splitlines()
        rec = json.loads(lines[1])  # nbest[0] spans tokens 5..6
        if field == "model_f1_weight":
            rec[field] = value
        else:
            rec["nbest"][0][field] = value
        lines[1] = json.dumps(rec)
        pred.write_text("\n".join(lines) + "\n")
        if command == "evaluate":
            argv = ["evaluate", "--pred", str(pred), "--gold", str(gold)]
        else:
            argv = ["ensemble", "--strategy", "weighted-voting", "--pred",
                    str(pred), "--out", str(tmp_path / "o.jsonl")]
        assert main(argv) == 2
        assert _error_line(capsys) == f"error: {pred}: line 2: {problem}"

    @pytest.mark.parametrize("field, value, problem", [
        ("qid", 7, "qid 7 is not a string"),
        ("feature_index", -1,
         "feature_index -1 is not an int in [0, 2^32)"),
        ("feature_index", 2 ** 32,
         "feature_index 4294967296 is not an int in [0, 2^32)"),
        ("feature_index", 1.5,
         "feature_index 1.5 is not an int in [0, 2^32)"),
        ("feature_index", True,
         "feature_index True is not an int in [0, 2^32)"),
        ("feature_index", "3",
         "feature_index '3' is not an int in [0, 2^32)"),
        ("start_position", 1.5, "start/end positions (1.5, 0) are not ints"),
        ("end_position", True, "start/end positions (0, True) are not ints"),
        ("tokens", "abc", "tokens is not a list"),
    ], ids=["int-qid", "negative-feature-index", "feature-index-past-u32",
            "float-feature-index", "bool-feature-index",
            "string-feature-index", "float-position", "bool-position",
            "string-tokens"])
    def test_mistyped_feature_field_is_2(self, corpus, tmp_path, capsys,
                                         field, value, problem):
        def edit(rec):
            rec[field] = value

        feats = self._edited_features(corpus, tmp_path, capsys, edit)
        assert main(["pseudo-embed", "--features", str(feats),
                     "--out", str(tmp_path / "e.bin")]) == 2
        assert _error_line(capsys) == f"error: {feats}: line 1: {problem}"

    @pytest.mark.parametrize("token, shown", [(7, "7"), ("", "''"),
                                              (None, "None")],
                             ids=["int", "empty", "null"])
    def test_bad_token_in_bidaf_train_is_2(self, corpus, tmp_path, capsys,
                                           token, shown):
        def edit(rec):
            rec["tokens"][1] = token

        feats = self._edited_features(corpus, tmp_path, capsys, edit)
        assert main(["train", "--features", str(feats), "--embeddings",
                     "pseudo", "--arch", "gru_highway_gru_bidaf",
                     "--d-model", "8", "--out", str(tmp_path / "m.json")]) == 2
        assert _error_line(capsys) == (
            f"error: {feats}: line 1: tokens[1] {shown} is not a non-empty "
            f"string")

    @pytest.mark.parametrize("command", ["pseudo-embed", "train", "predict"])
    @pytest.mark.parametrize("edit, problem", [
        (lambda rec: rec.update(tokens=[], token_word_span=[]),
         "no tokens: a feature starts with the sentinel"),
        (lambda rec: rec["token_word_span"].__setitem__(0, [0, 1]),
         "the sentinel, token 0, has word span [0, 1]: it is the no-answer "
         "position and carries none"),
    ], ids=["no-tokens", "span-on-the-sentinel"])
    def test_feature_without_its_sentinel_is_2(self, corpus, tmp_path, capsys,
                                               command, edit, problem):
        pseudo = ["--embeddings", "pseudo"]
        if command == "predict":
            _, ckpt = _train_squad_out(corpus, tmp_path, pseudo)
        feats = self._edited_features(corpus, tmp_path, capsys, edit)
        argv = {
            "pseudo-embed": ["pseudo-embed", "--features", str(feats),
                             "--out", str(tmp_path / "e.bin")],
            "train": ["train", "--features", str(feats), "--arch",
                      "squad_out", "--d-model", "8",
                      "--out", str(tmp_path / "m.json")] + pseudo,
        }.get(command)
        code = (_predict(ckpt, feats, corpus, tmp_path, pseudo)
                if argv is None else main(argv))
        assert code == 2
        assert _error_line(capsys) == f"error: {feats}: line 1: {problem}"

    @staticmethod
    def _edited_features(corpus, tmp_path, capsys, edit):
        """A features file whose first record, a no-answer chunk, is
        changed in place by ``edit``."""
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        lines = feats.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[0])
        assert rec["start_position"] == rec["end_position"] == 0
        edit(rec)
        lines[0] = json.dumps(rec)
        feats.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        return feats

    @pytest.mark.parametrize("data, where", [
        ([7], "$.data[0] must be an object"),
        ([{"paragraphs": [7]}], "$.data[0].paragraphs[0] must be an object"),
        ([{"paragraphs": {}}], "$.data[0].paragraphs must be a list"),
        ([{"paragraphs": [{"context": 7, "qas": []}]}],
         "$.data[0].paragraphs[0] needs string 'context' and list 'qas'"),
        ([{"paragraphs": [{"context": "a"}]}],
         "$.data[0].paragraphs[0] needs string 'context' and list 'qas'"),
    ], ids=["article", "paragraph", "paragraphs", "context", "qas"])
    def test_non_object_squad_entry_is_2(self, tmp_path, capsys, data,
                                         where):
        path = tmp_path / "data.json"
        path.write_text(json.dumps({"data": data}))
        code = main(["preprocess", "--data", str(path),
                     "--out", str(tmp_path / "f.jsonl")])
        assert code == 2
        assert _error_line(capsys) == f"error: {path}: {where}"

    def test_missing_feature_field_is_2(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        lines = feats.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[1])
        del rec["tokens"]
        lines[1] = json.dumps(rec)
        feats.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["pseudo-embed", "--features", str(feats),
                     "--out", str(tmp_path / "e.bin")]) == 2
        assert _error_line(capsys) == (
            f"error: {feats}: line 2: missing field 'tokens'")

    def test_impossible_gold_position_in_train_is_2(self, corpus, tmp_path,
                                                    capsys):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        lines = feats.read_text(encoding="utf-8").splitlines()
        rec = json.loads(lines[2])
        rec["start_position"] = rec["end_position"] = 999
        lines[2] = json.dumps(rec)
        feats.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert main(["train", "--features", str(feats), "--embeddings",
                     "pseudo", "--arch", "squad_out", "--d-model", "8",
                     "--out", str(tmp_path / "m.json")]) == 2
        assert _error_line(capsys).startswith(f"error: {feats}: line 3: "
                                              f"start/end positions (999, ")

    def test_repeated_question_id_is_2(self, tmp_path, capsys):
        examples = make_synthetic_examples(n=2, seed=3)
        examples[1].qid = examples[0].qid
        data = tmp_path / "data.json"
        write_squad_json(data, examples)
        assert main(["preprocess", "--data", str(data),
                     "--out", str(tmp_path / "f.jsonl")]) == 2
        assert _error_line(capsys) == (
            f"error: {data}: $.data[0].paragraphs[1].qas[0]: question id "
            f"'synth-0000' repeats $.data[0].paragraphs[0].qas[0]")

    def test_pretokenized_without_a_question_is_2(self, corpus, tmp_path,
                                                  capsys):
        tok = tmp_path / "tok.jsonl"
        tok.write_text(json.dumps({"qid": "synth-0000", "tokens": ["a"],
                                   "spans": [[0, 1]]}) + "\n")
        assert main(["preprocess", "--data", str(corpus), "--pretokenized",
                     str(tok), "--out", str(tmp_path / "f.jsonl")]) == 2
        assert _error_line(capsys) == (
            f"error: {tok}: no tokens for question 'synth-0001'")

    def test_pretokenized_spans_one_short_is_2(self, corpus, tmp_path,
                                               capsys):
        # refused by preprocess itself, naming the pretokenized file
        tok = tmp_path / "tok.jsonl"
        tok.write_text(json.dumps({"qid": "synth-0000", "tokens": ["a", "b"],
                                   "spans": [[0, 1]]}) + "\n")
        out = tmp_path / "f.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--pretokenized",
                     str(tok), "--out", str(out)]) == 2
        assert _error_line(capsys) == (
            f"error: {tok}: line 1: 2 tokens but 1 spans entries")
        assert not out.exists()

    def test_pretokenized_span_past_the_context_is_2(self, tmp_path,
                                                     capsys):
        # refused by preprocess, naming the pretokenized file and the qid,
        # not later by predict naming the --data context
        data = tmp_path / "data.json"
        write_squad_json(data, make_synthetic_examples(n=1, seed=3))
        context = json.loads(data.read_text())["data"][0]["paragraphs"][0][
            "context"]
        tok = tmp_path / "tok.jsonl"
        tok.write_text(json.dumps({"qid": "synth-0000", "tokens": ["a"],
                                   "spans": [[500, 999]]}) + "\n")
        out = tmp_path / "f.jsonl"
        assert main(["preprocess", "--data", str(data), "--pretokenized",
                     str(tok), "--out", str(out)]) == 2
        assert _error_line(capsys) == (
            f"error: {tok}: question 'synth-0000': a span ends at character "
            f"999, past its context's {len(context)}")
        assert not out.exists()

    def test_vocab_with_invalid_utf8_is_2(self, corpus, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(b"ab\ncd\xff\n")
        assert main(["preprocess", "--data", str(corpus), "--vocab",
                     str(vocab), "--out", str(tmp_path / "f.jsonl")]) == 2
        assert _error_line(capsys).startswith(
            f"error: {vocab}: line 2: 'utf-8' codec can't decode byte 0xff")

    def test_missing_embedding_line_has_no_quotes(self, corpus, tmp_path,
                                                  capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        first = read_features(feats)[0]
        other = tmp_path / "other.bin"
        save_embedding_fixture(other, [
            EmbeddingMatrix("another-split", 0, np.ones((2, 8)))])
        capsys.readouterr()
        assert _predict(ckpt, feats, corpus, tmp_path,
                        ["--embeddings", str(other)]) == 2
        assert _error_line(capsys) == (
            f"error: no embedding for (qid={first.qid!r}, "
            f"feature_index={first.feature_index})")

    def test_pseudo_embed_without_features_is_2(self, tmp_path, capsys):
        feats = tmp_path / "f.jsonl"
        feats.write_text("")
        out = tmp_path / "emb.bin"
        assert main(["pseudo-embed", "--features", str(feats),
                     "--out", str(out)]) == 2
        assert _error_line(capsys) == (
            f"error: {feats} holds no features to embed")
        assert not out.exists()

    @pytest.mark.parametrize("kept, first", [
        (0, ["synth-0000", "synth-0001", "synth-0002", "synth-0003",
             "synth-0004"]),
        (3, ["synth-0003", "synth-0004", "synth-0005", "synth-0006",
             "synth-0007"]),
    ], ids=["empty", "three-of-ten"])
    def test_predict_features_missing_questions_is_2(self, corpus, tmp_path,
                                                     capsys, kept, first):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        covered = {f"synth-{i:04d}" for i in range(kept)}
        some = tmp_path / "some.jsonl"
        some.write_text("".join(
            line + "\n" for line in feats.read_text().splitlines()
            if json.loads(line)["qid"] in covered))
        capsys.readouterr()
        assert _predict(ckpt, some, corpus, tmp_path,
                        ["--embeddings", "pseudo"]) == 2
        assert _error_line(capsys) == (
            f"error: {some} has no features for {10 - kept} of 10 --data "
            f"questions; first: {first}")
        assert not (tmp_path / "pred.jsonl").exists()


class TestOneRulePerInput:
    """A prediction file that repeats a qid, and --data questions that no
    feature covers, end every command that reads them in one `error:` line
    and exit 2."""

    # weighted-voting's case is TestTrainSettings'
    @pytest.mark.parametrize("command", ["evaluate", "wv-mean-logits"])
    def test_repeated_qid_in_a_prediction_file_is_2(self, corpus, tmp_path,
                                                    capsys, command):
        qids = [f"synth-{i:04d}" for i in range(10)] + ["synth-0004"]
        pred = tmp_path / "pred.jsonl"
        write_predictions(pred, [
            {"qid": q, "nbest": [], "null_score": 0.0,
             "model_f1_weight": 60.0} for q in qids])
        if command == "evaluate":
            argv = ["evaluate", "--gold", str(corpus)]
        else:  # the other inputs are read after the predictions
            argv = ["ensemble", "--strategy", command, "--dumps", "d.bin",
                    "--features", "f.jsonl", "--data", str(corpus),
                    "--mean-weight", "70", "--out", str(tmp_path / "o.jsonl")]
        assert main(argv + ["--pred", str(pred)]) == 2
        assert _error_line(capsys) == (
            f"error: {pred}: line 11: qid 'synth-0004' repeats an earlier "
            f"line")

    @pytest.mark.parametrize("strategy", ["mean-logits", "wv-mean-logits"])
    def test_data_questions_without_features_are_2(self, corpus, tmp_path,
                                                   capsys, strategy):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus),
                     "--out", str(feats)]) == 0
        some = [f for f in read_features(feats)
                if f.qid in ("synth-0000", "synth-0001", "synth-0002")]
        kept = tmp_path / "some.jsonl"
        write_features(kept, some)
        rng = np.random.default_rng(0)
        dumps, preds = [], []
        for k in range(2):
            dumps.append(tmp_path / f"dump{k}.bin")
            save_logits_dump(dumps[-1], {
                (f.qid, f.feature_index): SpanLogits(
                    f.qid, f.feature_index, rng.normal(size=len(f.tokens)),
                    rng.normal(size=len(f.tokens))) for f in some})
            preds.append(tmp_path / f"pred{k}.jsonl")
            write_predictions(preds[-1], [
                {"qid": f.qid, "nbest": [], "null_score": 0.0,
                 "model_f1_weight": 60.0 + k} for f in some])
        out = tmp_path / "o.jsonl"
        argv = ["ensemble", "--strategy", strategy, "--dumps", *map(str, dumps),
                "--features", str(kept), "--data", str(corpus),
                "--out", str(out)]
        if strategy == "wv-mean-logits":
            argv += ["--pred", *map(str, preds), "--mean-weight", "70"]
        capsys.readouterr()
        assert main(argv) == 2
        assert _error_line(capsys) == (
            f"error: {kept} has no features for 7 of 10 --data questions; "
            f"first: ['synth-0003', 'synth-0004', 'synth-0005', "
            f"'synth-0006', 'synth-0007']")
        assert not out.exists()


class TestShortContext:
    """A --data file whose contexts end before the word spans of the
    features made from it: one error line, not empty answer texts."""

    @staticmethod
    def _short_data(tmp_path):
        short = tmp_path / "short.json"
        write_squad_json(short, [
            RawExample(ex.qid, ex.question, ex.context[:10], [], True)
            for ex in make_synthetic_examples(n=10, seed=3)])
        return short

    @staticmethod
    def _expected(feats):
        first = min(read_features(feats),
                    key=lambda f: (f.qid, f.feature_index))
        reach = max(e for _, e in filter(None, first.token_word_span))
        return (f"error: feature (qid={first.qid!r}, feature_index=0) spans "
                f"context characters up to {reach}, but the data's context "
                f"for {first.qid!r} has 10")

    def test_predict_is_2(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        capsys.readouterr()
        assert _predict(ckpt, feats, self._short_data(tmp_path), tmp_path,
                        ["--embeddings", "pseudo"]) == 2
        assert _error_line(capsys) == self._expected(feats)
        assert not (tmp_path / "pred.jsonl").exists()

    def test_mean_logits_is_2(self, corpus, tmp_path, capsys):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        keys = {(f.qid, f.feature_index): len(f.tokens)
                for f in read_features(feats)}
        line = TestLogitKeyMismatch._ensemble(
            tmp_path, capsys, keys, feats, self._short_data(tmp_path))
        assert line == self._expected(feats)


def _constant_rows_fixture(path, feats, row):
    """An embedding fixture giving every token of every feature ``row``."""
    save_embedding_fixture(path, [
        EmbeddingMatrix(f.qid, f.feature_index,
                        np.tile(row, (len(f.tokens), 1)))
        for f in read_features(feats)])


@pytest.mark.filterwarnings("error")
class TestForwardOverflow:
    """An overflow in a forward is one `error:` line and exit 2: no numpy
    RuntimeWarning is printed first or, with warnings as errors, raised
    out of ``main`` instead."""

    def test_predict_is_one_error_line(self, corpus, tmp_path, capsys):
        feats, ckpt = _train_squad_out(corpus, tmp_path,
                                       ["--embeddings", "pseudo"])
        model = load_model(ckpt)
        model.head.W.data[...] *= 1e300
        save_model(ckpt, model, hyperparams=model.hyperparams)
        emb = tmp_path / "big.bin"
        _constant_rows_fixture(emb, feats, np.full(8, 1e10))
        capsys.readouterr()
        assert _predict(ckpt, feats, corpus, tmp_path,
                        ["--embeddings", str(emb)]) == 2
        line = _error_line(capsys)
        assert line.startswith("error: predict (qid=")
        assert line.endswith("non-finite value produced in forward pass by "
                             "matmul")
        assert not (tmp_path / "pred.jsonl").exists()

    def test_train_is_one_error_line(self, corpus, tmp_path, capsys):
        feats, _ = _train_squad_out(corpus, tmp_path,
                                    ["--embeddings", "pseudo"])
        # the signs of the first head column that train's seed draws: every
        # product of the start logit's dot product is positive, and their
        # sum overflows
        w = build_model(ModelConfig("squad_out", d_model=64), seed=0).head.W
        emb = tmp_path / "big.bin"
        _constant_rows_fixture(emb, feats, 1e308 * np.sign(w.data[:, 0]))
        capsys.readouterr()
        out = tmp_path / "big.json"
        assert main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "squad_out", "--d-model", "64",
                     "--out", str(out), "--seed", "0"]) == 2
        line = _error_line(capsys)
        assert line.startswith("error: non-finite loss at step 1 (qid=")
        assert line.endswith("non-finite value produced in forward pass by "
                             "matmul")
        assert not out.exists()


@pytest.mark.filterwarnings("error")
class TestOverflowAfterForward:
    """Finite inputs whose gradients or summed scores overflow: one
    `error:` line and exit 2, with no numpy RuntimeWarning first or, with
    warnings as errors, raised out of ``main`` instead."""

    def test_train_gradient_overflow_is_one_error_line(self, corpus,
                                                       tmp_path, capsys):
        feats, _ = _train_squad_out(corpus, tmp_path,
                                    ["--embeddings", "pseudo"])
        emb = tmp_path / "big.bin"
        # logits near 1e200 keep the loss finite; the squares of the head
        # weights' gradients, near 1e400, are not
        _constant_rows_fixture(emb, feats, np.full(8, 1e200))
        capsys.readouterr()
        out = tmp_path / "big.json"
        assert main(["train", "--features", str(feats), "--embeddings",
                     str(emb), "--arch", "squad_out", "--d-model", "8",
                     "--out", str(out), "--seed", "0"]) == 2
        assert _error_line(capsys) == (
            "error: non-finite gradient at step 1: global norm inf")
        assert not out.exists()

    @pytest.mark.parametrize("value, where", [
        (6e307, "error: decode (qid='synth-0000', feature_index=0): a span "
                "or null score overflows"),
        (1e308, "error: summed logits overflow at (qid='synth-0000', "
                "feature_index=0)"),
    ], ids=["span-score", "logit-sum"])
    def test_mean_logits_overflow_is_one_error_line(self, corpus, tmp_path,
                                                    capsys, value, where):
        feats = tmp_path / "feats.jsonl"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        dump = tmp_path / "dump.bin"
        save_logits_dump(dump, {
            (f.qid, f.feature_index): SpanLogits(
                f.qid, f.feature_index, np.full(len(f.tokens), value),
                np.full(len(f.tokens), value))
            for f in read_features(feats)})
        out = tmp_path / "ens.jsonl"
        capsys.readouterr()
        assert main(["ensemble", "--strategy", "mean-logits", "--dumps",
                     str(dump), str(dump), "--features", str(feats),
                     "--data", str(corpus), "--out", str(out)]) == 2
        assert _error_line(capsys) == where
        assert not out.exists()


def _count_parsers(monkeypatch):
    """The prog of every ArgumentParser constructed from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


def _outcome(capsys, code, out):
    """Exit code, `error:` lines and artifact bytes of one call."""
    err = [line for line in capsys.readouterr().err.splitlines()
           if "error:" in line]
    return code, err, out.read_bytes() if out.exists() else None


class TestSharedParser:
    """``main`` parses every call with the one parser ``build_parser``
    builds per process, so no call may leave state in it."""

    @pytest.fixture
    def members(self, corpus, tmp_path):
        """Features plus two squad_out members' predictions and dumps."""
        feats = tmp_path / "feats.jsonl"
        emb = tmp_path / "emb.bin"
        assert main(["preprocess", "--data", str(corpus), "--out", str(feats),
                     "--max-seq-length", "32", "--doc-stride", "4"]) == 0
        assert main(["pseudo-embed", "--features", str(feats), "--out",
                     str(emb), "--d-model", "8", "--seed", "1"]) == 0
        preds, dumps = [], []
        for seed in ("1", "2"):
            ckpt, pred, dump = (tmp_path / f"m{seed}.{ext}"
                                for ext in ("json", "jsonl", "bin"))
            assert main(["train", "--features", str(feats), "--embeddings",
                         str(emb), "--arch", "squad_out", "--out", str(ckpt),
                         "--d-model", "8", "--epochs", "1",
                         "--seed", seed]) == 0
            assert main(["predict", "--checkpoint", str(ckpt), "--features",
                         str(feats), "--embeddings", str(emb), "--data",
                         str(corpus), "--out", str(pred), "--logits-out",
                         str(dump), "--model-f1-weight", "6" + seed]) == 0
            preds.append(str(pred))
            dumps.append(str(dump))
        context = ["--features", str(feats), "--data", str(corpus)]
        return feats, preds, dumps, context

    def test_calls_leave_no_state(self, members, tmp_path, capsys,
                                  monkeypatch):
        feats, preds, dumps, context = members

        def calls(out):
            """(name, argv, SQUADLAB_SEED, artifact) per call, in order."""
            vote = ["ensemble", "--strategy", "weighted-voting",
                    "--out", str(out / "vote.jsonl")]
            return [
                ("usage", ["ensemble", "--strategy", "weighted-voting",
                           "--out", str(out / "bad.jsonl")], None,
                 out / "bad.jsonl"),
                ("vote", vote + ["--pred"] + preds, None, out / "vote.jsonl"),
                ("mean", ["ensemble", "--strategy", "mean-logits", "--out",
                          str(out / "mean.jsonl"), "--dumps"] + dumps
                 + context, None, out / "mean.jsonl"),
                ("wv", ["ensemble", "--strategy", "wv-mean-logits", "--out",
                        str(out / "wv.jsonl"), "--pred"] + preds
                 + ["--dumps"] + dumps + context + ["--mean-weight", "70"],
                 None, out / "wv.jsonl"),
                ("seed3", ["pseudo-embed", "--features", str(feats),
                           "--out", str(out / "e3.bin"), "--d-model", "8"],
                 "3", out / "e3.bin"),
                ("seed4", ["pseudo-embed", "--features", str(feats),
                           "--out", str(out / "e4.bin"), "--d-model", "8"],
                 "4", out / "e4.bin"),
                ("again", vote + ["--pred"] + preds, None,
                 out / "vote.jsonl"),
            ]

        def run_call(argv, env_seed):
            if env_seed is None:
                monkeypatch.delenv("SQUADLAB_SEED", raising=False)
            else:
                monkeypatch.setenv("SQUADLAB_SEED", env_seed)
            return main(argv)

        # each call alone: a fresh parser, as in a new process
        alone = {}
        for name, argv, env_seed, artifact in calls(tmp_path / "alone"):
            artifact.parent.mkdir(exist_ok=True)
            build_parser.cache_clear()
            capsys.readouterr()
            alone[name] = _outcome(capsys, run_call(argv, env_seed),
                                   artifact)

        build_parser.cache_clear()
        built = _count_parsers(monkeypatch)
        together = {}
        for name, argv, env_seed, artifact in calls(tmp_path / "together"):
            artifact.parent.mkdir(exist_ok=True)
            capsys.readouterr()
            together[name] = _outcome(capsys, run_call(argv, env_seed),
                                      artifact)

        assert together == alone
        assert alone["usage"] == (
            1, ["squadlab: error: weighted-voting requires --pred"], None)
        assert [alone[n][0] for n in alone] == [1, 0, 0, 0, 0, 0, 0]
        assert alone["seed3"][2] != alone["seed4"][2]
        assert alone["again"] == alone["vote"]
        # the top-level parser and its 7 subparsers, built once
        assert built.count("squadlab") == 1 and len(built) == 8

        # mean-logits ran after a call with --pred and did not see it
        manifest = tmp_path / "together" / "mean.jsonl.manifest.json"
        assert json.loads(manifest.read_text())["config"]["pred"] == []
        ensemble = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)
                        ).choices["ensemble"]
        assert ensemble.get_default("pred") == []
        assert ensemble.get_default("dumps") == []


COMMANDS = ("preprocess", "pseudo-embed", "train", "predict", "evaluate",
            "ensemble", "selftest")


class TestHelpOutput:
    @pytest.mark.parametrize("argv", [["--help"], ["--version"]]
                             + [[cmd, "--help"] for cmd in COMMANDS],
                             ids=lambda argv: " ".join(argv))
    def test_same_text_on_every_call(self, argv, capsys):
        build_parser.cache_clear()
        texts = []
        for _ in range(2):
            assert main(argv) == 0
            out, err = capsys.readouterr()
            assert err == ""
            texts.append(out)
        assert texts[0] and texts[0] == texts[1]

    @pytest.mark.parametrize("argv", [["--bogus"],
                                      ["selftest", "--bogus"]],
                             ids=lambda argv: " ".join(argv))
    def test_unknown_flag_is_1_on_every_call(self, argv, capsys):
        build_parser.cache_clear()
        errs = []
        for _ in range(2):
            assert main(argv) == 1
            errs.append(capsys.readouterr().err)
        assert "error:" in errs[0] and errs[0] == errs[1]

    def test_layout_follows_columns_at_call_time(self, capsys, monkeypatch):
        def evaluate_help(columns, fresh):
            monkeypatch.setenv("COLUMNS", columns)
            if fresh:
                build_parser.cache_clear()
            assert main(["evaluate", "--help"]) == 0
            return capsys.readouterr().out

        wide = evaluate_help("120", fresh=True)
        # a parser built under COLUMNS=120 lays out for 50 when asked then
        narrow = evaluate_help("50", fresh=False)
        assert narrow == evaluate_help("50", fresh=True) != wide
