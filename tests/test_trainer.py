import tracemalloc

import numpy as np
import pytest

from conftest import feature_context_text, make_feature
from squadlab import ensemble, training
from squadlab.autograd import (AdamState, Rng, adam_step, clip_global_norm,
                               no_grad, zero_grads)
from squadlab.embeddings import PseudoEmbedder
from squadlab.ensemble import save_logits_dump
from squadlab.heads import span_loss, write_predictions
from squadlab.scoring import predictions_from_file
from squadlab.training import (ARCHITECTURES, Hyperparams, ModelConfig,
                               PRESETS, QaModel, build_model, load_model,
                               predict, save_model, train, write_loss_curve)


def provider(d_model=32, seed=0):
    emb = PseudoEmbedder(d_model, seed)
    return lambda f: emb.embed(f).matrix


def small_cfg(tag, d_model=32):
    return ModelConfig(architecture=tag, d_model=d_model, hidden=8,
                       d_char=4, d_char_out=4, dropout_rate=0.0)


# the ordered parameter names of each architecture, as the checkpoint
# stores them; the order is also the summation order of clip_global_norm
PARAMETER_NAMES = {
    "squad_out": ["head.W", "head.b"],
    "highway_squad_out": [
        "highway.0.W_proj", "highway.0.b_proj", "highway.0.W_gate",
        "highway.0.b_gate", "highway.1.W_proj", "highway.1.b_proj",
        "highway.1.W_gate", "highway.1.b_gate", "head.W", "head.b"],
    "bilstm_attn_bilstm_bidaf": [
        "combiner.wavg_tok.W", "combiner.char_cnn.K", "combiner.char_cnn.b",
        "combiner.wavg_char.W", "combiner.highway.0.W_proj",
        "combiner.highway.0.b_proj", "combiner.highway.0.W_gate",
        "combiner.highway.0.b_gate", "combiner.highway.1.W_proj",
        "combiner.highway.1.b_proj", "combiner.highway.1.W_gate",
        "combiner.highway.1.b_gate", "encoder.fwd.W", "encoder.fwd.U",
        "encoder.fwd.b", "encoder.bwd.W", "encoder.bwd.U", "encoder.bwd.b",
        "decoder.fwd.W", "decoder.fwd.U", "decoder.fwd.b", "decoder.bwd.W",
        "decoder.bwd.U", "decoder.bwd.b", "head.w1", "head.w2", "head.w3",
        "head.w4", "head.end_rnn.W_ur", "head.end_rnn.U_ur",
        "head.end_rnn.b_ur", "head.end_rnn.W_c", "head.end_rnn.U_c",
        "head.end_rnn.b_c"],
    "gru_highway_gru_bidaf": [
        "combiner.wavg_tok.W", "combiner.char_cnn.K", "combiner.char_cnn.b",
        "combiner.wavg_char.W", "combiner.highway.0.W_proj",
        "combiner.highway.0.b_proj", "combiner.highway.0.W_gate",
        "combiner.highway.0.b_gate", "combiner.highway.1.W_proj",
        "combiner.highway.1.b_proj", "combiner.highway.1.W_gate",
        "combiner.highway.1.b_gate", "encoder.fwd.W_ur", "encoder.fwd.U_ur",
        "encoder.fwd.b_ur", "encoder.fwd.W_c", "encoder.fwd.U_c",
        "encoder.fwd.b_c", "encoder.bwd.W_ur", "encoder.bwd.U_ur",
        "encoder.bwd.b_ur", "encoder.bwd.W_c", "encoder.bwd.U_c",
        "encoder.bwd.b_c", "decoder.fwd.W_ur", "decoder.fwd.U_ur",
        "decoder.fwd.b_ur", "decoder.fwd.W_c", "decoder.fwd.U_c",
        "decoder.fwd.b_c", "decoder.bwd.W_ur", "decoder.bwd.U_ur",
        "decoder.bwd.b_ur", "decoder.bwd.W_c", "decoder.bwd.U_c",
        "decoder.bwd.b_c", "mid_highway.W_proj", "mid_highway.b_proj",
        "mid_highway.W_gate", "mid_highway.b_gate", "head.w1", "head.w2",
        "head.w3", "head.w4", "head.end_rnn.W_ur", "head.end_rnn.U_ur",
        "head.end_rnn.b_ur", "head.end_rnn.W_c", "head.end_rnn.U_c",
        "head.end_rnn.b_c"],
    "gru_attn_selfattn_gru_bidaf": [
        "combiner.wavg_tok.W", "combiner.char_cnn.K", "combiner.char_cnn.b",
        "combiner.wavg_char.W", "combiner.highway.0.W_proj",
        "combiner.highway.0.b_proj", "combiner.highway.0.W_gate",
        "combiner.highway.0.b_gate", "combiner.highway.1.W_proj",
        "combiner.highway.1.b_proj", "combiner.highway.1.W_gate",
        "combiner.highway.1.b_gate", "encoder.fwd.W_ur", "encoder.fwd.U_ur",
        "encoder.fwd.b_ur", "encoder.fwd.W_c", "encoder.fwd.U_c",
        "encoder.fwd.b_c", "encoder.bwd.W_ur", "encoder.bwd.U_ur",
        "encoder.bwd.b_ur", "encoder.bwd.W_c", "encoder.bwd.U_c",
        "encoder.bwd.b_c", "decoder.fwd.W_ur", "decoder.fwd.U_ur",
        "decoder.fwd.b_ur", "decoder.fwd.W_c", "decoder.fwd.U_c",
        "decoder.fwd.b_c", "decoder.bwd.W_ur", "decoder.bwd.U_ur",
        "decoder.bwd.b_ur", "decoder.bwd.W_c", "decoder.bwd.U_c",
        "decoder.bwd.b_c", "head.w1", "head.w2", "head.w3", "head.w4",
        "head.end_rnn.W_ur", "head.end_rnn.U_ur", "head.end_rnn.b_ur",
        "head.end_rnn.W_c", "head.end_rnn.U_c", "head.end_rnn.b_c"],
}


class TestBuild:
    def test_unknown_tag(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            ModelConfig(architecture="transformer")

    def test_bidaf_builds_the_char_branch_by_default(self):
        model = build_model(ModelConfig("gru_highway_gru_bidaf", d_model=8,
                                        hidden=4), seed=0)
        assert model.parameters()["combiner.char_cnn.K"].data.shape == (
            3 * 16, 16)

    @pytest.mark.parametrize("tag", ["squad_out", "gru_highway_gru_bidaf"])
    def test_dropout_runs_only_with_an_rng(self, tag):
        feat = make_feature(start=2, end=3)
        emb = provider()(feat)

        def logits(rate, drop_rng=None):
            model = build_model(ModelConfig(tag, d_model=32, hidden=8,
                                            dropout_rate=rate), seed=1)
            start, end = model.forward([feat], [emb], drop_rng=drop_rng)
            return start.data.tobytes() + end.data.tobytes()

        assert logits(0.5) == logits(0.0)
        assert logits(0.5, Rng(3)) != logits(0.0)

    def test_squad_out_param_count(self):
        d = 32
        model = build_model(small_cfg("squad_out", d), seed=0)
        # a single linear span head: W[d, 2] and b[2]
        assert model.parameter_count() == 2 * d + 2

    def test_highway_adds_two_layers(self):
        d = 32
        plain = build_model(small_cfg("squad_out", d), seed=0)
        hw = build_model(small_cfg("highway_squad_out", d), seed=0)
        # each highway layer carries transform + gate, both d*d + d
        assert hw.parameter_count() - plain.parameter_count() \
            == 2 * 2 * (d * d + d)

    def test_all_tags_build_and_run(self):
        feat = make_feature(start=2, end=3)
        prov = provider()
        for tag in ARCHITECTURES:
            model = build_model(small_cfg(tag), seed=1)
            start, end = model.forward([feat], [prov(feat)])
            assert start.data.shape == (len(feat.tokens),)
            assert end.data.shape == (len(feat.tokens),)
            assert np.isfinite(start.data).all()

    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_parameter_names_in_checkpoint_order(self, tag):
        model = build_model(small_cfg(tag), seed=0)
        assert list(model.parameters()) == PARAMETER_NAMES[tag]

    def test_seed_reproducibility(self):
        a = build_model(small_cfg("gru_attn_selfattn_gru_bidaf"), seed=7)
        b = build_model(small_cfg("gru_attn_selfattn_gru_bidaf"), seed=7)
        c = build_model(small_cfg("gru_attn_selfattn_gru_bidaf"), seed=8)
        pa, pb, pc = a.parameters(), b.parameters(), c.parameters()
        assert set(pa) == set(pb) == set(pc)
        assert all(np.array_equal(pa[n].data, pb[n].data) for n in pa)
        assert any(not np.array_equal(pa[n].data, pc[n].data) for n in pa)

    @pytest.mark.parametrize("field", ["d_model", "hidden", "d_char",
                                       "d_char_out"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_widths_must_be_positive(self, field, value):
        with pytest.raises(ValueError) as e:
            ModelConfig("gru_highway_gru_bidaf", **{field: value})
        assert str(e.value) == f"{field} must be positive, got {value}"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0])
    def test_learning_rate_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError) as e:
            Hyperparams(learning_rate=value)
        assert str(e.value) == (f"learning_rate must be finite and "
                                f"positive, got {value}")

    def test_presets_match_reported_runs(self):
        assert PRESETS["base"].learning_rate == 3e-5
        assert PRESETS["base"].batch_size == 7
        assert PRESETS["base"].max_seq_length == 384
        assert PRESETS["base"].doc_stride == 128
        assert PRESETS["xlarge"].batch_size == 1
        assert PRESETS["xxlarge"].learning_rate == 8e-6


class TestTrain:
    def _setup(self, tag="squad_out", n=4, seed=3):
        feats = [make_feature(qid=f"q{i}", start=i % 3, end=i % 3 + 1)
                 for i in range(n)]
        model = build_model(small_cfg(tag), seed=seed)
        return model, feats, provider()

    def test_step_changes_parameters(self):
        model, feats, prov = self._setup()
        before = {n: p.data.copy() for n, p in model.parameters().items()}
        hp = Hyperparams(learning_rate=1e-2, batch_size=2, epochs=1, seed=0)
        train(model, feats, prov, hp, max_steps=1)
        after = model.parameters()
        assert any(not np.array_equal(before[n], after[n].data)
                   for n in before)

    def test_empty_features_rejected(self):
        model, _, prov = self._setup()
        hp = Hyperparams()
        with pytest.raises(ValueError, match="no features"):
            train(model, [], prov, hp)

    def test_loss_curve_bit_identical(self):
        hp = Hyperparams(learning_rate=1e-2, batch_size=2, epochs=3, seed=5)
        curves = []
        for _ in range(2):
            model, feats, prov = self._setup()
            model.cfg.dropout_rate = 0.1
            result = train(model, feats, prov, hp)
            curves.append(result.loss_curve)
        assert curves[0] == curves[1]

    def test_loss_decreases(self):
        # identical contexts need identical golds or the loss has a floor
        feats = [make_feature(qid=f"q{i}", start=2, end=3) for i in range(4)]
        model = build_model(small_cfg("squad_out"), seed=3)
        hp = Hyperparams(learning_rate=5e-2, batch_size=4, epochs=40, seed=1)
        result = train(model, feats, provider(), hp)
        assert result.final_loss() < result.loss_curve[0][1] * 0.2

    def test_memorize_one_example(self):
        feat = make_feature(qid="memo", start=1, end=2)
        prov = provider()
        model = build_model(small_cfg("squad_out"), seed=2)
        hp = Hyperparams(learning_rate=5e-2, batch_size=1, epochs=200, seed=0)
        result = train(model, [feat], prov, hp)
        assert result.final_loss() < 0.01
        ctx = {"memo": feature_context_text(6)}
        records, _ = predict(model, [feat], prov, ctx)
        top = records[0]["nbest"][0]
        assert (top["start_token"], top["end_token"]) == \
            (feat.start_position, feat.end_position)
        assert predictions_from_file(records)["memo"] == "x1 x2"

    def test_max_steps_truncates(self):
        model, feats, prov = self._setup()
        hp = Hyperparams(learning_rate=1e-2, batch_size=2, epochs=10, seed=0)
        result = train(model, feats, prov, hp, max_steps=3)
        assert len(result.loss_curve) == 3

    def test_nonfinite_embedding_reported(self):
        model, feats, prov = self._setup(n=1)
        bad = lambda f: np.full_like(prov(f), np.inf)
        hp = Hyperparams(learning_rate=1e-2, batch_size=1, epochs=1, seed=0)
        with pytest.raises(RuntimeError) as info:
            train(model, feats, bad, hp)
        # steps count from 1, as in the loss curve
        assert str(info.value) == (
            "non-finite loss at step 1 (qid='q0', feature_index=0): "
            "non-finite value produced in forward pass")

    def test_nonfinite_loss_from_finite_logits_names_feature(self):
        feat = make_feature(qid="q0")  # unanswerable: target is the null
        model = build_model(small_cfg("squad_out", d_model=4), seed=0)
        model.head.W.data[...] = 0.0
        model.head.W.data[0, :] = 1.0
        model.head.b.data[...] = 0.0

        def huge(f):
            # logits +-1.5e308 are finite; their log-softmax overflows
            x = np.zeros((len(f.tokens), 4))
            x[:, 0] = 1.5e308
            x[0, 0] = -1.5e308
            return x

        hp = Hyperparams(batch_size=1, epochs=1, seed=0)
        with pytest.raises(RuntimeError) as info:
            train(model, [feat], huge, hp)
        assert str(info.value).startswith(
            "non-finite loss at step 1 (qid='q0', feature_index=0): "
            "non-finite value produced in forward pass by "
            "cross_entropy_from_logits")

    @pytest.mark.parametrize("tag", ["squad_out", *ARCHITECTURES[2:]])
    def test_equals_one_backward_of_the_summed_batch(self, tag):
        feats = [make_feature(qid=f"q{i}", n_context=5 + i, start=i % 3,
                              end=i % 3 + 1) for i in range(6)]
        hp = Hyperparams(learning_rate=1e-2, batch_size=3, epochs=1, seed=4)
        models, curves = [], []
        for run in (train, reference_train):
            model = build_model(small_cfg(tag), seed=8)
            model.cfg.dropout_rate = 0.1
            curves.append(run(model, feats, provider(), hp,
                              max_steps=2).loss_curve)
            models.append(model.parameters())
        assert len(curves[0]) == 2 and curves[0] == curves[1]
        for name, p in models[0].items():
            assert p.data.tobytes() == models[1][name].data.tobytes(), name

    def test_a_step_holds_one_features_graph(self):
        def peak(n):
            feats = [make_feature(qid=f"q{i}", n_context=58, start=i,
                                  end=i + 1) for i in range(n)]  # seq 64
            model = build_model(small_cfg("gru_attn_selfattn_gru_bidaf"),
                                seed=1)
            hp = Hyperparams(batch_size=n, epochs=1, seed=0)
            prov = provider()
            tracemalloc.start()
            try:
                train(model, feats, prov, hp, max_steps=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) <= 1.25 * peak(1)

    def test_loss_curve_file(self, tmp_path):
        model, feats, prov = self._setup()
        hp = Hyperparams(learning_rate=1e-2, batch_size=2, epochs=2, seed=0)
        result = train(model, feats, prov, hp)
        path = tmp_path / "loss.csv"
        write_loss_curve(path, result)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert len(lines) == len(result.loss_curve) + 1
        step, loss = lines[1].split(",")
        assert int(step) == 1 and float(loss) == result.loss_curve[0][1]


def reference_train(model, features, provider, hp, max_steps):
    """The oracle of train's steps in its first epoch: the batch's losses
    summed into one graph, and one backward of their mean."""
    params = model.parameters()
    state = AdamState()
    order_rng = Rng(hp.seed).spawn(101)
    drop_rng = Rng(hp.seed).spawn(102)
    result = training.TrainResult()
    order = order_rng.permutation(len(features))
    for step in range(1, max_steps + 1):
        lo = (step - 1) * hp.batch_size
        batch = [features[i] for i in order[lo: lo + hp.batch_size]]
        zero_grads(params)
        total = None
        for feat in batch:
            start, end = model.forward([feat], [provider(feat)],
                                       drop_rng=drop_rng)
            loss = span_loss(start, end, feat.start_position,
                             feat.end_position, feat.context_mask)
            total = loss if total is None else total + loss
        total = total * (1.0 / len(batch))
        total.backward()
        clip_global_norm(params, training.GRAD_CLIP_NORM)
        adam_step(params, state, hp.learning_rate)
        result.loss_curve.append((step, float(total.data)))
    return result


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        feats = [make_feature(qid=f"q{i}", start=1, end=2) for i in range(3)]
        prov = provider()
        model = build_model(small_cfg("gru_highway_gru_bidaf"), seed=4)
        hp = Hyperparams(learning_rate=1e-2, batch_size=2, epochs=1, seed=0)
        train(model, feats, prov, hp)
        path = tmp_path / "model.json"
        save_model(path, model, {"learning_rate": 1e-2})
        loaded = load_model(path)
        assert loaded.cfg == model.cfg
        orig, back = model.parameters(), loaded.parameters()
        for name in orig:
            assert np.array_equal(orig[name].data, back[name].data)
        ctx = {f.qid: feature_context_text(6) for f in feats}
        a, _ = predict(model, feats, prov, ctx)
        b, _ = predict(loaded, feats, prov, ctx)
        assert a == b

    def test_architecture_mismatch_detected(self, tmp_path):
        model = build_model(small_cfg("squad_out"), seed=0)
        path = tmp_path / "m.json"
        save_model(path, model)
        import json
        blob = json.loads(path.read_text())
        blob["hyperparams"]["model_config"]["architecture"] = \
            "highway_squad_out"
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="do not match"):
            load_model(path)


# -0.0, the smallest subnormal, +-inf and a NaN with a payload
SPECIAL_BITS = np.array([0x8000000000000000, 0x0000000000000001,
                         0x7FF0000000000000, 0xFFF0000000000000,
                         0x7FF80000DEADBEEF], dtype=np.uint64)


class TestCheckpointFormat:
    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_every_bit_round_trips(self, tag, tmp_path):
        model = build_model(small_cfg(tag), seed=3)
        params = model.parameters()
        for name in sorted(params)[:2]:
            flat = params[name].data.reshape(-1)
            n = min(flat.size, SPECIAL_BITS.size)
            flat[:n] = SPECIAL_BITS[:n].view(np.float64)
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path).parameters()
        assert set(back) == set(params)
        for name, p in params.items():
            assert back[name].data.dtype == np.float64
            assert back[name].data.shape == p.data.shape
            assert np.array_equal(back[name].data.view(np.uint64),
                                  p.data.view(np.uint64)), name

    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_reloaded_model_writes_identical_files(self, tag, tmp_path):
        feats = [make_feature(qid=f"q{i}", start=1, end=2) for i in range(3)]
        prov = provider()
        model = build_model(small_cfg(tag), seed=4)
        train(model, feats, prov,
              Hyperparams(learning_rate=1e-2, batch_size=2, epochs=1, seed=0))
        save_model(tmp_path / "model.json", model)
        loaded = load_model(tmp_path / "model.json")
        ctx = {f.qid: feature_context_text(6) for f in feats}
        blobs = []
        for m in (model, loaded):
            records, dumps = predict(m, feats, prov, ctx)
            write_predictions(tmp_path / "pred.jsonl", records)
            save_logits_dump(tmp_path / "logits.bin", dumps)
            blobs.append(((tmp_path / "pred.jsonl").read_bytes(),
                          (tmp_path / "logits.bin").read_bytes()))
        assert blobs[0] == blobs[1]


class TestPredict:
    def test_collect_logits_keys(self):
        feats = [make_feature(qid="q", feature_index=i, start=1, end=2)
                 for i in range(2)]
        prov = provider()
        model = build_model(small_cfg("squad_out"), seed=0)
        ctx = {"q": feature_context_text(6)}
        records, dumps = predict(model, feats, prov, ctx)
        assert set(dumps) == {("q", 0), ("q", 1)}
        assert len(records) == 1
        assert records[0]["qid"] == "q"

    def test_null_always_in_nbest(self):
        feat = make_feature(qid="q", start=1, end=2)
        prov = provider()
        model = build_model(small_cfg("squad_out"), seed=0)
        records, _ = predict(model, [feat], prov,
                             {"q": feature_context_text(6)})
        assert any(c["start_token"] is None for c in records[0]["nbest"])

    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_records_are_the_shared_decode_of_the_logit_map(self, tag):
        """predict decodes through the one path the ensembles use."""
        assert ensemble.decode_logit_set is training.decode_logit_set
        feats = [make_feature(qid=qid, feature_index=i, start=1, end=2)
                 for qid in ("qb", "qa") for i in (1, 0)]
        ctx = {qid: feature_context_text(6) for qid in ("qa", "qb")}
        model = build_model(small_cfg(tag), seed=2)
        limits = {"n_best": 4, "max_answer_length": 3}
        records, logit_sets = predict(model, feats, provider(), ctx,
                                      model_f1_weight=61.5, **limits)
        assert set(logit_sets) == {(q, i) for q in ("qa", "qb")
                                   for i in (0, 1)}
        by_key = {(f.qid, f.feature_index): f for f in feats}
        assert records == ensemble.decode_logit_set(
            logit_sets, by_key, ctx, model_f1_weight=61.5, **limits)
        assert [r["qid"] for r in records] == ["qa", "qb"]


def question_chunks(qid="q", n_contexts=(9, 4, 13, 6)):
    """One question's chunks, of unequal lengths."""
    return [make_feature(qid=qid, feature_index=i, n_context=n, start=1,
                         end=2) for i, n in enumerate(n_contexts)]


def _rel_err(got, want):
    return float(np.abs(got - want).max()) / float(np.abs(want).max())


class TestPackedForward:
    """A question's chunks as one batch in QaModel.forward, against one
    forward per chunk: within 1e-12, values and gradients."""

    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_logits_match_one_chunk_forwards(self, tag):
        feats = question_chunks()
        embs = [provider()(f) for f in feats]
        model = build_model(small_cfg(tag), seed=5)
        packed = model.forward(feats, embs)
        one = [model.forward([f], [e]) for f, e in zip(feats, embs)]
        for side, got in enumerate(packed):
            want = np.concatenate([pair[side].data for pair in one])
            assert got.shape == want.shape
            assert float(np.abs(got.data - want).max()) <= 1e-12

    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_gradients_match_one_chunk_forwards(self, tag):
        feats = question_chunks(n_contexts=(7, 3, 10))
        embs = [provider()(f) for f in feats]
        model = build_model(small_cfg(tag), seed=6)
        params = model.parameters()
        n = sum(len(f.tokens) for f in feats)
        weights = np.random.default_rng(0).normal(size=(2, n))

        def grads(forward_all):
            for p in params.values():
                p.zero_grad()
            loss = None
            offset = 0
            for start, end in forward_all():
                rows = slice(offset, offset + start.shape[0])
                offset += start.shape[0]
                term = ((start * weights[0, rows]).sum()
                        + (end * weights[1, rows]).sum())
                loss = term if loss is None else loss + term
            loss.backward()
            return {k: p.grad.copy() for k, p in params.items()}

        got = grads(lambda: [model.forward(feats, embs)])
        want = grads(lambda: [model.forward([f], [e])
                              for f, e in zip(feats, embs)])
        for name in params:
            assert _rel_err(got[name], want[name]) <= 1e-12, name

    def test_embedding_rows_must_match_tokens(self):
        feats = question_chunks(n_contexts=(5, 6))
        embs = [provider()(f) for f in feats]
        model = build_model(small_cfg("squad_out"), seed=0)
        # same total rows, shifted between the chunks
        shifted = [embs[0][:-1], np.concatenate([embs[1], embs[1][:1]])]
        with pytest.raises(ValueError, match="token counts"):
            model.forward(feats, shifted)


class TestPredictPerQuestion:
    def test_one_forward_per_question(self):
        feats = question_chunks("qa") + question_chunks("qb", (3, 8))
        model = build_model(small_cfg("gru_highway_gru_bidaf"), seed=0)
        calls = []

        def forward(features, embeddings, **kwargs):
            calls.append([(f.qid, f.feature_index) for f in features])
            return QaModel.forward(model, features, embeddings, **kwargs)

        model.forward = forward
        ctx = {q: feature_context_text(13) for q in ("qa", "qb")}
        predict(model, feats[::-1], provider(), ctx)
        assert calls == [[("qa", i) for i in range(4)],
                         [("qb", 0), ("qb", 1)]]

    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_logit_map_matches_one_chunk_forwards(self, tag):
        feats = question_chunks()
        prov = provider()
        model = build_model(small_cfg(tag), seed=3)
        _, logit_sets = predict(model, feats, prov,
                                {"q": feature_context_text(13)})
        for f in feats:
            start, end = model.forward([f], [prov(f)])
            got = logit_sets[("q", f.feature_index)]
            assert got.start_logits.shape == start.shape
            assert float(np.abs(got.start_logits - start.data).max()) <= 1e-12
            assert float(np.abs(got.end_logits - end.data).max()) <= 1e-12

    def test_nonfinite_embedding_names_its_chunk(self):
        feats = question_chunks(n_contexts=(5, 7, 6))
        prov = provider()

        def poisoned(f):
            emb = prov(f).copy()
            if f.feature_index == 1:
                emb[3, 2] = np.nan
            return emb

        model = build_model(small_cfg("gru_attn_selfattn_gru_bidaf"), seed=0)
        with pytest.raises(RuntimeError) as info:
            predict(model, feats, poisoned, {"q": feature_context_text(7)})
        assert "qid='q', feature_index=1" in str(info.value)

    def test_failing_lone_chunk_runs_one_forward(self):
        feat = make_feature(qid="q", start=1, end=2)
        model = build_model(small_cfg("squad_out"), seed=0)
        calls = []

        def forward(features, embeddings, **kwargs):
            calls.append(features)
            return QaModel.forward(model, features, embeddings, **kwargs)

        model.forward = forward
        bad = lambda f: np.full((len(f.tokens), 32), np.nan)
        with pytest.raises(RuntimeError, match="qid='q', feature_index=0"):
            predict(model, [feat], bad, {"q": feature_context_text(6)})
        assert len(calls) == 1

    def test_failure_no_chunk_repeats_alone_names_the_question(self):
        feats = question_chunks(n_contexts=(5, 7, 6))
        model = build_model(small_cfg("squad_out"), seed=0)
        calls = []

        def forward(features, embeddings, **kwargs):
            calls.append(features)
            if len(calls) == 1:  # the packed forward fails, no chunk alone
                raise FloatingPointError("packed only")
            return QaModel.forward(model, features, embeddings, **kwargs)

        model.forward = forward
        with pytest.raises(RuntimeError) as info:
            predict(model, feats, provider(), {"q": feature_context_text(7)})
        assert str(info.value) == "predict (qid='q'): packed only"
        assert len(calls) == 4

    def test_overflow_in_one_chunk_names_it_and_the_op(self):
        feats = question_chunks(n_contexts=(5, 7, 6))
        model = build_model(small_cfg("squad_out"), seed=0)
        model.head.W.data[...] = 1e200

        def huge_middle(f):
            return np.full((len(f.tokens), 32),
                           1e200 if f.feature_index == 1 else 1.0)

        with pytest.raises(RuntimeError) as info:
            predict(model, feats, huge_middle, {"q": feature_context_text(7)})
        msg = str(info.value)
        assert "qid='q', feature_index=1" in msg
        assert "non-finite value produced in forward pass by matmul" in msg


class TestInferenceWithoutGraph:
    @pytest.mark.parametrize("tag", ARCHITECTURES)
    def test_no_grad_logits_equal_recorded(self, tag):
        feat = make_feature(start=2, end=3)
        emb = provider()(feat)
        model = build_model(small_cfg(tag), seed=4)
        recorded = model.forward([feat], [emb])
        with no_grad():
            free = model.forward([feat], [emb])
        for r, f in zip(recorded, free):
            assert r._backward is not None and f._backward is None
            assert f._parents == () and f.grad is None
            assert np.array_equal(r.data, f.data)
            assert r.data.tobytes() == f.data.tobytes()

    def test_predict_records_no_graph(self):
        feat = make_feature(qid="q", start=1, end=2)
        model = build_model(small_cfg("gru_highway_gru_bidaf"), seed=0)
        outputs = []

        def forward(*args, **kwargs):
            outputs.extend(QaModel.forward(model, *args, **kwargs))
            return outputs[-2:]

        model.forward = forward
        predict(model, [feat], provider(), {"q": feature_context_text(6)})
        assert len(outputs) == 2
        assert all(t._backward is None and t._parents == ()
                   for t in outputs)

    def test_overflow_names_feature_and_op(self):
        feat = make_feature(qid="qx", feature_index=1, start=1, end=2)
        model = build_model(small_cfg("squad_out"), seed=0)
        model.head.W.data[...] = 1e200
        huge = lambda f: np.full((len(f.tokens), 32), 1e200)
        with pytest.raises(RuntimeError) as info:
            predict(model, [feat], huge, {"qx": feature_context_text(6)})
        msg = str(info.value)
        assert "qid='qx', feature_index=1" in msg
        assert "non-finite value produced in forward pass by matmul" in msg

    def test_train_after_failed_predict_records_gradients(self):
        feat = make_feature(qid="qx", start=1, end=2)
        model = build_model(small_cfg("squad_out"), seed=0)
        bad = lambda f: np.full((len(f.tokens), 32), np.inf)
        with pytest.raises(RuntimeError, match="qx"):
            predict(model, [feat], bad, {"qx": feature_context_text(6)})
        hp = Hyperparams(learning_rate=1e-2, batch_size=1, epochs=1, seed=0)
        train(model, [feat], provider(), hp, max_steps=1)
        for name, p in model.parameters().items():
            assert p.grad is not None and np.any(p.grad != 0), name
