"""End-to-end acceptance checks for the toolkit.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
on success; failures always surface the line).
"""

import string
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from conftest import feature_context_text, make_feature
from squadlab.autograd import Rng, Tensor, softmax
from squadlab.cli import main as cli_main
from squadlab.data import (PreprocessConfig, RawExample,
                           align_answer_to_tokens, chunk_context,
                           preprocess_dataset, span_to_text, toy_tokenize)
from squadlab.embeddings import PseudoEmbedder
from squadlab.ensemble import (NULL_KEY, PredictionSet, decode_logit_set,
                               mean_logits, weighted_voting,
                               weighted_voting_with_mean_logits)
from squadlab.gradcheck import check_gradients
from squadlab.heads import (MASK_FILL, NULL_POSITION, AlbertSquadOut,
                            AnswerCandidate, BidafOut, SpanLogits, decode_spans,
                            span_loss)
from squadlab.layers import (CharCNN, GRUCell, Highway, LSTMCell,
                             WeightedAvgAttention, dot_product_attention,
                             gru_forward, lstm_forward)
from squadlab.scoring import (compute_em, compute_f1, evaluate,
                              predictions_from_file)
from squadlab.selftest import (JAY_TOKENS, OBAMA_CONTEXT, OBAMA_SPANS,
                               OBAMA_VOCAB, jay_context)
from squadlab.synth import (make_synthetic_examples, question_tokens,
                            word_tokenize, write_squad_json)
from squadlab.training import (ARCHITECTURES, Hyperparams, ModelConfig,
                               build_model, predict, train)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL  {desc}")
        raise
    print(f"criterion {num:2d}: PASS  {desc}")


def test_criterion_01_token_alignment_golden():
    with criterion(1, "token-span table and span decode golden"):
        started = time.monotonic()
        ctx = toy_tokenize(OBAMA_CONTEXT, OBAMA_VOCAB)
        assert ctx.tokens == ["O", "ba", "ma", "was", "born", "in",
                              "Au", "gust."]
        assert ctx.token_word_span == OBAMA_SPANS
        assert align_answer_to_tokens(ctx, (18, 24)) == (6, 7)
        assert span_to_text(ctx, 6, 6, OBAMA_CONTEXT) == "August"
        assert time.monotonic() - started < 1.0


def test_criterion_02_chunking_golden():
    with criterion(2, "over-long context chunks; answer only in first chunk"):
        started = time.monotonic()
        text, jay = jay_context()
        example = RawExample(qid="jay", question="How old is Jay?",
                             context=text,
                             answers=[("12", text.index("12"))],
                             is_impossible=False)
        cfg = PreprocessConfig(max_seq_length=12, doc_stride=2)
        feats = chunk_context(example, jay, cfg,
                              ["How", "old", "is", "Jay?"])
        assert len(feats) >= 2
        first = feats[0]
        assert first.tokens[first.start_position] == "_12"
        assert first.start_position == first.end_position
        assert span_to_text(jay, 2, 2, text) == "12"
        for later in feats[1:]:
            assert later.start_position == NULL_POSITION
            assert later.end_position == NULL_POSITION
        assert time.monotonic() - started < 1.0


def test_criterion_03_scoring_golden():
    with criterion(3, "F1 0.6667, EM 0 then 1, corpus EM exactly 50.0"):
        assert abs(compute_f1("Einstein", ["Albert Einstein"]) - 0.6667) \
            < 1e-4
        assert compute_em("Einstein", ["Albert Einstein"]) == 0
        assert compute_em("Albert Einstein", ["Albert Einstein"]) == 1
        ctx = "Albert Einstein developed relativity."
        examples = [
            RawExample(qid="t3-0", question="who?", context=ctx,
                       answers=[("Albert Einstein", 0)], is_impossible=False),
            RawExample(qid="t3-1", question="who?", context=ctx,
                       answers=[("Albert Einstein", 0)], is_impossible=False),
        ]
        report = evaluate({"t3-0": "Einstein", "t3-1": "Albert Einstein"},
                          examples)
        assert report.em == 50.0


def test_criterion_04_gradient_suite():
    with criterion(4, "finite-difference checks, all layers and both heads"):
        started = time.monotonic()
        feat = make_feature(n_question=2, n_context=4, start=1, end=2)
        seq = len(feat.tokens)

        for seed in range(5):
            rng = Rng(seed)
            x = Tensor(rng.normal((5, 4)), requires_grad=True)

            hw = Highway(4, rng.spawn(1))
            check_gradients(lambda: hw.forward(x).sum(), hw.parameters())

            lstm = LSTMCell(4, 3, rng.spawn(2))
            gru = GRUCell(4, 3, rng.spawn(3))
            for reverse in (False, True):
                check_gradients(lambda: lstm_forward(lstm, x, reverse).sum(),
                                {"x": x, **lstm.parameters()})
                check_gradients(lambda: gru_forward(gru, x, reverse).sum(),
                                {"x": x, **gru.parameters()})

            att_in = Tensor(rng.normal((5, 4)), requires_grad=True)
            check_gradients(
                lambda: dot_product_attention(att_in, causal=True).sum(),
                {"x": att_in})

            wavg = WeightedAvgAttention(4, rng.spawn(4))
            check_gradients(lambda: wavg.forward(x).sum(),
                            wavg.parameters())

            cnn = CharCNN(3, 4, rng.spawn(5))
            windows = rng.normal((4, 3 * 3))
            check_gradients(lambda: cnn.forward(windows).sum(),
                            cnn.parameters())

            # full stacks, at the looser multi-layer tolerance
            emb = rng.normal((seq, 4))
            lin_head = AlbertSquadOut(4, rng.spawn(6))
            hw2 = Highway(4, rng.spawn(7))

            def linear_stack():
                h = hw2.forward(Tensor(emb))
                s, e = lin_head.forward(h, feat.context_mask)
                return span_loss(s, e, feat.start_position,
                                 feat.end_position, feat.context_mask)

            stack_params = dict(lin_head.parameters())
            stack_params.update({f"hw.{n}": p
                                 for n, p in hw2.parameters().items()})
            check_gradients(linear_stack, stack_params, rtol=1e-4)

            bidaf = BidafOut(4, 4, 3, rng.spawn(8))

            def bidaf_stack():
                att = dot_product_attention(Tensor(emb))
                s, e = bidaf.forward(att, att, feat.context_mask)
                return span_loss(s, e, feat.start_position,
                                 feat.end_position, feat.context_mask)

            check_gradients(bidaf_stack, bidaf.parameters(), rtol=1e-4)

        assert time.monotonic() - started < 60.0


def test_criterion_05_masking_suite():
    with criterion(5, "1,000 random-logit features respect the context mask"):
        npr = np.random.default_rng(55)
        for _ in range(1000):
            nq = int(npr.integers(1, 5))
            nc = int(npr.integers(2, 9))
            feat = make_feature(n_question=nq, n_context=nc)
            seq = len(feat.tokens)
            raw_s = npr.normal(0, 3, seq)
            raw_e = npr.normal(0, 3, seq)
            cm = np.asarray(feat.context_mask, dtype=bool)
            blocked = ~cm
            blocked[NULL_POSITION] = False
            sl = np.where(blocked, MASK_FILL, raw_s)
            el = np.where(blocked, MASK_FILL, raw_e)
            probs = softmax(Tensor(sl.reshape(1, -1)), axis=1).data[0]
            assert (probs[blocked] < 1e-9).all()
            logits = SpanLogits(qid=feat.qid, feature_index=0,
                                start_logits=sl, end_logits=el)
            cands = decode_spans(logits, feat, feature_context_text(nc))
            ctx_idx = set(feat.context_token_indices())
            for c in cands:
                if not c.is_null:
                    assert c.start_token in ctx_idx
                    assert c.end_token in ctx_idx


def test_criterion_06_decode_oracle():
    with criterion(6, "decode matches brute-force span enumeration, 1,000x"):
        npr = np.random.default_rng(66)
        for _ in range(1000):
            nq = int(npr.integers(1, 4))
            nc = int(npr.integers(1, 13 - nq - 3 + 1))
            feat = make_feature(n_question=nq, n_context=nc)
            seq = len(feat.tokens)
            assert seq <= 12 + 3
            sl = npr.normal(0, 2, seq)
            el = npr.normal(0, 2, seq)
            n_best = int(npr.integers(2, 8))
            max_len = int(npr.integers(1, 6))
            logits = SpanLogits(qid=feat.qid, feature_index=0,
                                start_logits=sl, end_logits=el)
            got = decode_spans(logits, feat, feature_context_text(nc),
                               n_best=n_best, max_answer_length=max_len)

            # brute force: every legal pair, ranked independently
            ctx = feat.context_token_indices()
            pairs = [(float(sl[s] + el[e]), s, e)
                     for s in ctx for e in ctx
                     if s <= e and e - s < max_len]
            pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
            null_score = float(sl[NULL_POSITION] + el[NULL_POSITION])
            expect = [(sc, s, e) for sc, s, e in pairs[: n_best - 1]]
            expect.append((null_score, None, None))
            expect.sort(key=lambda t: (-t[0], t[1] is None,
                                       t[1] or 0, t[2] or 0))
            assert [(c.score, c.start_token, c.end_token) for c in got] \
                == expect


def _vote_rec(qid, start, end, score, fi=0):
    return {"qid": qid, "null_score": -50.0, "nbest": [
        {"text": f"w{start}", "start_token": start, "end_token": end,
         "feature_index": fi, "score": score}]}


def _null_rec(qid, null_score=10.0):
    return {"qid": qid, "null_score": null_score, "nbest": [
        {"text": "", "start_token": None, "end_token": None,
         "feature_index": 0, "score": null_score}]}


def test_criterion_07_ensemble_oracles():
    with criterion(7, "voting tally oracle, identical-dump identity, "
                      "fifth-voter tiebreak"):
        # brute-force tally on randomized elections
        rng = Rng(77)
        choices = [NULL_KEY, (0, 2, 3), (0, 2, 4), (1, 2, 3), (0, 5, 6)]
        for _ in range(1000):
            n_models = 3 + int(rng.uniform(0, 3))
            sets, votes = [], []
            for m in range(n_models):
                key = choices[int(rng.uniform(0, len(choices)))]
                w = round(rng.uniform(0.1, 1.0), 2)
                rec = _null_rec("q") if key == NULL_KEY else \
                    _vote_rec("q", key[1], key[2], 1.0, fi=key[0])
                sets.append(PredictionSet.from_records(f"m{m}", [rec],
                                                       weight=w))
                votes.append((key, w))

            def quality(key):
                total = sum(w for k, w in votes if k == key)
                biggest = max(w for k, w in votes if k == key)
                if key == NULL_KEY:
                    return (total, biggest, 0, 0, 0)
                return (total, biggest, 1, -key[1], -key[2])

            cast = {k for k, _ in votes}
            best_q = max(quality(k) for k in cast)
            winners = {k for k in cast if quality(k) == best_q}
            top = weighted_voting(sets)[0]["nbest"][0]
            if top["start_token"] is None:
                assert NULL_KEY in winners
            else:
                assert (top["feature_index"], top["start_token"],
                        top["end_token"]) in winners

        # mean of k identical dumps reproduces the single model exactly
        feat = make_feature(qid="q")
        seq = len(feat.tokens)
        npr = np.random.default_rng(7)
        dump = {("q", 0): SpanLogits(qid="q", feature_index=0,
                                     start_logits=npr.normal(0, 1, seq),
                                     end_logits=npr.normal(0, 1, seq))}
        fmap = {("q", 0): feat}
        cmap = {"q": feature_context_text(6)}
        single = predictions_from_file(decode_logit_set(dump, fmap, cmap))
        for k in (2, 3, 5):
            merged = decode_logit_set(mean_logits([dump] * k), fmap, cmap)
            assert predictions_from_file(merged) == single

        # 2-2 split resolved by the mean-logits fifth voter
        sets = [
            PredictionSet.from_records("a", [_vote_rec("q", 6, 7, 1.0)], 1.0),
            PredictionSet.from_records("b", [_vote_rec("q", 6, 7, 1.0)], 1.0),
            PredictionSet.from_records("c", [_vote_rec("q", 9, 10, 1.0)], 1.0),
            PredictionSet.from_records("d", [_vote_rec("q", 9, 10, 1.0)], 1.0),
        ]

        def peaked(s, e):
            start = np.full(seq, -4.0)
            end = np.full(seq, -4.0)
            start[s] += 9.0
            end[e] += 9.0
            return {("q", 0): SpanLogits(qid="q", feature_index=0,
                                         start_logits=start,
                                         end_logits=end)}

        records = weighted_voting_with_mean_logits(
            sets, [peaked(9, 10), peaked(9, 10)], mean_weight=1.0,
            features_by_key=fmap, context_by_qid=cmap)
        top = records[0]["nbest"][0]
        assert (top["start_token"], top["end_token"]) == (9, 10)


def test_criterion_08_overfit_every_architecture():
    with criterion(8, "each architecture reaches 95% EM on its own "
                      "50-example training set"):
        examples = make_synthetic_examples(n=50, seed=0)
        ctx_map = {ex.qid: word_tokenize(ex.context) for ex in examples}
        cfg = PreprocessConfig(max_seq_length=32, doc_stride=4)
        features = preprocess_dataset(examples, ctx_map, cfg, question_tokens)
        embedder = PseudoEmbedder(64, 0)
        provider = lambda f: embedder.embed(f).matrix
        context_by_qid = {ex.qid: ex.context for ex in examples}

        for tag in ARCHITECTURES:
            model = build_model(
                ModelConfig(architecture=tag, d_model=64, dropout_rate=0.0),
                seed=1)
            lr = 0.01 if tag.endswith("bidaf") else 0.02
            started = time.monotonic()
            best_em = 0.0
            epochs = 0
            while epochs < 300 and time.monotonic() - started < 300:
                hp = Hyperparams(learning_rate=lr, batch_size=8, epochs=10,
                                 seed=epochs)
                train(model, features, provider, hp)
                epochs += 10
                records, _ = predict(model, features, provider,
                                     context_by_qid)
                report = evaluate(predictions_from_file(records), examples)
                best_em = max(best_em, report.em)
                if best_em >= 95.0:
                    break
            assert best_em >= 95.0, (
                f"{tag}: best training EM {best_em:.1f} after {epochs} "
                f"epochs / {time.monotonic() - started:.0f}s"
            )


def test_criterion_09_pipeline_determinism(tmp_path):
    with criterion(9, "fixed-seed pipeline reruns are byte-identical"):
        corpus = tmp_path / "data.json"
        write_squad_json(corpus, make_synthetic_examples(n=10, seed=4))
        outputs = []
        for run in ("a", "b"):
            d = tmp_path / run
            d.mkdir()
            feats = d / "feats.jsonl"
            emb = d / "emb.bin"
            ckpt = d / "model.json"
            pred = d / "pred.jsonl"
            report = d / "report.json"
            assert cli_main(["preprocess", "--data", str(corpus),
                             "--out", str(feats), "--max-seq-length", "32",
                             "--doc-stride", "4"]) == 0
            assert cli_main(["pseudo-embed", "--features", str(feats),
                             "--out", str(emb), "--d-model", "32",
                             "--seed", "9"]) == 0
            assert cli_main(["train", "--features", str(feats),
                             "--embeddings", str(emb), "--arch", "squad_out",
                             "--out", str(ckpt), "--d-model", "32",
                             "--epochs", "2", "--max-seq-length", "32",
                             "--doc-stride", "4", "--dropout-rate", "0.1",
                             "--seed", "9"]) == 0
            assert cli_main(["predict", "--checkpoint", str(ckpt),
                             "--features", str(feats), "--embeddings",
                             str(emb), "--data", str(corpus), "--out",
                             str(pred), "--seed", "9"]) == 0
            assert cli_main(["evaluate", "--pred", str(pred), "--gold",
                             str(corpus), "--out", str(report)]) == 0
            outputs.append(tuple(p.read_bytes()
                                 for p in (feats, emb, ckpt, pred, report)))
        assert outputs[0] == outputs[1]


def test_criterion_10_scorer_oracle():
    with criterion(10, "EM/F1 matches an independent multiset scorer, "
                       "10,000 pairs"):
        words = ["the", "albert", "einstein", "cat", "a", "dog", "ran",
                 "fast", "An", "House."]
        rng = Rng(100)

        def phrase():
            n = int(rng.uniform(0, 5))
            return " ".join(words[int(rng.uniform(0, len(words)))]
                            for _ in range(n))

        def oracle_f1(pred, gold):
            def norm(s):
                s = s.lower()
                s = "".join(c for c in s if c not in string.punctuation)
                return [t for t in s.split() if t not in ("a", "an", "the")]

            p, g = norm(pred), norm(gold)
            if not p or not g:
                return 1.0 if p == g else 0.0
            same = sum((Counter(p) & Counter(g)).values())
            if same == 0:
                return 0.0
            prec, rec = same / len(p), same / len(g)
            return 2 * prec * rec / (prec + rec)

        def oracle_em(pred, gold):
            def norm(s):
                s = s.lower()
                s = "".join(c for c in s if c not in string.punctuation)
                return " ".join(t for t in s.split()
                                if t not in ("a", "an", "the"))

            return 1.0 if norm(pred) == norm(gold) else 0.0

        for _ in range(10000):
            pred, gold = phrase(), phrase()
            assert abs(compute_f1(pred, [gold]) - oracle_f1(pred, gold)) \
                < 1e-12
            assert abs(compute_em(pred, [gold]) - oracle_em(pred, gold)) \
                < 1e-12
