import dataclasses
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from conftest import feature_context_text, make_feature
from squadlab.autograd import MASK_FILL, Rng, Tensor
from squadlab.data import NULL_POSITION, PreprocessConfig, preprocess_dataset
from squadlab.gradcheck import check_gradients
from squadlab.scoring import predictions_from_file
from squadlab.ensemble import NULL_KEY, PredictionSet
from squadlab.heads import (DECODE_BLOCK, DEFAULT_MAX_ANSWER_LENGTH,
                            DEFAULT_N_BEST, AlbertSquadOut, AnswerCandidate,
                            BidafOut, SpanLogits, aggregate_features,
                            best_answer, decode_spans, prediction_record,
                            read_predictions, span_loss, to_span_logits,
                            top_k, write_predictions)
from squadlab.synth import (make_synthetic_examples, question_tokens,
                            word_tokenize)


def random_logits(feature, rng, scale=5.0):
    n = len(feature.tokens)
    return SpanLogits(
        qid=feature.qid, feature_index=feature.feature_index,
        start_logits=rng.normal(n) * scale,
        end_logits=rng.normal(n) * scale,
    )


def brute_force_decode(logits, feature, context_text, n_best,
                       max_answer_length):
    """Independent enumeration of every legal pair, sorted by the
    documented ordering, null forced into the top list."""
    from squadlab.data import span_to_text, TokenizedContext
    sl, el = logits.start_logits, logits.end_logits
    ctx = [i for i, m in enumerate(feature.context_mask) if m]
    cands = []
    for s in ctx:
        for e in ctx:
            if s <= e and e - s < max_answer_length:
                text = context_text[feature.token_word_span[s][0]:
                                    feature.token_word_span[e][1]]
                cands.append(AnswerCandidate(
                    feature.qid, text, s, e, float(sl[s] + el[e]),
                    feature.feature_index))
    null = AnswerCandidate(feature.qid, "", None, None,
                           float(sl[0] + el[0]), feature.feature_index)
    ordered = sorted(cands + [null], key=AnswerCandidate.sort_key)
    top = ordered[:n_best]
    if not any(c.is_null for c in top):
        top = top[:-1] + [null] if len(top) == n_best else top + [null]
    return top


def reference_decode_spans(logits, feature, context_text,
                           n_best=DEFAULT_N_BEST,
                           max_answer_length=DEFAULT_MAX_ANSWER_LENGTH):
    """The per-pair loop that ``decode_spans`` replaced: one candidate per
    legal pair, sorted with ``sort_key``, top ``n_best - 1`` plus null."""
    sl, el = logits.start_logits, logits.end_logits
    ctx = feature.context_token_indices()
    candidates = []
    for si, s in enumerate(ctx):
        for e in ctx[si:]:
            if e - s >= max_answer_length:
                break
            text = context_text[feature.token_word_span[s][0]:
                                feature.token_word_span[e][1]]
            candidates.append(AnswerCandidate(
                qid=feature.qid, text=text, start_token=s, end_token=e,
                score=float(sl[s] + el[e]), feature_index=feature.feature_index,
            ))
    null = AnswerCandidate(
        qid=feature.qid, text="", start_token=None, end_token=None,
        score=float(sl[0] + el[0]), feature_index=feature.feature_index,
    )
    candidates.sort(key=AnswerCandidate.sort_key)
    top = candidates[: n_best - 1] if len(candidates) >= n_best else candidates
    out = top + [null]
    out.sort(key=AnswerCandidate.sort_key)
    return out


class TestAlbertSquadOut:
    def test_zero_weights_zero_live_logits(self):
        head = AlbertSquadOut(4, Rng(0))
        head.W.data[...] = 0.0
        head.b.data[...] = 0.0
        f = make_feature(n_context=3)
        start, end = head.forward(Tensor(np.ones((len(f.tokens), 4))),
                                  f.context_mask)
        cm = np.array(f.context_mask)
        for logits in (start.data, end.data):
            assert (logits[cm] == 0.0).all()
            assert logits[0] == 0.0  # null position stays live
            assert (logits[~cm][1:] == MASK_FILL).all()

    def test_only_index_zero_exempt_from_mask(self):
        head = AlbertSquadOut(2, Rng(0))
        mask = [False, True, True]
        start, end = head.forward(Tensor(Rng(1).normal((3, 2))), mask)
        assert start.data[0] != MASK_FILL
        assert end.data[0] != MASK_FILL

    def test_width_mismatch(self):
        head = AlbertSquadOut(4, Rng(0))
        with pytest.raises(ValueError, match="width"):
            head.forward(Tensor(np.ones((3, 5))), [False, True, True])

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_through_head_and_loss(self, seed):
        head = AlbertSquadOut(3, Rng(seed))
        f = make_feature(n_context=4, start=1, end=2)
        x = Tensor(Rng(seed + 5).normal((len(f.tokens), 3)))

        def loss():
            s, e = head.forward(x, f.context_mask)
            return span_loss(s, e, f.start_position, f.end_position,
                             f.context_mask)

        check_gradients(loss, head.parameters(), rtol=1e-6)


class TestBidafOut:
    def test_zeroed_decoder_branch_ignores_decoder(self):
        head = BidafOut(4, 3, 2, Rng(0))
        head.w2.data[...] = 0.0
        head.w4.data[...] = 0.0
        f = make_feature(n_context=3)
        n = len(f.tokens)
        att = Tensor(Rng(1).normal((n, 4)))
        s1, e1 = head.forward(att, Tensor(Rng(2).normal((n, 3))),
                              f.context_mask)
        s2, e2 = head.forward(att, Tensor(Rng(3).normal((n, 3))),
                              f.context_mask)
        assert np.array_equal(s1.data, s2.data)
        assert np.array_equal(e1.data, e2.data)

    def test_single_context_token_decodes_to_it_or_null(self):
        head = BidafOut(3, 3, 2, Rng(0))
        f = make_feature(n_context=1)
        n = len(f.tokens)
        s, e = head.forward(Tensor(Rng(1).normal((n, 3))),
                            Tensor(Rng(2).normal((n, 3))), f.context_mask)
        logits = to_span_logits(f, s, e)
        cands = decode_spans(logits, f, feature_context_text(1))
        for c in cands:
            assert c.is_null or (c.start_token == c.end_token == 5)

    @pytest.mark.parametrize("att, dec", [(5, 3), (4, 2)])
    def test_width_mismatch(self, att, dec):
        head = BidafOut(4, 3, 2, Rng(0))
        with pytest.raises(ValueError) as e:
            head.forward(Tensor(np.ones((3, att))), Tensor(np.ones((3, dec))),
                         [False, True, True])
        assert str(e.value) == (f"bidaf head widths (4, 3), inputs "
                                f"({att}, {dec})")

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_over_all_parameters(self, seed):
        head = BidafOut(3, 3, 2, Rng(seed))
        f = make_feature(n_context=3, start=0, end=1)
        n = len(f.tokens)
        att = Tensor(Rng(seed + 1).normal((n, 3)))
        dec = Tensor(Rng(seed + 2).normal((n, 3)))

        def loss():
            s, e = head.forward(att, dec, f.context_mask)
            return span_loss(s, e, f.start_position, f.end_position,
                             f.context_mask)

        check_gradients(loss, head.parameters(), rtol=1e-5)


HEAD_CALLS = {
    "squad-out": lambda x, mask, lengths: AlbertSquadOut(3, Rng(0)).forward(
        x, mask, lengths),
    "bidaf": lambda x, mask, lengths: BidafOut(3, 3, 2, Rng(0)).forward(
        x, x, mask, lengths),
}


@pytest.mark.parametrize("head", HEAD_CALLS)
@pytest.mark.parametrize("lengths, why", [
    ([4, 4], "do not add up to 10 rows"),
    ([10, 0], "include an empty chunk")], ids=["short", "empty-chunk"])
def test_span_heads_reject_lengths_that_miss_rows(head, lengths, why):
    x = Tensor(Rng(1).normal((10, 3)))
    mask = [False] + [True] * 9
    with pytest.raises(ValueError) as info:
        HEAD_CALLS[head](x, mask, lengths)
    assert str(info.value).endswith(f": chunk lengths {lengths} {why}")


class TestSpanLoss:
    def test_uniform_over_live_positions(self):
        f = make_feature(n_context=4, start=1, end=1)
        n = len(f.tokens)
        cm = np.array(f.context_mask)
        data = np.full(n, MASK_FILL)
        data[cm] = 0.0
        data[0] = 0.0
        k = int(cm.sum()) + 1  # live context positions plus null
        loss = span_loss(Tensor(data), Tensor(data.copy()),
                         f.start_position, f.end_position, f.context_mask)
        assert abs(float(loss.data) - math.log(k)) < 1e-9

    def test_dominant_gold_near_zero(self):
        f = make_feature(n_context=4, start=2, end=3)
        n = len(f.tokens)
        cm = np.array(f.context_mask)
        start = np.where(cm, 0.0, MASK_FILL)
        end = start.copy()
        start[0] = end[0] = 0.0
        start[f.start_position] = 20.0
        end[f.end_position] = 20.0
        loss = span_loss(Tensor(start), Tensor(end), f.start_position,
                         f.end_position, f.context_mask)
        assert float(loss.data) < 1e-8

    def test_nonnegative(self):
        rng = Rng(0)
        f = make_feature(n_context=5, start=1, end=3)
        for _ in range(50):
            n = len(f.tokens)
            loss = span_loss(Tensor(rng.normal(n)), Tensor(rng.normal(n)),
                             f.start_position, f.end_position,
                             f.context_mask)
            assert float(loss.data) >= 0.0

    def test_gold_at_masked_position_rejected(self):
        f = make_feature(n_context=4)
        n = len(f.tokens)
        with pytest.raises(ValueError, match="masked"):
            span_loss(Tensor(np.zeros(n)), Tensor(np.zeros(n)), 1, 1,
                      f.context_mask)


class TestDecodeSpans:
    def test_dominant_span_ranks_first(self):
        f = make_feature(n_context=6)
        rng = Rng(1)
        logits = random_logits(f, rng, scale=1.0)
        s, e = f.context_token_indices()[2], f.context_token_indices()[4]
        logits.start_logits[s] += 100.0
        logits.end_logits[e] += 100.0
        top = decode_spans(logits, f, feature_context_text())[0]
        assert (top.start_token, top.end_token) == (s, e)

    def test_null_dominates(self):
        f = make_feature(n_context=6)
        logits = random_logits(f, Rng(2), scale=1.0)
        logits.start_logits[0] = 200.0
        logits.end_logits[0] = 200.0
        top = decode_spans(logits, f, feature_context_text())[0]
        assert top.is_null and top.text == ""

    def test_matches_brute_force_on_random_instances(self):
        rng = Rng(3)
        mismatches = 0
        for trial in range(1000):
            n_ctx = 1 + int(rng.uniform(0, 7))  # seq stays <= 12
            f = make_feature(n_context=n_ctx, n_question=1)
            logits = random_logits(f, rng)
            text = feature_context_text(n_ctx)
            n_best = 1 + int(rng.uniform(0, 6))
            max_len = 1 + int(rng.uniform(0, 8))
            got = decode_spans(logits, f, text, n_best=n_best,
                               max_answer_length=max_len)
            want = brute_force_decode(logits, f, text, n_best, max_len)
            if [(c.start_token, c.end_token, c.score) for c in got] != \
                    [(c.start_token, c.end_token, c.score) for c in want]:
                mismatches += 1
        assert mismatches == 0

    def test_score_monotonicity(self):
        f = make_feature(n_context=5)
        logits = random_logits(f, Rng(4))
        base = decode_spans(logits, f, feature_context_text(5), n_best=1000,
                            max_answer_length=5)
        s = f.context_token_indices()[1]
        logits.start_logits[s] += 0.75
        bumped = decode_spans(logits, f, feature_context_text(5),
                              n_best=1000, max_answer_length=5)
        by_key = {(c.start_token, c.end_token): c.score for c in bumped}
        for c in base:
            delta = by_key[(c.start_token, c.end_token)] - c.score
            if c.start_token == s:
                assert abs(delta - 0.75) < 1e-12
            else:
                assert delta == 0.0

    def test_spans_never_leave_context(self):
        rng = Rng(5)
        for _ in range(200):
            n_ctx = 1 + int(rng.uniform(0, 8))
            f = make_feature(n_context=n_ctx)
            cands = decode_spans(random_logits(f, rng), f,
                                 feature_context_text(n_ctx))
            for c in cands:
                if not c.is_null:
                    assert f.context_mask[c.start_token]
                    assert f.context_mask[c.end_token]

    def test_null_always_included(self):
        f = make_feature(n_context=6)
        logits = random_logits(f, Rng(6))
        logits.start_logits[0] = -50.0
        logits.end_logits[0] = -50.0
        cands = decode_spans(logits, f, feature_context_text(), n_best=3)
        assert any(c.is_null for c in cands)
        assert len(cands) <= 3

    def test_rejects_limits_below_one(self):
        # n_best=0 once kept all but the last candidate (slice [:-1])
        f = make_feature(n_context=6)
        logits = random_logits(f, Rng(7))
        for kwargs in ({"n_best": 0}, {"n_best": -2},
                       {"max_answer_length": 0}):
            with pytest.raises(ValueError, match=">= 1"):
                decode_spans(logits, f, feature_context_text(), **kwargs)


def _seq384_features():
    """The chunks of one long synthetic context at the paper's base shape
    (max_seq_length 384, doc_stride 128)."""
    ex = make_synthetic_examples(n=2, seed=4, context_words=700)[1]
    feats = preprocess_dataset([ex], {ex.qid: word_tokenize(ex.context)},
                               PreprocessConfig(384, 128), question_tokens)
    assert len(feats) >= 2 and all(len(f.tokens) == 384 for f in feats[:-1])
    return feats, ex.context


def _with_gap(feature, lo, hi):
    """``feature`` with context positions lo..hi-1 masked out."""
    spans = list(feature.token_word_span)
    for t in range(lo, hi):
        spans[t] = None
    return dataclasses.replace(feature, token_word_span=spans)


def _legal_pairs(feature, max_answer_length=DEFAULT_MAX_ANSWER_LENGTH):
    n_ctx = sum(feature.context_mask)
    return sum(min(max_answer_length, n_ctx - i) for i in range(n_ctx))


class TestDecodeMatchesReference:
    """``decode_spans`` (array scoring) against the per-pair loop it
    replaced: equal candidate lists, and equal reprs, so a -0.0 score or a
    numpy scalar in place of a Python number would show."""

    @staticmethod
    def _assert_same(logits, feature, text, **kwargs):
        got = decode_spans(logits, feature, text, **kwargs)
        want = reference_decode_spans(logits, feature, text, **kwargs)
        assert got == want
        assert [repr(c) for c in got] == [repr(c) for c in want]
        return got

    @pytest.mark.parametrize("rounded", [False, True],
                             ids=["random", "rounded-ties"])
    def test_seq384_features(self, rounded):
        feats, text = _seq384_features()
        rng = Rng(11)
        for f in feats:
            logits = random_logits(f, rng)
            if rounded:
                # 1-decimal logits: many tied scores, and -0.0 + -0.0
                logits.start_logits = np.round(logits.start_logits / 5, 1)
                logits.end_logits = np.round(logits.end_logits / 5, 1)
            assert len(self._assert_same(logits, f, text)) == DEFAULT_N_BEST
            # the final sort hides a wrong tie order unless the n-best cut
            # falls inside a group of tied spans, so cut at several depths
            for n_best in (200, 1000):
                self._assert_same(logits, f, text, n_best=n_best)
            every = self._assert_same(logits, f, text, n_best=10 ** 6)
            if rounded:
                zeros = {repr(c.score) for c in every if c.score == 0.0}
                assert zeros == {"0.0", "-0.0"}

    def test_n_best_limits(self):
        feats, text = _seq384_features()
        f = feats[0]
        logits = random_logits(f, Rng(12))
        assert len(self._assert_same(logits, f, text, n_best=1)) == 1
        pairs = len(self._assert_same(logits, f, text, n_best=10 ** 6)) - 1
        assert pairs == _legal_pairs(f)

    def test_max_answer_length_limits(self):
        f = make_feature(n_context=9)
        text = feature_context_text(9)
        logits = random_logits(f, Rng(13))
        one = self._assert_same(logits, f, text, n_best=100,
                                max_answer_length=1)
        assert all(c.start_token == c.end_token for c in one if not c.is_null)
        assert len(self._assert_same(logits, f, text, n_best=100,
                                     max_answer_length=50)) == 9 * 10 // 2 + 1

    def test_context_with_a_gap(self):
        feats, text = _seq384_features()
        f = _with_gap(feats[0], 100, 110)
        logits = random_logits(f, Rng(14))
        for max_len in (5, 12, 30):
            got = self._assert_same(logits, f, text, n_best=10 ** 6,
                                    max_answer_length=max_len)
            for c in got:
                if not c.is_null:
                    assert c.end_token - c.start_token < max_len
                    assert not 100 <= c.start_token < 110
                    assert not 100 <= c.end_token < 110

    def test_one_token_context(self):
        f = make_feature(n_context=1)
        got = self._assert_same(random_logits(f, Rng(15)), f,
                                feature_context_text(1))
        assert sorted(c.is_null for c in got) == [False, True]


class TestTopKRanking:
    """``top_k`` against the full lexsort it replaced, and ``decode_spans``
    against both oracles on tie-heavy logits, where a wrong tie order at
    the n-best cut would show."""

    @pytest.mark.parametrize("k", [0, 1, 7, 20, 44, 45, 100])
    def test_top_k_matches_lexsort(self, k):
        s, e = np.triu_indices(9)  # a band, listed in (start, end) order
        rng = np.random.default_rng(k)
        cases = {"integer": rng.integers(-2, 3, len(s)).astype(float),
                 "all-equal": np.full(len(s), 0.5),
                 "signed-zeros": np.where(rng.random(len(s)) < 0.5, 0.0,
                                          -0.0),
                 "random": rng.normal(size=len(s))}
        for name, scores in cases.items():
            want = np.lexsort((e, s, -scores))[:k]
            got = top_k(scores, k)
            assert got.tolist() == want.tolist(), name
        # the integer scores put the cut inside a group of ties
        order = np.lexsort((e, s, -cases["integer"]))
        if 0 < k < len(s):
            assert cases["integer"][order[k - 1]] == \
                cases["integer"][order[k]]

    @pytest.mark.parametrize("kind", ["integer", "all-equal"])
    @pytest.mark.parametrize("seq384", [False, True], ids=["short", "seq384"])
    def test_decode_equals_both_oracles(self, kind, seq384):
        if seq384:
            feats, text = _seq384_features()
            f = feats[0]
        else:
            f, text = make_feature(n_context=9), feature_context_text(9)
        logits = random_logits(f, Rng(31))
        if kind == "integer":
            logits.start_logits = np.round(logits.start_logits)
            logits.end_logits = np.round(logits.end_logits)
        else:
            logits.start_logits = np.full(len(f.tokens), 0.5)
            logits.end_logits = np.full(len(f.tokens), 0.5)
        for max_len in (1, 3, 30):
            more = _legal_pairs(f, max_len) + 2
            for n_best in (1, 2, 20, more):
                got = decode_spans(logits, f, text, n_best=n_best,
                                   max_answer_length=max_len)
                assert len(got) == min(n_best, more - 1)
                for want in (reference_decode_spans(logits, f, text, n_best,
                                                    max_len),
                             brute_force_decode(logits, f, text, n_best,
                                                max_len)):
                    assert got == want, (max_len, n_best)
                    assert [repr(c) for c in got] == [repr(c) for c in want]

    def test_overflowing_scores_name_the_feature(self):
        f, text = make_feature(n_context=6), feature_context_text()
        for big in (NULL_POSITION, f.context_token_indices()[3]):
            logits = random_logits(f, Rng(32))
            logits.start_logits[big] = logits.end_logits[big] = 1e308
            with pytest.raises(ValueError, match=(
                    rf"decode \(qid={f.qid!r}, feature_index=0\): a span "
                    rf"or null score overflows")):
                decode_spans(logits, f, text)


def _band(feature, max_answer_length):
    """The legal (start, end) pairs in band order: by start, then end."""
    ctx = feature.context_token_indices()
    return [(s, e) for s in ctx for e in ctx if s <= e < s + max_answer_length]


def _band_of(pairs, max_answer_length=7):
    """A ``make_feature`` context, at most one of its tokens masked, whose
    band at ``max_answer_length`` holds exactly ``pairs`` legal pairs."""
    for n in itertools.count(pairs // max_answer_length):
        f = make_feature(n_context=n)
        first = f.context_token_indices()[0]
        for gap in [None, *range(n)]:
            g = f if gap is None else _with_gap(f, first + gap, first + gap + 1)
            if len(_band(g, max_answer_length)) == pairs:
                return g, feature_context_text(n)


class TestDecodeBlocks:
    """``decode_spans`` builds its candidates ``DECODE_BLOCK`` pairs at a
    time; against both oracles on bands that end one pair before, at and
    one pair after a block edge, and one pair into a third block."""

    MAX_LEN = 7

    @staticmethod
    def _assert_both_oracles(logits, f, text, n_best, max_len):
        got = decode_spans(logits, f, text, n_best=n_best,
                           max_answer_length=max_len)
        for want in (reference_decode_spans(logits, f, text, n_best, max_len),
                     brute_force_decode(logits, f, text, n_best, max_len)):
            assert got == want, n_best
            assert [repr(c) for c in got] == [repr(c) for c in want]
        return got

    @pytest.mark.parametrize("pairs", [DECODE_BLOCK - 1, DECODE_BLOCK,
                                       DECODE_BLOCK + 1,
                                       2 * DECODE_BLOCK + 1])
    def test_bands_at_block_edges(self, pairs):
        f, text = _band_of(pairs, self.MAX_LEN)
        band = _band(f, self.MAX_LEN)
        n = len(f.tokens)
        # every pair ties: the cut falls just before, at and just after the
        # first block edge
        even = SpanLogits(f.qid, f.feature_index, np.full(n, 0.5),
                          np.full(n, 0.5))
        for kept in (1, DECODE_BLOCK - 1, DECODE_BLOCK, DECODE_BLOCK + 1,
                     pairs):
            got = self._assert_both_oracles(even, f, text, kept + 1,
                                            self.MAX_LEN)
            assert len(got) == min(kept, pairs) + 1
        # every pair that starts where pair 0, the two pairs either side of
        # the first block edge, or the last pair starts ties on top: cuts
        # inside that tie fall before, at and after the edge, and with room
        # for the whole tie every one of its pairs survives, from every
        # block of the band
        starts = {band[k][0] for k in (0, DECODE_BLOCK - 1, DECODE_BLOCK,
                                       pairs - 1) if k < pairs}
        tied = [k for k, (s, _) in enumerate(band) if s in starts]
        before = sum(k < DECODE_BLOCK for k in tied)
        sl = np.zeros(n)
        sl[sorted(starts)] = 1.0
        top = SpanLogits(f.qid, f.feature_index, sl, np.zeros(n))
        for kept in (1, before - 1, before, before + 1):
            self._assert_both_oracles(top, f, text, kept + 1, self.MAX_LEN)
        got = self._assert_both_oracles(top, f, text, len(tied) + 1,
                                        self.MAX_LEN)
        assert sorted(band.index((c.start_token, c.end_token))
                      for c in got if not c.is_null) == tied
        assert len({k // DECODE_BLOCK for k in tied}) == \
            1 + (pairs - 1) // DECODE_BLOCK
        # integer logits: many ties, survivors wherever they fall
        logits = random_logits(f, Rng(pairs))
        logits.start_logits = np.round(logits.start_logits)
        logits.end_logits = np.round(logits.end_logits)
        for n_best in (2, DEFAULT_N_BEST, 200):
            self._assert_both_oracles(logits, f, text, n_best, self.MAX_LEN)
        every = self._assert_both_oracles(logits, f, text, pairs + 1,
                                          self.MAX_LEN)
        assert len(every) == pairs + 1

    def test_a_seq384_decode_holds_one_block_of_values(self):
        """After a warm call, one seq-384 decode peaks under 1 MB of
        traced memory; the whole band as Python values took about 2 MB."""
        feats, text = _seq384_features()
        f = feats[0]
        logits = random_logits(f, Rng(25))
        assert _legal_pairs(f) > 10_000
        decode_spans(logits, f, text)
        tracemalloc.start()
        try:
            decode_spans(logits, f, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCollectorPause:
    """``decode_spans`` keeps at most ``n_best`` candidates alive, so the
    cyclic garbage collector has nothing to start on while it builds one
    candidate per legal pair; it leaves the collector on or off as it found
    it."""

    @pytest.fixture
    def collector(self):
        """Sets the collector on or off; puts it back afterwards."""
        was = gc.isenabled()
        yield lambda on: gc.enable() if on else gc.disable()
        if was:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
    def test_leaves_the_collector_as_found(self, collector, on):
        f = make_feature(n_context=6)
        collector(on)
        decode_spans(random_logits(f, Rng(21)), f, feature_context_text())
        assert gc.isenabled() is on

    @pytest.mark.parametrize("on", [True, False], ids=["enabled", "disabled"])
    def test_leaves_the_collector_as_found_when_it_raises(self, collector,
                                                          on):
        f = make_feature(n_context=6)
        logits = random_logits(f, Rng(22))
        short = dataclasses.replace(logits,
                                    start_logits=logits.start_logits[:4],
                                    end_logits=logits.end_logits[:4])
        collector(on)
        with pytest.raises(IndexError):
            decode_spans(short, f, feature_context_text())
        assert gc.isenabled() is on

    def test_no_collection_during_a_seq384_decode(self, collector,
                                                  monkeypatch):
        feats, text = _seq384_features()
        f = feats[0]
        logits = random_logits(f, Rng(23))
        built, collections, alive = [], [], []
        init = AnswerCandidate.__init__

        def counting_init(self, *args):
            built.append(args[2])
            init(self, *args)

        def keeping_init(self, *args):
            alive.append(self)
            counting_init(self, *args)

        def record(phase, info):
            if phase == "start":
                collections.append(info["generation"])

        monkeypatch.setattr(AnswerCandidate, "__init__", counting_init)
        collector(True)
        gc.collect()  # start each decode from an empty youngest generation
        gc.callbacks.append(record)
        try:
            got = decode_spans(logits, f, text)
            assert collections == []
            # the control: the same decode with every candidate kept alive
            # until it returns, as one list of them would, does collect
            with monkeypatch.context() as m:
                m.setattr(AnswerCandidate, "__init__", keeping_init)
                gc.collect()
                assert decode_spans(logits, f, text) == got
            assert collections
        finally:
            gc.callbacks.remove(record)
        # one candidate per legal pair, then the null, on each of two calls
        pairs = _legal_pairs(f)
        assert pairs > 10_000
        assert len(alive) == pairs + 1
        assert len(built) == 2 * (pairs + 1)
        assert sum(start is None for start in built) == 2

    @pytest.mark.parametrize("n_best", [1, 2, DEFAULT_N_BEST])
    def test_only_the_survivors_live(self, monkeypatch, n_best):
        feats, text = _seq384_features()
        f = feats[0]
        logits = random_logits(f, Rng(24))
        live, peak = set(), [0]
        init = AnswerCandidate.__init__

        def counting_init(self, *args):
            init(self, *args)
            live.add(id(self))
            peak[0] = max(peak[0], len(live))

        monkeypatch.setattr(AnswerCandidate, "__init__", counting_init)
        monkeypatch.setattr(AnswerCandidate, "__del__",
                            lambda self: live.discard(id(self)),
                            raising=False)
        got = decode_spans(logits, f, text, n_best=n_best)
        assert len(got) == n_best and _legal_pairs(f) > 10_000
        assert peak[0] <= n_best
        del got
        assert not live


class TestAggregate:
    def _cands(self, f, rng):
        return decode_spans(random_logits(f, rng), f,
                            feature_context_text(4))

    @staticmethod
    def _answer(nbest, null_score):
        return best_answer(prediction_record(nbest[0].qid, nbest, null_score))

    def test_single_chunk_matches_decode(self):
        f = make_feature(n_context=4)
        cands = self._cands(f, Rng(7))
        nbest, null_score = aggregate_features([cands])
        assert nbest == cands
        best_span = next(c for c in cands if not c.is_null)
        null = next(c for c in cands if c.is_null)
        assert null_score == null.score
        answer = self._answer(nbest, null_score)
        if null.score - best_span.score > 0:
            assert answer is None
        else:
            assert (answer["start_token"], answer["end_token"]) == \
                (best_span.start_token, best_span.end_token)

    def test_dominant_chunk_wins(self):
        f0 = make_feature(n_context=4, feature_index=0)
        f1 = make_feature(n_context=4, feature_index=1)
        l0 = random_logits(f0, Rng(8), scale=1.0)
        l1 = random_logits(f1, Rng(9), scale=1.0)
        s = f1.context_token_indices()[0]
        l1.start_logits[s] += 500.0
        l1.end_logits[s] += 500.0
        c0 = decode_spans(l0, f0, feature_context_text(4))
        c1 = decode_spans(l1, f1, feature_context_text(4))
        nbest, null_score = aggregate_features([c0, c1])
        answer = self._answer(nbest, null_score)
        assert answer["feature_index"] == 1
        assert answer["start_token"] == s

    def test_matches_brute_force_multichunk(self):
        rng = Rng(10)
        for _ in range(300):
            n_chunks = 1 + int(rng.uniform(0, 3))
            all_cands = []
            for fi in range(n_chunks):
                f = make_feature(n_context=3, feature_index=fi)
                all_cands.append(decode_spans(random_logits(f, rng), f,
                                              feature_context_text(3)))
            nbest, null_score = aggregate_features(all_cands)
            flat = [c for cands in all_cands for c in cands]
            nulls = [c.score for c in flat if c.is_null]
            spans = sorted([c for c in flat if not c.is_null],
                           key=AnswerCandidate.sort_key)
            assert null_score == min(nulls)
            assert [c for c in nbest if not c.is_null] == \
                spans[: DEFAULT_N_BEST - 1]
            assert [c.score for c in nbest if c.is_null] == [min(nulls)]
            answer = self._answer(nbest, null_score)
            if min(nulls) - spans[0].score > 0:
                assert answer is None
            else:
                assert answer["score"] == spans[0].score

    def test_zero_features_rejected(self):
        with pytest.raises(ValueError, match="zero features"):
            aggregate_features([])

    def test_candidates_without_a_null_rejected(self):
        f = make_feature(qid="qx", n_context=4)
        spans = [c for c in self._cands(f, Rng(7)) if not c.is_null]
        with pytest.raises(ValueError) as e:
            aggregate_features([spans])
        assert str(e.value) == "qid qx: no null candidate present"


def _span(text, score, start):
    return {"text": text, "start_token": start, "end_token": start + 1,
            "feature_index": 0, "score": score}


_NULL = {"text": "", "start_token": None, "end_token": None,
         "feature_index": 0, "score": 0.0}
_NEXT_ABOVE_1_5 = float(np.nextafter(1.5, 2.0))


class TestNoAnswerRule:
    """One rule, three callers: ``best_answer`` on a record, the answer
    ``evaluate`` scores (``predictions_from_file``) and a model's vote
    (``PredictionSet.top_vote``)."""

    @pytest.mark.parametrize("nbest, null_score, threshold, expected", [
        # null - best == threshold: the span still wins
        ([_span("a", 1.0, 3), _NULL], 1.5, 0.5, "a"),
        # a hair above the threshold: no-answer
        ([_span("a", 1.0, 3), _NULL], _NEXT_ABOVE_1_5, 0.5, None),
        # no span at all: no-answer whatever the threshold
        ([_NULL], -100.0, 50.0, None),
        # a negative threshold makes no-answer win over a better span ...
        ([_span("a", 1.0, 3), _NULL], 0.5, -1.0, None),
        # ... unless the span is better by more than its magnitude
        ([_span("a", 1.0, 3), _NULL], -0.5, -1.0, "a"),
        # at equal scores the first span entry of nbest wins
        ([_NULL, _span("b", 2.0, 5), _span("a", 2.0, 3)], 0.0, 0.0, "b"),
    ], ids=["gap-equals-threshold", "gap-just-above", "no-span",
            "negative-threshold-null", "negative-threshold-span",
            "first-of-tied-spans"])
    def test_every_caller_applies_it(self, nbest, null_score, threshold,
                                     expected):
        rec = {"qid": "q", "nbest": nbest, "null_score": null_score}
        best = best_answer(rec, threshold)
        assert (best and best["text"]) == expected
        text = predictions_from_file([rec], null_threshold=threshold)["q"]
        assert text == (expected or "")
        key, cand = PredictionSet.from_records(
            "m", [rec], weight=1.0).top_vote("q", threshold)
        if expected is None:
            assert key == NULL_KEY and cand["score"] == null_score
        else:
            assert cand is best
            assert key == (0, best["start_token"], best["end_token"])


class TestPredictionFile:
    def test_round_trip(self, tmp_path):
        f = make_feature(n_context=3)
        cands = decode_spans(random_logits(f, Rng(11)), f,
                             feature_context_text(3))
        rec = prediction_record("q0", cands, null_score=-1.5,
                                model_f1_weight=81.2)
        path = tmp_path / "pred.jsonl"
        write_predictions(path, [rec])
        loaded = read_predictions(path)
        assert loaded == [rec]
        assert loaded[0]["model_f1_weight"] == 81.2
        assert {"text", "start_token", "end_token", "feature_index",
                "score"} <= set(loaded[0]["nbest"][0])
