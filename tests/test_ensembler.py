import struct

import numpy as np
import pytest

from conftest import (check_random_elections, feature_context_text,
                      make_feature)
from squadlab.autograd import Rng
from squadlab.cli import main as cli_main
from squadlab.ensemble import (PredictionSet, decode_logit_set,
                               load_logits_dump, mean_logits,
                               save_logits_dump, weighted_voting,
                               weighted_voting_with_mean_logits)
from squadlab.heads import (MASK_FILL, SpanLogits, read_predictions,
                            write_predictions)
from squadlab.scoring import predictions_from_file


def span_rec(qid, start, end, score, null_score=-50.0, fi=0, text=None):
    if text is None:
        text = f"w{start}-{end}"
    return {"qid": qid, "null_score": null_score, "nbest": [
        {"text": text, "start_token": start, "end_token": end,
         "feature_index": fi, "score": score}]}


def null_rec(qid, null_score=10.0):
    return {"qid": qid, "null_score": null_score, "nbest": [
        {"text": "", "start_token": None, "end_token": None,
         "feature_index": 0, "score": null_score}]}


def pset(model_id, recs, weight):
    return PredictionSet.from_records(model_id, recs, weight=weight)


def toy_logits(qid, rng, seq_len=10, fi=0):
    start = np.array([rng.uniform(-1, 1) for _ in range(seq_len)])
    end = np.array([rng.uniform(-1, 1) for _ in range(seq_len)])
    return SpanLogits(qid=qid, feature_index=fi, start_logits=start,
                      end_logits=end)


class TestMeanLogits:
    def test_sum_of_members(self):
        rng = Rng(0)
        a = {("q", 0): toy_logits("q", rng)}
        b = {("q", 0): toy_logits("q", rng)}
        out = mean_logits([a, b])
        expect = a[("q", 0)].start_logits + b[("q", 0)].start_logits
        assert np.allclose(out[("q", 0)].start_logits, expect)

    def test_needs_two(self):
        rng = Rng(0)
        with pytest.raises(ValueError, match="at least 2"):
            mean_logits([{("q", 0): toy_logits("q", rng)}])

    def test_key_mismatch(self):
        rng = Rng(0)
        a = {("q", 0): toy_logits("q", rng)}
        b = {("r", 0): toy_logits("r", rng)}
        with pytest.raises(ValueError, match="disagree"):
            mean_logits([a, b])

    def test_length_mismatch(self):
        rng = Rng(0)
        a = {("q", 0): toy_logits("q", rng, seq_len=10)}
        b = {("q", 0): toy_logits("q", rng, seq_len=11)}
        with pytest.raises(ValueError, match="sequence length"):
            mean_logits([a, b])

    def test_identical_dumps_decode_identically(self, tmp_path):
        """k copies of one model's logits must reproduce its own answers."""
        feature = make_feature(qid="q")
        n = len(feature.tokens)
        rng = Rng(5)
        logits = {("q", 0): toy_logits("q", rng, seq_len=n)}
        features = {("q", 0): feature}
        ctx = {"q": feature_context_text(6)}
        single = decode_logit_set(logits, features, ctx)
        for k in (2, 3, 5):
            combined = mean_logits([logits] * k)
            merged = decode_logit_set(combined, features, ctx)
            assert predictions_from_file(merged) == \
                predictions_from_file(single)

    def test_dump_round_trip(self, tmp_path):
        rng = Rng(9)
        logits = {("q1", 0): toy_logits("q1", rng),
                  ("q1", 1): toy_logits("q1", rng, seq_len=7, fi=1),
                  ("q0", 0): toy_logits("q0", rng, seq_len=3)}
        path = tmp_path / "dump.bin"
        save_logits_dump(path, logits)
        loaded = load_logits_dump(path)
        assert set(loaded) == set(logits)
        for key in logits:
            assert np.array_equal(loaded[key].start_logits,
                                  logits[key].start_logits)
            assert np.array_equal(loaded[key].end_logits,
                                  logits[key].end_logits)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"ZZZZ" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_logits_dump(path)

    def test_documented_byte_layout(self, tmp_path):
        """Magic, u32 version, u32 header byte length, the empty JSON
        header, u32 count, then per record in (qid, feature_index) order:
        u32 qid byte length, UTF-8 qid, u32 feature_index, u32 rank 2,
        u32 dims 2 and seq_len, start then end logits as fp64 LE."""
        qa = "\u00fcber-\u4e2d"
        logits = {
            (qa, 1): SpanLogits(qa, 1, np.array([0.5, -1.25, 3.0]),
                                np.array([2.0, -0.0, -7.5])),
            ("a", 0): SpanLogits("a", 0, np.array([1e300]),
                                 np.array([-1e-300])),
        }
        expected = (b"SQLD" + struct.pack("<II", 2, 2) + b"{}"
                    + struct.pack("<I", 2))
        for key in sorted(logits):
            rec, qb = logits[key], key[0].encode("utf-8")
            n = len(rec.start_logits)
            expected += struct.pack("<I", len(qb)) + qb
            expected += struct.pack("<IIII", key[1], 2, 2, n)
            expected += struct.pack(f"<{n}d", *rec.start_logits)
            expected += struct.pack(f"<{n}d", *rec.end_logits)
        path = tmp_path / "dump.bin"
        save_logits_dump(path, logits)
        assert path.read_bytes() == expected
        loaded = load_logits_dump(path)
        assert set(loaded) == set(logits)
        for key, rec in logits.items():
            assert loaded[key].start_logits.tobytes() == \
                rec.start_logits.tobytes()
            assert loaded[key].end_logits.tobytes() == \
                rec.end_logits.tobytes()


class TestWeightedVoting:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), 0.0,
                                        -1.0, True, "60"])
    def test_weight_must_be_finite_and_positive(self, weight):
        with pytest.raises(ValueError) as e:
            pset("a", [span_rec("q", 2, 3, 4.0)], weight)
        assert str(e.value) == (f"model a: weight must be finite and "
                                f"positive, got {weight!r}")

    def test_no_sets_rejected(self):
        with pytest.raises(ValueError, match="^weighted_voting needs at "
                                             "least one prediction set$"):
            weighted_voting([])

    def test_two_model_hand_sum(self):
        # weights 0.7 + 0.6 on span (2,3) beat 0.9 on span (5,6)
        a = pset("a", [span_rec("q", 2, 3, 4.0)], 0.7)
        b = pset("b", [span_rec("q", 2, 3, 3.0)], 0.6)
        c = pset("c", [span_rec("q", 5, 6, 9.0)], 0.9)
        records = weighted_voting([a, b, c])
        assert records[0]["nbest"][0]["start_token"] == 2
        assert abs(records[0]["nbest"][0]["score"] - 1.3) < 1e-12

    def test_tie_broken_by_max_single_weight(self):
        # {88, 80} vs {86, 82}: totals tie at 168, X wins on max weight 88
        sets = [
            pset("m88", [span_rec("q", 4, 5, 1.0, text="X")], 88.0),
            pset("m86", [span_rec("q", 7, 8, 1.0, text="Y")], 86.0),
            pset("m82", [span_rec("q", 7, 8, 1.0, text="Y")], 82.0),
            pset("m80", [span_rec("q", 4, 5, 1.0, text="X")], 80.0),
        ]
        records = weighted_voting(sets)
        assert records[0]["nbest"][0]["text"] == "X"

    def test_total_tie_max_tie_earlier_start(self):
        sets = [
            pset("a", [span_rec("q", 6, 7, 1.0)], 2.0),
            pset("b", [span_rec("q", 3, 4, 1.0)], 2.0),
        ]
        records = weighted_voting(sets)
        assert records[0]["nbest"][0]["start_token"] == 3

    def test_non_null_beats_null_at_full_tie(self):
        sets = [
            pset("a", [null_rec("q")], 2.0),
            pset("b", [span_rec("q", 0, 0, 1.0, fi=0)], 2.0),
        ]
        records = weighted_voting(sets)
        assert records[0]["nbest"][0]["start_token"] == 0
        assert records[0]["nbest"][0]["text"] != ""

    def test_null_majority_wins(self):
        sets = [
            pset("a", [null_rec("q")], 3.0),
            pset("b", [null_rec("q")], 3.0),
            pset("c", [span_rec("q", 2, 3, 5.0)], 4.0),
        ]
        records = weighted_voting(sets)
        assert records[0]["nbest"][0]["text"] == ""
        assert records[0]["nbest"][0]["start_token"] is None

    def test_same_span_different_chunk_is_different_vote(self):
        sets = [
            pset("a", [span_rec("q", 2, 3, 1.0, fi=0)], 1.0),
            pset("b", [span_rec("q", 2, 3, 1.0, fi=1)], 1.0),
            pset("c", [span_rec("q", 5, 6, 1.0, fi=0)], 1.5),
        ]
        records = weighted_voting(sets)
        # the (2,3) votes split across chunks, so (5,6) at weight 1.5 wins
        assert records[0]["nbest"][0]["start_token"] == 5

    def test_scale_invariance(self):
        def run(scale):
            sets = [
                pset("a", [span_rec("q", 2, 3, 1.0)], 0.7 * scale),
                pset("b", [span_rec("q", 5, 6, 1.0)], 0.4 * scale),
                pset("c", [span_rec("q", 5, 6, 1.0)], 0.2 * scale),
            ]
            return weighted_voting(sets)[0]["nbest"][0]["start_token"]

        assert run(1.0) == run(100.0) == run(1e-3)

    def test_model_order_invariance(self):
        base = [
            pset("a", [span_rec("q", 2, 3, 1.0)], 0.7),
            pset("b", [span_rec("q", 5, 6, 1.0)], 0.9),
            pset("c", [span_rec("q", 2, 3, 1.0)], 0.6),
        ]
        first = weighted_voting(base)[0]["nbest"][0]
        for order in ([1, 2, 0], [2, 0, 1], [2, 1, 0]):
            again = weighted_voting([base[i] for i in order])[0]["nbest"][0]
            assert again == first

    def test_single_set_identity(self):
        rec = span_rec("q", 3, 4, 2.5)
        records = weighted_voting([pset("only", [rec], 0.5)])
        top = records[0]["nbest"][0]
        assert (top["start_token"], top["end_token"]) == (3, 4)
        assert predictions_from_file(records)["q"] == rec["nbest"][0]["text"]

    def test_qid_mismatch(self):
        a = pset("a", [span_rec("q1", 1, 2, 1.0)], 1.0)
        b = pset("b", [span_rec("q2", 1, 2, 1.0)], 1.0)
        with pytest.raises(ValueError, match="different qids"):
            weighted_voting([a, b])

    def test_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            pset("bad", [span_rec("q", 1, 2, 1.0)], 0.0)

    def test_matches_brute_force_tally(self):
        """1000 random 3..5-model elections against an independent count."""
        check_random_elections(123)

    def test_total_weight_does_not_depend_on_the_order(self):
        """Summed one by one, 0.1 + 0.2 + 0.3 is 0.6000000000000001 and
        0.3 + 0.2 + 0.1 is 0.6; the exact sum is 0.6 in every order."""
        sets = [pset(f"m{w}", [span_rec("q", 2, 3, 1.0)], w)
                for w in (0.1, 0.2, 0.3)]
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            top = weighted_voting([sets[i] for i in order])[0]["nbest"][0]
            assert top["score"] == 0.6, order

    def test_file_order_does_not_change_the_output(self, tmp_path):
        """One span voted from chunk 0 and from chunk 1 at equal weight is
        a full tie, which the earlier chunk wins in either file order."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_predictions(a, [dict(span_rec("q", 2, 3, 1.0, fi=0),
                                   model_f1_weight=1.0)])
        write_predictions(b, [dict(span_rec("q", 2, 3, 1.5, fi=1),
                                   model_f1_weight=1.0)])
        written = []
        for order in ((a, b), (b, a)):
            out = tmp_path / f"vote-{len(written)}.jsonl"
            assert cli_main(["ensemble", "--strategy", "weighted-voting",
                             "--pred", *map(str, order),
                             "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert read_predictions(out)[0]["nbest"][0]["feature_index"] == 0


class TestVotingWithMeanLogits:
    def _fixture(self):
        feature = make_feature(qid="q")
        n = len(feature.tokens)
        features = {("q", 0): feature}
        ctx = {"q": feature_context_text(6)}

        def peaked(s, e, margin=8.0):
            start = np.full(n, -4.0)
            end = np.full(n, -4.0)
            start[[0, 1, 2]] = MASK_FILL  # question tokens can't answer
            end[[0, 1, 2]] = MASK_FILL
            start[0] = end[0] = -4.0  # null stays reachable
            start[s] += margin
            end[e] += margin
            return {("q", 0): SpanLogits(qid="q", feature_index=0,
                                         start_logits=start, end_logits=end)}

        return features, ctx, peaked

    def test_mean_model_breaks_two_two_split(self):
        features, ctx, peaked = self._fixture()
        sets = [
            pset("a", [span_rec("q", 4, 5, 1.0)], 1.0),
            pset("b", [span_rec("q", 4, 5, 1.0)], 1.0),
            pset("c", [span_rec("q", 7, 8, 1.0)], 1.0),
            pset("d", [span_rec("q", 7, 8, 1.0)], 1.0),
        ]
        # both member dumps point at (7, 8), so the mean-logits voter does too
        dumps = [peaked(7, 8), peaked(7, 8)]
        records = weighted_voting_with_mean_logits(
            sets, dumps, mean_weight=1.0, features_by_key=features,
            context_by_qid=ctx)
        top = records[0]["nbest"][0]
        assert (top["start_token"], top["end_token"]) == (7, 8)

    def test_mean_weight_must_be_positive(self):
        features, ctx, peaked = self._fixture()
        with pytest.raises(ValueError, match="positive"):
            weighted_voting_with_mean_logits(
                [], [peaked(4, 5), peaked(4, 5)], mean_weight=-1.0,
                features_by_key=features, context_by_qid=ctx)
