import numpy as np
import pytest

from squadlab.autograd import Rng, Tensor, matmul
from squadlab.embeddings import CharEmbeddingTable
from squadlab.gradcheck import check_gradients
from squadlab.layers import (CharCNN, EmbeddingCombiner, GRUCell, Highway,
                             LSTMCell, WeightedAvgAttention, bigru_forward,
                             bilstm_forward, dot_product_attention, dropout,
                             gru_forward, lstm_forward)


class TestHighway:
    def test_gate_off_copies(self):
        hw = Highway(4, Rng(0))
        hw.W_gate.data[...] = 0.0
        hw.b_gate.data[...] = -30.0
        x = Tensor(Rng(1).normal((5, 4)))
        assert np.allclose(hw.forward(x).data, x.data, atol=1e-9)

    def test_gate_on_transforms(self):
        hw = Highway(4, Rng(0))
        hw.W_gate.data[...] = 0.0
        hw.b_gate.data[...] = 30.0
        x = Tensor(Rng(1).normal((5, 4)))
        expected = (matmul(x, hw.W_proj) + hw.b_proj).relu().data
        assert np.allclose(hw.forward(x).data, expected, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        hw = Highway(3, Rng(seed))
        x = Tensor(Rng(seed + 100).normal((4, 3)))
        check_gradients(lambda: (hw.forward(x) * hw.forward(x)).sum(),
                        hw.parameters(), rtol=1e-6)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            Highway(3, Rng(0)).forward(Tensor(np.ones((2, 5))))


class TestLstm:
    def test_seq1_equals_single_step_both_directions(self):
        fwd, bwd = LSTMCell(3, 2, Rng(0)), LSTMCell(3, 2, Rng(1))
        x = Tensor(Rng(2).normal((1, 3)))
        out = bilstm_forward(fwd, bwd, x)
        f = lstm_forward(fwd, x).data
        b = lstm_forward(bwd, x).data
        assert np.array_equal(out.data, np.concatenate([f, b], axis=1))

    def test_bilstm_halves_match_independent_runs(self):
        fwd, bwd = LSTMCell(3, 2, Rng(0)), LSTMCell(3, 2, Rng(1))
        x_data = Rng(2).normal((6, 3))
        out = bilstm_forward(fwd, bwd, Tensor(x_data)).data
        fwd_only = lstm_forward(fwd, Tensor(x_data)).data
        assert np.array_equal(out[:, :2], fwd_only)
        # backward half equals a forward run over the reversed input,
        # re-reversed
        rev = lstm_forward(bwd, Tensor(x_data[::-1].copy())).data[::-1]
        assert np.allclose(out[:, 2:], rev, atol=1e-12)

    def test_forward_direction_unaffected_by_backward_direction(self):
        fwd, bwd = LSTMCell(3, 2, Rng(0)), LSTMCell(3, 2, Rng(1))
        x = Tensor(Rng(2).normal((4, 3)))
        alone = lstm_forward(fwd, x).data
        joint = bilstm_forward(fwd, bwd, x).data[:, :2]
        assert np.array_equal(alone, joint)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        fwd, bwd = LSTMCell(4, 3, Rng(seed)), LSTMCell(4, 3, Rng(seed + 50))
        x = Tensor(Rng(seed + 99).normal((5, 4)), requires_grad=True)
        params = {"x": x}
        params |= {f"fwd.{n}": p for n, p in fwd.parameters().items()}
        params |= {f"bwd.{n}": p for n, p in bwd.parameters().items()}
        check_gradients(
            lambda: (bilstm_forward(fwd, bwd, x)
                     * bilstm_forward(fwd, bwd, x)).sum(),
            params, rtol=1e-5)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            lstm_forward(LSTMCell(3, 2, Rng(0)), Tensor(np.ones((2, 5))))


class TestGru:
    def test_update_gate_off_keeps_zero_state(self):
        cell = GRUCell(3, 2, Rng(0))
        cell.W_ur.data[...] = 0.0
        cell.U_ur.data[...] = 0.0
        cell.b_ur.data[:2] = -30.0  # update gate ~ 0
        x = Tensor(Rng(1).normal((5, 3)))
        out = gru_forward(cell, x)
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_gates_on_is_vanilla_rnn(self):
        cell = GRUCell(3, 2, Rng(0))
        cell.W_ur.data[...] = 0.0
        cell.U_ur.data[...] = 0.0
        cell.b_ur.data[...] = 30.0  # update and reset gates ~ 1
        x_data = Rng(1).normal((6, 3))
        out = gru_forward(cell, Tensor(x_data)).data
        # directly-coded vanilla RNN with the same candidate weights
        h = np.zeros(2)
        for t in range(6):
            h = np.tanh(x_data[t] @ cell.W_c.data + h @ cell.U_c.data
                        + cell.b_c.data)
            assert np.allclose(out[t], h, atol=1e-9)

    def test_bidirectional_concat(self):
        fwd, bwd = GRUCell(3, 2, Rng(0)), GRUCell(3, 2, Rng(1))
        x_data = Rng(2).normal((4, 3))
        out = bigru_forward(fwd, bwd, Tensor(x_data)).data
        assert np.array_equal(out[:, :2], gru_forward(fwd, Tensor(x_data)).data)
        rev = gru_forward(bwd, Tensor(x_data[::-1].copy())).data[::-1]
        assert np.allclose(out[:, 2:], rev, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradients(self, seed):
        cell = GRUCell(4, 3, Rng(seed))
        x = Tensor(Rng(seed + 40).normal((5, 4)), requires_grad=True)
        for reverse in (False, True):
            check_gradients(
                lambda: (gru_forward(cell, x, reverse)
                         * gru_forward(cell, x, reverse)).sum(),
                {"x": x, **cell.parameters()}, rtol=1e-5)


class TestDotProductAttention:
    def test_seq1_identity(self):
        x = Tensor(Rng(0).normal((1, 4)))
        assert np.array_equal(dot_product_attention(x).data, x.data)

    def test_identical_rows_preserved(self):
        row = Rng(0).normal(4)
        x = Tensor(np.stack([row, row]))
        out = dot_product_attention(x).data
        assert np.allclose(out, x.data, atol=1e-12)

    def test_causal_prefix_property(self):
        rng = Rng(3)
        base = rng.normal((5, 4))
        out1 = dot_product_attention(Tensor(base), causal=True).data
        perturbed = base.copy()
        perturbed[1:] += rng.normal((4, 4))
        out2 = dot_product_attention(Tensor(perturbed), causal=True).data
        assert np.array_equal(out1[0], out2[0])

    def test_causal_position_i_ignores_future(self):
        rng = Rng(4)
        base = rng.normal((6, 3))
        out1 = dot_product_attention(Tensor(base), causal=True).data
        perturbed = base.copy()
        perturbed[4:] += 1.0
        out2 = dot_product_attention(Tensor(perturbed), causal=True).data
        assert np.array_equal(out1[:4], out2[:4])

    def test_padding_mask_excludes_positions(self):
        rng = Rng(5)
        x = Tensor(rng.normal((4, 3)))
        mask = np.array([True, True, False, True])
        out = dot_product_attention(x, attend_mask=mask).data
        # changing the masked row must not affect other rows' outputs
        x2 = x.data.copy()
        x2[2] += 10.0
        out2 = dot_product_attention(Tensor(x2), attend_mask=mask).data
        assert np.array_equal(out[[0, 1, 3]], out2[[0, 1, 3]])

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="empty"):
            dot_product_attention(Tensor(np.zeros((0, 3))))

    def test_gradient_through_attention(self):
        x = Tensor(Rng(6).normal((4, 3)), requires_grad=True)
        check_gradients(
            lambda: (dot_product_attention(x) * dot_product_attention(x)).sum(),
            {"x": x}, rtol=1e-6)


class TestWeightedAvgAttention:
    def test_identical_rows_double(self):
        att = WeightedAvgAttention(4, Rng(0))
        row = Rng(1).normal(4)
        E = Tensor(np.stack([row, row, row]))
        assert np.allclose(att.forward(E).data, 2 * E.data, atol=1e-12)

    def test_zero_weights_add_mean(self):
        att = WeightedAvgAttention(4, Rng(0))
        att.W.data[...] = 0.0
        E_data = Rng(1).normal((5, 4))
        out = att.forward(Tensor(E_data)).data
        assert np.allclose(out, E_data + E_data.mean(axis=0), atol=1e-12)

    def test_attention_weights_sum_to_one(self):
        from squadlab.autograd import softmax
        att = WeightedAvgAttention(3, Rng(2))
        E = Tensor(Rng(3).normal((6, 3)))
        a = softmax(matmul(E, att.W), axis=0)
        assert abs(float(a.data.sum()) - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient(self, seed):
        att = WeightedAvgAttention(3, Rng(seed))
        E = Tensor(Rng(seed + 10).normal((4, 3)))
        check_gradients(lambda: (att.forward(E) * att.forward(E)).sum(),
                        att.parameters(), rtol=1e-6)


class TestCharCnn:
    def test_zero_char_token_rejected(self):
        cnn = CharCNN(4, 3, Rng(0))
        with pytest.raises(ValueError, match="zero characters"):
            cnn.windows("", CharEmbeddingTable(4))

    def test_short_token_padded(self):
        cnn = CharCNN(4, 3, Rng(0))
        w = cnn.windows("a", CharEmbeddingTable(4))
        assert w.shape == (1, 12)

    def test_output_width(self):
        cnn = CharCNN(4, 5, Rng(0))
        out = cnn.forward(cnn.windows("hello", CharEmbeddingTable(4)))
        assert out.data.shape == (5,)

    def test_gradient(self):
        cnn = CharCNN(3, 4, Rng(1))
        windows = cnn.windows("world", CharEmbeddingTable(3))
        check_gradients(
            lambda: (cnn.forward(windows) * cnn.forward(windows)).sum(),
            cnn.parameters(), rtol=1e-6)

    @staticmethod
    def _composed(cnn, windows):
        """The char-CNN as the separate Tensor ops the fused node replaces."""
        return (matmul(Tensor(windows), cnn.K) + cnn.b).relu().max(axis=0)

    @pytest.mark.parametrize("token", ["world", "aaaa", "a"])
    def test_node_matches_composed_ops(self, token):
        """Same values and gradients; "aaaa" has two identical windows, so
        every max is tied and its gradient is split."""
        cnn = CharCNN(3, 4, Rng(2))
        windows = cnn.windows(token, CharEmbeddingTable(3))
        if token == "aaaa":
            assert np.array_equal(windows[0], windows[1])
        weights = Tensor(Rng(3).normal(4))
        results = []
        for forward in (cnn.forward, lambda w: self._composed(cnn, w)):
            cnn.K.zero_grad()
            cnn.b.zero_grad()
            out = forward(windows)
            (out * weights).sum().backward()
            results.append((out.data, cnn.K.grad.copy(), cnn.b.grad.copy()))
        (got, *got_grads), (want, *want_grads) = results
        assert np.array_equal(got, want)
        scale = max(float(np.abs(g).max()) for g in want_grads)
        for g, w in zip(got_grads, want_grads):
            assert float(np.abs(g - w).max()) <= 1e-12 * scale

    def test_one_graph_node(self):
        cnn = CharCNN(3, 4, Rng(2))
        out = cnn.forward(cnn.windows("world", CharEmbeddingTable(3)))
        assert out._parents == (cnn.K, cnn.b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_window_raises(self, bad):
        cnn = CharCNN(3, 4, Rng(2))
        windows = cnn.windows("world", CharEmbeddingTable(3))
        windows[1, 2] = bad
        with pytest.raises(FloatingPointError):
            cnn.forward(windows)


class TestCombiner:
    def _tokens(self, n):
        return [f"tok{i}" for i in range(n)]

    def test_single_token_char_branch(self):
        table = CharEmbeddingTable(4, seed=0)
        comb = EmbeddingCombiner(6, 4, 3, Rng(0), char_table=table)
        E = Tensor(Rng(1).normal((1, 6)))
        pooled = comb.char_cnn.forward(
            comb.char_cnn.windows("abc", table)).data
        out_char = comb.wavg_char.forward(
            Tensor(pooled.reshape(1, -1))).data
        # softmax weight over one row is 1, so the branch is pooled + itself
        assert np.allclose(out_char, 2 * pooled, atol=1e-12)
        out = comb.forward(E, ["abc"])
        assert out.data.shape == (1, 9)

    def test_gradient_through_full_combiner(self):
        table = CharEmbeddingTable(3, seed=0)
        comb = EmbeddingCombiner(4, 3, 2, Rng(2), char_table=table)
        E = Tensor(Rng(3).normal((4, 4)))
        tokens = ["ab", "cde", "f", "ghij"]
        check_gradients(
            lambda: (comb.forward(E, tokens) * comb.forward(E, tokens)).sum(),
            comb.parameters(), rtol=1e-4)

    def test_output_width(self):
        comb = EmbeddingCombiner(6, 4, 3, Rng(0),
                                 char_table=CharEmbeddingTable(4))
        out = comb.forward(Tensor(Rng(1).normal((5, 6))), self._tokens(5))
        assert out.data.shape == (5, 9)


class TestDropout:
    def test_rate_zero_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.0, Rng(0)) is x

    def test_inverted_scaling_preserves_mean(self):
        rng = Rng(0)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.2, rng).data
        kept = out != 0
        assert abs(kept.mean() - 0.8) < 0.02
        assert np.allclose(out[kept], 1.25)

    def test_seeded_reproducible(self):
        x = Tensor(np.ones((10, 10)))
        a = dropout(x, 0.3, Rng(5)).data
        b = dropout(x, 0.3, Rng(5)).data
        assert np.array_equal(a, b)
