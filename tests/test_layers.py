import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import squadlab
from squadlab.autograd import (MASK_FILL, Rng, Tensor, affine, chunk_bounds,
                               concat, masked_fill, matmul, no_grad, softmax)
from squadlab.embeddings import CharEmbeddingTable
from squadlab.gradcheck import check_gradients
from squadlab.layers import (CharCNN, EmbeddingCombiner, GRUCell, Highway,
                             LSTMCell, WeightedAvgAttention, bigru_forward,
                             bilstm_forward, dot_product_attention, dropout,
                             gru_forward, lstm_forward)


def composed_highway(hw, x):
    """The highway as the Tensor-op chain it was, the oracle of its node."""
    g = (matmul(x, hw.W_gate) + hw.b_gate).sigmoid()
    t = (matmul(x, hw.W_proj) + hw.b_proj).relu()
    return g * t + (g * -1.0 + 1.0) * x


def composed_pooling(att, E, lengths=None):
    """The pooling as the Tensor-op chain it was, one chain per chunk, the
    oracle of its node."""
    def pool(E):
        a = softmax(matmul(E, att.W), axis=0)
        return E + matmul(a.transpose(), E)

    bounds = chunk_bounds(lengths, E.shape[0], "pooling")
    if len(bounds) == 1:
        return pool(E)
    return concat([pool(E[lo:hi]) for lo, hi in bounds], axis=0)


def _held(forward):
    """Bytes still allocated after ``forward()``, its result alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = forward()  # noqa: F841 (held while measured)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _feed(y, dy):
    """A scalar root whose backward hands ``dy`` to y unchanged.  Every
    gradient buffer that ``backward`` fills starts as 0 + its first
    contribution, which turns -0.0 into 0.0; this is how a -0.0 gets to
    y's own backward."""
    def bwd(_):
        y.grad = dy.copy()

    return Tensor._op(np.zeros(()), (y,), bwd)


def _run(forward, x_data, dy, x_grad, params):
    """forward's output, its value inside no_grad, and the gradients of x
    (when it takes one) and of each parameter after a backward from dy."""
    for p in params:
        p.zero_grad()
    x = Tensor(x_data, requires_grad=x_grad)
    y = forward(x)
    _feed(y, dy).backward()
    with no_grad():
        free = forward(Tensor(x_data))
    assert free._parents == () and free._backward is None
    return [y.data, free.data, x.grad] + [p.grad.copy() for p in params]


def _assert_same_bytes(got, want):
    for i, (a, b) in enumerate(zip(got, want, strict=True)):
        if a is None or b is None:
            assert a is None and b is None, i
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), i


# the fused highway's cases: name -> (weight edits, value written into dy)
FUSED_CASES = {
    "random": (None, None),
    "gate-off": ({"b_gate": -30.0}, None),
    "gate-on": ({"b_gate": 30.0}, None),
    "gate-exactly-0": ({"b_gate": -800.0}, None),
    "gate-exactly-1": ({"b_gate": 40.0}, None),
    "zero-pre-activation": ({"W_proj": 0.0, "b_proj": -0.0}, None),
    "negative-zero-dy": (None, -0.0),
}


def _edit(hw, edit):
    # a weight edit covers the first two output columns, so that the
    # node sees edited and plain columns side by side
    for name, value in (edit or {}).items():
        getattr(hw, name).data[..., :2] = value


def _dy(shape, value):
    dy = Rng(2).normal(shape)
    if value is not None:
        dy[::2] = value  # whole rows
        dy[:, 1] = value  # and a whole column
    return dy


class TestFusedHighway:
    """``Highway.forward`` is one node whose output and gradients are
    byte-identical to the composed chain's."""

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("case", FUSED_CASES)
    def test_matches_the_composed_chain(self, case, x_grad):
        edit, dy_value = FUSED_CASES[case]
        hw = Highway(4, Rng(0))
        _edit(hw, edit)
        x_data = Rng(1).normal((6, 4))
        x_data[0, 0] = 0.0
        dy = _dy((6, 4), dy_value)
        params = list(hw.parameters().values())
        _assert_same_bytes(_run(hw.forward, x_data, dy, x_grad, params),
                           _run(lambda x: composed_highway(hw, x), x_data,
                                dy, x_grad, params))

    def test_one_graph_node(self):
        hw = Highway(4, Rng(0))
        x = Tensor(Rng(1).normal((3, 4)), requires_grad=True)
        y = hw.forward(x)
        assert y._parents == (x, hw.W_gate, hw.b_gate, hw.W_proj, hw.b_proj)

    def test_holds_its_output_only(self):
        """Recorded, the node holds its [N, d] output and nothing more (it
        kept the gate and the transform, three such arrays in all); its
        backward recomputes them.  5% for the objects."""
        hw = Highway(16, Rng(0))
        x = Tensor(Rng(1).normal((300, 16)), requires_grad=True)
        assert _held(lambda: hw.forward(x)) <= 1.05 * x.data.nbytes

    @pytest.mark.parametrize("weight", ["W_gate", "W_proj"])
    def test_pre_activation_overflow_names_the_highway(self, weight):
        # sigmoid(-inf) = 0 and relu(-inf) = 0: the output alone would
        # be finite
        hw = Highway(3, Rng(0))
        getattr(hw, weight).data[...] = -1e200
        x = Tensor(np.full((2, 3), 1e200))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                FloatingPointError, match="non-finite value produced in "
                                          "forward pass by Highway.forward$"):
            hw.forward(x)


class TestAffine:
    """``affine(x, W, b)`` is one node, byte-identical to ``matmul(x, W) +
    b``."""

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("case", ["random", "zero-product",
                                      "negative-zero-dy"])
    def test_matches_matmul_plus_bias(self, case, x_grad):
        W = Tensor(Rng(3).normal((4, 5)), requires_grad=True)
        b = Tensor(Rng(4).normal(5), requires_grad=True)
        if case == "zero-product":
            W.data[:, :2] = 0.0
            b.data[:2] = [0.0, -0.0]
        dy = _dy((6, 5), -0.0 if case == "negative-zero-dy" else None)
        x_data = Rng(1).normal((6, 4))
        _assert_same_bytes(
            _run(lambda x: affine(x, W, b), x_data, dy, x_grad, [W, b]),
            _run(lambda x: matmul(x, W) + b, x_data, dy, x_grad, [W, b]))

    def test_one_graph_node(self):
        x, W, b = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(
            np.ones(4), requires_grad=True)
        assert affine(x, W, b)._parents == (x, W, b)

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 5), (5,)),
                                        ((2, 3), (3, 5), (1, 5)),
                                        ((3,), (3, 5), (5,))])
    def test_shape_mismatch(self, shapes):
        with pytest.raises(ValueError, match="affine expects"):
            affine(*(Tensor(np.ones(s)) for s in shapes))

    def test_overflow_names_affine(self):
        x, W = Tensor([[1e200, 1.0]]), Tensor([[1e200], [1.0]])
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="by affine$"):
            affine(x, W, Tensor([0.0]))


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

    def test_forward_without_a_graph_holds_two_arrays(self):
        """The gate and transform are formed in their pre-activations'
        buffers, y and the carry in theirs: at the combiner's [1080, 80]
        (0.69 MB an array) the forward peaks at the gate and its
        denominator, then the gate and y, 1.47 MB; forming each product in
        a new array peaked at 2.85."""
        hw = Highway(80, Rng(23))
        x = Tensor(Rng(24).normal((1080, 80)))
        with no_grad():
            hw.forward(x)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                y = hw.forward(x)  # noqa: F841 (held while measured)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        assert peak < 1.6e6


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


def reference_dot_product_attention(x, causal=False, lengths=None):
    """The composed chain the fused node replaces: per chunk (a getitem of
    its rows) matmul, transpose, scale, masked_fill, softmax and matmul,
    the chunks' outputs concatenated."""
    def one(xc):
        seq, d = xc.shape
        scores = matmul(xc, xc.transpose()) * (1.0 / np.sqrt(d))
        blocked = np.zeros((seq, seq), dtype=bool)
        if causal:
            blocked |= np.triu(np.ones((seq, seq), dtype=bool), k=1)
        if blocked.any():
            scores = masked_fill(scores, blocked, MASK_FILL)
        return matmul(softmax(scores, axis=1), xc)

    if lengths is None or len(lengths) == 1:
        return one(x)
    ends = np.cumsum(lengths)
    return concat([one(x[lo:hi]) for lo, hi in zip(ends - lengths, ends)],
                  axis=0)


class TestFusedAttentionMatchesReference:
    CASES = {
        "one-chunk": dict(),
        "causal": dict(causal=True),
        # the one-row chunk has nothing to block
        "three-chunks": dict(lengths=[4, 1, 4], causal=True),
    }

    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_values_equal_and_gradients_agree(self, case):
        kwargs = self.CASES[case]
        rng = Rng(11)
        data = rng.normal((9, 5)) * 2.0
        g = rng.normal((9, 5))
        fused_x = Tensor(data.copy(), requires_grad=True)
        ref_x = Tensor(data.copy(), requires_grad=True)
        fused = dot_product_attention(fused_x, **kwargs)
        ref = reference_dot_product_attention(ref_x, **kwargs)
        assert np.array_equal(fused.data, ref.data)
        (fused * Tensor(g)).sum().backward()
        (ref * Tensor(g)).sum().backward()
        scale = np.abs(ref_x.grad).max()
        assert np.abs(fused_x.grad - ref_x.grad).max() <= 1e-12 * scale

    def test_one_call_is_one_node(self):
        x = Tensor(Rng(12).normal((7, 3)), requires_grad=True)
        out = dot_product_attention(x, causal=True, lengths=[3, 4])
        assert out._parents == (x,)

    def test_without_a_graph_one_chunk_at_a_time(self):
        """Recorded or not, the node holds no probabilities (its output,
        19.2 kB, is under a tenth of one chunk's); without a graph the
        forward peaks at one chunk's scores (plus numpy's 64 kB broadcast
        buffer and the outputs)."""
        x = Tensor(Rng(15).normal((600, 4)), requires_grad=True)
        chunk = 200 * 200 * 8

        def held_and_peak():
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                out = dot_product_attention(x, lengths=[200, 200, 200])
                held, peak = tracemalloc.get_traced_memory()
                return out, held - before, peak - before
            finally:
                tracemalloc.stop()

        recorded, held, _ = held_and_peak()
        assert held < 0.1 * chunk
        with no_grad():
            free, held, peak = held_and_peak()
        assert held < 0.1 * chunk and peak < 1.5 * chunk
        assert free.data.tobytes() == recorded.data.tobytes()

    def test_backward_peaks_at_one_chunk(self):
        """The backward recomputes one chunk's probabilities at a time and
        overwrites them with ds a block of query rows at a time, so it holds
        one [T, T] buffer: measured from before the forward, it peaks at that
        buffer, its causal mask, one block's ds and ds * p and the [600, 4]
        arrays (1.88 chunks). Holding the whole ds beside p peaked at 2.53,
        and keeping every chunk's p and forming the whole ds * p at 5.70."""
        x = Tensor(Rng(15).normal((600, 4)), requires_grad=True)
        g = Tensor(Rng(16).normal((600, 4)))
        chunk = 200 * 200 * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = dot_product_attention(x, causal=True,
                                        lengths=[200, 200, 200])
            (out * g).sum().backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * chunk

    @pytest.mark.parametrize("causal", [False, True])
    def test_backward_bytes_equal_the_kept_probabilities(self, causal):
        """Chunks longer than a row block: the recomputed backward gives
        the bytes of one that keeps p and forms rowsum(ds * p) whole."""
        lengths = [70, 33, 1]
        x = Tensor(Rng(17).normal((104, 6)), requires_grad=True)
        g = Rng(18).normal((104, 6))
        out = dot_product_attention(x, causal, lengths)
        (out * Tensor(g)).sum().backward()
        want = np.empty_like(x.data)
        scale = 1.0 / np.sqrt(6)
        for lo, hi in chunk_bounds(lengths, 104, "attention"):
            xc, gc = x.data[lo:hi], g[lo:hi]
            s = xc @ xc.T.copy()
            s *= scale
            keep = np.tril(np.ones(s.shape, dtype=bool))
            if causal and hi - lo > 1:
                s = np.where(keep, s, MASK_FILL)
            s -= s.max(axis=1, keepdims=True)
            np.exp(s, out=s)
            s /= s.sum(axis=1, keepdims=True)
            ds = gc @ xc.T
            ds -= (ds * s).sum(axis=1, keepdims=True)
            ds *= s
            if causal and hi - lo > 1:
                ds *= keep
            ds *= scale
            d = want[lo:hi]
            d[...] = s.T @ gc
            d += ds @ xc.T.copy().T
            d += (xc.T @ ds).T
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lengths", [[3, 3], [5, 0, 2], [8], [8, -1],
                                         []],
                             ids=["short", "empty-chunk", "long",
                                  "negative-chunk", "no-chunks"])
    def test_lengths_must_cover_the_rows(self, lengths):
        x = Tensor(Rng(14).normal((7, 3)))
        with pytest.raises(ValueError, match="chunk lengths"):
            dot_product_attention(x, lengths=lengths)
        with pytest.raises(ValueError, match="^attention: chunk lengths"):
            chunk_bounds(lengths, 7, "attention")


def full_ds_attention_backward(x, g, causal=False, lengths=None):
    """dx of ``dot_product_attention`` as its backward formed it while it
    held the whole score gradient ds beside p: the oracle of the row-block
    backward."""
    dx = np.empty_like(x)
    scale = 1.0 / np.sqrt(x.shape[1])
    for lo, hi in chunk_bounds(lengths, len(x), "attention"):
        xc, gc = x[lo:hi], g[lo:hi]
        p = xc @ xc.T.copy()
        p *= scale
        keep = None
        if causal and hi - lo > 1:
            keep = np.tril(np.ones(p.shape, dtype=bool))
            np.copyto(p, MASK_FILL, where=~keep)
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        ds = gc @ xc.T
        for r in range(0, hi - lo, 32):
            rows = slice(r, r + 32)
            ds[rows] -= (ds[rows] * p[rows]).sum(axis=1, keepdims=True)
        ds *= p
        if keep is not None:
            ds *= keep
        ds *= scale
        d = dx[lo:hi]
        d[...] = p.T @ gc
        d += ds @ xc.T.copy().T
        d += (xc.T @ ds).T
    return dx


# chunk lengths at the row blocks' edges (48 to 95 rows each), the old
# 32-row blocks' and seq-384's; and packed chunks
ROW_BLOCK_CASES = [[n] for n in (1, 2, 31, 32, 33, 47, 48, 49, 64, 65, 95,
                                 96, 97, 98, 143, 144, 145, 380, 384)] + \
    [[33, 1, 65], [49, 1, 98]]


def row_block_mismatches() -> list:
    """The (lengths, causal) cases where the fused backward's dx (d = 64)
    differs in any bit from ``full_ds_attention_backward``'s."""
    bad = []
    for k, lengths in enumerate(ROW_BLOCK_CASES):
        rng = Rng(40 + k)
        data, g = rng.normal((sum(lengths), 64)), rng.normal((sum(lengths), 64))
        for causal in (False, True):
            x = Tensor(data, requires_grad=True)
            dot_product_attention(x, causal, lengths)._backward(g)
            want = full_ds_attention_backward(data, g, causal, lengths)
            if x.grad.tobytes() != want.tobytes():
                bad.append((lengths, causal))
    return bad


class TestAttentionRowBlocks:
    """The backward overwrites p with ds a block of query rows at a time,
    each block's ``g[rows] @ x.T`` a product of its own."""

    def test_dx_bytes_equal_the_full_ds_backward_at_one_thread(self):
        """Byte for byte at the package's one BLAS thread, in a fresh
        process (this one may have loaded numpy first).  At two threads a
        T x T product with T not a multiple of 8 has other bits from about
        8,200 entries on, whole or in blocks (ROADMAP item 12)."""
        paths = [str(Path(squadlab.__file__).resolve().parent.parent),
                 str(Path(__file__).resolve().parent)]
        code = (f"import json, sys\nsys.path[:0] = {paths!r}\n"
                "import squadlab\n"
                "from test_layers import row_block_mismatches\n"
                "print(json.dumps(row_block_mismatches()))")
        env = {k: v for k, v in os.environ.items()
               if k not in squadlab.BLAS_THREAD_VARS}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []

    def test_seq384_backward_holds_one_buffer(self):
        """One seq-384 chunk (d = 64): the backward peaks at p's buffer
        (1.18 MB), a block's products and the [384, 64] arrays, 1.77 MB;
        holding ds beside p peaked at 2.75."""
        x = Tensor(Rng(21).normal((384, 64)), requires_grad=True)
        g = Rng(22).normal((384, 64))
        dot_product_attention(x)._backward(g)  # warm
        x.grad = None
        out = dot_product_attention(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6


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

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="empty"):
            dot_product_attention(Tensor(np.zeros((0, 3))))

    def test_gradient_through_attention(self):
        x = Tensor(Rng(6).normal((4, 3)), requires_grad=True)
        check_gradients(
            lambda: (dot_product_attention(x) * dot_product_attention(x)).sum(),
            {"x": x}, rtol=1e-6)


class TestWeightedAvgAttention:
    @pytest.mark.parametrize("lengths, why", [
        ([4, 4], "do not add up to 10 rows"),
        ([10, 0], "include an empty chunk")], ids=["short", "empty-chunk"])
    def test_lengths_must_cover_the_rows(self, lengths, why):
        att = WeightedAvgAttention(3, Rng(0))
        E = Tensor(Rng(1).normal((10, 3)))
        with pytest.raises(ValueError) as info:
            att.forward(E, lengths)
        assert str(info.value) == f"pooling: chunk lengths {lengths} {why}"

    def test_width_mismatch(self):
        with pytest.raises(ValueError) as e:
            WeightedAvgAttention(4, Rng(0)).forward(Tensor(np.ones((3, 5))))
        assert str(e.value) == "attention width 4, input width 5"

    @pytest.mark.parametrize("x_grad", [True, False])
    @pytest.mark.parametrize("dy_value", [None, -0.0],
                             ids=["random", "negative-zero-dy"])
    def test_one_chunk_matches_the_composed_chain(self, dy_value, x_grad):
        att = WeightedAvgAttention(4, Rng(0))
        x_data = Rng(1).normal((7, 4))
        dy = _dy((7, 4), dy_value)
        _assert_same_bytes(
            _run(att.forward, x_data, dy, x_grad, [att.W]),
            _run(lambda E: composed_pooling(att, E), x_data, dy, x_grad,
                 [att.W]))

    def test_packed_chunks_match_the_per_chunk_chains(self):
        """The chains' values byte for byte, their gradients within
        1e-12."""
        att = WeightedAvgAttention(4, Rng(0))
        x_data = Rng(1).normal((12, 4))
        dy = _dy((12, 4), None)
        lengths = [5, 1, 6]
        got, want = (_run(lambda E: pool(E, lengths), x_data, dy, True,
                          [att.W])
                     for pool in (att.forward, lambda E, n: composed_pooling(
                         att, E, n)))
        _assert_same_bytes(got[:2], want[:2])
        for g, w in zip(got[2:], want[2:], strict=True):
            assert float(np.abs(g - w).max()) <= 1e-12 * float(
                np.abs(w).max())

    def test_one_graph_node(self):
        att = WeightedAvgAttention(3, Rng(0))
        E = Tensor(Rng(1).normal((6, 3)), requires_grad=True)
        assert att.forward(E, [2, 4])._parents == (E, att.W)

    def test_score_overflow_names_the_pooling(self):
        # the softmax would give a -inf score the weight 0
        att = WeightedAvgAttention(2, Rng(0))
        att.W.data[...] = 1e200
        E = Tensor([[1.0, 1.0], [-1e200, -1e200]])
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError,
                match="by WeightedAvgAttention.forward$"):
            att.forward(E)

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

    def test_pre_activation_overflow_raises(self):
        """w @ K overflows to -inf, which the relu would turn into 0."""
        cnn = CharCNN(3, 4, Rng(2))
        cnn.K.data[...] = -1e308
        windows = np.abs(cnn.windows("world", CharEmbeddingTable(3))) + 1.0
        with pytest.raises(FloatingPointError, match="by CharCNN.forward$"):
            cnn.forward(windows)


class TestCombiner:
    def _tokens(self, n):
        return [f"tok{i}" for i in range(n)]

    def test_single_token_char_branch(self):
        table = CharEmbeddingTable(4)
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
        table = CharEmbeddingTable(3)
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

    @pytest.mark.parametrize("x_grad", [True, False])
    def test_matches_the_product_with_its_keep_tensor(self, x_grad):
        def chain(x):
            keep = (Rng(3).uniform(0.0, 1.0, x.shape) >= 0.3) / (1.0 - 0.3)
            return x * Tensor(keep)

        x_data = Rng(1).normal((6, 4))
        dy = _dy((6, 4), -0.0)
        _assert_same_bytes(
            _run(lambda x: dropout(x, 0.3, Rng(3)), x_data, dy, x_grad, []),
            _run(chain, x_data, dy, x_grad, []))

    def test_one_node_holding_a_bool_mask(self):
        """Recorded, dropout holds its output and one byte per entry (it
        held a float64 keep tensor, 8 bytes); 5% for the objects."""
        x = Tensor(Rng(1).normal((300, 16)), requires_grad=True)
        y = dropout(x, 0.2, Rng(3))
        assert y._parents == (x,)
        assert _held(lambda: dropout(x, 0.2, Rng(3))) <= \
            1.05 * (8 + 1) * x.data.size

    def test_seeded_reproducible(self):
        x = Tensor(np.ones((10, 10)))
        a = dropout(x, 0.3, Rng(5)).data
        b = dropout(x, 0.3, Rng(5)).data
        assert np.array_equal(a, b)
