"""Task-specific layer library: highway, BiLSTM, GRU, attention variants,
char-CNN, and the combined embedding block.

Every layer is an ``autograd.Module`` with a pure ``forward``: its
``parameters()`` walks the layer's attributes in assignment order and
returns a flat name -> Tensor map, so checkpoints use hierarchical names
(e.g. ``highway.0.W_proj``) and no layer lists its own parameters.

A layer may see several chunks at once, their rows packed as [N, d] and
``lengths`` giving each chunk's row count (None: one chunk);
``autograd.chunk_bounds`` is the one rule that checks the lengths and
turns them into each chunk's rows.  Row-wise layers run once on the
packed rows, the recurrences advance every chunk in one scan, and one
pooling or attention call is one graph node over every chunk, pooling or
attending within each chunk.  Attention keeps nothing for its backward,
which recomputes one chunk's softmax probabilities at a time and
overwrites them with the score gradient a block of rows at a time.

A highway layer is one graph node that keeps nothing but its parents and
recomputes its gate and transform in its backward; dropout is one node
that keeps a bool mask; and a whole LSTM/GRU layer, both directions and
their input projections, is one ``autograd.lstm_layer``/``gru_layer``
node.  A cell's ``entry`` picks that node, so ``lstm_forward`` and
``gru_forward`` are one body and ``bilstm_forward`` and ``bigru_forward``
another, kept under four names for the callers that use their kind's.
The combiner makes each token's char-CNN windows once per combiner, in a
``functools.cache`` it holds, as the char table memoizes its vectors.
"""

from __future__ import annotations

import functools

import numpy as np

from .autograd import (MASK_FILL, Module, Rng, Tensor, _affine_backward,
                       _attention_row_blocks, _check_finite, _project,
                       _sigmoid, chunk_bounds, concat, gru_layer,
                       init_uniform, lstm_layer, stack)


class Highway(Module):
    """Gated residual: y = g * relu(x W_proj + b_proj) + (1 - g) * x."""

    def __init__(self, d: int, rng: Rng):
        self.d = d
        self.W_proj = init_uniform(rng, (d, d), d)
        self.b_proj = init_uniform(rng, (d,), d)
        self.W_gate = init_uniform(rng, (d, d), d)
        self.b_gate = init_uniform(rng, (d,), d)

    def forward(self, x: Tensor) -> Tensor:
        """[N, d] -> [N, d] as one graph node.  The forward runs the numpy
        ops of the composed ``matmul``/add/``sigmoid``/``relu``/mul chain in
        the same order, so its values are identical to it.  The node keeps
        nothing but its parents: its backward recomputes the gate g and the
        transform t with the forward's ops (the relu mask is t > 0) and
        replays the chain's accumulations in its order."""
        if x.data.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"highway width {self.d}, input shape {x.shape}")
        W_gate, b_gate = self.W_gate, self.b_gate
        W_proj, b_proj = self.W_proj, self.b_proj

        def gate_and_transform():
            # the gate squashes an overflowed pre-activation to a finite
            # value
            pre = _check_finite(_project(x.data, W_gate.data, b_gate.data),
                                "Highway.forward")
            g = _sigmoid(pre, out=pre)
            pre = _check_finite(_project(x.data, W_proj.data, b_proj.data),
                                "Highway.forward")
            return g, np.maximum(pre, 0.0, out=pre)

        def bwd(dy):
            g, t = gate_and_transform()
            # the chain ran the transform's branch, then the carry's, then
            # the gate's, and x's gradient sums their parts in that order
            _affine_backward(x, W_proj, b_proj, dy * g * (t > 0))
            if x.requires_grad:
                x._accum(dy * (g * -1.0 + 1.0))
            _affine_backward(x, W_gate, b_gate,
                             (dy * t - dy * x.data) * g * (1.0 - g))

        # g * t + (g * -1.0 + 1.0) * x formed in place: y in t's buffer,
        # then the carry in g's, so the forward holds two [N, d] arrays at
        # most, the gate and its denominator, then the gate and y
        g, y = gate_and_transform()
        y *= g
        g *= -1.0
        g += 1.0
        g *= x.data
        y += g
        del g
        return Tensor._op(y, (x, W_gate, b_gate, W_proj, b_proj), bwd)


class LSTMCell(Module):
    """Standard LSTM gates; fused weight layout [input | forget | output | cand]."""

    # the width check's name, the layer node and its weight arguments
    entry = ("lstm", lstm_layer, ("W", "b", "U"))

    def __init__(self, d_in: int, hidden: int, rng: Rng):
        self.d_in = d_in
        self.hidden = hidden
        self.W = init_uniform(rng, (d_in, 4 * hidden), d_in)
        self.U = init_uniform(rng, (hidden, 4 * hidden), hidden)
        self.b = init_uniform(rng, (4 * hidden,), hidden)


def _layer_node(cells, x: Tensor, reverse, lengths) -> Tensor:
    """One direction per cell over x, as the cells' one layer node."""
    kind, layer, weights = cells[0].entry
    for cell in cells:
        if x.shape[1] != cell.d_in:
            raise ValueError(f"{kind} input width {x.shape[1]}, cell expects "
                             f"{cell.d_in}")
    return layer(x, *([getattr(c, w) for c in cells] for w in weights),
                 reverse, lengths)


def _one_direction(cell, x: Tensor, reverse: bool = False,
                   lengths=None) -> Tensor:
    """Run one direction over [seq, d_in], or over each chunk of packed
    rows; zero initial state."""
    return _layer_node([cell], x, [reverse], lengths)


def _two_directions(fwd, bwd, x: Tensor, lengths=None) -> Tensor:
    """A forward and a backward pass, stacked in one scan: [seq, 2h]."""
    return _layer_node([fwd, bwd], x, [False, True], lengths)


lstm_forward = gru_forward = _one_direction
bilstm_forward = bigru_forward = _two_directions


class GRUCell(Module):
    """Convention: h_t = (1 - u) * h_{t-1} + u * tanh(W x + U (r * h_{t-1}) + b)."""

    entry = ("gru", gru_layer, ("W_ur", "b_ur", "W_c", "b_c", "U_ur", "U_c"))

    def __init__(self, d_in: int, hidden: int, rng: Rng):
        self.d_in = d_in
        self.hidden = hidden
        self.W_ur = init_uniform(rng, (d_in, 2 * hidden), d_in)
        self.U_ur = init_uniform(rng, (hidden, 2 * hidden), hidden)
        self.b_ur = init_uniform(rng, (2 * hidden,), hidden)
        self.W_c = init_uniform(rng, (d_in, hidden), d_in)
        self.U_c = init_uniform(rng, (hidden, hidden), hidden)
        self.b_c = init_uniform(rng, (hidden,), hidden)


class BiCells(Module):
    """The two cells of one BiLSTM or BiGRU, named ``fwd`` and ``bwd``."""

    def __init__(self, fwd, bwd):
        self.fwd = fwd
        self.bwd = bwd


def _attention_probs(xc: np.ndarray, causal: bool, scale: float):
    """One chunk's attention probabilities p, and its causal keep mask
    (None when nothing is blocked), by the composed chain's numpy ops."""
    s = xc @ xc.T.copy()
    s *= scale
    _check_finite(s, "dot_product_attention")
    keep = None
    if causal and len(xc) > 1:
        keep = np.tril(np.ones(s.shape, dtype=bool))
        np.copyto(s, MASK_FILL, where=~keep)
    s -= s.max(axis=1, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=1, keepdims=True)
    return s, keep


def dot_product_attention(x: Tensor, causal: bool = False,
                          lengths=None) -> Tensor:
    """Scaled dot-product self-attention, queries = keys = values = x, over
    each chunk of packed rows (``lengths``, as in ``chunk_bounds``), as one
    graph node.

    With ``causal``, row i of a chunk only sees the chunk's rows <= i.  Per
    chunk the forward computes the values of the composed chain (scores
    ``x x^T / sqrt(d)``, blocked scores set to ``MASK_FILL``, a row softmax,
    ``p @ x``) with the same numpy ops in the same order, and drops the
    chunk's probabilities once its output is made.  The node keeps nothing
    for its hand-written backward, which recomputes each chunk's
    probabilities with the forward's ops, so one chunk's arrays are alive
    at a time, recorded or not.  Its backward holds one [T, T] buffer per
    chunk: once ``p^T g`` is made, the score gradient ds overwrites p one
    block of query rows at a time (``autograd._attention_row_blocks``: 48
    to 95 rows, or the whole chunk), each block's ``g[rows] @ x^T`` a
    product of its own.  The blocks carry the bits of the whole ``g @
    x^T`` by the BLAS property that ``autograd.gathered_rows_mismatches``
    checks; a block of a few rows would not, since OpenBLAS gives small
    products a path of their own.

    At two OpenBLAS threads (0.3.31) its products with a chunk's T output
    columns (``xc @ xc.T``, each row block's ``g[rows] @ xc.T``, ``xc.T @
    ds``) give other bits than at the package's one when T is not a
    multiple of 8, once they have about 8,200 entries (91 rows of 91; a
    48-row block from T = 171), and those with d output columns (``p @
    xc``, ``p.T @ g``, ``ds @ xc``) from about 390 rows.  Products under
    that size keep their one-thread bits (ROADMAP item 12).
    """
    seq, d = x.shape
    bounds = chunk_bounds(lengths, seq, "attention")
    scale = 1.0 / np.sqrt(d)
    out = np.empty_like(x.data)
    for lo, hi in bounds:
        xc = x.data[lo:hi]
        p, _ = _attention_probs(xc, causal, scale)
        np.matmul(p, xc, out=out[lo:hi])
        del p

    def bwd(g):
        # dx = ds x + ds^T x + p^T g, ds = scale * keep * p * (dp - rowsum(dp
        # * p)), summed in the composed chain's order and operand layouts,
        # so the gradient is bit-identical to it
        dx = np.empty_like(x.data)
        for lo, hi in bounds:
            xc, gc = x.data[lo:hi], g[lo:hi]
            p, keep = _attention_probs(xc, causal, scale)
            d = dx[lo:hi]
            d[...] = p.T @ gc
            # ds overwrites p a block of rows at a time, once they are read
            for r0, r1 in _attention_row_blocks(hi - lo):
                p_r = p[r0:r1]
                ds_r = gc[r0:r1] @ xc.T
                ds_r -= (ds_r * p_r).sum(axis=1, keepdims=True)
                np.multiply(ds_r, p_r, out=p_r)
                if keep is not None:
                    p_r *= keep[r0:r1]
                p_r *= scale
            ds = p
            del p, p_r, ds_r, keep
            d += ds @ xc.T.copy().T
            d += (xc.T @ ds).T
            del ds
        x._accum(dx)

    return Tensor._op(out, (x,), bwd)


class WeightedAvgAttention(Module):
    """Softmax-pooled context vector added back to every row."""

    def __init__(self, d: int, rng: Rng):
        self.d = d
        self.W = init_uniform(rng, (d, 1), d)

    def forward(self, E: Tensor, lengths=None) -> Tensor:
        """[seq, d], or packed chunks each pooled over its own rows, as one
        graph node.  Per chunk the forward runs the numpy ops of the
        composed chain ``E + matmul(softmax(matmul(E, W), axis=0)^T, E)``
        in the same order, so its values are identical to it; the node
        keeps only each chunk's pooling weights.  The backward adds the
        parts of E's gradient in the chain's order, so one chunk's
        gradients are identical to the chain's too."""
        if E.shape[1] != self.d:
            raise ValueError(f"attention width {self.d}, input width {E.shape[1]}")
        bounds = chunk_bounds(lengths, E.shape[0], "pooling")
        W = self.W
        out = np.empty_like(E.data)
        weights = []  # each chunk's softmax over its rows, [rows, 1]
        for lo, hi in bounds:
            Ec = E.data[lo:hi]
            s = _check_finite(Ec @ W.data, "WeightedAvgAttention.forward")
            e = np.exp(s - s.max(axis=0, keepdims=True))
            a = e / e.sum(axis=0, keepdims=True)
            np.add(Ec, a.T.copy() @ Ec, out=out[lo:hi])
            weights.append(a)

        def bwd(g):
            # per chunk, as in the chain: c = a^T E gets g_c, g summed over
            # the rows, and the scores get g_s; E gets g, then a g_c
            # (through c), then g_s W^T (through the scores)
            g_c = [g[lo:hi].sum(axis=0, keepdims=True) for lo, hi in bounds]
            g_s = []
            for (lo, hi), a, gc in zip(bounds, weights, g_c):
                g_a = (gc @ E.data[lo:hi].T).T
                g_s.append(a * (g_a - (g_a * a).sum(axis=0, keepdims=True)))
            if E.requires_grad:
                E._accum(g)
                E._accum(np.concatenate([a @ gc for a, gc in zip(weights,
                                                                 g_c)]))
                E._accum(np.concatenate([gs @ W.data.T for gs in g_s]))
            if W.requires_grad:
                for (lo, hi), gs in zip(bounds, g_s):
                    W._accum(E.data[lo:hi].T @ gs)

        return Tensor._op(out, (E, W), bwd)


CHAR_KERNEL_WIDTH = 3


class CharCNN(Module):
    """Width-``CHAR_KERNEL_WIDTH`` convolution over a token's character
    vectors, relu, max-pool."""

    def __init__(self, d_char: int, d_out: int, rng: Rng):
        self.d_char = d_char
        self.d_out = d_out
        k = CHAR_KERNEL_WIDTH
        self.K = init_uniform(rng, (k * d_char, d_out), k * d_char)
        self.b = init_uniform(rng, (d_out,), d_char)

    def windows(self, token: str, table) -> np.ndarray:
        """Constant [n_windows, k * d_char] matrix for one token's characters."""
        if len(token) == 0:
            raise ValueError("token with zero characters")
        chars = [table.vector(c) for c in token]
        k = CHAR_KERNEL_WIDTH
        while len(chars) < k:
            chars.append(np.zeros(self.d_char))
        mat = np.asarray(chars)
        return np.asarray([
            mat[i : i + k].ravel() for i in range(len(chars) - k + 1)
        ])

    def forward(self, windows: np.ndarray) -> Tensor:
        """max over windows of relu(windows @ K + b), [d_out], as one graph
        node: the values of the composed matmul, add, relu and max(axis=0),
        and a max tie shares its gradient evenly, as in ``Tensor.max``.
        The pre-activation is checked, as the composed chain checked it,
        since the relu would hide an overflow to -inf; a non-finite window
        makes its whole row of it non-finite, so the check reports both
        (numpy's own warnings are off for the product)."""
        w = np.asarray(windows, dtype=np.float64)
        K, b = self.K, self.b
        with np.errstate(over="ignore", invalid="ignore"):
            pre = _project(w, K.data, b.data)
        _check_finite(pre, "CharCNN.forward")
        act = np.maximum(pre, 0.0)
        out = act.max(axis=0)
        top = act == out

        def bwd(g):
            # K and b are parameters (init_uniform)
            d_pre = g * top / top.sum(axis=0) * (pre > 0)
            K._accum(w.T @ d_pre)
            b._accum(d_pre.sum(axis=0))

        return Tensor._op(out, (K, b), bwd)


class EmbeddingCombiner(Module):
    """Token branch + char branch, concatenated, refined by 2 highway layers.

    Token branch: weighted-average attention over the provider embedding.
    Char branch: per-token char-CNN pool, the pooled rows stacked as one
    node, then weighted-average attention over the pooled sequence.  Packed
    chunks pass every chunk's tokens in order and their ``lengths``.
    """

    def __init__(self, d_model: int, d_char: int, d_char_out: int, rng: Rng,
                 char_table):
        self.d_model = d_model
        self.d_char_out = d_char_out
        self.char_table = char_table
        self.wavg_tok = WeightedAvgAttention(d_model, rng.spawn(1))
        self.char_cnn = CharCNN(d_char, d_char_out, rng.spawn(2))
        self.wavg_char = WeightedAvgAttention(d_char_out, rng.spawn(3))
        self.d_comb = d_model + d_char_out
        self.highway = [Highway(self.d_comb, rng.spawn(4)),
                        Highway(self.d_comb, rng.spawn(5))]
        self._token_windows = functools.cache(functools.partial(
            self.char_cnn.windows, table=char_table))

    def forward(self, token_embedding: Tensor, tokens,
                lengths=None) -> Tensor:
        tok_branch = self.wavg_tok.forward(token_embedding, lengths)
        pooled = stack([self.char_cnn.forward(self._token_windows(t))
                        for t in tokens])  # [seq, d_char_out]
        char_branch = self.wavg_char.forward(pooled, lengths)
        branch = concat([tok_branch, char_branch], axis=1)
        for hw in self.highway:
            branch = hw.forward(branch)
        return branch


def dropout(x: Tensor, rate: float, rng: Rng) -> Tensor:
    """Inverted dropout, identity when rate is 0: the values and gradient
    of ``x * Tensor(mask / (1 - rate))`` as one graph node that keeps the
    bool mask of the entries kept, one byte per entry."""
    if rate <= 0.0:
        return x
    mask = rng.uniform(0.0, 1.0, x.shape) >= rate

    def bwd(g):
        x._accum(g * (mask / (1.0 - rate)))

    return Tensor._op(x.data * (mask / (1.0 - rate)), (x,), bwd)
