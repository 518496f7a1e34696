"""Task-specific layer library: highway, BiLSTM, GRU, attention variants,
char-CNN, and the combined embedding block.

Every layer is an ``autograd.Module`` with a pure ``forward``: its
``parameters()`` walks the layer's attributes in assignment order and
returns a flat name -> Tensor map, so checkpoints use hierarchical names
(e.g. ``highway.0.W_proj``) and no layer lists its own parameters.

A layer may see several chunks at once, their rows packed as [N, d] and
``lengths`` giving each chunk's row count (None: one chunk).  Row-wise
layers run once on the packed rows, the recurrences advance every chunk
in one scan, and pooling and attention run on each chunk's own rows
(``per_chunk``).
"""

from __future__ import annotations

import numpy as np

from .autograd import (MASK_FILL, Module, Rng, Tensor, _check_finite,
                       concat, gru_scans, init_uniform, lstm_scans,
                       masked_fill, matmul, softmax, stack)


class Highway(Module):
    """Gated residual: y = g * relu(x W_proj + b_proj) + (1 - g) * x."""

    def __init__(self, d: int, rng: Rng):
        self.d = d
        self.W_proj = init_uniform(rng, (d, d), d)
        self.b_proj = init_uniform(rng, (d,), d)
        self.W_gate = init_uniform(rng, (d, d), d)
        self.b_gate = init_uniform(rng, (d,), d)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.d:
            raise ValueError(f"highway width {self.d}, input width {x.shape[-1]}")
        g = (matmul(x, self.W_gate) + self.b_gate).sigmoid()
        t = (matmul(x, self.W_proj) + self.b_proj).relu()
        return g * t + (g * -1.0 + 1.0) * x


class LSTMCell(Module):
    """Standard LSTM gates; fused weight layout [input | forget | output | cand]."""

    def __init__(self, d_in: int, hidden: int, rng: Rng):
        self.d_in = d_in
        self.hidden = hidden
        self.W = init_uniform(rng, (d_in, 4 * hidden), d_in)
        self.U = init_uniform(rng, (hidden, 4 * hidden), hidden)
        self.b = init_uniform(rng, (4 * hidden,), hidden)


def _lstm_directions(cells, x: Tensor, reverse, lengths) -> Tensor:
    for cell in cells:
        if x.shape[1] != cell.d_in:
            raise ValueError(f"lstm input width {x.shape[1]}, cell expects "
                             f"{cell.d_in}")
    return lstm_scans([matmul(x, c.W) + c.b for c in cells],
                      [c.U for c in cells], reverse, lengths)


def lstm_forward(cell: LSTMCell, x: Tensor, reverse: bool = False,
                 lengths=None) -> Tensor:
    """Run one direction over [seq, d_in], or over each chunk of packed
    rows; zero initial h and c."""
    return _lstm_directions([cell], x, [reverse], lengths)


def bilstm_forward(fwd: LSTMCell, bwd: LSTMCell, x: Tensor,
                   lengths=None) -> Tensor:
    """A forward and a backward pass, stacked in one scan: [seq, 2h]."""
    return _lstm_directions([fwd, bwd], x, [False, True], lengths)


class GRUCell(Module):
    """Convention: h_t = (1 - u) * h_{t-1} + u * tanh(W x + U (r * h_{t-1}) + b)."""

    def __init__(self, d_in: int, hidden: int, rng: Rng):
        self.d_in = d_in
        self.hidden = hidden
        self.W_ur = init_uniform(rng, (d_in, 2 * hidden), d_in)
        self.U_ur = init_uniform(rng, (hidden, 2 * hidden), hidden)
        self.b_ur = init_uniform(rng, (2 * hidden,), hidden)
        self.W_c = init_uniform(rng, (d_in, hidden), d_in)
        self.U_c = init_uniform(rng, (hidden, hidden), hidden)
        self.b_c = init_uniform(rng, (hidden,), hidden)


def _gru_directions(cells, x: Tensor, reverse, lengths) -> Tensor:
    for cell in cells:
        if x.shape[1] != cell.d_in:
            raise ValueError(f"gru input width {x.shape[1]}, cell expects "
                             f"{cell.d_in}")
    return gru_scans([matmul(x, c.W_ur) + c.b_ur for c in cells],
                     [matmul(x, c.W_c) + c.b_c for c in cells],
                     [c.U_ur for c in cells], [c.U_c for c in cells], reverse,
                     lengths)


def gru_forward(cell: GRUCell, x: Tensor, reverse: bool = False,
                lengths=None) -> Tensor:
    """Run one direction over [seq, d_in], or over each chunk of packed
    rows; zero initial h."""
    return _gru_directions([cell], x, [reverse], lengths)


def bigru_forward(fwd: GRUCell, bwd: GRUCell, x: Tensor,
                  lengths=None) -> Tensor:
    """A forward and a backward pass, stacked in one scan: [seq, 2h]."""
    return _gru_directions([fwd, bwd], x, [False, True], lengths)


class BiCells(Module):
    """The two cells of one BiLSTM or BiGRU, named ``fwd`` and ``bwd``."""

    def __init__(self, fwd, bwd):
        self.fwd = fwd
        self.bwd = bwd


def per_chunk(fn, x: Tensor, lengths=None) -> Tensor:
    """``fn`` over each chunk's rows of packed ``x``, the results packed
    again in order; a single chunk is one plain call."""
    if lengths is None or len(lengths) == 1:
        return fn(x)
    ends = np.cumsum(lengths)
    return concat([fn(x[lo:hi]) for lo, hi in zip(ends - lengths, ends)],
                  axis=0)


def dot_product_attention(x: Tensor, attend_mask=None,
                          causal: bool = False) -> Tensor:
    """Scaled dot-product self-attention; queries=keys=values=x.

    ``attend_mask`` marks positions that may be attended to (True = live).
    With ``causal``, position i only sees positions <= i.
    """
    seq, d = x.shape
    if seq == 0:
        raise ValueError("attention over an empty sequence")
    scores = matmul(x, x.transpose()) * (1.0 / np.sqrt(d))
    blocked = np.zeros((seq, seq), dtype=bool)
    if attend_mask is not None:
        blocked |= ~np.asarray(attend_mask, dtype=bool)[None, :]
    if causal:
        blocked |= np.triu(np.ones((seq, seq), dtype=bool), k=1)
    if blocked.any():
        scores = masked_fill(scores, blocked, MASK_FILL)
    return matmul(softmax(scores, axis=1), x)


class WeightedAvgAttention(Module):
    """Softmax-pooled context vector added back to every row."""

    def __init__(self, d: int, rng: Rng):
        self.d = d
        self.W = init_uniform(rng, (d, 1), d)

    def forward(self, E: Tensor, lengths=None) -> Tensor:
        """[seq, d], or packed chunks each pooled over its own rows."""
        if E.shape[1] != self.d:
            raise ValueError(f"attention width {self.d}, input width {E.shape[1]}")
        return per_chunk(self._pool, E, lengths)

    def _pool(self, E: Tensor) -> Tensor:
        a = softmax(matmul(E, self.W), axis=0)  # [seq, 1]
        c = matmul(a.transpose(), E)  # [1, d]
        return E + c


class CharCNN(Module):
    """Width-k convolution over a token's character vectors, relu, max-pool."""

    def __init__(self, d_char: int, d_out: int, rng: Rng, kernel_width: int = 3):
        self.d_char = d_char
        self.d_out = d_out
        self.kernel_width = kernel_width
        self.K = init_uniform(rng, (kernel_width * d_char, d_out),
                              kernel_width * d_char)
        self.b = init_uniform(rng, (d_out,), d_char)

    def windows(self, token: str, table) -> np.ndarray:
        """Constant [n_windows, k * d_char] matrix for one token's characters."""
        if len(token) == 0:
            raise ValueError("token with zero characters")
        chars = [table.vector(c) for c in token]
        while len(chars) < self.kernel_width:
            chars.append(np.zeros(self.d_char))
        mat = np.asarray(chars)
        k = self.kernel_width
        return np.asarray([
            mat[i : i + k].ravel() for i in range(len(chars) - k + 1)
        ])

    def forward(self, windows: np.ndarray) -> Tensor:
        """max over windows of relu(windows @ K + b), [d_out], as one graph
        node: the values of the composed matmul, add, relu and max(axis=0),
        and a max tie shares its gradient evenly, as in ``Tensor.max``."""
        w = _check_finite(np.asarray(windows, dtype=np.float64))
        K, b = self.K, self.b
        pre = w @ K.data + b.data
        act = np.maximum(pre, 0.0)
        out = act.max(axis=0)
        top = act == out

        def bwd(g):
            d_pre = g * top / top.sum(axis=0) * (pre > 0)
            if K.requires_grad:
                K._accum(w.T @ d_pre)
            if b.requires_grad:
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
        self._window_cache = {}

    def _token_windows(self, token: str) -> np.ndarray:
        w = self._window_cache.get(token)
        if w is None:
            w = self.char_cnn.windows(token, self.char_table)
            self._window_cache[token] = w
        return w

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
    """Inverted dropout; identity when rate is 0."""
    if rate <= 0.0:
        return x
    keep = (rng.uniform(0.0, 1.0, x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(keep)
