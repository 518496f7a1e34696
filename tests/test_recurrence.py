"""The fused recurrences against the per-step reference they replace.

``reference_lstm_forward`` and ``reference_gru_forward`` are the
timestep-by-timestep Tensor loops the layers used before the whole
sequence became one graph node.  They stay here as the oracle: the fused
forward must reproduce them exactly, and its hand-written backward must
agree with their op-by-op gradients to rounding.  The layer nodes
(``lstm_layer``, ``gru_layer``) fold the input projections into the scan;
``affine`` projections feeding ``lstm_scans``/``gru_scans`` are their
byte-exact oracle.
"""

import hashlib
import json
import platform
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from squadlab import autograd, cli, heads
from squadlab.autograd import (Rng, Tensor, affine, chunk_bounds, concat,
                               gru_layer, gru_scan, gru_scans, lstm_layer,
                               lstm_scan, lstm_scans, matmul, no_grad)
from squadlab.heads import BidafOut
from squadlab.layers import (GRUCell, LSTMCell, bigru_forward, bilstm_forward,
                             gru_forward, lstm_forward)

GRAD_RTOL = 1e-12


def reference_lstm_forward(cell, x, reverse=False):
    h = cell.hidden
    xw = matmul(x, cell.W) + cell.b
    h_t = Tensor(np.zeros((1, h)))
    c_t = Tensor(np.zeros((1, h)))
    outputs = [None] * x.shape[0]
    order = range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0])
    for t in order:
        gates = xw[t : t + 1] + matmul(h_t, cell.U)
        i_g = gates[:, 0 * h : 1 * h].sigmoid()
        f_g = gates[:, 1 * h : 2 * h].sigmoid()
        o_g = gates[:, 2 * h : 3 * h].sigmoid()
        cand = gates[:, 3 * h : 4 * h].tanh()
        c_t = f_g * c_t + i_g * cand
        h_t = o_g * c_t.tanh()
        outputs[t] = h_t
    return concat(outputs, axis=0)


def reference_gru_forward(cell, x, reverse=False):
    h = cell.hidden
    x_ur = matmul(x, cell.W_ur) + cell.b_ur
    x_c = matmul(x, cell.W_c) + cell.b_c
    h_t = Tensor(np.zeros((1, h)))
    outputs = [None] * x.shape[0]
    order = range(x.shape[0] - 1, -1, -1) if reverse else range(x.shape[0])
    for t in order:
        ur = x_ur[t : t + 1] + matmul(h_t, cell.U_ur)
        u_g = ur[:, :h].sigmoid()
        r_g = ur[:, h:].sigmoid()
        cand = (x_c[t : t + 1] + matmul(r_g * h_t, cell.U_c)).tanh()
        h_t = (u_g * -1.0 + 1.0) * h_t + u_g * cand
        outputs[t] = h_t
    return concat(outputs, axis=0)


def _value_and_grads(forward, tensors, weights):
    """Output values and the gradients of sum(out * weights)."""
    for t in tensors.values():
        t.zero_grad()
    out = forward()
    (out * Tensor(weights)).sum().backward()
    return out.data.copy(), {n: t.grad.copy() for n, t in tensors.items()}


def _assert_fused_matches_reference(fused, reference, tensors, out_shape,
                                    seed, exact=True):
    """Forward values equal (or, unless ``exact``, within GRAD_RTOL of the
    largest value) and gradients within GRAD_RTOL of the largest one."""
    weights = Rng(seed).normal(out_shape)
    got, got_grads = _value_and_grads(fused, tensors, weights)
    want, want_grads = _value_and_grads(reference, tensors, weights)
    if exact:
        assert got.tobytes() == want.tobytes()
    else:
        err = float(np.abs(got - want).max()) / float(np.abs(want).max())
        assert err <= GRAD_RTOL, f"relative forward error {err:.2e}"
    scale = max(float(np.abs(g).max()) for g in want_grads.values())
    for name in tensors:
        err = float(np.abs(got_grads[name] - want_grads[name]).max()) / scale
        assert err <= GRAD_RTOL, f"{name}: relative gradient error {err:.2e}"


def _cell_tensors(cell, x):
    return {"x": x, **cell.parameters()}


@pytest.mark.parametrize("seq", [1, 2, 40])
@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_matches_reference(seq, reverse):
    cell = LSTMCell(5, 4, Rng(seq))
    x = Tensor(Rng(seq + 1).normal((seq, 5)), requires_grad=True)
    _assert_fused_matches_reference(
        lambda: lstm_forward(cell, x, reverse),
        lambda: reference_lstm_forward(cell, x, reverse),
        _cell_tensors(cell, x), (seq, 4), seed=seq + 2)


@pytest.mark.parametrize("seq", [1, 2, 40])
@pytest.mark.parametrize("reverse", [False, True])
def test_gru_matches_reference(seq, reverse):
    cell = GRUCell(5, 4, Rng(seq))
    x = Tensor(Rng(seq + 1).normal((seq, 5)), requires_grad=True)
    _assert_fused_matches_reference(
        lambda: gru_forward(cell, x, reverse),
        lambda: reference_gru_forward(cell, x, reverse),
        _cell_tensors(cell, x), (seq, 4), seed=seq + 2)


def _pair_tensors(fwd, bwd, x):
    tensors = {"x": x}
    tensors |= {f"fwd.{n}": p for n, p in fwd.parameters().items()}
    tensors |= {f"bwd.{n}": p for n, p in bwd.parameters().items()}
    return tensors


def test_bilstm_matches_reference():
    """Both directions in one stacked scan against two reference loops."""
    fwd, bwd = LSTMCell(5, 3, Rng(0)), LSTMCell(5, 3, Rng(1))
    for seq in (1, 2, 40):
        x = Tensor(Rng(seq).normal((seq, 5)), requires_grad=True)
        _assert_fused_matches_reference(
            lambda: bilstm_forward(fwd, bwd, x),
            lambda: concat([reference_lstm_forward(fwd, x),
                            reference_lstm_forward(bwd, x, reverse=True)],
                           axis=1),
            _pair_tensors(fwd, bwd, x), (seq, 6), seed=seq + 3)


def test_bigru_matches_reference():
    """Both directions in one stacked scan against two reference loops."""
    fwd, bwd = GRUCell(5, 3, Rng(0)), GRUCell(5, 3, Rng(1))
    for seq in (1, 2, 40):
        x = Tensor(Rng(seq).normal((seq, 5)), requires_grad=True)
        _assert_fused_matches_reference(
            lambda: bigru_forward(fwd, bwd, x),
            lambda: concat([reference_gru_forward(fwd, x),
                            reference_gru_forward(bwd, x, reverse=True)],
                           axis=1),
            _pair_tensors(fwd, bwd, x), (seq, 6), seed=seq + 3)


def test_bidaf_out_matches_reference(monkeypatch):
    head = BidafOut(4, 6, 3, Rng(0))
    att = Tensor(Rng(1).normal((10, 4)), requires_grad=True)
    dec = Tensor(Rng(2).normal((10, 6)), requires_grad=True)
    mask = [False, False, True, True, True, True, True, True, True, False]
    tensors = {"att": att, "dec": dec, **head.parameters()}

    def forward():
        start, end = head.forward(att, dec, mask)
        return concat([start.reshape(-1, 1), end.reshape(-1, 1)], axis=1)

    def reference_end_rnn(cell, x, lengths=None):
        assert lengths is None  # one sequence
        return reference_gru_forward(cell, x)

    def reference():
        with monkeypatch.context() as m:
            m.setattr(heads, "gru_forward", reference_end_rnn)
            return forward()

    _assert_fused_matches_reference(forward, reference, tensors, (10, 2),
                                    seed=3)


# chunk lengths for the batched scans: unequal, a one-row chunk, and the
# longest chunk neither first nor last
CHUNKS = [5, 1, 9, 3]


def _chunked(lengths):
    ends = np.cumsum(lengths)
    return list(zip((ends - lengths).tolist(), ends.tolist()))


def _batched_case(cell, D, lengths, seed):
    """Per-direction scan inputs over the packed rows of ``lengths``, the
    batched scan, and the same scan run once per chunk and concatenated."""
    rng = Rng(seed)
    h, N = 3, sum(lengths)
    widths = {"gru": [2 * h, h], "lstm": [4 * h]}[cell]
    reverse = [False, True][:D]
    xs = [[Tensor(rng.normal((N, w)), requires_grad=True) for _ in reverse]
          for w in widths]
    Us = [[Tensor(0.5 * rng.normal((h, w)), requires_grad=True)
           for _ in reverse] for w in widths]
    scans = {"gru": gru_scans, "lstm": lstm_scans}[cell]

    def batched():
        return scans(*xs, *Us, reverse, lengths)

    def per_chunk():
        return concat([scans(*[[x[lo:hi] for x in group] for group in xs],
                             *Us, reverse)
                       for lo, hi in _chunked(lengths)], axis=0)

    tensors = {f"{kind}{i}.{d}": t
               for kind, groups in (("x", xs), ("U", Us))
               for i, group in enumerate(groups) for d, t in enumerate(group)}
    return batched, per_chunk, tensors, (N, D * h)


@pytest.mark.parametrize("cell", ["gru", "lstm"])
@pytest.mark.parametrize("D", [1, 2])
def test_batched_scans_match_per_chunk_scans(cell, D):
    """B chunks of unequal length in one scan: outputs and every gradient
    within 1e-12 of one scan per chunk, in both directions."""
    for lengths in (CHUNKS, CHUNKS[::-1], [4, 4]):
        batched, per_chunk, tensors, shape = _batched_case(cell, D, lengths,
                                                           seed=len(lengths))
        _assert_fused_matches_reference(batched, per_chunk, tensors, shape,
                                        seed=D, exact=False)


# explicit ids keep each layer's public name: the two names of one shape
# are one function, whose own name is private
@pytest.mark.parametrize("birnn, cell_type, reference", [
    (bilstm_forward, LSTMCell, reference_lstm_forward),
    (bigru_forward, GRUCell, reference_gru_forward)], ids=[
    "bilstm_forward-LSTMCell-reference_lstm_forward",
    "bigru_forward-GRUCell-reference_gru_forward"])
def test_batched_birnn_matches_reference_per_chunk(birnn, cell_type,
                                                   reference):
    """The layers' packed BiRNN against the per-step reference loops run
    on each chunk alone: the backward direction reverses each chunk
    within its own length."""
    _assert_birnn_matches_reference_per_chunk(birnn, cell_type, reference,
                                              CHUNKS)


def _assert_birnn_matches_reference_per_chunk(birnn, cell_type, reference,
                                              lengths):
    fwd, bwd = cell_type(5, 3, Rng(0)), cell_type(5, 3, Rng(1))
    x = Tensor(Rng(2).normal((sum(lengths), 5)), requires_grad=True)

    def per_chunk():
        return concat([concat([reference(fwd, x[lo:hi]),
                               reference(bwd, x[lo:hi], reverse=True)],
                              axis=1)
                       for lo, hi in _chunked(lengths)], axis=0)

    _assert_fused_matches_reference(
        lambda: birnn(fwd, bwd, x, lengths), per_chunk,
        _pair_tensors(fwd, bwd, x), (sum(lengths), 6), seed=4, exact=False)


def test_one_chunk_batch_is_the_plain_scan():
    """lengths=[N] is the default single sequence, bit for bit."""
    batched, _, tensors, shape = _batched_case("gru", 2, [7], seed=0)
    plain = gru_scans(*[[t for n, t in tensors.items() if n.startswith(k)]
                        for k in ("x0", "x1", "U0", "U1")], [False, True])
    assert batched().data.tobytes() == plain.data.tobytes()


def test_step_order_scatter_inverts_pack():
    """``pack`` takes every direction's packed rows out of a scan's
    step-order buffer and ``scatter`` puts them back: on live steps
    ``scatter(pack(X))`` is X, and padded steps hold 0.  A row t of a
    chunk of L rows is step t forward and step L - 1 - t in reverse."""
    lengths, k = [3, 5, 2], 4
    bounds = chunk_bounds(lengths, sum(lengths), "test")
    order = autograd._StepOrder(bounds, [False, True])
    assert order.shape == (5, 2, 3)
    X = Rng(0).normal((*order.shape, k))
    rows = order.pack(X)
    assert rows.shape == (sum(lengths), 2 * k)
    for b, (lo, hi) in enumerate(bounds):
        for t in range(hi - lo):
            assert (rows[lo + t, :k] == X[t, 0, b]).all()
            assert (rows[lo + t, k:] == X[hi - lo - 1 - t, 1, b]).all()
    back = order.scatter(rows)
    live = (np.arange(5)[:, None] < lengths)[:, None, :, None]
    assert (back == np.where(live, X, 0.0)).all()
    assert order.pack(back).tobytes() == rows.tobytes()


def test_chunk_lengths_checked():
    x = [np.zeros((5, 8))]
    U = [np.zeros((2, 8))]
    with pytest.raises(ValueError, match="do not add up to 5"):
        lstm_scans(x, U, [False], [2, 2])
    with pytest.raises(ValueError, match="empty"):
        lstm_scans(x, U, [False], [5, 0])
    # the one rule behind every packed-chunk layer
    assert chunk_bounds(None, 5, "scan") == [(0, 5)]
    assert chunk_bounds([2, 1, 2], 5, "scan") == [(0, 2), (2, 3), (3, 5)]
    for lengths, rows, message in (
            ([2, 2], 5, "[2, 2] do not add up to 5 rows"),
            ([5, 0], 5, "[5, 0] include an empty chunk"),
            (None, 0, "[0] include an empty chunk")):
        with pytest.raises(ValueError) as info:
            chunk_bounds(lengths, rows, "scan")
        assert str(info.value) == f"scan: chunk lengths {message}"


def _graph_nodes(out):
    seen, nodes, stack = set(), [], [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


@pytest.mark.parametrize("forward, cell_type", [(lstm_forward, LSTMCell),
                                                (gru_forward, GRUCell)],
                         ids=["lstm_forward-LSTMCell", "gru_forward-GRUCell"])
def test_graph_size_independent_of_length(forward, cell_type):
    cell = cell_type(3, 2, Rng(0))
    sizes = {seq: len(_graph_nodes(forward(cell, Tensor(np.ones((seq, 3))),
                                           reverse=True)))
             for seq in (2, 30)}
    assert sizes[2] == sizes[30]


@pytest.mark.parametrize("forward, cell_type, recurrent", [
    (bilstm_forward, LSTMCell, ("U",)),
    (bigru_forward, GRUCell, ("U_ur", "U_c"))], ids=[
    "bilstm_forward-LSTMCell-recurrent0", "bigru_forward-GRUCell-recurrent1"])
def test_one_scan_node_per_birnn(forward, cell_type, recurrent):
    """Both directions run in one scan node, whatever the length."""
    cells = cell_type(3, 2, Rng(0)), cell_type(3, 2, Rng(1))
    weights = {id(getattr(c, name)) for c in cells for name in recurrent}
    sizes = {}
    for seq in (1, 2, 30):
        nodes = _graph_nodes(forward(*cells, Tensor(np.ones((seq, 3)))))
        scans = [n for n in nodes
                 if any(id(p) in weights for p in n._parents)]
        assert scans == [nodes[0]], seq  # the output node, and only it
        sizes[seq] = len(nodes)
    assert sizes[1] == sizes[2] == sizes[30]


class TestNonFinite:
    """An overflowing gate pre-activation is squashed to a finite gate value
    by sigmoid/tanh, so the outputs alone do not show it."""

    @staticmethod
    def _saturated_lstm():
        cell = LSTMCell(3, 4, Rng(0))
        cell.U.data[...] = 1e308
        cell.b.data[...] = 10.0
        return cell

    @staticmethod
    def _saturated_gru():
        cell = GRUCell(3, 4, Rng(0))
        cell.U_ur.data[...] = 1e308
        cell.U_c.data[...] = 1e308
        cell.b_ur.data[...] = 10.0
        cell.b_c.data[...] = 10.0
        return cell

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_gate_overflow_raises(self, reverse):
        cell = self._saturated_lstm()
        x = Tensor(Rng(1).normal((3, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                reference_lstm_forward(cell, x, reverse)
            with pytest.raises(FloatingPointError, match="by lstm_scans$"):
                lstm_forward(cell, x, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_gate_overflow_raises(self, reverse):
        cell = self._saturated_gru()
        x = Tensor(Rng(1).normal((3, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                reference_gru_forward(cell, x, reverse)
            with pytest.raises(FloatingPointError, match="by gru_scans$"):
                gru_forward(cell, x, reverse)

    @pytest.mark.parametrize("forward, saturated, cell_type", [
        (bilstm_forward, "_saturated_lstm", LSTMCell),
        (bigru_forward, "_saturated_gru", GRUCell)], ids=[
        "bilstm_forward-_saturated_lstm-LSTMCell",
        "bigru_forward-_saturated_gru-GRUCell"])
    @pytest.mark.parametrize("which", [0, 1])
    def test_stacked_gate_overflow_raises(self, forward, saturated,
                                          cell_type, which):
        """Either direction of a stacked scan overflowing is caught."""
        cells = [cell_type(3, 4, Rng(2)), cell_type(3, 4, Rng(3))]
        cells[which] = getattr(self, saturated)()
        x = Tensor(Rng(1).normal((3, 3)))
        kind = "lstm" if cell_type is LSTMCell else "gru"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match=f"by {kind}_scans$"):
                forward(*cells, x)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_large_finite_projection_is_checked_per_step(self, kind,
                                                         monkeypatch):
        """A projection near 1e307 fails the overflow bound, so every step
        checks its pre-activations, and as none overflows nothing raises;
        ordinary values pass the bound and check no step."""
        cell_type, forward = LAYERS[kind]
        cell = cell_type(3, 4, Rng(0))
        x = Tensor(Rng(1).normal((5, 3)))
        checked = []
        check = autograd._check_finite

        def counting(arr, op=None):
            checked.append(op)
            return check(arr, op)

        monkeypatch.setattr(autograd, "_check_finite", counting)
        forward(cell, x)
        assert f"{kind}_scans" not in checked
        bias = cell.b if kind == "lstm" else cell.b_c
        bias.data[0] = 1e307
        out = forward(cell, x)
        steps = {"lstm": 5, "gru": 10}[kind]  # a GRU checks twice a step
        assert checked.count(f"{kind}_scans") == steps
        assert np.isfinite(out.data).all()

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_nan_input_names_the_node(self, kind):
        cell_type, forward = LAYERS[kind]
        x = Tensor(Rng(1).normal((4, 3)), requires_grad=True)
        x.data[2, 1] = np.nan  # past the Tensor's own check
        with pytest.raises(FloatingPointError, match=f"by {kind}_scans$"):
            forward(cell_type(3, 4, Rng(0)), x)


LAYERS = {"lstm": (LSTMCell, lstm_forward), "gru": (GRUCell, gru_forward)}
BLOCK = autograd.SCAN_BLOCK  # steps projected at once


def _layer_node(kind, cells, x, reverse, lengths):
    if kind == "lstm":
        return lstm_layer(x, [c.W for c in cells], [c.b for c in cells],
                          [c.U for c in cells], reverse, lengths)
    return gru_layer(x, [c.W_ur for c in cells], [c.b_ur for c in cells],
                     [c.W_c for c in cells], [c.b_c for c in cells],
                     [c.U_ur for c in cells], [c.U_c for c in cells],
                     reverse, lengths)


def _projections_and_scan(kind, cells, x, reverse, lengths):
    """The chain a layer node replaced: one ``affine`` node per input
    projection, feeding the scan node."""
    if kind == "lstm":
        return lstm_scans([affine(x, c.W, c.b) for c in cells],
                          [c.U for c in cells], reverse, lengths)
    return gru_scans([affine(x, c.W_ur, c.b_ur) for c in cells],
                     [affine(x, c.W_c, c.b_c) for c in cells],
                     [c.U_ur for c in cells], [c.U_c for c in cells],
                     reverse, lengths)


@pytest.mark.parametrize("birnn, cell_type, reference", [
    (bilstm_forward, LSTMCell, reference_lstm_forward),
    (bigru_forward, GRUCell, reference_gru_forward)], ids=[
    "bilstm_forward-LSTMCell-reference_lstm_forward",
    "bigru_forward-GRUCell-reference_gru_forward"])
@pytest.mark.parametrize("lengths", [[2 * BLOCK + 1, BLOCK + 1, 3],
                                     [3, BLOCK + 2, 2 * BLOCK + 1]])
def test_packed_chunks_across_block_edges_match_reference(
        birnn, cell_type, reference, lengths):
    """Chunks longer than a block of projected steps, against the per-step
    reference loops: a shorter chunk's reverse direction crosses a block
    edge inside the chunk."""
    _assert_birnn_matches_reference_per_chunk(birnn, cell_type, reference,
                                              lengths)


class TestLayerNode:
    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    @pytest.mark.parametrize("D", [1, 2])
    # one block; a 1-step remainder joining the block before it; a block
    # and a block with one step more; a 1-row input; two 1-row chunks
    @pytest.mark.parametrize("lengths", [
        None, CHUNKS, [BLOCK + 1], [BLOCK + 1, 1], [2 * BLOCK + 1, BLOCK + 1],
        [1], [1, 1]])
    def test_bytes_equal_projections_and_scan(self, kind, D, lengths):
        """Values and the gradients of x, W, b and U, byte for byte."""
        cells = [LAYERS[kind][0](5, 3, Rng(d)) for d in range(D)]
        n = sum(lengths) if lengths else 12
        x = Tensor(Rng(7).normal((n, 5)), requires_grad=True)
        reverse = [False, True][:D]
        tensors = {"x": x} | {f"{d}.{name}": p for d, c in enumerate(cells)
                              for name, p in c.parameters().items()}
        weights = Rng(8).normal((n, 3 * D))
        got, got_grads = _value_and_grads(
            lambda: _layer_node(kind, cells, x, reverse, lengths), tensors,
            weights)
        want, want_grads = _value_and_grads(
            lambda: _projections_and_scan(kind, cells, x, reverse, lengths),
            tensors, weights)
        assert got.tobytes() == want.tobytes()
        for name in tensors:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), \
                name

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_negative_zero_upstream_rows(self, kind):
        """The node's own backward gets an upstream gradient with -0.0
        rows (a root hands it over as is; a buffer that ``backward`` fills
        would start at +0.0); x, W, b and U still get the chain's bytes."""
        cells = [LAYERS[kind][0](5, 3, Rng(d)) for d in range(2)]
        x = Tensor(Rng(7).normal((9, 5)), requires_grad=True)
        tensors = {"x": x} | {f"{d}.{name}": p for d, c in enumerate(cells)
                              for name, p in c.parameters().items()}
        dy = Rng(8).normal((9, 6))
        dy[::2] = -0.0
        grads = []
        for forward in (_layer_node, _projections_and_scan):
            for t in tensors.values():
                t.zero_grad()
            y = forward(kind, cells, x, [False, True], [4, 5])
            Tensor._op(np.zeros(()), (y,),
                       lambda _, y=y: setattr(y, "grad", dy.copy())).backward()
            grads.append({n: t.grad.tobytes() for n, t in tensors.items()})
        assert grads[0] == grads[1]

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_one_node_over_input_and_weights(self, kind):
        cells = [LAYERS[kind][0](3, 2, Rng(d)) for d in range(2)]
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        out = _layer_node(kind, cells, x, [False, True], None)
        weights = {id(p) for c in cells for p in c.parameters().values()}
        assert out._parents[0] is x
        assert {id(p) for p in out._parents[1:]} == weights
        assert len(out._parents) == 1 + len(weights)

    @pytest.mark.parametrize("kind", ["lstm", "gru"])
    def test_input_without_gradient(self, kind):
        """x takes no gradient; the weights still get the chain's bytes."""
        cells = [LAYERS[kind][0](5, 3, Rng(d)) for d in range(2)]
        x = Tensor(Rng(7).normal((9, 5)))
        tensors = {f"{d}.{name}": p for d, c in enumerate(cells)
                   for name, p in c.parameters().items()}
        weights = Rng(8).normal((9, 6))
        runs = [_value_and_grads(
            lambda: f(kind, cells, x, [False, True], [4, 5]), tensors,
            weights) for f in (_layer_node, _projections_and_scan)]
        assert x.grad is None
        for name in tensors:
            assert runs[0][1][name].tobytes() == runs[1][1][name].tobytes()


def _held(forward):
    """Bytes still allocated after ``forward()``, its result alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = forward()  # noqa: F841 (held while measured)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("birnn, cell_type, per_step", [
    (bilstm_forward, LSTMCell, 3), (bigru_forward, GRUCell, 2)],
    ids=["bilstm_forward-LSTMCell-3", "bigru_forward-GRUCell-2"])
def test_a_scan_holds_only_what_its_backward_reads(birnn, cell_type,
                                                   per_step):
    """Recorded, a BiRNN holds, per step, direction and hidden unit, the
    LSTM's c and h or the GRU's h, plus its output (1); with half a float
    more for the stacked weights, the step indices (3 int64 per step) and
    the objects.  Its backward rebuilds the gates and candidates (7 and 5
    floats while they were kept).  Without a graph it holds its output
    alone."""
    T, h = 300, 8
    cells = [cell_type(4, h, Rng(d)) for d in range(2)]
    x = Tensor(Rng(2).normal((T, 4)))
    unit = T * 2 * h * 8  # one float per step, direction and hidden unit
    assert _held(lambda: birnn(*cells, x)) <= (per_step + 0.5) * unit
    with no_grad():
        assert _held(lambda: birnn(*cells, x)) <= 1.05 * unit


@pytest.mark.parametrize("birnn, cell_type, peak", [
    (bilstm_forward, LSTMCell, 115_600), (bigru_forward, GRUCell, 112_900)],
    ids=["bilstm_forward-LSTMCell-115600", "bigru_forward-GRUCell-112900"])
def test_without_a_graph_projections_go_a_block_at_a_time(birnn, cell_type,
                                                          peak):
    """Without a graph a BiRNN over 300 rows peaks at its states and its
    output (38.4 kB each), not at a [T, D, B, k] buffer of projections:
    the input is projected 32 steps at a time.  Bound: 1.05 times the
    peak measured (the whole-sequence projections peaked at 384/248 kB)."""
    cells = [cell_type(4, 8, Rng(d)) for d in range(2)]
    x = Tensor(Rng(2).normal((300, 4)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with no_grad():
            out = birnn(*cells, x)  # noqa: F841 (alive at the peak)
        top = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert top <= 1.05 * peak


SCAN_GRADIENT_DIGESTS = Path(__file__).with_name("scan_gradient_digests.json")


def scan_gradient_digests() -> dict:
    """sha256 of every gradient of a BiGRU and a BiLSTM layer over three
    packed chunks (B = 3) of 40, 33 and 37 rows, two blocks of steps, after
    a backward from a random upstream gradient: kind -> name -> digest."""
    digests = {}
    for kind, birnn in (("gru", bigru_forward), ("lstm", bilstm_forward)):
        cells = [LAYERS[kind][0](6, 5, Rng(30 + d)) for d in range(2)]
        x = Tensor(Rng(40).normal((110, 6)), requires_grad=True)
        out = birnn(*cells, x, lengths=[40, 33, 37])
        (out * Tensor(Rng(41).normal(out.shape))).sum().backward()
        tensors = {"x": x, **{f"{d}.{name}": p for d, c in enumerate(cells)
                              for name, p in c.parameters().items()}}
        digests[kind] = {name: hashlib.sha256(t.grad.tobytes()).hexdigest()
                         for name, t in tensors.items()}
    return digests


def test_rebuilt_gates_give_the_kept_gates_gradient_bytes():
    """A recorded scan's backward rebuilds its gates and candidates from h
    a block at a time; every gradient keeps the bytes it had when the
    forward kept them for the backward.  ``scan_gradient_digests.json``
    holds the digests made then (commit 6fd85e0) and the build that made
    them (numpy, BLAS, thread variables, machine), which a failure names
    beside this run's."""
    want = json.loads(SCAN_GRADIENT_DIGESTS.read_text())
    got = {**cli._build(), "machine": platform.machine()}
    assert scan_gradient_digests() == want["digests"], (
        f"digests made with {({k: v for k, v in want.items() if k != 'digests'})}"
        f"; this run has {got}")


def test_blas_gives_gathered_rows_the_full_products_bits():
    """The property the layer nodes' blocked projections rest on; without
    it they still run, but differ from ``affine`` in the last bits."""
    bad = autograd.gathered_rows_mismatches(Rng(5))
    assert bad == [], f"{autograd.GATHERED_ROWS_PROPERTY}; fails at {bad}"


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty"):
        lstm_forward(LSTMCell(3, 2, Rng(0)), Tensor(np.zeros((0, 3))))


@pytest.mark.parametrize("kind", ["lstm", "gru"])
def test_layer_needs_a_rank_2_input(kind):
    cells = [LAYERS[kind][0](3, 2, Rng(0))]
    with pytest.raises(ValueError) as e:
        _layer_node(kind, cells, Tensor(np.ones((2, 4, 3))), [False], None)
    assert str(e.value) == (f"{kind}_layer expects x [N, d], got shape "
                            f"(2, 4, 3)")


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="lstm_scan"):
        lstm_scan(np.zeros((3, 8)), np.zeros((2, 6)))
    with pytest.raises(ValueError, match="gru_scan"):
        gru_scan(np.zeros((3, 4)), np.zeros((3, 2)), np.zeros((2, 4)),
                 np.zeros((3, 3)))
    with pytest.raises(ValueError, match="lstm_scan shapes disagree"):
        lstm_scans([np.zeros((3, 8))] * 2, [np.zeros((2, 8))], [False, True])
