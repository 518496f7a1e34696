"""The fused recurrences against the per-step reference they replace.

``reference_lstm_forward`` and ``reference_gru_forward`` are the
timestep-by-timestep Tensor loops the layers used before the whole
sequence became one graph node.  They stay here as the oracle: the fused
forward must reproduce them exactly, and its hand-written backward must
agree with their op-by-op gradients to rounding.
"""

import numpy as np
import pytest

from squadlab import heads
from squadlab.autograd import (Rng, Tensor, concat, gru_scan, lstm_scan,
                               lstm_scans, matmul)
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
                                    seed):
    weights = Rng(seed).normal(out_shape)
    got, got_grads = _value_and_grads(fused, tensors, weights)
    want, want_grads = _value_and_grads(reference, tensors, weights)
    assert np.array_equal(got, want)
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

    def reference():
        with monkeypatch.context() as m:
            m.setattr(heads, "gru_forward", reference_gru_forward)
            return forward()

    _assert_fused_matches_reference(forward, reference, tensors, (10, 2),
                                    seed=3)


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
                                                (gru_forward, GRUCell)])
def test_graph_size_independent_of_length(forward, cell_type):
    cell = cell_type(3, 2, Rng(0))
    sizes = {seq: len(_graph_nodes(forward(cell, Tensor(np.ones((seq, 3))),
                                           reverse=True)))
             for seq in (2, 30)}
    assert sizes[2] == sizes[30]


@pytest.mark.parametrize("forward, cell_type, recurrent", [
    (bilstm_forward, LSTMCell, ("U",)),
    (bigru_forward, GRUCell, ("U_ur", "U_c"))])
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
            with pytest.raises(FloatingPointError):
                lstm_forward(cell, x, reverse)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gru_gate_overflow_raises(self, reverse):
        cell = self._saturated_gru()
        x = Tensor(Rng(1).normal((3, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                reference_gru_forward(cell, x, reverse)
            with pytest.raises(FloatingPointError):
                gru_forward(cell, x, reverse)

    @pytest.mark.parametrize("forward, saturated, cell_type", [
        (bilstm_forward, "_saturated_lstm", LSTMCell),
        (bigru_forward, "_saturated_gru", GRUCell)])
    @pytest.mark.parametrize("which", [0, 1])
    def test_stacked_gate_overflow_raises(self, forward, saturated,
                                          cell_type, which):
        """Either direction of a stacked scan overflowing is caught."""
        cells = [cell_type(3, 4, Rng(2)), cell_type(3, 4, Rng(3))]
        cells[which] = getattr(self, saturated)()
        x = Tensor(Rng(1).normal((3, 3)))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError):
                forward(*cells, x)


def test_empty_sequence_rejected():
    with pytest.raises(ValueError, match="empty"):
        lstm_forward(LSTMCell(3, 2, Rng(0)), Tensor(np.zeros((0, 3))))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="lstm_scan"):
        lstm_scan(np.zeros((3, 8)), np.zeros((2, 6)))
    with pytest.raises(ValueError, match="gru_scan"):
        gru_scan(np.zeros((3, 4)), np.zeros((3, 2)), np.zeros((2, 4)),
                 np.zeros((3, 3)))
    with pytest.raises(ValueError, match="lstm_scan shapes disagree"):
        lstm_scans([np.zeros((3, 8))] * 2, [np.zeros((2, 8))], [False, True])
