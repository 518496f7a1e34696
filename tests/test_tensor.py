import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import squadlab
from squadlab import autograd
from squadlab.autograd import (AdamState, Module, Rng, Tensor, _consumed,
                               _sigmoid, _sigmoid_scratch, adam_step,
                               backward, concat, cross_entropy_from_logits,
                               elementwise, init_uniform, load_checkpoint,
                               masked_fill, matmul, no_grad, save_checkpoint,
                               softmax, stack, zero_grads)
from squadlab.data import DataError, read_records, write_records
from squadlab.gradcheck import check_gradients, numerical_gradient
from squadlab.layers import GRUCell, LSTMCell, bigru_forward, bilstm_forward


class TestElementwise:
    def test_sigmoid_zero(self):
        assert elementwise("sigmoid", Tensor([0.0])).data[0] == 0.5

    @staticmethod
    def _masked_sigmoid(x):
        """Branch-by-mask form of the stable logistic: the reference."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_sigmoid_bit_identical_to_masked_form(self):
        npr = np.random.default_rng(0)
        # a Tensor refuses the two infinities at the end; _sigmoid takes them
        special = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324,
                            36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 1e300,
                            -1e300, np.inf, -np.inf])
        scratches = {}
        for n in range(1, 70):
            for scale in (0.1, 3.0, 40.0, 800.0):
                x = np.concatenate([npr.normal(0.0, scale, n), special])
                for shape in ((x.size,), (1, x.size)):
                    want = self._masked_sigmoid(x.reshape(shape))
                    got = elementwise("sigmoid",
                                      Tensor(x.reshape(shape)[..., :-2]))
                    assert np.array_equal(got.data.view(np.int64),
                                          want[..., :-2].view(np.int64))
                    # the scans' path: a scratch buffer reused across calls
                    # and a preallocated output
                    scratch = scratches.setdefault(
                        shape, _sigmoid_scratch(shape))
                    out = np.full(shape, np.nan)
                    assert _sigmoid(x.reshape(shape), out=out,
                                    scratch=scratch) is out
                    assert np.array_equal(out.view(np.int64),
                                          want.view(np.int64))
                    # the highway's path: in place
                    inplace = x.reshape(shape).copy()
                    assert _sigmoid(inplace, out=inplace) is inplace
                    assert np.array_equal(inplace.view(np.int64),
                                          want.view(np.int64))
        assert elementwise("sigmoid", Tensor(0.0)).data.shape == ()

    def test_relu(self):
        out = elementwise("relu", Tensor([-1.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 2.0])

    def test_add(self):
        out = elementwise("add", Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        assert np.array_equal(out.data, [4.0, 6.0])

    def test_broadcast_trailing(self):
        out = Tensor(np.ones((2, 3))) + Tensor(np.arange(3.0))
        assert out.data.shape == (2, 3)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)"):
            Tensor([1.0, 2.0]) + Tensor([1.0, 2.0, 3.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="op_kind"):
            elementwise("log", Tensor([1.0]))

    @pytest.mark.parametrize("kind, operands, why", [
        ("tanh", 2, "tanh is unary"), ("mul", 1, "mul needs two operands")])
    def test_arity(self, kind, operands, why):
        with pytest.raises(ValueError) as e:
            elementwise(kind, *[Tensor([1.0])] * operands)
        assert str(e.value) == why

    def test_sub_gradient_of_each_operand(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([[3.0, 5.0], [7.0, 9.0]], requires_grad=True)
        (elementwise("sub", a, b) * Tensor([[1.0, 2.0], [3.0, 4.0]])
         ).sum().backward()
        assert a.grad.tolist() == [4.0, 6.0]
        assert b.grad.tolist() == [[-1.0, -2.0], [-3.0, -4.0]]

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_transpose_needs_rank_2(self, shape):
        with pytest.raises(ValueError) as e:
            Tensor(np.ones(shape)).transpose()
        assert str(e.value) == f"transpose expects rank-2, got shape {shape}"

    def test_nonfinite_rejected(self):
        with pytest.raises(FloatingPointError):
            Tensor([np.nan])


class TestModule:
    def test_walks_attributes_in_assignment_order(self):
        class Leaf(Module):
            def __init__(self):
                self.width = 3
                self.W = Tensor([1.0])
                self.b = Tensor([2.0])

        class Tree(Module):
            def __init__(self):
                self.z = Tensor([0.0])
                self.layers = [Leaf(), Leaf()]
                self.cfg = {"W": Tensor([9.0])}  # not a parameter
                self.missing = None
                self.a = Leaf()
                self.missing = Leaf()  # keeps its first-assigned slot

        tree = Tree()
        assert list(tree.parameters()) == [
            "z", "layers.0.W", "layers.0.b", "layers.1.W", "layers.1.b",
            "missing.W", "missing.b", "a.W", "a.b"]
        assert tree.parameters()["a.b"] is tree.a.b


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_inner_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data[0, 0] == 11.0

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = Rng(seed)
        a = Tensor(rng.normal((4, 3)), requires_grad=True)
        b = Tensor(rng.normal((3, 2)), requires_grad=True)
        check_gradients(lambda: matmul(a, b).sum(), {"a": a, "b": b},
                        rtol=1e-6)

    @pytest.mark.parametrize("a, b", [((2, 4, 3), (3, 2)),
                                      ((4, 3), (2, 3, 2))],
                             ids=["rank-3-a", "rank-3-b"])
    def test_rank_3_operand_rejected_naming_shapes(self, a, b):
        with pytest.raises(ValueError) as info:
            matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))
        assert str(info.value) == (
            f"matmul expects rank-2 operands; got {a} and {b}")


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_large_inputs_no_overflow(self):
        out = softmax(Tensor([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_log_weights(self):
        x = Tensor([math.log(1), math.log(2), math.log(3)])
        assert np.allclose(softmax(x).data, [1 / 6, 2 / 6, 3 / 6], atol=1e-9)

    def test_rows_sum_to_one(self):
        rng = Rng(0)
        out = softmax(Tensor(rng.normal((5, 7)) * 10), axis=1)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert (out.data >= 0).all()

    def test_shift_invariance(self):
        rng = Rng(1)
        x = rng.normal((4, 6))
        a = softmax(Tensor(x), axis=1).data
        b = softmax(Tensor(x + 17.5), axis=1).data
        assert np.allclose(a, b, atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            softmax(Tensor([1.0, 2.0]), axis=2)

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient(self, seed):
        rng = Rng(seed)
        x = Tensor(rng.normal((3, 4)), requires_grad=True)
        w = Tensor(rng.normal((3, 4)))
        check_gradients(lambda: (softmax(x, axis=1) * w).sum(), {"x": x},
                        rtol=1e-6)


class TestMaskedFill:
    def test_fill(self):
        out = masked_fill(Tensor([1.0, 2.0, 3.0]), [False, True, False],
                          -1e30)
        assert np.array_equal(out.data, [1.0, -1e30, 3.0])

    def test_all_false_identity(self):
        x = Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(masked_fill(x, [False] * 3, -1e30).data, x.data)

    def test_masked_probability_negligible(self):
        rng = Rng(2)
        for _ in range(20):
            x = Tensor(rng.normal(8) * 5)
            mask = rng.uniform(0, 1, 8) < 0.4
            mask[0] = False  # keep at least one live position
            probs = softmax(masked_fill(x, mask, -1e30)).data
            assert (probs[mask] < 1e-9).all()

    def test_gradient_blocked_on_masked_positions(self):
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        out = masked_fill(x, [False, True, False], -1e30)
        out.sum().backward()
        assert np.array_equal(x.grad, [1.0, 0.0, 1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask shape"):
            masked_fill(Tensor(np.ones((2, 3))), np.zeros((4,), dtype=bool),
                        0.0)


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = cross_entropy_from_logits(Tensor([[0.0, 0.0]]), [0])
        assert abs(float(loss.data) - math.log(2)) < 1e-12

    def test_confident_correct(self):
        loss = cross_entropy_from_logits(Tensor([[10.0, -10.0]]), [0])
        assert float(loss.data) < 1e-8

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="index 5 out of range.*2"):
            cross_entropy_from_logits(Tensor([[0.0, 0.0]]), [5])

    @pytest.mark.parametrize("logits, targets, why", [
        ([0.0, 0.0], [0], "logits must be [batch, seq], got (2,)"),
        ([[0.0, 0.0]], [0, 1], "need 1 targets, got shape (2,)"),
        ([[0.0, 0.0]], 0, "need 1 targets, got shape ()")])
    def test_shapes_it_cannot_take(self, logits, targets, why):
        with pytest.raises(ValueError) as e:
            cross_entropy_from_logits(Tensor(logits), targets)
        assert str(e.value) == why

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_is_softmax_minus_onehot(self, seed):
        rng = Rng(seed)
        x = Tensor(rng.normal((2, 5)), requires_grad=True)
        loss = cross_entropy_from_logits(x, [1, 3])
        loss.backward()
        probs = softmax(Tensor(x.data), axis=1).data
        expected = probs.copy()
        expected[0, 1] -= 1
        expected[1, 3] -= 1
        assert np.allclose(x.grad, expected / 2, atol=1e-12)
        numeric = numerical_gradient(
            lambda: cross_entropy_from_logits(x, [1, 3]), x)
        assert np.abs(numeric - x.grad).max() / np.abs(numeric).max() < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_square_gives_two_x(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.array_equal(x.grad, [2.0, -4.0, 6.0])

    def test_accumulates_across_calls(self):
        x = Tensor([1.0], requires_grad=True)
        x.sum().backward()
        x.sum().backward()
        assert x.grad[0] == 2.0

    def test_non_scalar_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            Tensor([1.0, 2.0], requires_grad=True).backward()

    def test_composed_graph_matches_finite_differences(self):
        rng = Rng(9)
        w1 = Tensor(rng.normal((4, 4)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.normal((4, 2)) * 0.5, requires_grad=True)
        x = Tensor(rng.normal((3, 4)))

        def loss():
            h = matmul(x, w1).tanh()
            return cross_entropy_from_logits(matmul(h, w2), [0, 1, 0])

        check_gradients(loss, {"w1": w1, "w2": w2}, rtol=1e-4)

    def test_concat_and_getitem_gradients(self):
        rng = Rng(4)
        a = Tensor(rng.normal((2, 3)), requires_grad=True)
        b = Tensor(rng.normal((2, 3)), requires_grad=True)

        def loss():
            c = concat([a, b], axis=0)
            return (c[1:3] * c[1:3]).sum()

        check_gradients(loss, {"a": a, "b": b}, rtol=1e-6)


_WRONG_BACKWARD = """
from squadlab.autograd import Tensor
from squadlab.gradcheck import check_gradients
x = Tensor([1.0, -2.0, 0.5], requires_grad=True)
# the value of x, but a backward that passes 3x the gradient
tripled = lambda: Tensor._op(x.data.copy(), (x,),
                             lambda g: x._accum(3.0 * g)).sum()
try:
    check_gradients(tripled, {"x": x})
except AssertionError as e:
    print("rejected:", e)
else:
    print("accepted")
"""


class TestGradcheck:
    @pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
    def test_wrong_backward_is_rejected(self, flags):
        # python -O strips assert statements; the check must still fail
        src = str(Path(squadlab.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, *flags, "-c", _WRONG_BACKWARD],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(
            "rejected: gradient mismatch for x: relative error 6.667e-01"), \
            done.stdout


class TestGetitemBackward:
    """The index backward accumulates with np.add.at, so an element picked
    twice gets both contributions."""

    @pytest.mark.parametrize("idx", [
        (slice(None), 0), slice(1, 5), np.array([4, 1, 4, 0, 4])],
        ids=["[:, 0]", "[1:5]", "int-array-with-repeats"])
    def test_bitwise_equal_to_add_at(self, idx):
        rng = Rng(6)
        x = Tensor(rng.normal((6, 3)), requires_grad=True)
        out = x[idx]
        w = rng.normal(out.shape)
        v = rng.normal(x.shape)
        ((out * Tensor(w)).sum() + (x * Tensor(v)).sum()).backward()
        want = np.zeros((6, 3))
        np.add.at(want, idx, w)
        want += v
        assert np.array_equal(x.grad.view(np.int64), want.view(np.int64))

    def test_op_output_indexed_twice(self):
        rng = Rng(7)
        x = Tensor(rng.normal((4, 2)), requires_grad=True)
        y = x * 2.0  # lazy gradient buffer, allocated by the first index
        ((y[:, 0] * y[:, 0]).sum() + y[1:3].sum()).backward()
        want = np.zeros((4, 2))
        want[:, 0] += 2.0 * y.data[:, 0]
        want[1:3] += 1.0
        # y's buffer held want and was released after its backward
        assert y.grad is None
        assert np.array_equal(x.grad.view(np.int64),
                              (2.0 * want).view(np.int64))


class TestNoGrad:
    def test_records_nothing(self):
        rng = Rng(1)
        w = Tensor(rng.normal((3, 2)), requires_grad=True)
        x = Tensor(rng.normal((4, 3)))
        with no_grad():
            outs = [matmul(x, w), (matmul(x, w) + 1.0).tanh(),
                    softmax(matmul(x, w), axis=0), stack([w[0], w[1]]),
                    concat([w, w]), w[:, 0], w.sum()]
        for out in outs:
            assert out._parents == () and out._backward is None
            assert out.grad is None and not out.requires_grad

    def test_same_values_as_recorded(self):
        rng = Rng(2)
        w = Tensor(rng.normal((3, 3)), requires_grad=True)
        x = Tensor(rng.normal((5, 3)))

        def f():
            return softmax(matmul(x, w).sigmoid() * w[0], axis=1).max(axis=1)

        recorded = f()
        with no_grad():
            free = f()
        assert recorded._backward is not None
        assert np.array_equal(free.data.view(np.int64),
                              recorded.data.view(np.int64))

    def test_switch_restored_after_error(self):
        w = Tensor([[1e200]], requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            with no_grad():
                matmul(Tensor([[1e200]]), w)
        out = (w * 2.0).sum()
        assert out._backward is not None
        out.backward()
        assert w.grad[0, 0] == 2.0

    def test_nests(self):
        w = Tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert (w * 2.0)._backward is None
        assert (w * 2.0)._backward is not None


class TestLazyGrad:
    def test_op_output_grad_allocated_by_backward(self):
        w = Tensor([1.0, 2.0], requires_grad=True)
        h = w * 3.0
        out = (h * h).sum()
        assert h.grad is None and out.grad is None
        out.backward()
        # h's buffer held 2h = [6, 12] and was released after its backward
        assert h.grad is None
        assert np.array_equal(w.grad, [18.0, 36.0])

    def test_parameter_has_no_buffer_until_a_backward_reaches_it(self):
        p = init_uniform(Rng(0), (2, 3), 3)
        q = init_uniform(Rng(1), (2, 3), 3)
        assert p.grad is None and q.grad is None
        assert Tensor([1.0], requires_grad=True).grad is None
        (p * 2.0 + q).sum().backward()
        assert np.array_equal(p.grad, np.full((2, 3), 2.0))
        (p * 3.0).sum().backward()
        assert np.array_equal(p.grad, np.full((2, 3), 5.0))
        # zero_grads keeps a buffer and skips a missing one
        zero_grads({"p": p, "r": init_uniform(Rng(2), (2,), 2)})
        assert np.array_equal(p.grad, np.zeros((2, 3)))


class TestBackwardConsumesTheGraph:
    def test_nodes_let_go_of_closure_parents_and_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        loss = (y * y).sum()
        loss.backward()
        for node in (y, loss):
            assert node._parents == ()
            assert node._backward is _consumed
        assert y.grad is None and loss.grad is not None
        assert np.array_equal(x.grad, [8.0, 16.0])

    def test_a_second_backward_of_the_same_loss_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            loss.backward()

    def test_a_new_graph_on_a_used_intermediate_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        y.sum().backward()
        with pytest.raises(RuntimeError, match="already backpropagated"):
            (y * 3.0).sum().backward()
        # a new forward from the leaves backpropagates as before
        (x * 2.0 * 3.0).sum().backward()
        assert np.array_equal(x.grad, [8.0, 8.0])


class TestScanBackwardReleasesItsBuffers:
    """A recurrent layer's backward drops the buffers its forward kept
    before it hands the input projections their gradients."""

    @pytest.mark.parametrize("cell, layer, kept", [
        (GRUCell, bigru_forward, ("H",)),
        (LSTMCell, bilstm_forward, ("C", "H")),
    ], ids=["gru", "lstm"])
    def test_kept_buffers_are_gone_before_the_input_backward(
            self, monkeypatch, cell, layer, kept):
        rng = Rng(0)
        x = Tensor(rng.normal((7, 3)), requires_grad=True)
        out = layer(cell(3, 4, rng), cell(3, 4, rng), x, lengths=[4, 3])
        bwd = out._backward
        closure = dict(zip(bwd.__code__.co_freevars,
                           (c.cell_contents for c in bwd.__closure__)))
        refs = {name: weakref.ref(closure[name]) for name in kept}
        del closure
        alive = []

        def spy(*args, real=autograd._affine_backward):
            alive.append([name for name, ref in refs.items()
                          if ref() is not None])
            real(*args)

        monkeypatch.setattr(autograd, "_affine_backward", spy)
        (out * out).sum().backward()
        # one input projection backward per direction and gate block
        assert len(alive) == 2 * (2 if cell is GRUCell else 1)
        assert alive == [[]] * len(alive)
        assert x.grad is not None


class TestStack:
    def test_gradients(self):
        rng = Rng(3)
        rows = [Tensor(rng.normal(4), requires_grad=True) for _ in range(3)]
        w = Tensor(rng.normal((3, 4)))
        check_gradients(lambda: (stack(rows) * stack(rows) * w).sum(),
                        {f"r{i}": r for i, r in enumerate(rows)}, rtol=1e-6)

    def test_bitwise_equal_to_concat_of_rows(self):
        rng = Rng(4)
        rows = [Tensor(rng.normal(5), requires_grad=True) for _ in range(4)]
        w = Tensor(rng.normal((4, 5)))
        results = []
        for build in (lambda: stack(rows),
                      lambda: concat([r.reshape(1, -1) for r in rows],
                                     axis=0)):
            for r in rows:
                r.zero_grad()
            out = build()
            (out.tanh() * w).sum().backward()
            results.append([out.data] + [r.grad.copy() for r in rows])
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_one_graph_node(self):
        rows = [Tensor([1.0, 2.0], requires_grad=True) for _ in range(3)]
        out = stack(rows)
        assert out.shape == (3, 2)
        assert out._parents == tuple(rows)


class TestNonFiniteNamesOp:
    def test_matmul_overflow(self):
        a = Tensor([[1e200, 1.0]])
        b = Tensor([[1e200], [1.0]])
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="non-finite value produced in "
                                          "forward pass by matmul$"):
            matmul(a, b)

    def test_method_op(self):
        with np.errstate(over="ignore"), pytest.raises(
                FloatingPointError, match="by Tensor.__mul__$"):
            Tensor([1e200]) * Tensor([1e200])

    def test_leaf_keeps_plain_message(self):
        with pytest.raises(FloatingPointError,
                           match="non-finite value produced in forward "
                                 "pass$"):
            Tensor([np.inf])


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        before = p.data.copy()
        adam_step({"p": p}, AdamState(), lr=0.1)
        assert np.array_equal(p.data, before)

    def test_first_step_magnitude(self):
        # with g=1: mhat=1, vhat=1 at t=1, so the step is ~ -lr
        p = Tensor([0.0], requires_grad=True)
        p.grad = np.array([1.0])
        adam_step({"p": p}, AdamState(), lr=0.1)
        assert abs(p.data[0] + 0.1) < 1e-7

    def test_converges_on_quadratic(self):
        w = Tensor([0.0], requires_grad=True)
        state = AdamState()
        for _ in range(100):
            w.zero_grad()
            loss = (w - 3.0) * (w - 3.0)
            loss.sum().backward()
            adam_step({"w": w}, state, lr=0.3)
        assert abs(w.data[0] - 3.0) < 0.05

    def test_step_counter_increments(self):
        p = Tensor([1.0], requires_grad=True)
        state = AdamState()
        for i in range(3):
            p.grad = np.array([0.5])
            adam_step({"p": p}, state, lr=0.01)
            assert state.step == i + 1

    def test_state_shape_mismatch(self):
        p = Tensor([1.0, 2.0], requires_grad=True)
        state = AdamState()
        state.m["p"] = np.zeros(3)
        state.v["p"] = np.zeros(3)
        p.grad = np.ones(2)
        with pytest.raises(ValueError, match="shape"):
            adam_step({"p": p}, state, lr=0.1)


class TestDeterminism:
    def test_rng_stream_reproducible(self):
        a = Rng(42).uniform(-1, 1, 100)
        b = Rng(42).uniform(-1, 1, 100)
        assert np.array_equal(a, b)

    def test_spawn_independent_and_reproducible(self):
        a = Rng(42).spawn(7).normal(10)
        b = Rng(42).spawn(7).normal(10)
        c = Rng(42).spawn(8).normal(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_spawn_keys_a_child_by_its_whole_path(self):
        nested = Rng(42).spawn(4).spawn(5).normal(10)
        assert np.array_equal(nested, Rng(42).spawn(4).spawn(5).normal(10))
        assert not np.array_equal(nested, Rng(42).spawn(5).normal(10))
        # a one-level child keeps the stream of (seed, key)
        flat = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([42, 5]))).standard_normal(10)
        assert np.array_equal(Rng(42).spawn(5).normal(10), flat)

    def test_init_uniform_bounds(self):
        t = init_uniform(Rng(0), (100,), fan_in=16)
        assert (np.abs(t.data) <= 0.25).all()


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = Rng(5)
        params = {
            "a.W": Tensor(rng.normal((7, 3)), requires_grad=True),
            "b.bias": Tensor(rng.uniform(-1e-12, 1e12, 4),
                             requires_grad=True),
        }
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, params, seed=99,
                        hyperparams={"learning_rate": 3e-5})
        loaded, seed, hp = load_checkpoint(path)
        assert seed == 99
        assert hp == {"learning_rate": 3e-5}
        for name, p in params.items():
            assert loaded[name].shape == p.data.shape
            assert np.array_equal(loaded[name], p.data)

    def test_a_record_at_another_index_is_refused(self, tmp_path):
        # save_checkpoint writes index 0 only; a second head.W at index 1
        # would otherwise replace the first without a word
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, {"head.W": Tensor(np.ones((2, 3)))}, seed=1,
                        hyperparams={})
        header, records = read_records(path, autograd.CHECKPOINT_MAGIC,
                                       autograd.CHECKPOINT_VERSION)
        records.append(("head.W", 1, np.full((2, 3), 7.0)))
        write_records(path, autograd.CHECKPOINT_MAGIC,
                      autograd.CHECKPOINT_VERSION, header, records)
        with pytest.raises(DataError) as e:
            load_checkpoint(path)
        assert str(e.value) == (f"{path}: parameter 'head.W' is stored at "
                                f"index 1; a checkpoint keeps each at "
                                f"index 0")

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="bad magic b'{\"he', expected "
                                             "b'SQCK'"):
            load_checkpoint(path)

    def test_zero_grads(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([5.0])
        zero_grads({"p": p})
        assert p.grad[0] == 0.0
