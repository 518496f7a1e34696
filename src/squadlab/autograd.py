"""Minimal fp64 tensor engine with reverse-mode automatic differentiation.

Everything downstream (layers, heads, training) is expressed through the
Tensor class below.  Forward values are checked for finiteness on creation,
so NaN/Inf never propagates silently.  The graph is recorded implicitly:
each op output keeps handles to its inputs plus a backward closure, and
``backward`` replays them once in reverse topological order.

The GRU and LSTM recurrences (``gru_scans``, ``lstm_scans``) run a stack
of D directions over B chunks as one graph node: one numpy loop over time
advances every direction and chunk on leading axes ([D, B, h] states),
repeating the per-step Tensor arithmetic (bit for bit for one chunk), with
a hand-written backpropagation-through-time backward.  A BiRNN is one such
node (D = 2); ``gru_scan``/``lstm_scan`` are the D = 1, B = 1 case.  The
tests check them against the per-step reference loop, and a batch against
one scan per chunk.  ``gru_layer``/``lstm_layer`` take the layer input x
and its cells' W, b and U, and fold the input projections ``affine(x, W,
b)`` into the scan: a whole recurrent layer is one node, and its backward
accumulates dx, dW, db and dU itself.  One helper, ``_input_blocks``,
feeds every scan and layer node its input a block of ``SCAN_BLOCK`` steps
at a time and hands back the inputs' gradients, so no projection of the
whole sequence exists; a layer's blocks carry ``affine``'s bits by a BLAS
property that ``gathered_rows_mismatches`` checks (see ``_layer``).  A
recorded scan keeps only its states h (and an LSTM's c); its backward
rebuilds the gates and candidates from them one block of steps at a time,
with the forward's ops and bits, and without a graph it keeps h alone.
Its pre-activations are checked at every step only when a bound on them
cannot rule out an overflow.

Layers build fused nodes the same way, through ``Tensor._op``:
``layers.CharCNN.forward`` is one node per token, and ``stack`` makes the
token rows one node more; ``layers.Highway.forward``, the pooling of
``layers.WeightedAvgAttention`` and ``layers.dropout`` are one node each.
A fused node keeps only what its backward reads, or less where the
backward can recompute it with the forward's ops.  It matches the
chain it replaced (the tests' oracle) byte for byte in every value and in
every gradient a caller can read, a leaf's or the root's: those start at
+0.0, so a -0.0 inside a backward never shows.  It adds the parts of one
input's gradient in the chain's order, since that order changes bytes.

Only the work a caller needs is done.  Inside ``with no_grad():`` an op
records no parents and no backward closure, and the fused nodes keep
nothing for a backward; inference runs there.  An op whose inputs take no
gradient records nothing either.  No tensor holds a gradient buffer until
a backward first accumulates into it, and ``backward`` consumes its
graph: once a node's own backward has run, the node drops its buffer, its
closure (with what it saved) and its parents, and a later backward that
reaches it raises RuntimeError.  Read gradients from leaves: only they
and the root keep one.  Every value is checked for finiteness, and a
failed check in an op names that op.

``save_checkpoint``/``load_checkpoint`` keep named parameters in
``data``'s binary container, the one framing of every fp64 artifact.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, read_records, write_records

MASK_FILL = -1e30


_grad_enabled = True  # flipped by no_grad()


@contextmanager
def no_grad():
    """Record no graph inside the block: ops still compute and check their
    values, but keep no parents or backward closure."""
    global _grad_enabled
    saved = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = saved


def _non_finite(op: str | None = None) -> FloatingPointError:
    where = f" by {op}" if op else ""
    return FloatingPointError(f"non-finite value produced in forward pass{where}")


def _check_finite(arr: np.ndarray, op: str | None = None) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise _non_finite(op)
    return arr


def _records(parents) -> bool:
    """Whether an op over ``parents`` records a graph node: outside
    ``no_grad``, and only when some parent takes a gradient."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None,
             scratch=None) -> np.ndarray:
    """Logistic function that never exponentiates a positive number:
    e^min(x, 0) / (1 + e^-|x|), which is 1 / (1 + e^-x) where x >= 0 and
    e^x / (1 + e^x) elsewhere.  Its one temporary is the denominator;
    ``scratch``, from ``_sigmoid_scratch(x.shape)``, holds it, so a scan
    allocates it once and not on every step.  ``out`` may be ``x``."""
    d = _sigmoid_scratch(np.shape(x)) if scratch is None else scratch
    np.negative(np.abs(x, out=d), out=d)
    np.exp(d, out=d)
    d += 1.0
    # the numerator's exponent
    out = np.minimum(x, 0.0, out=np.empty_like(d) if out is None else out)
    np.exp(out, out=out)
    return np.divide(out, d, out=out)


def _sigmoid_scratch(shape) -> np.ndarray:
    """The 1 + e^-|x| buffer of ``_sigmoid``."""
    return np.empty(shape)


def _consumed(g):
    """The backward of a node whose own backward has already run."""
    raise RuntimeError("backward through a graph already backpropagated")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- graph plumbing ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def _accum(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(np.asarray(g, dtype=np.float64), self.data.shape)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def backward(self):
        if self.data.size != 1:
            raise ValueError(
                f"backward requires a scalar loss, got shape {self.data.shape}"
            )
        # iterative topological sort; graphs from long sequences get deep
        topo, visited, stack = [], set(), [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accum(np.ones_like(self.data))
        # every consumer of a node runs before the node itself, so an
        # interior buffer is complete when its backward runs; the node then
        # lets go of its buffer, closure and parents, and only the root and
        # the leaves keep a gradient
        while topo:
            node = topo.pop()
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node._backward, node._parents = _consumed, ()
                if node is not self:
                    node.grad = None

    @staticmethod
    def _op(data, parents, backward):
        try:
            out = Tensor(data)
        except FloatingPointError:
            # the closure is defined in the op: "matmul.<locals>.bwd"
            raise _non_finite(
                backward.__qualname__.split(".<locals>", 1)[0]) from None
        if _records(parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- elementwise ------------------------------------------------------

    @staticmethod
    def _coerce(x):
        return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))

    def _binary_shape(self, other):
        try:
            return np.broadcast_shapes(self.data.shape, other.data.shape)
        except ValueError:
            raise ValueError(
                f"shapes {self.data.shape} and {other.data.shape} are not "
                f"broadcast-compatible"
            ) from None

    def __add__(self, other):
        other = Tensor._coerce(other)
        self._binary_shape(other)
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(g)

        return Tensor._op(out_data, (self, other), bwd)

    __radd__ = __add__

    def __sub__(self, other):
        other = Tensor._coerce(other)
        self._binary_shape(other)
        out_data = self.data - other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(g)
            if other.requires_grad:
                other._accum(-g)

        return Tensor._op(out_data, (self, other), bwd)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        self._binary_shape(other)
        out_data = self.data * other.data

        def bwd(g):
            if self.requires_grad:
                self._accum(g * other.data)
            if other.requires_grad:
                other._accum(g * self.data)

        return Tensor._op(out_data, (self, other), bwd)

    __rmul__ = __mul__

    def sigmoid(self):
        out_data = _sigmoid(self.data)

        def bwd(g):
            self._accum(g * out_data * (1.0 - out_data))

        return Tensor._op(out_data, (self,), bwd)

    def tanh(self):
        out_data = np.tanh(self.data)

        def bwd(g):
            self._accum(g * (1.0 - out_data * out_data))

        return Tensor._op(out_data, (self,), bwd)

    def relu(self):
        out_data = np.maximum(self.data, 0.0)
        mask = self.data > 0

        def bwd(g):
            self._accum(g * mask)

        return Tensor._op(out_data, (self,), bwd)

    # -- shape ops --------------------------------------------------------

    def __getitem__(self, idx):
        out_data = self.data[idx]

        def bwd(g):
            if self.grad is None:
                self.grad = np.zeros_like(self.data)
            np.add.at(self.grad, idx, g)

        return Tensor._op(np.array(out_data, copy=True), (self,), bwd)

    def reshape(self, *shape):
        out_data = self.data.reshape(*shape)
        orig = self.data.shape

        def bwd(g):
            self._accum(g.reshape(orig))

        return Tensor._op(out_data, (self,), bwd)

    def transpose(self):
        if self.data.ndim != 2:
            raise ValueError(f"transpose expects rank-2, got shape {self.data.shape}")
        out_data = self.data.T.copy()

        def bwd(g):
            self._accum(g.T)

        return Tensor._op(out_data, (self,), bwd)

    def sum(self):
        out_data = self.data.sum()

        def bwd(g):
            self._accum(np.broadcast_to(g, self.data.shape))

        return Tensor._op(out_data, (self,), bwd)

    def max(self, axis):
        out_data = self.data.max(axis=axis)
        expanded = np.expand_dims(out_data, axis)
        mask = self.data == expanded
        # ties share the gradient evenly; irrelevant for generic inputs
        counts = mask.sum(axis=axis, keepdims=True)

        def bwd(g):
            self._accum(np.expand_dims(g, axis) * mask / counts)

        return Tensor._op(out_data, (self,), bwd)


# -- free-function ops ----------------------------------------------------


def elementwise(op_kind: str, a: Tensor, b: Tensor | None = None) -> Tensor:
    unary = {"sigmoid": Tensor.sigmoid, "tanh": Tensor.tanh, "relu": Tensor.relu}
    binary = {"add": Tensor.__add__, "sub": Tensor.__sub__, "mul": Tensor.__mul__}
    if op_kind in unary:
        if b is not None:
            raise ValueError(f"{op_kind} is unary")
        return unary[op_kind](a)
    if op_kind in binary:
        if b is None:
            raise ValueError(f"{op_kind} needs two operands")
        return binary[op_kind](a, b)
    raise ValueError(f"unknown op_kind {op_kind!r}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError(
            f"matmul expects rank-2 operands; got {a.data.shape} and "
            f"{b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}"
        )
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            b._accum(a.data.T @ g)

    return Tensor._op(out_data, (a, b), bwd)


def affine(x: Tensor, W: Tensor, b: Tensor) -> Tensor:
    """x @ W + b for x [N, d], W [d, k] and b [k], as one graph node: the
    values and gradients of ``matmul(x, W) + b``, without keeping the
    product."""
    x, W, b = (Tensor._coerce(t) for t in (x, W, b))
    if x.data.ndim != 2 or W.data.ndim != 2 or x.shape[1] != W.shape[0] \
            or b.shape != W.shape[1:]:
        raise ValueError(f"affine expects x [N, d], W [d, k] and b [k]; got "
                         f"{x.shape}, {W.shape} and {b.shape}")

    def bwd(g):
        _affine_backward(x, W, b, g)

    return Tensor._op(_project(x.data, W.data, b.data), (x, W, b), bwd)


def _project(x: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = x @ W
    out += b
    return out


def _affine_backward(x: Tensor, W: Tensor, b: Tensor, g: np.ndarray):
    """Accumulate the gradients of x @ W + b for its output gradient g."""
    if b.requires_grad:
        b._accum(g)
    if x.requires_grad:
        x._accum(g @ W.data.T)
    if W.requires_grad:
        W._accum(x.data.T @ g)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = Tensor._coerce(x)
    if not (-x.data.ndim <= axis < x.data.ndim):
        raise ValueError(f"axis {axis} invalid for shape {x.data.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=axis, keepdims=True)
        x._accum(out_data * (g - dot))

    return Tensor._op(out_data, (x,), bwd)


def chunk_bounds(lengths, rows: int, what: str) -> list:
    """The (first, end) rows of each chunk of ``rows`` packed rows, in
    order: ``lengths`` gives each chunk's row count (None: one chunk of
    every row).  Lengths that do not add up to ``rows``, or that include a
    chunk of no rows, raise ValueError starting with ``what``."""
    lengths = [rows] if lengths is None else [int(n) for n in lengths]
    if sum(lengths) != rows:
        raise ValueError(f"{what}: chunk lengths {lengths} do not add up to "
                         f"{rows} rows")
    if min(lengths, default=0) < 1:
        raise ValueError(f"{what}: chunk lengths {lengths} include an empty "
                         f"chunk")
    ends = np.cumsum(lengths).tolist()
    return list(zip([0] + ends[:-1], ends))


class _StepOrder:
    """Where the packed rows of B chunks (``chunk_bounds``) sit in a scan's
    step-order buffers [T, D, B, k], T the longest chunk: row t of a chunk
    of L rows is step t, or step L - 1 - t in a reverse direction.  Every
    chunk starts at step 0, so its padded steps come last and never feed a
    live step."""

    def __init__(self, bounds, reverse):
        first, end = np.array(bounds).T
        L = end - first
        self.shape = (int(L.max()), len(reverse), len(L))
        self.chunk = np.repeat(np.arange(len(L)), L)
        t = np.arange(self.chunk.size) - np.repeat(first, L)
        # [N, D]: each packed row's step in each direction
        self.step = np.stack([L[self.chunk] - 1 - t if r else t
                              for r in reverse], axis=1)
        # where each packed row of each direction sits: (step, d, chunk)
        self.index = (self.step, np.arange(len(reverse)), self.chunk[:, None])

    def pack(self, steps: np.ndarray) -> np.ndarray:
        """[T, D, B, k] -> [N, D * k]: every direction's packed rows, side
        by side."""
        return steps[self.index].reshape(self.chunk.size, -1)

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """The inverse of ``pack``: [N, D * k] -> [T, D, B, k]; padded
        steps hold 0."""
        n, D = self.step.shape
        out = np.zeros(self.shape + (rows.shape[1] // D,))
        out[self.index] = rows.reshape(n, D, -1)
        return out

    def gather(self, steps: np.ndarray):
        """[T, D, B, k] -> D packed [N, k] arrays, each made when the one
        before it has been taken."""
        for d, step in enumerate(self.step.T):
            yield steps[step, d, self.chunk]

    def live(self, d: int, k0: int, k1: int):
        """Direction d's packed rows at steps k0 to k1 - 1, and where they
        sit in a [k1 - k0, D, B, k] block of those steps."""
        step = self.step[:, d]
        rows = np.flatnonzero((step >= k0) & (step < k1))
        return rows, (step[rows] - k0, d, self.chunk[rows])


# steps whose input projections a layer node makes at once
SCAN_BLOCK = 32
# query rows whose score gradient the attention backward forms at once.
# With OpenBLAS 0.3.31's SkylakeX kernels a block of a multiple of 12 rows
# keeps the whole product's bits in its last columns when T is not a
# multiple of 8, and other blocks do not
ATTENTION_ROW_BLOCK = 48


def _step_blocks(T: int, size: int, least: int = 2) -> list:
    """The (first, end) steps of each block of ``size`` steps of a T-step
    scan (``SCAN_BLOCK``), or rows of a T-row product
    (``ATTENTION_ROW_BLOCK``).  A remainder of fewer than ``least`` steps
    joins the block before it, so a block spans ``least`` steps or more
    unless T is shorter: a product over fewer rows can take another BLAS
    path than the same rows of a larger one (a 1-row product always
    does)."""
    edges = [*range(0, T, size), T]
    if len(edges) > 2 and edges[-1] - edges[-2] < least:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _directions(name, reverse, lengths, rows, shapes, *args):
    """Coerce per-direction scan arguments, check every shape and the chunk
    lengths of ``rows`` packed rows (``chunk_bounds``), and place the
    rows."""
    groups = [[Tensor._coerce(t) for t in ts] for ts in args]
    got = [[t.shape for t in ts] for ts in groups]
    if any(g != [s] * len(reverse) for g, s in zip(got, shapes)):
        raise ValueError(f"{name} shapes disagree: got {got} for "
                         f"{len(reverse)} directions, expected {shapes}")
    bounds = chunk_bounds(lengths, rows, name)
    return _StepOrder(bounds, reverse), groups


GATHERED_ROWS_PROPERTY = ("x[rows] @ W has the bits of (x @ W)[rows] for a "
                          "projection's 2 or more rows and attention's row "
                          "blocks")


def _attention_row_blocks(T: int) -> list:
    """The attention backward's row blocks of a T-row chunk: a remainder
    shorter than a block joins the block before it, so every block starts
    at a multiple of ``ATTENTION_ROW_BLOCK`` and none is small enough for
    the small-matrix path of OpenBLAS's SkylakeX kernels (up to about
    1,200 / T rows), whose bits differ from the whole product's."""
    return _step_blocks(T, ATTENTION_ROW_BLOCK, ATTENTION_ROW_BLOCK)


def gathered_rows_mismatches(rng) -> list:
    """The (W shape, rows) cases where ``x[rows] @ W`` differs in any bit
    from ``(x @ W)[rows]``: for the recurrent input projections' W at the
    CLI's default widths (and 32 x 64), with 2, 3, 8 and 64 rows drawn at
    random from the 1,074 of a 3-chunk seq-384 question, and for the
    attention backward's ``g[rows] @ x.T`` (x [T, 64]) over each of a
    T-row chunk's ``_attention_row_blocks``, T 160 and 384.  Empty when
    the BLAS has ``GATHERED_ROWS_PROPERTY``, which the layer nodes' blocked
    projections (``_layer``) and the attention backward's row blocks rest
    on.  Both T are multiples of 8, so the check holds at any thread
    count: at two OpenBLAS threads a T x T product with T not a multiple
    of 8 has other bits than at one from about 8,200 entries on (ROADMAP
    item 12), and no block matches those."""
    bad = []
    for d, k in ((80, 128), (64, 128), (80, 64), (80, 32), (64, 64),
                 (64, 32), (32, 64)):
        x, W = rng.normal((1074, d)), rng.normal((d, k))
        full = x @ W
        for m in (2, 3, 8, 64):
            rows = np.sort(rng.permutation(len(x))[:m])
            if (x[rows] @ W).tobytes() != full[rows].tobytes():
                bad.append(((d, k), m))
    for T in (160, 384):
        g, W = rng.normal((T, 64)), rng.normal((T, 64)).T
        full = g @ W
        for lo, hi in _attention_row_blocks(T):
            if (g[lo:hi] @ W).tobytes() != full[lo:hi].tobytes():
                bad.append((W.shape, hi - lo))
    return bad


def _input_blocks(order, widths, groups, make, take):
    """A scan's input blocks, made a block of steps at a time, and the
    backward that hands back their step-order gradients.

    ``groups`` holds, per gate block of width m h in ``widths``, one entry
    per direction.  ``project(k0, k1)`` gives each group's [k1 - k0, D, B,
    m h] block of steps k0 to k1 - 1 (padded steps 0): ``make(entries,
    rows)``, given direction d's entry of each group and its live packed
    rows there, yields those rows of each group in turn, and each is placed
    before the next is made.  ``backward(*steps)`` gathers each group's
    [T, D, B, m h] step-order gradient one direction at a time and calls
    ``take(entry, g)`` with its packed rows g [N, m h], group by group and
    direction by direction, one gathered array alive at a time."""
    T, D, B = order.shape

    def project(k0, k1):
        blocks = [np.zeros((k1 - k0, D, B, w)) for w in widths]
        for d in range(D):
            rows, where = order.live(d, k0, k1)
            made = make([group[d] for group in groups], rows)
            for out in blocks:
                out[where] = next(made)
        return blocks

    def backward(*steps):
        for group, s in zip(groups, steps):
            grads = order.gather(s)
            for entry in group:
                g = next(grads)
                take(entry, g)
                del g  # before the next direction's is gathered

    return project, backward


def _rows(steps: np.ndarray) -> np.ndarray:
    """[T, B, k] -> [T * B, k], every (step, chunk) a row."""
    return steps.reshape(-1, steps.shape[-1])


def _accum_each(tensors, grads):
    for t, g in zip(tensors, grads):
        if t.requires_grad:
            t._accum(g)


def _may_overflow(h: int, inputs, weights) -> bool:
    """Whether a scan must check its pre-activations at every step of a
    block of steps whose input projections are ``inputs``.  Each one is an
    input entry plus a state times a column of a U [h, k], and every state
    that multiplies U (h, and a GRU's r * h) has |s| <= 1, so none exceeds
    max|x| + h max|U|.  While that bound (taken as |max| +
    |min| of each array) stays below 1e300, far from overflow whatever
    the rounding, no step can overflow; an inf or NaN in an input or a
    weight makes the bound inf or NaN, which fails it."""
    def peak(arrays):
        return sum(abs(float(a.max())) + abs(float(a.min())) for a in arrays)

    return not peak(inputs) + h * peak(weights) < 1e300


def _scans(name, node, widths, xs, Us, reverse, lengths) -> Tensor:
    """``gru_scans`` and ``lstm_scans``: the cell's ``node`` over, per gate
    block width m of ``widths``, the per-direction input projections
    [N, m h] of ``xs`` and recurrent weights [h, m h] of ``Us``."""
    n = Tensor._coerce(xs[-1][0]).shape[0]
    h = Tensor._coerce(Us[-1][0]).shape[0]
    order, groups = _directions(
        name, reverse, lengths, n,
        [(n, m * h) for m in widths] + [(h, m * h) for m in widths], *xs, *Us)
    k = len(widths)
    project, input_backward = _input_blocks(
        order, [m * h for m in widths], groups[:k],
        lambda xs, rows: (x.data[rows] for x in xs),
        lambda x, g: _accum_each((x,), (g,)))
    return node(order, project, sum(groups, []), input_backward, *groups[k:])


def _layer(name, node, widths, x, projections, Us, reverse,
           lengths) -> Tensor:
    """``gru_layer`` and ``lstm_layer``: the cell's ``node`` over x [N, d],
    its input projections ``x W + b`` folded in, with per-direction (W [d,
    m h], b [m h]) ``projections`` and U [h, m h] for each gate block width
    m of ``widths``.

    Each input block holds, for each direction, ``affine``'s ops over the
    direction's live rows, ``x[rows] @ W; += b``, x's rows gathered once.
    Those rows carry the bits of ``affine``'s one [N, d] @ [d, k] product,
    by ``GATHERED_ROWS_PROPERTY`` (a 1-row product takes another BLAS path
    and need not): the scan makes its blocks per ``_step_blocks`` block, in
    its forward and again in its backward, and a block spans 2 or more
    steps unless T = 1; the longest chunk is live at every step, so every
    product has 2 or more rows unless x itself has one.  The backward runs
    ``affine``'s backward for every direction of every group in turn, the
    order in which the ``affine`` nodes feeding a scan ran."""
    h = Tensor._coerce(Us[-1][0]).shape[0]
    x = Tensor._coerce(x)
    if x.data.ndim != 2:
        raise ValueError(f"{name} expects x [N, d], got shape {x.shape}")
    n, d = x.shape
    Wbs = [t for W_b in projections for t in W_b]
    order, groups = _directions(
        name, reverse, lengths, n,
        [s for m in widths for s in ((d, m * h), (m * h,))]
        + [(h, m * h) for m in widths], *Wbs, *Us)
    k = len(Wbs)

    def make(pairs, rows):
        xr = x.data[rows]
        return (_project(xr, W.data, b.data) for W, b in pairs)

    project, input_backward = _input_blocks(
        order, [m * h for m in widths],
        [list(zip(Ws, bs)) for Ws, bs in zip(groups[:k:2], groups[1:k:2])],
        make, lambda Wb, g: _affine_backward(x, *Wb, g))
    return node(order, project, [x, *sum(groups, [])], input_backward,
                *groups[k:])


def _gru_node(order, project, parents, input_backward, U_ur, U_c):
    """The GRU loop of ``gru_scans`` as one graph node over ``parents``.
    ``project(k0, k1)`` gives the step-order input projections of steps k0
    to k1 - 1, X_ur [k1 - k0, D, B, 2h] and X_c [k1 - k0, D, B, h], once
    per block of ``_step_blocks``, and once more in the backward.

    The node keeps only the states.  Its backward runs the blocks in
    reverse and rebuilds each one's gates and candidates from them with
    the forward's ops, each recurrent product one [D, B, h] @ [D, h, k]
    of a stacked ``np.matmul``, so they carry the forward's bits.  It drops
    each buffer once its last reader has run, and ends by handing the
    projections' step-order gradients [T, D, B, k] to ``input_backward``."""
    T, D, B = order.shape
    h = U_c[0].shape[0]
    W_ur = np.stack([t.data for t in U_ur])
    W_c = np.stack([t.data for t in U_c])
    H = np.zeros((T + 1, D, B, h))  # H[k]: the state step k starts from
    a_ur, a_c = np.empty((D, B, 2 * h)), np.empty((D, B, h))
    s, cand = np.empty(a_ur.shape), np.empty(a_c.shape)  # [u | r], tanh
    rh, t_h = np.empty((D, B, h)), np.empty((D, B, h))
    t_sig = _sigmoid_scratch(a_ur.shape)
    for k0, k1 in _step_blocks(T, SCAN_BLOCK):
        X_ur, X_c = project(k0, k1)
        check = _may_overflow(h, (X_ur, X_c), (W_ur, W_c))
        for k, x_ur, x_c in zip(range(k0, k1), X_ur, X_c):
            h_k = H[k]
            np.add(x_ur, np.matmul(h_k, W_ur, out=a_ur), out=a_ur)
            if check:  # the gates squash an overflow to a finite value
                _check_finite(a_ur, "gru_scans")
            _sigmoid(a_ur, out=s, scratch=t_sig)
            u = s[..., :h]
            np.multiply(s[..., h:], h_k, out=rh)
            np.add(x_c, np.matmul(rh, W_c, out=a_c), out=a_c)
            if check:
                _check_finite(a_c, "gru_scans")
            np.tanh(a_c, out=cand)
            # h = (1 - u) * h + u * cand; 1 - u is bitwise u * -1.0 + 1.0
            np.subtract(1.0, u, out=t_h)
            t_h *= h_k
            np.add(t_h, np.multiply(u, cand, out=a_c), out=H[k + 1])
        del X_ur, X_c, x_ur, x_c  # before the next block is made

    def bwd(g):
        nonlocal H
        # a padded step's output gradient is 0, so its carry stays 0
        G = order.scatter(g)
        W_ur_T = W_ur.transpose(0, 2, 1)
        W_c_T = W_c.transpose(0, 2, 1)
        d_ur = np.empty((T, D, B, 2 * h))
        d_c = np.empty((T, D, B, h))
        RH = np.empty((T, D, B, h))  # the forward's r * h, for U_c
        carry = np.zeros((D, B, h))
        for k0, k1 in reversed(_step_blocks(T, SCAN_BLOCK)):
            X_ur, X_c = project(k0, k1)
            H_prev = H[k0:k1]
            S = _sigmoid(np.add(X_ur, np.matmul(H_prev, W_ur)))
            U_g, R = S[..., :h], S[..., h:]
            np.multiply(R, H_prev, out=RH[k0:k1])
            C = np.tanh(np.add(X_c, np.matmul(RH[k0:k1], W_c)))
            del X_ur, X_c
            dh_du = (C - H_prev) * U_g * (1.0 - U_g)
            dh_dc = U_g * (1.0 - C * C)
            del C
            drh_dr = H_prev * R * (1.0 - R)
            keep = 1.0 - U_g
            for k in range(k1 - 1, k0 - 1, -1):
                j = k - k0
                dh = G[k] + carry
                dc = np.multiply(dh, dh_dc[j], out=d_c[k])
                drh = dc @ W_c_T
                np.multiply(dh, dh_du[j], out=d_ur[k, ..., :h])
                np.multiply(drh, drh_dr[j], out=d_ur[k, ..., h:])
                carry = dh * keep[j] + drh * R[j] + d_ur[k] @ W_ur_T
            del S, U_g, R, H_prev, dh_du, dh_dc, drh_dr, keep
        del G
        _accum_each(U_ur, [_rows(H[:-1, d]).T @ _rows(d_ur[:, d])
                           for d in range(D)])
        del H
        _accum_each(U_c, [_rows(RH[:, d]).T @ _rows(d_c[:, d])
                          for d in range(D)])
        del RH
        input_backward(d_ur, d_c)

    return Tensor._op(order.pack(H[1:]), parents, bwd)


def gru_scans(x_ur, x_c, U_ur, U_c, reverse, lengths=None) -> Tensor:
    """D GRU directions over B chunks as a single graph node.

    Each argument holds one entry per direction: x_ur [N, 2h] and x_c
    [N, h] (input projections, biases included), U_ur [h, 2h], U_c [h, h]
    and reverse.  The N rows are B chunks packed in order, ``lengths``
    giving their row counts (default: one chunk).  From h = 0 every step
    computes [u | r] = sigmoid(x_ur[t] + h U_ur),
    cand = tanh(x_c[t] + (r * h) U_c) and h = (1 - u) * h + u * cand; a
    reverse direction runs t from its chunk's last row to its first.  One
    loop advances every direction and chunk: states are [D, B, h] and each
    recurrent product is one [D, B, h] @ [D, h, k] matmul; a shorter
    chunk's padded steps run on zero input after its live ones.  Returns
    [N, D * h], row t holding every direction's state after step t.  The
    forward repeats the per-step Tensor arithmetic, so one chunk's values
    are identical to it; the backward is backpropagation through time.

    The node keeps h alone, recorded or not: a recorded node's backward
    rebuilds the gates and candidates of one block of steps at a time from
    h and the input projections, with the forward's ops, so its
    gradients are those of the kept values.  Every other per-step value of
    the forward lives in one-step buffers.  The pre-activations are
    checked at every step only when ``_may_overflow``'s bound cannot rule
    an overflow out.
    """
    return _scans("gru_scan", _gru_node, (2, 1), (x_ur, x_c), (U_ur, U_c),
                  reverse, lengths)


def gru_scan(x_ur: Tensor, x_c: Tensor, U_ur: Tensor, U_c: Tensor,
             reverse: bool = False) -> Tensor:
    """One GRU direction, [seq, h]: ``gru_scans`` with D = 1."""
    return gru_scans((x_ur,), (x_c,), (U_ur,), (U_c,), (reverse,))


def gru_layer(x, W_ur, b_ur, W_c, b_c, U_ur, U_c, reverse,
              lengths=None) -> Tensor:
    """D GRU directions over the layer input x [N, d] as a single graph
    node: ``gru_scans`` of the input projections ``affine(x, W_ur, b_ur)``
    and ``affine(x, W_c, b_c)``, folded into the scan.  Every argument but
    x and ``lengths`` holds one entry per direction (W_ur [d, 2h], b_ur
    [2h], W_c [d, h], b_c [h], U_ur, U_c, reverse).  The node projects x
    one block of steps at a time (``_layer``) and holds no
    projection; its backward accumulates the gradients of x, W, b
    and U itself, in the order of the ``affine`` nodes it replaces, so
    values and gradients are byte-identical to them feeding
    ``gru_scans``.  A malformed argument raises ValueError naming
    ``gru_layer``; a failed overflow check names ``gru_scans``, as the
    scan's own does."""
    return _layer("gru_layer", _gru_node, (2, 1), x,
                  ((W_ur, b_ur), (W_c, b_c)), (U_ur, U_c), reverse, lengths)


def _lstm_node(order, project, parents, input_backward, U):
    """The LSTM loop of ``lstm_scans``, as ``_gru_node`` is the GRU's;
    ``project(k0, k1)`` gives (X,), X [k1 - k0, D, B, 4h].  A recorded
    node keeps the cell states as well as h."""
    T, D, B = order.shape
    h = U[0].shape[0]
    W = np.stack([t.data for t in U])
    record = _records(parents)
    # H[k] and C[k] are what step k starts from; without a graph only the
    # current step's c is kept
    C = np.zeros((T + 1 if record else 1, D, B, h))
    H = np.zeros((T + 1, D, B, h))
    a = np.empty((D, B, 4 * h))
    s = np.empty((D, B, 3 * h))  # [in | forget | out]
    cand, t_c, tc = (np.empty((D, B, h)) for _ in range(3))
    t_sig = _sigmoid_scratch(s.shape)
    for k0, k1 in _step_blocks(T, SCAN_BLOCK):
        X, = project(k0, k1)
        check = _may_overflow(h, (X,), (W,))
        for k, x in zip(range(k0, k1), X):
            c, c_next = (C[k], C[k + 1]) if record else (C[0], C[0])
            np.add(x, np.matmul(H[k], W, out=a), out=a)
            if check:  # the gates squash an overflow to a finite value
                _check_finite(a, "lstm_scans")
            _sigmoid(a[..., :3 * h], out=s, scratch=t_sig)
            np.tanh(a[..., 3 * h:], out=cand)
            # c = f * c + i * cand; h = o * tanh(c)
            np.multiply(s[..., h : 2 * h], c, out=c_next)
            c_next += np.multiply(s[..., :h], cand, out=t_c)
            np.tanh(c_next, out=tc)
            np.multiply(s[..., 2 * h :], tc, out=H[k + 1])
        del X, x  # before the next block is made

    def bwd(g):
        nonlocal C, H
        # a padded step's output gradient is 0, so its carries stay 0
        G = order.scatter(g)
        W_T = W.transpose(0, 2, 1)
        # d(step output) / d(gate pre-activation), per unit of dc, dc, dh
        # and dc, built in the gradient buffer
        d_gates = np.empty((T, D, B, 4 * h))
        dh_carry = np.zeros((D, B, h))
        dc_carry = np.zeros((D, B, h))
        for k0, k1 in reversed(_step_blocks(T, SCAN_BLOCK)):
            X, = project(k0, k1)
            A = np.add(X, np.matmul(H[k0:k1], W))
            del X
            S = _sigmoid(A[..., :3 * h])
            Gc = np.tanh(A[..., 3 * h:])
            del A
            I, F, O = S[..., :h], S[..., h : 2 * h], S[..., 2 * h :]
            d_i, d_f, d_o, d_cand = (d_gates[k0:k1, ..., q * h : (q + 1) * h]
                                     for q in range(4))
            tmp = np.empty_like(Gc)
            np.multiply(Gc, I, out=d_i)
            d_i *= np.subtract(1.0, I, out=tmp)
            np.multiply(C[k0:k1], F, out=d_f)
            d_f *= np.subtract(1.0, F, out=tmp)
            dh_dc = np.tanh(C[k0 + 1 : k1 + 1])  # the forward's tanh(c)
            np.multiply(dh_dc, O, out=d_o)
            d_o *= np.subtract(1.0, O, out=tmp)
            np.multiply(Gc, Gc, out=tmp)
            np.multiply(I, np.subtract(1.0, tmp, out=tmp), out=d_cand)
            del tmp, Gc, I
            # dh_dc = O * (1 - tanh(c)^2)
            np.multiply(dh_dc, dh_dc, out=dh_dc)
            np.subtract(1.0, dh_dc, out=dh_dc)
            dh_dc *= O
            del O
            for k in range(k1 - 1, k0 - 1, -1):
                dh = G[k] + dh_carry
                dc = dc_carry + dh * dh_dc[k - k0]
                d_gates[k] *= np.concatenate((dc, dc, dh, dc), axis=-1)
                dc_carry = dc * F[k - k0]
                dh_carry = d_gates[k] @ W_T
            del S, F, dh_dc
        del G, C
        _accum_each(U, [_rows(H[:-1, d]).T @ _rows(d_gates[:, d])
                        for d in range(D)])
        del H
        input_backward(d_gates)

    return Tensor._op(order.pack(H[1:]), parents, bwd)


def lstm_scans(xw, U, reverse, lengths=None) -> Tensor:
    """D LSTM directions over B chunks as a single graph node.

    Each argument holds one entry per direction: xw [N, 4h] (the input
    projection, bias included, gate layout [input | forget | output |
    cand]), U [h, 4h] and reverse.  From h = c = 0 every step computes the
    gates from xw[t] + h U, c = f * c + i * cand and h = o * tanh(c).
    Chunks, directions, result, exactness, what the node keeps and when
    it checks are as in ``gru_scans``, except that a recorded node keeps c
    as well as h, for every step.
    """
    return _scans("lstm_scan", _lstm_node, (4,), (xw,), (U,), reverse,
                  lengths)


def lstm_scan(xw: Tensor, U: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction, [seq, h]: ``lstm_scans`` with D = 1."""
    return lstm_scans((xw,), (U,), (reverse,))


def lstm_layer(x, W, b, U, reverse, lengths=None) -> Tensor:
    """D LSTM directions over the layer input x [N, d] as a single graph
    node: ``lstm_scans`` of the input projections ``affine(x, W, b)``,
    folded into the scan, as ``gru_layer`` folds the GRU's, and named in
    its messages as ``gru_layer`` is.  W [d, 4h], b [4h], U [h, 4h] and
    reverse hold one entry per direction."""
    return _layer("lstm_layer", _lstm_node, (4,), x, ((W, b),), (U,), reverse,
                  lengths)


def masked_fill(x: Tensor, mask, fill: float) -> Tensor:
    x = Tensor._coerce(x)
    mask = np.asarray(mask, dtype=bool)
    try:
        np.broadcast_shapes(x.data.shape, mask.shape)
    except ValueError:
        raise ValueError(
            f"mask shape {mask.shape} incompatible with tensor shape {x.data.shape}"
        ) from None
    keep = np.broadcast_to(~mask, x.data.shape)
    out_data = np.where(keep, x.data, fill)

    def bwd(g):
        x._accum(g * keep)

    return Tensor._op(out_data, (x,), bwd)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accum(g[tuple(sl)])

    return Tensor._op(out_data, tuple(tensors), bwd)


def stack(tensors) -> Tensor:
    """n tensors of one shape as the rows of one [n, ...] tensor, one graph
    node: the values and gradients of a ``concat`` of ``reshape(1, -1)``
    rows (for rank-1 inputs), without a node per row."""
    tensors = [Tensor._coerce(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors])

    def bwd(g):
        for t, row in zip(tensors, g):
            if t.requires_grad:
                t._accum(row)

    return Tensor._op(out_data, tuple(tensors), bwd)


def cross_entropy_from_logits(logits: Tensor, targets) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target]."""
    logits = Tensor._coerce(logits)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be [batch, seq], got {logits.data.shape}")
    batch, seq = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (batch,):
        raise ValueError(f"need {batch} targets, got shape {targets.shape}")
    for t in targets:
        if not 0 <= t < seq:
            raise ValueError(f"target index {t} out of range for seq length {seq}")
    m = logits.data.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits.data - m).sum(axis=1))
    picked = logits.data[np.arange(batch), targets]
    out_data = np.mean(lse - picked)
    probs = np.exp(logits.data - lse[:, None])

    def bwd(g):
        dl = probs.copy()
        dl[np.arange(batch), targets] -= 1.0
        logits._accum(float(g) * dl / batch)

    return Tensor._op(out_data, (logits,), bwd)


def backward(loss: Tensor) -> None:
    loss.backward()


# -- deterministic rng ----------------------------------------------------


class Rng:
    """Seeded PCG64 stream; identical seed gives identical values everywhere."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._path = ()
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low, high, shape=None):
        return self._gen.uniform(low, high, shape)

    def normal(self, shape=None):
        return self._gen.standard_normal(shape)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def spawn(self, key: int) -> "Rng":
        """Derive an independent child stream, a pure function of the root
        seed and the child's whole path of spawn keys: ``spawn(4).spawn(5)``
        and ``spawn(5)`` differ."""
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._path = (*self._path, int(key))
        child._gen = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, *child._path])))
        return child


def init_uniform(rng: Rng, shape, fan_in: int) -> Tensor:
    """A parameter drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=True)


class Module:
    """Parameter container.  ``parameters()`` walks the attributes in the
    order they were first assigned: a Tensor is named ``attr``, a Module
    ``attr.<its names>`` and a list ``attr.<i>.<its names>``.  Anything else
    (widths, configs, lookup tables, caches) is not a parameter.  The order
    is the checkpoint order and the summation order of ``clip_global_norm``."""

    def parameters(self) -> dict:
        return dict(_named_tensors("", self))


def _named_tensors(prefix: str, value):
    if isinstance(value, Tensor):
        yield prefix[:-1], value
    elif isinstance(value, Module):
        for name, item in vars(value).items():
            yield from _named_tensors(f"{prefix}{name}.", item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _named_tensors(f"{prefix}{i}.", item)


# -- adam -----------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction over a name -> Tensor map."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        if state.m[name].shape != p.data.shape:
            raise ValueError(
                f"adam state for {name!r} has shape {state.m[name].shape}, "
                f"parameter has {p.data.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1**t)
        vhat = v / (1.0 - ADAM_BETA2**t)
        p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def zero_grads(params: dict) -> None:
    for p in params.values():
        p.zero_grad()


def clip_global_norm(params: dict, max_norm: float) -> float:
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad**2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


# -- checkpoint io --------------------------------------------------------

CHECKPOINT_MAGIC = b"SQCK"
CHECKPOINT_VERSION = 3


def save_checkpoint(path, params: dict, seed: int, hyperparams: dict) -> None:
    """Binary records (``data.write_records``) under header {seed,
    hyperparams}, one per parameter in ``params`` order, keyed by its name
    (index 0).  Every bit round-trips (-0.0, subnormals, inf, NaN
    payloads)."""
    write_records(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                  {"seed": int(seed), "hyperparams": hyperparams},
                  [(name, 0, p.data) for name, p in params.items()])


def load_checkpoint(path):
    """(name -> array, seed, hyperparams) of what ``save_checkpoint``
    wrote; a header without seed or hyperparams, or a record at an index
    other than 0, raises DataError."""
    header, records = read_records(path, CHECKPOINT_MAGIC,
                                   CHECKPOINT_VERSION)
    for key in ("seed", "hyperparams"):
        if key not in header:
            raise DataError(f"{path}: checkpoint missing field {key!r}")
    for name, index, _ in records:
        if index != 0:
            raise DataError(f"{path}: parameter {name!r} is stored at index "
                            f"{index}; a checkpoint keeps each at index 0")
    params = {name: array for name, _, array in records}
    return params, header["seed"], header["hyperparams"]
