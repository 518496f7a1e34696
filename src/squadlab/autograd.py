"""Minimal fp64 tensor engine with reverse-mode automatic differentiation.

Everything downstream (layers, heads, training) is expressed through the
Tensor class below.  Forward values are checked for finiteness on creation,
so NaN/Inf never propagates silently.  The graph is recorded implicitly:
each op output keeps handles to its inputs plus a backward closure, and
``backward`` replays them once in reverse topological order.

The GRU and LSTM recurrences (``gru_scan``, ``lstm_scan``) are one graph
node per direction: a numpy loop over time that repeats the per-step Tensor
arithmetic exactly, with a hand-written backpropagation-through-time
backward.  The tests check both against the per-step reference loop.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field

import numpy as np

MASK_FILL = -1e30


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise FloatingPointError("non-finite value produced in forward pass")
    return arr


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function that never exponentiates a positive number:
    1 / (1 + e^-x) where x >= 0, e^x / (1 + e^x) elsewhere."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    out = np.divide(e, d, out=np.empty_like(e))
    return np.divide(1.0, d, out=out, where=x >= 0)


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
        self.grad = np.zeros_like(arr) if requires_grad else None
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
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    @staticmethod
    def _op(data, parents, backward):
        req = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=req)
        if req:
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

    def __neg__(self):
        return self * -1.0

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

    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            self._accum(np.broadcast_to(gg, self.data.shape))

        return Tensor._op(out_data, (self,), bwd)

    def mean(self, axis=None, keepdims=False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

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
    if b.data.ndim != 2 or a.data.ndim not in (2, 3):
        raise ValueError(
            f"matmul expects a rank 2 or 3, b rank 2; got {a.data.shape} "
            f"and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(
            f"matmul inner dimensions disagree: {a.data.shape} vs {b.data.shape}"
        )
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            a._accum(g @ b.data.T)
        if b.requires_grad:
            if a.data.ndim == 2:
                b._accum(a.data.T @ g)
            else:
                b._accum(np.einsum("bmn,bmp->np", a.data, g))

    return Tensor._op(out_data, (a, b), bwd)


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


def _scan_steps(seq: int, reverse: bool) -> range:
    if seq == 0:
        raise ValueError("recurrence over an empty sequence")
    return range(seq - 1, -1, -1) if reverse else range(seq)


def _time_order(rows: np.ndarray, reverse: bool) -> np.ndarray:
    """Rows in step order -> rows in time order (and back), C-contiguous."""
    return np.ascontiguousarray(rows[::-1]) if reverse else rows


def gru_scan(x_ur: Tensor, x_c: Tensor, U_ur: Tensor, U_c: Tensor,
             reverse: bool = False) -> Tensor:
    """One GRU direction over a whole sequence as a single graph node.

    ``x_ur`` [seq, 2h] and ``x_c`` [seq, h] are the input projections,
    biases included.  From h = 0 every step computes
    [u | r] = sigmoid(x_ur[t] + h U_ur), cand = tanh(x_c[t] + (r * h) U_c)
    and h = (1 - u) * h + u * cand; ``reverse`` runs t from last to first.
    Returns [seq, h] with row t the state after step t.  The forward repeats
    the per-step Tensor arithmetic operation for operation, so its values
    are identical; the backward is backpropagation through time.
    """
    x_ur, x_c, U_ur, U_c = (Tensor._coerce(t) for t in (x_ur, x_c, U_ur, U_c))
    seq, h = x_c.shape
    if (x_ur.shape != (seq, 2 * h) or U_ur.shape != (h, 2 * h)
            or U_c.shape != (h, h)):
        raise ValueError(
            f"gru_scan shapes disagree: x_ur {x_ur.shape}, x_c {x_c.shape}, "
            f"U_ur {U_ur.shape}, U_c {U_c.shape}"
        )
    xu, xc, Wu, Wc = x_ur.data, x_c.data, U_ur.data, U_c.data
    h_t = np.zeros((1, h))
    steps = []
    for t in _scan_steps(seq, reverse):
        ur = xu[t : t + 1] + h_t @ Wu
        u = _sigmoid(ur[:, :h])
        r = _sigmoid(ur[:, h:])
        a_c = xc[t : t + 1] + (r * h_t) @ Wc
        cand = np.tanh(a_c)
        h_t = (u * -1.0 + 1.0) * h_t + u * cand
        steps.append((ur, a_c, u, r, cand, h_t))
    # rows in step order; H_prev[k] is the state step k started from
    A_ur, A_c, U_g, R, C, H = (np.concatenate(col) for col in zip(*steps))
    # the gates squash an overflowed pre-activation to a finite value
    _check_finite(A_ur)
    _check_finite(A_c)
    H_prev = np.concatenate([np.zeros((1, h)), H[:-1]])

    def bwd(g):
        G = _time_order(g, reverse)
        dh_du = (C - H_prev) * U_g * (1.0 - U_g)
        dh_dc = U_g * (1.0 - C * C)
        drh_dr = H_prev * R * (1.0 - R)
        keep = 1.0 - U_g
        d_ur = np.empty((seq, 2 * h))
        d_c = np.empty((seq, h))
        carry = np.zeros(h)
        for k in range(seq - 1, -1, -1):
            dh = G[k] + carry
            dc = np.multiply(dh, dh_dc[k], out=d_c[k])
            drh = dc @ Wc.T
            np.multiply(dh, dh_du[k], out=d_ur[k, :h])
            np.multiply(drh, drh_dr[k], out=d_ur[k, h:])
            carry = dh * keep[k] + drh * R[k] + d_ur[k] @ Wu.T
        if U_ur.requires_grad:
            U_ur._accum(H_prev.T @ d_ur)
        if U_c.requires_grad:
            U_c._accum((R * H_prev).T @ d_c)
        if x_ur.requires_grad:
            x_ur._accum(_time_order(d_ur, reverse))
        if x_c.requires_grad:
            x_c._accum(_time_order(d_c, reverse))

    return Tensor._op(_time_order(H, reverse), (x_ur, x_c, U_ur, U_c), bwd)


def lstm_scan(xw: Tensor, U: Tensor, reverse: bool = False) -> Tensor:
    """One LSTM direction over a whole sequence as a single graph node.

    ``xw`` [seq, 4h] is the input projection, bias included, in the gate
    layout [input | forget | output | cand].  From h = c = 0 every step
    computes the gates from xw[t] + h U, c = f * c + i * cand and
    h = o * tanh(c); ``reverse`` runs t from last to first.  Returns
    [seq, h] with row t the state after step t.  The forward repeats the
    per-step Tensor arithmetic operation for operation, so its values are
    identical; the backward is backpropagation through time.
    """
    xw, U = Tensor._coerce(xw), Tensor._coerce(U)
    h = U.shape[0]
    seq = xw.shape[0]
    if xw.shape != (seq, 4 * h) or U.shape != (h, 4 * h):
        raise ValueError(
            f"lstm_scan shapes disagree: xw {xw.shape}, U {U.shape}"
        )
    a, W = xw.data, U.data
    h_t = np.zeros((1, h))
    c_t = np.zeros((1, h))
    steps = []
    for t in _scan_steps(seq, reverse):
        gates = a[t : t + 1] + h_t @ W
        i_g = _sigmoid(gates[:, 0 * h : 1 * h])
        f_g = _sigmoid(gates[:, 1 * h : 2 * h])
        o_g = _sigmoid(gates[:, 2 * h : 3 * h])
        cand = np.tanh(gates[:, 3 * h : 4 * h])
        c_t = f_g * c_t + i_g * cand
        tc = np.tanh(c_t)
        h_t = o_g * tc
        steps.append((gates, i_g, f_g, o_g, cand, c_t, tc, h_t))
    # rows in step order; *_prev[k] is what step k started from
    A, I, F, O, Gc, C, TC, H = (np.concatenate(col) for col in zip(*steps))
    # the gates squash an overflowed pre-activation to a finite value
    _check_finite(A)
    zero = np.zeros((1, h))
    H_prev = np.concatenate([zero, H[:-1]])
    C_prev = np.concatenate([zero, C[:-1]])

    def bwd(g):
        G = _time_order(g, reverse)
        dh_dc = O * (1.0 - TC * TC)
        # d(step output) / d(gate pre-activation), per unit of dc, dc, dh, dc
        local = np.concatenate([Gc * I * (1.0 - I), C_prev * F * (1.0 - F),
                                TC * O * (1.0 - O), I * (1.0 - Gc * Gc)],
                               axis=1)
        d_gates = np.empty((seq, 4 * h))
        dh_carry = np.zeros(h)
        dc_carry = np.zeros(h)
        for k in range(seq - 1, -1, -1):
            dh = G[k] + dh_carry
            dc = dc_carry + dh * dh_dc[k]
            np.multiply(local[k], np.concatenate((dc, dc, dh, dc)),
                        out=d_gates[k])
            dc_carry = dc * F[k]
            dh_carry = d_gates[k] @ W.T
        if U.requires_grad:
            U._accum(H_prev.T @ d_gates)
        if xw.requires_grad:
            xw._accum(_time_order(d_gates, reverse))

    return Tensor._op(_time_order(H, reverse), (xw, U), bwd)


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
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, low, high, shape=None):
        return self._gen.uniform(low, high, shape)

    def normal(self, shape=None):
        return self._gen.standard_normal(shape)

    def permutation(self, n: int):
        return self._gen.permutation(n)

    def spawn(self, key: int) -> "Rng":
        """Derive an independent child stream; pure function of (seed, key)."""
        mixed = np.random.SeedSequence([self.seed, int(key)])
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._gen = np.random.Generator(np.random.PCG64(mixed))
        return child


def init_uniform(rng: Rng, shape, fan_in: int, requires_grad=True) -> Tensor:
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, shape), requires_grad=requires_grad)


# -- adam -----------------------------------------------------------------


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        mhat = m / (1.0 - state.beta1**t)
        vhat = v / (1.0 - state.beta2**t)
        p.data -= lr * mhat / (np.sqrt(vhat) + state.eps)


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

CHECKPOINT_MAGIC = "squadlab-checkpoint"
CHECKPOINT_VERSION = 2


def save_checkpoint(path, params: dict, seed: int, hyperparams: dict) -> None:
    """JSON checkpoint, version 2: {format, version, seed, hyperparams,
    params}, where params maps each name to {shape, fp64le}, the base64 of
    the parameter's row-major little-endian float64 bytes.  Every bit
    round-trips (-0.0, subnormals, inf, NaN payloads); version 1 files
    (decimal "values" lists) are rejected by ``load_checkpoint``."""
    blob = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "seed": int(seed),
        "hyperparams": hyperparams,
        "params": {
            name: {"shape": list(p.data.shape),
                   "fp64le": base64.b64encode(np.ascontiguousarray(
                       p.data, dtype="<f8").tobytes()).decode("ascii")}
            for name, p in params.items()
        },
    }
    text = json.dumps(blob)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _decode_param(path, name, rec) -> np.ndarray:
    try:
        shape = rec["shape"]
        if not isinstance(shape, list) or not all(
                type(d) is int and d >= 0 for d in shape):
            raise ValueError(f"bad shape {shape!r}")
        raw = base64.b64decode(rec["fp64le"], validate=True)
    except (KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{path}: parameter {name!r}: malformed record "
                         f"({type(e).__name__}: {e})") from None
    need = 8 * math.prod(shape)
    if len(raw) != need:
        raise ValueError(f"{path}: parameter {name!r} holds {len(raw)} bytes, "
                         f"shape {shape} needs {need}")
    return np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)


def load_checkpoint(path):
    with open(path, "r", encoding="utf-8") as f:
        try:
            blob = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: truncated or malformed checkpoint "
                             f"JSON: {e}") from None
    if not isinstance(blob, dict) or blob.get("format") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path} is not a squadlab checkpoint")
    if blob.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version "
                         f"{blob.get('version')}; this build reads version "
                         f"{CHECKPOINT_VERSION}")
    if not isinstance(blob.get("params"), dict):
        raise ValueError(f"{path}: checkpoint has no parameter map")
    params = {name: _decode_param(path, name, rec)
              for name, rec in blob["params"].items()}
    return params, blob["seed"], blob["hyperparams"]
