"""Dense float64 tensors, a recording tape, and reverse-mode gradients.

Eager numpy evaluation with optional recording onto an explicit tape. The
built-in primitives are small and general (add, mul, matmul, affine, tanh,
softplus, sum, mean, square, concat, slice); other modules register fused
primitives through the same registry (``_primitive``): ``velocity_divergence``
(one velocity + divergence stage) in ``wflow.velocity`` and
``integrate_block`` (one whole Euler/RK4 block integration) in
``wflow.odeint``. Every primitive carries its own vector-Jacobian product, so
one reverse sweep over a frozen tape yields exactly one gradient per watched
parameter; ``value_and_grad`` is that protocol (record, mark the loss, freeze,
sweep) for a scalar loss. Any non-finite primitive output aborts immediately
-- silent NaN propagation is treated as a bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "NumericError",
    "ShapeError",
    "add",
    "mul",
    "matmul",
    "affine",
    "tanh",
    "softplus",
    "tsum",
    "tmean",
    "square",
    "concat",
    "slice_",
    "grad",
    "value_and_grad",
]


def _locate(message, op, index):
    if op is None:
        return message
    where = "" if index is None else f" at tape index {index}"
    return f"{message} (op '{op}'{where})"


class NumericError(RuntimeError):
    """A primitive produced a NaN/Inf output, or a tape contract was violated."""

    def __init__(self, message, op=None, index=None):
        super().__init__(_locate(message, op, index))
        self.op = op
        self.index = index


class ShapeError(ValueError):
    """Operand shapes incompatible with a primitive; carries the op index."""

    def __init__(self, message, op=None, index=None):
        super().__init__(_locate(message, op, index))
        self.op = op
        self.index = index


def _as_c_array(value) -> np.ndarray:
    # np.ascontiguousarray promotes 0-d to 1-d, so go through asarray first
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Tensor:
    """Dense row-major float64 array, optionally attached to a tape node."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data):
        self.data = _as_c_array(data)
        self.tape = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # expressed through the built-in primitives (add + mul by -1) so the tape
    # stays auditable
    def __sub__(self, other):
        return add(self, mul(other, -1.0))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


@dataclass(frozen=True)
class Node:
    """One primitive-operation record: op code, input node ids, output value."""

    op: str
    inputs: tuple
    value: np.ndarray
    meta: tuple


class Tape:
    """Append-only record of primitive ops, frozen before the reverse sweep.

    Nodes are stored in execution (hence topological) order. ``watch`` marks
    a leaf tensor as a parameter slot; ``grad`` later returns one gradient
    per slot, in watch order. A tape is single-writer while recording and
    immutable afterwards, so concurrent reverse sweeps are safe.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.param_slots: list[int] = []
        self.outputs: list[int] = []
        self.frozen = False
        self._prev = None

    def __enter__(self):
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE = self._prev
        self._prev = None
        return False

    def _append(self, op, inputs, value, meta=()) -> int:
        if self.frozen:
            raise NumericError("tape is frozen; cannot record new ops")
        self.nodes.append(Node(op, inputs, value, meta))
        return len(self.nodes) - 1

    def _leaf(self, tensor: Tensor, kind: str) -> int:
        idx = self._append(kind, (), tensor.data)
        tensor.tape = self
        tensor.node = idx
        return idx

    def watch(self, tensor) -> Tensor:
        """Register a leaf tensor as a parameter slot requiring gradients."""
        tensor = as_tensor(tensor)
        if tensor.tape is self and tensor.node is not None:
            if tensor.node not in self.param_slots:
                self.param_slots.append(tensor.node)
            return tensor
        idx = self._leaf(tensor, "param")
        self.param_slots.append(idx)
        return tensor

    def mark_output(self, tensor: Tensor):
        if tensor.tape is not self or tensor.node is None:
            raise NumericError("output tensor was not produced on this tape")
        self.outputs.append(tensor.node)

    def freeze(self):
        self.frozen = True

    def ensure_index(self, tensor: Tensor) -> int:
        """Node id of ``tensor`` on this tape, registering a constant leaf if new."""
        if tensor.tape is self and tensor.node is not None:
            return tensor.node
        return self._leaf(tensor, "const")


_ACTIVE: Tape | None = None


# ---------------------------------------------------------------------------
# primitive registry

_FORWARD = {}
_BACKWARD = {}


def _primitive(name, forward, backward):
    _FORWARD[name] = forward
    _BACKWARD[name] = backward


def _apply(op, tensors, meta=()) -> Tensor:
    tape = _ACTIVE
    # inputs first, so an error names the slot the op itself would take
    ids = tuple(tape.ensure_index(t) for t in tensors) if tape is not None else ()
    index = len(tape.nodes) if tape is not None else None
    args = [t.data for t in tensors]
    try:
        with np.errstate(all="ignore"):
            value = _FORWARD[op](args, meta)
    except ValueError as err:
        raise ShapeError(str(err), op=op, index=index) from err
    if not np.all(np.isfinite(value)):
        raise NumericError("non-finite output", op=op, index=index)
    out = Tensor(value)
    if tape is not None:
        out.node = tape._append(op, ids, out.data, meta)
        out.tape = tape
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (got, want) in enumerate(zip(g.shape, shape)) if want == 1 and got != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.reshape(g, shape)


def _expand(g: np.ndarray, shape, axis) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, shape)
    return np.broadcast_to(np.expand_dims(g, axis), shape)


# add -----------------------------------------------------------------------

def _add_fwd(args, meta):
    return args[0] + args[1]


def _add_bwd(node, inputs, g):
    return (_unbroadcast(g, inputs[0].shape), _unbroadcast(g, inputs[1].shape))


_primitive("add", _add_fwd, _add_bwd)


# mul -----------------------------------------------------------------------

def _mul_fwd(args, meta):
    return args[0] * args[1]


def _mul_bwd(node, inputs, g):
    return (
        _unbroadcast(g * inputs[1], inputs[0].shape),
        _unbroadcast(g * inputs[0], inputs[1].shape),
    )


_primitive("mul", _mul_fwd, _mul_bwd)


# matmul (strictly 2-D) ------------------------------------------------------

def _matmul_fwd(args, meta):
    a, b = args
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul expects 2-D operands, got {a.shape} @ {b.shape}")
    return a @ b


def _matmul_bwd(node, inputs, g):
    a, b = inputs
    return (g @ b.T, a.T @ g)


_primitive("matmul", _matmul_fwd, _matmul_bwd)


# affine: x @ w + b ----------------------------------------------------------

def _affine_fwd(args, meta):
    x, w, b = args
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1:
        raise ValueError(f"affine expects (m,k)@(k,n)+(n,), got {x.shape}, {w.shape}, {b.shape}")
    return x @ w + b


def _affine_bwd(node, inputs, g):
    x, w, _ = inputs
    return (g @ w.T, x.T @ g, g.sum(axis=0))


_primitive("affine", _affine_fwd, _affine_bwd)


# elementwise nonlinearities --------------------------------------------------

def _tanh_fwd(args, meta):
    return np.tanh(args[0])


def _tanh_bwd(node, inputs, g):
    return (g * (1.0 - node.value * node.value),)


_primitive("tanh", _tanh_fwd, _tanh_bwd)


def _softplus_fwd(args, meta):
    x = args[0]
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_np(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _softplus_bwd(node, inputs, g):
    return (g * _sigmoid_np(np.asarray(inputs[0], dtype=np.float64)),)


_primitive("softplus", _softplus_fwd, _softplus_bwd)


def _square_fwd(args, meta):
    return args[0] * args[0]


def _square_bwd(node, inputs, g):
    return (2.0 * inputs[0] * g,)


_primitive("square", _square_fwd, _square_bwd)


# reductions ------------------------------------------------------------------

def _sum_fwd(args, meta):
    return np.sum(args[0], axis=meta[0])


def _sum_bwd(node, inputs, g):
    return (_expand(np.asarray(g), inputs[0].shape, meta_axis(node)),)


def meta_axis(node):
    return node.meta[0]


_primitive("sum", _sum_fwd, _sum_bwd)


def _mean_fwd(args, meta):
    return np.mean(args[0], axis=meta[0])


def _mean_bwd(node, inputs, g):
    axis = meta_axis(node)
    count = inputs[0].size if axis is None else inputs[0].shape[axis]
    return (_expand(np.asarray(g) / count, inputs[0].shape, axis),)


_primitive("mean", _mean_fwd, _mean_bwd)


# concat / slice ---------------------------------------------------------------

def _concat_fwd(args, meta):
    return np.concatenate(args, axis=meta[0])


def _concat_bwd(node, inputs, g):
    axis = node.meta[0]
    splits = np.cumsum([x.shape[axis] for x in inputs])[:-1]
    return tuple(np.ascontiguousarray(p) for p in np.split(g, splits, axis=axis))


_primitive("concat", _concat_fwd, _concat_bwd)


def _slice_fwd(args, meta):
    axis, start, stop = meta
    index = [slice(None)] * args[0].ndim
    index[axis] = slice(start, stop)
    return np.ascontiguousarray(args[0][tuple(index)])


def _slice_bwd(node, inputs, g):
    axis, start, stop = node.meta
    out = np.zeros_like(inputs[0])
    index = [slice(None)] * out.ndim
    index[axis] = slice(start, stop)
    out[tuple(index)] = g
    return (out,)


_primitive("slice", _slice_fwd, _slice_bwd)


# ---------------------------------------------------------------------------
# public op wrappers

def add(a, b) -> Tensor:
    return _apply("add", (as_tensor(a), as_tensor(b)))


def mul(a, b) -> Tensor:
    return _apply("mul", (as_tensor(a), as_tensor(b)))


def matmul(a, b) -> Tensor:
    return _apply("matmul", (as_tensor(a), as_tensor(b)))


def affine(x, w, b) -> Tensor:
    """x @ w + b with a row-broadcast bias; the single dense-layer primitive."""
    return _apply("affine", (as_tensor(x), as_tensor(w), as_tensor(b)))


def tanh(x) -> Tensor:
    return _apply("tanh", (as_tensor(x),))


def softplus(x) -> Tensor:
    return _apply("softplus", (as_tensor(x),))


def tsum(x, axis=None) -> Tensor:
    return _apply("sum", (as_tensor(x),), (axis,))


def tmean(x, axis=None) -> Tensor:
    return _apply("mean", (as_tensor(x),), (axis,))


def square(x) -> Tensor:
    return _apply("square", (as_tensor(x),))


def concat(parts, axis=0) -> Tensor:
    return _apply("concat", tuple(as_tensor(p) for p in parts), (axis,))


def slice_(x, axis, start, stop) -> Tensor:
    return _apply("slice", (as_tensor(x),), (axis, start, stop))


# ---------------------------------------------------------------------------
# reverse sweep

def grad(tape: Tape):
    """One reverse sweep: returns d(output)/d(slot) for every parameter slot.

    The adjoint of the tape's single marked output is all-ones.
    Deterministic: accumulation follows fixed tape order.
    """
    if len(tape.outputs) != 1:
        raise NumericError(f"grad expects exactly one marked output, tape has {len(tape.outputs)}")
    out_id = tape.outputs[0]
    out_shape = tape.nodes[out_id].value.shape
    adjoints: list = [None] * len(tape.nodes)
    adjoints[out_id] = np.ones(out_shape)
    for i in range(out_id, -1, -1):
        node = tape.nodes[i]
        g = adjoints[i]
        if g is None or node.op in ("param", "const"):
            continue
        inputs = [tape.nodes[j].value for j in node.inputs]
        contribs = _BACKWARD[node.op](node, inputs, g)
        for j, contrib in zip(node.inputs, contribs):
            if contrib is None:  # an input the primitive is constant in
                continue
            if adjoints[j] is None:
                adjoints[j] = contrib
            else:
                adjoints[j] = adjoints[j] + contrib
    results = []
    for slot in tape.param_slots:
        g = adjoints[slot]
        if g is None:
            g = np.zeros_like(tape.nodes[slot].value)
        results.append(Tensor(np.asarray(g, dtype=np.float64)))
    return results


def value_and_grad(build):
    """Record ``build(tape)`` on a fresh tape and run one reverse sweep.

    ``build`` watches its parameters on the given tape (e.g. ``field.bind(tape)``)
    and returns the scalar loss Tensor, or ``(loss, *extras)`` with scalar
    extras. Returns ``(loss, grads, *extras)``: floats, and one gradient array
    per watched parameter in watch order.
    """
    tape = Tape()
    with tape:
        out = build(tape)
    loss, *extras = out if isinstance(out, tuple) else (out,)
    if loss.data.shape != ():
        raise ShapeError(f"loss must be scalar, got shape {loss.data.shape}")
    tape.mark_output(loss)
    tape.freeze()
    grads = [g.data for g in grad(tape)]
    return (float(loss.data), grads, *(float(e.data) for e in extras))
