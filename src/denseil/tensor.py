"""Reverse-mode autodiff over numpy arrays.

Every tensor op builds a node in a computation graph; ``backward`` walks the
graph in reverse topological order and accumulates gradients into the leaves.
All reductions go through numpy, whose accumulation order is fixed for a given
build, so identical inputs give bit-identical outputs across runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NumericError(ArithmeticError):
    """A NaN/Inf showed up where only finite values are allowed."""


class GraphError(RuntimeError):
    """Misuse of the computation graph (non-scalar backward, cycle)."""


class Tensor:
    """An n-d array plus the bookkeeping needed for reverse-mode autodiff.

    ``_backward`` maps the output gradient to one gradient per parent.
    Leaves (inputs, parameters) have no parents.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        if not np.all(np.isfinite(arr)):
            raise NumericError("non-finite values in tensor of shape %s" % (arr.shape,))

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return "Tensor(shape=%s, dtype=%s, requires_grad=%s)" % (
            self.shape, self.data.dtype.name, self.requires_grad)


# ---------------------------------------------------------------------------
# matmul instrumentation

_counters = []  # the open count_matmuls scopes, innermost last


@contextmanager
def count_matmuls():
    """Context manager yielding a counter whose ``macs`` accumulates the
    multiply-adds of every forward matmul in scope; scopes nest."""
    counter = SimpleNamespace(macs=0)
    _counters.append(counter)
    try:
        yield counter
    finally:
        _counters.pop()


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor reachable from ``loss``.

    ``loss`` must be scalar-shaped (() or (1,)). Gradients accumulate into
    existing ``grad`` arrays, so reset them to None between steps.

    One rule stores each gradient a node hands a parent. It must have the
    parent's shape, else GraphError. It is added out of place to the
    parent's grad, if any, and the sum is rounded once into the parent's
    dtype: a float64 constant in a float32 graph, such as the triplet
    margin, widens the gradients behind it, and one rounding after the sum
    matches an in-place ``+=``. A first gradient is kept without a copy, so
    grads may share memory with each other; each is read-only, and writing
    into one raises.
    """
    if loss.data.shape not in ((), (1,)):
        raise GraphError("backward requires a scalar loss, got shape %s" % (loss.data.shape,))
    order = _toposort(loss)
    loss.grad = np.ones_like(loss.data)
    loss.grad.flags.writeable = False
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if not parent.requires_grad or g is None:
                continue
            if np.shape(g) != parent.data.shape:
                raise GraphError("gradient of shape %s for a tensor of shape %s"
                                 % (np.shape(g), parent.data.shape))
            if parent.grad is not None:
                g = parent.grad + g
            parent.grad = g = np.asarray(g, dtype=parent.data.dtype)
            g.flags.writeable = False


def _toposort(root: Tensor):
    # Iterative DFS; gray/black marks double as the cycle check.
    GRAY, BLACK = 0, 1
    state = {}
    order = []
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[id(node)] = BLACK
            order.append(node)
            continue
        mark = state.get(id(node))
        if mark == BLACK:
            continue
        if mark == GRAY:
            raise GraphError("cycle detected in computation graph")
        state[id(node)] = GRAY
        stack.append((node, True))
        if node.requires_grad:
            for parent in node._parents:
                if state.get(id(parent)) != BLACK:
                    stack.append((parent, False))
    return order


# ---------------------------------------------------------------------------
# elementwise / shape primitives


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add: cannot broadcast %s with %s" % (a.shape, b.shape))
    return Tensor(out, _parents=(a, b),
                  _backward=lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data - b.data
    except ValueError:
        raise ShapeError("sub: cannot broadcast %s with %s" % (a.shape, b.shape))
    return Tensor(out, _parents=(a, b),
                  _backward=lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul: cannot broadcast %s with %s" % (a.shape, b.shape))
    return Tensor(out, _parents=(a, b),
                  _backward=lambda g: (_unbroadcast(g * b.data, a.shape),
                                       _unbroadcast(g * a.data, b.shape)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return Tensor(a.data * c, _parents=(a,), _backward=lambda g: (g * c,))


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., m, k] @ [..., k, n] -> [..., m, n]; leading (stack) dims must match."""
    if a.data.ndim < 2 or a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2]:
        raise ShapeError("matmul expects equally stacked operands of rank >= 2, "
                         "got %s and %s" % (a.shape, b.shape))
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError("matmul: inner dims disagree, %s vs %s" % (a.shape, b.shape))
    macs = int(np.prod(a.shape[:-1])) * a.shape[-1] * b.shape[-1]
    for counter in _counters:
        counter.macs += macs
    out = a.data @ b.data
    return Tensor(out, _parents=(a, b),
                  _backward=lambda g: (g @ np.swapaxes(b.data, -1, -2),
                                       np.swapaxes(a.data, -1, -2) @ g))


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes as ``np.transpose`` does; None reverses them."""
    undo = None if axes is None else np.argsort(axes)
    return Tensor(np.transpose(a.data, axes).copy(), _parents=(a,),
                  _backward=lambda g: (np.transpose(g, undo),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape
    return Tensor(a.data.reshape(shape), _parents=(a,),
                  _backward=lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0, by the strict > mask
    mask = a.data > 0
    return Tensor(np.where(mask, a.data, 0.0), _parents=(a,),
                  _backward=lambda g: (g * mask,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return Tensor(out, _parents=(a,), _backward=lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    return Tensor(np.log(a.data), _parents=(a,),
                  _backward=lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    """Elementwise square root with subgradient 0 at x == 0."""
    out = np.sqrt(a.data)

    def back(g):
        return (np.where(a.data > 0, g / (2.0 * np.where(a.data > 0, out, 1.0)), 0.0),)

    return Tensor(out, _parents=(a,), _backward=back)


def sum_all(a: Tensor) -> Tensor:
    return Tensor(a.data.sum(), _parents=(a,),
                  _backward=lambda g: (np.broadcast_to(g, a.shape),))


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    return Tensor(a.data.mean(), _parents=(a,),
                  _backward=lambda g: (np.broadcast_to(g / n, a.shape),))


def mean_rows(a: Tensor) -> Tensor:
    """Mean over the second-to-last axis: [..., n, d] -> [..., d]."""
    if a.data.ndim < 2:
        raise ShapeError("mean_rows expects a tensor of rank >= 2")
    n = a.shape[-2]
    return Tensor(a.data.mean(axis=-2), _parents=(a,),
                  _backward=lambda g: (np.broadcast_to(np.expand_dims(g / n, -2), a.shape),))


def sum_axis1(a: Tensor) -> Tensor:
    """Row-wise sum: [n, d] -> [n]."""
    if a.data.ndim != 2:
        raise ShapeError("sum_axis1 expects a 2-D tensor")
    d = a.shape[1]
    return Tensor(a.data.sum(axis=1), _parents=(a,),
                  _backward=lambda g: (np.repeat(g[:, None], d, axis=1),))


def concat(parts, axis: int) -> Tensor:
    """Join 2-D tensors along ``axis``: 0 stacks rows, 1 stacks columns."""
    parts = list(parts)
    if not parts or axis not in (0, 1):
        raise ShapeError("concat needs at least one tensor and axis 0 or 1")
    if any(p.data.ndim != 2 or p.shape[1 - axis] != parts[0].shape[1 - axis]
           for p in parts):
        raise ShapeError("concat: shapes %s disagree off axis %d"
                         % ([p.shape for p in parts], axis))
    cuts = np.cumsum([p.shape[axis] for p in parts])[:-1]
    return Tensor(np.concatenate([p.data for p in parts], axis=axis),
                  _parents=tuple(parts),
                  _backward=lambda g: tuple(np.split(g, cuts, axis=axis)))


def pick(a: Tensor, rows, cols) -> Tensor:
    """Gather a[rows[i], cols[i]] into a 1-D tensor."""
    if a.data.ndim != 2:
        raise ShapeError("pick expects a 2-D tensor")
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)

    def back(g):
        full = np.zeros_like(a.data)
        np.add.at(full, (rows, cols), g)
        return (full,)

    return Tensor(a.data[rows, cols].copy(), _parents=(a,), _backward=back)


# ---------------------------------------------------------------------------
# composite / fused nn ops


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax over the last axis, computed with max subtraction."""
    if x.data.ndim < 2:
        raise ShapeError("softmax_rows expects rank >= 2, got %s" % (x.shape,))
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        # dx = y * (g - sum(g*y)) per row
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return Tensor(out, _parents=(x,), _backward=back)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization: gamma * (x - mean) / sqrt(var + eps) + beta."""
    if x.data.ndim != 2:
        raise ShapeError("layer_norm expects a 2-D tensor")
    d = x.shape[1]
    if d == 0:
        raise ShapeError("layer_norm: zero feature width")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layer_norm: gamma/beta must have shape (%d,)" % d)
    eps = float(eps)
    if eps <= 0:
        raise ShapeError("layer_norm: eps must be positive")
    mu = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = xhat * gamma.data + beta.data

    def back(g):
        dbeta = g.sum(axis=0)
        dgamma = (g * xhat).sum(axis=0)
        dxhat = g * gamma.data
        dx = inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=1, keepdims=True))
        return (dx, dgamma, dbeta)

    return Tensor(out, _parents=(x, gamma, beta), _backward=back)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two affine maps with an elementwise ReLU between them."""
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)
