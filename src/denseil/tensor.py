"""Reverse-mode autodiff over numpy arrays.

Every tensor op builds a node in a computation graph; ``backward`` walks the
graph in reverse topological order and accumulates gradients into the leaves.
All reductions go through numpy, whose accumulation order is fixed for a given
build, so identical inputs give bit-identical outputs across runs.
"""

from __future__ import annotations

import contextvars
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from itertools import accumulate
from types import SimpleNamespace

import numpy as np

EPS = 1e-5  # added to the variance by layer norm and batch norm
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))  # a tensor's dtypes


class ShapeError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class NumericError(ArithmeticError):
    """A NaN/Inf showed up where only finite values are allowed."""


class GraphError(RuntimeError):
    """Misuse of the computation graph (non-scalar loss, misshapen gradient,
    a graph walked back twice)."""


class Tensor:
    """An n-d array plus the bookkeeping needed for reverse-mode autodiff.

    ``_backward`` maps the output gradient to one gradient per parent.
    Leaves (inputs, parameters) have no parents; inside ``no_grad`` every
    new tensor is one. ``backward`` leaves a gradient on every leaf it
    reaches and sets ``_backward`` and ``grad`` of every other node it
    walks back to None.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        arr = data if type(data) is np.ndarray else np.asarray(data)
        if arr.dtype not in _FLOATS:
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        if _no_grad.get():
            self.requires_grad = bool(requires_grad)
            self._parents, self._backward = (), None
        else:
            self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
            self._parents, self._backward = _parents, _backward
        check_finite(arr)

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
# numpy calls without numpy's Python wrappers
#
# Ops call ufuncs, ``ufunc.reduce`` and ndarray methods directly: np.all,
# np.mean and their kin run several Python frames per call, which at B=1 cost
# more than the arithmetic. Each helper rounds exactly as the call it stands
# for; tests/test_tensor.py holds the byte oracles.


def _all_finite(a: np.ndarray) -> bool:
    """``np.all(np.isfinite(a))``: argmin finds a False, if there is one,
    with less per-call work than a logical-and reduce."""
    finite = np.isfinite(a).reshape(-1)
    return not finite.size or bool(finite[finite.argmin()])


def check_finite(a: np.ndarray) -> None:
    """Raise NumericError, as a new tensor of ``a`` would, unless every
    value of ``a`` is finite."""
    if not _all_finite(a):
        raise NumericError("non-finite values in tensor of shape %s" % (a.shape,))


def array_mean(a: np.ndarray, axis, keepdims: bool = False, total=None):
    """``a.mean(axis, keepdims=keepdims)`` in np.mean's own arithmetic: the
    sum over ``axis``, then a true divide by the np.intp element count,
    cast back into the sum's dtype. ``total`` is that sum when the caller
    has it already; it is left unchanged. The mean must be an array, not a
    scalar."""
    if isinstance(axis, tuple):
        count = np.intp(math.prod([a.shape[i] for i in axis]))
    else:
        count = np.intp(a.shape[axis])
    if total is None:
        out = total = np.add.reduce(a, axis=axis, keepdims=keepdims)
    else:
        out = np.empty(total.shape, dtype=total.dtype)
    return np.true_divide(total, count, out=out, casting="unsafe")


# ---------------------------------------------------------------------------
# scopes: matmul instrumentation, no_grad and the worker thread

_macs = 0  # the multiply-adds of every forward matmul so far, on any thread
_macs_lock = threading.Lock()  # ``+=`` is a read, an add and a write


@contextmanager
def count_matmuls():
    """Context manager yielding a counter whose ``macs``, set when the scope
    closes, holds the multiply-adds of every forward matmul that ran on any
    thread while it was open; scopes nest."""
    counter = SimpleNamespace(macs=0)
    start = _macs
    try:
        yield counter
    finally:
        counter.macs = _macs - start


def _count(macs: int):
    global _macs
    with _macs_lock:
        _macs += macs


_no_grad = contextvars.ContextVar("no_grad", default=False)


@contextmanager
def no_grad():
    """Context manager in which ops build no graph: each result keeps no
    parents and no backward closure, so it needs no gradient unless made
    with ``requires_grad=True``. The arithmetic is unchanged. Scopes nest
    and hold in this context only: this thread and its ``worker_job``s."""
    token = _no_grad.set(True)
    try:
        yield
    finally:
        _no_grad.reset(token)


# The package's one worker thread, made on first use: the second part of a
# training conv's forward, conv backward's weight gradients and, in an
# evaluation of two or more batches, one lane that takes batches beside the
# caller. A forked child has no copy of the thread, so it makes its own.
@functools.cache
def _worker() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(1, thread_name_prefix="denseil-worker")


os.register_at_fork(after_in_child=_worker.cache_clear)


@contextmanager
def worker_job(fn, *args):
    """Run ``fn(*args)`` on the worker thread while the ``with`` body runs
    on this one; yields the job's future.

    The job runs in a copy of the caller's context, so it sees the scopes
    open where it was submitted, np.errstate and ``no_grad`` among them;
    MAC totals count every thread. Leaving the block waits for the job, also
    when the body raises, and an error of the caller's own is the one raised.
    """
    job = _worker().submit(contextvars.copy_context().run, fn, *args)
    try:
        yield job
    finally:
        wait((job,))


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from ``loss``.

    ``loss`` must be scalar-shaped (() or (1,)). Leaf gradients accumulate
    into existing ``grad`` arrays, so reset them to None between steps.
    Once a node's closure has handed its gradients on, the walk drops the
    closure, and with it the buffers it saved, and the node's own gradient;
    the node keeps its data and parents. A graph can therefore be walked
    back once: a walk that reaches a spent node raises GraphError before
    any gradient is stored.

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
            if g.shape != parent.data.shape:
                raise GraphError("gradient of shape %s for a tensor of shape %s"
                                 % (g.shape, parent.data.shape))
            if parent.grad is not None:
                g = parent.grad + g
            parent.grad = g = np.asarray(g, dtype=parent.data.dtype)
            g.flags.writeable = False
        node._backward = None
        node.grad = None


def _toposort(root: Tensor):
    # Iterative post-order DFS. The graph is acyclic: ``_parents`` is set
    # only in ``Tensor.__init__``, from tensors that already exist. A spent
    # node, one with parents and no closure, raises before any closure runs,
    # so a refused walk leaves every leaf gradient as it was.
    seen = set()
    order = []
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._parents and node._backward is None:
            raise GraphError("a tensor of shape %s was already walked back"
                             % (node.data.shape,))
        seen.add(id(node))
        stack.append((node, True))
        if node.requires_grad:
            for parent in node._parents:
                if id(parent) not in seen:
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., m, k] @ [..., k, n] -> [..., m, n]; leading (stack) dims must match."""
    x, y = a.data, b.data
    xs, ys = x.shape, y.shape
    if len(xs) < 2 or len(xs) != len(ys) or xs[:-2] != ys[:-2]:
        raise ShapeError("matmul expects equally stacked operands of rank >= 2, "
                         "got %s and %s" % (xs, ys))
    if xs[-1] != ys[-2]:
        raise ShapeError("matmul: inner dims disagree, %s vs %s" % (xs, ys))
    _count(x.size * ys[-1])
    out = x @ y
    return Tensor(out, _parents=(a, b),
                  _backward=lambda g: (g @ b.data.swapaxes(-1, -2),
                                       a.data.swapaxes(-1, -2) @ g))


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes as ``np.transpose`` does; None reverses them."""
    undo = None if axes is None else np.argsort([x % a.data.ndim for x in axes])
    return Tensor(a.data.transpose(axes).copy(), _parents=(a,),
                  _backward=lambda g: (g.transpose(undo),))


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = a.data.shape
    return Tensor(a.data.reshape(shape), _parents=(a,),
                  _backward=lambda g: (g.reshape(old),))


def relu(a: Tensor) -> Tensor:
    # subgradient at 0 is 0, by the strict > mask; backward reads the mask
    # off the output, which is > 0 exactly where the input is
    out = np.where(a.data > 0, a.data, 0.0)
    return Tensor(out, _parents=(a,), _backward=lambda g: (g * (out > 0),))


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
    return Tensor(array_mean(a.data, -2), _parents=(a,),
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
    cuts = list(accumulate(p.shape[axis] for p in parts))[:-1]
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


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, clips: int = 1):
    """Multi-head scaled dot-product attention from projected rows.

    ``q`` holds each clip's n query rows, clip-major: [clips*n, d]. ``k`` and
    ``v`` hold one or more groups laid out like ``q``, group-major; a clip's
    queries see its own rows of every group, in group order. One node splits
    the heads, takes softmax(q kᵀ / sqrt(d/heads)) v and merges the heads, in
    the arithmetic of those steps as separate ops, so it matches them byte
    for byte. Returns (output [clips*n, d], weights [clips, heads, n, groups*n]).
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or k.shape != v.shape or k.shape[1] != q.shape[1]:
        raise ShapeError("attention expects 2-D q, k and v of one width, k and v "
                         "alike; got %s, %s, %s" % (q.shape, k.shape, v.shape))
    d = q.shape[1]
    if heads < 1 or d % heads:
        raise ShapeError("width %d not divisible by %d heads" % (d, heads))
    n, rest = divmod(q.shape[0], clips)
    if rest or not n or k.shape[0] % (clips * n):
        raise ShapeError("attention: %d query and %d key rows do not split into "
                         "%d clips" % (q.shape[0], k.shape[0], clips))
    dh = d // heads
    c = 1.0 / math.sqrt(dh)

    def split(x):  # [groups*clips*n, d] -> [clips, heads, groups*n, dh]
        x = x.reshape(-1, clips, n, heads, dh).transpose(1, 3, 0, 2, 4).copy()
        return x.reshape(clips, heads, -1, dh)

    def split_t(x):  # split(x).swapaxes(-1, -2) in its own C order: kᵀ
        x = x.reshape(-1, clips, n, heads, dh).transpose(1, 3, 4, 0, 2).copy()
        return x.reshape(clips, heads, dh, -1)

    def unsplit(g):
        g = g.reshape(clips, heads, -1, n, dh)
        return g.transpose(2, 0, 3, 1, 4).reshape(-1, d)

    qh, kT, vh = split(q.data), split_t(k.data), split(v.data)
    _count(2 * qh.size * kT.shape[3])  # q kᵀ and weights v
    attn = qh @ kT
    attn *= c
    # finite scores give finite weights: each row's largest exp is 1
    if not _all_finite(attn):
        raise NumericError("non-finite attention scores of shape %s" % (attn.shape,))
    # on finite scores fmax's row max is maximum's, bar the sign of a zero
    # max, which exp(±0) = 1 erases; fmax reduces rows with less overhead
    attn -= np.fmax.reduce(attn, axis=-1, keepdims=True)
    np.exp(attn, out=attn)
    attn /= np.add.reduce(attn, axis=-1, keepdims=True)
    out = (attn @ vh).transpose(0, 2, 1, 3).copy().reshape(clips * n, d)

    def back(g):
        # the head splits and kᵀ are copies of the parents' data, which
        # nothing writes before backward: rebuilt here, not held from above
        gh = g.reshape(clips, n, heads, dh).transpose(0, 2, 1, 3)
        da = gh @ split(v.data).swapaxes(-1, -2)
        dv = attn.swapaxes(-1, -2) @ gh
        # ds = attn * (da - sum(da * attn)) * c, built in da's own buffer
        da -= np.add.reduce(da * attn, axis=-1, keepdims=True)
        da *= attn
        da *= c
        dq = da @ split_t(k.data).swapaxes(-1, -2)
        dkT = split(q.data).swapaxes(-1, -2) @ da
        return unsplit(dq), unsplit(dkT.transpose(0, 1, 3, 2)), unsplit(dv)

    return Tensor(out, _parents=(q, k, v), _backward=back), attn


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-row normalization: gamma * (x - mean) / sqrt(var + EPS) + beta."""
    if x.data.ndim != 2:
        raise ShapeError("layer_norm expects a 2-D tensor")
    d = x.shape[1]
    if d == 0:
        raise ShapeError("layer_norm: zero feature width")
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layer_norm: gamma/beta must have shape (%d,)" % d)
    # the variance in np.var's own arithmetic, reusing x - mu
    xc = x.data - array_mean(x.data, 1, keepdims=True)
    inv = 1.0 / np.sqrt(np.add.reduce(xc * xc, axis=1, keepdims=True) / d + EPS)
    xhat = xc * inv
    out = xhat * gamma.data + beta.data

    def back(g):
        # dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built
        # in dxhat's buffer with one scratch array
        dbeta = np.add.reduce(g, axis=0)
        tmp = g * xhat
        dgamma = np.add.reduce(tmp, axis=0)
        dxhat = g * gamma.data
        np.multiply(dxhat, xhat, out=tmp)
        proj = array_mean(tmp, 1, keepdims=True)
        dxhat -= array_mean(dxhat, 1, keepdims=True)
        np.multiply(xhat, proj, out=tmp)
        dxhat -= tmp
        dxhat *= inv
        return (dxhat, dgamma, dbeta)

    return Tensor(out, _parents=(x, gamma, beta), _backward=back)


def ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Two affine maps with an elementwise ReLU between them."""
    return add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)
