"""Image-shaped fused ops: 2-D convolution and batch normalization.

These are single graph nodes with hand-written backwards rather than
compositions of tensor primitives; an im2col convolution composed from
slice/concat nodes would build thousands of tiny nodes per call.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .tensor import EPS, ShapeError, Tensor, array_mean


class RunningStatsError(RuntimeError):
    """Eval-mode batch norm was asked for statistics it never accumulated."""


def conv2d(x: Tensor, w: Tensor, bias=None, stride: int = 1) -> Tensor:
    """Same-padded convolution of [N,H,W,C] by [Cout,C,kh,kw], via im2col.

    Channels-last in and out: returns [N,Ho,Wo,Cout]. Padding is (k-1)//2
    per side, so stride 1 preserves H,W and stride 2 halves even dims. The
    columns are ordered (kh, kw, C), so each window row is one contiguous
    kw*C run of the padded input.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv2d expects 4-D input and weights")
    n, h, wd, c = x.shape
    cout, cin, kh, kw = w.shape
    if cin != c:
        raise ShapeError("conv2d: input has %d channels, weights expect %d" % (c, cin))
    if stride < 1:
        raise ShapeError("conv2d: stride must be >= 1")
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wd + 2 * pw - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError("conv2d: output would be empty")
    if bias is not None and (bias.data.ndim != 1 or bias.shape[0] != cout):
        raise ShapeError("conv2d: bias must have shape (%d,)" % cout)

    padded = (n, h + 2 * ph, wd + 2 * pw, c)
    xp = np.zeros(padded, dtype=x.data.dtype)
    xp[:, ph:ph + h, pw:pw + wd] = x.data
    cols = _windows(xp, ho, wo, kh, kw, stride).reshape(n * ho * wo, kh * kw * c)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(cout, kh * kw * c)
    out = cols @ wmat.T
    if bias is not None:
        out = out + bias.data
    out = out.reshape(n, ho, wo, cout)

    def back(g):
        g2 = g.reshape(-1, cout)

        def weight_grad():
            # contiguous, so Adam's elementwise passes over it are not strided
            return np.ascontiguousarray(
                (g2.T @ cols).reshape(cout, kh, kw, c).transpose(0, 3, 1, 2))

        # dw runs on the worker thread while this one builds dx. Each makes
        # the serial code's numpy calls and writes only arrays of its own,
        # so no byte depends on the schedule. The copied context carries
        # the caller's np.errstate.
        job = _worker().submit(contextvars.copy_context().run, weight_grad)
        try:
            dx = None
            if x.requires_grad:
                # col2im one tap at a time, straight into dx: output row o of
                # tap (i, j) reads input row o*stride + i - ph, so each += is
                # a single strided add over the outputs whose input lies in x
                taps = wmat.reshape(cout, kh, kw, c)
                dx = np.zeros(x.shape, dtype=g.dtype)
                for i in range(kh):
                    xi, oi = _tap_range(i - ph, stride, ho, h)
                    for j in range(kw):
                        xj, oj = _tap_range(j - pw, stride, wo, wd)
                        part = (g2 @ taps[:, i, j]).reshape(n, ho, wo, c)
                        dx[:, xi, xj] += part[:, oi, oj]
        finally:
            wait((job,))  # an error of the caller's own is the one raised
        dw = job.result()
        if bias is not None:
            return dx, dw, g2.sum(axis=0)
        return dx, dw

    parents = (x, w) if bias is None else (x, w, bias)
    return Tensor(out, _parents=parents, _backward=back)


_pool = None  # conv backward's one worker thread, made on first use


def _worker() -> ThreadPoolExecutor:
    global _pool
    if _pool is None:
        _pool = ThreadPoolExecutor(1, thread_name_prefix="denseil-conv-dw")
    return _pool


def _drop_worker():
    # a forked child has no copy of the thread, so it makes its own
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_drop_worker)


def _windows(xp: np.ndarray, ho: int, wo: int, kh: int, kw: int, stride: int):
    """The [n, ho, wo, kh, kw*C] view of the C-contiguous padded input
    ``xp`` whose entry (o, i) is the kw*C run that output o's window reads
    in its row i. ``as_strided``'s view, made by the ndarray constructor."""
    sn, sh, sw, sc = xp.strides
    return np.ndarray((xp.shape[0], ho, wo, kh, kw * xp.shape[3]), xp.dtype,
                      xp, 0, (sn, stride * sh, stride * sw, sh, sc))


def _tap_range(offset: int, stride: int, out_len: int, in_len: int):
    """(input slice, output slice) of one kernel tap along one axis: output
    o reads input o*stride + offset, kept where that lies in [0, in_len)."""
    lo = max(0, -(offset // stride))
    count = max(0, min(out_len, (in_len - 1 - offset) // stride + 1) - lo)
    start = lo * stride + offset
    return slice(start, start + count * stride, stride), slice(lo, lo + count)


class BNState:
    """Running statistics for one batch-norm layer.

    ``num_batches`` doubles as the trained/untrained flag: eval before the
    first training pass has no statistics to use and is an error.
    """

    def __init__(self, channels: int, dtype=np.float64):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.num_batches = 0

    def update(self, mean, var):
        m = MOMENTUM
        self.running_mean = (1.0 - m) * self.running_mean + m * mean
        self.running_var = (1.0 - m) * self.running_var + m * var
        self.num_batches += 1


MOMENTUM = 0.1  # weight of each training batch in the running statistics

# Elementwise passes run on [rows*C / W, W] views, W a multiple of C of up to
# this many elements: numpy broadcasts a per-channel vector over [rows, C]
# one C-wide row at a time, which is slow for the encoder's C = 16..128.
_WIDE = 2048


def _widen(a: np.ndarray, c: int):
    """``a`` with the [rows, c] rows it holds packed k to a row, and k.

    k is the largest power of two that divides the row count with k*c at
    most ``_WIDE``; per-channel vectors are ``_tile``d k times to match.
    Elementwise results do not depend on the layout.
    """
    rows = a.size // c
    k = 1
    while 2 * k * c <= _WIDE and rows % (2 * k) == 0:
        k *= 2
    return a.reshape(-1, k * c), k


def _colsum(a: np.ndarray, c: int) -> np.ndarray:
    """Per-channel sums of ``a`` read as [rows, c], rounded as
    ``sum(axis=0)`` rounds them.

    Over a contiguous view with c >= 2, einsum adds the rows in the same
    order as ``sum``, without its inner-loop call per row. ``sum`` adds a
    single column pairwise, so that case stays with ``sum``, as does a
    strided view.
    """
    a2 = a.reshape(-1, c)
    if c == 1 or not a2.flags.c_contiguous:
        return np.add.reduce(a2, axis=0)
    return np.einsum("ij->j", a2)


def _tile(v: np.ndarray, k: int) -> np.ndarray:
    """``np.tile(v, k)`` for a 1-D ``v``: a new array holding k copies."""
    out = np.empty((k, v.shape[0]), dtype=v.dtype)
    out[...] = v
    return out.reshape(-1)


def _batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
               training: bool, relu: bool) -> Tensor:
    # Channels are the last axis; statistics run over every other axis. The
    # reductions run on [rows, C] views in numpy's axis-0 order and every
    # elementwise pass on a wide view: each value rounds exactly as it does
    # in np.mean / np.var and the unfused composition with tensor.relu.
    c = gamma.shape[0]
    n = x.data.size // c
    stat_axes = tuple(range(x.data.ndim - 1))  # every axis but the channels
    xw, k = _widen(x.data, c)
    if training:
        mu = array_mean(x.data, stat_axes, total=_colsum(x.data, c))
        xc = xw - _tile(mu, k)
        sq = np.square(xc)
        var = array_mean(x.data, stat_axes, total=_colsum(sq, c))
        del sq
        state.update(mu, var)
    else:
        if state.num_batches == 0:
            raise RunningStatsError(
                "batch norm eval requested before any training pass accumulated statistics")
        mu, var = state.running_mean, state.running_var
        xc = xw - _tile(mu, k)
    inv = 1.0 / np.sqrt(var + EPS)
    xc *= _tile(inv, k)
    xhat = xc
    out = xhat * _tile(gamma.data, k)
    out += _tile(beta.data, k)
    mask = None
    if relu:
        # out * mask, not np.where: a non-finite value stays non-finite for
        # the Tensor check below. += 0.0 turns the -0.0 of a masked negative
        # into the +0.0 np.where gives.
        mask = out > 0
        with np.errstate(invalid="ignore"):
            out *= mask
        out += 0.0

    def back(g):
        # dx is written through a wide view of a buffer it owns; + 0.0 turns a
        # -0.0 in g into the +0.0 the unfused reference's zeroed buffers give.
        dx = np.empty(x.shape, dtype=g.dtype)
        gw = dx.reshape(xhat.shape)
        if relu:
            np.multiply(g.reshape(xhat.shape), mask, out=gw)
            gw += 0.0
        else:
            np.add(g.reshape(xhat.shape), 0.0, out=gw)
        dbeta = _colsum(gw, c)
        prod = gw * xhat
        dgamma = _colsum(prod, c)
        if training:
            # batch statistics depend on x, so the mean terms flow back too:
            # dx = scale * (g - mean(g) - xhat * dgamma / n)
            gw -= _tile(array_mean(x.data, stat_axes, total=dbeta), k)
            np.multiply(xhat, _tile(dgamma, k), out=prod)
            prod /= n
            gw -= prod
        gw *= _tile(gamma.data * inv, k)
        return dx, dgamma, dbeta

    return Tensor(out.reshape(x.shape), _parents=(x, gamma, beta), _backward=back)


def batchnorm_nchw(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
                   training: bool, relu: bool = False) -> Tensor:
    """Per-channel batch norm over channels-last [N,H,W,C]; stats over (N,H,W).

    With ``relu`` the node also applies max(0, .) to its output, bit for bit
    as a separate ``tensor.relu`` would, as one graph node. The name
    predates the channels-last layout and is kept for callers that refer
    to it.
    """
    if x.data.ndim != 4:
        raise ShapeError("batchnorm_nchw expects a 4-D tensor")
    if gamma.shape != (x.shape[3],) or beta.shape != (x.shape[3],):
        raise ShapeError("batchnorm_nchw: gamma/beta must match channel count")
    return _batchnorm(x, gamma, beta, state, training, relu)


def batchnorm_rows(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
                   training: bool) -> Tensor:
    """Per-feature batch norm over [B,d]; stats over the batch axis."""
    if x.data.ndim != 2:
        raise ShapeError("batchnorm_rows expects a 2-D tensor")
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError("batchnorm_rows: gamma/beta must match feature count")
    return _batchnorm(x, gamma, beta, state, training, False)
