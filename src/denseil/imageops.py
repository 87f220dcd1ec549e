"""Image-shaped fused ops: 2-D convolution and batch normalization.

These are single graph nodes with hand-written backwards rather than
compositions of tensor primitives; an im2col convolution composed from
slice/concat nodes would build thousands of tiny nodes per call.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor


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
    sn, sh, sw, sc = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp, (n, ho, wo, kh, kw * c), (sn, stride * sh, stride * sw, sh, sc))
    cols = win.reshape(n * ho * wo, kh * kw * c)
    wmat = w.data.transpose(0, 2, 3, 1).reshape(cout, kh * kw * c)
    out = cols @ wmat.T
    if bias is not None:
        out = out + bias.data
    out = out.reshape(n, ho, wo, cout)

    def back(g):
        g2 = g.reshape(-1, cout)
        dw = (g2.T @ cols).reshape(cout, kh, kw, c).transpose(0, 3, 1, 2)
        dx = None
        if x.requires_grad:
            # col2im one tap at a time: tap (i, j) touches every stride-th
            # padded pixel from (i, j) on, so each += is a single strided add
            taps = wmat.reshape(cout, kh, kw, c)
            dxp = np.zeros(padded, dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += (
                        (g2 @ taps[:, i, j]).reshape(n, ho, wo, c))
            dx = dxp[:, ph:ph + h, pw:pw + wd]
        if bias is not None:
            return dx, dw, g2.sum(axis=0)
        return dx, dw

    parents = (x, w) if bias is None else (x, w, bias)
    return Tensor(out, _parents=parents, _backward=back)


class BNState:
    """Running statistics for one batch-norm layer.

    ``num_batches`` doubles as the trained/untrained flag: eval before the
    first training pass has no statistics to use and is an error.
    """

    def __init__(self, channels: int, momentum: float = 0.1, dtype=np.float64):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.num_batches = 0
        self.momentum = float(momentum)

    def update(self, mean, var):
        m = self.momentum
        self.running_mean = (1.0 - m) * self.running_mean + m * mean
        self.running_var = (1.0 - m) * self.running_var + m * var
        self.num_batches += 1


def _batchnorm(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
               training: bool, eps: float) -> Tensor:
    # channels are the last axis; statistics run over every other axis
    c = gamma.shape[0]
    x2 = x.data.reshape(-1, c)
    if training:
        mu = x2.mean(axis=0)
        var = x2.var(axis=0)
        state.update(mu, var)
    else:
        if state.num_batches == 0:
            raise RunningStatsError(
                "batch norm eval requested before any training pass accumulated statistics")
        mu, var = state.running_mean, state.running_var
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x2 - mu) * inv
    out = xhat * gamma.data + beta.data

    def back(g):
        g2 = g.reshape(-1, c)
        dbeta = g2.sum(axis=0)
        dgamma = (g2 * xhat).sum(axis=0)
        scale = gamma.data * inv
        if training:
            # batch statistics depend on x, so the mean terms flow back too
            dx = scale * (g2 - g2.mean(axis=0) - xhat * dgamma / g2.shape[0])
        else:
            dx = scale * g2
        return dx.reshape(x.shape), dgamma, dbeta

    return Tensor(out.reshape(x.shape), _parents=(x, gamma, beta), _backward=back)


def batchnorm_nchw(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
                   training: bool, eps: float = 1e-5) -> Tensor:
    """Per-channel batch norm over channels-last [N,H,W,C]; stats over (N,H,W).

    The name predates the channels-last layout and is kept for callers that
    refer to it.
    """
    if x.data.ndim != 4:
        raise ShapeError("batchnorm_nchw expects a 4-D tensor")
    if gamma.shape != (x.shape[3],) or beta.shape != (x.shape[3],):
        raise ShapeError("batchnorm_nchw: gamma/beta must match channel count")
    return _batchnorm(x, gamma, beta, state, training, float(eps))


def batchnorm_rows(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
                   training: bool, eps: float = 1e-5) -> Tensor:
    """Per-feature batch norm over [B,d]; stats over the batch axis."""
    if x.data.ndim != 2:
        raise ShapeError("batchnorm_rows expects a 2-D tensor")
    if gamma.shape != (x.shape[1],) or beta.shape != (x.shape[1],):
        raise ShapeError("batchnorm_rows: gamma/beta must match feature count")
    return _batchnorm(x, gamma, beta, state, training, float(eps))
