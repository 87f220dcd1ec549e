"""Image-shaped fused ops: 2-D convolution, batch normalization, and the
encoder's conv, batch norm and ReLU as one node.

These are single graph nodes with hand-written backwards rather than
compositions of tensor primitives; an im2col convolution composed from
slice/concat nodes would build thousands of tiny nodes per call.
"""

from __future__ import annotations

import numpy as np

from .tensor import EPS, ShapeError, Tensor, array_mean, check_finite, worker_job


class RunningStatsError(ValueError):
    """Eval-mode batch norm was asked for statistics it never accumulated."""


def conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Same-padded convolution of [N,H,W,C] by [Cout,C,kh,kw], via im2col.

    Channels-last in and out: returns [N,Ho,Wo,Cout]. Padding is (k-1)//2
    per side, so stride 1 preserves H,W and stride 2 halves even dims.
    The model no longer calls it: the encoder runs ``conv_bn_relu``. It
    stays as a patch point of ``perfbench/tracing.py`` and as the tests'
    unfused byte reference until ROADMAP item 17 removes it.
    """
    out, back = _conv(x.data, w.data, stride, x.requires_grad)
    return Tensor(out, _parents=(x, w), _backward=back)


def conv_bn_relu(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor,
                 state: BNState, training: bool, stride: int) -> Tensor:
    """``tn.relu(batchnorm_nchw(conv2d(x, w, stride), gamma, beta, state,
    training))`` as one graph node, bit for bit: the encoder's layer.

    Batch norm centres the conv's GEMM output in place, so that buffer is
    the ``xhat`` its backward keeps, and no node keeps the conv output.
    Backward hands batch norm's input gradient to the conv's backward.
    """
    pre, conv_back = _conv(x.data, w.data, stride, x.requires_grad)
    check_finite(pre)  # as the conv node would, before the statistics move
    out, bn_back = _bn(pre, gamma.data, beta.data, state, training, relu=True)

    def back(g):
        dpre, dgamma, dbeta = bn_back(g)
        return conv_back(dpre) + (dgamma, dbeta)

    return Tensor(out, _parents=(x, w, gamma, beta), _backward=back)


def _conv(x: np.ndarray, w: np.ndarray, stride: int, need_dx: bool):
    """The convolution of ``conv2d`` on arrays: its [N,Ho,Wo,Cout] output,
    a view of the GEMM's own buffer, and ``back(g)`` -> (dx, dw), dx None
    unless ``need_dx``.

    The columns are ordered (kh, kw, C), so each window row is one
    contiguous kw*C run of the padded input.
    """
    if x.ndim != 4 or w.ndim != 4:
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

    def buffers():
        # the zeroed padded input and the columns, made on the calling thread
        # so that they come from its heap arena, not the worker's
        return (np.zeros((n, h + 2 * ph, wd + 2 * pw, c), dtype=x.dtype),
                np.empty((n * ho * wo, kh * kw * c), dtype=x.dtype))

    def im2col(xp, cols):
        xp[:, ph:ph + h, pw:pw + wd] = x
        cols.reshape(n, ho, wo, kh, kw * c)[...] = _windows(xp, ho, wo, kh, kw, stride)
        return cols

    def weight_matrix():  # [cout, kh*kw*C], a copy unless w is a model kernel
        return w.transpose(0, 2, 3, 1).reshape(cout, kh * kw * c)

    # the columns are kh*kw copies of x, so backward rebuilds them rather
    # than keep them from here to there; w is as here until the optimizer
    # steps after backward
    out = im2col(*buffers()) @ weight_matrix().T

    def back(g):
        g2 = g.reshape(-1, cout)

        def weight_grad(xp, cols):
            # a view of the GEMM output, laid out as a model kernel
            return (g2.T @ im2col(xp, cols)).reshape(cout, kh, kw, c).transpose(0, 3, 1, 2)

        # dw, the columns' rebuild included, runs on the worker thread while
        # this one builds dx. Each makes the serial code's numpy calls and
        # writes only arrays of its own, so no byte depends on the schedule.
        with worker_job(weight_grad, *buffers()) as job:
            dx = None
            if need_dx:
                # col2im one tap at a time, straight into dx: output row o of
                # tap (i, j) reads input row o*stride + i - ph, so each += is
                # a single strided add over the outputs whose input lies in x
                taps = weight_matrix().reshape(cout, kh, kw, c)
                dx = np.zeros(x.shape, dtype=g.dtype)
                for i in range(kh):
                    xi, oi = _tap_range(i - ph, stride, ho, h)
                    for j in range(kw):
                        xj, oj = _tap_range(j - pw, stride, wo, wd)
                        part = (g2 @ taps[:, i, j]).reshape(n, ho, wo, c)
                        dx[:, xi, xj] += part[:, oi, oj]
        return dx, job.result()

    return out.reshape(n, ho, wo, cout), back


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

    The statistics are set by rebinding ``running_mean`` and ``running_var``,
    as ``update`` and ``load_model`` do, never by writing into them: eval's
    constants are kept per pair of those arrays.
    """

    def __init__(self, channels: int, dtype=np.float64):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.num_batches = 0
        self._eval = (None, None, {})  # (mean, var, {k: eval_constants(k)})

    def update(self, mean, var):
        m = MOMENTUM
        self.running_mean = (1.0 - m) * self.running_mean + m * mean
        self.running_var = (1.0 - m) * self.running_var + m * var
        self.num_batches += 1

    def eval_constants(self, k: int):
        """Eval's read-only (mean tile, ``1 / sqrt(var + EPS)``, its tile),
        each tile k copies, made once per pair of running arrays and per k.

        An entry keeps the arrays it was made from and serves only while
        they are the ones bound. It is swapped in by one assignment, so a
        batch on the worker thread reads a whole entry too.
        """
        mean, var = self.running_mean, self.running_var
        entry = self._eval
        if entry[0] is not mean or entry[1] is not var:
            entry = self._eval = (mean, var, {})
        constants = entry[2].get(k)
        if constants is None:
            inv = 1.0 / np.sqrt(var + EPS)
            constants = (_tile(mean, k), inv, _tile(inv, k))
            for a in constants:
                a.flags.writeable = False
            entry[2][k] = constants
        return constants


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


def _bn(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, state: BNState,
        training: bool, relu: bool = False):
    """Batch norm of ``x`` over every axis but the last, the channels; with
    ``relu``, max(0, .) of it too. Returns the output, shaped as ``x``, and
    ``back(g)`` -> (dx, dgamma, dbeta).

    ``x`` is centred in place: its buffer becomes the ``xhat`` that backward
    keeps. The reductions run on [rows, C] views in numpy's axis-0 order and
    every elementwise pass on a wide view: each value rounds exactly as it
    does in np.mean / np.var and the unfused composition with tensor.relu.
    """
    shape, c = x.shape, x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batch norm: gamma/beta must match channel count")
    rows = x.reshape(-1, c)  # [rows, C], a view of x
    n = rows.shape[0]
    xw, k = _widen(x, c)
    if training:
        mu = array_mean(rows, 0, total=_colsum(rows, c))
        xw -= _tile(mu, k)
        sq = np.square(xw)
        var = array_mean(rows, 0, total=_colsum(sq, c))
        del sq
        state.update(mu, var)
        inv = 1.0 / np.sqrt(var + EPS)
        inv_k = _tile(inv, k)
    else:
        if state.num_batches == 0:
            raise RunningStatsError(
                "batch norm eval requested before any training pass accumulated statistics")
        mu_k, inv, inv_k = state.eval_constants(k)
        xw -= mu_k
    xw *= inv_k
    xhat = xw
    out = xhat * _tile(gamma, k)
    out += _tile(beta, k)
    if relu:
        # out * mask, not np.where: a non-finite value stays non-finite for
        # the Tensor check. += 0.0 turns the -0.0 of a masked negative into
        # the +0.0 np.where gives, so the finite output that backward reads
        # is > 0 exactly where the mask is set.
        with np.errstate(invalid="ignore"):
            out *= out > 0
        out += 0.0

    def back(g):
        # dx is written through a wide view of a buffer it owns; + 0.0 turns a
        # -0.0 in g into the +0.0 the unfused reference's zeroed buffers give.
        dx = np.empty(shape, dtype=g.dtype)
        gw = dx.reshape(xhat.shape)
        if relu:
            np.multiply(g.reshape(xhat.shape), out > 0, out=gw)
            gw += 0.0
        else:
            np.add(g.reshape(xhat.shape), 0.0, out=gw)
        dbeta = _colsum(gw, c)
        prod = gw * xhat
        dgamma = _colsum(prod, c)
        if training:
            # batch statistics depend on x, so the mean terms flow back too:
            # dx = scale * (g - mean(g) - xhat * dgamma / n)
            gw -= _tile(array_mean(dx.reshape(-1, c), 0, total=dbeta), k)
            np.multiply(xhat, _tile(dgamma, k), out=prod)
            prod /= n
            gw -= prod
        gw *= _tile(gamma * inv, k)
        return dx, dgamma, dbeta

    return out.reshape(shape), back


def batchnorm_nchw(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
                   training: bool) -> Tensor:
    """Per-channel batch norm over channels-last [N,H,W,C]; stats over (N,H,W).

    The model no longer calls it, as ``conv2d`` says: it stays as a patch
    point of ``perfbench/tracing.py`` and as the tests' unfused byte
    reference. The name predates the channels-last layout.
    """
    if x.data.ndim != 4:
        raise ShapeError("batchnorm_nchw expects a 4-D tensor")
    return _bn_node(x, gamma, beta, state, training)


def batchnorm_rows(x: Tensor, gamma: Tensor, beta: Tensor, state: BNState,
                   training: bool) -> Tensor:
    """Per-feature batch norm over [B,d]; stats over the batch axis."""
    if x.data.ndim != 2:
        raise ShapeError("batchnorm_rows expects a 2-D tensor")
    return _bn_node(x, gamma, beta, state, training)


def _bn_node(x, gamma, beta, state, training):
    # _bn centres what it is handed, and node data is never written
    out, back = _bn(x.data.copy(), gamma.data, beta.data, state, training)
    return Tensor(out, _parents=(x, gamma, beta), _backward=back)
