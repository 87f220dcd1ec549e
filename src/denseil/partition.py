"""Horizontal partition pooling and token assembly.

A feature map is cut into P horizontal bands, each band average-pooled to a
single channel vector, giving P part tokens per frame. Tokens are ordered
frame-major: row (i-1)*P + (p-1) belongs to frame i, partition p (1-based).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .tensor import ShapeError, Tensor, array_mean, matmul


def band_heights(H: int, P: int):
    """Split H rows into P contiguous bands, extras going to the top bands."""
    if P <= 0:
        raise ShapeError("partition count must be positive, got %d" % P)
    if P > H:
        raise ShapeError("cannot cut %d rows into %d bands" % (H, P))
    base, rem = divmod(H, P)
    return [base + 1] * rem + [base] * (P - rem)


def token_index(I: int, P: int):
    """Frame-major (frame, partition) pairs, both 1-based."""
    return [(i, p) for i in range(1, I + 1) for p in range(1, P + 1)]


def ppool(block: Tensor, P: int) -> Tensor:
    """Average-pool channels-last [I,H,W,C] into part tokens [(I*P), C], frame-major.

    When P divides H, one mean over a [I, P, H/P, W, C] view pools every
    band; it adds each band's rows in the order the band's own mean does.
    """
    if block.data.ndim != 4:
        raise ShapeError("ppool expects a 4-D block")
    n, h, w, c = block.shape
    x = block.data
    heights = band_heights(h, P)
    starts = [0, *accumulate(heights)]
    equal = h % P == 0
    if equal:
        out = array_mean(x.reshape(n, P, h // P, w, c), (2, 3))
    else:
        out = np.empty((n, P, c), dtype=x.dtype)
        for b in range(P):
            out[:, b] = array_mean(x[:, starts[b]:starts[b + 1]], (1, 2))
    out = out.reshape(n * P, c)

    def back(g):
        g3 = g.reshape(n, P, c)
        dx = np.empty(x.shape, dtype=x.dtype)
        if equal:
            dx.reshape(n, P, h // P, w, c)[...] = (g3 / (h // P * w))[:, :, None, None]
        else:
            for b in range(P):
                r0, r1 = starts[b], starts[b + 1]
                dx[:, r0:r1] = (g3[:, b] / ((r1 - r0) * w))[:, None, None, :]
        return (dx,)

    return Tensor(out, _parents=(block,), _backward=back)


def stack_partitions(pyramid, P: int, adapters):
    """Pool the pyramid blocks and map each to the decoder width.

    ``adapters`` is one bias-free [C_l, d] weight per block, or None for a
    block that is neither pooled nor mapped. Returns one [frames * P, d]
    row matrix per block, frame-major like ``ppool``'s rows, in depth
    order: the last is the decoder input, and None stands where the
    adapter does.
    """
    if len(adapters) != len(pyramid):
        raise ShapeError("need one adapter slot per encoder block")
    return [None if adapter is None else matmul(ppool(block, P), adapter)
            for block, adapter in zip(pyramid, adapters)]
