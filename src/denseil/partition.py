"""Horizontal partition pooling and token-matrix assembly.

A feature map is cut into P horizontal bands, each band average-pooled to a
single channel vector, giving P part tokens per frame. Tokens are ordered
frame-major: row (i-1)*P + (p-1) belongs to frame i, partition p (1-based).
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, matmul


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
    """Average-pool [I,C,H,W] into part tokens [(I*P), C], frame-major."""
    if block.data.ndim != 4:
        raise ShapeError("ppool expects a 4-D block")
    n, c, h, w = block.shape
    heights = band_heights(h, P)
    starts = np.concatenate([[0], np.cumsum(heights)])
    bands = [block.data[:, :, starts[b]:starts[b + 1], :].mean(axis=(2, 3))
             for b in range(P)]
    out = np.stack(bands, axis=1).reshape(n * P, c)

    def back(g):
        g3 = g.reshape(n, P, c)
        dx = np.zeros_like(block.data)
        for b in range(P):
            r0, r1 = starts[b], starts[b + 1]
            dx[:, :, r0:r1, :] = (g3[:, b] / ((r1 - r0) * w))[:, :, None, None]
        return (dx,)

    return Tensor(out, _parents=(block,), _backward=back)


class TokenMatrix:
    """Part tokens plus the (frame, partition) identity of each row."""

    __slots__ = ("tokens", "I", "P")

    def __init__(self, tokens: Tensor, I: int, P: int):
        if tokens.shape[0] != I * P:
            raise ShapeError("token matrix has %d rows, expected %d" % (tokens.shape[0], I * P))
        self.tokens = tokens
        self.I = I
        self.P = P

    @property
    def index(self):
        return token_index(self.I, self.P)


def stack_partitions(pyramid, P: int, adapters):
    """Pool every pyramid block and map each to the decoder width.

    ``adapters`` is one bias-free [C_l, d] weight per block. Returns the last
    block's token matrix (the decoder input) and the earlier blocks' matrices
    in depth order.
    """
    if len(adapters) != len(pyramid):
        raise ShapeError("need one adapter per encoder block")
    frames = pyramid[0].shape[0]
    mapped = []
    for block, adapter in zip(pyramid, adapters):
        mapped.append(TokenMatrix(matmul(ppool(block, P), adapter), frames, P))
    return mapped[-1], mapped[:-1]
