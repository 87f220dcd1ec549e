"""Sinusoidal spatio-temporal positional embeddings.

A token at (frame i, partition p) receives spatial[p] + temporal[i], both
tables built from sin/cos of index / 10000^(j/d). All three indices i, p, j
are 1-based here: entry (p, j) of the spatial table is sin(p / 10000^(j/d))
for even j and cos(...) for odd j, and likewise for frames. Tables carry no
learnable parameters and stay out of checkpoints.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import ShapeError


def sinusoid_table(count: int, d: int) -> np.ndarray:
    """[count, d] table indexed by position 1..count; the spatial table
    (over partitions) and the temporal one (over frames) are both this."""
    if d < 2:
        raise ShapeError("positional table needs width >= 2, got %d" % d)
    pos = np.arange(1, count + 1, dtype=np.float64)[:, None]
    j = np.arange(1, d + 1, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, j / d)
    return np.where(j % 2 == 0, np.sin(angle), np.cos(angle))


@functools.cache
def step_emb(I: int, P: int, d: int) -> np.ndarray:
    """Read-only [I*P, d] table: row (i-1)*P + (p-1) holds spatial[p] +
    temporal[i]. Cached, so every caller shares one array."""
    table = (np.repeat(sinusoid_table(I, d), P, axis=0)
             + np.tile(sinusoid_table(P, d), (I, 1)))
    table.flags.writeable = False
    return table
