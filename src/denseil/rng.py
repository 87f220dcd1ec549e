"""Counter-based random streams.

All randomness in the package flows through Philox4x64-10 (numpy's Philox
bit generator), keyed by two 64-bit words: a master seed and a stream id.
Counter-based keying means any stream can be reproduced in isolation --
tracklet 17 of a corpus needs only (seed, 17), not the 16 streams before it.
"""

from __future__ import annotations

import numpy as np

# Every stream id in the package, spaced so derived ids never collide. Ids
# below INIT_STREAM are the per-tracklet render streams
# (identity * tracklets_per_identity + j); evaluation's are
# ``eval_stream_id``'s. data.SynthConfig keeps j below TRACKLET_STRIDE and
# the identities below EVAL_IDENTITIES, so the eval ids stay below
# APPEARANCE_STREAM.
INIT_STREAM = 1 << 32
SAMPLER_STREAM = 2 << 32
EVAL_STREAM = 3 << 32
APPEARANCE_STREAM = 4 << 32
TRACKLET_STRIDE = 1024
EVAL_IDENTITIES = (APPEARANCE_STREAM - EVAL_STREAM) // TRACKLET_STRIDE


def eval_stream_id(identity: int, tracklet_id: int) -> int:
    """The stream of tracklet ``tracklet_id`` of ``identity``'s fixed
    evaluation sample."""
    return EVAL_STREAM + identity * TRACKLET_STRIDE + tracklet_id


def stream(seed: int, stream_id: int) -> np.random.Generator:
    """An independent Philox4x64 generator for (seed, stream_id)."""
    key = np.array([seed % (1 << 64), stream_id % (1 << 64)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
