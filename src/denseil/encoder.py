"""Small multi-block CNN encoder.

Each block is two rounds of conv(3x3, same padding) -> per-channel batch
norm -> ReLU. Blocks 1..L-1 halve the spatial dims with a stride-2 first
conv; the last block downsamples only when ``downsample_last`` is set,
keeping the final map tall enough for part pooling. The forward returns
every block's output, not just the last, so deeper modules can attend over
the whole pyramid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import imageops, tensor as tn
from .tensor import Param, ShapeError, Tensor


@dataclass(frozen=True)
class EncoderConfig:
    """Block widths of the encoder; the input shape comes from the data."""

    channels: tuple[int, ...] = (16, 32, 64, 128)
    downsample_last: bool = False

    def __post_init__(self):
        if len(self.channels) < 2:
            raise ShapeError("encoder needs at least 2 blocks")
        if self.channels[0] < 1:
            raise ShapeError("encoder channels must be positive")
        if any(b <= a for a, b in zip(self.channels, self.channels[1:])):
            raise ShapeError("encoder channels must be strictly increasing")

    @property
    def num_blocks(self):
        return len(self.channels)

    def num_downsampling(self):
        return self.num_blocks - 1 + (1 if self.downsample_last else 0)

    def block_strides(self):
        L = self.num_blocks
        return [2 if (l < L or self.downsample_last) else 1 for l in range(1, L + 1)]


def init_encoder(cfg: EncoderConfig, in_channels: int, rng: np.random.Generator,
                 dtype=np.float64):
    """He-initialized conv weights plus unit-gain batch norms.

    ``in_channels`` is the frame channel count. Returns (params dict,
    bn-state dict), both keyed by hierarchical names.
    """
    params = {}
    states = {}
    cin = in_channels
    for l, cout in enumerate(cfg.channels, start=1):
        for k, c_from in ((1, cin), (2, cout)):
            fan_in = c_from * 9
            w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(cout, c_from, 3, 3))
            prefix = "encoder.block%d" % l
            params["%s.conv%d.w" % (prefix, k)] = Param(
                "%s.conv%d.w" % (prefix, k), Tensor(w.astype(dtype)))
            params["%s.bn%d.gamma" % (prefix, k)] = Param(
                "%s.bn%d.gamma" % (prefix, k), Tensor(np.ones(cout, dtype=dtype)))
            params["%s.bn%d.beta" % (prefix, k)] = Param(
                "%s.bn%d.beta" % (prefix, k), Tensor(np.zeros(cout, dtype=dtype)))
            states["%s.bn%d" % (prefix, k)] = imageops.BNState(cout, dtype=dtype)
        cin = cout
    return params, states


def encode_clip(frames: Tensor, cfg: EncoderConfig, params, states, training: bool):
    """Run [I,C,H,W] frames through all blocks; returns the full pyramid."""
    if frames.data.ndim != 4:
        raise ShapeError("encode_clip expects [I,C,H,W] frames")
    h, w = frames.shape[2], frames.shape[3]
    div = 1 << cfg.num_downsampling()
    if h % div or w % div:
        raise ShapeError("input %dx%d not divisible by 2^%d" % (h, w, cfg.num_downsampling()))
    x = frames
    pyramid = []
    for l, stride in enumerate(cfg.block_strides(), start=1):
        prefix = "encoder.block%d" % l
        for k, s in ((1, stride), (2, 1)):
            x = imageops.conv2d(x, params["%s.conv%d.w" % (prefix, k)].tensor, stride=s)
            x = imageops.batchnorm_nchw(
                x,
                params["%s.bn%d.gamma" % (prefix, k)].tensor,
                params["%s.bn%d.beta" % (prefix, k)].tensor,
                states["%s.bn%d" % (prefix, k)],
                training=training)
            x = tn.relu(x)
        pyramid.append(x)
    return pyramid
