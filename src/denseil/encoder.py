"""Small multi-block CNN encoder.

Each block is two rounds of conv(3x3, same padding) -> per-channel batch
norm -> ReLU. Blocks 1..L-1 halve the spatial dims with a stride-2 first
conv; the last block keeps stride 1, as re-ID backbones do, so the final
map stays tall enough for part pooling. The forward returns
every block's output, not just the last, so deeper modules can attend over
the whole pyramid.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import imageops
from .tensor import ShapeError, Tensor


@dataclass(frozen=True)
class EncoderConfig:
    """Block widths of the encoder; the input shape comes from the data."""

    channels: tuple[int, ...] = (16, 32, 64, 128)

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
        return self.num_blocks - 1

    def block_strides(self):
        return [2] * (self.num_blocks - 1) + [1]


def encode_clip(frames: Tensor, cfg: EncoderConfig, params, states, training: bool):
    """Run channels-last [I,H,W,C] frames through every block.

    Returns the pyramid, one channels-last [I,H_l,W_l,C_l] map per block.
    """
    if frames.data.ndim != 4:
        raise ShapeError("encode_clip expects [I,H,W,C] frames")
    h, w = frames.shape[1], frames.shape[2]
    div = 1 << cfg.num_downsampling()
    if h % div or w % div:
        raise ShapeError("input %dx%d not divisible by 2^%d" % (h, w, cfg.num_downsampling()))
    x = frames
    pyramid = []
    for l, stride in enumerate(cfg.block_strides(), start=1):
        prefix = "encoder.block%d" % l
        for k, s in ((1, stride), (2, 1)):
            x = imageops.conv_bn_relu(
                x,
                params["%s.conv%d.w" % (prefix, k)],
                params["%s.bn%d.gamma" % (prefix, k)],
                params["%s.bn%d.beta" % (prefix, k)],
                states["%s.bn%d" % (prefix, k)],
                training, s)
        pyramid.append(x)
    return pyramid
