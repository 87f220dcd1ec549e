import numpy as np
import pytest

from denseil import encoder as enc
from denseil import tensor as T
from oracles import gradcheck


def make(cfg, seed=0, in_channels=3):
    return enc.init_encoder(cfg, in_channels, np.random.default_rng(seed))


def test_two_block_shapes_both_downsampling():
    cfg = enc.EncoderConfig(channels=(4, 8), downsample_last=True)
    params, states = make(cfg)
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 16, 16)))
    pyr = enc.encode_clip(x, cfg, params, states, training=True)
    assert [p.shape for p in pyr] == [(1, 4, 8, 8), (1, 8, 4, 4)]


def test_four_block_shapes_keep_last_resolution():
    cfg = enc.EncoderConfig(channels=(4, 6, 8, 10), downsample_last=False)
    params, states = make(cfg)
    x = T.Tensor(np.zeros((2, 3, 32, 16)))
    pyr = enc.encode_clip(x, cfg, params, states, training=True)
    dims = [(p.shape[2], p.shape[3]) for p in pyr]
    assert dims == [(16, 8), (8, 4), (4, 2), (4, 2)]
    assert all(p.shape[0] == 2 for p in pyr)


def test_zero_input_zero_pyramid():
    cfg = enc.EncoderConfig(channels=(4, 8))
    params, states = make(cfg)
    pyr = enc.encode_clip(T.Tensor(np.zeros((3, 3, 16, 16))), cfg, params, states,
                          training=True)
    for p in pyr:
        assert np.all(p.data == 0)


def test_config_validation():
    with pytest.raises(T.ShapeError):
        enc.EncoderConfig(channels=(16,))
    with pytest.raises(T.ShapeError):
        enc.EncoderConfig(channels=(16, 16))
    with pytest.raises(T.ShapeError):
        enc.EncoderConfig(channels=(32, 16))


def test_indivisible_input_rejected():
    # three blocks, two downsamplings: dims must be divisible by 4
    cfg = enc.EncoderConfig(channels=(4, 8, 16))
    params, states = make(cfg)
    with pytest.raises(T.ShapeError):
        enc.encode_clip(T.Tensor(np.zeros((1, 3, 10, 10))), cfg, params, states,
                        training=True)


def test_param_names_hierarchical():
    cfg = enc.EncoderConfig(channels=(4, 8))
    params, states = make(cfg)
    assert "encoder.block1.conv1.w" in params
    assert "encoder.block2.bn2.gamma" in params
    assert "encoder.block2.bn1" in states
    assert len(params) == 2 * 2 * 3  # blocks x convs x (w, gamma, beta)


def test_translation_covariance_block1():
    # zero-border input rolled by one stride step shifts block-1 output rows by
    # one; content sits deep enough inside that the shifted receptive fields
    # never touch the padding, so batch-norm statistics are untouched too
    cfg = enc.EncoderConfig(channels=(4, 8))
    params, states = make(cfg, seed=7)
    rng = np.random.default_rng(8)
    x = np.zeros((1, 3, 24, 16))
    x[:, :, 8:14, 4:12] = rng.normal(size=(1, 3, 6, 8))
    rolled = np.roll(x, 2, axis=2)
    out = enc.encode_clip(T.Tensor(x), cfg, params, states, training=True)[0].data
    out_r = enc.encode_clip(T.Tensor(rolled), cfg, params, states, training=True)[0].data
    assert np.allclose(out_r[:, :, 4:9, :], out[:, :, 3:8, :], atol=1e-10)


def test_encoder_gradcheck():
    cfg = enc.EncoderConfig(channels=(2, 3))
    params, states = make(cfg, seed=9, in_channels=2)
    x = T.Tensor(np.random.default_rng(10).uniform(-1, 1, (1, 2, 8, 8)),
                 requires_grad=True)
    tensors = [x] + [p.tensor for p in params.values()]

    def loss(*ts):
        fresh = {name: enc.imageops.BNState(states[name].running_mean.size)
                 for name in states}
        pyr = enc.encode_clip(ts[0], cfg, params, fresh, training=True)
        return T.sum_all(T.mul(pyr[-1], pyr[-1]))

    gradcheck(loss, tensors)
