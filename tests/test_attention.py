"""The fused attention node: byte-level oracle, gradients, MACs, divergence."""

from unittest import mock

import numpy as np
import pytest

from denseil import decoder as dec
from denseil import harness, tensor as T
from denseil.harness import TrainingDiverged, train_run
from micro import micro_corpus, micro_run_config
from oracles import gradcheck, unfused_attention_ref

# (clips, tokens per clip, d, heads) of the desk and micro configs
SHAPES = {"desk": (16, 32, 64, 4), "micro": (4, 8, 12, 2)}


def _attention_graph(mha, shape, dtype, sources, seed=0):
    """Run ``mha`` as the decoder does and backpropagate a random linear
    loss; ``sources`` None is self-attention (q and kv from one tensor),
    else dense attention over that many sources plus the hidden state.
    Returns (output, weights, every leaf's gradient, matmul MACs)."""
    clips, n, d, heads = shape
    rng = np.random.default_rng(seed)

    def leaf(size, sd=1.0):
        return T.Tensor((rng.normal(size=size) * sd).astype(dtype), requires_grad=True)

    H = leaf((clips * n, d))
    srcs = [leaf((clips * n, d)) for _ in range(sources or 0)]
    ws = [leaf((d, d), d ** -0.5) for _ in range(4)]
    gamma, beta = leaf(d), leaf(d)
    ln = T.layer_norm(H, gamma, beta)
    kv = ln if sources is None else T.concat(srcs + [H], 0)
    with T.count_matmuls() as counter:
        out, weights = mha(ln, kv, *ws, heads, clips)
    g = T.Tensor(rng.normal(size=out.shape).astype(dtype))
    T.backward(T.sum_all(T.mul(out, g)))
    grads = [p.grad for p in [H, gamma, beta, *ws, *srcs]]
    assert all(gr is not None for gr in grads)
    return out.data, weights, grads, counter.macs


@pytest.mark.parametrize("sources", [None, 1, 2, 3])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("which", sorted(SHAPES))
def test_fused_attention_matches_unfused_byte_for_byte(which, dtype, sources):
    fused = _attention_graph(dec.multi_head_attention, SHAPES[which], dtype, sources)
    ref = _attention_graph(unfused_attention_ref, SHAPES[which], dtype, sources)
    for got, want in zip(fused[:2] + tuple(fused[2]), ref[:2] + tuple(ref[2])):
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert fused[3] == ref[3]  # MACs, projections included


def test_attention_counts_its_two_gemms():
    clips, n, d, heads = SHAPES["micro"]
    groups = 3
    rng = np.random.default_rng(1)
    q = T.Tensor(rng.normal(size=(clips * n, d)))
    kv = T.Tensor(rng.normal(size=(groups * clips * n, d)))
    with T.count_matmuls() as outer, T.count_matmuls() as inner:
        T.attention(q, kv, kv, heads, clips)
    assert outer.macs == inner.macs == 2 * clips * heads * n * (d // heads) * groups * n


def test_gradcheck_attention():
    rng = np.random.default_rng(2)
    for clips, n, d, heads, groups in ((1, 3, 4, 1, 1), (2, 2, 4, 2, 2), (2, 3, 6, 3, 3)):
        q = T.Tensor(rng.normal(size=(clips * n, d)))
        k = T.Tensor(rng.normal(size=(groups * clips * n, d)))
        v = T.Tensor(rng.normal(size=(groups * clips * n, d)))
        g = T.Tensor(rng.normal(size=(clips * n, d)))
        gradcheck(lambda q, k, v: T.sum_all(T.mul(T.attention(q, k, v, heads, clips)[0], g)),
                  [q, k, v])


def test_attention_weights_are_row_softmaxes_per_clip():
    rng = np.random.default_rng(3)
    clips, n, d, heads = 2, 3, 4, 2
    q = T.Tensor(rng.normal(size=(clips * n, d)))
    kv = T.Tensor(rng.normal(size=(2 * clips * n, d)))
    _, weights = T.attention(q, kv, kv, heads, clips)
    assert weights.shape == (clips, heads, n, 2 * n)
    assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-12)


def test_attention_rejects_bad_shapes():
    x = T.Tensor(np.zeros((6, 4)))
    with pytest.raises(T.ShapeError, match="divisible"):
        T.attention(x, x, x, heads=3)
    with pytest.raises(T.ShapeError, match="clips"):
        T.attention(x, x, x, heads=2, clips=4)
    with pytest.raises(T.ShapeError, match="clips"):
        T.attention(x, T.Tensor(np.zeros((9, 4))), T.Tensor(np.zeros((9, 4))), 2, 2)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, T.Tensor(np.zeros((6, 2))), heads=2)


# ------------------------------------------------------------- divergence


@pytest.mark.parametrize("first_key", [1e20, -1e20])
def test_score_overflow_raises_numeric_error(first_key):
    # finite float32 queries and keys whose dot product overflows: to +inf,
    # which leaves NaN weights, or to -inf in one key, which would leave a
    # finite weight of 0
    d = 8
    q = T.Tensor(np.full((4, d), 1e20, dtype=np.float32))
    kv = np.ones((4, d), dtype=np.float32)
    kv[0] = first_key
    eye = T.Tensor(np.eye(d, dtype=np.float32))
    with np.errstate(all="ignore"), pytest.raises(T.NumericError):
        dec.multi_head_attention(q, T.Tensor(kv), eye, eye, eye, eye, heads=2)


def test_score_overflow_in_training_is_divergence():
    build = harness.build_model

    def huge_projections(cfg):
        model = build(cfg)
        for name in ("wq", "wk"):
            param = model.params["decoder.block1.selfattn." + name]
            param.data = param.data * np.float32(1e19)
        return model

    with mock.patch.object(harness, "build_model", huge_projections), \
            np.errstate(all="ignore"), \
            pytest.raises(TrainingDiverged, match="epoch 0 step 0"):
        train_run(micro_run_config(), micro_corpus())


# ------------------------------------------------------------ bit identity


def _train_bytes(cfg):
    model, report = train_run(cfg, micro_corpus())
    return report.epoch_rows, {name: p.data.tobytes() for name, p in model.params.items()}


@pytest.mark.parametrize("dense_sources", [None, []])
def test_training_with_fused_attention_is_bit_identical_to_unfused(dense_sources):
    # two training steps each way, under the same BLAS kernel
    cfg = micro_run_config(epochs=1, decoder={"dense_sources": dense_sources})
    fused = _train_bytes(cfg)
    with mock.patch.object(dec, "multi_head_attention", unfused_attention_ref):
        unfused = _train_bytes(cfg)
    assert fused == unfused
