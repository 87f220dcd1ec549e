import numpy as np
import pytest

from denseil import partition, tensor as T
from oracles import gradcheck, nhwc, ppool_ref


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def ppool_pixel_ref(x, P):
    """Per-pixel averaging oracle over [N,H,W,C], python loops only."""
    n, h, w, c = x.shape
    base, rem = divmod(h, P)
    heights = [base + 1] * rem + [base] * (P - rem)
    out = np.zeros((n * P, c))
    for ni in range(n):
        r = 0
        for b, hb in enumerate(heights):
            for ci in range(c):
                total = 0.0
                for i in range(r, r + hb):
                    for j in range(w):
                        total += x[ni, i, j, ci]
                out[ni * P + b, ci] = total / (hb * w)
            r += hb
    return out


def test_band_heights_sum_and_top_heavy():
    for h in range(1, 20):
        for p in range(1, h + 1):
            heights = partition.band_heights(h, p)
            assert sum(heights) == h
            assert sorted(heights, reverse=True) == heights
            assert max(heights) - min(heights) <= 1
    assert partition.band_heights(5, 3) == [2, 2, 1]


def test_ppool_hand_case():
    x = np.zeros((1, 4, 3, 1))
    x[0, :, :, 0] = np.array([[1, 1, 1], [1, 1, 1], [3, 3, 3], [3, 3, 3]])
    out = partition.ppool(t(x), 2)
    assert np.array_equal(out.data, [[1.0], [3.0]])


def test_ppool_single_band_is_global_average():
    rng = np.random.default_rng(50)
    x = rng.normal(size=(3, 4, 5, 6))
    out = partition.ppool(t(nhwc(x)), 1)
    assert np.allclose(out.data, x.mean(axis=(2, 3)))


def test_ppool_constant_map():
    out = partition.ppool(t(np.full((2, 7, 4, 3), 2.5)), 3)
    assert np.allclose(out.data, 2.5)


def test_ppool_matches_pixel_oracle_exactly():
    rng = np.random.default_rng(51)
    x = nhwc(rng.integers(-4, 5, size=(2, 3, 7, 4)).astype(np.float64))
    for P in (1, 2, 3, 7):
        assert np.array_equal(partition.ppool(t(x), P).data, ppool_pixel_ref(x, P))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_ppool_matches_the_band_by_band_oracle_byte_for_byte(dtype):
    rng = np.random.default_rng(56)
    # (H, W, C, P): the desk levels at P = 4, other equal bands, then
    # unequal ones, which config allows
    shapes = [(16, 8, 16, 4), (8, 4, 32, 4), (4, 2, 64, 4), (4, 2, 128, 4),
              (16, 8, 16, 2), (8, 4, 32, 8), (6, 3, 5, 1),
              (16, 8, 16, 3), (4, 2, 64, 3), (7, 3, 5, 2)]
    for h, w, c, P in shapes:
        x = rng.normal(size=(8, h, w, c)).astype(dtype)
        g = rng.normal(size=(8 * P, c)).astype(dtype)
        out = partition.ppool(T.Tensor(x, requires_grad=True), P)
        (dx,) = out._backward(g)
        for got, want in zip((out.data, dx), ppool_ref(x, P, g)):
            assert got.dtype == want.dtype == dtype, (h, w, c, P)
            assert got.shape == want.shape, (h, w, c, P)
            assert got.tobytes() == want.tobytes(), (h, w, c, P)


def test_ppool_frame_permutation_safe():
    rng = np.random.default_rng(52)
    x = nhwc(rng.normal(size=(4, 2, 6, 3)))
    perm = np.array([2, 0, 3, 1])
    P = 3
    direct = partition.ppool(t(x[perm]), P).data
    pooled = partition.ppool(t(x), P).data.reshape(4, P, 2)
    assert np.array_equal(direct, pooled[perm].reshape(4 * P, 2))


def test_ppool_errors():
    x = t(np.zeros((1, 3, 3, 1)))
    with pytest.raises(T.ShapeError):
        partition.ppool(x, 4)
    with pytest.raises(T.ShapeError):
        partition.ppool(x, 0)


def test_ppool_gradcheck():
    rng = np.random.default_rng(53)
    x = t(nhwc(rng.uniform(-1, 1, (2, 2, 5, 3))))
    gradcheck(lambda x: T.sum_all(T.mul(p := partition.ppool(x, 2), p)), [x])


def test_token_index_bijection():
    idx = partition.token_index(3, 4)
    assert len(idx) == 12
    assert len(set(idx)) == 12
    assert idx[0] == (1, 1)
    assert idx[4] == (2, 1)  # frame-major: second frame starts at row P


def test_stack_partitions_shapes():
    rng = np.random.default_rng(54)
    pyramid = [t(nhwc(rng.normal(size=(2, 3, 8, 4)))), t(nhwc(rng.normal(size=(2, 5, 4, 2))))]
    adapters = [t(rng.normal(size=(3, 6))), t(rng.normal(size=(5, 6)))]
    levels = partition.stack_partitions(pyramid, 2, adapters)
    assert len(levels) == 2
    assert all(level.shape == (4, 6) for level in levels)
    # the rows are the pooled tokens mapped by the block's adapter
    for level, block, adapter in zip(levels, pyramid, adapters):
        want = partition.ppool(block, 2).data @ adapter.data
        assert np.array_equal(level.data, want)
    # a block without an adapter is neither pooled nor mapped
    first, last = partition.stack_partitions(pyramid, 2, [None, adapters[1]])
    assert first is None and np.array_equal(last.data, levels[1].data)


def test_stack_partitions_zero_adapter_zeroes_tokens():
    pyramid = [T.Tensor(np.ones((1, 4, 4, 2))), T.Tensor(np.ones((1, 2, 2, 3)))]
    adapters = [T.Tensor(np.zeros((2, 5))), T.Tensor(np.zeros((3, 5)))]
    first, last = partition.stack_partitions(pyramid, 2, adapters)
    assert np.all(last.data == 0) and np.all(first.data == 0)


def test_stack_partitions_identity_adapter():
    rng = np.random.default_rng(55)
    x = nhwc(rng.normal(size=(2, 4, 6, 3)))
    pyramid = [t(x), t(nhwc(rng.normal(size=(2, 4, 3, 3))))]
    adapters = [t(np.eye(4)), t(np.eye(4))]
    first, _ = partition.stack_partitions(pyramid, 3, adapters)
    assert np.array_equal(first.data, partition.ppool(t(x), 3).data)


def test_stack_partitions_rejects_short_block():
    pyramid = [T.Tensor(np.zeros((1, 8, 4, 2))), T.Tensor(np.zeros((1, 2, 2, 3)))]
    adapters = [T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((3, 4)))]
    with pytest.raises(T.ShapeError):
        partition.stack_partitions(pyramid, 3, adapters)
