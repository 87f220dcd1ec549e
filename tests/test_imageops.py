import os
import signal
import time

import numpy as np
import pytest

from denseil import imageops as im
from denseil import tensor as T
from oracles import batchnorm_relu_ref, conv2d_backward_ref, gradcheck


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def conv2d_ref(x, w, bias, stride):
    """Direct nested-loop convolution of [N,H,W,C] with same padding."""
    n, h, wd, c = x.shape
    cout, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wd + 2 * pw - kw) // stride + 1
    out = np.zeros((n, ho, wo, cout))
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    total = 0.0
                    for ci in range(c):
                        for a in range(kh):
                            for b in range(kw):
                                total += xp[ni, i * stride + a, j * stride + b, ci] * w[co, ci, a, b]
                    out[ni, i, j, co] = total
            if bias is not None:
                out[ni, :, :, co] += bias[co]
    return out


# (kh, kw) cases: the encoder's 3x3, a pointwise 1x1 and a non-square 5x3
KERNELS = [(3, 3), (1, 1), (5, 3)]


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(30)
    for kernel in KERNELS:
        for stride in (1, 2):
            for with_bias in (False, True):
                x = rng.normal(size=(2, 6, 4, 3))
                w = rng.normal(size=(5, 3) + kernel)
                b = rng.normal(size=5) if with_bias else None
                got = im.conv2d(t(x), t(w), None if b is None else t(b), stride=stride)
                assert np.allclose(got.data, conv2d_ref(x, w, b, stride), atol=1e-12)


def test_conv2d_shapes():
    x = t(np.zeros((1, 8, 8, 3)))
    w = t(np.zeros((4, 3, 3, 3)))
    assert im.conv2d(x, w, stride=1).shape == (1, 8, 8, 4)
    assert im.conv2d(x, w, stride=2).shape == (1, 4, 4, 4)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(1, 5, 5, 1))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0  # centered delta passes the input through
    out = im.conv2d(t(x), t(w), stride=1)
    assert np.allclose(out.data, x)


def test_conv2d_rejects_mismatched_channels():
    with pytest.raises(T.ShapeError):
        im.conv2d(t(np.zeros((1, 4, 4, 2))), t(np.zeros((1, 3, 3, 3))))
    with pytest.raises(T.ShapeError):
        im.conv2d(t(np.zeros((1, 4, 4, 2))), t(np.zeros((1, 2, 3, 3))), t(np.zeros(2)))


def test_conv2d_gradcheck():
    rng = np.random.default_rng(32)
    for kernel in KERNELS:
        x = t(rng.uniform(-1, 1, (2, 5, 4, 2)))
        w = t(rng.uniform(-1, 1, (3, 2) + kernel))
        b = t(rng.uniform(-1, 1, 3))
        for stride in (1, 2):
            gradcheck(lambda x, w, b: T.sum_all(T.mul(c := im.conv2d(x, w, b, stride=stride), c)),
                      [x, w, b])
            gradcheck(lambda x, w: T.sum_all(T.mul(c := im.conv2d(x, w, stride=stride), c)),
                      [x, w])


def test_conv2d_skips_gradient_of_constant_input():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(2, 6, 4, 3))
    w = rng.normal(size=(4, 3, 3, 3))
    grads = {}
    for x_grad in (False, True):
        xt, wt = t(x, rg=x_grad), t(w, rg=True)
        out = im.conv2d(xt, wt, stride=2)
        T.backward(T.sum_all(T.mul(out, out)))
        grads[x_grad] = (xt.grad, wt.grad)
        # the input gradient is not even computed, not just dropped by backward
        assert (out._backward(np.ones_like(out.data))[0] is None) == (not x_grad)
    assert grads[False][0] is None
    assert grads[True][0] is not None
    assert np.array_equal(grads[False][1], grads[True][1])


def test_batchnorm_train_standardizes():
    rng = np.random.default_rng(33)
    x = t(rng.normal(loc=3.0, scale=2.0, size=(8, 5, 5, 4)))
    st = im.BNState(4)
    out = im.batchnorm_nchw(x, t(np.ones(4)), t(np.zeros(4)), st, training=True)
    assert np.allclose(out.data.mean(axis=(0, 1, 2)), 0.0, atol=1e-10)
    assert np.allclose(out.data.var(axis=(0, 1, 2)), 1.0, atol=1e-4)
    assert st.num_batches == 1


def test_batchnorm_running_stats_converge():
    rng = np.random.default_rng(34)
    st = im.BNState(2)
    g, b = t(np.ones(2)), t(np.zeros(2))
    for _ in range(40):
        x = t(rng.normal(loc=[1.0, -2.0], scale=1.0, size=(64, 2)))
        im.batchnorm_rows(x, g, b, st, training=True)
    assert np.allclose(st.running_mean, [1.0, -2.0], atol=0.3)
    # eval mode now uses the frozen averages
    x = t(np.array([[1.0, -2.0]]))
    out = im.batchnorm_rows(x, g, b, st, training=False)
    assert np.all(np.abs(out.data) < 0.5)


def test_batchnorm_eval_before_train_errors():
    st = im.BNState(3)
    with pytest.raises(im.RunningStatsError):
        im.batchnorm_rows(t(np.zeros((2, 3))), t(np.ones(3)), t(np.zeros(3)), st, training=False)


def test_batchnorm_gradcheck_train_and_eval():
    rng = np.random.default_rng(35)
    x = t(rng.uniform(-1, 1, (3, 2, 2, 2)))
    g = t(rng.uniform(0.5, 1.5, 2))
    b = t(rng.uniform(-0.5, 0.5, 2))

    def train_loss(x, g, b):
        st = im.BNState(2)
        out = im.batchnorm_nchw(x, g, b, st, training=True)
        return T.sum_all(T.mul(out, out))

    gradcheck(train_loss, [x, g, b])

    frozen = im.BNState(2)
    frozen.update(rng.normal(size=2), rng.uniform(0.5, 1.5, 2))

    def eval_loss(x, g, b):
        out = im.batchnorm_nchw(x, g, b, frozen, training=False)
        return T.sum_all(T.mul(out, out))

    gradcheck(eval_loss, [x, g, b])


def test_batchnorm_rows_gradcheck():
    rng = np.random.default_rng(36)
    x = t(rng.uniform(-1, 1, (5, 3)))
    g = t(rng.uniform(0.5, 1.5, 3))
    b = t(rng.uniform(-0.5, 0.5, 3))

    def loss(x, g, b):
        out = im.batchnorm_rows(x, g, b, im.BNState(3), training=True)
        return T.mean_all(T.mul(out, out))

    gradcheck(loss, [x, g, b])


# the eight batch-norm inputs of a desk encoder step (16 clips x 8 frames of
# 32x16, channels 16..128), the four of a micro step (4 clips x 4 frames of
# 16x8, channels 6 and 12), then row counts no power-of-two tile divides and
# a single channel, which numpy sums pairwise
DESK_BN_SHAPES = [(128, 16, 8, 16)] * 2 + [(128, 8, 4, 32)] * 2 + [
    (128, 4, 2, 64)] * 2 + [(128, 4, 2, 128)] * 2
MICRO_BN_SHAPES = [(16, 8, 4, 6)] * 2 + [(16, 8, 4, 12)] * 2
ODD_BN_SHAPES = [(3, 5, 7, 16), (2, 3, 5, 12), (4, 9, 7, 1)]
# batchnorm_rows in the head: desk [B, d], micro at its batch of 4 clips
# and at one clip, one feature
ROWS_BN_SHAPES = [(16, 64), (4, 12), (1, 12), (300, 1)]

# conv2d (x shape, Cout, stride, kernel) cases: the eight layers of a desk
# encoder step and the four of a micro step, then odd H and W, every kernel
# at both strides, and a 5x3 kernel whose outer rows lie wholly in padding
DESK_CONVS = [((128, 32, 16, 3), 16, 2), ((128, 16, 8, 16), 16, 1),
              ((128, 16, 8, 16), 32, 2), ((128, 8, 4, 32), 32, 1),
              ((128, 8, 4, 32), 64, 2), ((128, 4, 2, 64), 64, 1),
              ((128, 4, 2, 64), 128, 1), ((128, 4, 2, 128), 128, 1)]
MICRO_CONVS = [((16, 16, 8, 3), 6, 2), ((16, 8, 4, 6), 6, 1),
               ((16, 8, 4, 6), 12, 1), ((16, 8, 4, 12), 12, 1)]
CONV_CASES = [shape + ((3, 3),) for shape in DESK_CONVS + MICRO_CONVS] + [
    ((2, 7, 5, 3), 4, stride, kernel)
    for kernel in KERNELS for stride in (1, 2)] + [
    ((3, 9, 11, 5), 6, stride, kernel)
    for kernel in KERNELS for stride in (1, 2)] + [((2, 1, 3, 2), 3, 1, (5, 3))]


def _bytes(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_conv2d_backward_matches_padded_col2im_byte_for_byte():
    rng = np.random.default_rng(41)
    for dtype in (np.float32, np.float64):
        for shape, cout, stride, kernel in CONV_CASES:
            x = rng.normal(size=shape).astype(dtype)
            w = rng.normal(size=(cout, shape[3]) + kernel).astype(dtype)
            b = rng.normal(size=cout).astype(dtype)
            out = im.conv2d(T.Tensor(x, requires_grad=True),
                            T.Tensor(w, requires_grad=True),
                            T.Tensor(b, requires_grad=True), stride=stride)
            g = rng.normal(size=out.shape).astype(dtype)
            got = out._backward(g.copy())
            want = conv2d_backward_ref(x, w, g, stride)
            case = (dtype.__name__, shape, cout, stride, kernel)
            for name, a, r in zip(("dx", "dw", "dbias"), got, want):
                assert a.dtype == r.dtype and a.shape == r.shape, (name, case)
                assert np.array_equal(_bytes(a), _bytes(r)), (name, case)
            assert got[1].flags.c_contiguous, case


def test_first_conv_backward_without_dx_matches_padded_col2im_byte_for_byte():
    # the frames need no gradient, so the worker's dw is the whole backward
    rng = np.random.default_rng(42)
    shape, cout, stride = DESK_CONVS[0]
    for dtype in (np.float32, np.float64):
        x = rng.normal(size=shape).astype(dtype)
        w = rng.normal(size=(cout, shape[3], 3, 3)).astype(dtype)
        out = im.conv2d(T.Tensor(x), T.Tensor(w, requires_grad=True),
                        stride=stride)
        g = rng.normal(size=out.shape).astype(dtype)
        dx, dw = out._backward(g.copy())
        want = conv2d_backward_ref(x, w, g, stride)[1]
        assert dx is None
        assert dw.dtype == want.dtype and dw.flags.c_contiguous
        assert np.array_equal(_bytes(dw), _bytes(want)), dtype.__name__


def test_conv2d_backward_raises_an_overflow_in_dw_under_the_callers_errstate():
    # 1e20 * 1e20 overflows float32 in dw alone; x needs no gradient, so
    # only the worker thread's GEMM can raise
    x = np.full((2, 4, 4, 3), 1e20, np.float32)
    w = np.full((4, 3, 3, 3), 1e-20, np.float32)
    out = im.conv2d(T.Tensor(x), T.Tensor(w, requires_grad=True))
    g = np.full(out.shape, 1e20, np.float32)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            out._backward(g)


class _WorkerError(Exception):
    pass


def test_conv2d_backward_joins_the_worker_when_dx_fails(monkeypatch):
    # dx overflows on the caller while the worker's job, slowed down, fails
    # too: the caller's error is the one raised, once the job has finished
    pool = im._worker()
    jobs = []

    class Slow:
        def submit(self, fn, *args):
            def slow_and_failing():
                time.sleep(0.2)
                fn(*args)
                raise _WorkerError
            jobs.append(pool.submit(slow_and_failing))
            return jobs[-1]

    monkeypatch.setattr(im, "_pool", Slow())
    x = np.full((2, 4, 4, 3), 1e-30, np.float32)
    w = np.full((4, 3, 3, 3), 1e20, np.float32)
    out = im.conv2d(T.Tensor(x, requires_grad=True),
                    T.Tensor(w, requires_grad=True))
    g = np.full(out.shape, 1e20, np.float32)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            out._backward(g)
    assert len(jobs) == 1 and jobs[0].done()
    assert isinstance(jobs[0].exception(), _WorkerError)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_conv2d_backward_runs_in_a_child_forked_after_one():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(2, 6, 4, 3))
    w = rng.normal(size=(4, 3, 3, 3))
    g = rng.normal(size=(2, 3, 2, 4))

    def grads():
        out = im.conv2d(t(x, rg=True), t(w, rg=True), stride=2)
        return out._backward(g)

    want = grads()  # this process's worker thread exists from here on
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            # a backward waiting on a thread the child lacks ends by SIGALRM
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            signal.alarm(30)
            got = grads()
            code = 0 if all(np.array_equal(a, b)
                            for a, b in zip(got, want)) else 3
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_fused_batchnorm_relu_matches_unfused_composition_byte_for_byte():
    rng = np.random.default_rng(38)
    cases = [(dtype, shape, training, relu)
             for dtype in (np.float32, np.float64)
             for shape in DESK_BN_SHAPES + MICRO_BN_SHAPES + ODD_BN_SHAPES
             + ROWS_BN_SHAPES
             for training in (True, False) for relu in (True, False)
             if len(shape) == 4 or not relu]  # batchnorm_rows has no ReLU
    for dtype, shape, training, relu in cases:
        c = shape[-1]
        x = rng.normal(0.5, 2.0, shape).astype(dtype)
        gamma = rng.uniform(-1.5, 1.5, c).astype(dtype)
        beta = rng.uniform(-0.5, 0.5, c).astype(dtype)
        beta[-1] = -1e3  # every pre-activation of the last channel is masked
        g = rng.normal(size=shape).astype(dtype)
        g[..., 0] = -0.0  # a -0.0 the zeroed buffers turn into +0.0
        g[..., -1] = -np.abs(g[..., -1])
        st = im.BNState(c, dtype=dtype)
        if not training:
            st.update(rng.normal(size=c).astype(dtype),
                      rng.uniform(0.5, 2.0, c).astype(dtype))
        running = None if training else (st.running_mean, st.running_var)
        want = batchnorm_relu_ref(x, gamma, beta, g, running, relu)
        args = (T.Tensor(x, requires_grad=True),
                T.Tensor(gamma, requires_grad=True),
                T.Tensor(beta, requires_grad=True), st, training)
        if len(shape) == 4:
            out = im.batchnorm_nchw(*args, relu=relu)
        else:
            out = im.batchnorm_rows(*args)
        got = (out.data,) + tuple(out._backward(g.copy()))
        case = (dtype.__name__, shape, training, relu)
        for name, a, b in zip(("out", "dx", "dgamma", "dbeta"), got, want):
            assert a.dtype == b.dtype and a.shape == b.shape, (name, case)
            assert np.array_equal(_bytes(a), _bytes(b)), (name, case)
        if training:
            assert np.array_equal(_bytes(st.running_mean), _bytes(0.1 * want[4]))
            assert np.array_equal(_bytes(st.running_var),
                                  _bytes(0.9 + 0.1 * want[5]))


def test_fused_batchnorm_relu_gradcheck():
    rng = np.random.default_rng(39)
    x = t(rng.uniform(-1, 1, (3, 2, 2, 2)))
    g = t(rng.uniform(0.5, 1.5, 2))
    b = t(rng.uniform(-0.5, 0.5, 2))
    w = t(rng.normal(size=(3, 2, 2, 2)))

    def loss(x, g, b):
        out = im.batchnorm_nchw(x, g, b, im.BNState(2), training=True, relu=True)
        return T.sum_all(T.mul(out, w))

    # finite differences are only valid away from the ReLU kink
    pre = im.batchnorm_nchw(x, g, b, im.BNState(2), training=True)
    assert np.abs(pre.data).min() > 1e-3
    gradcheck(loss, [x, g, b])


def test_fused_batchnorm_relu_rejects_non_finite_pre_activations():
    for poison in ("beta", "x"):
        x = t(np.random.default_rng(40).normal(size=(2, 3, 3, 2)))
        g, b = t(np.ones(2)), t(np.zeros(2))
        if poison == "beta":
            # every pre-activation is -inf, which a ReLU would clamp to 0
            b.data[:] = -np.inf
        else:
            x.data[0, 0, 0, 0] = np.nan
        with pytest.raises(T.NumericError):
            im.batchnorm_nchw(x, g, b, im.BNState(2), training=True, relu=True)


# numpy calls without wrappers: each stand-in against the call it replaces


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tile_matches_np_tile_byte_for_byte(dtype):
    v = np.random.default_rng(44).normal(size=24).astype(dtype)
    for k in (1, 2, 16, 85):
        got = im._tile(v, k)
        want = np.tile(v, k)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and got.flags.writeable
        assert not np.shares_memory(got, v)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride", [1, 2])
def test_conv_windows_match_as_strided(dtype, stride):
    rng = np.random.default_rng(45)
    n, h, w, c, kh, kw = 3, 10, 6, 5, 3, 3
    xp = rng.normal(size=(n, h + 2, w + 2, c)).astype(dtype)
    ho, wo = (h - 1) // stride + 1, (w - 1) // stride + 1
    sn, sh, sw, sc = xp.strides
    want = np.lib.stride_tricks.as_strided(
        xp, (n, ho, wo, kh, kw * c), (sn, stride * sh, stride * sw, sh, sc))
    got = im._windows(xp, ho, wo, kh, kw, stride)
    assert got.shape == want.shape and got.strides == want.strides
    assert got.dtype == want.dtype and np.shares_memory(got, xp)
    cols = (n * ho * wo, kh * kw * c)
    assert got.reshape(cols).tobytes() == want.reshape(cols).tobytes()
