import gc
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from denseil import imageops as im
from denseil import tensor as T
from oracles import batchnorm_relu_ref, conv2d_backward_ref, gradcheck
from test_harness import _spy_on_worker


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def conv2d_ref(x, w, stride):
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
    return out


# (kh, kw) cases: the encoder's 3x3, a pointwise 1x1 and a non-square 5x3
KERNELS = [(3, 3), (1, 1), (5, 3)]


def test_conv2d_matches_loop_oracle():
    rng = np.random.default_rng(30)
    for kernel in KERNELS:
        for stride in (1, 2):
            x = rng.normal(size=(2, 6, 4, 3))
            w = rng.normal(size=(5, 3) + kernel)
            got = im.conv2d(t(x), t(w), stride=stride)
            assert np.allclose(got.data, conv2d_ref(x, w, stride), atol=1e-12)


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


def test_conv2d_gradcheck():
    rng = np.random.default_rng(32)
    for kernel in KERNELS:
        x = t(rng.uniform(-1, 1, (2, 5, 4, 2)))
        w = t(rng.uniform(-1, 1, (3, 2) + kernel))
        for stride in (1, 2):
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
        # the input gradient is not even computed, not just dropped by
        # backward; backward has freed out's closure, so ask a fresh node
        fresh = im.conv2d(xt, wt, stride=2)
        assert (fresh._backward(np.ones_like(fresh.data))[0] is None) == (not x_grad)
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
            out = im.conv2d(T.Tensor(x, requires_grad=True),
                            T.Tensor(w, requires_grad=True), stride=stride)
            g = rng.normal(size=out.shape).astype(dtype)
            got = out._backward(g.copy())
            want = conv2d_backward_ref(x, w, g, stride)
            case = (dtype.__name__, shape, cout, stride, kernel)
            assert len(got) == len(want) == 2, case
            for name, a, r in zip(("dx", "dw"), got, want):
                assert a.dtype == r.dtype and a.shape == r.shape, (name, case)
                assert np.array_equal(_bytes(a), _bytes(r)), (name, case)
            assert got[1].transpose(0, 2, 3, 1).flags.c_contiguous, case


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
        assert dw.dtype == want.dtype and dw.transpose(0, 2, 3, 1).flags.c_contiguous
        assert np.array_equal(_bytes(dw), _bytes(want)), dtype.__name__


def _held_arrays(fn):
    """Every array that closure ``fn`` reaches through its cells: a cell's
    array, its base, a tensor's data and, recursively, a nested closure's."""
    for cell in fn.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, T.Tensor):
            value = value.data
        if callable(value) and hasattr(value, "__closure__"):
            yield from _held_arrays(value)
        while isinstance(value, np.ndarray):
            yield value
            value = value.base


def test_conv2d_forward_keeps_no_columns():
    # the columns have one row per output pixel; backward rebuilds them
    for shape, cout, stride in DESK_CONVS:
        x = T.Tensor(np.zeros(shape, np.float32), requires_grad=True)
        w = T.Tensor(np.zeros((cout, shape[3], 3, 3), np.float32), requires_grad=True)
        out = im.conv2d(x, w, stride=stride)
        rows = out.shape[0] * out.shape[1] * out.shape[2]
        held = list(_held_arrays(out._backward))
        assert any(a is x.data for a in held), shape
        assert all(a.ndim == 0 or a.shape[0] != rows for a in held), shape


def test_conv2d_backward_drops_its_rebuilt_columns(monkeypatch):
    # the caller makes the padded input and the columns and hands them to
    # the job, which only fills them; none outlives the backward
    pool, made = T._worker(), []

    class Spy:
        def submit(self, fn, *args):
            made.extend(weakref.ref(a) for a in args if isinstance(a, np.ndarray))
            return pool.submit(fn, *args)

    monkeypatch.setattr(T, "_worker", Spy)
    rng = np.random.default_rng(46)
    shape, cout, stride = DESK_CONVS[1]
    out = im.conv2d(T.Tensor(rng.normal(size=shape), requires_grad=True),
                    T.Tensor(rng.normal(size=(cout, shape[3], 3, 3)), requires_grad=True),
                    stride=stride)
    g = rng.normal(size=out.shape)
    gc.disable()
    try:
        out._backward(g)
        # the worker drops its finished job before it takes the next
        T._worker().submit(int).result()
        assert [ref().shape for ref in made if ref() is not None] == []
        assert len(made) == 2
    finally:
        gc.enable()


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
    pool = T._worker()
    jobs = []

    class Slow:
        def submit(self, fn, *args):
            def slow_and_failing():
                time.sleep(0.2)
                fn(*args)
                raise _WorkerError
            jobs.append(pool.submit(slow_and_failing))
            return jobs[-1]

    monkeypatch.setattr(T, "_worker", Slow)
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
        if relu:
            # the branch of _bn that every encoder layer runs in conv_bn_relu
            out, back = im._bn(x.copy(), gamma, beta, st, training, relu=True)
            got = (out,) + tuple(back(g.copy()))
        else:
            args = (T.Tensor(x, requires_grad=True),
                    T.Tensor(gamma, requires_grad=True),
                    T.Tensor(beta, requires_grad=True), st, training)
            bn = im.batchnorm_nchw if len(shape) == 4 else im.batchnorm_rows
            out = bn(*args)
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

    # a 1x1 identity kernel hands x to the fused batch norm and ReLU unchanged
    eye = t(np.eye(2)[:, :, None, None])

    def loss(x, g, b):
        out = im.conv_bn_relu(x, eye, g, b, im.BNState(2), True, 1)
        return T.sum_all(T.mul(out, w))

    # finite differences are only valid away from the ReLU kink
    pre = im.batchnorm_nchw(x, g, b, im.BNState(2), training=True)
    assert np.abs(pre.data).min() > 1e-3
    gradcheck(loss, [x, g, b])


def test_fused_batchnorm_relu_rejects_non_finite_pre_activations():
    # the ReLU fused into the encoder's node must not clamp them away; a
    # 1x1 identity kernel hands x to batch norm unchanged
    eye = t(np.eye(2)[:, :, None, None])
    for poison in ("beta", "x"):
        x = t(np.random.default_rng(40).normal(size=(2, 3, 3, 2)))
        g, b = t(np.ones(2)), t(np.zeros(2))
        if poison == "beta":
            # every pre-activation is -inf, which a ReLU would clamp to 0
            b.data[:] = -np.inf
        else:
            x.data[0, 0, 0, 0] = np.nan
        with pytest.raises(T.NumericError):
            im.conv_bn_relu(x, eye, g, b, im.BNState(2), True, 1)


def _fused_matches_unfused(convs, monkeypatch):
    # the first conv on frames that need no gradient, against the two nodes
    # the fused one replaces; a training forward of enough rows splits its
    # GEMM across the two threads, while conv2d's stays one GEMM
    spy = _spy_on_worker(monkeypatch)
    rng = np.random.default_rng(47)
    for dtype in (np.float32, np.float64):
        for layer, (shape, cout, stride) in enumerate(convs):
            for training in (True, False):
                x = rng.normal(size=shape).astype(dtype)
                w = (rng.normal(size=(cout, shape[3], 3, 3)) * 0.3).astype(dtype)
                gamma = rng.uniform(0.5, 1.5, cout).astype(dtype)
                beta = rng.uniform(-0.5, 0.5, cout).astype(dtype)
                g = rng.normal(size=shape[:1] + (
                    shape[1] // stride, shape[2] // stride, cout)).astype(dtype)
                running = (rng.normal(size=cout).astype(dtype),
                           rng.uniform(0.5, 2.0, cout).astype(dtype))
                states = []
                for _ in range(2):
                    states.append(im.BNState(cout, dtype=dtype))
                    if not training:
                        states[-1].update(*running)

                def leaves():
                    return (T.Tensor(x, requires_grad=layer > 0),
                            T.Tensor(w, requires_grad=True),
                            T.Tensor(gamma, requires_grad=True),
                            T.Tensor(beta, requires_grad=True))

                xt, wt, gt, bt = leaves()
                ref = T.relu(im.batchnorm_nchw(im.conv2d(xt, wt, stride=stride),
                                               gt, bt, states[0], training))
                bn = ref._parents[0]
                dconv, dgamma, dbeta = bn._backward(ref._backward(g.copy())[0])
                want = (ref.data,) + bn._parents[0]._backward(dconv) + (dgamma, dbeta)
                jobs = len(spy.jobs)
                fused = im.conv_bn_relu(*leaves(), states[1], training, stride)
                split = len(spy.jobs) - jobs
                got = (fused.data,) + fused._backward(g.copy())
                case = (dtype.__name__, layer, training)
                rows = np.prod(fused.shape[:3])
                assert split == (training and rows >= im._SPLIT_ROWS), case
                assert (got[1] is None) == (want[1] is None) == (layer == 0), case
                for name, a, b in zip(("out", "dx", "dw", "dgamma", "dbeta"),
                                      got, want):
                    if b is not None:
                        assert a.dtype == b.dtype and a.shape == b.shape, (name, case)
                        assert np.array_equal(_bytes(a), _bytes(b)), (name, case)
                assert states[1].num_batches == states[0].num_batches, case
                for name in ("running_mean", "running_var"):
                    a, b = getattr(states[1], name), getattr(states[0], name)
                    assert a.dtype == b.dtype, (name, case)
                    assert np.array_equal(_bytes(a), _bytes(b)), (name, case)


def test_conv_bn_relu_matches_conv2d_then_batchnorm_byte_for_byte(monkeypatch):
    # the desk encoder's eight convs, each of at least 1,024 output rows
    _fused_matches_unfused(DESK_CONVS, monkeypatch)


def test_conv_bn_relu_splits_the_micro_convs_byte_for_byte_without_a_row_minimum(
        monkeypatch):
    # the micro step's four convs, of 512 output rows, cut at 288
    monkeypatch.setattr(im, "_SPLIT_ROWS", 1)
    _fused_matches_unfused(MICRO_CONVS, monkeypatch)


# Runs the test ids it is given in a child whose environment sets
# OPENBLAS_CORETYPE; exits 98 where numpy's BLAS is not its wheel's
# OpenBLAS and 99 where OpenBLAS did not select that kernel.
_KERNEL_CHILD = """
import ctypes, glob, os, sys
import denseil.cli  # BLAS at one thread, as in this suite
import numpy as np
import pytest

libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                              "libscipy_openblas*.so"))
corename = libs and getattr(ctypes.CDLL(libs[0]),
                            "scipy_openblas_get_corename64_", None)
if not corename:
    sys.exit(98)
corename.restype = ctypes.c_char_p
if corename().decode() != os.environ["OPENBLAS_CORETYPE"]:
    sys.exit(99)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


def test_conv_bn_relu_matches_conv2d_byte_for_byte_under_the_haswell_kernel():
    # the row cuts keep every byte on a kernel of other M-tiles too
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    tests = ["tests/test_imageops.py::" + name for name in (
        "test_conv_bn_relu_matches_conv2d_then_batchnorm_byte_for_byte",
        "test_conv_bn_relu_splits_the_micro_convs_byte_for_byte_without_a_row_minimum")]
    child = subprocess.run([sys.executable, "-c", _KERNEL_CHILD, *tests],
                           cwd=root, env=env, capture_output=True, text=True,
                           timeout=300)
    if child.returncode == 98:
        pytest.skip("numpy's BLAS is not the OpenBLAS of its wheel")
    if child.returncode == 99:
        pytest.skip("OpenBLAS cannot select its Haswell kernel on this CPU")
    assert child.returncode == 0, child.stdout + child.stderr
    assert "2 passed" in child.stdout, child.stdout


def test_conv_bn_relu_raises_an_overflow_in_the_workers_rows_under_the_callers_errstate(
        monkeypatch):
    # 16 frames of 8x8, 1,024 output rows, cut at frame 9: 1e20 * 1e20
    # overflows float32 only in the rows the worker's GEMM makes
    spy = _spy_on_worker(monkeypatch)
    x = np.ones((16, 8, 8, 3), np.float32)
    assert im._cut(16, 64) == 9
    x[9:] = 1e20
    w = T.Tensor(np.full((4, 3, 3, 3), 1e20, np.float32), requires_grad=True)
    gamma = T.Tensor(np.ones(4, np.float32), requires_grad=True)
    beta = T.Tensor(np.zeros(4, np.float32), requires_grad=True)
    state = im.BNState(4, np.float32)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            im.conv_bn_relu(T.Tensor(x), w, gamma, beta, state, True, 1)
    (job,) = spy.jobs
    assert isinstance(job.exception(), FloatingPointError)
    # and where overflow is ignored, the finiteness check sees those rows
    with np.errstate(over="ignore"), pytest.raises(T.NumericError):
        im.conv_bn_relu(T.Tensor(x), w, gamma, beta, state, True, 1)
    assert state.num_batches == 0


def gemm_layout(w):
    """Kernel ``w`` [Cout, C, kh, kw] in [Cout, kh, kw, C] memory, as the
    model lays out every kernel."""
    return np.ascontiguousarray(w.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


def test_conv_bn_relu_does_not_depend_on_the_kernel_layout_byte_for_byte():
    # a model kernel, in the GEMM's layout, against a C-contiguous copy of
    # it at the desk encoder's eight convs; dw is laid out as a model kernel
    rng = np.random.default_rng(49)
    for dtype in (np.float32, np.float64):
        for layer, (shape, cout, stride) in enumerate(DESK_CONVS):
            x = rng.normal(size=shape).astype(dtype)
            w = gemm_layout(rng.normal(size=(cout, shape[3], 3, 3)).astype(dtype))
            g = rng.normal(size=shape[:1] + (
                shape[1] // stride, shape[2] // stride, cout)).astype(dtype)
            got = []
            for kernel in (w, np.ascontiguousarray(w)):
                out = im.conv_bn_relu(
                    T.Tensor(x, requires_grad=layer > 0),
                    T.Tensor(kernel, requires_grad=True),
                    T.Tensor(np.ones(cout, dtype), requires_grad=True),
                    T.Tensor(np.zeros(cout, dtype), requires_grad=True),
                    im.BNState(cout, dtype), True, stride)
                dx, dw = out._backward(g.copy())[:2]
                assert dw.strides == w.strides, (dtype.__name__, layer)
                got.append((out.data, dx, dw))
            case = (dtype.__name__, layer)
            for name, a, b in zip(("out", "dx", "dw"), *got):
                if layer == 0 and name == "dx":
                    assert a is b is None, case
                    continue
                assert a.dtype == b.dtype and a.shape == b.shape, (name, case)
                assert np.array_equal(_bytes(a), _bytes(b)), (name, case)


def _cell(fn, name):
    return fn.__closure__[fn.__code__.co_freevars.index(name)].cell_contents


def test_conv_bn_relu_keeps_its_gemm_buffer_as_xhat(monkeypatch):
    # batch norm centres the conv's GEMM output in place; the node keeps
    # that buffer, as xhat, and its output, and no third activation
    conv, gemm = im._conv, []

    def recording(*args):
        pre, back = conv(*args)
        gemm.append(pre)
        return pre, back

    monkeypatch.setattr(im, "_conv", recording)
    rng = np.random.default_rng(48)
    shape, cout, stride = DESK_CONVS[2]
    x = T.Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.normal(size=(cout, shape[3], 3, 3)).astype(np.float32),
                 requires_grad=True)
    gamma = T.Tensor(np.ones(cout, np.float32), requires_grad=True)
    beta = T.Tensor(np.zeros(cout, np.float32), requires_grad=True)
    state = im.BNState(cout, np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = im.conv_bn_relu(x, w, gamma, beta, state, True, stride)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    (pre,) = gemm
    assert pre.shape == out.shape
    xhat = _cell(_cell(out._backward, "bn_back"), "xhat")
    assert np.shares_memory(xhat, pre) and xhat.size == pre.size
    activations = [a for a in _held_arrays(out._backward)
                   if a.dtype.kind == "f" and a.size == out.data.size]
    assert activations
    assert all(np.shares_memory(a, pre) or np.shares_memory(a, out.data)
               for a in activations)
    assert 2 * out.data.nbytes <= held < 3 * out.data.nbytes


def test_conv_bn_relu_raises_on_a_non_finite_conv_output_before_the_statistics_move():
    # 1e30 * 1e30 overflows float32 in the GEMM, as it would in conv2d
    x = T.Tensor(np.full((2, 4, 4, 3), 1e30, np.float32))
    w = T.Tensor(np.full((4, 3, 3, 3), 1e30, np.float32), requires_grad=True)
    gamma = T.Tensor(np.ones(4, np.float32), requires_grad=True)
    beta = T.Tensor(np.zeros(4, np.float32), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(T.NumericError) as unfused:
        im.conv2d(x, w)
    for training in (True, False):
        state = im.BNState(4, np.float32)
        if not training:
            state.update(np.zeros(4, np.float32), np.ones(4, np.float32))
        mean, count = state.running_mean, state.num_batches
        with np.errstate(over="ignore"), pytest.raises(T.NumericError) as fused:
            im.conv_bn_relu(x, w, gamma, beta, state, training, 1)
        assert str(fused.value) == str(unfused.value)
        assert state.num_batches == count and state.running_mean is mean


def test_a_batch_variance_that_overflows_raises_and_moves_no_statistics():
    # finite pre-activations whose squared deviations overflow float32: the
    # output stays finite (1 / sqrt(inf) is 0), so only the statistics show it
    x = np.zeros((2, 2, 2, 3), np.float32)
    x[0, ..., 0], x[1, ..., 0] = 3e19, -3e19
    eye = T.Tensor(np.eye(3, dtype=np.float32)[:, :, None, None])
    g, b = T.Tensor(np.ones(3, np.float32)), T.Tensor(np.zeros(3, np.float32))
    state = im.BNState(3, np.float32)
    mean, var = state.running_mean, state.running_var
    with np.errstate(over="ignore"), pytest.raises(T.NumericError):
        im.conv_bn_relu(T.Tensor(x), eye, g, b, state, True, 1)
    assert state.running_mean is mean and state.running_var is var
    assert mean.tolist() == [0.0] * 3 and var.tolist() == [1.0] * 3
    assert state.num_batches == 0


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


# eval batch norm's constants, kept per set of the running statistics


def _eval_layer(dtype):
    """An eval conv_bn_relu layer as a function of its BNState, with its
    gamma and beta arrays."""
    rng = np.random.default_rng(60)
    x = rng.normal(size=(8, 8, 4, 6)).astype(dtype)
    w = rng.normal(size=(12, 6, 3, 3)).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, 12).astype(dtype)
    beta = rng.normal(size=12).astype(dtype)

    def run(state):
        with T.no_grad():
            return im.conv_bn_relu(T.Tensor(x), T.Tensor(w), T.Tensor(gamma),
                                   T.Tensor(beta), state, False, 1).data

    return run, gamma, beta


def fresh_state(state):
    """A new BNState holding copies of ``state``'s statistics."""
    fresh = im.BNState(state.running_mean.size, state.running_mean.dtype)
    fresh.set(state.running_mean.copy(), state.running_var.copy())
    fresh.num_batches = state.num_batches
    return fresh


def _update(state, rng):
    c, dtype = state.running_mean.size, state.running_mean.dtype
    state.update(rng.normal(size=c).astype(dtype),
                 rng.uniform(0.5, 2.0, c).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_second_eval_call_tiles_no_running_statistics(monkeypatch, dtype):
    run, gamma, beta = _eval_layer(dtype)
    state = im.BNState(12, dtype)
    _update(state, np.random.default_rng(61))
    tiled, real = [], im._tile
    monkeypatch.setattr(im, "_tile", lambda v, k: tiled.append(v) or real(v, k))
    first = run(state)
    assert len(tiled) == 4  # the mean, 1 / sqrt(var + EPS), gamma and beta
    del tiled[:]
    assert run(state).tobytes() == first.tobytes()
    assert len(tiled) == 2 and tiled[0] is gamma and tiled[1] is beta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_after_update_matches_a_fresh_state_byte_for_byte(dtype):
    run, _, _ = _eval_layer(dtype)
    rng = np.random.default_rng(62)
    state = im.BNState(12, dtype)
    seen = set()
    for _ in range(3):
        _update(state, rng)
        got = run(state).tobytes()
        assert got == run(fresh_state(state)).tobytes()
        assert got not in seen  # each update moves the output
        seen.add(got)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_running_statistics_change_only_through_set(dtype):
    run, _, _ = _eval_layer(dtype)
    state = im.BNState(12, dtype)
    _update(state, np.random.default_rng(63))
    before = run(state).tobytes()
    for name in ("running_mean", "running_var"):
        stats = getattr(state, name)
        with pytest.raises(ValueError):
            stats += 1.0
        with pytest.raises(AttributeError):
            setattr(state, name, stats + 1.0)
    assert run(state).tobytes() == before  # nothing moved
    state.set(state.running_mean + 0.25, state.running_var * 1.5)
    got = run(state).tobytes()
    assert got != before and got == run(fresh_state(state)).tobytes()
