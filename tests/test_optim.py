import numpy as np

from denseil import tensor as tn
from denseil.optim import DECAY_INTERVAL, Adam, lr_at
from denseil.tensor import Tensor


def make_param(values):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)


def test_first_step_moves_by_lr_regardless_of_gradient_scale():
    for g in (3.0, 1e-3, 4e4):
        p = make_param([1.0])
        p.grad = np.array([g])
        opt = Adam({"w": p})
        opt.step(0.01)
        assert abs(float(p.data[0]) - (1.0 - 0.01)) < 1e-6


def test_quadratic_converges():
    target = np.array([2.0, -3.0, 0.5])
    p = make_param(np.zeros(3))
    opt = Adam({"x": p})
    for _ in range(800):
        diff = tn.sub(p, Tensor(target))
        loss = tn.sum_all(tn.mul(diff, diff))
        opt.zero_grad()
        tn.backward(loss)
        opt.step(0.05)
    assert np.allclose(p.data, target, atol=1e-3)


def test_none_grad_leaves_param_alone():
    p = make_param([5.0])
    q = make_param([7.0])
    q.grad = np.array([1.0])
    opt = Adam({"w": p, "u": q})
    opt.step(0.1)
    assert float(p.data[0]) == 5.0
    assert float(q.data[0]) != 7.0


def test_zero_grad_resets_grads_to_none():
    p = make_param([1.0, 2.0])
    p.grad = np.array([0.5, 0.5])
    opt = Adam({"w": p})
    opt.zero_grad()
    assert p.grad is None
    opt.step(0.1)
    assert np.array_equal(p.data, [1.0, 2.0])


def test_updates_independent_of_insertion_order():
    def run(order):
        params = {}
        for name in order:
            params[name] = make_param([1.0, 2.0])
            params[name].grad = np.array([0.3, -0.7])
        opt = Adam(params)
        for _ in range(5):
            opt.step(0.01)
        return {n: p.data.copy() for n, p in params.items()}

    a = run(["alpha", "beta", "gamma"])
    b = run(["gamma", "alpha", "beta"])
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_float32_params_stay_float32():
    p = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    p.grad = np.full(4, 0.25, dtype=np.float32)
    opt = Adam({"w": p})
    opt.step(0.1)
    assert p.data.dtype == np.float32
    assert opt.m["w"].dtype == np.float32


def test_lr_schedule_decays_by_factor_per_interval():
    assert DECAY_INTERVAL == 20
    assert lr_at(0, 3e-3) == 3e-3
    assert lr_at(19, 3e-3) == 3e-3
    assert abs(lr_at(20, 3e-3) - 3e-4) < 1e-18
    assert abs(lr_at(45, 3e-3) - 3e-5) < 1e-19
    assert abs(lr_at(100, 1.0) - 1e-5) < 1e-20
