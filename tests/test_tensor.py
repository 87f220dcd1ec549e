import numpy as np
import pytest

from denseil import tensor as T
from oracles import backward_ref, gradcheck


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------- softmax


def test_softmax_uniform_logits():
    out = T.softmax_rows(t([[0.0, 0.0, 0.0]]))
    assert np.allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_softmax_large_equal_logits_stable():
    out = T.softmax_rows(t([[1000.0, 1000.0]]))
    assert np.allclose(out.data, [[0.5, 0.5]], atol=1e-12)


def test_softmax_log_integer_logits():
    out = T.softmax_rows(t([[np.log(1.0), np.log(2.0), np.log(3.0)]]))
    assert np.allclose(out.data, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


def test_softmax_rows_sum_to_one_at_huge_magnitude():
    rng = np.random.default_rng(0)
    x = t(rng.uniform(-1e4, 1e4, size=(5, 7)))
    out = T.softmax_rows(x)
    assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(out.data <= 1)
    moderate = T.softmax_rows(t(rng.uniform(-5, 5, size=(5, 7))))
    assert np.all(moderate.data > 0)


def test_softmax_rejects_non_2d():
    with pytest.raises(T.ShapeError):
        T.softmax_rows(t([1.0, 2.0]))


def test_softmax_rejects_nan():
    bad = T.Tensor(np.array([[1.0, 0.0]]))
    bad.data[0, 0] = np.nan  # past the construction check
    with pytest.raises(T.NumericError):
        T.softmax_rows(bad)


def test_finite_check_on_construction():
    with pytest.raises(T.NumericError):
        T.Tensor(np.array([np.inf]))


# ---------------------------------------------------------------- layer norm


def test_layer_norm_zero_variance_collapses_to_beta():
    x = t([[5.0, 5.0, 5.0, 5.0]])
    out = T.layer_norm(x, t(np.ones(4)), t(np.zeros(4)), eps=1e-5)
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized_row():
    x = t([[1.0, -1.0]])
    out = T.layer_norm(x, t(np.ones(2)), t(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_gamma_zero_gives_beta():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(3, 5)))
    out = T.layer_norm(x, t(np.zeros(5)), t(np.full(5, 2.5)), eps=1e-5)
    assert np.allclose(out.data, 2.5)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(2)
    x = t(rng.normal(scale=3.0, size=(4, 16)))
    out = T.layer_norm(x, t(np.ones(16)), t(np.zeros(16)), eps=1e-10)
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-5)
    assert np.allclose(out.data.var(axis=1), 1.0, atol=1e-5)


def test_layer_norm_rejects_bad_eps_and_width():
    x = t([[1.0, 2.0]])
    with pytest.raises(T.ShapeError):
        T.layer_norm(x, t(np.ones(2)), t(np.zeros(2)), eps=0.0)
    with pytest.raises(T.ShapeError):
        T.layer_norm(t(np.zeros((2, 0))), t(np.ones(0)), t(np.zeros(0)))


# ---------------------------------------------------------------- ffn


def test_ffn_is_matmul_add_relu_matmul_add():
    x, w1, b1 = t(np.ones((3, 2))), t(np.ones((2, 4))), t(np.zeros(4))
    w2, b2 = t(np.ones((4, 2))), t(np.zeros(2))
    out = T.ffn(x, w1, b1, w2, b2)
    second, bias2 = out._parents
    hidden, weight2 = second._parents
    first_biased, = hidden._parents
    first, bias1 = first_biased._parents
    assert (bias2, weight2, bias1) == (b2, w2, b1)
    assert first._parents == (x, w1)
    with pytest.raises(T.ShapeError):
        T.ffn(x, t(np.ones((3, 4))), b1, w2, b2)


def test_ffn_dead_first_layer_gives_bias():
    x = t(np.ones((3, 2)))
    out = T.ffn(x, t(np.zeros((2, 4))), t(np.zeros(4)), t(np.ones((4, 2))), t([7.0, 7.0]))
    assert np.allclose(out.data, 7.0)


def test_ffn_scalar_relu_clips():
    out = T.ffn(t([[2.0]]), t([[1.0]]), t([-3.0]), t([[5.0]]), t([0.0]))
    assert out.data.item() == 0.0


def test_ffn_scalar_active_path():
    out = T.ffn(t([[2.0]]), t([[1.0]]), t([0.0]), t([[5.0]]), t([1.0]))
    assert out.data.item() == 11.0


def test_ffn_linear_on_fixed_active_set():
    # f(x+y) = f(x) + f(y) - f(0) when the ReLU mask does not move
    rng = np.random.default_rng(3)
    w1 = t(rng.normal(size=(4, 6)))
    b1 = t(np.full(6, 10.0))  # large bias keeps every unit active
    w2 = t(rng.normal(size=(6, 4)))
    b2 = t(rng.normal(size=4))
    x = t(rng.normal(size=(2, 4)) * 0.1)
    y = t(rng.normal(size=(2, 4)) * 0.1)
    fxy = T.ffn(T.add(x, y), w1, b1, w2, b2).data
    fx = T.ffn(x, w1, b1, w2, b2).data
    fy = T.ffn(y, w1, b1, w2, b2).data
    f0 = T.ffn(t(np.zeros((2, 4))), w1, b1, w2, b2).data
    assert np.allclose(fxy, fx + fy - f0, atol=1e-10)


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    w = t(np.arange(6.0).reshape(2, 3), rg=True)
    T.backward(T.sum_all(w))
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_half_quadratic_gives_w():
    w = t([1.0, -2.0, 3.0], rg=True)
    T.backward(T.scale(T.sum_all(T.mul(w, w)), 0.5))
    assert np.allclose(w.grad, w.data)


def test_backward_accumulates_across_calls():
    w = t([2.0], rg=True)
    loss = T.sum_all(T.mul(w, w))
    T.backward(loss)
    first = w.grad.copy()
    loss2 = T.sum_all(T.mul(w, w))
    T.backward(loss2)
    assert np.allclose(w.grad, 2 * first)


def test_backward_rejects_non_scalar():
    w = t([1.0, 2.0], rg=True)
    with pytest.raises(T.GraphError):
        T.backward(T.mul(w, w))


def test_backward_shared_subexpression():
    # y = x*x reused twice: loss = sum(y) + sum(y) -> grad 4x
    x = t([1.0, 2.0], rg=True)
    y = T.mul(x, x)
    T.backward(T.add(T.sum_all(y), T.sum_all(y)))
    assert np.allclose(x.grad, 4 * x.data)


def test_unreached_leaf_keeps_none_grad():
    used = t([1.0], rg=True)
    idle = t([1.0], rg=True)
    T.backward(T.sum_all(used))
    assert idle.grad is None
    assert np.array_equal(used.grad, [1.0])


def _graphs():
    """Fresh graphs whose leaves get their gradient through add (its own
    grad handed to both parents), from two nodes (a leaf used twice),
    through the views reshape and concat return, as one fresh array
    returned for two parents, and in float64 from a float32 graph that a
    float64 0-d constant joins, as batch_hard_triplet's margin does."""
    rng = np.random.default_rng(5)
    a, b, d = (t(rng.normal(size=(2, 3)), rg=True) for _ in range(3))
    yield "add and reuse", T.sum_all(T.mul(T.add(a, b), T.mul(a, d)))
    a, w = t(rng.normal(size=(2, 3)), rg=True), t(rng.normal(size=(3, 2)), rg=True)
    yield "reshape", T.sum_all(T.mul(T.reshape(a, (3, 2)), w))
    a, b = t(rng.normal(size=(2, 3)), rg=True), t(rng.normal(size=(1, 3)), rg=True)
    w = t(rng.normal(size=(3, 3)), rg=True)
    yield "concat", T.sum_all(T.mul(T.concat([a, b], 0), w))
    a, b = t(rng.normal(size=3), rg=True), t(rng.normal(size=3), rg=True)
    both = T.Tensor(a.data + b.data, _parents=(a, b),
                    _backward=lambda g: (g * 1.0,) * 2)
    yield "one array for two parents", T.sum_all(T.mul(both, both))
    a, w = (T.Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
            for _ in range(2))
    margin = T.Tensor(np.asarray(0.3))
    yield "float64 constant", T.mean_all(T.relu(T.add(T.mul(a, w), margin)))


def test_backward_grads_equal_zero_then_add_and_are_read_only():
    for (name, loss), (_, again) in zip(_graphs(), _graphs()):
        T.backward(loss)
        backward_ref(again)
        nodes = _walk(loss)
        for got, want in zip(nodes, _walk(again)):
            assert (got.grad is None) == (want.grad is None), name
            if got.grad is not None:
                assert got.grad.dtype == want.grad.dtype, name
                assert got.grad.shape == want.grad.shape, name
                assert np.array_equal(got.grad, want.grad), name
        # an in-place write into any grad, the loss's included, raises
        assert loss.grad is not None
        for n in nodes:
            if n.grad is not None:
                with pytest.raises(ValueError):
                    n.grad += 1.0


def _walk(root):
    """Every tensor reachable from ``root``, in a fixed depth-first order."""
    out, seen, todo = [], set(), [root]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        out.append(node)
        todo.extend(reversed(node._parents))
    return out


def test_backward_adopts_an_owned_first_gradient():
    a, d = t([1.0, -2.0], rg=True), t([3.0, 4.0], rg=True)
    prod = T.mul(a, d)
    handed, inner = [], prod._backward

    def recording(g):
        handed[:] = inner(g)
        return handed

    prod._backward = recording
    s = T.add(prod, a)
    T.backward(T.sum_all(s))
    assert a.grad is not s.grad and d.grad is handed[1]
    assert np.array_equal(a.grad, [4.0, 5.0])


def test_backward_keeps_view_and_shared_first_gradients_without_a_copy():
    rng = np.random.default_rng(6)
    a, w = t(rng.normal(size=(2, 3)), rg=True), t(rng.normal(size=(3, 2)), rg=True)
    r = T.reshape(a, (3, 2))
    s = T.add(r, w)
    T.backward(T.sum_all(T.mul(s, s)))
    assert np.shares_memory(a.grad, r.grad)
    assert np.shares_memory(r.grad, s.grad) and np.shares_memory(w.grad, s.grad)
    assert np.array_equal(a.grad, (2 * s.data).reshape(2, 3))


def test_backward_rejects_a_wrongly_shaped_gradient():
    a = t(np.zeros((2, 3)), rg=True)
    # (3,) broadcasts to (2, 3), so only the shape check can catch it
    bad = T.Tensor(a.data.copy(), _parents=(a,), _backward=lambda g: (g[0],))
    with pytest.raises(T.GraphError):
        T.backward(T.sum_all(bad))


# ------------------------------------------------------- gradient checking


def test_gradcheck_elementwise_and_broadcast():
    rng = np.random.default_rng(10)
    a = t(rng.uniform(-1, 1, (3, 4)))
    b = t(rng.uniform(-1, 1, (3, 4)))
    bias = t(rng.uniform(-1, 1, 4))
    gradcheck(lambda a, b, c: T.sum_all(T.mul(T.add(a, c), T.sub(a, b))), [a, b, bias])


def test_gradcheck_matmul_transpose():
    rng = np.random.default_rng(11)
    a = t(rng.uniform(-1, 1, (3, 5)))
    b = t(rng.uniform(-1, 1, (5, 2)))
    gradcheck(lambda a, b: T.sum_all(T.matmul(T.transpose(a), T.matmul(a, b))), [a, b])


def test_gradcheck_exp_log_sqrt():
    rng = np.random.default_rng(12)
    x = t(rng.uniform(0.5, 2.0, (2, 3)))
    gradcheck(lambda x: T.sum_all(T.mul(T.log(x), T.sqrt(T.exp(x)))), [x])


def test_gradcheck_relu_away_from_kink():
    rng = np.random.default_rng(13)
    x = t(rng.uniform(-1, 1, (4, 4)) + np.where(rng.uniform(size=(4, 4)) > 0.5, 0.2, -0.2))
    gradcheck(lambda x: T.sum_all(T.relu(x)), [x])


def test_gradcheck_softmax_pick():
    rng = np.random.default_rng(14)
    x = t(rng.uniform(-2, 2, (3, 5)))
    rows = np.array([0, 1, 2])
    cols = np.array([4, 0, 2])
    gradcheck(lambda x: T.sum_all(T.log(T.pick(T.softmax_rows(x), rows, cols))), [x])


def test_gradcheck_layer_norm():
    rng = np.random.default_rng(15)
    x = t(rng.uniform(-1, 1, (3, 6)))
    g = t(rng.uniform(0.5, 1.5, 6))
    b = t(rng.uniform(-0.5, 0.5, 6))
    gradcheck(lambda x, g, b: T.sum_all(T.mul(T.layer_norm(x, g, b, 1e-5),
                                              T.layer_norm(x, g, b, 1e-5))), [x, g, b])


def test_gradcheck_ffn():
    rng = np.random.default_rng(16)
    x = t(rng.uniform(-1, 1, (2, 3)))
    w1 = t(rng.uniform(-1, 1, (3, 4)))
    b1 = t(rng.uniform(-1, 1, 4))
    w2 = t(rng.uniform(-1, 1, (4, 3)))
    b2 = t(rng.uniform(-1, 1, 3))
    gradcheck(lambda *ts: T.mean_all(T.ffn(*ts)), [x, w1, b1, w2, b2])


def test_gradcheck_concat_rows_cols():
    rng = np.random.default_rng(17)
    a = t(rng.uniform(-1, 1, (2, 3)))
    b = t(rng.uniform(-1, 1, (4, 3)))

    def loss(a, b):
        cat = T.concat([a, b], 0)
        wide = T.concat([cat, T.scale(cat, 2.0)], 1)
        return T.sum_all(T.mul(wide, wide))

    gradcheck(loss, [a, b])


def test_gradcheck_reductions():
    rng = np.random.default_rng(18)
    x = t(rng.uniform(-1, 1, (4, 5)))
    gradcheck(lambda x: T.sum_all(T.mul(T.mean_rows(x), T.mean_rows(x))), [x])
    y = t(rng.uniform(-1, 1, (4, 5)))
    gradcheck(lambda y: T.mean_all(T.mul(T.sum_axis1(y), T.sum_axis1(y))), [y])


def test_gradcheck_reshape_broadcast_distance_pattern():
    # the [n,1] + [1,n] - 2ab^T pattern used by pairwise distances
    rng = np.random.default_rng(19)
    e = t(rng.uniform(-1, 1, (4, 3)))

    def loss(e):
        sq = T.sum_axis1(T.mul(e, e))
        a = T.reshape(sq, (4, 1))
        b = T.reshape(sq, (1, 4))
        s = T.add(T.add(a, b), T.scale(T.matmul(e, T.transpose(e)), -2.0))
        return T.sum_all(T.sqrt(T.relu(s)))

    gradcheck(loss, [e])


def test_pick_duplicate_indices_accumulate():
    x = t(np.eye(3), rg=True)
    out = T.pick(x, np.array([0, 0]), np.array([0, 0]))
    T.backward(T.sum_all(out))
    assert x.grad[0, 0] == 2.0


# ---------------------------------------------------------------- plumbing


def test_matmul_counter_counts_macs():
    a = t(np.ones((2, 3)))
    b = t(np.ones((3, 4)))
    with T.count_matmuls() as c:
        T.matmul(a, b)
    assert c.macs == 2 * 3 * 4


def test_matmul_counter_nests():
    a = t(np.ones((2, 2)))
    with T.count_matmuls() as outer:
        T.matmul(a, a)
        with T.count_matmuls() as inner:
            T.matmul(a, a)
    assert inner.macs == 8
    assert outer.macs == 16


def test_matmul_rejects_bad_shapes():
    with pytest.raises(T.ShapeError):
        T.matmul(t(np.zeros(3)), t(np.zeros((3, 2))))
    with pytest.raises(T.ShapeError):
        T.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))


def test_stacked_ops_match_per_slice_ops():
    rng = np.random.default_rng(21)
    a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
    with T.count_matmuls() as counter:
        prod = T.matmul(t(a), t(b))
    assert counter.macs == 3 * 2 * 4 * 5
    soft = T.softmax_rows(t(a))
    mean = T.mean_rows(t(a))
    for i in range(3):
        assert np.allclose(prod.data[i], a[i] @ b[i], atol=1e-12)
        assert np.allclose(soft.data[i], T.softmax_rows(t(a[i])).data, atol=1e-15)
        assert np.allclose(mean.data[i], a[i].mean(axis=0), atol=1e-15)
    assert np.array_equal(T.transpose(t(a), (2, 0, 1)).data,
                          np.transpose(a, (2, 0, 1)))
    with pytest.raises(T.ShapeError):
        T.matmul(t(a), t(b[:2]))
    with pytest.raises(T.ShapeError):
        T.matmul(t(a), t(b[0]))


def test_determinism_same_input_bitwise():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(6, 6))
    w = rng.normal(size=(6, 6))

    def run():
        out = T.ffn(T.layer_norm(t(x), t(np.ones(6)), t(np.zeros(6))),
                    t(w), t(np.zeros(6)), t(w.T.copy()), t(np.zeros(6)))
        return T.softmax_rows(out).data.tobytes()

    assert run() == run()
