import gc
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from denseil import imageops as im
from denseil import tensor as T
from denseil.losses import total_loss
from denseil.model import build_model, forward_batch
from micro import micro_run_config
from oracles import backward_ref, gradcheck


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------- softmax


def softmax(x):
    """Row softmax of a [rows, cols] array by ``T.attention``'s weights: one
    head of width 1, one unit query per clip and one key per column, so
    each score q·k is exactly the entry."""
    rows, cols = x.shape
    k = t(x.T.reshape(-1, 1))  # group-major: key g of clip r is x[r, g]
    _, weights = T.attention(t(np.ones((rows, 1))), k, k, heads=1, clips=rows)
    return weights.reshape(rows, cols)


def test_softmax_uniform_logits():
    out = softmax(np.array([[0.0, 0.0, 0.0]]))
    assert np.allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_softmax_large_equal_logits_stable():
    out = softmax(np.array([[1000.0, 1000.0]]))
    assert np.allclose(out, [[0.5, 0.5]], atol=1e-12)


def test_softmax_log_integer_logits():
    out = softmax(np.log([[1.0, 2.0, 3.0]]))
    assert np.allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


def test_softmax_rows_sum_to_one_at_huge_magnitude():
    rng = np.random.default_rng(0)
    out = softmax(rng.uniform(-1e4, 1e4, size=(5, 7)))
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(out <= 1)
    assert np.all(softmax(rng.uniform(-5, 5, size=(5, 7))) > 0)


def test_softmax_rejects_non_2d():
    with pytest.raises(T.ShapeError):
        T.attention(t([1.0, 2.0]), t([1.0, 2.0]), t([1.0, 2.0]), heads=1)


def test_softmax_rejects_nan():
    k = t([[1.0], [0.0]])
    k.data[0, 0] = np.nan  # past the construction check
    with pytest.raises(T.NumericError):
        T.attention(t([[1.0]]), k, k, heads=1)


def test_finite_check_on_construction():
    with pytest.raises(T.NumericError):
        T.Tensor(np.array([np.inf]))


# ------------------------------------------- numpy calls without wrappers
# Each helper stands for a numpy call with Python-level frames; these pin
# its bytes to that call's, in both float dtypes.


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape, axis, keepdims", [
    ((5, 7), 1, True), ((33, 129), 1, True),          # layer norm rows
    ((3, 16, 64), -2, False), ((1, 257, 12), -2, False),  # mean_rows
    ((8, 5, 4, 64), (1, 2), False), ((2, 3, 1, 7), (1, 2), False),  # ppool
])
def test_array_mean_matches_ndarray_mean_byte_for_byte(dtype, shape, axis,
                                                       keepdims):
    rng = np.random.default_rng(41)
    a = rng.normal(3.0, 10.0, shape).astype(dtype)
    got = T.array_mean(a, axis, keepdims=keepdims)
    want = a.mean(axis=axis, keepdims=keepdims)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    # strided band views, as ppool passes them
    if a.ndim == 4:
        band = a[:, 1:4]
        assert (T.array_mean(band, axis).tobytes()
                == band.mean(axis=axis).tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_array_mean_of_a_given_total_divides_as_np_mean(dtype):
    # batch norm hands in its per-channel sums over every axis but the last
    rng = np.random.default_rng(42)
    for shape in ((4, 8, 6, 16), (2, 3, 5, 1), (37, 64)):
        a = rng.normal(-2.0, 5.0, shape).astype(dtype)
        rows = a.reshape(-1, shape[-1])
        total = rows.sum(axis=0)
        before = total.tobytes()
        got = T.array_mean(a, tuple(range(a.ndim - 1)), total=total)
        assert got.tobytes() == rows.mean(axis=0).tobytes()
        assert total.tobytes() == before and not np.shares_memory(got, total)


def test_all_finite_matches_np_all_isfinite():
    for a in (np.zeros(0), np.array(1.5), np.array(np.inf),
              np.ones((3, 4), dtype=np.float32), np.full((2, 2), -np.inf),
              np.array([[1.0, np.nan]]), np.array([0.0, 1e308 * 10])):
        assert T._all_finite(a) is bool(np.all(np.isfinite(a)))


def test_all_finite_finds_a_non_finite_value_anywhere():
    for bad in (np.nan, np.inf, -np.inf):
        for shape in ((2048,), (8, 16, 8, 16), (3, 5)):
            a = np.ones(shape, dtype=np.float32)
            for i in (0, a.size // 2, a.size - 1):
                b = a.copy()
                b.reshape(-1)[i] = bad
                assert T._all_finite(b) is False
                assert T._all_finite(b.T) is False  # a strided view
            assert T._all_finite(a) is True and T._all_finite(a.T) is True


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_row_reductions_match_the_methods_byte_for_byte(dtype):
    # tensor.attention's row max and row sum, on weights-shaped arrays
    rng = np.random.default_rng(43)
    for shape in ((1, 4, 32, 128), (3, 2, 16, 16), (2, 1, 5, 3)):
        a = rng.normal(0.0, 4.0, shape).astype(dtype)
        assert (np.maximum.reduce(a, axis=-1, keepdims=True).tobytes()
                == a.max(axis=-1, keepdims=True).tobytes())
        assert (np.add.reduce(a, axis=-1, keepdims=True).tobytes()
                == a.sum(axis=-1, keepdims=True).tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_attention_row_max_by_fmax_gives_the_weights_of_max_byte_for_byte(dtype):
    # finite scores: the max itself matches, and where a row's max is a
    # zero whose sign differs, the shifted exps still match
    rng = np.random.default_rng(47)
    for shape in ((1, 4, 32, 128), (3, 2, 16, 16), (2, 1, 5, 3)):
        a = rng.normal(0.0, 4.0, shape).astype(dtype)
        assert (np.fmax.reduce(a, axis=-1, keepdims=True).tobytes()
                == a.max(axis=-1, keepdims=True).tobytes())
    a = np.array([[-0.0, 0.0, -1.0], [0.0, -0.0, -2.0], [-0.0, -0.0, -3.0],
                  [-1.5, -0.0, -2.5]], dtype=dtype)
    got = np.fmax.reduce(a, axis=-1, keepdims=True)
    want = a.max(axis=-1, keepdims=True)
    assert np.exp(a - got).tobytes() == np.exp(a - want).tobytes()


# ---------------------------------------------------------------- layer norm


def test_layer_norm_zero_variance_collapses_to_beta():
    x = t([[5.0, 5.0, 5.0, 5.0]])
    out = T.layer_norm(x, t(np.ones(4)), t(np.zeros(4)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized_row():
    x = t([[1.0, -1.0]])
    out = T.layer_norm(x, t(np.ones(2)), t(np.zeros(2)))
    assert np.allclose(out.data, np.array([[1.0, -1.0]]) / np.sqrt(1.0 + T.EPS),
                       rtol=0.0, atol=1e-15)


def test_layer_norm_gamma_zero_gives_beta():
    rng = np.random.default_rng(1)
    x = t(rng.normal(size=(3, 5)))
    out = T.layer_norm(x, t(np.zeros(5)), t(np.full(5, 2.5)))
    assert np.allclose(out.data, 2.5)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(2)
    x = t(rng.normal(scale=3.0, size=(4, 16)))
    out = T.layer_norm(x, t(np.ones(16)), t(np.zeros(16)))
    assert np.allclose(out.data.mean(axis=1), 0.0, atol=1e-5)
    assert np.allclose(out.data.var(axis=1), 1.0, atol=1e-5)


def test_layer_norm_rejects_zero_width():
    with pytest.raises(T.ShapeError):
        T.layer_norm(t(np.zeros((2, 0))), t(np.ones(0)), t(np.zeros(0)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_keeps_np_var_rounding(dtype):
    # the variance reuses x - mu; it must round as np.var does
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 8, 16, 64, 65, 128):
        for rows in (1, 5, 32, 512):
            x = rng.normal(rng.uniform(-50, 50), rng.uniform(1e-3, 10),
                           (rows, d)).astype(dtype)
            gamma, beta, g = (rng.normal(size=s).astype(dtype)
                              for s in (d, d, (rows, d)))
            mu = x.mean(axis=1, keepdims=True)
            inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + 1e-5)
            xhat = (x - mu) * inv
            dxhat = g * gamma
            want = [xhat * gamma + beta,
                    inv * (dxhat - dxhat.mean(axis=1, keepdims=True)
                           - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)),
                    (g * xhat).sum(axis=0), g.sum(axis=0)]
            leaves = [T.Tensor(a, requires_grad=True) for a in (x, gamma, beta)]
            out = T.layer_norm(*leaves)
            T.backward(T.sum_all(T.mul(out, T.Tensor(g))))
            got = [out.data] + [leaf.grad for leaf in leaves]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


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
        nodes = _walk(loss)
        handed = _spy(nodes)
        T.backward(loss)
        backward_ref(again)
        for got, want in zip(nodes, _walk(again)):
            # a leaf keeps its gradient; any other node's is the one its
            # closure was handed, which backward has released since
            if got._parents:
                assert got.grad is None and got._backward is None, name
            grad = handed.get(id(got)) if got._parents else got.grad
            assert (grad is None) == (want.grad is None), name
            if grad is not None:
                assert grad.dtype == want.grad.dtype, name
                assert grad.shape == want.grad.shape, name
                assert np.array_equal(grad, want.grad), name
                assert not grad.flags.writeable, name
        # an in-place write into any leaf grad raises
        leaves = [n for n in nodes if not n._parents and n.grad is not None]
        assert leaves, name
        for n in leaves:
            with pytest.raises(ValueError):
                n.grad += 1.0


def _spy(nodes):
    """Wrap the closure of each node in ``nodes`` that has one, so that the
    returned dict maps ``id(node)`` to the gradient its closure was handed."""
    handed = {}
    for node in nodes:
        if node._backward is not None:
            def spy(g, node=node, inner=node._backward):
                handed[id(node)] = g
                return inner(g)
            node._backward = spy
    return handed


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
    seen = _spy([s])
    T.backward(T.sum_all(s))
    assert a.grad is not seen[id(s)] and d.grad is handed[1]
    assert np.array_equal(a.grad, [4.0, 5.0])


def test_backward_keeps_view_and_shared_first_gradients_without_a_copy():
    rng = np.random.default_rng(6)
    a, w = t(rng.normal(size=(2, 3)), rg=True), t(rng.normal(size=(3, 2)), rg=True)
    r = T.reshape(a, (3, 2))
    s = T.add(r, w)
    handed = _spy([r, s])
    T.backward(T.sum_all(T.mul(s, s)))
    r_grad, s_grad = handed[id(r)], handed[id(s)]
    assert np.shares_memory(a.grad, r_grad)
    assert np.shares_memory(r_grad, s_grad) and np.shares_memory(w.grad, s_grad)
    assert np.array_equal(a.grad, (2 * s.data).reshape(2, 3))


def test_backward_rejects_a_wrongly_shaped_gradient():
    a = t(np.zeros((2, 3)), rg=True)
    # (3,) broadcasts to (2, 3), so only the shape check can catch it
    bad = T.Tensor(a.data.copy(), _parents=(a,), _backward=lambda g: (g[0],))
    with pytest.raises(T.GraphError):
        T.backward(T.sum_all(bad))


def test_backward_twice_over_one_graph_raises():
    w = t([2.0], rg=True)
    loss = T.sum_all(T.mul(w, w))
    T.backward(loss)
    first = w.grad
    with pytest.raises(T.GraphError, match="already walked back"):
        T.backward(loss)
    assert w.grad is first and np.array_equal(first, [4.0])


def test_backward_into_a_walked_subgraph_raises():
    # the new loss would hand h a gradient that h's freed closure cannot pass on
    w = t([2.0], rg=True)
    h = T.mul(w, w)
    T.backward(T.sum_all(h))
    with pytest.raises(T.GraphError, match="already walked back"):
        T.backward(T.sum_all(T.add(h, w)))


def test_a_refused_walk_stores_no_gradient():
    # add's closure would hand w its gradient before the walk reached h
    w = t([2.0], rg=True)
    h = T.mul(w, w)
    T.backward(T.sum_all(h))
    assert np.array_equal(w.grad, [4.0])
    with pytest.raises(T.GraphError, match="already walked back"):
        T.backward(T.sum_all(T.add(h, w)))
    assert np.array_equal(w.grad, [4.0])


def _desk_graph(dtype):
    """A micro encoder block feeding a decoder layer, as a desk step does:
    two convs, each with batch norm and ReLU, over a constant input,
    attention from learned queries to the rows of two clips, a residual
    and layer norm.
    No non-leaf has two consumers, so backward and ``backward_ref`` add
    every gradient in the same order, whichever topological order each
    walks."""
    rng = np.random.default_rng(12)

    def leaf(*shape):
        return T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)

    h = T.Tensor(rng.normal(size=(2, 4, 4, 3)).astype(dtype))
    for cin, cout, stride in ((3, 8, 1), (8, 8, 2)):
        h = im.conv2d(h, leaf(cout, cin, 3, 3), stride=stride)
        h = T.relu(im.batchnorm_nchw(h, leaf(cout), leaf(cout),
                                     im.BNState(cout, dtype), training=True))
    kv = T.matmul(T.reshape(h, (8, 8)), leaf(8, 8))
    queries = leaf(4, 8)
    out, _ = T.attention(T.matmul(queries, leaf(8, 8)), kv, kv, heads=2, clips=2)
    y = T.layer_norm(T.add(out, queries), leaf(8), leaf(8))
    return T.mean_all(T.mul(y, y))


# The arrays a backward closure may keep besides the graph's own data: what
# it derives in the forward and cannot rebuild by copying node data.
DERIVED = {("_bn.<locals>.back", "xhat"), ("_bn.<locals>.back", "inv"),
           ("layer_norm.<locals>.back", "xhat"), ("layer_norm.<locals>.back", "inv"),
           ("attention.<locals>.back", "attn")}


def _root(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _closure_arrays(fn):
    """(closure name, cell name, array) for every ndarray in ``fn``'s cells,
    in the closures among them and in their tuples and lists too."""
    found, seen, todo = [], set(), [fn]
    while todo:
        f = todo.pop()
        if id(f) in seen:
            continue
        seen.add(id(f))
        for name, cell in zip(f.__code__.co_freevars, f.__closure__ or ()):
            values = [cell.cell_contents]
            while values:
                v = values.pop()
                if isinstance(v, np.ndarray):
                    found.append((f.__qualname__, name, v))
                elif isinstance(v, (tuple, list)):
                    values.extend(v)
                elif isinstance(v, types.FunctionType):
                    todo.append(v)
    return found


def _audit(loss):
    """(derived arrays, offenders) over the closures of ``loss``'s graph. A
    closure array must share its buffer with some node's data or be one of
    ``DERIVED``; integer arrays are indices (``pick``'s rows and columns),
    not data, and pass."""
    nodes = _walk(loss)
    roots = {id(_root(n.data)) for n in nodes}
    derived, offenders = [], []
    for node in nodes:
        if node._backward is None:
            continue
        for where, name, a in _closure_arrays(node._backward):
            if (where, name) in DERIVED:
                derived.append((where, name, a))
            elif a.dtype.kind not in "iu" and id(_root(a)) not in roots:
                offenders.append("%s keeps %s, %s %s" % (where, name, a.dtype, a.shape))
    return derived, offenders


def _micro_step_loss(dtype):
    """The loss of one DenseIL micro training step, graph and all."""
    cfg = micro_run_config(dtype=np.dtype(dtype).name)
    b, i = cfg.sampling.k_ids * cfg.sampling.t_per_id, cfg.sampling.chunks
    clips = np.random.default_rng(5).normal(
        size=(b, i, 3, cfg.data.height, cfg.data.width)).astype(dtype)
    logits, embeddings, _ = forward_batch(build_model(cfg), clips, training=True)
    return total_loss(logits, embeddings, np.arange(b) // cfg.sampling.t_per_id)[0]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_closures_keep_no_copies_of_graph_data(dtype):
    # attention's q/v splits and kᵀ, conv's weight matrix and the ReLU
    # masks are copies of, or comparisons against, node data: backward
    # rebuilds them. A training step's graph holds every kind of closure
    # the model makes, the triplet distances' ReLU among them.
    derived, offenders = _audit(_micro_step_loss(dtype))
    assert offenders == []
    assert {(where, name) for where, name, _ in derived} == DERIVED

    loss, twin = _desk_graph(dtype), _desk_graph(dtype)
    nodes = _walk(loss)
    derived, offenders = _audit(loss)
    assert offenders == []
    # two BNs' and layer norm's xhat and inv, attention's weights
    assert {(where, name) for where, name, _ in derived} == DERIVED
    assert len(derived) == 7
    saved = [weakref.ref(a) for _, _, a in derived]
    del derived
    gc.disable()
    try:
        T.backward(loss)
        # the conv worker drops its finished job before it takes the next
        T._worker().submit(int).result()
        assert all(ref() is None for ref in saved)
    finally:
        gc.enable()
    backward_ref(twin)
    leaves = 0
    for got, want in zip(nodes, _walk(twin)):
        if got._parents:
            assert got._backward is None and got.grad is None
            continue
        assert (got.grad is None) == (want.grad is None)
        if got.grad is not None:
            leaves += 1
            assert not got.grad.flags.writeable
            assert got.grad.dtype == want.grad.dtype and got.grad.shape == want.grad.shape
            assert got.grad.tobytes() == want.grad.tobytes()
    assert leaves == 11


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


def test_transpose_gradient_with_negative_axes():
    a = t(np.zeros((2, 2)), rg=True)
    T.backward(T.sum_all(T.mul(T.transpose(a, (-1, 0)), t([[1, 2], [3, 4]]))))
    assert np.array_equal(a.grad, [[1, 3], [2, 4]])
    b = t(np.zeros((2, 3)), rg=True)
    w = np.arange(6.0).reshape(3, 2)
    T.backward(T.sum_all(T.mul(T.transpose(b, (-1, 0)), t(w))))
    assert np.array_equal(b.grad, w.T)


def test_gradcheck_transpose_negative_axes_3d():
    rng = np.random.default_rng(13)
    a = t(rng.uniform(-1, 1, (2, 3, 4)))
    w = t(rng.uniform(-1, 1, (2, 4, 3)))
    gradcheck(lambda a: T.sum_all(T.mul(T.transpose(a, (0, -1, 1)), w)), [a])


def test_gradcheck_exp_log_sqrt():
    rng = np.random.default_rng(12)
    x = t(rng.uniform(0.5, 2.0, (2, 3)))
    gradcheck(lambda x: T.sum_all(T.mul(T.log(x), T.sqrt(T.exp(x)))), [x])


def test_gradcheck_relu_away_from_kink():
    rng = np.random.default_rng(13)
    x = t(rng.uniform(-1, 1, (4, 4)) + np.where(rng.uniform(size=(4, 4)) > 0.5, 0.2, -0.2))
    gradcheck(lambda x: T.sum_all(T.relu(x)), [x])


def test_gradcheck_layer_norm():
    rng = np.random.default_rng(15)
    x = t(rng.uniform(-1, 1, (3, 6)))
    g = t(rng.uniform(0.5, 1.5, 6))
    b = t(rng.uniform(-0.5, 0.5, 6))
    gradcheck(lambda x, g, b: T.sum_all(T.mul(T.layer_norm(x, g, b),
                                              T.layer_norm(x, g, b))), [x, g, b])


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


def test_matmul_counter_loses_no_count_to_other_threads():
    # a pipelined evaluation's threads both count into the caller's scopes
    a = t(np.ones((1, 1)))
    threads, calls = 4, 2000
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with T.count_matmuls() as outer, T.count_matmuls() as inner:
            workers = [threading.Thread(
                target=lambda: [T.matmul(a, a) for _ in range(calls)])
                for _ in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(60.0)
            assert not any(w.is_alive() for w in workers)
    finally:
        sys.setswitchinterval(switch)
    assert inner.macs == outer.macs == threads * calls


def test_matmul_counters_closed_out_of_order_on_two_threads_keep_apart():
    # each scope reads the matmuls run while it was open, on any thread
    a = t(np.ones((1, 1)))
    opened, closed = threading.Event(), threading.Event()
    macs = {}

    def other():
        with T.count_matmuls() as inner:
            opened.set()
            assert closed.wait(10.0)  # outlives the first scope
            T.matmul(a, a)
        macs["inner"] = inner.macs

    worker = threading.Thread(target=other)
    with T.count_matmuls() as outer:
        worker.start()
        assert opened.wait(10.0)
    macs["outer"] = outer.macs
    closed.set()
    worker.join(10.0)
    assert not worker.is_alive()
    assert macs == {"outer": 0, "inner": 1}


def test_no_grad_ops_make_leaves_even_from_parameters():
    rng = np.random.default_rng(22)
    x = t(rng.normal(size=(4, 6)))
    w = t(rng.normal(size=(6, 6)), rg=True)
    g, b = t(np.ones(6), rg=True), t(np.zeros(6), rg=True)
    with T.no_grad():
        h = T.matmul(x, w)
        outs = [h, T.add(h, b), T.layer_norm(h, g, b), T.ffn(x, w, b, w, b),
                T.attention(h, h, h, heads=2)[0]]
    for out in outs:
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
    assert T.matmul(x, w)._parents == (x, w)  # outside, a graph again


def test_no_grad_scopes_nest():
    a = t(np.ones((2, 2)), rg=True)
    with T.no_grad():
        with T.no_grad():
            assert T.matmul(a, a)._parents == ()
        assert T.matmul(a, a)._parents == ()  # the outer scope is still open
    assert T.matmul(a, a)._parents == (a, a)


def test_no_grad_holds_on_its_own_thread_only():
    a = t(np.ones((2, 2)), rg=True)
    opened, built = threading.Event(), threading.Event()

    def hold():
        with T.no_grad():
            opened.set()
            built.wait(10.0)

    other = threading.Thread(target=hold)
    other.start()
    try:
        assert opened.wait(10.0)
        out = T.matmul(a, a)  # built while the other thread holds no_grad
    finally:
        built.set()
        other.join(10.0)
    assert not other.is_alive()
    assert out._parents == (a, a) and out.requires_grad


def test_no_grad_closes_on_an_exception():
    from denseil.harness import evaluate_model
    from denseil.imageops import RunningStatsError
    from denseil.model import build_model
    from micro import micro_corpus, micro_run_config

    cfg = micro_run_config()
    with pytest.raises(RunningStatsError):  # raised inside embed's scope
        evaluate_model(build_model(cfg), cfg, micro_corpus())
    w = t(np.ones((2, 2)), rg=True)
    loss = T.sum_all(T.matmul(t(np.ones((1, 2))), w))
    assert loss._parents
    T.backward(loss)
    assert np.array_equal(w.grad, np.ones((2, 2)))


def test_no_grad_keeps_an_explicit_trainable_leaf():
    with T.no_grad():
        w = t(np.full((2, 2), 3.0), rg=True)
    assert w.requires_grad and w._parents == ()
    T.backward(T.sum_all(T.mul(w, w)))
    assert np.array_equal(w.grad, np.full((2, 2), 6.0))


def test_no_grad_counts_the_same_macs_for_an_eval_forward():
    from denseil import data as dt
    from denseil import rng as drng
    from denseil.model import build_model, forward_batch
    from micro import micro_corpus, micro_run_config

    cfg = micro_run_config()
    model = build_model(cfg)
    rng = drng.stream(cfg.seed, 5)
    clips = np.stack([dt.restricted_sample(tr, cfg.sampling.chunks, rng)
                      for tr in micro_corpus().train[:4]]).astype(cfg.np_dtype())
    forward_batch(model, clips, training=True)  # batch-norm statistics
    with T.count_matmuls() as graph:
        forward_batch(model, clips, training=False)
    with T.no_grad(), T.count_matmuls() as leaves:
        out = forward_batch(model, clips, training=False)[1]
    assert out._parents == ()
    assert leaves.macs == graph.macs > 0


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
    mean = T.mean_rows(t(a))
    for i in range(3):
        assert np.allclose(prod.data[i], a[i] @ b[i], atol=1e-12)
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
        return T.attention(out, out, out, heads=2)[1].tobytes()

    assert run() == run()
