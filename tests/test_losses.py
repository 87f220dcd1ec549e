import numpy as np
import pytest

from denseil import losses, tensor as T
from oracles import batch_hard_triplet_ref, gradcheck


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def test_ce_uniform_logits_is_log_c():
    for c in (2, 5, 17):
        logits = t(np.zeros((3, c)))
        loss = losses.cross_entropy(logits, np.array([0, 1, c - 1]))
        assert abs(float(loss.data) - np.log(c)) < 1e-12


def test_ce_vanishes_with_growing_margin():
    values = []
    for gap in (1.0, 5.0, 20.0):
        logits = np.zeros((1, 4))
        logits[0, 2] = gap
        values.append(float(losses.cross_entropy(t(logits), [2]).data))
    assert values[0] > values[1] > values[2]
    assert values[2] < 1e-8


def test_ce_hand_case():
    loss = losses.cross_entropy(t([[np.log(3.0), np.log(1.0)]]), [0])
    assert abs(float(loss.data) + np.log(3.0 / 4.0)) < 1e-12


def test_ce_rejects_bad_labels():
    logits = t(np.zeros((2, 3)))
    with pytest.raises(losses.BatchLayoutError):
        losses.cross_entropy(logits, [0, 3])
    with pytest.raises(losses.BatchLayoutError):
        losses.cross_entropy(logits, [-1, 0])


def test_ce_stable_at_large_logits():
    logits = t(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
    loss = losses.cross_entropy(logits, [0, 1])
    assert float(loss.data) < 1e-8


def test_ce_gradcheck():
    rng = np.random.default_rng(90)
    logits = t(rng.normal(size=(4, 5)))
    labels = np.array([0, 2, 4, 2])
    gradcheck(lambda x: losses.cross_entropy(x, labels), [logits])


def test_ce_gradient_is_softmax_minus_onehot():
    rng = np.random.default_rng(91)
    logits = t(rng.normal(size=(3, 4)), rg=True)
    labels = np.array([1, 0, 3])
    T.backward(losses.cross_entropy(logits, labels))
    p = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.eye(4)[labels]
    assert np.allclose(logits.grad, (p - onehot) / 3.0, atol=1e-12)


# ------------------------------------------------------------------ triplet


def test_triplet_identical_embeddings_give_margin():
    e = t(np.ones((6, 3)))
    loss = losses.batch_hard_triplet(e, [0, 0, 1, 1, 2, 2], margin=0.3)
    assert abs(float(loss.data) - 0.3) < 1e-12


def test_triplet_separated_clusters_give_zero():
    rng = np.random.default_rng(92)
    a = rng.normal(size=(3, 4)) * 0.1
    b = rng.normal(size=(3, 4)) * 0.1 + 100.0
    loss = losses.batch_hard_triplet(t(np.vstack([a, b])), [0] * 3 + [1] * 3, 0.3)
    assert float(loss.data) == 0.0


def test_triplet_four_points_on_a_line():
    # ids (0,0,1,1) at x = 0,1,2,4; hand-enumerated hinges: 0, 0.3, 1.3, 0
    e = t(np.array([[0.0], [1.0], [2.0], [4.0]]))
    loss = losses.batch_hard_triplet(e, [0, 0, 1, 1], margin=0.3)
    assert abs(float(loss.data) - 0.4) < 1e-12
    assert abs(float(loss.data)
               - batch_hard_triplet_ref(e.data, [0, 0, 1, 1], 0.3)) < 1e-12


def test_triplet_matches_enumeration_oracle_random():
    rng = np.random.default_rng(93)
    for _ in range(20):
        k, t_per = rng.integers(2, 5), rng.integers(2, 4)
        labels = np.repeat(np.arange(k), t_per)
        e = rng.normal(size=(len(labels), 5))
        got = float(losses.batch_hard_triplet(t(e), labels, 0.3).data)
        want = batch_hard_triplet_ref(e, labels, 0.3)
        assert abs(got - want) < 1e-10


def test_triplet_rigid_transform_invariance():
    rng = np.random.default_rng(94)
    e = rng.normal(size=(8, 6))
    labels = np.repeat(np.arange(4), 2)
    base = float(losses.batch_hard_triplet(t(e), labels, 0.3).data)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    moved = e @ q + rng.normal(size=6)
    rotated = float(losses.batch_hard_triplet(t(moved), labels, 0.3).data)
    assert abs(base - rotated) <= 1e-8


def test_triplet_layout_errors():
    e = t(np.zeros((3, 2)))
    with pytest.raises(losses.BatchLayoutError):
        losses.batch_hard_triplet(e, [0, 0, 1])  # identity 1 has one sample
    with pytest.raises(losses.BatchLayoutError):
        losses.batch_hard_triplet(e, [0, 0, 0])  # single identity
    with pytest.raises(losses.BatchLayoutError):
        losses.batch_hard_triplet(t(np.zeros((4, 2))), [0, 0, 1, 1], margin=-0.1)


def test_triplet_tie_break_lowest_index():
    # anchor 0 sees two negatives at exactly distance 10; the lower-index one
    # (row 2) must be selected, so row 3 receives no gradient from anchor 0
    e = t(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0], [8.0, 6.0]]), rg=True)
    labels = [0, 0, 1, 1]
    loss = losses.batch_hard_triplet(e, labels, margin=6.0)
    T.backward(loss)
    s = np.sqrt(0.5)
    u01 = np.array([0.6, 0.8])      # unit e2-e0 and e2-e1 directions coincide
    u23 = np.array([-s, s])         # unit e2-e3 direction
    u13 = np.array([5.0, 2.0]) / np.sqrt(29.0)  # unit e3-e1 direction
    # hand enumeration, all four hinges active:
    #   e2 <- anchor0 neg, anchor1 neg, anchor2 (pos and neg sides), anchor3 pos
    #   e3 <- anchor2 pos side, anchor3 (pos and neg sides); nothing from anchor0
    want_e2 = (-u01 - u01 + u23 - u01 + u23) / 4.0
    want_e3 = (-u23 - u23 - u13) / 4.0
    assert np.allclose(e.grad[2], want_e2, atol=1e-12)
    assert np.allclose(e.grad[3], want_e3, atol=1e-12)


def test_triplet_gradcheck_away_from_ties():
    rng = np.random.default_rng(95)
    e = t(rng.normal(size=(6, 4)))
    labels = np.repeat(np.arange(3), 2)
    gradcheck(lambda x: losses.batch_hard_triplet(x, labels, 0.5), [e])


def test_total_loss_combines():
    rng = np.random.default_rng(96)
    logits = t(rng.normal(size=(4, 3)))
    emb = t(rng.normal(size=(4, 5)))
    labels = np.array([0, 0, 1, 1])
    combined, ce, tri = losses.total_loss(logits, emb, labels,
                                          triplet_weight=0.5)
    assert abs(float(combined.data)
               - (float(ce.data) + 0.5 * float(tri.data))) < 1e-12
