"""Identity classification and batch-hard triplet losses.

The triplet loss mines, per anchor, the farthest same-identity sample and the
nearest other-identity sample inside the batch, and hinges their Euclidean
distance gap against a margin. Mining happens on detached distances; only the
two selected entries per anchor carry gradient.
"""

from __future__ import annotations

import numpy as np

from . import tensor as tn
from .tensor import ShapeError, Tensor


class BatchLayoutError(ValueError):
    """The batch cannot support the loss (lonely identity, single class...)."""


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax at the label; no smoothing.

    Computed as logsumexp(shifted) - shifted[label] so float32 batches never
    see a log(0).
    """
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy expects [B, C] logits")
    b, c = logits.shape
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (b,):
        raise ShapeError("expected %d labels, got shape %s" % (b, labels.shape))
    if labels.min() < 0 or labels.max() >= c:
        raise BatchLayoutError("label out of range [0, %d)" % c)
    maxes = logits.data.max(axis=1, keepdims=True)
    shifted = tn.sub(logits, Tensor(maxes))
    lse = tn.log(tn.sum_axis1(tn.exp(shifted)))
    at_label = tn.pick(shifted, np.arange(b), labels)
    return tn.mean_all(tn.sub(lse, at_label))


def pairwise_distance_graph(embeddings: Tensor) -> Tensor:
    """Differentiable [B, B] Euclidean distance matrix.

    Built from squared norms and a Gram matrix; tiny negative round-off is
    clamped before the sqrt, whose subgradient at 0 is 0.
    """
    b = embeddings.shape[0]
    sq = tn.sum_axis1(tn.mul(embeddings, embeddings))
    gram = tn.scale(tn.matmul(embeddings, tn.transpose(embeddings)), -2.0)
    s = tn.add(tn.add(tn.reshape(sq, (b, 1)), tn.reshape(sq, (1, b))), gram)
    return tn.sqrt(tn.relu(s))


def batch_hard_triplet(embeddings: Tensor, labels, margin: float = 0.3) -> Tensor:
    """Mean over anchors of max(0, margin + hardest_pos - hardest_neg)."""
    if embeddings.data.ndim != 2:
        raise ShapeError("batch_hard_triplet expects [B, d] embeddings")
    labels = np.asarray(labels)
    b = embeddings.shape[0]
    if labels.shape != (b,):
        raise ShapeError("expected %d labels" % b)
    if float(margin) < 0:
        raise BatchLayoutError("margin must be >= 0")
    ids, counts = np.unique(labels, return_counts=True)
    if len(ids) < 2:
        raise BatchLayoutError("triplet mining needs at least two identities in the batch")
    if counts.min() < 2:
        lonely = ids[counts.argmin()]
        raise BatchLayoutError("identity %d has a single sample; no positive exists" % lonely)

    dist = pairwise_distance_graph(embeddings)
    same = labels[:, None] == labels[None, :]
    eye = np.eye(b, dtype=bool)
    # argmax/argmin return the first maximizer, so ties resolve to lowest index
    pos_idx = np.where(same & ~eye, dist.data, -np.inf).argmax(axis=1)
    neg_idx = np.where(~same, dist.data, np.inf).argmin(axis=1)
    anchors = np.arange(b)
    gap = tn.sub(tn.pick(dist, anchors, pos_idx), tn.pick(dist, anchors, neg_idx))
    return tn.mean_all(tn.relu(tn.add(gap, Tensor(np.asarray(float(margin))))))


def total_loss(logits: Tensor, embeddings: Tensor, labels,
               triplet_weight: float = 1.0):
    """cross_entropy + weight * batch_hard_triplet, plus the two parts.

    Weight 0 skips mining entirely, so identity-only training works on
    batches the triplet layout rules would reject.
    """
    ce = cross_entropy(logits, labels)
    if triplet_weight == 0.0:
        return ce, ce, Tensor(np.zeros((), dtype=ce.data.dtype))
    tri = batch_hard_triplet(embeddings, labels)
    return tn.add(ce, tn.scale(tri, float(triplet_weight))), ce, tri
