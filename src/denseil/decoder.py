"""Dense-interaction decoder stack.

Each block runs multi-head self-attention, then (unless ``dense_sources`` is
empty) an interaction sub-layer over pooled encoder features, then an FFN.
Every sub-layer is Pre-LN residual: x + Sublayer(LN(x)). The interaction
sub-layer's keys and values concatenate the pooled per-block encoder tokens
with the current hidden state, so each query can look at every scale of the
backbone at once; queries always come from the normalized hidden state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .imageops import BNState, batchnorm_rows
from .partition import token_index
from .tensor import ShapeError, Tensor

FUSIONS = ("attention", "summation", "concatenation")


@dataclass(frozen=True)
class DecoderConfig:
    """Shape and wiring of the decoder stack.

    ``dense_sources`` holds 1-based encoder block indices whose pooled tokens
    feed the interaction sub-layer: () builds no interaction sub-layer (the
    paper's TransEnc), (L,) reads the last block only (TransDec), and None,
    the default, reads blocks 2..L (DenseIL). The FFN is ``d`` wide.
    """

    R: int = 2
    d: int = 64
    heads: int = 4
    fusion: str = "attention"
    dense_sources: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.fusion not in FUSIONS:
            raise ShapeError("unknown fusion %r" % self.fusion)
        if self.R < 0:
            raise ShapeError("block count must be >= 0")
        if self.d < 2 or self.heads < 1:
            raise ShapeError("d must be at least 2, heads positive")
        if self.d % self.heads:
            raise ShapeError("width %d not divisible by %d heads" % (self.d, self.heads))

    def sources_for(self, num_encoder_blocks: int):
        """The dense-source block indices, or the default 2..L; range-checked."""
        L = num_encoder_blocks
        src = self.dense_sources if self.dense_sources is not None else tuple(range(2, L + 1))
        if any(l < 1 or l > L for l in src):
            raise ShapeError("dense source indices %s out of range 1..%d" % (src, L))
        return src

    def read_blocks(self, num_encoder_blocks: int):
        """Encoder blocks whose pooled tokens the decoder reads, ascending:
        the last block (the decoder input), plus the dense sources when
        there is a decoder block to read them."""
        L = num_encoder_blocks
        if self.R == 0:
            return (L,)
        return tuple(sorted({L, *self.sources_for(L)}))


def _split_heads(x: Tensor, clips: int, n: int, heads: int) -> Tensor:
    """[groups*clips*n, d] rows, group-major, -> [clips, heads, groups*n, d/heads]."""
    x = tn.reshape(x, (-1, clips, n, heads, x.shape[1] // heads))
    groups = x.shape[0]
    x = tn.transpose(x, (1, 3, 0, 2, 4))
    return tn.reshape(x, (clips, heads, groups * n, x.shape[-1]))


def multi_head_attention(q_in: Tensor, kv_in: Tensor, wq, wk, wv, wo, heads: int,
                         clips: int = 1):
    """Scaled dot-product attention over a batch of clips.

    ``q_in`` holds each clip's n query rows, clip-major: [clips*n, d].
    ``kv_in`` holds one or more groups laid out like ``q_in``, group-major;
    a clip's queries see its own rows of every group, in group order.
    Returns (output [clips*n, d], weights [clips, heads, n, groups*n]).
    """
    d = wq.shape[1]
    if d % heads:
        raise ShapeError("width %d not divisible by %d heads" % (d, heads))
    dh = d // heads
    n = q_in.shape[0] // clips
    q = _split_heads(tn.matmul(q_in, wq), clips, n, heads)
    k = _split_heads(tn.matmul(kv_in, wk), clips, n, heads)
    v = _split_heads(tn.matmul(kv_in, wv), clips, n, heads)
    scores = tn.scale(tn.matmul(q, tn.transpose(k, (0, 1, 3, 2))),
                      1.0 / np.sqrt(dh))
    attn = tn.softmax_rows(scores)
    heads_out = tn.transpose(tn.matmul(attn, v), (0, 2, 1, 3))
    concat = tn.reshape(heads_out, (clips * n, d))
    return tn.matmul(concat, wo), attn.data


def self_attention_block(H: Tensor, params, prefix: str, heads: int, clips: int = 1):
    """H + MHA over LN(H); queries, keys and values all from the normed input."""
    ln = tn.layer_norm(H, params[prefix + ".ln.gamma"], params[prefix + ".ln.beta"])
    out, weights = multi_head_attention(
        ln, ln,
        params[prefix + ".wq"], params[prefix + ".wk"],
        params[prefix + ".wv"], params[prefix + ".wo"], heads, clips)
    return tn.add(H, out), weights


def dense_attention(H_r: Tensor, sources, params, prefix: str, heads: int, fusion: str,
                    clips: int = 1):
    """Interaction sub-layer over [sources..., H_r].

    fusion="attention": queries LN(H_r), keys/values the row-concatenation of
    the raw sources and H_r, so each clip's queries see that clip's tokens at
    every source scale. "summation": plain residual sum of the sources.
    "concatenation": channel-concat mapped back to width d, residual-added.
    Returns (output, weights or None).
    """
    sources = list(sources)
    for s in sources:
        if s.shape != H_r.shape:
            raise ShapeError("dense source shape %s != hidden shape %s" % (s.shape, H_r.shape))
    if fusion == "attention":
        q_in = tn.layer_norm(H_r, params[prefix + ".ln.gamma"],
                             params[prefix + ".ln.beta"])
        kv = tn.concat(sources + [H_r], 0) if sources else H_r
        out, weights = multi_head_attention(
            q_in, kv,
            params[prefix + ".wq"], params[prefix + ".wk"],
            params[prefix + ".wv"], params[prefix + ".wo"], heads, clips)
        return tn.add(H_r, out), weights
    if fusion == "summation":
        out = H_r
        for s in sources:
            out = tn.add(out, s)
        return out, None
    if fusion == "concatenation":
        cat = tn.concat(sources + [H_r], 1)
        mapped = tn.matmul(cat, params[prefix + ".wcat"])
        return tn.add(H_r, mapped), None
    raise ShapeError("unknown fusion %r" % fusion)


def _ffn_block(H: Tensor, params, prefix: str):
    ln = tn.layer_norm(H, params[prefix + ".ln.gamma"], params[prefix + ".ln.beta"])
    out = tn.ffn(ln, params[prefix + ".w1"], params[prefix + ".b1"],
                 params[prefix + ".w2"], params[prefix + ".b2"])
    return tn.add(H, out)


def decoder_forward(tokens: Tensor, pyramid_tokens, emb, cfg: DecoderConfig, params):
    """Run the stack over a batch; returns (embeddings [B, d], the
    interaction weights of each block).

    ``tokens`` is [B, n, d], the last encoder block's pooled tokens (also the
    decoder input); ``pyramid_tokens`` lists blocks 1..L-1's, same shape,
    or None for a block outside ``cfg.read_blocks``.
    ``emb`` is the [n, d] ``step_emb`` table or None to disable positions.
    Inside the stack rows are [B*n, d]; only attention looks across a clip's
    rows. A block's weights are [B, heads, n, (S+1)*n], or None when it has
    no attention-fused interaction sub-layer. With R=0 each embedding is
    exactly the mean of its clip's input rows: no final norm applies.
    """
    clips, n, d = tokens.shape
    if emb is not None and emb.shape[0] != n:
        raise ShapeError("positional table has %d rows, tokens %d"
                         % (emb.shape[0], n))
    levels = list(pyramid_tokens) + [tokens]
    sources = [tn.reshape(levels[l - 1], (clips * n, d))
               for l in cfg.sources_for(len(levels))] if cfg.R else []

    x = tokens
    if emb is not None:
        x = tn.add(x, Tensor(emb.astype(x.dtype)))
    x = tn.reshape(x, (clips * n, d))

    dense_attn = []
    for r in range(1, cfg.R + 1):
        prefix = "decoder.block%d" % r
        x, _ = self_attention_block(x, params, prefix + ".selfattn", cfg.heads,
                                    clips)
        weights = None
        if sources:
            x, weights = dense_attention(x, sources, params, prefix + ".dense",
                                         cfg.heads, cfg.fusion, clips)
        x = _ffn_block(x, params, prefix + ".ffn")
        dense_attn.append(weights)

    if cfg.R >= 1:
        x = tn.layer_norm(x, params["decoder.final_ln.gamma"],
                          params["decoder.final_ln.beta"])
    return tn.mean_rows(tn.reshape(x, (clips, n, d))), dense_attn


def classify_head(embeddings: Tensor, params, bn_state: BNState, training: bool):
    """BN over the batch of embeddings, then a bias-free classifier.

    Returns (logits [B, num_ids], normalized embeddings [B, d]). The metric
    side of the model ranks the normalized embeddings; the classifier only
    exists to carry the identity loss.
    """
    if embeddings.data.ndim != 2:
        raise ShapeError("classify_head expects [B, d] embeddings")
    bn = batchnorm_rows(embeddings, params["head.bn.gamma"],
                        params["head.bn.beta"], bn_state, training)
    logits = tn.matmul(bn, params["head.cls.w"])
    return logits, bn


# ---------------------------------------------------------------------------
# parameter construction


def init_decoder(cfg: DecoderConfig, num_encoder_blocks: int, rng, dtype=np.float64):
    """Normal-init decoder params keyed by hierarchical names."""
    d = cfg.d
    params = {}

    def par(name, arr):
        params[name] = Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)

    def attn_params(prefix, attends=True):
        # drawn even when unread, so no other initial weight depends on
        # the fusion
        ws = [rng.normal(0.0, d ** -0.5, (d, d)) for _ in range(4)]
        if attends:
            for w, arr in zip(("wq", "wk", "wv", "wo"), ws):
                par("%s.%s" % (prefix, w), arr)
            par(prefix + ".ln.gamma", np.ones(d))
            par(prefix + ".ln.beta", np.zeros(d))

    S = len(cfg.sources_for(num_encoder_blocks))
    for r in range(1, cfg.R + 1):
        prefix = "decoder.block%d" % r
        attn_params(prefix + ".selfattn")
        if S:
            attn_params(prefix + ".dense", cfg.fusion == "attention")
            if cfg.fusion == "concatenation":
                width = (S + 1) * d
                par(prefix + ".dense.wcat",
                    rng.normal(0.0, width ** -0.5, (width, d)))
        par(prefix + ".ffn.w1", rng.normal(0.0, np.sqrt(2.0 / d), (d, d)))
        par(prefix + ".ffn.b1", np.zeros(d))
        par(prefix + ".ffn.w2", rng.normal(0.0, d ** -0.5, (d, d)))
        par(prefix + ".ffn.b2", np.zeros(d))
        par(prefix + ".ffn.ln.gamma", np.ones(d))
        par(prefix + ".ffn.ln.beta", np.zeros(d))
    if cfg.R >= 1:
        par("decoder.final_ln.gamma", np.ones(d))
        par("decoder.final_ln.beta", np.zeros(d))
    return params


def init_head(d: int, num_ids: int, rng, dtype=np.float64):
    w = rng.normal(0.0, d ** -0.5, (d, num_ids)).astype(dtype)
    params = {"head.bn.gamma": Tensor(np.ones(d, dtype=dtype), requires_grad=True),
              "head.bn.beta": Tensor(np.zeros(d, dtype=dtype), requires_grad=True),
              "head.cls.w": Tensor(w, requires_grad=True)}
    return params, BNState(d, dtype=dtype)


# ---------------------------------------------------------------------------
# attention dump


def dump_attention(dense_attn, I: int, P: int, source_ids, path) -> int:
    """Write the first clip's interaction-attention weights as CSV rows;
    returns the row count. ``dense_attn`` is ``decoder_forward``'s list of
    per-block weights.

    Key columns identify the scale each weight looked at: Z^l for a pooled
    encoder block, H for the decoder's own hidden state.
    """
    idx = token_index(I, P)
    n = I * P
    labels = ["Z^%d" % l for l in source_ids] + ["H"]
    rows = 0
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["block", "head", "query_frame", "query_part",
                      "key_source", "key_frame", "key_part", "weight"])
        for b, weights in enumerate(dense_attn, start=1):
            if weights is None:
                continue
            for (h, qi, ki), w in np.ndenumerate(weights[0]):
                qf, qp = idx[qi]
                kf, kp = idx[ki % n]
                out.writerow([b, h + 1, qf, qp, labels[ki // n], kf, kp,
                              repr(float(w))])
                rows += 1
    return rows
