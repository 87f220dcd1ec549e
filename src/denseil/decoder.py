"""Dense-interaction decoder stack.

Each block runs multi-head self-attention, then (for the two decoder-style
variants) an interaction sub-layer over pooled encoder features, then an FFN.
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
from .partition import TokenMatrix, token_index
from .tensor import Param, ShapeError, Tensor

VARIANTS = ("TransEnc", "TransDec", "DenseIL")
FUSIONS = ("attention", "summation", "concatenation")


@dataclass(frozen=True)
class DecoderConfig:
    """Shape and wiring of the decoder stack.

    ``dense_sources`` holds 1-based encoder block indices whose pooled tokens
    feed the interaction sub-layer; None defers to the model default (all
    blocks from the second up). ``ffn_hidden`` None makes the FFN as wide as
    ``d``; the stored value is always resolved to a width.
    """

    R: int = 2
    d: int = 64
    heads: int = 4
    ffn_hidden: int | None = None
    variant: str = "DenseIL"
    fusion: str = "attention"
    dense_sources: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.ffn_hidden is None:
            object.__setattr__(self, "ffn_hidden", self.d)
        if self.variant not in VARIANTS:
            raise ShapeError("unknown variant %r" % self.variant)
        if self.fusion not in FUSIONS:
            raise ShapeError("unknown fusion %r" % self.fusion)
        if self.R < 0:
            raise ShapeError("block count must be >= 0")
        if self.d < 2 or min(self.heads, self.ffn_hidden) < 1:
            raise ShapeError("d must be at least 2, heads and ffn_hidden "
                             "positive")
        if self.d % self.heads:
            raise ShapeError("width %d not divisible by %d heads" % (self.d, self.heads))

    def sources_for(self, num_encoder_blocks: int):
        """Resolve the effective dense-source block indices for this variant."""
        L = num_encoder_blocks
        if self.variant == "TransEnc":
            return ()
        if self.variant == "TransDec":
            return (L,)
        src = self.dense_sources if self.dense_sources is not None else tuple(range(2, L + 1))
        if not src:
            raise ShapeError("DenseIL needs at least one dense source block")
        if any(l < 1 or l > L for l in src):
            raise ShapeError("dense source indices %s out of range 1..%d" % (src, L))
        return src


class DecoderState:
    """Per-block diagnostics: hidden states and attention maps (as arrays)."""

    def __init__(self):
        self.hidden = []
        self.self_attn = []
        self.dense_attn = []


def multi_head_attention(q_in: Tensor, kv_in: Tensor, wq, wk, wv, wo, heads: int):
    """Scaled dot-product attention; returns (output, weights[heads, nq, nk])."""
    d = wq.shape[1]
    if d % heads:
        raise ShapeError("width %d not divisible by %d heads" % (d, heads))
    dh = d // heads
    q = tn.matmul(q_in, wq)
    k = tn.matmul(kv_in, wk)
    v = tn.matmul(kv_in, wv)
    weights = np.zeros((heads, q.shape[0], k.shape[0]))
    head_outs = []
    for h in range(heads):
        lo, hi = h * dh, (h + 1) * dh
        scores = tn.scale(tn.matmul(tn.slice_cols(q, lo, hi),
                                    tn.transpose(tn.slice_cols(k, lo, hi))),
                          1.0 / np.sqrt(dh))
        attn = tn.softmax_rows(scores)
        weights[h] = attn.data
        head_outs.append(tn.matmul(attn, tn.slice_cols(v, lo, hi)))
    concat = head_outs[0] if heads == 1 else tn.concat_cols(head_outs)
    return tn.matmul(concat, wo), weights


def _p(params, name):
    return params[name].tensor


def self_attention_block(H: Tensor, params, prefix: str, heads: int):
    """H + MHA over LN(H); queries, keys and values all from the normed input."""
    ln = tn.layer_norm(H, _p(params, prefix + ".ln.gamma"), _p(params, prefix + ".ln.beta"))
    out, weights = multi_head_attention(
        ln, ln,
        _p(params, prefix + ".wq"), _p(params, prefix + ".wk"),
        _p(params, prefix + ".wv"), _p(params, prefix + ".wo"), heads)
    return tn.add(H, out), weights


def dense_attention(H_r: Tensor, sources, params, prefix: str, heads: int, fusion: str):
    """Interaction sub-layer over [sources..., H_r].

    fusion="attention": queries LN(H_r), keys/values the row-concatenation of
    the raw sources and H_r. "summation": plain residual sum of the sources.
    "concatenation": channel-concat mapped back to width d, residual-added.
    Returns (output, weights or None).
    """
    sources = list(sources)
    for s in sources:
        if s.shape != H_r.shape:
            raise ShapeError("dense source shape %s != hidden shape %s" % (s.shape, H_r.shape))
    if fusion == "attention":
        q_in = tn.layer_norm(H_r, _p(params, prefix + ".ln.gamma"),
                             _p(params, prefix + ".ln.beta"))
        kv = tn.concat_rows(sources + [H_r]) if sources else H_r
        out, weights = multi_head_attention(
            q_in, kv,
            _p(params, prefix + ".wq"), _p(params, prefix + ".wk"),
            _p(params, prefix + ".wv"), _p(params, prefix + ".wo"), heads)
        return tn.add(H_r, out), weights
    if fusion == "summation":
        out = H_r
        for s in sources:
            out = tn.add(out, s)
        return out, None
    if fusion == "concatenation":
        cat = tn.concat_cols(sources + [H_r])
        mapped = tn.matmul(cat, _p(params, prefix + ".wcat"))
        return tn.add(H_r, mapped), None
    raise ShapeError("unknown fusion %r" % fusion)


def _ffn_block(H: Tensor, params, prefix: str):
    ln = tn.layer_norm(H, _p(params, prefix + ".ln.gamma"), _p(params, prefix + ".ln.beta"))
    out = tn.ffn(ln, _p(params, prefix + ".w1"), _p(params, prefix + ".b1"),
                 _p(params, prefix + ".w2"), _p(params, prefix + ".b2"))
    return tn.add(H, out)


def decoder_forward(tokens: TokenMatrix, pyramid_tokens, emb, cfg: DecoderConfig, params):
    """Run the stack; returns (sequence embedding [d], DecoderState).

    ``pyramid_tokens`` lists the pooled matrices of encoder blocks 1..L-1;
    the last block's matrix is ``tokens`` itself (also the decoder input).
    ``emb`` is a StepEmbTable or None to disable positions. With R=0 the
    embedding is exactly the mean of the input rows: no final norm applies.
    """
    n = tokens.tokens.shape[0]
    if emb is not None and emb.combined.shape[0] != n:
        raise ShapeError("positional table has %d rows, tokens %d"
                         % (emb.combined.shape[0], n))
    L = len(pyramid_tokens) + 1
    source_ids = cfg.sources_for(L)
    raw = {l: pyramid_tokens[l - 1].tokens for l in range(1, L)}
    raw[L] = tokens.tokens
    sources = [raw[l] for l in source_ids]

    x = tokens.tokens
    if emb is not None:
        x = tn.add(x, Tensor(emb.combined.astype(x.dtype)))

    state = DecoderState()
    for r in range(1, cfg.R + 1):
        prefix = "decoder.block%d" % r
        x, w_self = self_attention_block(x, params, prefix + ".selfattn", cfg.heads)
        w_dense = None
        if cfg.variant != "TransEnc":
            x, w_dense = dense_attention(x, sources, params, prefix + ".dense",
                                         cfg.heads, cfg.fusion)
        x = _ffn_block(x, params, prefix + ".ffn")
        state.hidden.append(x.data.copy())
        state.self_attn.append(w_self)
        state.dense_attn.append(w_dense)

    if cfg.R >= 1:
        x = tn.layer_norm(x, _p(params, "decoder.final_ln.gamma"),
                          _p(params, "decoder.final_ln.beta"))
    return tn.mean_rows(x), state


def classify_head(embeddings: Tensor, params, bn_state: BNState, training: bool):
    """BN over the batch of embeddings, then a bias-free classifier.

    Returns (logits [B, num_ids], normalized embeddings [B, d]). The metric
    side of the model ranks the normalized embeddings; the classifier only
    exists to carry the identity loss.
    """
    if embeddings.data.ndim != 2:
        raise ShapeError("classify_head expects [B, d] embeddings")
    bn = batchnorm_rows(embeddings, _p(params, "head.bn.gamma"),
                        _p(params, "head.bn.beta"), bn_state, training)
    logits = tn.matmul(bn, _p(params, "head.cls.w"))
    return logits, bn


# ---------------------------------------------------------------------------
# parameter construction


def init_decoder(cfg: DecoderConfig, num_encoder_blocks: int, rng, dtype=np.float64):
    """Normal-init decoder params keyed by hierarchical names."""
    d, h = cfg.d, cfg.ffn_hidden
    params = {}

    def par(name, arr):
        params[name] = Param(name, Tensor(np.asarray(arr, dtype=dtype)))

    def attn_params(prefix, n_sources):
        for w in ("wq", "wk", "wv", "wo"):
            par("%s.%s" % (prefix, w), rng.normal(0.0, d ** -0.5, (d, d)))
        par(prefix + ".ln.gamma", np.ones(d))
        par(prefix + ".ln.beta", np.zeros(d))
        if n_sources is not None and cfg.fusion == "concatenation":
            width = (n_sources + 1) * d
            par(prefix + ".wcat", rng.normal(0.0, width ** -0.5, (width, d)))

    S = len(cfg.sources_for(num_encoder_blocks))
    for r in range(1, cfg.R + 1):
        prefix = "decoder.block%d" % r
        attn_params(prefix + ".selfattn", None)
        if cfg.variant != "TransEnc":
            attn_params(prefix + ".dense", S)
        par(prefix + ".ffn.w1", rng.normal(0.0, np.sqrt(2.0 / d), (d, h)))
        par(prefix + ".ffn.b1", np.zeros(h))
        par(prefix + ".ffn.w2", rng.normal(0.0, h ** -0.5, (h, d)))
        par(prefix + ".ffn.b2", np.zeros(d))
        par(prefix + ".ffn.ln.gamma", np.ones(d))
        par(prefix + ".ffn.ln.beta", np.zeros(d))
    if cfg.R >= 1:
        par("decoder.final_ln.gamma", np.ones(d))
        par("decoder.final_ln.beta", np.zeros(d))
    return params


def init_head(d: int, num_ids: int, rng, dtype=np.float64):
    params = {}
    params["head.bn.gamma"] = Param("head.bn.gamma", Tensor(np.ones(d, dtype=dtype)))
    params["head.bn.beta"] = Param("head.bn.beta", Tensor(np.zeros(d, dtype=dtype)))
    w = rng.normal(0.0, d ** -0.5, (d, num_ids)).astype(dtype)
    params["head.cls.w"] = Param("head.cls.w", Tensor(w))
    return params, BNState(d, dtype=dtype)


# ---------------------------------------------------------------------------
# attention dump


def dump_attention(state: DecoderState, cfg: DecoderConfig, I: int, P: int,
                   source_ids, path) -> int:
    """Write interaction-attention weights as CSV rows; returns row count.

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
        for b, weights in enumerate(state.dense_attn, start=1):
            if weights is None:
                continue
            for h in range(weights.shape[0]):
                for qi in range(weights.shape[1]):
                    qf, qp = idx[qi]
                    for ki in range(weights.shape[2]):
                        kf, kp = idx[ki % n]
                        out.writerow([b, h + 1, qf, qp, labels[ki // n], kf, kp,
                                      repr(float(weights[h, qi, ki]))])
                        rows += 1
    return rows
