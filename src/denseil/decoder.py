"""Dense-interaction decoder stack.

Each block runs multi-head self-attention, then (unless ``dense_sources`` is
empty) an interaction sub-layer over pooled encoder features, then an FFN.
Every sub-layer is Pre-LN residual: x + Sublayer(LN(x)). The interaction
sub-layer's keys and values concatenate the pooled per-block encoder tokens
with the current hidden state, so each query can look at every scale of the
backbone at once; queries always come from the normalized hidden state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .imageops import BNState, batchnorm_rows
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
        """The dense-source block indices, or the default 2..L; each in
        range and named once."""
        L = num_encoder_blocks
        src = self.dense_sources if self.dense_sources is not None else tuple(range(2, L + 1))
        if any(l < 1 or l > L for l in src):
            raise ShapeError("dense source indices %s out of range 1..%d" % (src, L))
        if len(set(src)) != len(src):
            raise ShapeError("dense source indices %s name a block twice" % (src,))
        return src

    def read_blocks(self, num_encoder_blocks: int):
        """Encoder blocks whose pooled tokens the decoder reads, ascending:
        the last block (the decoder input), plus the dense sources when
        there is a decoder block to read them."""
        L = num_encoder_blocks
        if self.R == 0:
            return (L,)
        return tuple(sorted({L, *self.sources_for(L)}))


def multi_head_attention(q_in: Tensor, kv_in: Tensor, wq, wk, wv, wo, heads: int,
                         clips: int = 1):
    """Scaled dot-product attention over a batch of clips.

    ``q_in`` holds each clip's n query rows, clip-major: [clips*n, d].
    ``kv_in`` holds one or more groups laid out like ``q_in``, group-major;
    a clip's queries see its own rows of every group, in group order.
    Returns (output [clips*n, d], weights [clips, heads, n, groups*n]).
    """
    out, weights = tn.attention(tn.matmul(q_in, wq), tn.matmul(kv_in, wk),
                                tn.matmul(kv_in, wv), heads, clips)
    return tn.matmul(out, wo), weights


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
        kv = tn.concat(sources + [H_r], 0)
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


def decoder_forward(levels, emb, cfg: DecoderConfig, params):
    """Run the stack over a batch; returns (embeddings [B, d], the
    interaction weights of each block).

    ``levels`` is ``stack_partitions``' list: per encoder block 1..L, the
    B clips' pooled tokens as [B*n, d] rows, clip-major, or None for a
    block outside ``cfg.read_blocks``. The last is the decoder input, and
    the dense sources are read from the list as they are.
    ``emb`` is the [n, d] ``step_emb`` table, added to every clip's rows.
    Only attention looks across a clip's rows. A block's weights are
    [B, heads, n, (S+1)*n], or None when it has no attention-fused
    interaction sub-layer. With R=0 each embedding is exactly the mean of
    its clip's input rows: no final norm applies.
    """
    tokens, n = levels[-1], emb.shape[0]
    clips, rest = divmod(tokens.shape[0], n)
    if rest:
        raise ShapeError("positional table has %d rows, tokens %d"
                         % (n, tokens.shape[0]))
    sources = ([levels[l - 1] for l in cfg.sources_for(len(levels))]
               if cfg.R else [])
    x = tn.add(tokens, Tensor(np.concatenate([emb] * clips,
                                             dtype=tokens.dtype)))

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
    return tn.mean_rows(tn.reshape(x, (clips, n, -1))), dense_attn


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
