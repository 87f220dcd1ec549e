"""Analytic multiply-add counts for the decoder stack.

One multiply-add counts as 1. The closed forms cover exactly the matmuls the
stack executes per forward pass, so the total must equal an instrumented run
that logs every matmul. With n = I*P tokens, m = (S+1)*n interaction keys,
width d and FFN hidden h, one block costs:

  self-attention   4*n*d^2 + 2*n^2*d   (Q,K,V,output projections; scores; values)
  interaction      no dense sources:     0
                   fusion=attention:     2*n*d^2 + 2*m*d^2 + 2*n*m*d
                   fusion=summation:     0
                   fusion=concatenation: n*(S+1)*d^2
  ffn              2*n*d*h

Per-head widths divide out: scores cost heads * n * m * (d/heads) = n*m*d,
so the count is independent of the head count. The one-time adapter matmuls
that build the pooled token matrices, one per block the decoder reads, happen
outside the stack and are reported separately (``adapters`` field), never in
``total``, keeping the total exactly linear in R.
"""

from __future__ import annotations

from .decoder import DecoderConfig


def estimate_decoder_flops(cfg: DecoderConfig, I: int, P: int,
                           encoder_channels) -> dict:
    """Per-forward multiply-add counts; returns a breakdown dict.

    ``encoder_channels`` holds the widths C_1..C_L of the encoder blocks;
    L resolves the dense sources, and the widths size the adapters.
    """
    n = I * P
    d, h = cfg.d, cfg.ffn_hidden
    L = len(encoder_channels)
    S = len(cfg.sources_for(L))
    m = (S + 1) * n

    self_macs = 4 * n * d * d + 2 * n * n * d
    if not S or cfg.fusion == "summation":
        dense_macs = 0
    elif cfg.fusion == "attention":
        dense_macs = 2 * n * d * d + 2 * m * d * d + 2 * n * m * d
    else:  # concatenation
        dense_macs = n * (S + 1) * d * d
    ffn_macs = 2 * n * d * h
    per_block = self_macs + dense_macs + ffn_macs
    adapters = sum(n * encoder_channels[l - 1] * d for l in cfg.read_blocks(L))

    return {
        "total": cfg.R * per_block,
        "per_block": per_block,
        "self_attention": self_macs,
        "dense": dense_macs,
        "ffn": ffn_macs,
        "adapters": adapters,
    }
