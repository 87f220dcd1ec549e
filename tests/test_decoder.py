import csv

import numpy as np
import pytest

from denseil import decoder as dec
from denseil import flops, posemb, tensor as T
from denseil.imageops import BNState, RunningStatsError
from denseil.partition import TokenMatrix
from oracles import (dense_attention_ref, gradcheck, multihead_attention_ref,
                     self_attention_block_ref)


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def attn_params(rng, d, prefix, n_sources=None, fusion="attention"):
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        full = "%s.%s" % (prefix, name)
        params[full] = T.Param(full, t(rng.normal(size=(d, d))))
    params[prefix + ".ln.gamma"] = T.Param(prefix + ".ln.gamma",
                                           t(rng.uniform(0.5, 1.5, d)))
    params[prefix + ".ln.beta"] = T.Param(prefix + ".ln.beta",
                                          t(rng.uniform(-0.2, 0.2, d)))
    if n_sources is not None and fusion == "concatenation":
        full = prefix + ".wcat"
        params[full] = T.Param(full, t(rng.normal(size=((n_sources + 1) * d, d))))
    return params


def as_ref_dict(params, prefix):
    return {name[len(prefix) + 1:]: p.tensor.data for name, p in params.items()
            if name.startswith(prefix + ".")}


def build_stack(cfg, L, I, P, seed=0):
    rng = np.random.default_rng(seed)
    params = dec.init_decoder(cfg, L, rng)
    tokens = TokenMatrix(t(rng.normal(size=(I * P, cfg.d))), I, P)
    pyr = [TokenMatrix(t(rng.normal(size=(I * P, cfg.d))), I, P) for _ in range(L - 1)]
    return params, tokens, pyr


# ------------------------------------------------------------ attention core


def test_multihead_matches_oracle():
    rng = np.random.default_rng(60)
    for heads in (1, 2):
        for nq, nk, d in ((1, 1, 4), (2, 4, 4), (3, 6, 8), (4, 4, 8)):
            xq = rng.normal(size=(nq, d))
            xkv = rng.normal(size=(nk, d))
            ws = [rng.normal(size=(d, d)) for _ in range(4)]
            got, weights = dec.multi_head_attention(
                t(xq), t(xkv), t(ws[0]), t(ws[1]), t(ws[2]), t(ws[3]), heads)
            want = multihead_attention_ref(xq, xkv, *ws, heads)
            assert np.abs(got.data - want).max() < 1e-10
            assert np.allclose(weights.sum(axis=2), 1.0, atol=1e-6)


def test_self_attention_single_token():
    rng = np.random.default_rng(61)
    d = 4
    params = attn_params(rng, d, "blk.selfattn")
    H = t(rng.normal(size=(1, d)))
    out, weights = dec.self_attention_block(H, params, "blk.selfattn", heads=2)
    assert np.allclose(weights, 1.0)
    ln = T.layer_norm(H, params["blk.selfattn.ln.gamma"].tensor,
                      params["blk.selfattn.ln.beta"].tensor)
    v = T.matmul(ln, params["blk.selfattn.wv"].tensor)
    proj = T.matmul(v, params["blk.selfattn.wo"].tensor)
    assert np.allclose(out.data, H.data + proj.data, atol=1e-12)


def test_self_attention_identical_tokens_uniform_weights():
    rng = np.random.default_rng(62)
    d, n = 6, 5
    params = attn_params(rng, d, "blk.selfattn")
    H = t(np.tile(rng.normal(size=(1, d)), (n, 1)))
    _, weights = dec.self_attention_block(H, params, "blk.selfattn", heads=3)
    assert np.allclose(weights, 1.0 / n, atol=1e-12)


def test_self_attention_matches_reference():
    rng = np.random.default_rng(63)
    for heads in (1, 2):
        d, n = 8, 3
        params = attn_params(rng, d, "blk.selfattn")
        H = rng.normal(size=(n, d))
        out, _ = dec.self_attention_block(t(H), params, "blk.selfattn", heads)
        want = self_attention_block_ref(H, as_ref_dict(params, "blk.selfattn"), heads)
        assert np.abs(out.data - want).max() < 1e-10


def test_dense_attention_matches_reference():
    rng = np.random.default_rng(64)
    for n_sources in (0, 1, 2):
        for heads in (1, 2):
            d, n = 8, 2
            params = attn_params(rng, d, "blk.dense")
            H = rng.normal(size=(n, d))
            sources = [rng.normal(size=(n, d)) for _ in range(n_sources)]
            out, weights = dec.dense_attention(t(H), [t(s) for s in sources],
                                               params, "blk.dense", heads, "attention")
            want = dense_attention_ref(H, sources, as_ref_dict(params, "blk.dense"), heads)
            assert np.abs(out.data - want).max() < 1e-10
            assert weights.shape == (heads, n, (n_sources + 1) * n)
            assert np.allclose(weights.sum(axis=2), 1.0, atol=1e-6)


def test_dense_attention_zero_sources_is_self_attention_over_hidden():
    rng = np.random.default_rng(65)
    d, n = 4, 3
    params = attn_params(rng, d, "blk.dense")
    H = rng.normal(size=(n, d))
    out, _ = dec.dense_attention(t(H), [], params, "blk.dense", 1, "attention")
    want = dense_attention_ref(H, [], as_ref_dict(params, "blk.dense"), 1)
    assert np.abs(out.data - want).max() < 1e-10


def test_dense_summation_fusion():
    rng = np.random.default_rng(66)
    H = rng.normal(size=(4, 4))
    s1, s2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
    out, weights = dec.dense_attention(t(H), [t(s1), t(s2)], {}, "blk.dense",
                                       1, "summation")
    assert weights is None
    assert np.allclose(out.data, H + s1 + s2, atol=1e-12)
    # zero sources leave the hidden state untouched
    out0, _ = dec.dense_attention(t(H), [t(np.zeros((4, 4)))] * 2, {}, "blk.dense",
                                  1, "summation")
    assert np.array_equal(out0.data, H)


def test_dense_concatenation_fusion():
    rng = np.random.default_rng(67)
    d, n = 3, 2
    params = attn_params(rng, d, "blk.dense", n_sources=2, fusion="concatenation")
    H = rng.normal(size=(n, d))
    s1, s2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
    out, weights = dec.dense_attention(t(H), [t(s1), t(s2)], params, "blk.dense",
                                       1, "concatenation")
    assert weights is None
    want = H + np.hstack([s1, s2, H]) @ params["blk.dense.wcat"].tensor.data
    assert np.allclose(out.data, want, atol=1e-12)


def test_dense_attention_rejects_width_mismatch():
    with pytest.raises(T.ShapeError):
        dec.dense_attention(t(np.zeros((2, 4))), [t(np.zeros((2, 3)))], {},
                            "blk.dense", 1, "summation")


# ------------------------------------------------------------ decoder stack


def test_forward_r0_is_mean_of_tokens_plus_emb():
    cfg = dec.DecoderConfig(R=0, d=8, heads=1)
    _, tokens, pyr = build_stack(cfg, L=2, I=2, P=2, seed=70)
    emb = posemb.step_emb(2, 2, 8)
    out, state = dec.decoder_forward(tokens, pyr, emb, cfg, {})
    want = (tokens.tokens.data + emb.combined).mean(axis=0)
    assert np.array_equal(out.data, want)
    assert state.hidden == []


def test_forward_permutation_invariant_without_positions():
    cfg = dec.DecoderConfig(R=2, d=8, heads=2)
    params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=71)
    base, _ = dec.decoder_forward(tokens, pyr, None, cfg, params)
    rng = np.random.default_rng(72)
    for _ in range(5):
        perm = rng.permutation(4)
        tokens_p = TokenMatrix(t(tokens.tokens.data[perm]), 2, 2)
        pyr_p = [TokenMatrix(t(m.tokens.data[perm]), 2, 2) for m in pyr]
        out, _ = dec.decoder_forward(tokens_p, pyr_p, None, cfg, params)
        assert np.abs(out.data - base.data).max() <= 1e-8


def test_forward_frame_swap_changes_embedding_with_positions():
    cfg = dec.DecoderConfig(R=1, d=8, heads=2)
    params, tokens, pyr = build_stack(cfg, L=2, I=4, P=2, seed=73)
    emb = posemb.step_emb(4, 2, 8)
    base, _ = dec.decoder_forward(tokens, pyr, emb, cfg, params)
    # swap frames 1 and 3 consistently in tokens and sources
    perm = np.arange(8).reshape(4, 2)[[2, 1, 0, 3]].reshape(-1)
    tokens_s = TokenMatrix(t(tokens.tokens.data[perm]), 4, 2)
    pyr_s = [TokenMatrix(t(m.tokens.data[perm]), 4, 2) for m in pyr]
    swapped, _ = dec.decoder_forward(tokens_s, pyr_s, emb, cfg, params)
    assert np.abs(swapped.data - base.data).max() > 1e-6


def test_forward_residual_identity_with_zeroed_projections():
    for fusion in ("attention", "concatenation"):
        cfg = dec.DecoderConfig(R=2, d=8, heads=2, fusion=fusion)
        params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=74)
        for name, p in params.items():
            if name.endswith((".wo", ".w2", ".b2", ".wcat")):
                p.tensor.data = np.zeros_like(p.tensor.data)
        emb = posemb.step_emb(2, 2, 8)
        out, state = dec.decoder_forward(tokens, pyr, emb, cfg, params)
        passthrough = tokens.tokens.data + emb.combined
        assert np.allclose(state.hidden[-1], passthrough, atol=1e-12)
        ln = T.layer_norm(t(passthrough), params["decoder.final_ln.gamma"].tensor,
                          params["decoder.final_ln.beta"].tensor)
        assert np.allclose(out.data, ln.data.mean(axis=0), atol=1e-12)


def test_forward_dense_key_count_and_row_sums():
    cfg = dec.DecoderConfig(R=2, d=8, heads=2)  # DenseIL, default sources 2..L
    params, tokens, pyr = build_stack(cfg, L=4, I=2, P=3, seed=75)
    _, state = dec.decoder_forward(tokens, pyr, posemb.step_emb(2, 3, 8), cfg, params)
    S = 3  # blocks 2, 3, 4
    n = 6
    for w_self, w_dense in zip(state.self_attn, state.dense_attn):
        assert w_self.shape == (2, n, n)
        assert w_dense.shape == (2, n, (S + 1) * n)
        assert np.allclose(w_self.sum(axis=2), 1.0, atol=1e-6)
        assert np.allclose(w_dense.sum(axis=2), 1.0, atol=1e-6)


def test_variant_wiring():
    rng = np.random.default_rng(76)
    enc_blocks = 3
    te = dec.DecoderConfig(variant="TransEnc", fusion="summation", dense_sources=(1,))
    assert te.sources_for(enc_blocks) == ()
    td = dec.DecoderConfig(variant="TransDec", dense_sources=(1, 2))
    assert td.sources_for(enc_blocks) == (3,)
    dil = dec.DecoderConfig(variant="DenseIL")
    assert dil.sources_for(enc_blocks) == (2, 3)
    with pytest.raises(T.ShapeError):
        dec.DecoderConfig(variant="DenseIL", dense_sources=()).sources_for(enc_blocks)
    with pytest.raises(T.ShapeError):
        dec.DecoderConfig(variant="DenseIL", dense_sources=(5,)).sources_for(enc_blocks)
    te_params = dec.init_decoder(dec.DecoderConfig(R=1, d=4, heads=1, variant="TransEnc"),
                                 enc_blocks, rng)
    assert not any(".dense." in k for k in te_params)


def test_transenc_ignores_sources_at_forward():
    cfg = dec.DecoderConfig(R=1, d=8, heads=2, variant="TransEnc")
    params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=77)
    out, state = dec.decoder_forward(tokens, pyr, None, cfg, params)
    assert state.dense_attn == [None]
    assert out.shape == (8,)


def test_forward_gradcheck_one_block():
    cfg = dec.DecoderConfig(R=1, d=6, heads=2)
    params, tokens, pyr = build_stack(cfg, L=2, I=2, P=2, seed=78)
    emb = posemb.step_emb(2, 2, 6)
    tensors = ([tokens.tokens] + [m.tokens for m in pyr]
               + [p.tensor for p in params.values()])

    def loss(*ts):
        tok = TokenMatrix(ts[0], 2, 2)
        sources = [TokenMatrix(s, 2, 2) for s in ts[1:1 + len(pyr)]]
        out, _ = dec.decoder_forward(tok, sources, emb, cfg, params)
        return T.sum_all(T.mul(out, out))

    gradcheck(loss, tensors)


# ------------------------------------------------------------ classify head


def test_classify_head_zero_weights_zero_logits():
    rng = np.random.default_rng(80)
    params, bn_state = dec.init_head(4, 3, rng)
    params["head.cls.w"].tensor.data = np.zeros((4, 3))
    logits, _ = dec.classify_head(t(rng.normal(size=(5, 4))), params, bn_state,
                                  training=True)
    assert np.all(logits.data == 0)


def test_classify_head_deterministic_for_equal_inputs():
    rng = np.random.default_rng(81)
    params, bn_state = dec.init_head(4, 3, rng)
    x = rng.normal(size=(1, 4))
    batch = t(np.vstack([x, x, rng.normal(size=(2, 4))]))
    logits, _ = dec.classify_head(batch, params, bn_state, training=True)
    assert np.array_equal(logits.data[0], logits.data[1])


def test_classify_head_hand_case_antipodal_columns():
    rng = np.random.default_rng(82)
    d = 4
    params, bn_state = dec.init_head(d, 2, rng)
    u = rng.normal(size=d)
    params["head.cls.w"].tensor.data = np.stack([u, -u], axis=1)
    bn_state.running_mean = rng.normal(size=d)
    bn_state.running_var = rng.uniform(0.5, 2.0, d)
    bn_state.num_batches = 1
    x = rng.normal(size=(3, d))
    logits, bn = dec.classify_head(t(x), params, bn_state, training=False)
    want = bn.data @ u
    assert np.allclose(logits.data[:, 0], want, atol=1e-12)
    assert np.allclose(logits.data[:, 1], -want, atol=1e-12)


def test_classify_head_eval_before_train_errors():
    params, bn_state = dec.init_head(4, 2, np.random.default_rng(83))
    with pytest.raises(RunningStatsError):
        dec.classify_head(t(np.zeros((2, 4))), params, bn_state, training=False)


# ------------------------------------------------------------ flop counting


def instrumented_macs(cfg, L, I, P, seed=0):
    params, tokens, pyr = build_stack(cfg, L, I, P, seed)
    emb = posemb.step_emb(I, P, cfg.d)
    with T.count_matmuls() as counter:
        dec.decoder_forward(tokens, pyr, emb, cfg, params)
    return counter.macs


def test_flops_zero_blocks():
    cfg = dec.DecoderConfig(R=0, d=16, heads=2)
    assert flops.estimate_decoder_flops(cfg, 4, 2)["total"] == 0
    assert instrumented_macs(cfg, 3, 4, 2) == 0


def test_flops_linear_in_r():
    one = flops.estimate_decoder_flops(dec.DecoderConfig(R=1, d=16, heads=2), 4, 2)
    two = flops.estimate_decoder_flops(dec.DecoderConfig(R=2, d=16, heads=2), 4, 2)
    assert two["total"] == 2 * one["total"]


def test_flops_match_instrumented_execution():
    cases = [
        (dec.DecoderConfig(R=1, d=8, heads=1, variant="DenseIL"), 2, 2, 2),
        (dec.DecoderConfig(R=2, d=8, heads=2, variant="DenseIL"), 4, 2, 2),
        (dec.DecoderConfig(R=1, d=8, heads=2, variant="TransEnc"), 2, 2, 2),
        (dec.DecoderConfig(R=2, d=4, heads=1, variant="TransDec"), 3, 1, 4),
        (dec.DecoderConfig(R=1, d=8, heads=2, fusion="summation"), 3, 2, 2),
        (dec.DecoderConfig(R=1, d=8, heads=2, fusion="concatenation"), 3, 2, 2),
        (dec.DecoderConfig(R=3, d=8, heads=4, ffn_hidden=16), 4, 2, 3),
    ]
    for cfg, L, I, P in cases:
        want = flops.estimate_decoder_flops(cfg, I, P, num_encoder_blocks=L)["total"]
        assert instrumented_macs(cfg, L, I, P) == want


def test_flops_monotone():
    base = dict(R=2, d=16, heads=2, variant="DenseIL", fusion="attention")
    ref = flops.estimate_decoder_flops(dec.DecoderConfig(**base), 4, 2,
                                       num_encoder_blocks=4)["total"]
    for change, kwargs in (
            ("R", dict(base, R=3)),
            ("d", dict(base, d=32)),
            ("heads", dict(base, heads=4)),
    ):
        up = flops.estimate_decoder_flops(dec.DecoderConfig(**kwargs), 4, 2,
                                          num_encoder_blocks=4)["total"]
        assert up >= ref, change
    assert flops.estimate_decoder_flops(dec.DecoderConfig(**base), 8, 2,
                                        num_encoder_blocks=4)["total"] > ref
    assert flops.estimate_decoder_flops(dec.DecoderConfig(**base), 4, 4,
                                        num_encoder_blocks=4)["total"] > ref
    more_sources = dec.DecoderConfig(**dict(base, dense_sources=(1, 2, 3, 4)))
    assert flops.estimate_decoder_flops(more_sources, 4, 2,
                                        num_encoder_blocks=4)["total"] > ref


def test_flops_adapter_breakdown_separate():
    cfg = dec.DecoderConfig(R=2, d=8, heads=1)
    est = flops.estimate_decoder_flops(cfg, 2, 2, num_encoder_blocks=3,
                                       encoder_channels=(4, 8, 16))
    n = 4
    assert est["adapters"] == n * (4 + 8 + 16) * 8
    assert est["total"] == 2 * est["per_block"]


# ------------------------------------------------------------ attention dump


def test_dump_attention_csv(tmp_path):
    cfg = dec.DecoderConfig(R=2, d=8, heads=2)
    params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=84)
    _, state = dec.decoder_forward(tokens, pyr, posemb.step_emb(2, 2, 8), cfg, params)
    path = tmp_path / "attn.csv"
    rows = dec.dump_attention(state, cfg, 2, 2, cfg.sources_for(3), path)
    n, S = 4, 2
    assert rows == cfg.R * cfg.heads * n * (S + 1) * n
    with open(path) as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == rows
    assert {r["key_source"] for r in records} == {"Z^2", "Z^3", "H"}
    # weights per (block, head, query) sum to 1
    total = {}
    for r in records:
        key = (r["block"], r["head"], r["query_frame"], r["query_part"])
        total[key] = total.get(key, 0.0) + float(r["weight"])
    assert all(abs(v - 1.0) < 1e-9 for v in total.values())
