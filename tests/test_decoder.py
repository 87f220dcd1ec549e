import csv

import numpy as np
import pytest

from denseil import decoder as dec
from denseil import flops, posemb, tensor as T
from denseil.imageops import BNState, RunningStatsError
from oracles import (dense_attention_ref, gradcheck, multihead_attention_ref,
                     self_attention_block_ref)


def t(data, rg=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


def attn_params(rng, d, prefix, n_sources=None, fusion="attention"):
    params = {}
    for name in ("wq", "wk", "wv", "wo"):
        params["%s.%s" % (prefix, name)] = t(rng.normal(size=(d, d)), rg=True)
    params[prefix + ".ln.gamma"] = t(rng.uniform(0.5, 1.5, d), rg=True)
    params[prefix + ".ln.beta"] = t(rng.uniform(-0.2, 0.2, d), rg=True)
    if n_sources is not None and fusion == "concatenation":
        params[prefix + ".wcat"] = t(rng.normal(size=((n_sources + 1) * d, d)),
                                     rg=True)
    return params


def as_ref_dict(params, prefix):
    return {name[len(prefix) + 1:]: p.data for name, p in params.items()
            if name.startswith(prefix + ".")}


def build_stack(cfg, L, I, P, seed=0, clips=1):
    rng = np.random.default_rng(seed)
    params = dec.init_decoder(cfg, L, rng)
    tokens = t(rng.normal(size=(clips, I * P, cfg.d)))
    pyr = [t(rng.normal(size=(clips, I * P, cfg.d))) for _ in range(L - 1)]
    return params, tokens, pyr


# ------------------------------------------------------------ attention core


def test_multihead_matches_oracle():
    rng = np.random.default_rng(60)
    for heads in (1, 2):
        for nq, nk, d in ((1, 1, 4), (2, 4, 4), (3, 6, 8), (4, 4, 8)):
            xq = rng.normal(size=(nq, d))
            xkv = rng.normal(size=(nk, d))
            ws = [rng.normal(size=(d, d)) for _ in range(4)]
            got, (weights,) = dec.multi_head_attention(
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
    ln = T.layer_norm(H, params["blk.selfattn.ln.gamma"],
                      params["blk.selfattn.ln.beta"])
    v = T.matmul(ln, params["blk.selfattn.wv"])
    proj = T.matmul(v, params["blk.selfattn.wo"])
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
            out, (weights,) = dec.dense_attention(t(H), [t(s) for s in sources],
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
    want = H + np.hstack([s1, s2, H]) @ params["blk.dense.wcat"].data
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
    out, dense_attn = dec.decoder_forward(tokens, pyr, emb, cfg, {})
    want = (tokens.data + emb).mean(axis=1)
    assert np.array_equal(out.data, want)
    assert dense_attn == []


def test_forward_permutation_invariant_without_positions():
    cfg = dec.DecoderConfig(R=2, d=8, heads=2)
    params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=71)
    base, _ = dec.decoder_forward(tokens, pyr, None, cfg, params)
    rng = np.random.default_rng(72)
    for _ in range(5):
        perm = rng.permutation(4)
        tokens_p = t(tokens.data[:, perm])
        pyr_p = [t(m.data[:, perm]) for m in pyr]
        out, _ = dec.decoder_forward(tokens_p, pyr_p, None, cfg, params)
        assert np.abs(out.data - base.data).max() <= 1e-8


def test_forward_frame_swap_changes_embedding_with_positions():
    cfg = dec.DecoderConfig(R=1, d=8, heads=2)
    params, tokens, pyr = build_stack(cfg, L=2, I=4, P=2, seed=73)
    emb = posemb.step_emb(4, 2, 8)
    base, _ = dec.decoder_forward(tokens, pyr, emb, cfg, params)
    # swap frames 1 and 3 consistently in tokens and sources
    perm = np.arange(8).reshape(4, 2)[[2, 1, 0, 3]].reshape(-1)
    tokens_s = t(tokens.data[:, perm])
    pyr_s = [t(m.data[:, perm]) for m in pyr]
    swapped, _ = dec.decoder_forward(tokens_s, pyr_s, emb, cfg, params)
    assert np.abs(swapped.data - base.data).max() > 1e-6


def test_forward_residual_identity_with_zeroed_projections():
    for fusion in ("attention", "concatenation"):
        cfg = dec.DecoderConfig(R=2, d=8, heads=2, fusion=fusion)
        params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=74)
        for name, p in params.items():
            if name.endswith((".wo", ".w2", ".b2", ".wcat")):
                p.data = np.zeros_like(p.data)
        emb = posemb.step_emb(2, 2, 8)
        out, _ = dec.decoder_forward(tokens, pyr, emb, cfg, params)
        passthrough = tokens.data + emb
        ln = T.layer_norm(t(passthrough[0]), params["decoder.final_ln.gamma"],
                          params["decoder.final_ln.beta"])
        assert np.allclose(out.data, ln.data.mean(axis=0), atol=1e-12)


def test_forward_dense_key_count_and_row_sums():
    cfg = dec.DecoderConfig(R=2, d=8, heads=2)  # default sources 2..L
    params, tokens, pyr = build_stack(cfg, L=4, I=2, P=3, seed=75, clips=2)
    _, dense_attn = dec.decoder_forward(tokens, pyr, posemb.step_emb(2, 3, 8),
                                        cfg, params)
    S = 3  # blocks 2, 3, 4
    n = 6
    assert len(dense_attn) == cfg.R
    for w_dense in dense_attn:
        assert w_dense.shape == (2, 2, n, (S + 1) * n)
        assert np.allclose(w_dense.sum(axis=3), 1.0, atol=1e-6)
    # self-attention over the same batch: each clip's n rows see n keys
    x = T.reshape(tokens, (2 * n, 8))
    prefix = "decoder.block1.selfattn."
    _, w_self = dec.multi_head_attention(
        x, x, *[params[prefix + w] for w in ("wq", "wk", "wv", "wo")], 2, 2)
    assert w_self.shape == (2, 2, n, n)
    assert np.allclose(w_self.sum(axis=3), 1.0, atol=1e-6)


def test_dense_sources_wiring():
    rng = np.random.default_rng(76)
    enc_blocks = 3
    none = dec.DecoderConfig(fusion="summation", dense_sources=())
    assert none.sources_for(enc_blocks) == ()
    last = dec.DecoderConfig(dense_sources=(3,))
    assert last.sources_for(enc_blocks) == (3,)
    default = dec.DecoderConfig()
    assert default.sources_for(enc_blocks) == (2, 3)
    assert none.read_blocks(enc_blocks) == last.read_blocks(enc_blocks) == (3,)
    assert default.read_blocks(enc_blocks) == (2, 3)
    assert dec.DecoderConfig(dense_sources=(1,)).read_blocks(enc_blocks) == (1, 3)
    assert dec.DecoderConfig(R=0).read_blocks(enc_blocks) == (3,)
    for bad in ((0,), (4,), (2, 5), (-1, 3)):
        with pytest.raises(T.ShapeError, match="out of range 1..3"):
            dec.DecoderConfig(dense_sources=bad).sources_for(enc_blocks)
    for fusion in dec.FUSIONS:
        params = dec.init_decoder(
            dec.DecoderConfig(R=1, d=4, heads=1, fusion=fusion,
                              dense_sources=()), enc_blocks, rng)
        assert not any(".dense." in k for k in params)


def test_transenc_ignores_sources_at_forward():
    cfg = dec.DecoderConfig(R=1, d=8, heads=2, dense_sources=())
    params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=77)
    out, dense_attn = dec.decoder_forward(tokens, pyr, None, cfg, params)
    assert dense_attn == [None]
    assert out.shape == (1, 8)


def test_forward_gradcheck_one_block():
    cfg = dec.DecoderConfig(R=1, d=6, heads=2)
    params, tokens, pyr = build_stack(cfg, L=2, I=2, P=2, seed=78)
    emb = posemb.step_emb(2, 2, 6)
    tensors = [tokens] + pyr + list(params.values())

    def loss(*ts):
        out, _ = dec.decoder_forward(ts[0], list(ts[1:1 + len(pyr)]), emb, cfg,
                                     params)
        return T.sum_all(T.mul(out, out))

    gradcheck(loss, tensors)


def test_forward_gradcheck_batch_of_two():
    cfg = dec.DecoderConfig(R=1, d=4, heads=2)
    params, tokens, pyr = build_stack(cfg, L=2, I=2, P=1, seed=79, clips=2)
    emb = posemb.step_emb(2, 1, 4)
    weights = t(np.random.default_rng(79).normal(size=(2, 4)))
    tensors = [tokens] + pyr + list(params.values())

    def loss(*ts):
        out, _ = dec.decoder_forward(ts[0], list(ts[1:1 + len(pyr)]), emb, cfg,
                                     params)
        return T.sum_all(T.mul(T.mul(out, out), weights))

    gradcheck(loss, tensors)


def test_forward_clips_do_not_interact():
    cfg = dec.DecoderConfig(R=2, d=8, heads=2, dense_sources=(1, 2, 3))
    params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=85, clips=2)
    emb = posemb.step_emb(2, 2, 8)
    first_clip = t([[1.0], [0.0]])

    def run(tokens, pyr):
        """Clip 0's embedding, attention and the gradients of its norm."""
        for p in params.values():
            p.grad = None
        inputs = [t(tokens.data, rg=True)] + [t(m.data, rg=True) for m in pyr]
        out, dense_attn = dec.decoder_forward(inputs[0], inputs[1:], emb, cfg,
                                              params)
        T.backward(T.sum_all(T.mul(T.mul(out, out), first_clip)))
        grads = [x.grad[0] for x in inputs] + [p.grad for p in params.values()]
        return out.data[0], dense_attn, grads

    base, base_attn, base_grads = run(tokens, pyr)
    rng = np.random.default_rng(86)
    clip1 = np.array([0.0, 1.0])[:, None, None]
    moved = t(tokens.data + clip1 * rng.normal(size=tokens.shape))
    moved_pyr = [t(m.data + clip1 * rng.normal(size=m.shape)) for m in pyr]
    out, attn, grads = run(moved, moved_pyr)
    assert np.abs(out - base).max() <= 1e-12
    for want, got in zip(base_grads, grads):
        assert np.abs(got - want).max() <= 1e-12
    for want, got in zip(base_attn, attn):
        assert np.abs(got[0] - want[0]).max() <= 1e-12
        assert np.abs(got[1] - want[1]).max() > 1e-6


# ------------------------------------------------------------ classify head


def test_classify_head_zero_weights_zero_logits():
    rng = np.random.default_rng(80)
    params, bn_state = dec.init_head(4, 3, rng)
    params["head.cls.w"].data = np.zeros((4, 3))
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
    params["head.cls.w"].data = np.stack([u, -u], axis=1)
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


CHANNELS = (4, 8, 16, 32)  # encoder widths; only their count L matters here


def instrumented_macs(cfg, L, I, P, seed=0):
    params, tokens, pyr = build_stack(cfg, L, I, P, seed)
    emb = posemb.step_emb(I, P, cfg.d)
    with T.count_matmuls() as counter:
        dec.decoder_forward(tokens, pyr, emb, cfg, params)
    return counter.macs


def test_flops_zero_blocks():
    cfg = dec.DecoderConfig(R=0, d=16, heads=2)
    assert flops.estimate_decoder_flops(cfg, 4, 2, CHANNELS)["total"] == 0
    assert instrumented_macs(cfg, 3, 4, 2) == 0


def test_flops_linear_in_r():
    one = flops.estimate_decoder_flops(dec.DecoderConfig(R=1, d=16, heads=2),
                                       4, 2, CHANNELS)
    two = flops.estimate_decoder_flops(dec.DecoderConfig(R=2, d=16, heads=2),
                                       4, 2, CHANNELS)
    assert two["total"] == 2 * one["total"]


def test_flops_match_instrumented_execution():
    cases = [
        (dec.DecoderConfig(R=1, d=8, heads=1), 2, 2, 2),
        (dec.DecoderConfig(R=2, d=8, heads=2), 4, 2, 2),
        (dec.DecoderConfig(R=1, d=8, heads=2, dense_sources=()), 2, 2, 2),
        (dec.DecoderConfig(R=1, d=8, heads=2, dense_sources=(),
                           fusion="concatenation"), 2, 2, 2),
        (dec.DecoderConfig(R=2, d=4, heads=1, dense_sources=(3,)), 3, 1, 4),
        (dec.DecoderConfig(R=1, d=8, heads=2, fusion="summation"), 3, 2, 2),
        (dec.DecoderConfig(R=1, d=8, heads=2, fusion="concatenation"), 3, 2, 2),
        (dec.DecoderConfig(R=3, d=8, heads=4), 4, 2, 3),
    ]
    for cfg, L, I, P in cases:
        want = flops.estimate_decoder_flops(cfg, I, P, CHANNELS[:L])["total"]
        assert instrumented_macs(cfg, L, I, P) == want


def test_flops_monotone():
    base = dict(R=2, d=16, heads=2, fusion="attention")
    ref = flops.estimate_decoder_flops(dec.DecoderConfig(**base), 4, 2,
                                       CHANNELS)["total"]
    for change, kwargs in (
            ("R", dict(base, R=3)),
            ("d", dict(base, d=32)),
            ("heads", dict(base, heads=4)),
    ):
        up = flops.estimate_decoder_flops(dec.DecoderConfig(**kwargs), 4, 2,
                                          CHANNELS)["total"]
        assert up >= ref, change
    assert flops.estimate_decoder_flops(dec.DecoderConfig(**base), 8, 2,
                                        CHANNELS)["total"] > ref
    assert flops.estimate_decoder_flops(dec.DecoderConfig(**base), 4, 4,
                                        CHANNELS)["total"] > ref
    more_sources = dec.DecoderConfig(**dict(base, dense_sources=(1, 2, 3, 4)))
    assert flops.estimate_decoder_flops(more_sources, 4, 2,
                                        CHANNELS)["total"] > ref


def test_flops_adapter_breakdown_separate():
    n = 4
    # widths of the blocks whose adapters run, of channels (4, 8, 16)
    for change, widths in (({}, (8, 16)),
                           ({"dense_sources": (1, 2, 3)}, (4, 8, 16)),
                           ({"dense_sources": (1,)}, (4, 16)),
                           ({"dense_sources": (3,)}, (16,)),
                           ({"dense_sources": ()}, (16,)),
                           ({"R": 0}, (16,))):
        cfg = dec.DecoderConfig(**dict(dict(R=2, d=8, heads=1), **change))
        est = flops.estimate_decoder_flops(cfg, 2, 2, (4, 8, 16))
        assert est["adapters"] == n * sum(widths) * 8, change
        assert est["total"] == cfg.R * est["per_block"]
    # L is the number of widths: the default sources are blocks 2 and 3
    est = flops.estimate_decoder_flops(dec.DecoderConfig(), 4, 2, (4, 8, 16))
    assert est["adapters"] == 8 * (8 + 16) * 64


# ------------------------------------------------------------ attention dump


def test_dump_attention_csv(tmp_path):
    cfg = dec.DecoderConfig(R=2, d=8, heads=2)
    params, tokens, pyr = build_stack(cfg, L=3, I=2, P=2, seed=84)
    _, dense_attn = dec.decoder_forward(tokens, pyr, posemb.step_emb(2, 2, 8),
                                        cfg, params)
    path = tmp_path / "attn.csv"
    rows = dec.dump_attention(dense_attn, 2, 2, cfg.sources_for(3), path)
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
