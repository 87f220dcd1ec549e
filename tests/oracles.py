"""Independent reference implementations used to pin down expected values.

Everything here is written the dumb, obvious way (python loops, no shared
code with the package) so a test failure points at the package, not at a
bug mirrored into its own check.
"""

import numpy as np

from denseil import tensor as T


def gradcheck(fn, tensors, step=1e-5, tol=1e-4):
    """Compare backward() gradients against central finite differences.

    ``fn`` rebuilds a scalar loss from ``tensors`` on every call; all inputs
    must be float64. Relative error uses max(1, |a|, |n|) in the denominator
    so tiny gradients are compared absolutely.
    """
    for t in tensors:
        assert t.data.dtype == np.float64, "gradcheck requires float64 inputs"
        t.requires_grad = True
        t.grad = None
    loss = fn(*tensors)
    T.backward(loss)
    worst = 0.0
    for t in tensors:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        # perturbed in place by index: reshape(-1) of a strided array, such
        # as a model kernel, is a copy, so writes to it would not reach fn
        data = t.data
        numeric = np.zeros(data.shape)
        for i in np.ndindex(data.shape):
            keep = data[i]
            data[i] = keep + step
            up = float(fn(*tensors).data)
            data[i] = keep - step
            down = float(fn(*tensors).data)
            data[i] = keep
            numeric[i] = (up - down) / (2.0 * step)
        rel = np.abs(analytic - numeric) / np.maximum(
            1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        worst = max(worst, float(rel.max()))
    assert worst < tol, "gradient mismatch: worst relative error %.3e" % worst
    return worst


def nhwc(x):
    """A contiguous channels-last copy of an [N,C,H,W] array."""
    return np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)))


def conv2d_nchw_ref(x, w, stride):
    """Same-padded convolution of [N,C,H,W] by [Cout,C,kh,kw], one output pixel at a time."""
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wd + 2 * pw - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo))
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    patch = xp[ni, :, i * stride:i * stride + kh, j * stride:j * stride + kw]
                    out[ni, co, i, j] = (patch * w[co]).sum()
    return out


def conv2d_backward_ref(x, w, g, stride):
    """Gradients of channels-last conv2d by padded col2im.

    Written in the exact arithmetic of the first fused conv2d node, not the
    obvious way: im2col columns ordered (kh, kw, C), ``dw`` from one GEMM
    against them, then each tap's ``g @ w`` added into a zeroed padded
    buffer whose interior is copied out as ``dx``. ``g`` is the gradient
    arriving at the [N,Ho,Wo,Cout] output. Returns (dx, dw).
    """
    n, h, wd, c = x.shape
    cout, _, kh, kw = w.shape
    ph, pw = (kh - 1) // 2, (kw - 1) // 2
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wd + 2 * pw - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    cols = np.empty((n, ho, wo, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, i, j] = xp[:, i:i + stride * ho:stride,
                                     j:j + stride * wo:stride]
    cols = cols.reshape(n * ho * wo, kh * kw * c)
    wmat = w.transpose(0, 2, 3, 1).reshape(cout, kh * kw * c)
    g2 = g.reshape(-1, cout)
    dw = (g2.T @ cols).reshape(cout, kh, kw, c).transpose(0, 3, 1, 2)
    taps = wmat.reshape(cout, kh, kw, c)
    dxp = np.zeros(xp.shape, dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i:i + stride * ho:stride, j:j + stride * wo:stride] += (
                (g2 @ taps[:, i, j]).reshape(n, ho, wo, c))
    dx = np.ascontiguousarray(dxp[:, ph:ph + h, pw:pw + wd])
    return dx, dw


def encoder_nchw_ref(x, strides, params, eps=1e-5):
    """Training-mode encoder pyramid over [N,C,H,W]: per block, twice
    conv -> batch norm with batch statistics over (N,H,W) -> ReLU."""
    pyramid = []
    for l, stride in enumerate(strides, start=1):
        for k, s in ((1, stride), (2, 1)):
            prefix = "encoder.block%d" % l
            x = conv2d_nchw_ref(x, params["%s.conv%d.w" % (prefix, k)], s)
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            var = x.var(axis=(0, 2, 3), keepdims=True)
            gamma = params["%s.bn%d.gamma" % (prefix, k)].reshape(1, -1, 1, 1)
            beta = params["%s.bn%d.beta" % (prefix, k)].reshape(1, -1, 1, 1)
            x = np.maximum((x - mu) / np.sqrt(var + eps) * gamma + beta, 0.0)
        pyramid.append(x)
    return pyramid


def batchnorm_relu_ref(x, gamma, beta, g, running=None, relu=True, eps=1e-5):
    """Channels-last batch norm, then ReLU when ``relu``, as unfused nodes.

    Written in the exact arithmetic of the separate nodes, not the obvious
    way: the fused node must match it byte for byte. ``running`` is None for
    training mode (batch statistics) or the (mean, var) pair eval mode uses.
    ``g`` is the gradient arriving at the last node's output; like the
    engine that ran the unfused graph, each node's gradient is added into a
    zeroed buffer. Returns (out, dx, dgamma, dbeta, batch mean, batch var);
    the statistics are None in eval mode.
    """
    c = gamma.shape[0]
    x2 = x.reshape(-1, c)
    if running is None:
        mu = x2.mean(axis=0)
        var = x2.var(axis=0)
    else:
        mu, var = running
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x2 - mu) * inv
    out = xhat * gamma + beta
    g2 = np.zeros_like(out)
    if relu:
        mask = out > 0
        out = np.where(mask, out, 0.0)
        g_relu = np.zeros_like(out)
        g_relu += g.reshape(-1, c)
        g2 += g_relu * mask
    else:
        g2 += g.reshape(-1, c)
    dbeta = g2.sum(axis=0)
    dgamma = (g2 * xhat).sum(axis=0)
    scale = gamma * inv
    if running is None:
        dx = scale * (g2 - g2.mean(axis=0) - xhat * dgamma / g2.shape[0])
    else:
        dx = scale * g2
        mu = var = None
    return out.reshape(x.shape), dx.reshape(x.shape), dgamma, dbeta, mu, var


def backward_ref(loss):
    """Reverse-mode sweep that adds every gradient into a zeroed buffer.

    Sets ``grad`` on each tensor reachable from ``loss`` that requires one.
    """
    order, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for parent in node._parents:
            visit(parent)
        order.append(node)

    visit(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if not parent.requires_grad or g is None:
                continue
            if parent.grad is None:
                parent.grad = np.zeros_like(parent.data)
            parent.grad += g


def attention_ref(q, k, v):
    """Single-head scaled dot-product attention, one python loop per query."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d = q.shape[1]
    out = np.zeros((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        scores = np.array([q[i] @ k[j] for j in range(k.shape[0])]) / np.sqrt(d)
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        out[i] = sum(w[j] * v[j] for j in range(k.shape[0]))
    return out


def multihead_attention_ref(x_q, x_kv, wq, wk, wv, wo, heads):
    """Multi-head attention from raw inputs and packed projection matrices.

    Head h uses columns [h*dh:(h+1)*dh] of wq/wk/wv; outputs are concatenated
    in head order then mapped through wo.
    """
    d = wq.shape[1]
    dh = d // heads
    concat = np.zeros((x_q.shape[0], d))
    q_all = np.asarray(x_q, dtype=np.float64) @ wq
    k_all = np.asarray(x_kv, dtype=np.float64) @ wk
    v_all = np.asarray(x_kv, dtype=np.float64) @ wv
    for h in range(heads):
        sl = slice(h * dh, (h + 1) * dh)
        concat[:, sl] = attention_ref(q_all[:, sl], k_all[:, sl], v_all[:, sl])
    return concat @ wo


def _softmax_rows_unfused(x):
    """The row softmax as its own node, out of place, as the decoder ran it
    before ``tensor.attention``."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return T.Tensor(out, _parents=(x,), _backward=back)


def unfused_attention_ref(q_in, kv_in, wq, wk, wv, wo, heads, clips=1):
    """``decoder.multi_head_attention`` as a graph of one node per step.

    Not an independent check: it composes the package's own ops the way the
    decoder did before ``tensor.attention`` fused them (head split by
    reshape, transpose and reshape; q kᵀ; scale; softmax; weights v; head
    merge), so the fused node must match it byte for byte, forward and
    backward. Same signature and return value as the decoder function.
    """
    d = wq.shape[1]
    dh = d // heads
    n = q_in.shape[0] // clips

    def split(x):
        x = T.reshape(x, (-1, clips, n, heads, dh))
        groups = x.shape[0]
        x = T.transpose(x, (1, 3, 0, 2, 4))
        return T.reshape(x, (clips, heads, groups * n, dh))

    q = split(T.matmul(q_in, wq))
    k = split(T.matmul(kv_in, wk))
    v = split(T.matmul(kv_in, wv))
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = _softmax_rows_unfused(scores)
    heads_out = T.transpose(T.matmul(attn, v), (0, 2, 1, 3))
    return T.matmul(T.reshape(heads_out, (clips * n, d)), wo), attn.data


def cmc_map_ref(dist, q_ids, q_cams, g_ids, g_cams, topk):
    """Exhaustive CMC / mAP over a distance table, one query at a time.

    Same-identity same-camera gallery entries are removed per query; ranking
    is by distance with gallery index breaking ties; queries with no valid
    positive are skipped and counted.
    """
    dist = np.asarray(dist, dtype=np.float64)
    hits = np.zeros(topk)
    aps = []
    skipped = 0
    for qi in range(dist.shape[0]):
        keep = [gi for gi in range(dist.shape[1])
                if not (g_ids[gi] == q_ids[qi] and g_cams[gi] == q_cams[qi])]
        good = [gi for gi in keep if g_ids[gi] == q_ids[qi]]
        if not good:
            skipped += 1
            continue
        order = sorted(keep, key=lambda gi: (dist[qi, gi], gi))
        ranks_of_good = [r for r, gi in enumerate(order) if gi in set(good)]
        first = ranks_of_good[0]
        for k in range(topk):
            if first <= k:
                hits[k] += 1
        precisions = [(j + 1) / (r + 1) for j, r in enumerate(ranks_of_good)]
        aps.append(sum(precisions) / len(precisions))
    n_valid = dist.shape[0] - skipped
    cmc = hits / n_valid if n_valid else np.zeros(topk)
    mean_ap = float(np.mean(aps)) if aps else 0.0
    return cmc, mean_ap, skipped


def step_emb_ref(n_frames, n_parts, d):
    """Positional table straight from the sinusoid formulas, 1-based indices."""
    out = np.zeros((n_frames * n_parts, d))
    for i in range(1, n_frames + 1):
        for p in range(1, n_parts + 1):
            for j in range(1, d + 1):
                angle_s = p / (10000.0 ** (j / d))
                angle_t = i / (10000.0 ** (j / d))
                s = np.sin(angle_s) if j % 2 == 0 else np.cos(angle_s)
                t = np.sin(angle_t) if j % 2 == 0 else np.cos(angle_t)
                out[(i - 1) * n_parts + (p - 1), j - 1] = s + t
    return out


def layer_norm_ref(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def self_attention_block_ref(H, w, heads):
    """Pre-LN residual self-attention from a name->array param dict."""
    ln = layer_norm_ref(H, w["ln.gamma"], w["ln.beta"])
    return H + multihead_attention_ref(ln, ln, w["wq"], w["wk"], w["wv"], w["wo"], heads)


def dense_attention_ref(H, sources, w, heads):
    """Pre-LN interaction attention: queries LN(H), keys/values [sources..., H]."""
    q_in = layer_norm_ref(H, w["ln.gamma"], w["ln.beta"])
    kv = np.vstack(list(sources) + [H])
    return H + multihead_attention_ref(q_in, kv, w["wq"], w["wk"], w["wv"], w["wo"], heads)


def batch_hard_triplet_ref(embeddings, labels, margin):
    """Enumerate every pair per anchor; no vectorization, no shared code."""
    e = np.asarray(embeddings, dtype=np.float64)
    labels = list(labels)
    b = len(labels)
    total = 0.0
    for a in range(b):
        pos = [np.sqrt(((e[a] - e[j]) ** 2).sum())
               for j in range(b) if j != a and labels[j] == labels[a]]
        neg = [np.sqrt(((e[a] - e[j]) ** 2).sum())
               for j in range(b) if labels[j] != labels[a]]
        total += max(0.0, margin + max(pos) - min(neg))
    return total / b


def render_tracklet_ref(cfg, base, gain, offset, rng):
    """One tracklet drawn frame by frame: roll, color shift, bar, clip."""
    frames = np.empty(
        (cfg.frames_per_tracklet, 3, cfg.height, cfg.width), dtype=np.float32)
    hi = cfg.height
    bar_lo = -(-hi // 4)  # ceil(0.25 H)
    bar_hi = hi // 2
    for i in range(cfg.frames_per_tracklet):
        shift = int(rng.integers(-cfg.jitter, cfg.jitter + 1))
        img = np.roll(base, shift, axis=1)
        img = img * gain[:, None, None] + offset[:, None, None]
        if rng.random() < cfg.occlusion_prob:
            bar = int(rng.integers(bar_lo, bar_hi + 1))
            bar_top = int(rng.integers(0, hi - bar + 1))
            gray = float(rng.uniform(0.1, 0.9))
            img[:, bar_top:bar_top + bar, :] = gray
        frames[i] = np.clip(img, 0.0, 1.0)
    return frames


def ppool_ref(x, P, g):
    """Part pooling of channels-last [N,H,W,C] one band at a time, each
    band's mean taken by np.mean: (tokens [N*P, C], frame-major, and the
    input gradient of the token gradient ``g``)."""
    n, h, w, c = x.shape
    base, rem = divmod(h, P)
    out = np.empty((n, P, c), dtype=x.dtype)
    dx = np.zeros_like(x)
    g3 = g.reshape(n, P, c)
    r0 = 0
    for b, hb in enumerate([base + 1] * rem + [base] * (P - rem)):
        out[:, b] = x[:, r0:r0 + hb].mean(axis=(1, 2))
        dx[:, r0:r0 + hb] = (g3[:, b] / (hb * w))[:, None, None, :]
        r0 += hb
    return out.reshape(n * P, c), dx


def restricted_sample_ref(tracklet, chunks, rng):
    """Restricted random sampling chunk by chunk: one scalar draw per
    contiguous chunk, the extra frames going to the first chunks."""
    t_full = tracklet.frames.shape[0]
    base, rem = divmod(t_full, chunks)
    picks = []
    start = 0
    for h in [base + 1] * rem + [base] * (chunks - rem):
        picks.append(start + int(rng.integers(h)))
        start += h
    return tracklet.frames[picks]
