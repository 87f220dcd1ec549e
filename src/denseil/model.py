"""Full model assembly: encoder, width adapters, decoder stack, classifier.

``param_table`` lists every weight as (name, shape, init) in draw order
(encoder, adapters, decoder, head), so a given seed always produces the
same initial weights; ``build_model`` draws it, ``load_model`` fills it from
a checkpoint and ``RunConfig.num_params`` counts it. The table is a list
of (repeat, entries) sections, "{}" in a name standing for the 1-based
repetition, so the decoder's R blocks are listed once. An entry named None
is drawn but not built, so no other initial weight depends on which blocks
the decoder reads or on the fusion.
"""

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .data import CHANNELS
from .decoder import DecoderConfig, classify_head, decoder_forward
from .encoder import encode_clip
from .imageops import BNState
from .partition import stack_partitions
from .posemb import step_emb
from .rng import INIT_STREAM, stream
from .tensor import Tensor

if TYPE_CHECKING:
    from .config import RunConfig


@dataclass
class Model:
    cfg: "RunConfig"
    params: dict
    states: dict

    def adapter_weights(self):
        """One [C_l, d] weight per encoder block, None for a block the
        decoder does not read."""
        L = self.cfg.encoder.num_blocks
        return [self.params.get("adapter.block%d.w" % l)
                for l in range(1, L + 1)]


NORMS = ("layernorm", "batchnorm")  # entries that build a gamma and a beta


def encoder_table(channels, in_channels=CHANNELS):
    """Two 3x3 convs per block, each followed by a batch norm."""
    entries = []
    for l, (cin, cout) in enumerate(zip((in_channels,) + channels, channels),
                                    start=1):
        for k, c_from in ((1, cin), (2, cout)):
            entries += [("encoder.block%d.conv%d.w" % (l, k),
                         (cout, c_from, 3, 3), "he"),
                        ("encoder.block%d.bn%d" % (l, k), (cout,), "batchnorm")]
    return [(1, entries)]


def _attention(prefix, d: int):
    """q, k, v and output maps, then the norm of the sub-layer's input."""
    maps = [(prefix + w, (d, d), "scaled") for w in ("wq", "wk", "wv", "wo")]
    return maps + [(prefix + "ln", (d,), "layernorm")]


def decoder_table(cfg: DecoderConfig, num_encoder_blocks: int):
    d, S = cfg.d, len(cfg.sources_for(num_encoder_blocks))
    block = _attention("decoder.block{}.selfattn.", d)
    if S:  # the maps are drawn under every fusion, built under attention's
        block += (_attention("decoder.block{}.dense.", d)
                  if cfg.fusion == "attention"
                  else [(None, (d, d), "scaled")] * 4)
        if cfg.fusion == "concatenation":
            block += [("decoder.block{}.dense.wcat", ((S + 1) * d, d), "scaled")]
    f = "decoder.block{}.ffn."
    block += [(f + "w1", (d, d), "he"), (f + "b1", (d,), "zeros"),
              (f + "w2", (d, d), "scaled"), (f + "b2", (d,), "zeros"),
              (f + "ln", (d,), "layernorm")]
    return [(cfg.R, block),
            (min(cfg.R, 1), [("decoder.final_ln", (d,), "layernorm")])]


def head_table(d: int, num_ids: int):
    return [(1, [("head.bn", (d,), "batchnorm"),
                 ("head.cls.w", (d, num_ids), "scaled")])]


def param_table(cfg: "RunConfig"):
    channels, d = cfg.encoder.channels, cfg.decoder.d
    read = cfg.decoder.read_blocks(len(channels))
    adapters = [("adapter.block%d.w" % l if l in read else None, (c, d),
                 "scaled") for l, c in enumerate(channels, start=1)]
    return (encoder_table(channels) + [(1, adapters)]
            + decoder_table(cfg.decoder, len(channels))
            + head_table(d, cfg.data.num_identities))


def count_params(table) -> int:
    return sum(repeat * math.prod(shape) * (2 if init in NORMS else 1)
               for repeat, entries in table
               for name, shape, init in entries if name is not None)


def draw_params(table, rng, dtype=np.float64):
    """(params, batch-norm states) keyed by name, drawn in table order.

    "he" draws N(0, sqrt(2 / fan_in)), "scaled" N(0, fan_in ** -0.5); fan_in
    is an [in, out] matrix's first dim or an [out, in, kh, kw] kernel's
    in * kh * kw. A norm is a unit ``.gamma`` and a zero ``.beta``. With
    ``rng`` None every weight is zero and nothing is drawn.

    A kernel keeps its [Cout, C, kh, kw] shape in [Cout, kh, kw, C] memory,
    the layout of conv's GEMM weight matrix, so no conv pass copies it; code
    that sets a parameter writes into its array and so keeps the layout.
    """
    params, states = {}, {}
    for repeat, entries in table:
        for r in range(1, repeat + 1):
            for name, shape, init in entries:
                name = name and name.format(r)
                if init in NORMS:
                    arrays = {".gamma": np.ones(shape), ".beta": np.zeros(shape)}
                    if init == "batchnorm":
                        states[name] = BNState(shape[0], dtype=dtype)
                elif init == "zeros" or rng is None:
                    arrays = {"": np.zeros(shape)} if name else {}
                else:
                    fan = shape[0] if len(shape) == 2 else math.prod(shape[1:])
                    w = rng.normal(0.0, np.sqrt(2.0 / fan) if init == "he"
                                   else fan ** -0.5, shape)
                    arrays = {"": w} if name else {}
                for suffix, arr in arrays.items():
                    if arr.ndim == 4:  # astype keeps this layout
                        arr = arr.transpose(0, 2, 3, 1).copy().transpose(0, 3, 1, 2)
                    params[name + suffix] = Tensor(arr.astype(dtype),
                                                   requires_grad=True)
    return params, states


def build_model(cfg: "RunConfig") -> Model:
    rng = stream(cfg.seed, INIT_STREAM)
    return Model(cfg, *draw_params(param_table(cfg), rng, cfg.np_dtype()))


def forward_batch(model: Model, clips: np.ndarray, training: bool):
    """Embed a [B, I, C, H, W] batch of clips.

    The frames go channels-last and into the run dtype in one copy, then
    through the encoder, whose batch norm sees the whole batch at once.
    The decoder then runs once over all B clips' pooled and adapted
    pyramids, attention staying within each clip. Returns (logits
    [B, num_ids], embeddings [B, d], each decoder block's interaction
    weights, as ``decoder_forward`` gives them). Embeddings are the
    post-norm features the metric side ranks.
    """
    b, i, c, h, w = clips.shape
    frames = clips.reshape(b * i, c, h, w)
    # one channel at a time, so each copy's inner loop runs along a row,
    # not over the C values of one pixel; the bytes are the transpose's
    x = np.empty((b * i, h, w, c), model.cfg.np_dtype())
    for ch in range(c):
        x[..., ch] = frames[:, ch]
    pyramid = encode_clip(Tensor(x), model.cfg.encoder, model.params,
                          model.states, training)
    levels = stack_partitions(pyramid, model.cfg.partitions,
                              model.adapter_weights())
    emb = step_emb(i, model.cfg.partitions, model.cfg.decoder.d)
    embeddings, dense_attn = decoder_forward(levels, emb, model.cfg.decoder,
                                             model.params)
    logits, normed = classify_head(embeddings, model.params,
                                   model.states["head.bn"], training)
    return logits, normed, dense_attn


def save_model(path, model: Model):
    """Parameters plus batch-norm running statistics, one record each."""
    records = {}
    for name in sorted(model.params):
        records[name] = model.params[name].data
    for name in sorted(model.states):
        st = model.states[name]
        records["bnstate.%s.mean" % name] = st.running_mean
        records["bnstate.%s.var" % name] = st.running_var
        records["bnstate.%s.count" % name] = np.array(float(st.num_batches))
    save_checkpoint(path, records)


def _take(records, path, key, shape):
    """Pop record ``key``, which must exist, have ``shape`` and be finite."""
    if key not in records:
        raise CheckpointError("%s: missing record %r" % (path, key))
    arr = records.pop(key)
    if arr.shape != shape:
        raise CheckpointError("%s: record %r has shape %s, model wants %s"
                              % (path, key, arr.shape, shape))
    if not np.isfinite(arr).all():
        raise CheckpointError("%s: record %r has non-finite values"
                              % (path, key))
    return arr


def load_model(path, cfg: "RunConfig") -> Model:
    """Fill cfg's parameter table from the checkpoint, drawing nothing."""
    dtype = cfg.np_dtype()
    model = Model(cfg, *draw_params(param_table(cfg), None, dtype))
    records = load_checkpoint(path)
    for name, param in model.params.items():
        param.data[...] = _take(records, path, name, param.shape)
    for name, st in model.states.items():
        key = "bnstate.%s." % name
        mean = _take(records, path, key + "mean", st.running_mean.shape)
        var = _take(records, path, key + "var", st.running_var.shape)
        if (var < 0).any():
            raise CheckpointError("%s: record %r has a negative variance"
                                  % (path, key + "var"))
        st.set(mean.astype(dtype), var.astype(dtype))
        count = _take(records, path, key + "count", ())
        if not (count >= 0 and count == np.floor(count)):
            raise CheckpointError("%s: record %r is %r, not a batch count"
                                  % (path, key + "count", float(count)))
        st.num_batches = int(count)
    if records:
        raise CheckpointError(
            "%s: unexpected record %r" % (path, next(iter(records))))
    return model
