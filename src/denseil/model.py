"""Full model assembly: encoder, width adapters, decoder stack, classifier.

Parameter construction order is fixed (encoder, adapters, decoder, head) so
a given seed always produces the same initial weights.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as tn
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .decoder import classify_head, decoder_forward, init_decoder, init_head
from .encoder import encode_clip, init_encoder
from .partition import stack_partitions
from .posemb import step_emb
from .rng import INIT_STREAM, stream
from .tensor import Param, Tensor


@dataclass
class Model:
    cfg: RunConfig
    params: dict
    states: dict

    def adapter_weights(self):
        L = self.cfg.encoder.num_blocks
        return [self.params["adapter.block%d.w" % l].tensor
                for l in range(1, L + 1)]


def build_model(cfg: RunConfig) -> Model:
    rng = stream(cfg.seed, INIT_STREAM)
    dtype = cfg.np_dtype()
    d = cfg.decoder.d

    params, states = init_encoder(cfg.encoder, cfg.data.channels, rng,
                                  dtype=dtype)
    for l, c in enumerate(cfg.encoder.channels, start=1):
        name = "adapter.block%d.w" % l
        w = rng.normal(0.0, c ** -0.5, (c, d)).astype(dtype)
        params[name] = Param(name, Tensor(w))
    params.update(init_decoder(cfg.decoder, cfg.encoder.num_blocks, rng,
                               dtype=dtype))
    head_params, head_state = init_head(d, cfg.data.num_identities, rng,
                                        dtype=dtype)
    params.update(head_params)
    states["head.bn"] = head_state
    return Model(cfg, params, states)


def forward_batch(model: Model, clips: np.ndarray, training: bool):
    """Embed a [B, I, C, H, W] batch of clips.

    Returns (logits [B, num_ids], embeddings [B, d], last clip's decoder
    state). Encoder batch norm sees the whole batch at once; the decoder
    runs per clip. Embeddings are the post-norm features the metric side
    ranks.
    """
    b, i = clips.shape[0], clips.shape[1]
    x = Tensor(np.ascontiguousarray(clips.reshape((b * i,) + clips.shape[2:])))
    pyramid = encode_clip(x, model.cfg.encoder, model.params, model.states,
                          training)
    adapters = model.adapter_weights()
    emb = step_emb(i, model.cfg.partitions, model.cfg.decoder.d)
    clip_embs = []
    state = None
    for k in range(b):
        pyr = [tn.slice_rows(block, k * i, (k + 1) * i) for block in pyramid]
        tokens, earlier = stack_partitions(pyr, model.cfg.partitions, adapters)
        e, state = decoder_forward(tokens, earlier, emb, model.cfg.decoder,
                                   model.params)
        clip_embs.append(e)
    embeddings = tn.stack_rows(clip_embs)
    logits, normed = classify_head(embeddings, model.params,
                                   model.states["head.bn"], training)
    return logits, normed, state


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


def load_model(path, cfg: RunConfig) -> Model:
    """Rebuild the architecture from cfg and fill it from the checkpoint."""
    model = build_model(cfg)
    records = load_checkpoint(path)
    dtype = cfg.np_dtype()
    for name, param in model.params.items():
        if name not in records:
            raise CheckpointError("%s: missing record %r" % (path, name))
        arr = records.pop(name)
        if arr.shape != param.data.shape:
            raise CheckpointError(
                "%s: record %r has shape %s, model wants %s"
                % (path, name, arr.shape, param.data.shape))
        param.tensor.data = arr.astype(dtype)
    for name, st in model.states.items():
        for field in ("mean", "var", "count"):
            key = "bnstate.%s.%s" % (name, field)
            if key not in records:
                raise CheckpointError("%s: missing record %r" % (path, key))
        st.running_mean = records.pop(
            "bnstate.%s.mean" % name).astype(dtype)
        st.running_var = records.pop("bnstate.%s.var" % name).astype(dtype)
        st.num_batches = int(records.pop("bnstate.%s.count" % name))
    if records:
        raise CheckpointError(
            "%s: unexpected record %r" % (path, next(iter(records))))
    return model
