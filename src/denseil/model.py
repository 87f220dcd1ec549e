"""Full model assembly: encoder, width adapters, decoder stack, classifier.

Parameter construction order is fixed (encoder, adapters, decoder, head) so
a given seed always produces the same initial weights.
"""

from dataclasses import dataclass

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import RunConfig
from .data import CHANNELS
from .decoder import classify_head, decoder_forward, init_decoder, init_head
from .encoder import encode_clip, init_encoder
from .partition import stack_partitions
from .posemb import step_emb
from .rng import INIT_STREAM, stream
from .tensor import Tensor


@dataclass
class Model:
    cfg: RunConfig
    params: dict
    states: dict

    def adapter_weights(self):
        """One [C_l, d] weight per encoder block, None for a block the
        decoder does not read."""
        L = self.cfg.encoder.num_blocks
        return [self.params.get("adapter.block%d.w" % l)
                for l in range(1, L + 1)]


def build_model(cfg: RunConfig) -> Model:
    rng = stream(cfg.seed, INIT_STREAM)
    dtype = cfg.np_dtype()
    d = cfg.decoder.d

    params, states = init_encoder(cfg.encoder, CHANNELS, rng, dtype=dtype)
    read = cfg.decoder.read_blocks(cfg.encoder.num_blocks)
    for l, c in enumerate(cfg.encoder.channels, start=1):
        # drawn for every block, so no other initial weight depends on
        # which blocks the decoder reads
        w = rng.normal(0.0, c ** -0.5, (c, d)).astype(dtype)
        if l in read:
            params["adapter.block%d.w" % l] = Tensor(w, requires_grad=True)
    params.update(init_decoder(cfg.decoder, cfg.encoder.num_blocks, rng,
                               dtype=dtype))
    head_params, head_state = init_head(d, cfg.data.num_identities, rng,
                                        dtype=dtype)
    params.update(head_params)
    states["head.bn"] = head_state
    return Model(cfg, params, states)


def forward_batch(model: Model, clips: np.ndarray, training: bool):
    """Embed a [B, I, C, H, W] batch of clips.

    The frames go channels-last once and through the encoder, whose batch
    norm sees the whole batch at once. The decoder then runs once over all
    B clips' pooled and adapted pyramids, attention staying within each
    clip. Returns (logits [B, num_ids], embeddings [B, d], each decoder
    block's interaction weights, as ``decoder_forward`` gives them).
    Embeddings are the post-norm features the metric side ranks.
    """
    b, i = clips.shape[0], clips.shape[1]
    frames = clips.reshape((b * i,) + clips.shape[2:])
    x = Tensor(np.ascontiguousarray(frames.transpose(0, 2, 3, 1)))
    pyramid = encode_clip(x, model.cfg.encoder, model.params, model.states,
                          training)
    tokens, earlier = stack_partitions(pyramid, model.cfg.partitions,
                                       model.adapter_weights(), b)
    emb = step_emb(i, model.cfg.partitions, model.cfg.decoder.d)
    embeddings, dense_attn = decoder_forward(tokens, earlier, emb,
                                             model.cfg.decoder, model.params)
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


def load_model(path, cfg: RunConfig) -> Model:
    """Rebuild the architecture from cfg and fill it from the checkpoint."""
    model = build_model(cfg)
    records = load_checkpoint(path)
    dtype = cfg.np_dtype()
    for name, param in model.params.items():
        param.data = _take(records, path, name, param.shape).astype(dtype)
    for name, st in model.states.items():
        key = "bnstate.%s." % name
        st.running_mean = _take(records, path, key + "mean",
                                st.running_mean.shape).astype(dtype)
        st.running_var = _take(records, path, key + "var",
                               st.running_var.shape).astype(dtype)
        if (st.running_var < 0).any():
            raise CheckpointError("%s: record %r has a negative variance"
                                  % (path, key + "var"))
        count = _take(records, path, key + "count", ())
        if not (count >= 0 and count == np.floor(count)):
            raise CheckpointError("%s: record %r is %r, not a batch count"
                                  % (path, key + "count", float(count)))
        st.num_batches = int(count)
    if records:
        raise CheckpointError(
            "%s: unexpected record %r" % (path, next(iter(records))))
    return model
