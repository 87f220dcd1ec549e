"""Training loop, evaluation pipeline, ablation runner, run reports."""

import csv
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tn
from .checkpoint import replacing
from .config import ConfigError, RunConfig, write_run_config
from .data import CHANNELS, Corpus, pk_batches, restricted_sample
from .decoder import FUSIONS
from .flops import estimate_decoder_flops
from .losses import total_loss
from .metrics import (RANKS, EvalTable, cmc_and_map, metrics_rows,
                      pairwise_distances)
from .model import Model, build_model, forward_batch, save_model
from .optim import Adam, lr_at
from .partition import token_index
from .rng import SAMPLER_STREAM, eval_stream_id, stream


class TrainingDiverged(ArithmeticError):
    """Loss left the reals; carries where."""


@dataclass
class RunReport:
    epoch_rows: list    # (epoch, cross_entropy, triplet, lr)
    metric_rows: list   # (name, value)
    flops: dict
    wall_clock: float

    def metric(self, name):
        return dict(self.metric_rows)[name]


def decoder_flops(cfg: RunConfig) -> dict:
    return estimate_decoder_flops(cfg.decoder, cfg.sampling.chunks,
                                  cfg.partitions, cfg.encoder.channels)


def _check_frame_shape(cfg: RunConfig, tracklets):
    """Reject tracklets whose (C, H, W) frames differ from ``cfg.data`` or
    that have fewer frames than ``sampling.chunks``."""
    want = (CHANNELS, cfg.data.height, cfg.data.width)
    for tr in tracklets:
        if tr.frames.shape[1:] != want:
            raise ConfigError("corpus frames are %s (C, H, W), config "
                              "data says %s" % (tr.frames.shape[1:], want))
        if len(tr.frames) < cfg.sampling.chunks:
            raise ConfigError(
                "tracklet %d of identity %d has %d frames, fewer than "
                "sampling.chunks=%d" % (tr.tracklet_id, tr.identity,
                                        len(tr.frames), cfg.sampling.chunks))


def train_run(cfg: RunConfig, corpus: Corpus, outdir=None, log=None):
    """Train a fresh model on the corpus; returns (model, RunReport).

    Each step: sample a K-identity batch, draw one frame per chunk from
    every tracklet, run the full stack, apply identity plus hard-mined
    ranking losses, step Adam. A non-finite loss aborts the run. With an
    ``outdir``, it is created and given config.json before the first epoch,
    so every snapshot in it can be loaded even if the run dies later.
    """
    t0 = time.perf_counter()
    for split, tracklets in corpus.splits():
        if not tracklets:
            raise ValueError("corpus has no %s split" % split)
    _check_frame_shape(cfg, corpus.train + corpus.query + corpus.gallery)
    for tr in corpus.train:
        if not 0 <= tr.identity < cfg.data.num_identities:
            raise ConfigError(
                "train tracklet %d has identity %d, outside [0, %d) set by "
                "data.num_identities" % (tr.tracklet_id, tr.identity,
                                         cfg.data.num_identities))
    model = build_model(cfg)
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        write_run_config(cfg, os.path.join(outdir, "config.json"))
    opt = Adam(model.params)
    sampler = stream(cfg.seed, SAMPLER_STREAM)
    epoch_rows = []
    step = 0
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg.optimizer.lr)
        ce_sum = tri_sum = 0.0
        batches = 0
        for batch in pk_batches(corpus.train, cfg.sampling.k_ids,
                                cfg.sampling.t_per_id, sampler):
            clips = np.stack([restricted_sample(tr, cfg.sampling.chunks,
                                                sampler) for tr in batch])
            labels = np.array([tr.identity for tr in batch])
            try:
                # the attention weights and, once Adam has read them, the
                # gradients are dropped before the next forward
                logits, embeddings = forward_batch(model, clips,
                                                   training=True)[:2]
                loss, ce, tri = total_loss(
                    logits, embeddings, labels,
                    triplet_weight=cfg.loss.triplet_weight)
                tn.backward(loss)
                opt.step(lr)
                opt.zero_grad()
            except (tn.NumericError, FloatingPointError) as err:
                raise TrainingDiverged(
                    "diverged at epoch %d step %d: %s" % (epoch, step, err))
            ce_sum += float(ce.data)
            tri_sum += float(tri.data)
            batches += 1
            step += 1
        epoch_rows.append((epoch, ce_sum / batches, tri_sum / batches, lr))
        if log:
            log("epoch %3d  ce %.4f  triplet %.4f  lr %g"
                % (epoch, ce_sum / batches, tri_sum / batches, lr))
        done = epoch + 1
        if (outdir and cfg.checkpoint_interval
                and done % cfg.checkpoint_interval == 0 and done < cfg.epochs):
            save_model(os.path.join(outdir, "epoch_%03d.dil1" % done), model)

    # Backward has freed the last step's closures and inner gradients; its
    # activations would otherwise live through evaluation. They are kept
    # across steps on purpose: freeing them each step lets the allocator
    # trim the heap, and the next step pays to fault it back in.
    del logits, embeddings, loss, ce, tri
    metric_rows = evaluate_model(model, cfg, corpus)
    report = RunReport(epoch_rows, metric_rows, decoder_flops(cfg),
                       time.perf_counter() - t0)
    if outdir:
        write_run_artifacts(outdir, model, report)
    return model, report


def eval_clip(cfg: RunConfig, tracklet) -> np.ndarray:
    """The tracklet's one fixed restricted sample, as a [1, I, C, H, W]
    batch in the corpus dtype: what evaluation embeds it from."""
    rng = stream(cfg.seed,
                 eval_stream_id(tracklet.identity, tracklet.tracklet_id))
    return restricted_sample(tracklet, cfg.sampling.chunks, rng)[None]


def eval_forward(model: Model, cfg: RunConfig, tracklets):
    """``forward_batch``'s eval-mode outputs for the tracklets' fixed
    samples as one batch, under ``tn.no_grad``: no graph is built. Frames
    that do not fit ``cfg`` raise ConfigError."""
    _check_frame_shape(cfg, tracklets)
    clips = np.concatenate([eval_clip(cfg, tr) for tr in tracklets])
    with tn.no_grad():
        return forward_batch(model, clips, training=False)


def embed_tracklets(model: Model, cfg: RunConfig, tracklets) -> np.ndarray:
    """The tracklets' fixed samples, embedded in eval mode: [N, d].

    One ``eval_forward`` per training batch of clips. Eval batch norm uses
    running statistics, so a row does not depend on its batch-mates beyond
    float rounding.

    Two lanes share the batches: this thread and one worker job each take
    the next unclaimed batch until none is left, and each writes its rows
    into that batch's slot. A lane that raises stops the other before its
    next batch. A one-batch evaluation or a query runs here and starts no
    thread. Each batch makes the serial calls, so the bytes are the serial
    ones whichever thread runs it. No tracklets give a [0, d] array; frames
    that do not fit ``cfg`` raise ConfigError.
    """
    size = cfg.sampling.k_ids * cfg.sampling.t_per_id
    batches = [tracklets[s:s + size] for s in range(0, len(tracklets), size)]
    if not batches:
        return np.empty((0, cfg.decoder.d), cfg.np_dtype())
    slots = [None] * len(batches)
    todo = iter(enumerate(batches))  # next() is atomic under the GIL
    failed = []

    def lane():
        try:
            for b, batch in todo:
                if failed:
                    return
                # the normed embeddings alone: no attention weights are kept
                slots[b] = eval_forward(model, cfg, batch)[1].data
        except BaseException:
            failed.append(True)
            raise

    if len(batches) == 1:
        lane()
    else:
        with tn.worker_job(lane) as job:
            lane()
        job.result()
    return np.concatenate(slots)


def embed_tracklet(model: Model, cfg: RunConfig, tracklet) -> np.ndarray:
    """The tracklet's fixed sample, embedded in eval mode."""
    return embed_tracklets(model, cfg, [tracklet])[0]


def evaluate_model(model: Model, cfg: RunConfig, corpus: Corpus):
    """Metric rows for the held-out split: each query ranked against the
    gallery, same-camera matches left out."""
    queries, galleries = corpus.query, corpus.gallery
    if not queries or not galleries:
        raise ValueError("corpus is missing an eval split")
    both = embed_tracklets(model, cfg, queries + galleries)
    q, g = both[:len(queries)], both[len(queries):]
    table = EvalTable(pairwise_distances(q, g),
                      [tr.identity for tr in queries],
                      [tr.camera for tr in queries],
                      [tr.identity for tr in galleries],
                      [tr.camera for tr in galleries])
    cmc, mean_ap, skipped = cmc_and_map(table)
    return metrics_rows(cmc, mean_ap, skipped)


# ---------------------------------------------------------------------------
# ablation

def _decoder(cfg: RunConfig, **change):
    return replace(cfg, decoder=replace(cfg.decoder, **change))


def _dense_source_sets(L: int):
    """The last block, the last two, and blocks 2..L, without repeats."""
    return sorted({(L,), (L - 1, L), tuple(range(2, L + 1))},
                  key=lambda v: (len(v), v))


# Each axis's (label, config) settings, in sweep order, built from the base
# config. ``variant`` sweeps the paper's decoders by the blocks they read.
ABLATIONS = {
    "fusion": lambda cfg: [(f, _decoder(cfg, fusion=f)) for f in FUSIONS],
    "variant": lambda cfg: [
        ("TransEnc", _decoder(cfg, dense_sources=())),
        ("TransDec", _decoder(cfg, dense_sources=(cfg.encoder.num_blocks,))),
        ("DenseIL", _decoder(cfg, dense_sources=None))],
    "dense_sources": lambda cfg: [
        ("+".join(map(str, s)), _decoder(cfg, dense_sources=s))
        for s in _dense_source_sets(cfg.encoder.num_blocks)],
    "R": lambda cfg: [(str(r), _decoder(cfg, R=r)) for r in (0, 1, 2)],
    "d": lambda cfg: [(str(d), _decoder(cfg, d=d)) for d in (32, 64, 128)],
    "P": lambda cfg: [(str(p), replace(cfg, partitions=p)) for p in (1, 2, 4)],
}
ABLATION_METRICS = ("mAP",) + tuple("R-%d" % rank for rank in RANKS)


def ablate(cfg: RunConfig, axis: str, corpus: Corpus, outdir=None, log=None):
    """Train/evaluate one run per ``ABLATIONS[axis]`` setting, same seed
    and corpus.

    Returns comparison rows (setting, *ABLATION_METRICS, decoder FLOPs);
    with an outdir, each run keeps its own artifacts in a subdirectory and
    the comparison lands in ablation_<axis>.csv.
    """
    if axis not in ABLATIONS:
        raise ValueError("unknown ablation axis %r, expected one of %s"
                         % (axis, ", ".join(ABLATIONS)))
    rows = []
    # every setting's config is checked before the first one trains
    for label, run_cfg in ABLATIONS[axis](cfg):
        sub = os.path.join(outdir, "%s_%s" % (axis, label)) if outdir else None
        if log:
            log("== %s = %s" % (axis, label))
        _, report = train_run(run_cfg, corpus, outdir=sub, log=log)
        rows.append((label,) + tuple(map(report.metric, ABLATION_METRICS))
                    + (report.flops["total"],))
    if outdir:
        path = os.path.join(outdir, "ablation_%s.csv" % axis)
        with replacing([path]) as (tmp,), open(tmp, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow((axis,) + ABLATION_METRICS + ("decoder_flops",))
            for label, *metrics, flops in rows:
                out.writerow([label] + [repr(float(v)) for v in metrics]
                             + [flops])
    return rows


# ---------------------------------------------------------------------------
# artifacts


def write_run_artifacts(outdir, model: Model, report: RunReport):
    """final.dil1 + report.csv + summary.json, into the ``outdir`` that
    ``train_run`` made. All three are written beside their names and
    renamed into place once each is whole, so a write that fails leaves
    the previous run's three files.

    Everything except the wall clock is a pure function of (config, seed).
    """
    paths = [os.path.join(outdir, name)
             for name in ("final.dil1", "report.csv", "summary.json")]
    summary = {name: value for name, value in report.metric_rows}
    summary["decoder_flops_per_forward"] = report.flops["total"]
    summary["flops_breakdown"] = report.flops
    summary["epochs"] = len(report.epoch_rows)
    summary["final_cross_entropy"] = report.epoch_rows[-1][1]
    summary["final_triplet"] = report.epoch_rows[-1][2]
    summary["wall_clock_seconds"] = report.wall_clock
    with replacing(paths) as (model_tmp, report_tmp, summary_tmp):
        save_model(model_tmp, model)
        with open(report_tmp, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(("epoch", "cross_entropy", "triplet", "lr"))
            for epoch, ce, tri, lr in report.epoch_rows:
                out.writerow((epoch, repr(ce), repr(tri), repr(lr)))
        with open(summary_tmp, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")


def dump_attention(model: Model, cfg: RunConfig, tracklet, path) -> int:
    """Write the interaction-attention weights of the tracklet's fixed
    sample as CSV, through ``replacing``; returns the row count.

    Key columns name the scale each weight looked at: Z^l for pooled
    encoder block l, H for the decoder's own hidden state. Frames and
    parts are 1-based, in ``token_index``'s frame-major order.
    """
    dense_attn = eval_forward(model, cfg, [tracklet])[2]
    idx = token_index(cfg.sampling.chunks, cfg.partitions)
    labels = ["Z^%d" % l for l in
              cfg.decoder.sources_for(cfg.encoder.num_blocks)] + ["H"]
    with replacing([path]) as (tmp,), open(tmp, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(("block", "head", "query_frame", "query_part",
                      "key_source", "key_frame", "key_part", "weight"))
        for b, weights in enumerate(dense_attn, start=1):
            for (h, qi, ki), w in np.ndenumerate(weights[0]):
                source, k = divmod(ki, len(idx))
                out.writerow((b, h + 1, *idx[qi], labels[source], *idx[k],
                              repr(float(w))))
    return sum(weights[0].size for weights in dense_attn)
