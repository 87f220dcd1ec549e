"""Training loop, evaluation pipeline, ablation runner, run reports."""

import csv
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import tensor as tn
from .config import ConfigError, RunConfig, write_run_config
from .data import CHANNELS, Corpus, pk_batches, restricted_sample
from .decoder import FUSIONS
from .flops import estimate_decoder_flops
from .losses import total_loss
from .metrics import EvalTable, cmc_and_map, metrics_rows, pairwise_distances
from .model import Model, build_model, forward_batch, save_model
from .optim import Adam, lr_at
from .rng import EVAL_STREAM, SAMPLER_STREAM, stream

TRACKLET_STRIDE = 1024  # eval stream ids: identity * stride + tracklet_id


class TrainingDiverged(ArithmeticError):
    """Loss left the reals; carries where."""


@dataclass
class RunReport:
    epoch_rows: list    # (epoch, cross_entropy, triplet, lr)
    metric_rows: list   # (name, value)
    flops: dict
    wall_clock: float

    def metric(self, name):
        for key, value in self.metric_rows:
            if key == name:
                return value
        raise KeyError(name)


def decoder_flops(cfg: RunConfig) -> dict:
    return estimate_decoder_flops(cfg.decoder, cfg.sampling.chunks,
                                  cfg.partitions, cfg.encoder.channels)


def _check_frame_shape(cfg: RunConfig, tracklets):
    """Reject tracklets whose (C, H, W) frames differ from ``cfg.data``."""
    want = (CHANNELS, cfg.data.height, cfg.data.width)
    for tr in tracklets:
        if tr.frames.shape[1:] != want:
            raise ConfigError("corpus frames are %s (C, H, W), config "
                              "data says %s" % (tr.frames.shape[1:], want))


def train_run(cfg: RunConfig, corpus: Corpus, outdir=None, log=None):
    """Train a fresh model on the corpus; returns (model, RunReport).

    Each step: sample a K-identity batch, draw one frame per chunk from
    every tracklet, run the full stack, apply identity plus hard-mined
    ranking losses, step Adam. A non-finite loss aborts the run.
    """
    t0 = time.perf_counter()
    for split, tracklets in corpus.splits():
        if not tracklets:
            raise ValueError("corpus has no %s split" % split)
    _check_frame_shape(cfg, corpus.train + corpus.query + corpus.gallery)
    model = build_model(cfg)
    opt = Adam(model.params)
    sampler = stream(cfg.seed, SAMPLER_STREAM)
    dtype = cfg.np_dtype()
    epoch_rows = []
    step = 0
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg.optimizer.lr, cfg.optimizer.decay_interval)
        ce_sum = tri_sum = 0.0
        batches = 0
        for batch in pk_batches(corpus.train, cfg.sampling.k_ids,
                                cfg.sampling.t_per_id, sampler):
            clips = np.stack([restricted_sample(tr, cfg.sampling.chunks,
                                                sampler)
                              for tr in batch]).astype(dtype)
            labels = np.array([tr.identity for tr in batch])
            try:
                logits, embeddings, _ = forward_batch(model, clips,
                                                      training=True)
                loss, ce, tri = total_loss(
                    logits, embeddings, labels,
                    triplet_weight=cfg.loss.triplet_weight)
                opt.zero_grad()
                tn.backward(loss)
                opt.step(lr)
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

    # The last step's graph would otherwise live through evaluation. It is
    # kept across steps on purpose: freeing it each step lets the allocator
    # trim the heap, and the next step pays to fault it back in.
    del logits, embeddings, loss, ce, tri
    metric_rows = evaluate_model(model, cfg, corpus)
    report = RunReport(epoch_rows, metric_rows, decoder_flops(cfg),
                       time.perf_counter() - t0)
    if outdir:
        write_run_artifacts(outdir, cfg, model, report)
    return model, report


def eval_clip(cfg: RunConfig, tracklet) -> np.ndarray:
    """The tracklet's one fixed restricted sample, as a [1, I, C, H, W]
    batch in the run dtype: what evaluation embeds it from."""
    rng = stream(cfg.seed, EVAL_STREAM
                 + tracklet.identity * TRACKLET_STRIDE + tracklet.tracklet_id)
    clip = restricted_sample(tracklet, cfg.sampling.chunks, rng)
    return clip[None].astype(cfg.np_dtype())


def embed_tracklets(model: Model, cfg: RunConfig, tracklets) -> np.ndarray:
    """The tracklets' fixed samples, embedded in eval mode: [N, d].

    One forward pass per training batch of clips, so evaluation holds about
    one training batch of activations. Eval batch norm uses running
    statistics, so a row does not depend on its batch-mates beyond float
    rounding. Only each batch's embeddings are kept: its graph goes before
    the next batch is built.
    """
    size = cfg.sampling.k_ids * cfg.sampling.t_per_id
    rows = []
    for start in range(0, len(tracklets), size):
        clips = np.concatenate([eval_clip(cfg, tr)
                                for tr in tracklets[start:start + size]])
        rows.append(forward_batch(model, clips, training=False)[1].data)
    return np.concatenate(rows)


def embed_tracklet(model: Model, cfg: RunConfig, tracklet) -> np.ndarray:
    """The tracklet's fixed sample, embedded in eval mode."""
    return embed_tracklets(model, cfg, [tracklet])[0]


def evaluate_model(model: Model, cfg: RunConfig, corpus: Corpus,
                   self_match: bool = False):
    """Metric rows for the held-out split.

    ``self_match=True`` is the labeled sanity mode: the gallery is the query
    set itself and camera filtering is off, so R-1 must be 1.0.
    """
    queries = corpus.query
    galleries = queries if self_match else corpus.gallery
    if not queries or not galleries:
        raise ValueError("corpus is missing an eval split")
    _check_frame_shape(cfg, queries + galleries)
    if self_match:
        q = g = embed_tracklets(model, cfg, queries)
    else:
        both = embed_tracklets(model, cfg, queries + galleries)
        q, g = both[:len(queries)], both[len(queries):]
    table = EvalTable(pairwise_distances(q, g),
                      [tr.identity for tr in queries],
                      [tr.camera for tr in queries],
                      [tr.identity for tr in galleries],
                      [tr.camera for tr in galleries])
    cmc, mean_ap, skipped = cmc_and_map(table, max_rank=20,
                                        cross_camera=not self_match)
    return metrics_rows(cmc, mean_ap, skipped)


# ---------------------------------------------------------------------------
# ablation

ABLATION_AXES = ("fusion", "variant", "dense_sources", "R", "d", "P")


def _axis_values(axis: str, cfg: RunConfig):
    L = cfg.encoder.num_blocks
    if axis == "fusion":
        return list(FUSIONS)
    if axis == "variant":
        return ["TransEnc", "TransDec", "DenseIL"]
    if axis == "dense_sources":
        values = [(L,), (L - 1, L), tuple(range(2, L + 1))]
        return sorted(set(values), key=lambda v: (len(v), v))
    if axis == "R":
        return [0, 1, 2]
    if axis == "d":
        return [32, 64, 128]
    if axis == "P":
        return [1, 2, 4]
    raise ValueError("unknown ablation axis %r, expected one of %s"
                     % (axis, ", ".join(ABLATION_AXES)))


def _with_setting(cfg: RunConfig, axis: str, value):
    if axis == "P":
        return replace(cfg, partitions=value)
    change = {axis: value}
    if axis == "variant":  # the paper's decoders, by the blocks they read
        change = {"dense_sources": {
            "TransEnc": (), "TransDec": (cfg.encoder.num_blocks,),
            "DenseIL": None}[value]}
    return replace(cfg, decoder=replace(cfg.decoder, **change))


def _value_label(value):
    if isinstance(value, tuple):
        return "+".join(str(v) for v in value)
    return str(value)


def ablate(cfg: RunConfig, axis: str, corpus: Corpus, outdir=None, log=None):
    """Train/evaluate one run per axis value, same seed and corpus.

    Returns comparison rows (setting, mAP, R-1, R-5, R-10, R-20, decoder
    FLOPs); with an outdir, each run keeps its own artifacts in a
    subdirectory and the comparison lands in ablation_<axis>.csv.
    """
    # every setting's config is checked before the first one trains
    settings = [(_value_label(value), _with_setting(cfg, axis, value))
                for value in _axis_values(axis, cfg)]
    rows = []
    for label, run_cfg in settings:
        sub = None
        if outdir:
            sub = os.path.join(outdir, "%s_%s" % (axis, label))
            os.makedirs(sub, exist_ok=True)
        if log:
            log("== %s = %s" % (axis, label))
        _, report = train_run(run_cfg, corpus, outdir=sub, log=log)
        rows.append((label,
                     report.metric("mAP"), report.metric("R-1"),
                     report.metric("R-5"), report.metric("R-10"),
                     report.metric("R-20"), report.flops["total"]))
    if outdir:
        path = os.path.join(outdir, "ablation_%s.csv" % axis)
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow((axis, "mAP", "R-1", "R-5", "R-10", "R-20",
                          "decoder_flops"))
            for row in rows:
                out.writerow((row[0],) + tuple(repr(float(v))
                                               for v in row[1:6])
                             + (row[6],))
    return rows


# ---------------------------------------------------------------------------
# artifacts


def write_run_artifacts(outdir, cfg: RunConfig, model: Model,
                        report: RunReport):
    """config.json + final.dil1 + report.csv + summary.json.

    Everything except the wall clock is a pure function of (config, seed).
    """
    os.makedirs(outdir, exist_ok=True)
    write_run_config(cfg, os.path.join(outdir, "config.json"))
    save_model(os.path.join(outdir, "final.dil1"), model)
    with open(os.path.join(outdir, "report.csv"), "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(("epoch", "cross_entropy", "triplet", "lr"))
        for epoch, ce, tri, lr in report.epoch_rows:
            out.writerow((epoch, repr(ce), repr(tri), repr(lr)))
    summary = {name: value for name, value in report.metric_rows}
    summary["decoder_flops_per_forward"] = report.flops["total"]
    summary["flops_breakdown"] = report.flops
    summary["epochs"] = len(report.epoch_rows)
    summary["final_cross_entropy"] = report.epoch_rows[-1][1]
    summary["final_triplet"] = report.epoch_rows[-1][2]
    summary["wall_clock_seconds"] = report.wall_clock
    with open(os.path.join(outdir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
