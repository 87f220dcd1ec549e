"""The benchmark's tracer against the library it patches.

perfbench/tracing.py replaces library functions by name from outside the
library, so a refactor that renames or drops one of them breaks the
benchmark while every other test passes. This installs the tracer, records
one micro training step through the patched names, and checks the identity
behind the benchmark's ``flops.matmul_macs_unexplained``: every forward
matmul of a step is an adapter, the decoder stack, the classifier or the
triplet loss's Gram matrix. It also loads each workload's config from
perfbench/workloads.py, so deleting a config key that a workload sets
fails here too.
"""

import os
import sys
from contextlib import ExitStack

import numpy as np

from denseil import harness, optim, tensor as tn
from denseil.config import run_config_from_dict
from denseil.model import build_model
from denseil.rng import SAMPLER_STREAM, stream
from micro import micro_corpus, micro_run_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from tracing import Tracer  # noqa: E402
import workloads  # noqa: E402


def traced_step(cfg):
    """A Tracer that recorded one training step of a fresh model, and the
    step's batch size."""
    corpus = micro_corpus()
    model = build_model(cfg)
    opt = optim.Adam(model.params)
    tracer = Tracer()
    with ExitStack() as stack:
        tracer.install(stack)
        tracer.start()
        sampler = stream(cfg.seed, SAMPLER_STREAM)
        batch = next(harness.pk_batches(corpus.train, cfg.sampling.k_ids,
                                        cfg.sampling.t_per_id, sampler))
        clips = np.stack([harness.restricted_sample(tr, cfg.sampling.chunks,
                                                    sampler)
                          for tr in batch]).astype(cfg.np_dtype())
        labels = np.array([tr.identity for tr in batch])
        logits, embeddings, _ = harness.forward_batch(model, clips,
                                                      training=True)
        loss, _, _ = harness.total_loss(
            logits, embeddings, labels, triplet_weight=cfg.loss.triplet_weight)
        opt.zero_grad()
        tn.backward(loss)
        opt.step(cfg.optimizer.lr)
        tracer.stop()
        harness.embed_tracklet(model, cfg, corpus.query[0])  # patched too
    return tracer, len(batch)


def test_traced_step_matmul_macs_match_flops():
    for decoder in ({}, {"dense_sources": [1, 2]}, {"dense_sources": [2]},
                    {"R": 0}):
        cfg = micro_run_config(decoder=decoder)
        tracer, b = traced_step(cfg)
        est = harness.decoder_flops(cfg)
        d, ids = cfg.decoder.d, cfg.data.num_identities
        expected = b * (est["total"] + est["adapters"]) + b * d * ids + b * d * b
        assert tracer.counts["matmul_macs"] == expected, decoder
        for span in ("model.forward_batch", "encoder.encode_clip",
                     "partition.stack_partitions", "decoder.decoder_forward",
                     "decoder.classify_head", "losses.total_loss",
                     "optim.adam", "tensor.backward"):
            assert tracer.calls[span] == 1, (decoder, span)
        assert tracer.layer_metrics(1)["tensor.nodes_per_step"] > 0


def test_workload_configs_load():
    """A config key that a benchmark workload sets must still exist."""
    for seed in (0, 101):
        for encoder_only in (False, True):
            cfg = run_config_from_dict(
                workloads.training_config(seed, encoder_only))
            assert cfg.decoder.R == (0 if encoder_only else 2)
        assert run_config_from_dict(workloads.retrieval_config(seed)).seed \
            == seed
