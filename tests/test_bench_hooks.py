"""The benchmark's tracer against the library it patches.

perfbench/tracing.py replaces library functions by name from outside the
library, so a refactor that renames or drops one of them breaks the
benchmark while every other test passes. This installs the tracer, records
one micro training step through the patched names, and checks the identity
behind the benchmark's ``flops.matmul_macs_unexplained``: every forward
matmul of a step is an adapter, the decoder stack, the classifier or the
triplet loss's Gram matrix, both directly and through perfbench/run.py's
``layer_summary``, which reads config keys of its own under ``--trace 1``.
It checks that the encoder's fused conv nodes are counted and charged to
the encoder's span, which the tracer times by name, and pins the graph
nodes of one step of each training workload.
A strict expected failure pins the tracer's ``conv2d`` patch, which
still passes the bias ``conv2d`` no longer takes.
It also loads each workload's config from perfbench/workloads.py, so
deleting a config key that a workload sets fails here too, and checks that
the digests the benchmark and the weight pins take read values, not the
kernels' memory layout.
"""

import os
import sys
from contextlib import ExitStack

import numpy as np
import pytest

from denseil import harness, imageops, optim, tensor as tn
from denseil.config import run_config_from_dict
from denseil.data import CHANNELS
from denseil.model import build_model
from denseil.rng import SAMPLER_STREAM, stream
from micro import micro_corpus, micro_run_config
from test_config import weights_sha256

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from tracing import Tracer, count_nodes  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402


def traced_step(cfg):
    """A Tracer that recorded one training step of a fresh model, the
    step's batch size and its loss."""
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
                          for tr in batch])
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
    return tracer, len(batch), loss


def test_traced_step_matmul_macs_match_flops():
    for decoder in ({}, {"dense_sources": [1, 2]}, {"dense_sources": [2]},
                    {"R": 0}):
        cfg = micro_run_config(decoder=decoder)
        tracer, b, _ = traced_step(cfg)
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
        # the one step as a one-round traced run, timings left at 1 s
        run = workloads.Run("train_desk", cfg.seed, True, tracer=tracer,
                            rounds=[workloads.Round(op_s=[1.0],
                                                    traced_op_s=[1.0],
                                                    ref_s=[1.0])],
                            cfg=cfg, clips_per_op=b)
        layers, _ = bench_run.layer_summary(run)
        assert layers["flops.matmul_macs_unexplained"] == 0, decoder


def test_traced_step_counts_the_fused_encoder_nodes():
    # each encoder conv, its batch norm and its ReLU are one graph node
    # made inside the encoder's span, so the encoder's forward and
    # backward are charged there
    cfg = micro_run_config()
    tracer, _, loss = traced_step(cfg)
    nodes, todo = {id(loss): loss}, [loss]
    while todo:
        for parent in todo.pop()._parents:
            if id(parent) not in nodes:
                nodes[id(parent)] = parent
                todo.append(parent)
    # the conv weights are the graph's only 4-D leaves that need a gradient
    encoder = [n for n in nodes.values()
               if any(p.data.ndim == 4 and p.requires_grad and not p._parents
                      for p in n._parents)]
    assert len(encoder) == 2 * len(cfg.encoder.channels)
    assert all(len(n._parents) == 4 for n in encoder)
    layers = tracer.layer_metrics(1)
    assert layers["tensor.nodes_per_step"] == len(nodes)
    assert layers["encoder.fwd_ms"] > 0 and layers["encoder.bwd_ms"] > 0


def test_a_desk_step_builds_a_pinned_number_of_graph_nodes():
    # the graph of one step of each training workload, walked as the
    # tracer counts it; the count depends on the config, not the pixels
    for encoder_only, want in ((False, 162), (True, 73)):
        cfg = run_config_from_dict(workloads.training_config(101,
                                                             encoder_only))
        s, data = cfg.sampling, cfg.data
        clips = np.random.default_rng(0).normal(size=(
            s.k_ids * s.t_per_id, s.chunks, CHANNELS, data.height,
            data.width)).astype(cfg.np_dtype())
        labels = np.repeat(np.arange(s.k_ids), s.t_per_id)
        logits, embeddings, _ = harness.forward_batch(build_model(cfg), clips,
                                                      training=True)
        loss, _, _ = harness.total_loss(
            logits, embeddings, labels, triplet_weight=cfg.loss.triplet_weight)
        assert count_nodes(loss) == want, encoder_only


@pytest.mark.xfail(raises=TypeError, strict=True,
                   reason="traced_conv passes conv2d a bias it no longer takes")
def test_traced_conv2d_runs_under_the_tracer():
    # no workload calls conv2d while tracing; this pins the tracer's
    # conv2d patch until it is pointed at conv_bn_relu
    with ExitStack() as stack:
        Tracer().install(stack)
        out = imageops.conv2d(tn.Tensor(np.ones((1, 4, 4, 2))),
                              tn.Tensor(np.ones((3, 2, 3, 3))))
    assert out.shape == (1, 4, 4, 3)


def test_workload_configs_load():
    """A config key that a benchmark workload sets must still exist."""
    for seed in (0, 101):
        for encoder_only in (False, True):
            cfg = run_config_from_dict(
                workloads.training_config(seed, encoder_only))
            assert cfg.decoder.R == (0 if encoder_only else 2)
        assert run_config_from_dict(workloads.retrieval_config(seed)).seed \
            == seed


def test_digests_do_not_see_the_kernel_layout():
    # the model lays its kernels out for the conv GEMM; a C-contiguous copy
    # of each holds the same values, so unchanged digests mean unchanged
    # values whichever layout the kernels have
    cfg = run_config_from_dict(workloads.training_config(101, False))
    model = build_model(cfg)
    digests = (workloads._param_digest(model.params), weights_sha256(model))
    kernels = [p for p in model.params.values() if p.data.ndim == 4]
    assert kernels and not any(p.data.flags.c_contiguous for p in kernels)
    for p in kernels:
        p.data = np.ascontiguousarray(p.data)
    assert (workloads._param_digest(model.params),
            weights_sha256(model)) == digests
