import functools
import gc
import json
import os
import re
import sys
import threading
import time
import weakref
from concurrent.futures import wait
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from denseil import harness, imageops, optim
from denseil import model as model_module
from denseil import tensor as tn
from denseil.checkpoint import load_checkpoint
from denseil.config import ConfigError
from denseil.harness import (ABLATIONS, TrainingDiverged, ablate,
                             embed_tracklet, embed_tracklets, evaluate_model,
                             train_run)
from denseil.imageops import RunningStatsError
from denseil.metrics import (EvalTable, cmc_and_map, metrics_rows,
                             pairwise_distances)
from denseil.model import build_model, forward_batch
from micro import micro_corpus, micro_run_config


def test_zero_lr_leaves_params_at_init():
    cfg = micro_run_config(optimizer={"lr": 0.0})
    model, report = train_run(cfg, micro_corpus())
    fresh = build_model(cfg)
    for name, param in fresh.params.items():
        assert np.array_equal(model.params[name].data, param.data)
    assert len(report.epoch_rows) == cfg.epochs
    # the run still trained batch-norm statistics
    assert model.states["head.bn"].num_batches > 0


def test_single_identity_ce_only_is_trivially_memorized():
    cfg = micro_run_config(
        data={"num_identities": 1},
        sampling={"k_ids": 1},
        loss={"triplet_weight": 0.0})
    corpus = micro_corpus(data={"num_identities": 1})
    _, report = train_run(cfg, corpus)
    for _, ce, tri, _ in report.epoch_rows:
        assert ce == 0.0  # one class: the classifier cannot be wrong
        assert tri == 0.0
    assert report.metric("R-1") == 1.0


def test_ce_only_two_identities_improves():
    cfg = micro_run_config(
        epochs=8,
        data={"num_identities": 2},
        sampling={"k_ids": 2},
        loss={"triplet_weight": 0.0},
        optimizer={"lr": 3e-3})
    _, report = train_run(cfg, micro_corpus(data={"num_identities": 2}))
    assert report.epoch_rows[-1][1] < report.epoch_rows[0][1]


def test_fixed_seed_runs_are_identical(tmp_path):
    cfg = micro_run_config()
    corpus = micro_corpus()
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    _, rep1 = train_run(cfg, corpus, outdir=out1)
    _, rep2 = train_run(cfg, corpus, outdir=out2)
    assert rep1.epoch_rows == rep2.epoch_rows
    assert rep1.metric_rows == rep2.metric_rows
    assert (out1 / "final.dil1").read_bytes() == \
        (out2 / "final.dil1").read_bytes()
    assert (out1 / "report.csv").read_bytes() == \
        (out2 / "report.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("wall_clock_seconds")
    s2.pop("wall_clock_seconds")
    assert s1 == s2
    assert (out1 / "config.json").read_bytes() == \
        (out2 / "config.json").read_bytes()


def test_divergence_aborts_with_location():
    cfg = micro_run_config(optimizer={"lr": 1e30})
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch 0"):
            train_run(cfg, micro_corpus())


def test_eval_before_training_rejected():
    cfg = micro_run_config()
    with pytest.raises(RunningStatsError):
        evaluate_model(build_model(cfg), cfg, micro_corpus())


def test_corpus_frame_shape_must_match_config():
    cfg = micro_run_config(data={"height": 32})  # the corpus is 16 px tall
    with pytest.raises(ConfigError, match=r"\(3, 16, 8\).*\(3, 32, 8\)"):
        train_run(cfg, micro_corpus())
    with pytest.raises(ConfigError, match=r"\(3, 16, 8\).*\(3, 32, 8\)"):
        evaluate_model(build_model(cfg), cfg, micro_corpus())


def test_a_query_with_frames_of_another_shape_raises_naming_both():
    cfg, model = _trained_on_odd_split("float32")  # 16 x 8 frames
    query = micro_corpus(data={"height": 32, "width": 16}).query[0]
    with pytest.raises(ConfigError, match=r"\(3, 32, 16\).*\(3, 16, 8\)"):
        embed_tracklet(model, cfg, query)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_embedding_no_tracklets_gives_an_empty_table_and_starts_no_job(
        monkeypatch, dtype):
    cfg, model = _trained_on_odd_split(dtype)
    spy = _spy_on_worker(monkeypatch)
    empty = embed_tracklets(model, cfg, [])
    assert empty.shape == (0, cfg.decoder.d)
    assert empty.dtype == cfg.np_dtype()
    assert spy.calls == 0


def test_metric_rows_structure():
    cfg = micro_run_config(epochs=1)
    _, report = train_run(cfg, micro_corpus())
    names = [name for name, _ in report.metric_rows]
    assert names == ["mAP", "R-1", "R-5", "R-10", "R-20", "skipped_queries"]
    assert report.metric("skipped_queries") == 0
    assert 0.0 <= report.metric("mAP") <= 1.0


def test_embed_tracklet_uses_a_fixed_sample():
    cfg = micro_run_config(epochs=1)
    model, _ = train_run(cfg, micro_corpus())
    tr = micro_corpus().query[0]
    a = embed_tracklet(model, cfg, tr)
    b = embed_tracklet(model, cfg, tr)
    assert np.array_equal(a, b)


# 5 queries and 5 galleries: neither 5 nor 10 is a multiple of the eval
# batch (k_ids * t_per_id = 4), so every split ends in a short batch
ODD_DATA = {"num_identities": 5}


@functools.lru_cache(maxsize=2)
def _trained_on_odd_split(dtype):
    cfg = micro_run_config(epochs=1, dtype=dtype, data=ODD_DATA)
    model, _ = train_run(cfg, micro_corpus(data=ODD_DATA))
    return cfg, model


# numpy's Python-level wrappers that a query's ops replace with ufuncs,
# ``ufunc.reduce`` and ndarray methods: (file, function)
NUMPY_WRAPPERS = {("fromnumeric.py", name)
                  for name in ("all", "prod", "transpose", "swapaxes", "cumsum")} | {
    ("_methods.py", "_mean"), ("_methods.py", "_all"),
    ("_shape_base_impl.py", "tile"), ("_stride_tricks_impl.py", "as_strided")}


def test_a_query_runs_no_numpy_python_wrappers():
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    gallery = embed_tracklets(model, cfg, corpus.gallery)
    tr = corpus.query[0]
    seen = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call":
            key = (os.path.basename(code.co_filename), code.co_name)
            if key in NUMPY_WRAPPERS and "numpy" in code.co_filename:
                seen.append(key)

    sys.setprofile(profile)
    try:
        emb = embed_tracklet(model, cfg, tr)
        table = EvalTable(pairwise_distances(emb[None], gallery), [tr.identity],
                          [tr.camera], [g.identity for g in corpus.gallery],
                          [g.camera for g in corpus.gallery])
        cmc_and_map(table)
    finally:
        sys.setprofile(None)
    assert seen == []


def test_a_query_scans_every_tensor_conv_output_and_attention_score(
        monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    tr = micro_corpus(data=ODD_DATA).query[0]
    calls = {"scan": 0, "tensor": 0, "conv": 0, "attention": 0}

    def counting(key, fn):
        def call(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(tn, "_all_finite", counting("scan", tn._all_finite))
    monkeypatch.setattr(tn.Tensor, "__init__",
                        counting("tensor", tn.Tensor.__init__))
    monkeypatch.setattr(imageops, "conv_bn_relu",
                        counting("conv", imageops.conv_bn_relu))
    monkeypatch.setattr(tn, "attention", counting("attention", tn.attention))
    embed_tracklet(model, cfg, tr)
    # two encoder blocks of two convs, one self- and one interaction attention
    assert (calls["conv"], calls["attention"]) == (4, 2)
    assert calls["scan"] == calls["tensor"] + calls["conv"] + calls["attention"]


class _SubmitSpy:
    """Stands in for the package's worker and counts what it is given."""

    def __init__(self, pool):
        self.pool = pool
        self.jobs = []

    @property
    def calls(self):
        return len(self.jobs)

    def submit(self, *args):
        self.jobs.append(self.pool.submit(*args))
        return self.jobs[-1]


def _spy_on_worker(monkeypatch):
    spy = _SubmitSpy(tn._worker())
    monkeypatch.setattr(tn, "_worker", lambda: spy)
    return spy


def test_every_worker_job_has_finished_when_adam_step_returns(monkeypatch):
    # a benchmark that ends a training step when Adam.step returns times
    # all of the step's work only while no job outlives the step
    spy = _spy_on_worker(monkeypatch)
    step = optim.Adam.step
    seen = []  # per step: (jobs submitted so far, all of them finished)

    def checked_step(self, lr):
        step(self, lr)
        seen.append((spy.calls, all(job.done() for job in spy.jobs)))

    monkeypatch.setattr(optim.Adam, "step", checked_step)
    cfg = micro_run_config(epochs=1)
    train_run(cfg, micro_corpus())
    assert seen and seen[0][0] > 0  # conv backwards submit jobs each step
    assert all(done for _, done in seen)


def test_the_worker_gets_one_job_per_eval_of_two_or_more_batches(
        monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    spy = _spy_on_worker(monkeypatch)
    embed_tracklet(model, cfg, corpus.query[0])
    assert spy.calls == 0
    embed_tracklets(model, cfg, corpus.query[:4])  # exactly one batch
    assert spy.calls == 0
    embed_tracklets(model, cfg, corpus.query)  # batches of 4 and 1
    assert spy.calls == 1
    evaluate_model(model, cfg, corpus)  # 10 tracklets in batches of 4
    assert spy.calls == 2
    embed_tracklets(model, cfg, ((corpus.query + corpus.gallery) * 2)[:16])
    assert spy.calls == 3  # four batches, one job
    # a training step's conv backwards hand it one job per conv
    clips = np.stack([tr.frames[:cfg.sampling.chunks]
                      for tr in corpus.train[:2]])
    logits, _, _ = forward_batch(build_model(cfg), clips, training=True)
    tn.backward(tn.sum_all(logits))
    assert spy.calls == 3 + 2 * len(cfg.encoder.channels)


@pytest.mark.parametrize("dtype, tol", [("float64", 1e-12),
                                        ("float32", 1e-6)])
def test_batched_embeddings_match_one_at_a_time(dtype, tol):
    cfg, model = _trained_on_odd_split(dtype)
    corpus = micro_corpus(data=ODD_DATA)
    tracklets = corpus.query + corpus.gallery
    batched = embed_tracklets(model, cfg, tracklets)
    single = np.stack([embed_tracklet(model, cfg, tr) for tr in tracklets])
    assert batched.shape == single.shape == (10, cfg.decoder.d)
    assert batched.dtype == single.dtype == cfg.np_dtype()
    if dtype == "float64":
        np.testing.assert_allclose(batched, single, rtol=0, atol=tol)
    else:
        rel = (np.linalg.norm(batched - single, axis=1)
               / np.linalg.norm(single, axis=1))
        assert rel.max() <= tol


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_evaluate_model_rows_match_per_tracklet_embeddings(dtype):
    cfg, model = _trained_on_odd_split(dtype)
    corpus = micro_corpus(data=ODD_DATA)
    queries, galleries = corpus.query, corpus.gallery
    q = np.stack([embed_tracklet(model, cfg, tr) for tr in queries])
    g = np.stack([embed_tracklet(model, cfg, tr) for tr in galleries])
    table = EvalTable(pairwise_distances(q, g),
                      [tr.identity for tr in queries],
                      [tr.camera for tr in queries],
                      [tr.identity for tr in galleries],
                      [tr.camera for tr in galleries])
    expected = metrics_rows(*cmc_and_map(table, max_rank=20))
    assert evaluate_model(model, cfg, corpus) == expected


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_embed_tracklets_matches_a_graph_building_forward_byte_for_byte(
        dtype):
    cfg, model = _trained_on_odd_split(dtype)
    corpus = micro_corpus(data=ODD_DATA)
    tracklets = corpus.query + corpus.gallery
    size = cfg.sampling.k_ids * cfg.sampling.t_per_id
    rows = []
    for start in range(0, len(tracklets), size):
        clips = np.concatenate([harness.eval_clip(cfg, tr)
                                for tr in tracklets[start:start + size]])
        _, normed, _ = forward_batch(model, clips, training=False)
        assert normed._parents and normed.requires_grad  # a graph was built
        rows.append(normed.data)
    assert embed_tracklets(model, cfg, tracklets).tobytes() \
        == np.concatenate(rows).tobytes()


def test_clips_reach_forward_batch_in_the_corpus_dtype(monkeypatch):
    # forward_batch's layout copy casts them: no caller casts a clip first
    cfg = micro_run_config(epochs=1, dtype="float64")
    corpus = micro_corpus()
    seen = []
    forward = harness.forward_batch

    def spy(model, clips, training):
        seen.append((training, clips.dtype))
        return forward(model, clips, training)

    monkeypatch.setattr(harness, "forward_batch", spy)
    model, _ = train_run(cfg, corpus)
    harness.eval_forward(model, cfg, corpus.query[:2])
    corpus_dtype = corpus.train[0].frames.dtype
    assert corpus_dtype == np.float32 != cfg.np_dtype()
    assert {training for training, _ in seen} == {True, False}
    assert all(dtype == corpus_dtype for _, dtype in seen)


def test_embed_tracklets_builds_no_graph(monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    pooled, outputs = [], []
    stack_partitions = model_module.stack_partitions

    def keeping_partitions(pyramid, *args):
        pooled.append(pyramid)
        return stack_partitions(pyramid, *args)

    def keeping_forward(*args, **kwargs):
        outputs.append(forward_batch(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(model_module, "stack_partitions", keeping_partitions)
    monkeypatch.setattr(harness, "forward_batch", keeping_forward)
    embed_tracklets(model, cfg, corpus.query + corpus.gallery)
    assert len(pooled) == len(outputs) == 3  # batches of 4
    L = len(cfg.encoder.channels)
    assert all(len(pyramid) == L for pyramid in pooled)
    # the interaction weights are plain arrays, outside any graph
    nodes = [node for pyramid in pooled for node in pyramid]
    nodes += [node for out in outputs for node in out[:2]]  # logits, normed
    assert len(nodes) == 3 * (L + 2)
    for node in nodes:
        assert node._parents == () and node._backward is None
        assert not node.requires_grad


def _on_worker():
    return threading.current_thread().name.startswith("denseil-worker")


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_each_eval_batch_runs_once_on_one_of_the_two_lanes(monkeypatch,
                                                            dtype):
    # the desk encoder's four blocks, on small frames
    cfg = micro_run_config(dtype=dtype, data=ODD_DATA,
                           encoder={"channels": [16, 32, 64, 128]})
    corpus = micro_corpus(data=ODD_DATA)
    model = build_model(cfg)
    clips = np.stack([tr.frames[:cfg.sampling.chunks]
                      for tr in corpus.train[:4]]).astype(cfg.np_dtype())
    forward_batch(model, clips, training=True)  # batch-norm statistics
    L = len(cfg.encoder.channels)
    block_of = {id(model.params["encoder.block%d.conv%d.w" % (l, k)]): l
                for l in range(1, L + 1) for k in (1, 2)}
    conv_bn_relu = imageops.conv_bn_relu
    convs, forwards, batches = [], [], []

    def recording_conv(x, w, *args, **kwargs):
        convs.append((block_of[id(w)], _on_worker()))
        return conv_bn_relu(x, w, *args, **kwargs)

    def recording_forward(mdl, clips, training):
        batch = [i for i, c in enumerate(batches) if np.array_equal(c, clips)]
        forwards.append((batch, _on_worker()))
        return forward_batch(mdl, clips, training)

    monkeypatch.setattr(imageops, "conv_bn_relu", recording_conv)
    monkeypatch.setattr(harness, "forward_batch", recording_forward)
    # 1 to 5 batches of 4, short last batches among them; no two alike
    for count in (3, 8, 10, 16, 18):
        tracklets = ((corpus.query + corpus.gallery) * 2)[:count]
        batches[:] = [np.concatenate([harness.eval_clip(cfg, tr)
                                      for tr in tracklets[i:i + 4]])
                      for i in range(0, count, 4)]
        serial = [forward_batch(model, b, training=False)[1].data
                  for b in batches]
        del convs[:], forwards[:]
        embedded = embed_tracklets(model, cfg, tracklets)
        assert sorted(b for b, _ in forwards) \
            == [[i] for i in range(len(batches))]
        if len(batches) == 1:
            assert forwards == [([0], False)]  # on the caller
        # each batch's convs, every block's two, ran on its batch's thread
        for worker in (False, True):
            ran = sum(on == worker for _, on in forwards)
            assert sorted(b for b, on in convs if on == worker) \
                == sorted(list(range(1, L + 1)) * 2 * ran)
        assert embedded.tobytes() == np.concatenate(serial).tobytes()


def test_the_lanes_claim_every_batch_once_under_a_short_switch_interval(
        monkeypatch):
    # batches that cost next to nothing, so that the two lanes claim their
    # next batch at nearly the same moments, thousands of times
    cfg = micro_run_config()
    frames = np.zeros((cfg.sampling.chunks, 3, cfg.data.height,
                       cfg.data.width))
    tracklets = [SimpleNamespace(frames=frames, index=i) for i in range(4000)]
    monkeypatch.setattr(harness, "eval_clip",
                        lambda cfg, tr: np.array([[tr.index]], float))
    monkeypatch.setattr(harness, "forward_batch",
                        lambda model, clips, training:
                        (None, SimpleNamespace(data=clips)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            embedded = embed_tracklets(None, cfg, tracklets)
            assert embedded.ravel().tolist() == list(range(4000))
    finally:
        sys.setswitchinterval(interval)


def test_an_overflow_in_a_batchs_decoder_stage_raises_from_embed_tracklets(
        monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    spy = _spy_on_worker(monkeypatch)
    caller_in = threading.Event()
    calls = []
    stack_partitions = model_module.stack_partitions

    def flooded(pyramid, partitions, weights):
        calls.append(len(pyramid[0].data) // cfg.sampling.chunks)  # clips
        if _on_worker():
            # the worker's first batch overflows once the caller is in its
            # own first batch
            assert caller_in.wait(10.0)
            pyramid = [tn.Tensor(p.data * np.float32(3e38)) for p in pyramid]
        else:
            # the caller's batch ends after the worker's lane has failed
            caller_in.set()
            assert wait(spy.jobs, timeout=10.0).done
        return stack_partitions(pyramid, partitions, weights)

    monkeypatch.setattr(model_module, "stack_partitions", flooded)
    # the worker's lane runs under the caller's errstate
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            embed_tracklets(model, cfg, corpus.query + corpus.gallery)
    assert calls == [4, 4]  # the short third batch never starts
    assert not tn._no_grad.get()


def test_a_failing_worker_lane_stops_the_caller_before_its_next_batch(
        monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    spy = _spy_on_worker(monkeypatch)
    third = threading.Event()
    lanes = []
    encode_clip = model_module.encode_clip

    def encoder(*args, **kwargs):
        lanes.append(_on_worker())
        if _on_worker():
            # the worker fails in its first batch, while the caller is in
            # its third
            assert third.wait(10.0)
            raise RuntimeError("worker lane failed")
        if lanes.count(False) == 3:
            third.set()
            assert wait(spy.jobs, timeout=10.0).done
        return encode_clip(*args, **kwargs)

    monkeypatch.setattr(model_module, "encode_clip", encoder)
    tracklets = ((corpus.query + corpus.gallery) * 2)[:18]  # five batches
    with pytest.raises(RuntimeError, match="worker lane failed"):
        embed_tracklets(model, cfg, tracklets)
    assert sorted(lanes) == [False] * 3 + [True]  # the fifth never starts
    assert not tn._no_grad.get()


def test_an_error_in_the_encoder_stage_joins_the_running_job_first(
        monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    worker_in = threading.Event()
    failing = threading.Event()
    job = {}
    encode_clip = model_module.encode_clip
    decoder_forward = model_module.decoder_forward

    def encoder(*args, **kwargs):
        if _on_worker():
            worker_in.set()
            return encode_clip(*args, **kwargs)
        # the caller fails in its first batch, once the worker is in its own
        assert worker_in.wait(10.0)
        failing.set()
        raise RuntimeError("encoder failed")

    def slow_decoder(*args, **kwargs):
        # the worker's batch outlives the caller's failure
        assert failing.wait(10.0)
        time.sleep(0.2)
        job["no_grad"] = tn._no_grad.get()
        out = decoder_forward(*args, **kwargs)
        job["done"] = True
        return out

    monkeypatch.setattr(model_module, "encode_clip", encoder)
    monkeypatch.setattr(model_module, "decoder_forward", slow_decoder)
    with pytest.raises(RuntimeError, match="encoder failed"):
        embed_tracklets(model, cfg, corpus.query + corpus.gallery)
    assert job.get("done")  # joined before the error left embed_tracklets
    assert job["no_grad"] is True  # the job ran under the caller's no_grad
    assert not tn._no_grad.get()


def test_a_pipelined_embed_counts_the_serial_matmuls():
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    tracklets = corpus.query + corpus.gallery
    with tn.count_matmuls() as serial, tn.no_grad():
        for start in range(0, len(tracklets), 4):
            clips = np.concatenate([harness.eval_clip(cfg, tr)
                                    for tr in tracklets[start:start + 4]])
            forward_batch(model, clips, training=False)
    with tn.count_matmuls() as pipelined:
        embed_tracklets(model, cfg, tracklets)
    assert pipelined.macs == serial.macs > 0


def test_last_training_graph_is_dropped_before_eval(monkeypatch):
    cfg = micro_run_config(epochs=2)
    steps = []  # per step: weakrefs to logits, embeddings, loss, ce, tri
    alive_at_next_step = []
    total_loss = harness.total_loss
    evaluate = harness.evaluate_model

    def recording_loss(logits, embeddings, *args, **kwargs):
        if steps:
            alive_at_next_step.append(steps[-1][2]() is not None)
        out = total_loss(logits, embeddings, *args, **kwargs)
        # Tensor has no __weakref__ slot; each array lives as long as its node
        steps.append([weakref.ref(t.data) for t in (logits, embeddings) + out])
        return out

    def checked_evaluate(*args, **kwargs):
        assert steps and all(ref() is None for ref in steps[-1]), \
            "the last training step's graph is alive during evaluation"
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(harness, "total_loss", recording_loss)
    monkeypatch.setattr(harness, "evaluate_model", checked_evaluate)
    train_run(cfg, micro_corpus())
    # Within the loop a step's graph lives until the next step replaces it:
    # freeing it every step lets the allocator trim the heap, and the next
    # step pays to fault the pages back in.
    assert len(alive_at_next_step) == len(steps) - 1 > 0
    assert all(alive_at_next_step)


def test_train_run_frees_each_steps_weights_and_gradients_before_the_next_forward(
        monkeypatch):
    cfg = micro_run_config(epochs=2)
    forward = harness.forward_batch
    weights = []  # weakrefs to the last training step's attention weights
    entries = []  # per forward after the first: (grads all None, weights dead)

    def spy(model, clips, training):
        if weights or entries:
            entries.append((all(p.grad is None for p in model.params.values()),
                            all(ref() is None for ref in weights)))
        out = forward(model, clips, training)
        if training:
            weights[:] = [weakref.ref(w) for w in out[2] if w is not None]
            assert weights
        return out

    monkeypatch.setattr(harness, "forward_batch", spy)
    # without the collector, an array lives exactly as long as its references
    gc.disable()
    try:
        train_run(cfg, micro_corpus())
    finally:
        gc.enable()
    assert len(entries) > 2
    assert all(grads for grads, _ in entries), "a gradient lived into the next forward"
    assert all(dead for _, dead in entries), "weights lived into the next forward"


def test_untrained_model_scores_well_below_the_trained_bar():
    """An unoptimized model must not look trained, and the label-permutation
    null must sit at its analytic chance level.

    Random conv features still expose the identity colors, so the untrained
    score lands above chance (0.3-0.6 mAP across seeds) but far below what
    a trained run reaches; asserting "equal to chance" here would be wrong.
    """
    from denseil import data as dt
    from denseil import rng as drng
    from denseil.config import run_config_from_dict
    from denseil.metrics import EvalTable, cmc_and_map, pairwise_distances
    from denseil.model import forward_batch

    cfg = run_config_from_dict({"seed": 5})
    corpus = dt.generate_dataset(cfg.data)
    model = build_model(cfg)
    warm = drng.stream(cfg.seed, 77)
    for _ in range(2):  # batch-norm needs statistics before eval runs
        clips = np.stack([dt.restricted_sample(t, cfg.sampling.chunks, warm)
                          for t in corpus.train[:8]]).astype(cfg.np_dtype())
        forward_batch(model, clips, training=True)
    rows = dict(evaluate_model(model, cfg, corpus))
    assert rows["mAP"] < 0.80 and rows["R-1"] < 0.90

    q = np.stack([embed_tracklet(model, cfg, t) for t in corpus.query])
    g = np.stack([embed_tracklet(model, cfg, t) for t in corpus.gallery])
    dist = pairwise_distances(q, g)
    ids = np.array([t.identity for t in corpus.query])
    qc = np.array([t.camera for t in corpus.query])
    gc = np.array([t.camera for t in corpus.gallery])
    rng = np.random.default_rng(0)
    null = []
    for _ in range(400):
        perm = rng.permutation(len(ids))
        table = EvalTable(dist, ids, qc, ids[perm], gc[perm])
        null.append(cmc_and_map(table, max_rank=1)[1])
    # one relevant among G candidates: E[AP] = E[1/rank] = H(G)/G
    G = len(ids)
    chance = float(np.sum(1.0 / np.arange(1, G + 1)) / G)
    se = float(np.std(null) / np.sqrt(len(null)))
    assert abs(float(np.mean(null)) - chance) < 4.0 * se + 1e-3


def test_checkpoint_interval_writes_snapshots(tmp_path):
    cfg = micro_run_config(epochs=4, checkpoint_interval=2)
    train_run(cfg, micro_corpus(), outdir=tmp_path)
    assert (tmp_path / "epoch_002.dil1").exists()
    assert not (tmp_path / "epoch_004.dil1").exists()  # that one is final
    assert (tmp_path / "final.dil1").exists()


def test_flops_reported_in_summary(tmp_path):
    cfg = micro_run_config(epochs=1)
    _, report = train_run(cfg, micro_corpus(), outdir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["decoder_flops_per_forward"] == report.flops["total"]
    assert report.flops["total"] > 0


def test_ablate_over_r(tmp_path):
    cfg = micro_run_config(epochs=1)
    rows = ablate(cfg, "R", micro_corpus(), outdir=tmp_path)
    assert [r[0] for r in rows] == ["0", "1", "2"]
    flops = [r[6] for r in rows]
    assert flops[0] == 0  # no decoder blocks, no decoder cost
    assert flops[1] * 2 == flops[2]  # cost linear in depth
    table = (tmp_path / "ablation_R.csv").read_text().splitlines()
    assert table[0] == "R,mAP,R-1,R-5,R-10,R-20,decoder_flops"
    assert len(table) == 4
    for label in ("0", "1", "2"):
        assert (tmp_path / ("R_%s" % label) / "final.dil1").exists()


def test_ablate_dense_sources_values(tmp_path):
    cfg = micro_run_config(epochs=1)
    rows = ablate(cfg, "dense_sources", micro_corpus())
    assert [r[0] for r in rows] == ["2", "1+2"]


def test_ablate_over_variant(tmp_path):
    # three blocks, so TransDec (3,) and DenseIL (2, 3) read different sets
    cfg = micro_run_config(epochs=1, encoder={"channels": [4, 6, 8]})
    rows = ablate(cfg, "variant", micro_corpus(), outdir=tmp_path)
    assert [r[0] for r in rows] == ["TransEnc", "TransDec", "DenseIL"]
    flops = [r[6] for r in rows]
    assert flops[0] < flops[1] < flops[2]  # each reads one more source
    table = (tmp_path / "ablation_variant.csv").read_text().splitlines()
    assert table[0] == "variant,mAP,R-1,R-5,R-10,R-20,decoder_flops"
    assert [line.split(",")[0] for line in table[1:]] == [r[0] for r in rows]
    dense = [any(".dense." in name for name in load_checkpoint(
        tmp_path / ("variant_" + r[0]) / "final.dil1")) for r in rows]
    assert dense == [False, True, True]  # TransEnc has no interaction


def test_ablate_over_d_sets_each_width():
    cfg = micro_run_config()
    assert [run.decoder.d for _, run in ABLATIONS["d"](cfg)] == [32, 64, 128]


def test_each_ablation_setting_changes_one_knob():
    cfg = micro_run_config(decoder={"dense_sources": []})
    for axis, settings in ABLATIONS.items():
        for label, run in settings(cfg):
            if axis == "P":
                assert run.partitions == int(label)
                assert replace(run, partitions=cfg.partitions) == cfg
                continue
            knob = "dense_sources" if axis == "variant" else axis
            value = getattr(run.decoder, knob)
            if axis != "variant":  # the label names the value it sets
                assert label == ("+".join(map(str, value))
                                 if isinstance(value, tuple) else str(value))
            assert replace(run.decoder, **{knob: getattr(cfg.decoder, knob)}) \
                == cfg.decoder
            assert replace(run, decoder=cfg.decoder) == cfg


def test_variant_settings_map_names_to_dense_sources():
    for base in (None, [1]):
        cfg = micro_run_config(decoder={"dense_sources": base})
        got = [(label, run.decoder.dense_sources)
               for label, run in ABLATIONS["variant"](cfg)]
        # DenseIL reads blocks 2..L
        assert got == [("TransEnc", ()), ("TransDec", (2,)), ("DenseIL", None)]


@pytest.mark.parametrize("channels, sources", [
    ([6, 12], ["2", "1+2"]),
    ([4, 6, 8], ["3", "2+3"]),
    ([4, 6, 8, 10], ["4", "3+4", "2+3+4"]),
], ids=["L2", "L3", "L4"])
def test_ablation_labels_at_each_depth(channels, sources):
    # 32 rows leave four blocks a final map 4 rows tall, room for P=4
    cfg = micro_run_config(encoder={"channels": channels},
                           data={"height": 32})
    labels = [(axis, [label for label, _ in settings(cfg)])
              for axis, settings in ABLATIONS.items()]
    assert labels == [("fusion", ["attention", "summation", "concatenation"]),
                      ("variant", ["TransEnc", "TransDec", "DenseIL"]),
                      ("dense_sources", sources),
                      ("R", ["0", "1", "2"]),
                      ("d", ["32", "64", "128"]),
                      ("P", ["1", "2", "4"])]


def test_readme_ablate_row_names_the_table_axes_in_order():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as f:
        row = next(line for line in f if line.startswith("| `ablate` |"))
    listed = row.split("(", 1)[1].split(")", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(ABLATIONS)


def test_ablate_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        ablate(micro_run_config(), "heads", micro_corpus())
