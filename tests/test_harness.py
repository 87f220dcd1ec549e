import functools
import json
import os
import sys
import weakref
from dataclasses import replace

import numpy as np
import pytest

from denseil import harness, imageops
from denseil import tensor as tn
from denseil.checkpoint import load_checkpoint
from denseil.config import ConfigError
from denseil.harness import (TrainingDiverged, _with_setting, ablate,
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
                  for name in ("all", "prod", "transpose", "swapaxes")} | {
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


class _SubmitSpy:
    """Stands in for conv backward's worker and counts what it is given."""

    def __init__(self, pool):
        self.pool = pool
        self.calls = 0

    def submit(self, *args):
        self.calls += 1
        return self.pool.submit(*args)


def test_queries_and_evaluation_submit_nothing_to_the_conv_worker(monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    spy = _SubmitSpy(imageops._worker())
    monkeypatch.setattr(imageops, "_pool", spy)
    embed_tracklet(model, cfg, corpus.query[0])
    evaluate_model(model, cfg, corpus)
    assert spy.calls == 0
    # the spy does see a training step's conv backwards, one per conv
    clips = np.stack([tr.frames[:cfg.sampling.chunks]
                      for tr in corpus.train[:2]])
    logits, _, _ = forward_batch(build_model(cfg), clips, training=True)
    tn.backward(tn.sum_all(logits))
    assert spy.calls == 2 * len(cfg.encoder.channels)


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


def test_embed_tracklets_builds_no_graph(monkeypatch):
    cfg, model = _trained_on_odd_split("float32")
    corpus = micro_corpus(data=ODD_DATA)
    outputs = []

    def keeping_forward(*args, **kwargs):
        outputs.append(forward_batch(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(harness, "forward_batch", keeping_forward)
    embed_tracklets(model, cfg, corpus.query + corpus.gallery)
    assert len(outputs) == 3  # 10 tracklets in batches of 4
    for logits, normed, _ in outputs:
        for node in (logits, normed):
            assert node._parents == () and node._backward is None
            assert not node.requires_grad


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
    assert [_with_setting(cfg, "d", value).decoder.d
            for value in harness._axis_values("d", cfg)] == [32, 64, 128]


def test_with_setting_changes_one_knob():
    cfg = micro_run_config(decoder={"dense_sources": []})
    for axis, value in (("d", 32), ("R", 0), ("dense_sources", (1, 2)),
                        ("fusion", "summation")):
        run = _with_setting(cfg, axis, value)
        assert getattr(run.decoder, axis) == value
        assert replace(run.decoder, **{axis: getattr(cfg.decoder, axis)}) \
            == cfg.decoder
        assert replace(run, decoder=cfg.decoder) == cfg
    run = _with_setting(cfg, "P", 1)
    assert run.partitions == 1 and run.decoder == cfg.decoder


def test_with_setting_maps_variant_names_to_dense_sources():
    for base in (None, [1]):
        cfg = micro_run_config(decoder={"dense_sources": base})
        got = [_with_setting(cfg, "variant", name).decoder.dense_sources
               for name in ("TransEnc", "TransDec", "DenseIL")]
        assert got == [(), (2,), None]  # DenseIL reads blocks 2..L


def test_ablate_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        ablate(micro_run_config(), "heads", micro_corpus())
