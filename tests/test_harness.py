import json
import os
from dataclasses import replace

import numpy as np
import pytest

from denseil.config import ConfigError
from denseil.harness import (TrainingDiverged, _with_setting, ablate,
                             embed_tracklet, evaluate_model, train_run)
from denseil.imageops import RunningStatsError
from denseil.model import build_model
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
        optimizer={"lr": 3e-3, "decay_interval": 100})
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


def test_self_match_sanity_mode():
    cfg = micro_run_config(epochs=1)
    model, _ = train_run(cfg, micro_corpus())
    rows = evaluate_model(model, cfg, micro_corpus(), self_match=True)
    assert dict(rows)["R-1"] == 1.0
    assert dict(rows)["mAP"] == 1.0


def test_embed_tracklet_uses_a_fixed_sample():
    cfg = micro_run_config(epochs=1)
    model, _ = train_run(cfg, micro_corpus())
    tr = micro_corpus().query[0]
    a = embed_tracklet(model, cfg, tr)
    b = embed_tracklet(model, cfg, tr)
    assert np.array_equal(a, b)


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


def test_with_setting_changes_one_knob_plus_its_tied_field():
    cfg = micro_run_config(decoder={"ffn_hidden": 24, "variant": "TransEnc"})
    run = _with_setting(cfg, "d", 32)
    assert (run.decoder.d, run.decoder.ffn_hidden) == (32, 32)
    assert replace(run, decoder=cfg.decoder) == cfg
    run = _with_setting(cfg, "dense_sources", (1, 2))
    assert run.decoder.dense_sources == (1, 2)
    assert run.decoder.variant == "DenseIL"
    assert run.decoder.ffn_hidden == 24
    assert _with_setting(cfg, "R", 0).decoder.ffn_hidden == 24
    assert _with_setting(cfg, "P", 1).decoder == cfg.decoder


def test_ablate_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        ablate(micro_run_config(), "heads", micro_corpus())
