import builtins
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import denseil
from denseil import harness, imageops, model, optim, tensor
from denseil.checkpoint import load_checkpoint, save_checkpoint
from denseil.cli import main
from denseil.config import (ConfigError, load_run_config,
                            run_config_from_dict)
from denseil.data import (generate_dataset, load_corpus, read_tracklet,
                          write_corpus, write_tracklet)
from micro import micro_dict

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture()
def workspace(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(micro_dict(epochs=1)))
    data_dir = tmp_path / "corpus"
    assert main(["gen-data", "--config", str(cfg_path),
                 "--out", str(data_dir)]) == 0
    return tmp_path, cfg_path, data_dir


def test_gen_data_writes_corpus(workspace):
    tmp_path, _, data_dir = workspace
    assert (data_dir / "manifest.csv").exists()
    names = sorted(os.listdir(data_dir))
    assert "id000_t00_cam0.dilt" in names
    assert len(names) == 4 * 4 + 1


def test_train_eval_cycle(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    assert (run_dir / "final.dil1").exists()
    assert (run_dir / "config.json").exists()
    assert (run_dir / "report.csv").exists()
    assert (run_dir / "summary.json").exists()
    capsys.readouterr()

    assert main(["eval", "--checkpoint", str(run_dir / "final.dil1"),
                 "--data", str(data_dir)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "metric,value"
    assert out[1].startswith("mAP,")


def test_train_snapshots_into_a_fresh_out_dir_then_eval_one(workspace,
                                                            capsys):
    tmp_path, _, data_dir = workspace
    cfg_path = tmp_path / "snap.json"
    cfg_path.write_text(json.dumps(micro_dict(epochs=2,
                                              checkpoint_interval=1)))
    run_dir = tmp_path / "new" / "run"  # train creates both levels
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    assert (run_dir / "epoch_001.dil1").exists()
    assert not (run_dir / "epoch_002.dil1").exists()  # that one is final
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(run_dir / "epoch_001.dil1"),
                 "--data", str(data_dir)]) == 0
    assert capsys.readouterr().out.startswith("metric,value\nmAP,")


def test_eval_without_sibling_config(workspace, tmp_path, capsys):
    _, cfg_path, data_dir = workspace
    orphan = tmp_path / "orphan.dil1"
    orphan.write_bytes(b"DIL1")
    assert main(["eval", "--checkpoint", str(orphan),
                 "--data", str(data_dir)]) == 1
    assert "config.json" in capsys.readouterr().err


def test_flops_breakdown(workspace, capsys):
    _, cfg_path, _ = workspace
    assert main(["flops", "--config", str(cfg_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "component,multiply_adds"
    parsed = dict(line.split(",") for line in lines[1:])
    assert set(parsed) == {"total", "per_block", "self_attention", "dense",
                           "ffn", "adapters"}
    assert int(parsed["total"]) > 0


def test_dump_attn(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    out_csv = tmp_path / "attn.csv"
    assert main(["dump-attn", "--checkpoint", str(run_dir / "final.dil1"),
                 "--tracklet", str(data_dir / "id000_t02_cam2.dilt"),
                 "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ("block,head,query_frame,query_part,key_source,"
                        "key_frame,key_part,weight")
    # R=1 block, 2 heads, n=8 queries, sources {2} -> keys 2n=16
    assert len(lines) == 1 + 1 * 2 * 8 * 16


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_DUMP_SHA = ("a579c559a3a10bc98ef61428b439c4254a910c5528cdd866c3886cfd"
                   "90073e91")


def test_dump_attn_of_the_golden_checkpoint_writes_pinned_bytes(tmp_path,
                                                                 capsys):
    # the first query tracklet of the golden run's own corpus
    cfg = load_run_config(GOLDEN / "config.json")
    tracklet = tmp_path / "query.dilt"
    write_tracklet(tracklet, generate_dataset(cfg.data).query[0])
    out_csv = tmp_path / "attn.csv"
    assert main(["dump-attn", "--checkpoint", str(GOLDEN / "final.dil1"),
                 "--tracklet", str(tracklet), "--out", str(out_csv)]) == 0
    assert capsys.readouterr().out == "wrote 256 weights to %s\n" % out_csv
    blob = out_csv.read_bytes()
    assert blob.count(b"\n") == 257
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_DUMP_SHA


def test_dump_attn_builds_no_graph_and_writes_the_same_bytes(workspace,
                                                             monkeypatch):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    forward = harness.forward_batch
    graphs = []  # per dump: did the forward pass build a graph?

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        graphs.append(bool(out[1]._parents))
        return out

    monkeypatch.setattr(harness, "forward_batch", recording_forward)

    def dump(name):
        path = tmp_path / name
        assert main(["dump-attn", "--checkpoint", str(run_dir / "final.dil1"),
                     "--tracklet", str(data_dir / "id000_t02_cam2.dilt"),
                     "--out", str(path)]) == 0
        return path.read_bytes()

    scoped = dump("scoped.csv")
    monkeypatch.setattr(tensor, "no_grad", contextlib.nullcontext)
    assert dump("graph.csv") == scoped
    assert graphs == [False, True]


def test_dump_attn_rejects_a_tracklet_of_another_frame_shape(workspace,
                                                              capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    small = read_tracklet(data_dir / "id000_t02_cam2.dilt")
    big = tmp_path / "big.dilt"
    frames = small.frames.repeat(2, axis=2).repeat(2, axis=3)  # 32x16
    write_tracklet(big, dataclasses.replace(small, frames=frames))
    capsys.readouterr()
    out_csv = tmp_path / "attn.csv"
    assert main(["dump-attn", "--checkpoint", str(run_dir / "final.dil1"),
                 "--tracklet", str(big), "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert "(3, 32, 16)" in err and "(3, 16, 8)" in err
    assert err.count("\n") == 1
    assert not out_csv.exists()


def test_ablate_cli(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    out = tmp_path / "ablation"
    assert main(["ablate", "--config", str(cfg_path), "--axis", "fusion",
                 "--data", str(data_dir), "--out", str(out)]) == 0
    table = (out / "ablation_fusion.csv").read_text().splitlines()
    assert len(table) == 4
    assert table[1].startswith("attention,")
    assert table[2].startswith("summation,")
    assert table[3].startswith("concatenation,")


def test_ablate_rejects_a_setting_before_any_training(workspace, capsys):
    tmp_path, _, data_dir = workspace
    # four blocks leave the 16-row micro frames a final map 2 rows tall, so
    # P=1 and P=2 could train but P=4 cannot
    cfg_path = tmp_path / "deep.json"
    cfg_path.write_text(json.dumps(micro_dict(
        epochs=1, encoder={"channels": [4, 6, 8, 10]})))
    out = tmp_path / "sweep"
    assert main(["ablate", "--config", str(cfg_path), "--axis", "P",
                 "--data", str(data_dir), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("denseil: error: partitions=4 exceeds the final "
                            "encoder map height 2\n")
    assert captured.out == ""  # no setting trained
    assert not out.exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["trian"]) == 1
    assert main(["train", "--config"]) == 1
    assert main(["eval", "--checkpoint", "run/final.dil1", "--data", "data",
                 "--allow-self-match"]) == 1
    assert "--allow-self-match" in capsys.readouterr().err
    capsys.readouterr()


def test_unknown_config_key_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"lern_rate": 1}))
    assert main(["flops", "--config", str(bad)]) == 1
    assert "lern_rate" in capsys.readouterr().err


REMOVED_KEYS = [
    {"outdir": "runs"},
    {"encoder": {"in_channels": 3}},
    {"encoder": {"in_height": 64}},
    {"encoder": {"in_width": 8}},
    {"decoder": {"ffn_before_dense": True}},
    {"decoder": {"posemb_per_block": True}},
    {"data": {"channels": 3}},
    {"decoder": {"variant": "TransDec"}},  # now "dense_sources": [L]
    {"encoder": {"downsample_last": False}},  # the last stride is always 1
    {"decoder": {"ffn_hidden": 64}},  # the FFN is d wide
    {"loss": {"margin": 0.3}},  # batch_hard_triplet's default
    {"optimizer": {"beta1": 1.0}},  # Adam's constants in optim.py
    {"optimizer": {"beta2": 0.999}},
    {"optimizer": {"eps": 1e-8}},
    {"optimizer": {"decay_factor": 0}},  # lr_at divides by 10
    {"optimizer": {"decay_interval": 20}},  # optim.DECAY_INTERVAL
]

# numbers too big for a float: train would overflow converting them, or
# try to allocate them
TOO_BIG = [
    pytest.param({"optimizer": {"lr": 10 ** 400}}, id="lr=10**400"),
    pytest.param({"loss": {"triplet_weight": 10 ** 400}},
                 id="triplet_weight=10**400"),
    pytest.param({"encoder": {"channels": [8, 10 ** 400]}},
                 id="channels=[8, 10**400]"),
]


@pytest.mark.parametrize("override", [
    {"epochs": 1.5},
    {"epochs": True},
    {"seed": "3"},
    {"sampling": {"chunks": 2.5}},
    {"decoder": {"R": 1.7}},
    {"decoder": {"R": "2"}},
    {"partitions": 64},
    {"sampling": {"chunks": 9}},  # the micro corpus has 8 frames per tracklet
    {"sampling": {"k_ids": 5}},  # and 4 identities
    {"sampling": {"k_ids": 1}},  # triplet mining needs two identities
    {"sampling": {"t_per_id": 1}},  # and two samples of each
    {"data": {"cameras": 1}},  # query and gallery need two cameras
    {"data": {"tracklets_per_identity": 1}},  # train, query and gallery
    {"data": {"tracklets_per_identity": 2}},
    {"decoder": {"fusion": "sum"}},  # not one of decoder.FUSIONS
] + TOO_BIG + REMOVED_KEYS, ids=json.dumps)
def test_malformed_config_exits_1_from_flops_and_train(workspace, capsys,
                                                       override):
    tmp_path, _, data_dir = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(micro_dict(**override)))
    (section, value), = override.items()
    key = "%s.%s" % (section, *value) if isinstance(value, dict) else section
    for argv in (["flops", "--config", str(bad)],
                 ["train", "--config", str(bad), "--data", str(data_dir),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("denseil: error: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        if override in REMOVED_KEYS:
            assert "unknown key %s" % key in err
        if override in [p.values[0] for p in TOO_BIG]:
            assert "%s must fit in a float" % key in err
    assert not (tmp_path / "out").exists()  # no checkpoint, no epoch trained


@pytest.mark.parametrize("override", [
    {"encoder": {"channels": [8, 10 ** 20]}},
    {"decoder": {"d": 2 ** 16}},
    {"data": {"num_identities": 10 ** 9}},  # data: the corpus limit trips
    {"data": {"frames_per_tracklet": 10 ** 12}},
    {"data": {"height": 2 ** 16, "width": 2 ** 16}},
    {"data": {"tracklets_per_identity": 10 ** 7}},
    {"decoder": {"R": 2 ** 62}},  # counted once per block kind, not per block
    {"encoder": {"channels": [8, 10 ** 308]}},  # no init std is computed
    {"sampling": {"t_per_id": 10 ** 12}},  # the training batch trips
], ids=json.dumps)
def test_config_over_the_parameter_limit_exits_1_before_allocating(
        workspace, capsys, override):
    # only sizes load rejects: gen-data would render a corpus that passed
    with pytest.raises(ConfigError, match="more than the limit"):
        run_config_from_dict(micro_dict(**override))
    tmp_path, _, data_dir = workspace
    big = tmp_path / "big.json"
    big.write_text(json.dumps(micro_dict(**override)))
    capsys.readouterr()
    tracemalloc.start()
    try:
        for argv in (["gen-data", "--config", str(big),
                      "--out", str(tmp_path / "out")],
                     ["flops", "--config", str(big)],
                     ["train", "--config", str(big), "--data", str(data_dir),
                      "--out", str(tmp_path / "out")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "more than the limit of 1000000000" in err
            assert ("pixel values" in err) == ("data" in override)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # no weight, corpus or output was allocated
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sampling", [{"k_ids": 1}, {"t_per_id": 1}],
                         ids=json.dumps)
def test_single_sample_layouts_pass_flops_and_train_without_triplet(
        workspace, capsys, sampling):
    tmp_path, _, data_dir = workspace
    cfg = tmp_path / "ce_only.json"
    cfg.write_text(json.dumps(micro_dict(
        epochs=1, sampling=sampling, loss={"triplet_weight": 0.0})))
    assert main(["flops", "--config", str(cfg)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()


def test_no_dense_sources_pass_flops_and_train(workspace, capsys):
    tmp_path, _, data_dir = workspace
    cfg = tmp_path / "no_sources.json"
    cfg.write_text(json.dumps(micro_dict(epochs=1,
                                         decoder={"dense_sources": []})))
    assert main(["flops", "--config", str(cfg)]) == 0
    assert "dense,0\n" in capsys.readouterr().out
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    records = load_checkpoint(run_dir / "final.dil1")
    assert not [name for name in records if ".dense." in name]
    stored = json.loads((run_dir / "config.json").read_text())
    assert stored["decoder"]["dense_sources"] == []
    capsys.readouterr()
    out_csv = tmp_path / "attn.csv"
    assert main(["dump-attn", "--checkpoint", str(run_dir / "final.dil1"),
                 "--tracklet", str(data_dir / "id000_t02_cam2.dilt"),
                 "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert "decoder.dense_sources is empty" in err and err.count("\n") == 1
    assert not out_csv.exists()


@pytest.mark.parametrize("decoder,setting", [
    ({"R": 0}, "decoder.R is 0"),
    ({"fusion": "summation"}, "decoder.fusion is summation"),
], ids=str)
def test_dump_attn_without_interaction_attention_exits_1(workspace, capsys,
                                                         decoder, setting):
    tmp_path, _, data_dir = workspace
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.json").write_text(json.dumps(micro_dict(
        decoder=decoder)))
    out_csv = tmp_path / "attn.csv"
    # no checkpoint at all: the setting is refused before the model loads
    assert main(["dump-attn", "--checkpoint", str(run_dir / "final.dil1"),
                 "--tracklet", str(data_dir / "id000_t02_cam2.dilt"),
                 "--out", str(out_csv)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("denseil: error: %s" % setting)
    assert err.count("\n") == 1
    assert not out_csv.exists()


def test_unrenderable_height_exits_1_from_gen_data_flops_and_train(
        workspace, capsys):
    # 2 rows divide by the encoder's one downsampling step and leave room
    # for one partition, but the figure box is too short for the 4 bands
    tmp_path, _, data_dir = workspace
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(micro_dict(partitions=1, data={"height": 2})))
    for argv in (["gen-data", "--config", str(bad),
                  "--out", str(tmp_path / "short")],
                 ["flops", "--config", str(bad)],
                 ["train", "--config", str(bad), "--data", str(data_dir),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("denseil: error: ") and "data.height=2" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("data, sampling", [
    ({"tracklets_per_identity": 1025}, {}),
    # one frame of 8x2 keeps the corpus under its size limit
    ({"num_identities": (1 << 22) + 1, "tracklets_per_identity": 3,
      "frames_per_tracklet": 1, "height": 8, "width": 2}, {"chunks": 1}),
    ({"cameras": 10 ** 9 // 6 + 1}, {}),
    ({"jitter": 2 ** 63 - 16 + 1}, {}),  # the micro corpus is 16 rows tall
], ids=["tracklets_per_identity", "num_identities", "cameras", "jitter"])
def test_colliding_eval_streams_exit_1_from_gen_data_flops_and_train(
        workspace, capsys, data, sampling):
    # evaluation seeds tracklet j of identity i by i * 1024 + j; the two
    # per-camera color tables count against the corpus limit, and a jitter
    # shift must leave the frame rows' arithmetic inside int64
    tmp_path, _, data_dir = workspace
    bad = tmp_path / "collide.json"
    bad.write_text(json.dumps(micro_dict(data=data, sampling=sampling)))
    name = next(iter(data))
    for argv in (["gen-data", "--config", str(bad),
                  "--out", str(tmp_path / "big")],
                 ["flops", "--config", str(bad)],
                 ["train", "--config", str(bad), "--data", str(data_dir),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("denseil: error: ")
        assert "%s=%d is more than" % (name, data[name]) in err
        assert err.count("\n") == 1
    ok = dict(data, **{name: data[name] - 1})
    run_config_from_dict(micro_dict(data=ok, sampling=sampling))
    assert not (tmp_path / "big").exists()
    assert not (tmp_path / "out").exists()


def test_non_utf8_config_exits_1_naming_the_file(workspace, capsys):
    tmp_path, _, data_dir = workspace
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"seed": 3, "note": "\xff"}')
    for argv in (["flops", "--config", str(bad)],
                 ["train", "--config", str(bad), "--data", str(data_dir),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("denseil: error: ") and str(bad) in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_deeply_nested_config_exits_1_naming_the_file(workspace, capsys):
    tmp_path, _, data_dir = workspace
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)  # json recurses once per bracket
    for argv in (["flops", "--config", str(deep)],
                 ["train", "--config", str(deep), "--data", str(data_dir),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("denseil: error: ") and str(deep) in err
        assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_disagreeing_with_corpus_exits_1(workspace, capsys):
    tmp_path, _, data_dir = workspace
    tall = tmp_path / "tall.json"
    tall.write_text(json.dumps(micro_dict(data={"height": 32})))
    assert main(["train", "--config", str(tall), "--data", str(data_dir),
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "(3, 16, 8)" in err and "(3, 32, 8)" in err
    assert err.count("\n") == 1


def test_missing_files_exit_3(tmp_path, capsys):
    assert main(["flops", "--config", str(tmp_path / "nope.json")]) == 3
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(micro_dict(epochs=1)))
    assert main(["train", "--config", str(cfg),
                 "--data", str(tmp_path / "nocorpus"),
                 "--out", str(tmp_path / "out")]) == 3
    capsys.readouterr()


def _exits_3_with_one_line(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("denseil: i/o error: ")
    assert err.count("\n") == 1
    return err


def _rewrite_manifest(data_dir, edit):
    path = data_dir / "manifest.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")


def test_manifest_without_identity_column_exits_3(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace

    def drop_identity(lines):
        return [",".join(f for i, f in enumerate(line.split(",")) if i != 1)
                for line in lines]

    _rewrite_manifest(data_dir, drop_identity)
    _exits_3_with_one_line(["train", "--config", str(cfg_path), "--data",
                            str(data_dir), "--out", str(tmp_path / "out")],
                           capsys)


@pytest.mark.parametrize("column, value", [
    ("identity", "x"),
    # open() raises ValueError on a NUL byte, which would exit 1
    ("filename", "id000\x00.dilt"),
], ids=["identity-not-integer", "filename-with-nul"])
def test_manifest_malformed_field_exits_3(workspace, capsys, column, value):
    tmp_path, cfg_path, data_dir = workspace

    def bad_field(lines):
        first = lines[1].split(",")
        first[lines[0].split(",").index(column)] = value
        return [lines[0], ",".join(first)] + lines[2:]

    _rewrite_manifest(data_dir, bad_field)
    err = _exits_3_with_one_line(["train", "--config", str(cfg_path), "--data",
                                  str(data_dir), "--out", str(tmp_path / "out")],
                                 capsys)
    assert "manifest.csv, row 1: missing or malformed field: " in err


@pytest.mark.parametrize("column", ["identity", "camera"])
def test_manifest_row_disagreeing_with_its_tracklet_header_exits_3(
        workspace, capsys, column):
    tmp_path, cfg_path, data_dir = workspace

    def moved(lines):
        first = lines[1].split(",")
        at = lines[0].split(",").index(column)
        first[at] = str(int(first[at]) + 1)  # still a valid integer
        return [lines[0], ",".join(first)] + lines[2:]

    _rewrite_manifest(data_dir, moved)
    err = _exits_3_with_one_line(["train", "--config", str(cfg_path), "--data",
                                  str(data_dir), "--out", str(tmp_path / "out")],
                                 capsys)
    assert err.endswith("id000_t00_cam0.dilt: header disagrees with manifest\n")


def test_tracklet_shorter_than_its_header_exits_3(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    path = data_dir / "id000_t00_cam0.dilt"
    path.write_bytes(path.read_bytes()[:4 + 27])  # the magic, 27 of 28 bytes
    err = _exits_3_with_one_line(["train", "--config", str(cfg_path), "--data",
                                  str(data_dir), "--out", str(tmp_path / "out")],
                                 capsys)
    assert err.endswith("%s: truncated header\n" % path)


def test_every_file_the_commands_write_is_renamed_into_place(tmp_path,
                                                           monkeypatch):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(micro_dict(epochs=2,
                                              checkpoint_interval=1)))
    data_dir, run_dir = tmp_path / "corpus", tmp_path / "run"
    opened, real_open = [], builtins.open

    def spy(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            opened.append(os.fspath(file))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    for argv in (["gen-data", "--config", cfg_path, "--out", data_dir],
                 ["train", "--config", cfg_path, "--data", data_dir,
                  "--out", run_dir],
                 ["ablate", "--config", cfg_path, "--axis", "variant",
                  "--data", data_dir, "--out", tmp_path / "ablate"],
                 ["dump-attn", "--checkpoint", run_dir / "final.dil1",
                  "--tracklet", data_dir / "id000_t02_cam2.dilt",
                  "--out", tmp_path / "attn.csv"]):
        assert main([str(a) for a in argv]) == 0
    monkeypatch.undo()
    suffix = ".%d.tmp" % os.getpid()
    assert [p for p in opened if not p.endswith(suffix)] == []

    def target(path):  # a checkpoint saved into a temporary has one of its own
        while path.endswith(suffix):
            path = path[:-len(suffix)]
        return path

    written = {target(p) for p in opened}
    files = {str(p) for p in tmp_path.rglob("*") if p.is_file()}
    assert files - written == {str(cfg_path)}
    assert written <= files  # and each renamed into place


def test_a_manifest_write_that_fails_leaves_the_directory_as_it_was(
        workspace, capsys, monkeypatch):
    # a manifest cut at a row boundary would load as a smaller corpus, so a
    # write that stops after three rows must leave no manifest behind
    tmp_path, cfg_path, data_dir = workspace
    corpus = load_corpus(data_dir)
    before = sorted(os.listdir(data_dir))
    good = (data_dir / "manifest.csv").read_bytes()
    real = csv.writer

    class FailingWriter:
        def __init__(self, f):
            self.rows = real(f)

        def writerow(self, row):
            self.rows.writerow(row)

        def writerows(self, rows):
            self.rows.writerows(rows[:3])
            raise OSError("no space left on device")

    fresh = tmp_path / "fresh"
    with monkeypatch.context() as m:
        m.setattr(csv, "writer", FailingWriter)
        for outdir in (fresh, data_dir):
            with pytest.raises(OSError, match="no space"):
                write_corpus(corpus, outdir)
    assert not (fresh / "manifest.csv").exists()
    assert os.listdir(fresh) == []  # not even the tracklets
    _exits_3_with_one_line(["train", "--config", str(cfg_path), "--data",
                            str(fresh), "--out", str(tmp_path / "out")],
                           capsys)
    assert sorted(os.listdir(data_dir)) == before
    assert (data_dir / "manifest.csv").read_bytes() == good


def test_colliding_eval_streams_exit_3_from_train_and_eval(workspace,
                                                           capsys):
    # query identity 0 with tracklet id 1024 would draw the frames of
    # gallery identity 1's tracklet 0: both use stream EVAL_STREAM + 1024
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    corpus = load_corpus(data_dir)
    query = next(tr for tr in corpus.query if tr.identity == 0)
    gallery = next(tr for tr in corpus.gallery if tr.identity == 1)
    train = next(tr for tr in corpus.train
                 if (tr.identity, tr.tracklet_id) == (1, 0))
    # swapped, so no two tracklets share a file name
    train.tracklet_id, gallery.tracklet_id = gallery.tracklet_id, 0

    def eval_argv(tracklet_id):
        query.tracklet_id = tracklet_id
        write_corpus(corpus, tmp_path / str(tracklet_id))
        return ["eval", "--checkpoint", str(run_dir / "final.dil1"),
                "--data", str(tmp_path / str(tracklet_id))]

    assert main(eval_argv(1023)) == 0  # the last id below the stride
    capsys.readouterr()
    colliding = eval_argv(1024)
    path = tmp_path / "1024" / ("id000_t1024_cam%d.dilt" % query.camera)
    for argv in (colliding, ["train", "--config", str(cfg_path), "--data",
                             colliding[-1], "--out", str(tmp_path / "again")]):
        err = _exits_3_with_one_line(argv, capsys)
        assert str(path) in err and "collide" in err


def test_eval_of_a_manifest_listing_a_tracklet_twice_exits_3(workspace,
                                                            capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    lines = (data_dir / "manifest.csv").read_text().splitlines()
    assert lines[-1].endswith(",gallery")
    _rewrite_manifest(data_dir, lambda lines: lines + lines[-1:])
    err = _exits_3_with_one_line(["eval", "--checkpoint",
                                  str(run_dir / "final.dil1"),
                                  "--data", str(data_dir)], capsys)
    assert "manifest.csv, row %d: a second tracklet" % len(lines) in err


def test_corpus_without_eval_split_exits_1_before_training(workspace,
                                                          capsys):
    tmp_path, cfg_path, data_dir = workspace
    _rewrite_manifest(data_dir, lambda lines: [
        line for line in lines if not line.endswith((",query", ",gallery"))])
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "denseil: error: corpus has no query split\n"
    assert captured.out == ""  # no epoch trained
    assert not out.exists()


def test_tracklet_shorter_than_chunks_exits_1_before_training(workspace,
                                                              capsys):
    tmp_path, cfg_path, data_dir = workspace
    path = data_dir / "id000_t03_cam0.dilt"  # a gallery tracklet
    short = read_tracklet(path)
    write_tracklet(path, dataclasses.replace(short, frames=short.frames[:2]))
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "denseil: error: tracklet %d of identity %d has 2 frames, fewer than "
        "sampling.chunks=4\n" % (short.tracklet_id, short.identity))
    assert captured.out == ""  # no epoch trained


def test_train_identity_past_num_identities_exits_1_before_training(
        workspace, capsys):
    tmp_path, cfg_path, _ = workspace
    wide_cfg = tmp_path / "wide.json"
    wide_cfg.write_text(json.dumps(micro_dict(data={"num_identities": 6})))
    wide = tmp_path / "wide"
    assert main(["gen-data", "--config", str(wide_cfg),
                 "--out", str(wide)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--data", str(wide),
                 "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "denseil: error: train tracklet 0 has identity 4, outside [0, 4) "
        "set by data.num_identities\n")
    assert captured.out == ""  # no epoch trained


def test_checkpoint_undecodable_record_name_exits_3(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.json").write_text(cfg_path.read_text())
    name = b"\xff\xfe"
    ckpt = run_dir / "final.dil1"
    ckpt.write_bytes(b"DIL1" + struct.pack("<I", len(name)) + name
                     + struct.pack("<I", 0) + struct.pack("<f", 1.0))
    _exits_3_with_one_line(["eval", "--checkpoint", str(ckpt),
                            "--data", str(data_dir)], capsys)


def test_checkpoint_with_a_duplicate_record_exits_3(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.json").write_text(cfg_path.read_text())
    ckpt = run_dir / "final.dil1"
    save_checkpoint(ckpt, {"w": np.ones(2, np.float32)})
    blob = ckpt.read_bytes()
    ckpt.write_bytes(blob + blob[4:])  # the one record, twice
    err = _exits_3_with_one_line(["eval", "--checkpoint", str(ckpt),
                                  "--data", str(data_dir)], capsys)
    assert err.endswith("duplicate record 'w'\n")


def test_malformed_checkpoint_records_exit_3(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    records = load_checkpoint(run_dir / "final.dil1")
    bn = "bnstate.encoder.block1.bn1."  # a layer of 6 channels
    bad = run_dir / "bad.dil1"
    conv = "encoder.block1.conv2.w"

    def poisoned(key, index, value):
        arr = records[key].copy()
        arr.reshape(-1)[index] = value
        return arr

    for key, value in ((bn + "count", np.zeros(3)),
                       (bn + "mean", np.zeros(1)),
                       (bn + "var", np.ones(3)),
                       (bn + "count", np.array(np.nan)),
                       (bn + "count", np.array(-1.0)),
                       (bn + "count", np.array(2.5)),
                       ("adapter.block3.w", np.zeros((12, 12))),
                       (conv, poisoned(conv, 5, np.nan)),
                       (bn + "mean", poisoned(bn + "mean", 2, np.inf)),
                       (bn + "var", poisoned(bn + "var", 3, -1.0))):
        save_checkpoint(bad, dict(records, **{key: value}))
        err = _exits_3_with_one_line(["eval", "--checkpoint", str(bad),
                                      "--data", str(data_dir)], capsys)
        assert repr(key) in err


def test_checkpoint_read_under_another_decoder_wiring_exits_3(workspace,
                                                              capsys):
    # a checkpoint holds exactly the records of the model its config builds
    tmp_path, _, data_dir = workspace
    cfg_path = tmp_path / "three.json"
    cfg_path.write_text(json.dumps(micro_dict(
        epochs=1, encoder={"channels": [4, 8, 12]})))
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()

    def copy_with(name, **decoder):
        copy = tmp_path / name
        shutil.copytree(run_dir, copy)
        cfg = json.loads((copy / "config.json").read_text())
        cfg["decoder"].update(decoder)
        (copy / "config.json").write_text(json.dumps(cfg))
        return copy / "final.dil1"

    summed = copy_with("summed", fusion="summation")
    err = _exits_3_with_one_line(["eval", "--checkpoint", str(summed),
                                  "--data", str(data_dir)], capsys)
    assert re.search(r"unexpected record 'decoder\.block1\.dense\.[a-z.]+'$",
                     err)

    last_only = copy_with("last_only", dense_sources=[3])
    out_csv = tmp_path / "attn.csv"
    err = _exits_3_with_one_line(
        ["dump-attn", "--checkpoint", str(last_only), "--tracklet",
         str(data_dir / "id000_t02_cam2.dilt"), "--out", str(out_csv)],
        capsys)
    assert re.search(r"unexpected record 'adapter\.block2\.w'$", err)
    assert not out_csv.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_checkpoint_record_exits_2_from_eval_and_dump_attn(workspace,
                                                                capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    records = load_checkpoint(run_dir / "final.dil1")
    w = records["adapter.block2.w"].copy()
    w.reshape(-1)[0] = 3e38  # finite in float32; layer norm's square is not
    bad = run_dir / "huge.dil1"
    save_checkpoint(bad, dict(records, **{"adapter.block2.w": w}))
    out_csv = tmp_path / "attn.csv"
    for argv in (["eval", "--checkpoint", str(bad), "--data", str(data_dir)],
                 ["dump-attn", "--checkpoint", str(bad), "--tracklet",
                  str(data_dir / "id000_t02_cam2.dilt"),
                  "--out", str(out_csv)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == ("denseil: numeric failure: overflow "
                                "encountered in multiply\n")
        assert captured.out == ""
    assert not out_csv.exists()


def test_non_finite_tracklet_exits_3_from_train_and_dump_attn(workspace,
                                                              capsys):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    path = data_dir / "id000_t00_cam0.dilt"  # a training tracklet
    tracklet = read_tracklet(path)
    tracklet.frames[3, 1, 4, 2] = np.nan
    write_tracklet(path, tracklet)
    out_csv = tmp_path / "attn.csv"
    for argv in (["train", "--config", str(cfg_path), "--data", str(data_dir),
                  "--out", str(tmp_path / "again")],
                 ["dump-attn", "--checkpoint", str(run_dir / "final.dil1"),
                  "--tracklet", str(path), "--out", str(out_csv)]):
        assert str(path) in _exits_3_with_one_line(argv, capsys)
    assert not out_csv.exists()


def test_dump_attn_rejects_a_tracklet_whose_eval_stream_collides(workspace,
                                                                 capsys):
    # read_tracklet applies load_corpus's eval-stream check to every file
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    tracklet = read_tracklet(data_dir / "id000_t02_cam2.dilt")
    out_csv = tmp_path / "attn.csv"
    for identity, tracklet_id in ((0, 5000), (1 << 23, 2)):
        tracklet.identity, tracklet.tracklet_id = identity, tracklet_id
        path = tmp_path / ("id%d_t%d.dilt" % (identity, tracklet_id))
        write_tracklet(path, tracklet)
        err = _exits_3_with_one_line(
            ["dump-attn", "--checkpoint", str(run_dir / "final.dil1"),
             "--tracklet", str(path), "--out", str(out_csv)], capsys)
        assert str(path) in err and "collide" in err
        assert not out_csv.exists()


def _unpinned_env():
    """This environment without the BLAS thread settings, with the package
    on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(denseil.__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")
           and k != "VECLIB_MAXIMUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_cli_import_pins_blas_and_loads_no_numpy():
    # tests/conftest.py pins BLAS for the suite by this import alone
    subprocess.run([sys.executable, "-c",
                    "import denseil.cli, os, sys; "
                    "assert 'numpy' not in sys.modules; "
                    "assert os.environ['OPENBLAS_NUM_THREADS'] == '1'"],
                   env=_unpinned_env(), check=True)


def test_cli_training_is_byte_identical_across_processes(workspace):
    # through ``python -m denseil.cli``, the path that pins BLAS threads
    tmp_path, cfg_path, data_dir = workspace
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        subprocess.run([sys.executable, "-m", "denseil.cli", "train",
                        "--config", str(cfg_path), "--data", str(data_dir),
                        "--out", str(out)],
                       env=_unpinned_env(), check=True, capture_output=True)
    for name in ("final.dil1", "report.csv"):
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()


def test_divergence_exits_2(workspace, capsys):
    tmp_path, _, data_dir = workspace
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(micro_dict(optimizer={"lr": 1e30})))
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(cfg_path),
                     "--data", str(data_dir),
                     "--out", str(tmp_path / "divout")])
    assert code == 2
    assert "diverged" in capsys.readouterr().err


def test_learning_rate_overflow_exits_1_from_flops_and_train(workspace, capsys):
    # lr_at divides by 10.0 ** (epoch // DECAY_INTERVAL); epoch 6180 would
    # ask for 10.0 ** 309, which Python floats raise OverflowError on, so
    # load refuses the config before any epoch trains
    tmp_path, _, data_dir = workspace
    cfg_path = tmp_path / "long.json"
    cfg_path.write_text(json.dumps(micro_dict(
        epochs=309 * optim.DECAY_INTERVAL + 1)))
    for argv in (["flops", "--config", str(cfg_path)],
                 ["train", "--config", str(cfg_path), "--data", str(data_dir),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("denseil: error: ")
        assert "epochs=6181" in err and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_overflow_in_a_weight_gradient_exits_2_at_its_step(workspace, capsys,
                                                           monkeypatch):
    # From the second training step on, the conv stage of the first fused
    # conv node is handed an output gradient of 3e38 everywhere. Its
    # float32 dw, a sum over nonnegative pixels made on the conv worker
    # thread, overflows in that step.
    tmp_path, cfg_path, data_dir = workspace
    conv = imageops._conv
    first_convs = []

    def flooded(x, w, stride, need_dx, split):
        out, back = conv(x, w, stride, need_dx, split)
        if x.shape[3] != 3:
            return out, back
        first_convs.append(out)
        if len(first_convs) < 2:
            return out, back
        return out, lambda g: back(np.full_like(g, 3e38))

    monkeypatch.setattr(imageops, "_conv", flooded)
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(tmp_path / "flood")]) == 2
    err = capsys.readouterr().err
    assert "diverged at epoch 0 step 1: overflow" in err
    assert len(first_convs) == 2


def test_an_overflow_in_an_eval_batchs_decoder_stage_exits_2(workspace,
                                                             capsys,
                                                             monkeypatch):
    # 8 eval tracklets in batches of 4, one on each lane: the worker's
    # batch overflows in its decoder stage, and that must fail the command
    # all the same
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    capsys.readouterr()
    stack_partitions = model.stack_partitions
    worker_in = threading.Event()
    calls = []

    def flooded(pyramid, partitions, weights):
        calls.append(len(pyramid[0].data))  # frames in the batch
        if threading.current_thread().name.startswith("denseil-worker"):
            worker_in.set()
            pyramid = [tensor.Tensor(p.data * np.float32(3e38))
                       for p in pyramid]
        else:
            # the caller's batch holds the other until the worker has one
            assert worker_in.wait(10.0)
        return stack_partitions(pyramid, partitions, weights)

    monkeypatch.setattr(model, "stack_partitions", flooded)
    assert main(["eval", "--checkpoint", str(run_dir / "final.dil1"),
                 "--data", str(data_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("denseil: numeric failure: overflow "
                            "encountered in multiply\n")
    assert captured.out == ""
    assert calls == [4 * 4, 4 * 4]  # two batches of 4 clips of 4 frames


def test_flops_and_eval_start_no_thread(workspace):
    tmp_path, cfg_path, data_dir = workspace
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--data", str(data_dir),
                 "--out", str(run_dir)]) == 0
    # the same checkpoint, read with an eval batch that holds all 8
    # query and gallery tracklets
    one_batch = tmp_path / "one_batch"
    one_batch.mkdir()
    shutil.copy(run_dir / "final.dil1", one_batch)
    (one_batch / "config.json").write_text(json.dumps(
        micro_dict(epochs=1, sampling={"t_per_id": 4})))
    script = (
        "import sys, threading\n"
        "from denseil.cli import main\n"
        "from denseil import tensor\n"
        "assert main(['flops', '--config', sys.argv[1]]) == 0\n"
        "assert main(['eval', '--checkpoint', sys.argv[2],"
        " '--data', sys.argv[4]]) == 0\n"
        "assert tensor._worker.cache_info().currsize == 0\n"
        "assert threading.active_count() == 1\n"
        # two batches: the one worker runs a lane beside the caller
        "assert main(['eval', '--checkpoint', sys.argv[3],"
        " '--data', sys.argv[4]]) == 0\n"
        "names = sorted(t.name for t in threading.enumerate())\n"
        "assert names == ['MainThread', 'denseil-worker_0'], names\n")
    subprocess.run([sys.executable, "-c", script, str(cfg_path),
                    str(one_batch / "final.dil1"), str(run_dir / "final.dil1"),
                    str(data_dir)],
                   env=_unpinned_env(), check=True, capture_output=True)


def test_ablate_bad_axis_exits_1(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    assert main(["ablate", "--config", str(cfg_path), "--axis", "heads",
                 "--data", str(data_dir),
                 "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()
