import dataclasses
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import denseil
from denseil.checkpoint import load_checkpoint, save_checkpoint
from denseil.cli import main
from denseil.data import read_tracklet, write_tracklet
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

    assert main(["eval", "--checkpoint", str(run_dir / "final.dil1"),
                 "--data", str(data_dir), "--allow-self-match"]) == 0
    rows = dict(line.split(",") for line in
                capsys.readouterr().out.splitlines()[1:])
    assert rows["R-1"] == "1.0"


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
] + REMOVED_KEYS, ids=json.dumps)
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


def test_manifest_non_integer_identity_exits_3(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace

    def bad_identity(lines):
        first = lines[1].split(",")
        first[1] = "x"
        return [lines[0], ",".join(first)] + lines[2:]

    _rewrite_manifest(data_dir, bad_identity)
    _exits_3_with_one_line(["train", "--config", str(cfg_path), "--data",
                            str(data_dir), "--out", str(tmp_path / "out")],
                           capsys)


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


def test_cli_training_is_byte_identical_across_processes(workspace):
    # through ``python -m denseil.cli``, the path that pins BLAS threads
    tmp_path, cfg_path, data_dir = workspace
    src = os.path.dirname(os.path.dirname(os.path.abspath(denseil.__file__)))
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS")
           and k != "VECLIB_MAXIMUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        subprocess.run([sys.executable, "-m", "denseil.cli", "train",
                        "--config", str(cfg_path), "--data", str(data_dir),
                        "--out", str(out)],
                       env=env, check=True, capture_output=True)
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


def test_ablate_bad_axis_exits_1(workspace, capsys):
    tmp_path, cfg_path, data_dir = workspace
    assert main(["ablate", "--config", str(cfg_path), "--axis", "heads",
                 "--data", str(data_dir),
                 "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()
