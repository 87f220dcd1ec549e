import json
import os

import numpy as np
import pytest

from denseil.cli import main
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
]


@pytest.mark.parametrize("override", [
    {"epochs": 1.5},
    {"epochs": True},
    {"seed": "3"},
    {"sampling": {"chunks": 2.5}},
    {"decoder": {"R": 1.7}},
    {"decoder": {"R": "2"}},
    {"partitions": 64},
] + REMOVED_KEYS, ids=json.dumps)
def test_malformed_config_exits_1_from_flops_and_train(workspace, capsys,
                                                       override):
    tmp_path, _, data_dir = workspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(micro_dict(**override)))
    for argv in (["flops", "--config", str(bad)],
                 ["train", "--config", str(bad), "--data", str(data_dir),
                  "--out", str(tmp_path / "out")]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("denseil: error: ")
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
