import struct
from dataclasses import replace

import numpy as np
import pytest

from denseil import checkpoint as ck
from denseil import harness
from denseil.config import write_run_config
from denseil.harness import (ABLATION_METRICS, RunReport, ablate,
                             write_run_artifacts)
from denseil.model import build_model
from micro import micro_run_config


def test_round_trip_values_and_order(tmp_path):
    path = tmp_path / "model.ckpt"
    records = {
        "encoder.block1.conv1.w": np.arange(12, dtype=np.float32).reshape(3, 4),
        "decoder.block2.selfattn.wq": np.float32(-1.5) * np.ones((2, 2), np.float32),
        "head.bn.num_batches": np.float32(7.0),
    }
    ck.save_checkpoint(path, records)
    loaded = ck.load_checkpoint(path)
    assert list(loaded) == list(records)
    for name in records:
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], np.asarray(records[name], dtype=np.float32))
    assert loaded["head.bn.num_batches"].shape == ()


def test_round_trip_byte_identical(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    rng = np.random.default_rng(40)
    records = {"w%d" % i: rng.normal(size=(i + 1, 3)).astype(np.float32) for i in range(5)}
    ck.save_checkpoint(a, records)
    ck.save_checkpoint(b, ck.load_checkpoint(a))
    assert a.read_bytes() == b.read_bytes()


def test_float64_input_is_cast(tmp_path):
    path = tmp_path / "c.ckpt"
    ck.save_checkpoint(path, {"x": np.array([1.0 / 3.0], dtype=np.float64)})
    out = ck.load_checkpoint(path)["x"]
    assert out.dtype == np.float32
    assert out[0] == np.float32(1.0 / 3.0)


def test_failed_save_leaves_the_previous_file_whole(tmp_path):
    path = tmp_path / "final.dil1"
    ck.save_checkpoint(path, {"w": np.ones(4, np.float32)})
    good = path.read_bytes()
    with pytest.raises(ValueError):
        ck.save_checkpoint(path, {"w": np.zeros(4, np.float32),
                                  "x": "not a number"})
    assert path.read_bytes() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == ["final.dil1"]


# Each writer of the package, called once with good input and, with bad=True,
# with other input that fails after its first rows have been written.

def _write_config(outdir, monkeypatch, bad):
    cfg = micro_run_config()
    # "seed" sorts after every section, so json.dump has written those
    write_run_config(replace(cfg, seed=object()) if bad else cfg,
                     outdir / "config.json")


def _report(epoch_rows, metric_value):
    return RunReport(epoch_rows, [("mAP", metric_value)], {"total": 7}, 0.0)


def _write_report(outdir, monkeypatch, bad):
    rows = [(1, 0.5, 0.25, 1e-3), (2, 0.4, 0.2, 1e-3)]
    if bad:  # a row of three fields fails to unpack after one is written
        rows = [rows[0], (2, 0.4, 0.2)]
    write_run_artifacts(outdir, build_model(micro_run_config()),
                        _report(rows, 0.5))


def _write_summary(outdir, monkeypatch, bad):
    # "mAP" sorts after the flops keys, which json.dump has written
    write_run_artifacts(outdir, build_model(micro_run_config()),
                        _report([(1, 0.5, 0.25, 1e-3)],
                                object() if bad else 0.5))


def _write_ablation(outdir, monkeypatch, bad):
    def train_run(cfg, corpus, outdir=None, log=None):
        # the last setting's metrics are not numbers
        value = "x" if bad and cfg.decoder.R == 2 else 0.5
        return None, RunReport([], [(m, value) for m in ABLATION_METRICS],
                               {"total": 7}, 0.0)

    monkeypatch.setattr(harness, "train_run", train_run)
    ablate(micro_run_config(), "R", None, outdir=str(outdir))


def _write_attention(outdir, monkeypatch, bad):
    # two frames of one part, one source: four keys per query
    block = np.full((1, 2, 2, 4), 0.25)
    blocks = [block, np.full(block.shape, "x", dtype=object) if bad else block]
    monkeypatch.setattr(harness, "eval_forward",
                        lambda *args: (None, None, blocks))
    # micro's two encoder blocks make that source Z^2
    cfg = micro_run_config(decoder={"R": 2}, sampling={"chunks": 2},
                           partitions=1)
    harness.dump_attention(None, cfg, None, outdir / "attention.csv")


@pytest.mark.parametrize("name, write", [
    ("config.json", _write_config),
    ("report.csv", _write_report),
    ("summary.json", _write_summary),
    ("ablation_R.csv", _write_ablation),
    ("attention.csv", _write_attention),
], ids=["config", "report", "summary", "ablation", "attention"])
def test_a_failed_write_leaves_the_previous_file_whole(tmp_path, monkeypatch,
                                                       name, write):
    write(tmp_path, monkeypatch, bad=False)
    good = (tmp_path / name).read_bytes()
    with pytest.raises((TypeError, ValueError)):
        write(tmp_path, monkeypatch, bad=True)
    assert (tmp_path / name).read_bytes() == good
    assert list(tmp_path.glob("*.tmp")) == []


def test_a_failed_summary_write_leaves_the_previous_run_whole(tmp_path):
    names = ("final.dil1", "report.csv", "summary.json")
    write_run_artifacts(tmp_path, build_model(micro_run_config(seed=1)),
                        _report([(1, 0.5, 0.25, 1e-3)], 0.5))
    good = {name: (tmp_path / name).read_bytes() for name in names}
    # another run, every file of which differs, whose summary cannot be written
    with pytest.raises(TypeError):
        write_run_artifacts(tmp_path, build_model(micro_run_config(seed=2)),
                            _report([(1, 0.4, 0.2, 1e-3)], object()))
    assert {name: (tmp_path / name).read_bytes() for name in names} == good
    assert list(tmp_path.glob("*.tmp")) == []


def test_magic_bytes(tmp_path):
    path = tmp_path / "d.ckpt"
    ck.save_checkpoint(path, {})
    assert path.read_bytes()[:4] == b"DIL1"
    path.write_bytes(b"NOPE" + path.read_bytes()[4:])
    with pytest.raises(ck.CheckpointError,
                       match=r"bad magic b'NOPE', expected b'DIL1'$"):
        ck.load_checkpoint(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "e.ckpt"
    ck.save_checkpoint(path, {"w": np.ones((4, 4), np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[:len(blob) - 5])
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(path)


def test_empty_checkpoint(tmp_path):
    path = tmp_path / "f.ckpt"
    ck.save_checkpoint(path, {})
    assert ck.load_checkpoint(path) == {}


def test_unicode_names(tmp_path):
    path = tmp_path / "g.ckpt"
    ck.save_checkpoint(path, {"poids.γ": np.zeros(2, np.float32)})
    assert "poids.γ" in ck.load_checkpoint(path)


@pytest.mark.parametrize("name, shape", [
    (b"\xff\xfe", ()),             # record name is not UTF-8
    (b"w", (0, 2 ** 63)),           # extent numpy cannot hold
    (b"w", (0, 2 ** 62, 2 ** 62)),  # byte size numpy cannot hold
], ids=["name-not-utf8", "huge-extent", "huge-size"])
def test_malformed_record_raises_checkpoint_error(tmp_path, name, shape):
    path = tmp_path / "h.ckpt"
    path.write_bytes(b"DIL1" + struct.pack("<I", len(name)) + name
                     + struct.pack("<I", len(shape))
                     + b"".join(struct.pack("<Q", n) for n in shape)
                     + (b"\x00" * 4 if not shape else b""))
    with pytest.raises(ck.CheckpointError):
        ck.load_checkpoint(path)
