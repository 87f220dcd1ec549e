"""Property test: a mutated tracklet, checkpoint or manifest ends the CLI
with one documented exit code and a one-line message, never a traceback.

Each example mutates one valid file written by the library, runs the
command that reads it in-process and checks the outcome: exit 0 with
nothing on stderr, or exit 1/2/3 with a single ``denseil: ...`` line. An
exception escaping ``main`` fails the test. Mutations whose outcome is
fixed (truncation, a non-finite value, a pixel outside [0, 1], a dropped
manifest column) must give exit 3, the code for a malformed file. A
RuntimeWarning fails a tracklet or checkpoint example: every pixel that
could overflow inside numpy is out of range and rejected on read, and a
finite but huge checkpoint value that overflows inside an op raises under
the CLI's floating-point error state and exits 2. For manifests numpy's
RuntimeWarnings are filtered, as in test_cli.py.
"""

import contextlib
import csv
import io
import shutil
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from denseil.cli import main  # noqa: E402
from denseil.config import run_config_from_dict  # noqa: E402
from denseil.data import write_corpus  # noqa: E402
from denseil.harness import train_run  # noqa: E402
from micro import micro_corpus, micro_dict  # noqa: E402

TRACKLET = "id000_t02_cam2.dilt"
HEADER = 4 + 28  # magic, then the <7I header
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# extents and ranks at the edges of what a header field can hold
FORGED = st.sampled_from([0, 1, 2, 3, 7, 8, 16, 2 ** 31, 2 ** 32 - 1]) \
    | st.integers(0, 64)
FORGED_U64 = FORGED | st.sampled_from([2 ** 63, 2 ** 64 - 1])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A micro corpus, a one-epoch run trained on it, and a scratch dir."""
    root = tmp_path_factory.mktemp("fuzz")
    write_corpus(micro_corpus(), root / "corpus")
    cfg = run_config_from_dict(micro_dict(epochs=1))
    train_run(cfg, micro_corpus(), outdir=str(root / "run"))
    shutil.copytree(root / "corpus", root / "mutated")
    return root


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code in (1, 2, 3), code
        assert err.startswith("denseil: ") and err.count("\n") == 1, err
    return code


def _dump_attn(root, checkpoint, tracklet):
    return _run(["dump-attn", "--checkpoint", checkpoint,
                 "--tracklet", tracklet, "--out", root / "attn.csv"])


def _mutate_bytes(data, blob, floats_at=()):
    """Truncate, flip a byte or, given the offsets ``floats_at`` where
    values live, write a non-finite float. Returns (blob, must_fail)."""
    ops = ["truncate", "flip"] + (["non-finite"] if floats_at else [])
    op = data.draw(st.sampled_from(ops))
    if op == "truncate":
        return blob[:data.draw(st.integers(0, len(blob) - 1))], True
    if op == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        mask = data.draw(st.integers(1, 255))
        return blob[:at] + bytes([blob[at] ^ mask]) + blob[at + 1:], False
    at = data.draw(st.sampled_from(floats_at))
    value = struct.pack("<f", data.draw(NON_FINITE))
    return blob[:at] + value + blob[at + 4:], True


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_mutated_tracklet(files, data):
    valid = blob = (files / "corpus" / TRACKLET).read_bytes()
    if data.draw(st.booleans()):
        at = 4 + 4 * data.draw(st.integers(0, 6))  # identity .. W
        blob = blob[:at] + struct.pack("<I", data.draw(FORGED)) + blob[at + 4:]
        must_fail = False
    else:
        blob, must_fail = _mutate_bytes(data, blob,
                                        range(HEADER, len(blob) - 3, 4))
    if len(blob) == len(valid):  # the pixels in place: each must be in [0, 1]
        pixels = np.frombuffer(blob, "<f4", offset=HEADER)
        must_fail |= not (pixels.min() >= 0 and pixels.max() <= 1)
    path = files / "bad.dilt"
    path.write_bytes(blob)
    code = _dump_attn(files, files / "run" / "final.dil1", path)
    if must_fail:
        assert code == 3


def _records(blob):
    """(name, offset of the rank field, offset of the data, element count)
    for every record of a valid checkpoint."""
    out, off = [], 4
    while off < len(blob):
        (n,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4:off + 4 + n].decode()
        rank_at = off + 4 + n
        (rank,) = struct.unpack_from("<I", blob, rank_at)
        shape = struct.unpack_from("<%dQ" % rank, blob, rank_at + 4)
        data_at = rank_at + 4 + 8 * rank
        out.append((name, rank_at, data_at, int(np.prod(shape))))
        off = data_at + 4 * out[-1][3]
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_mutated_checkpoint(files, data):
    run = files / "run"
    blob = (run / "final.dil1").read_bytes()
    records = _records(blob)
    name, rank_at, data_at, _ = data.draw(st.sampled_from(records))
    op = data.draw(st.sampled_from(["rank", "extent", "name length", "bytes"]))
    if op == "bytes":
        floats_at = [d + 4 * i for _, _, d, n in records for i in range(n)]
        blob, must_fail = _mutate_bytes(data, blob, floats_at)
    else:
        if op == "rank":
            at, fmt, value = rank_at, "<I", data.draw(FORGED)
        elif op == "name length":
            at, fmt, value = rank_at - len(name) - 4, "<I", data.draw(FORGED)
        else:
            if data_at == rank_at + 4:  # a 0-d record has no extent
                return
            axis = data.draw(st.integers(0, (data_at - rank_at - 4) // 8 - 1))
            at, fmt = rank_at + 4 + 8 * axis, "<Q"
            value = data.draw(FORGED_U64)
        size = struct.calcsize(fmt)
        blob = blob[:at] + struct.pack(fmt, value) + blob[at + size:]
        must_fail = (blob != (run / "final.dil1").read_bytes())
    (files / "bad.dil1").write_bytes(blob)
    # the checkpoint is read next to its run's config.json
    shutil.copy(run / "config.json", files / "config.json")
    code = _dump_attn(files, files / "bad.dil1",
                      files / "corpus" / TRACKLET)
    if must_fail:
        assert code == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, database=None)
@given(data=st.data())
def test_mutated_manifest(files, data):
    with open(files / "corpus" / "manifest.csv", newline="") as f:
        rows = list(csv.reader(f))
    op = data.draw(st.sampled_from(["drop column", "reorder columns",
                                    "relabel columns", "bytes"]))
    must_fail = op == "drop column"
    if op == "bytes":
        blob, _ = _mutate_bytes(
            data, (files / "corpus" / "manifest.csv").read_bytes())
    else:
        order = data.draw(st.permutations(range(4)))
        if op == "drop column":
            order = order[:data.draw(st.integers(0, 3))]
        header = [rows[0][i] for i in order]
        if op == "relabel columns":  # the header alone moves
            header = [rows[0][i] for i in data.draw(st.permutations(range(4)))]
        text = io.StringIO()
        csv.writer(text).writerows(
            [header] + [[row[i] for i in order] for row in rows[1:]])
        blob = text.getvalue().encode()
    (files / "mutated" / "manifest.csv").write_bytes(blob)
    code = _run(["eval", "--checkpoint", files / "run" / "final.dil1",
                 "--data", files / "mutated"])
    if must_fail:
        assert code == 3
    elif op == "reorder columns":
        assert code == 0


def test_unmutated_files_pass(files):
    # so each failure above comes from its mutation
    assert _dump_attn(files, files / "run" / "final.dil1",
                      files / "corpus" / TRACKLET) == 0
    assert _run(["eval", "--checkpoint", files / "run" / "final.dil1",
                 "--data", files / "corpus"]) == 0
