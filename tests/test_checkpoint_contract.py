"""The checkpoint is read against the parameter table, and ``DIL1`` names
today's model definition.

``golden/`` holds the ``final.dil1`` and ``config.json`` of a 1-epoch micro
run (``micro_dict(epochs=1)``, corpus from ``gen-data`` on the same config).
A change that alters what a record computes must bump
``checkpoint.MAGIC``, and this file is then the one the loader refuses.
"""

import pathlib

import pytest

from denseil import model as model_mod
from denseil.config import load_run_config
from denseil.model import build_model, forward_batch, load_model, save_model
from micro import micro_run_config
from test_config import weights_sha256
from test_model import random_clips

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
GOLDEN_SHA = "0e444f3f93b1d2a97d28a1970e1084b851d47db65dc5a604fb3a5458cff38f59"


def test_golden_checkpoint_loads_and_saves_byte_for_byte(tmp_path):
    cfg = load_run_config(GOLDEN / "config.json")
    model = load_model(GOLDEN / "final.dil1", cfg)
    assert weights_sha256(model) == GOLDEN_SHA
    assert {st.num_batches for st in model.states.values()} == {2}
    save_model(tmp_path / "again.dil1", model)
    assert ((tmp_path / "again.dil1").read_bytes()
            == (GOLDEN / "final.dil1").read_bytes())


def test_load_draws_no_random_numbers(tmp_path, monkeypatch):
    cfg = micro_run_config()
    saved = build_model(cfg)
    forward_batch(saved, random_clips(cfg), training=True)  # warm BN stats
    save_model(tmp_path / "m.dil1", saved)

    def no_stream(*args):
        raise AssertionError("load_model opened a random stream")

    monkeypatch.setattr(model_mod, "stream", no_stream)
    with pytest.raises(AssertionError, match="random stream"):
        build_model(cfg)  # the patch reaches the model module's draws
    back = load_model(tmp_path / "m.dil1", cfg)
    assert weights_sha256(back) == weights_sha256(saved)
    for param in back.params.values():
        assert param.requires_grad and param.data.dtype == cfg.np_dtype()
    for name, st in saved.states.items():
        assert back.states[name].num_batches == st.num_batches
