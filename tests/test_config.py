import dataclasses
import hashlib
import json
import os
import re

import numpy as np
import pytest

from denseil import config
from denseil.config import (ConfigError, RunConfig, load_run_config,
                            run_config_from_dict, run_config_to_dict,
                            write_run_config)
from denseil.model import build_model


def test_empty_dict_gives_desk_defaults():
    cfg = run_config_from_dict({})
    assert cfg.seed == 0
    assert cfg.epochs == 60
    assert cfg.partitions == 4
    assert cfg.np_dtype() == np.float32
    assert cfg.data.num_identities == 16
    assert cfg.encoder.channels == (16, 32, 64, 128)
    assert cfg.decoder.d == 64
    assert cfg.decoder.dense_sources is None
    assert cfg.sampling.chunks == 8
    assert cfg.sampling.k_ids == 8
    assert cfg.sampling.t_per_id == 2
    assert cfg.optimizer.lr == 3e-3
    assert cfg.loss.triplet_weight == 1.0


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="learning_rate"):
        run_config_from_dict({"learning_rate": 0.1})


def test_unknown_section_key_rejected():
    with pytest.raises(ConfigError, match="decoder.*depth"):
        run_config_from_dict({"decoder": {"depth": 3}})


def test_bad_values_rejected():
    with pytest.raises(ConfigError):
        run_config_from_dict({"epochs": 0})
    with pytest.raises(ConfigError):
        run_config_from_dict({"dtype": "float16"})
    with pytest.raises(ConfigError, match="decoder"):
        run_config_from_dict({"decoder": {"d": 63}})  # not divisible by heads
    with pytest.raises(ConfigError, match="encoder"):
        run_config_from_dict({"encoder": {"channels": [32, 16]}})
    with pytest.raises(ConfigError, match="data"):
        run_config_from_dict({"data": {"occlusion_prob": 2.0}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"sampling": {"chunks": 0}})
    with pytest.raises(ConfigError, match=r"\(1, 1, 2\) name a block twice"):
        run_config_from_dict({"decoder": {"dense_sources": [1, 1, 2]}})


def test_epochs_stop_where_the_learning_rate_decay_would_overflow():
    # the last epoch's rate is lr / 10.0 ** ((epochs - 1) // 20), and
    # 10.0 ** 309 overflows a float
    assert run_config_from_dict({"epochs": 6180}).epochs == 6180
    with pytest.raises(ConfigError, match="epochs=6181: .* overflows a float"):
        run_config_from_dict({"epochs": 6181})


def weights_sha256(model):
    """sha256 over the parameters and batch-norm states, by sorted name:
    each array's name, dtype and shape, then its bytes."""
    arrays = {name: p.data for name, p in model.params.items()}
    for name, st in model.states.items():
        arrays[name + ".running_mean"] = st.running_mean
        arrays[name + ".running_var"] = st.running_var
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = arrays[name]
        h.update(("%s %s %s\n" % (name, a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("obj, sha", [pytest.param(obj, sha, id=json.dumps(obj))
                                      for obj, sha in [
    ({}, "1f6243c7a4b5ca41ca27ff687f95873fe39321749bbb3badcb609f2acd4825e8"),
    ({"decoder": {"R": 0}},
     "fd923d05abf38e75643b673b49659adcdf9b813e4b467203d00b3a35f3e882f7"),
    ({"decoder": {"R": 3, "d": 32}},
     "f8c6a659d9dffa156ac7ff33234bf928759d4ff7207bb6a63da2e24cf44e806e"),
    ({"decoder": {"dense_sources": []}},
     "31a3ce02f763f5acbf51558d9dffd7a60ae464b702400f04f0c455ad280d22c5"),
    ({"decoder": {"dense_sources": [4]}},
     "97456a338bf9b16612f2cf1b8ea297faa87b93617c6fcd93ab54ba8d81da8dce"),
    ({"decoder": {"fusion": "summation"}},
     "13a6bc3df0f7657db411670d463a03f3cd459809fb499cca0d42a8d417186543"),
    ({"decoder": {"fusion": "concatenation", "dense_sources": [1, 3]}},
     "aeaef7d5fce5976d5eae0d1a4e65970bbfa6f91c8712af79a4f0feb08bd29ad7"),
    ({"encoder": {"channels": [4, 8, 16]}, "data": {"num_identities": 40}},
     "1da6197ccd3a894f911e0a74d0fdb00c3f9a5fc8625aac10e146a9bee2946d2e"),
    ({"dtype": "float64", "seed": 7, "decoder": {"fusion": "concatenation"}},
     "53c176de479e5254a30a88b4db4708335a9977f10942764f7e72cd938e42c42d"),
]])
def test_num_params_counts_what_build_model_builds(obj, sha):
    cfg = run_config_from_dict(obj)
    built = build_model(cfg)
    assert cfg.num_params() == sum(p.data.size for p in built.params.values())
    assert weights_sha256(built) == sha  # the initial weights, draw for draw


def test_parameter_limit_is_inclusive(monkeypatch):
    count = RunConfig().num_params()
    monkeypatch.setattr(config, "MAX_PARAMS", count)
    run_config_from_dict({})
    monkeypatch.setattr(config, "MAX_PARAMS", count - 1)
    with pytest.raises(ConfigError, match="parameters, more than the limit"):
        run_config_from_dict({})


def test_lists_become_tuples():
    cfg = run_config_from_dict({
        "encoder": {"channels": [8, 16]},
        "decoder": {"dense_sources": [2], "d": 16, "heads": 2},
    })
    assert cfg.encoder.channels == (8, 16)
    assert cfg.decoder.dense_sources == (2,)


def test_round_trip_through_dict():
    cfg = run_config_from_dict({
        "seed": 7,
        "dtype": "float64",
        "partitions": 2,
        "decoder": {"R": 1, "d": 32, "heads": 2, "fusion": "summation"},
        "encoder": {"channels": [8, 16, 32]},
    })
    again = run_config_from_dict(run_config_to_dict(cfg))
    assert again == cfg


def test_file_round_trip(tmp_path):
    cfg = run_config_from_dict({"seed": 3, "epochs": 5})
    path = tmp_path / "run.json"
    write_run_config(cfg, path)
    again = load_run_config(path)
    assert again == cfg


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_run_config(tmp_path / "absent.json")


def test_section_must_be_object():
    with pytest.raises(ConfigError):
        run_config_from_dict({"decoder": 5})


def _readme_configuration():
    """README's Configuration section: its top-level-keys paragraph and
    one bullet per section, each bullet's lines joined."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    paragraphs = section.split("\n\n")
    top = next(p for p in paragraphs if "Top-level keys:" in p)
    bullets = {}
    listing = next(p for p in paragraphs if p.startswith("- `"))
    for line in listing.splitlines():
        match = re.match(r"- `(\w+)`:", line)
        if match:
            name = match.group(1)
            bullets[name] = ""
        bullets[name] += " " + line.strip()
    return top, bullets


def test_readme_configuration_names_every_settable_key():
    top, bullets = _readme_configuration()
    settable = 0
    for f in dataclasses.fields(RunConfig):
        if dataclasses.is_dataclass(f.type):
            assert f.name in bullets, f.name
            for sub in dataclasses.fields(f.type):
                assert "`%s`" % sub.name in bullets[f.name], (f.name, sub.name)
                settable += 1
        else:
            assert "`%s`" % f.name in top, f.name
            settable += 1
    assert sorted(bullets) == sorted(
        f.name for f in dataclasses.fields(RunConfig)
        if dataclasses.is_dataclass(f.type))
    assert settable == 26


def test_readme_configuration_defaults_load_as_the_defaults():
    _, bullets = _readme_configuration()
    default = run_config_to_dict(run_config_from_dict({}))
    checked = set()
    for section, text in bullets.items():
        for key, doc in re.findall(r"`(\w+)` \(([^)]*)\)", text):
            literal = doc.split(";")[0].strip()
            quoted = re.fullmatch(r"`(\w+)`", literal)
            value = quoted.group(1) if quoted else json.loads(literal)
            cfg = run_config_from_dict({section: {key: value}})
            assert run_config_to_dict(cfg) == default, (section, key, value)
            checked.add((section, key))
    # every section key states its default as a literal
    assert checked == {(section, key) for section, keys in default.items()
                       if isinstance(keys, dict) for key in keys}
