import numpy as np
import pytest

from denseil.config import (ConfigError, load_run_config,
                            run_config_from_dict, run_config_to_dict,
                            write_run_config)


def test_empty_dict_gives_desk_defaults():
    cfg = run_config_from_dict({})
    assert cfg.seed == 0
    assert cfg.epochs == 60
    assert cfg.partitions == 4
    assert cfg.np_dtype() == np.float32
    assert cfg.data.num_identities == 16
    assert cfg.encoder.channels == (16, 32, 64, 128)
    assert cfg.decoder.d == 64
    assert cfg.decoder.variant == "DenseIL"
    assert cfg.sampling.chunks == 8
    assert cfg.sampling.k_ids == 8
    assert cfg.sampling.t_per_id == 2
    assert cfg.optimizer.lr == 3e-3
    assert cfg.optimizer.decay_interval == 20
    assert cfg.loss.margin == 0.3


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
        run_config_from_dict({"optimizer": {"beta1": 1.0}})
    with pytest.raises(ConfigError, match="decay_factor"):
        run_config_from_dict({"optimizer": {"decay_factor": 0}})
    with pytest.raises(ConfigError):
        run_config_from_dict({"sampling": {"chunks": 0}})


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
