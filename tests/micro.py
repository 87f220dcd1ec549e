"""Small, fast run configurations shared by the model/harness/cli tests."""

import copy
import functools
import json

from denseil.config import run_config_from_dict
from denseil.data import generate_dataset

MICRO = {
    "seed": 0,
    "epochs": 2,
    "dtype": "float32",
    "partitions": 2,
    "data": {"num_identities": 4, "tracklets_per_identity": 4, "cameras": 3,
             "frames_per_tracklet": 8, "height": 16, "width": 8,
             "occlusion_prob": 0.2, "jitter": 1, "seed": 1},
    "encoder": {"channels": [6, 12]},
    "decoder": {"R": 1, "d": 12, "heads": 2},
    "sampling": {"chunks": 4, "k_ids": 2, "t_per_id": 2},
    "optimizer": {"lr": 1e-3, "decay_interval": 1},
}


def micro_dict(**overrides):
    obj = copy.deepcopy(MICRO)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(obj.get(key), dict):
            obj[key].update(value)
        else:
            obj[key] = value
    return obj


def micro_run_config(**overrides):
    return run_config_from_dict(micro_dict(**overrides))


@functools.lru_cache(maxsize=8)
def _corpus_for(key):
    return generate_dataset(run_config_from_dict(json.loads(key)).data)


def micro_corpus(**overrides):
    return _corpus_for(json.dumps(micro_dict(**overrides), sort_keys=True))
