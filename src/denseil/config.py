"""Run configuration: JSON in, validated dataclasses out, JSON back out.

Every section rejects unknown keys so a typo fails loudly instead of
silently training with a default.
"""

import json
import math
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .data import SynthConfig
from .decoder import DecoderConfig
from .encoder import EncoderConfig


class ConfigError(ValueError):
    """Config file missing, malformed, or carrying bad keys/values."""


@dataclass(frozen=True)
class SamplingConfig:
    chunks: int = 8
    k_ids: int = 8
    t_per_id: int = 2

    def __post_init__(self):
        for name in ("chunks", "k_ids", "t_per_id"):
            if getattr(self, name) < 1:
                raise ConfigError("sampling.%s must be positive" % name)


@dataclass(frozen=True)
class LossConfig:
    margin: float = 0.3
    triplet_weight: float = 1.0

    def __post_init__(self):
        if self.margin < 0:
            raise ConfigError("loss.margin must be nonnegative")
        if self.triplet_weight < 0:
            raise ConfigError("loss.triplet_weight must be nonnegative")


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 3e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay_factor: float = 10.0
    decay_interval: int = 20

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("optimizer.lr must be nonnegative")
        if not 0.0 <= self.beta1 < 1.0 or not 0.0 <= self.beta2 < 1.0:
            raise ConfigError("optimizer betas must lie in [0, 1)")
        if self.decay_interval < 0:
            raise ConfigError("optimizer.decay_interval must be nonnegative")
        if self.decay_factor <= 0:
            raise ConfigError("optimizer.decay_factor must be positive")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    epochs: int = 60
    dtype: str = "float32"
    partitions: int = 4
    checkpoint_interval: int = 0
    data: SynthConfig = field(default_factory=SynthConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    optimizer: OptimConfig = field(default_factory=OptimConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be positive")
        if self.partitions < 1:
            raise ConfigError("partitions must be positive")
        if self.checkpoint_interval < 0:
            raise ConfigError("checkpoint_interval must be nonnegative")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be float32 or float64")
        # limits across sections: every config that loads can also train
        steps = self.encoder.num_downsampling()
        if self.data.height % (1 << steps) or self.data.width % (1 << steps):
            raise ConfigError("data.height and data.width must be divisible "
                              "by 2**%d for this encoder" % steps)
        final_height = self.data.height >> steps
        if self.partitions > final_height:
            raise ConfigError("partitions=%d exceeds the final encoder map "
                              "height %d" % (self.partitions, final_height))
        self.decoder.sources_for(self.encoder.num_blocks)

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def _check_value(key, value, hint, default):
    """``value`` if its JSON type fits the field annotation ``hint``.

    A list (or tuple) of ints becomes a tuple, an int passes as a float, a
    float must be finite, and None passes only where the default is None.
    """
    if value is None and default is None:
        return None
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if type(value) in (list, tuple) and all(type(v) is int for v in value):
            return tuple(value)
    elif type(value) is float and hint is float:
        if math.isfinite(value):
            return value
    elif type(value) is hint or (type(value), hint) == (int, float):
        return value
    kind = "list of int" if typing.get_origin(hint) is tuple else hint.__name__
    raise ConfigError("%s must be %s, got %s" % (key, kind, json.dumps(value)))


def _build(cls, obj, name=None):
    """The dataclass ``cls`` from a JSON object; ``name`` is its section."""
    if not isinstance(obj, dict):
        raise ConfigError("section %r must be an object" % name if name
                          else "config root must be an object")
    prefix = name + "." if name else ""
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError("unknown key %s%s" % (prefix, unknown[0]))
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in obj.items():
        if is_dataclass(hints[key]):
            kwargs[key] = _build(hints[key], value, key)
        else:
            kwargs[key] = _check_value(prefix + key, value, hints[key],
                                       known[key].default)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError("section %r: %s" % (name, err) if name else str(err))


def run_config_from_dict(obj) -> RunConfig:
    return _build(RunConfig, obj)


def run_config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def load_run_config(path) -> RunConfig:
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as err:
            raise ConfigError("%s: %s" % (path, err))
    return run_config_from_dict(obj)


def write_run_config(cfg: RunConfig, path):
    with open(path, "w") as f:
        json.dump(run_config_to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")
