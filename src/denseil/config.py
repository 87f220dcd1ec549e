"""Run configuration: JSON in, validated dataclasses out, JSON back out.

Every section rejects unknown keys so a typo fails loudly instead of
silently training with a default.
"""

import json
import math
import sys
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

import numpy as np

from .checkpoint import replacing
from .data import CHANNELS, MAX_CORPUS_VALUES, SynthConfig
from .decoder import DecoderConfig
from .encoder import EncoderConfig
from .model import count_params, param_table
from .optim import lr_at

MAX_PARAMS = 10 ** 9  # the most parameters a loadable config's model may have


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
    triplet_weight: float = 1.0

    def __post_init__(self):
        if self.triplet_weight < 0:
            raise ConfigError("loss.triplet_weight must be nonnegative")


@dataclass(frozen=True)
class OptimConfig:
    lr: float = 3e-3

    def __post_init__(self):
        if self.lr < 0:
            raise ConfigError("optimizer.lr must be nonnegative")


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
        for want, have in (("chunks", "frames_per_tracklet"),
                           ("k_ids", "num_identities")):
            if getattr(self.sampling, want) > getattr(self.data, have):
                raise ConfigError("sampling.%s=%d exceeds data.%s=%d" % (
                    want, getattr(self.sampling, want), have,
                    getattr(self.data, have)))
        batch = math.prod((self.sampling.k_ids, self.sampling.t_per_id,
                           self.sampling.chunks, CHANNELS, self.data.height,
                           self.data.width))
        if batch > MAX_CORPUS_VALUES:
            raise ConfigError("a training batch would hold %d frame values, more"
                              " than the limit of %d" % (batch, MAX_CORPUS_VALUES))
        for name in ("k_ids", "t_per_id"):  # triplet mining needs both >= 2
            if self.loss.triplet_weight > 0 and getattr(self.sampling, name) < 2:
                raise ConfigError("sampling.%s must be at least 2 while "
                                  "loss.triplet_weight > 0" % name)
        try:
            lr_at(self.epochs - 1, self.optimizer.lr)
        except OverflowError:
            raise ConfigError("epochs=%d: the last epoch's learning-rate decay "
                              "overflows a float" % self.epochs) from None
        params = self.num_params()
        if params > MAX_PARAMS:
            raise ConfigError("the model would have %d parameters, more than "
                              "the limit of %d" % (params, MAX_PARAMS))

    def num_params(self) -> int:
        """The parameter count of ``model.build_model(self)``, from the
        shapes alone, so that a config too large to build fails at load."""
        return count_params(param_table(self))

    def np_dtype(self):
        return np.float32 if self.dtype == "float32" else np.float64


def _fits_float(key, value: int) -> int:
    """``value``, unless float(value) would overflow."""
    if abs(value) > sys.float_info.max:
        raise ConfigError("%s must fit in a float, got an int of %d digits"
                          % (key, len(str(abs(value)))))
    return value


def _check_value(key, value, hint, default):
    """``value`` if its JSON type fits the field annotation ``hint``.

    A list (or tuple) of ints becomes a tuple, an int passes as a float, a
    number (list elements too) must be finite as a float, and None only
    where the default is None.
    """
    if value is None and default is None:
        return None
    if typing.get_origin(hint) in (typing.Union, types.UnionType):  # X | None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is tuple:
        if type(value) in (list, tuple) and all(type(v) is int for v in value):
            return tuple(_fits_float(key, v) for v in value)
    elif type(value) is float and hint is float:
        if math.isfinite(value):
            return value
    elif type(value) is int and hint in (int, float):
        return _fits_float(key, value)
    elif type(value) is hint:
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
    with open(path, encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as err:  # nested past the stack
            raise ConfigError("%s: %s" % (path, err))
    return run_config_from_dict(obj)


def write_run_config(cfg: RunConfig, path):
    with replacing([path]) as (tmp,), open(tmp, "w") as f:
        json.dump(run_config_to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")
