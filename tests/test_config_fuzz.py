"""Property test: a mutated config either loads and round-trips, or fails
with ConfigError alone."""

import copy
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from denseil.config import (ConfigError, run_config_from_dict,  # noqa: E402
                            run_config_to_dict)
from micro import MICRO  # noqa: E402

# every key spelled out, and a sparse dict that leaves most to defaults
BASES = [run_config_to_dict(run_config_from_dict({})), MICRO]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)
EDGE_VALUES = (-1, 0, 1, 2 ** 64, 10 ** 400)
EDGE_INTS = st.integers(-3, 3) | st.sampled_from(EDGE_VALUES)


def _paths(obj):
    """Key paths to every top-level key and every key inside a section."""
    for key, value in obj.items():
        yield (key,)
        if isinstance(value, dict):
            for sub in value:
                yield (key, sub)


def _check(obj):
    try:
        cfg = run_config_from_dict(obj)
    except ConfigError:
        return
    text = json.dumps(run_config_to_dict(cfg), allow_nan=False)
    assert run_config_from_dict(json.loads(text)) == cfg


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_mutated_config_raises_config_error_or_round_trips(data):
    obj = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(sorted(_paths(obj))))
        owner = obj[path[0]] if len(path) == 2 else obj
        key = path[-1]
        op = data.draw(st.sampled_from(["drop", "unknown", "value", "int"]))
        if op == "drop":
            del owner[key]
        elif op == "unknown":
            owner[data.draw(st.text(min_size=1, max_size=8))] = 1
        elif op == "value":
            owner[key] = data.draw(JSON_VALUES)
        elif isinstance(owner[key], list):
            owner[key] = data.draw(st.lists(EDGE_INTS, max_size=5))
        else:
            owner[key] = data.draw(EDGE_INTS)
    _check(obj)


def test_every_int_field_at_its_edges_raises_config_error_or_round_trips():
    # one field at a time, so no other bad value can mask the one under test
    base = BASES[0]
    paths = [path for path in _paths(base) if len(path) == 2
             or not isinstance(base[path[0]], dict)]
    for path in paths:
        for value in EDGE_VALUES:
            obj = copy.deepcopy(base)
            owner = obj[path[0]] if len(path) == 2 else obj
            owner[path[-1]] = value
            _check(obj)
