"""Property tests of the input contract behind exit code 2.

A design file or a config file, however corrupted, either loads or raises
``ConfigError`` (which the CLI maps to exit code 2); no other exception may
escape, because it would surface as a traceback with exit code 1. The
examples are derandomized and bounded, so the suite stays deterministic.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pilotopt import (
    ConfigError,
    PilotDesign,
    load_design,
    load_experiment_config,
    save_design,
)
from pilotopt.harness import PROFILES

_SETTINGS = settings(
    max_examples=70,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_ODD_NUMBERS = st.sampled_from(
    [0, -1, 1, 2, 3, 2**63, -(2**63) - 1, 10**400, 1e-300, 1e300, float("inf"), float("-inf"),
     float("nan"), True, False]
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | _ODD_NUMBERS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=12,
)


def _small_design_payload(tmp_path):
    blocks = np.zeros((3, 2, 2), dtype=complex)
    blocks[0] = [[1.0, 1j], [0.5, -1.0]]
    blocks[2] = [[0.25j, 2.0], [-1.0, 0.0]]
    design = PilotDesign(blocks=blocks, allocation=(0, 2),
                         total_power=float(np.sum(np.abs(blocks) ** 2)))
    path = tmp_path / "valid.json"
    save_design(design, path)
    return path.read_bytes()


def _loads_or_config_error(path):
    try:
        assert isinstance(load_design(path), PilotDesign)
    except ConfigError:
        pass


@_SETTINGS
@given(edits=st.lists(
    st.tuples(st.floats(0.0, 1.0), st.binary(max_size=4), st.integers(0, 6)),
    min_size=1, max_size=4,
))
def test_byte_corrupted_design_loads_or_config_error(tmp_path, edits):
    raw = _small_design_payload(tmp_path)
    for where, insert, delete in edits:
        pos = int(where * len(raw))
        raw = raw[:pos] + insert + raw[pos + delete:]
    path = tmp_path / "design_corrupt.json"
    path.write_bytes(raw)
    _loads_or_config_error(path)


@_SETTINGS
@given(data=st.data())
def test_field_corrupted_design_loads_or_config_error(tmp_path, data):
    payload = json.loads(_small_design_payload(tmp_path))
    for _ in range(data.draw(st.integers(1, 3))):
        key = data.draw(st.sampled_from(sorted(payload) + ["extra"]))
        target = payload.get(key)
        action = data.draw(st.sampled_from(["replace", "delete", "element"]))
        if action == "delete":
            payload.pop(key, None)
        elif action == "element" and isinstance(target, list) and target:
            i = data.draw(st.integers(0, len(target) - 1))
            if isinstance(target[i], list) and target[i]:
                j = data.draw(st.integers(0, len(target[i]) - 1))
                target[i][j] = data.draw(_JSON_VALUES)
            else:
                target[i] = data.draw(_JSON_VALUES)
        else:
            payload[key] = data.draw(_JSON_VALUES)
    path = tmp_path / "design_corrupt.json"
    path.write_text(json.dumps(payload))
    _loads_or_config_error(path)


_KEYS = sorted(PROFILES["desk"])
_RAW_VALUES = (
    st.text(max_size=12)
    | st.integers().map(str)
    | st.floats().map(repr)
    | st.sampled_from(["", "0", "-1", "1e999", "nan", "inf", "0x10", "1_000", "10" * 300, " 2 ",
                       "0, 5", ",,", "1,nan", "omp", "4.5"])
)
_LINES = (
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(_KEYS), _RAW_VALUES)
    | st.builds(lambda k, v: f"{k}={v}", st.text(max_size=8), _RAW_VALUES)
    | st.text(max_size=20)
    | st.just("# comment")
)


@_SETTINGS
@given(lines=st.lists(_LINES, max_size=6), tail=st.binary(max_size=3))
def test_random_config_loads_or_config_error(tmp_path, lines, tail):
    path = tmp_path / "random.cfg"
    path.write_bytes("\n".join(lines).encode() + tail)
    try:
        load_experiment_config("desk", path)
    except ConfigError:
        pass
