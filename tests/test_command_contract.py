"""Bounded fuzz of whole commands through ``cli.main``: every run ends in 0, 2 or 3.

Each example runs one desk-profile command in-process with small overrides
(at most 5 iterations and 2 trials, and maybe an SNR at or beyond the
±3 080 dB limit) on a design file that may be corrupted
and an ``--out`` path that may be unusable. An exception escaping ``main``
would reach the user as a traceback with exit code 1. The examples are
derandomized and bounded, so the suite stays deterministic. The design
whose pilot factor has a zero column is also checked on its own, and so are
configs too large to hold in memory or to index, and a zero threshold that
would keep no subcarrier.
"""

import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pilotopt import PilotDesign, harness, load_experiment_config, make_baseline_design, save_design
from pilotopt.cli import main

_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

_COMMANDS = ["design", "baseline", "estimate", "report", "gradcheck", "sweep-lambda"]
_FIELD_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 1, 3, 16, 16.9, 4.7, 2**63, 1e300, float("nan"), "16", [], [0],
     [0, 3], [[1.0]], {}]
)
_ENTRY_VALUES = st.sampled_from([0.0, 1.0, -3.5, 1e-300, 1e-160, 1e150, 1e300, 2**70, True])
# A directory command writes into --out; baseline writes the file --out names.
# argv cannot carry a NUL byte, so no path holds one.
_OUT_PATHS = {
    "fresh": ("out", "out/design_b.json"),
    "nested": ("a/b/c", "a/b/c/design_b.json"),
    "empty": ("", ""),
    "existing_dir": ("existing_dir", "existing_dir"),
    "existing_file": ("afile", "afile"),
    "under_file": ("afile/sub", "afile/design_b.json"),
    "long_name": ("x" * 300, "x" * 300 + ".json"),
}


def _zero_column_design(cfg):
    """Allocation (0, 3); every pilot column is +1, -1 on adjacent antennas.

    Broadside steering sees equal antenna weights, so that Omega column is zero.
    """
    s = cfg.system
    blocks = np.zeros((s.num_subcarriers, s.num_tx, s.seq_len), dtype=complex)
    m = np.arange(s.seq_len)
    for k in (0, 3):
        blocks[k, m % 7, m] = 1.0
        blocks[k, m % 7 + 1, m] = -1.0
    blocks *= np.sqrt(s.total_power / np.sum(np.abs(blocks) ** 2))
    return PilotDesign(blocks=blocks, allocation=(0, 3), total_power=s.total_power)


def test_zero_column_design_report_and_estimate(tmp_path):
    design = tmp_path / "design_zero_column.json"
    save_design(_zero_column_design(load_experiment_config("desk")), design)
    cfg_file = tmp_path / "tiny.cfg"
    cfg_file.write_text("iterations = 5\nnum_trials = 2\n")
    base = ["--config", str(cfg_file)]
    # The report and the sensing operator both refuse the zero column.
    assert main(["report", *base, "--design", str(design), "--out", str(tmp_path / "r")]) == 3
    assert main(["estimate", *base, "--designs", str(design), "--out", str(tmp_path / "e")]) == 3


@pytest.mark.parametrize("command", [["design", "--out", "d"], ["gradcheck"],
                                     ["sweep-lambda", "--out", "s", "--lambdas", "1"]])
def test_config_too_large_for_memory_exits_2(tmp_path, monkeypatch, capsys, command):
    # g_tau = 100000 on desk asks numpy for 2.33 TiB of delay weights; the
    # dictionary build raises here instead, so nothing is allocated.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 2.33 TiB for an array")

    monkeypatch.setattr(harness, "build_dictionaries", out_of_memory)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "huge.cfg").write_text("g_tau = 100000\n")
    assert main([command[0], "--config", "huge.cfg", *command[1:]]) == 2
    assert "configuration error: Unable to allocate" in capsys.readouterr().err


_OVERSIZED = [("g_tau", 62, "design"), ("num_subcarriers", 63, "design"), ("num_tx", 63, "design"),
              ("num_rx", 63, "design"), ("seq_len", 63, "design"), ("seq_len", 63, "baseline"),
              ("num_paths", 63, "estimate"), ("num_trials", 62, "estimate"),
              ("num_trials", 63, "estimate")]


@pytest.mark.parametrize(("key", "power", "command"), _OVERSIZED,
                         ids=[f"{key}=2**{power}-{command}" for key, power, command in _OVERSIZED])
def test_config_too_large_to_index_exits_2(tmp_path, monkeypatch, capsys, key, power, command):
    # The config refuses each count before any array is allocated; numpy would
    # fail with "array is too big" or "Maximum allowed dimension exceeded"
    # instead of a MemoryError.
    monkeypatch.chdir(tmp_path)
    save_design(make_baseline_design(load_experiment_config("desk"), 4, 0), tmp_path / "d.json")
    (tmp_path / "huge.cfg").write_text(f"{key} = {2**power}\n")
    extra = {"design": ["--out", "d"], "baseline": ["--target-q", "4", "--out", "b.json"],
             "estimate": ["--designs", "d.json", "--out", "e"]}
    assert main([command, "--profile", "desk", "--config", "huge.cfg", *extra[command]]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["design", "--out", "d"],
                                     ["sweep-lambda", "--out", "s", "--lambdas", "1"]])
def test_threshold_keeping_no_subcarrier_exits_2(tmp_path, monkeypatch, capsys, command):
    # At zero_threshold_rel = 1 no block norm exceeds the largest, so no subcarrier is kept.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "thr.cfg").write_text("iterations = 5\nzero_threshold_rel = 1\n")
    assert main([command[0], "--config", "thr.cfg", *command[1:]]) == 2
    assert "zero_threshold_rel" in capsys.readouterr().err


def _corrupted_design_text(data, payload):
    """Apply up to two drawn edits to a design payload, maybe restoring its power."""
    x_re, x_im = np.array(payload["x_real"]), np.array(payload["x_imag"])
    k, m = payload["K"], payload["M"]
    text_edit = None
    for _ in range(data.draw(st.integers(0, 2))):
        edit = data.draw(st.sampled_from(["field", "entry", "zero_mean", "drop", "text"]))
        if edit == "field":
            payload[data.draw(st.sampled_from(sorted(payload)))] = data.draw(_FIELD_VALUES)
        elif edit == "entry":
            row = data.draw(st.integers(0, x_re.shape[0] - 1))
            col = data.draw(st.integers(0, x_re.shape[1] - 1))
            x_re = x_re.astype(object)
            x_re[row, col] = data.draw(_ENTRY_VALUES)
        elif edit == "text":
            text_edit = (data.draw(st.floats(0.0, 1.0)),
                         data.draw(st.sampled_from(["", "]", "{", "0", ",", "\x00"])))
        elif edit == "zero_mean":
            # Zero-mean pilot columns null the broadside Omega columns.
            for part in (x_re, x_im):
                part[:] = part - np.mean(part.astype(float), axis=0)
        elif isinstance(payload["allocation"], list) and payload["allocation"]:
            allocation = payload["allocation"]
            dropped = allocation.pop(data.draw(st.integers(0, 1)) % len(allocation))
            if isinstance(dropped, int) and 0 <= dropped < k:
                x_re[:, dropped * m:(dropped + 1) * m] = 0.0
                x_im[:, dropped * m:(dropped + 1) * m] = 0.0
    if data.draw(st.booleans()):
        with np.errstate(all="ignore"):
            power = float(np.sum(x_re.astype(float) ** 2) + np.sum(x_im**2))
            if np.isfinite(power) and power > 0 and isinstance(payload["Pt"], float):
                scale = np.sqrt(payload["Pt"] / power)
                x_re, x_im = x_re.astype(float) * scale, x_im * scale
    payload["x_real"], payload["x_imag"] = x_re.tolist(), x_im.tolist()
    text = json.dumps(payload)
    if text_edit is not None:
        pos = int(text_edit[0] * len(text))
        text = text[:pos] + text_edit[1] + text[pos + 1:]
    return text


@_SETTINGS
@given(data=st.data())
def test_command_exits_with_a_documented_code(tmp_path, monkeypatch, data):
    work = tmp_path / f"run_{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "existing_dir").mkdir()
    (work / "afile").write_text("")
    cfg = load_experiment_config("desk")
    save_design(make_baseline_design(cfg, 4, 0), work / "design_valid.json")
    source = (_zero_column_design(cfg) if data.draw(st.booleans())
              else make_baseline_design(cfg, data.draw(st.integers(1, 16)), 1))
    save_design(source, work / "design_fuzz.json")
    payload = json.loads((work / "design_fuzz.json").read_text())
    (work / "design_fuzz.json").write_text(_corrupted_design_text(data, payload))

    iterations = data.draw(st.integers(0, 5))
    num_trials = data.draw(st.integers(1, 2))
    command = data.draw(st.sampled_from(_COMMANDS))
    snr = data.draw(st.sampled_from([None, 10, 3080, 4000, -3080, -1e308]))
    (work / "tiny.cfg").write_text(
        f"iterations = {iterations}\nnum_trials = {num_trials}\n"
        + ("" if snr is None else f"snr_db_list = {snr}\n")
    )
    argv = [command, "--profile", "desk", "--config", "tiny.cfg"]
    seed = data.draw(st.sampled_from([None, 0, 3, -1, 2**64]))
    if seed is not None:
        argv += ["--seed", str(seed)]
    # Half the runs get a usable --out, so commands reach their later stages.
    out_kind = data.draw(st.just("fresh") | st.sampled_from(sorted(_OUT_PATHS)))
    out_dir, out_file = _OUT_PATHS[out_kind]
    if command == "design":
        argv += ["--out", out_dir, "--trace-every", str(data.draw(st.sampled_from([1, 3])))]
    elif command == "baseline":
        argv += ["--out", out_file]
        if data.draw(st.booleans()):
            argv += ["--match-design", "design_fuzz.json"]
        else:
            argv += ["--target-q", str(data.draw(st.sampled_from([0, 1, 4, 16, 17])))]
    elif command == "estimate":
        argv += ["--out", out_dir, "--threads", str(data.draw(st.integers(1, 2))), "--designs",
                 *data.draw(st.sampled_from([["design_fuzz.json"],
                                             ["design_fuzz.json", "design_valid.json"]]))]
        if data.draw(st.booleans()):
            argv.append("--allow-mixed")
    elif command == "report":
        argv += ["--out", out_dir, "--design", "design_fuzz.json"]
    elif command == "sweep-lambda":
        argv += ["--out", out_dir, "--lambdas", data.draw(st.sampled_from(["0", "1.5", "0.7,7"])),
                 "--target-q", str(data.draw(st.sampled_from([0, 4, 99])))]
    assert main(argv) in (0, 2, 3)


# Edge values for every optimizer key of the config, each run through the
# commands that optimize and through gradcheck. Floats go from below zero to
# the largest double, and 1e-310 is subnormal; at lambda_bar = 1e160 (and 1e200
# in the sweep) the gradient is finite but |grad|^2 overflows, and at a tiny q
# the penalty overflows. Ints stop at 10**12, a count no command allocates;
# iterations only tries counts a test can afford.
_EDGE_FLOATS = [0.0, -1.0, 1e-310, 1e-10, 1.0, 1e300, -1e300, 1.7e308]
_EDGE_INTS = [0, 1, 2, -1, 1000, 10**12]
_OPTIMIZER_KEYS = {
    "p": _EDGE_INTS, "q": _EDGE_FLOATS, "lambda_bar": [*_EDGE_FLOATS, 1e160],
    "learning_rate": _EDGE_FLOATS, "iterations": [0, 1, 2, -1], "beta1": _EDGE_FLOATS,
    "beta2": _EDGE_FLOATS, "eps": _EDGE_FLOATS, "opt_seed": _EDGE_INTS,
    "zero_threshold_rel": _EDGE_FLOATS,
}
_EDGE_CASES = [(key, value) for key, values in _OPTIMIZER_KEYS.items() for value in values]
_EDGE_COMMANDS = [["design"], ["sweep-lambda", "--lambdas", "0,1.5"],
                  ["sweep-lambda", "--lambdas", "1e200"], ["gradcheck"]]


# The 18 other keys (system, grids, channel, evaluation and base_seed), each
# run through design, a Q = 2 baseline, report and estimate on that baseline,
# and gradcheck. Ints stop at 3: every larger count only grows the arrays.
_SMALL_INTS = [0, 1, 2, 3, -1]
_OTHER_KEYS = {
    **dict.fromkeys(["bandwidth_hz", "total_power", "tx_spacing_wavelengths",
                     "rx_spacing_wavelengths", "rician_k_db"], _EDGE_FLOATS),
    **dict.fromkeys(["num_subcarriers", "num_tx", "num_rx", "seq_len", "num_delay_taps",
                     "g_theta", "g_phi", "g_tau", "num_paths", "num_trials", "max_sparsity",
                     "base_seed"], _SMALL_INTS),
    "snr_db_list": [*_EDGE_FLOATS, "0,0"],
}
_OTHER_CASES = [(key, value if isinstance(value, str) else repr(value))
                for key, values in _OTHER_KEYS.items() for value in values]


def test_edge_sweep_covers_every_optimizer_key():
    # ... and, with the other keys' sweep, every one of the 28 config keys.
    keys = {key for key, (section, _, _) in harness._CONFIG_KEYS.items() if section == "optimizer"}
    assert keys == set(_OPTIMIZER_KEYS)
    assert not keys & set(_OTHER_KEYS)
    assert set(harness._CONFIG_KEYS) == keys | set(_OTHER_KEYS)
    assert len(harness._CONFIG_KEYS) == 28


def _check_exit(capsys, argv, out):
    """Run ``argv`` through ``main`` and check the exit-code contract.

    Exit 0 with finite outputs, or exit 2 or 3 with one stderr line and no
    file under the directory ``out``; numpy prints no RuntimeWarning on the
    way. gradcheck (``out`` None) writes no file, so its finite report is
    its stdout.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], argv
    assert code in (0, 2, 3), argv
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    files = [path for path in out.rglob("*") if path.is_file()] if out and out.exists() else []
    if code == 0:
        assert (files or not out) and not err, argv
        texts = [path.read_text() for path in files] if out else [captured.out]
        assert not [text for text in texts if re.search("nan|inf", text, re.I)], argv
    else:
        assert not files and len(err) == 1, argv


@pytest.mark.parametrize(("key", "value"), _EDGE_CASES,
                         ids=[f"{key}={value!r}" for key, value in _EDGE_CASES])
def test_optimizer_key_at_edge_value(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "edge.cfg"
    cfg_file.write_text(f"iterations = 3\n{key} = {value!r}\n")
    for i, command in enumerate(_EDGE_COMMANDS):
        out = None if command == ["gradcheck"] else tmp_path / f"out_{i}"
        _check_exit(capsys, [*command, "--profile", "desk", "--config", str(cfg_file),
                             *(["--out", str(out)] if out else [])], out)


@pytest.mark.parametrize(("key", "value"), _OTHER_CASES,
                         ids=[f"{key}={value}" for key, value in _OTHER_CASES])
def test_other_key_at_edge_value(tmp_path, capsys, key, value):
    cfg_file = tmp_path / "edge.cfg"
    cfg_file.write_text(f"iterations = 3\nnum_trials = 1\n{key} = {value}\n")
    base = ["--profile", "desk", "--config", str(cfg_file)]
    baseline = tmp_path / "b" / "design_b.json"
    _check_exit(capsys, ["design", *base, "--out", str(tmp_path / "d")], tmp_path / "d")
    _check_exit(capsys, ["baseline", *base, "--target-q", "2", "--out", str(baseline)],
                baseline.parent)
    _check_exit(capsys, ["report", *base, "--design", str(baseline), "--out",
                         str(tmp_path / "r")], tmp_path / "r")
    _check_exit(capsys, ["estimate", *base, "--designs", str(baseline), "--out",
                         str(tmp_path / "e")], tmp_path / "e")
    _check_exit(capsys, ["gradcheck", *base], None)
