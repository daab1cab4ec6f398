"""Experiment harness: configuration, Monte-Carlo runs, persistence.

Configs are flat ``key = value`` text files layered on top of a named
profile (``desk`` or ``paper``); unknown keys are errors so typos cannot
silently fall back to profile defaults. All outputs are plot-ready CSV or
JSON. With a fixed base seed the emitted bytes are reproducible run to run;
neither ``run_estimate``'s ``threads`` nor the BLAS thread count changes
them (checked with scipy-openblas 0.3.31 at 1 and 2 threads; another BLAS
build may round differently).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .channel import SystemConfig, _exceeds_array_limit, assemble_channel, sample_channel
from .coherence import (
    CoherenceReport,
    PilotDesign,
    build_sensing_matrix,
    coherence_report,
)
from .dictionary import GridSpec, build_dictionaries
from .errors import ConfigError, DegenerateInputError
from .estimator import SOLVERS, nmse, reconstruct_channel, snr_sigma2, synthesize_measurement
from .optimizer import (
    OptimizationTrace,
    OptimizerConfig,
    gaussian_init,
    loss_and_gradient,
    optimize,
)

__all__ = [
    "ChannelModelConfig",
    "EvaluationConfig",
    "ExperimentConfig",
    "load_experiment_config",
    "save_design",
    "load_design",
    "run_design",
    "make_baseline_design",
    "run_baseline",
    "run_estimate",
    "run_report",
    "run_gradcheck",
    "run_sweep",
]

# Seed-sequence stream tags; they decorrelate RNG streams that share a base
# seed (channel draws, measurement noise, baseline generation, gradcheck).
_NOISE_STREAM = 1
_BASELINE_STREAM = 2
_GRADCHECK_STREAM = 3

# Gradient check: random (X, direction) pairs, central-difference step, relative tolerance.
_GRADCHECK_PAIRS = 10
_GRADCHECK_STEP = 1e-5
_GRADCHECK_TOL = 1e-4

# Within ±_MAX_DB dB, 10^(value/10) is a finite, nonzero float.
_MAX_DB = 10 * sys.float_info.max_10_exp


@dataclass(frozen=True)
class ChannelModelConfig:
    num_paths: int
    rician_k_db: float

    def __post_init__(self) -> None:
        if not abs(self.rician_k_db) <= _MAX_DB:  # nan fails too
            raise ValueError(f"rician_k_db must be finite and lie within ±{_MAX_DB} dB")
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")


@dataclass(frozen=True)
class EvaluationConfig:
    snr_db_list: tuple[float, ...]
    num_trials: int
    max_sparsity: int

    def __post_init__(self) -> None:
        if not self.snr_db_list:
            raise ValueError("snr_db_list must be non-empty")
        if not all(abs(v) <= _MAX_DB for v in self.snr_db_list):  # nan fails too
            raise ValueError(f"snr_db_list entries must lie within ±{_MAX_DB} dB")
        if len(set(self.snr_db_list)) != len(self.snr_db_list):
            raise ValueError("snr_db_list entries must be distinct")
        if self.num_trials < 1:
            raise ValueError("num_trials must be >= 1")
        if self.max_sparsity < 1:
            raise ValueError("max_sparsity must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    system: SystemConfig
    grids: GridSpec
    optimizer: OptimizerConfig
    channel: ChannelModelConfig
    evaluation: EvaluationConfig
    base_seed: int

    def __post_init__(self) -> None:
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if _exceeds_array_limit(self.system.num_subcarriers, self.channel.num_paths):
            raise ValueError("num_paths is too large for the (K, L) path weights")
        if not math.isfinite(self.system.max_delay_s * (self.grids.g_tau - 1)):
            raise ValueError("bandwidth is too small: the delay grid's last point overflows")


_DESK_PROFILE = {
    "bandwidth_hz": 1.92e6,
    "num_subcarriers": 16,
    "num_tx": 8,
    "num_rx": 4,
    "seq_len": 4,
    "total_power": 512.0,
    "num_delay_taps": 8,
    "tx_spacing_wavelengths": 0.5,
    "rx_spacing_wavelengths": 0.5,
    "g_theta": 8,
    "g_phi": 16,
    "g_tau": 16,
    "p": 4,
    "q": 1.0,
    "lambda_bar": 1.5,
    # Three times OptimizerConfig's 1e-3 default, so that T=2000 reaches the
    # converged plateau on desk; the paper profile inherits it.
    "learning_rate": 3e-3,
    "iterations": 2000,
    "beta1": 0.9,
    "beta2": 0.999,
    "eps": 1e-8,
    "opt_seed": 0,
    "zero_threshold_rel": 1e-3,
    "num_paths": 3,
    "rician_k_db": 10.0,
    "snr_db_list": (0.0, 5.0, 10.0, 15.0, 20.0),
    "num_trials": 200,
    "max_sparsity": 3,
    "base_seed": 0,
}

_PAPER_PROFILE = {
    **_DESK_PROFILE,
    "num_subcarriers": 64,
    "num_tx": 32,
    "num_rx": 8,
    "seq_len": 8,
    "total_power": 16384.0,
    "num_delay_taps": 16,
    "g_theta": 16,
    "g_phi": 64,
    "g_tau": 32,
    "iterations": 20_000,
    "num_paths": 6,
    "max_sparsity": 6,
    "snr_db_list": (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
}

PROFILES = {"desk": _DESK_PROFILE, "paper": _PAPER_PROFILE}


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(_finite_float(v) for v in raw.split(",") if v.strip())


_PARSERS = {int: int, float: _finite_float, tuple[float, ...]: _parse_float_list}
_FIELD_TYPES = get_type_hints(ExperimentConfig)
# Config keys named differently from their field: (section, field) -> key.
_ALIASES = {("optimizer", "seed"): "opt_seed"}


def _config_keys() -> dict:
    """Config key -> (ExperimentConfig section or None, field name, parser).

    Every field of a section dataclass is a key, and so is every plain
    field of ExperimentConfig itself.
    """
    keys = {}
    for section, section_type in _FIELD_TYPES.items():
        if not is_dataclass(section_type):
            keys[section] = (None, section, _PARSERS[section_type])
            continue
        hints = get_type_hints(section_type)
        for f in fields(section_type):
            key = _ALIASES.get((section, f.name), f.name)
            keys[key] = (section, f.name, _PARSERS[hints[f.name]])
    return keys


_CONFIG_KEYS = _config_keys()


def _config_from_values(values: dict) -> ExperimentConfig:
    sections: dict[str | None, dict] = {None: {}}
    for key, value in values.items():
        section, name, _ = _CONFIG_KEYS[key]
        sections.setdefault(section, {})[name] = value
    top = sections.pop(None)
    try:
        parts = {name: _FIELD_TYPES[name](**kwargs) for name, kwargs in sections.items()}
        return ExperimentConfig(**parts, **top)
    except ValueError as exc:
        raise ConfigError("config", str(exc)) from exc


def profile_config(name: str) -> ExperimentConfig:
    """``load_experiment_config(name)``; bench/worker.py builds its configs through it."""
    return load_experiment_config(name)


def load_experiment_config(
    profile: str = "desk",
    config_path: str | Path | None = None,
    seed_override: int | None = None,
) -> ExperimentConfig:
    """Merge a profile with optional file overrides and a seed override.

    ``desk`` is test-sized, ``paper`` full-scale.
    """
    if profile not in PROFILES:
        raise ConfigError("profile", f"unknown profile '{profile}'")
    values = dict(PROFILES[profile])
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError("config", f"no such config file: {path}")
        try:
            lines = path.read_text().splitlines()
        except UnicodeDecodeError as exc:
            raise ConfigError("config", f"config file {path} is not text: {exc}") from exc
        for line_no, line in enumerate(lines, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError("config", f"line {line_no} is not 'key = value': {line!r}")
            key, raw = (part.strip() for part in text.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ConfigError(key, "unknown configuration key")
            try:
                values[key] = _CONFIG_KEYS[key][2](raw)
            except ValueError as exc:
                raise ConfigError(key, f"cannot parse value '{raw}': {exc}") from exc
    if seed_override is not None:
        values["base_seed"] = int(seed_override)
        values["opt_seed"] = int(seed_override)
    return _config_from_values(values)


# ---------------------------------------------------------------------------
# Persistence


def save_design(design: PilotDesign, path: str | Path) -> None:
    """Write a design as JSON with blocks concatenated over subcarriers.

    ``x_real`` and ``x_imag`` are Nt x (M*K): row ``i`` holds antenna ``i``'s
    M pilot symbols of each subcarrier in turn. The rows are encoded one at
    a time, so no more than one row's text is held, and the bytes are those
    of ``json.dumps`` of the whole payload plus a newline.
    """
    head = json.dumps({
        "K": design.num_subcarriers,
        "M": design.seq_len,
        "Nt": design.num_tx,
        "Pt": design.total_power,
        "allocation": list(design.allocation),
    })
    with open(path, "w") as fh:
        fh.write(head[:-1])  # without the closing brace
        for key, part in (("x_real", np.real), ("x_imag", np.imag)):
            fh.write(f', "{key}": [')
            for i in range(design.num_tx):
                fh.write((", " if i else "") + json.dumps(part(design.blocks[:, i]).ravel().tolist()))
            fh.write("]")
        fh.write("}\n")


def _json_int(value) -> int:
    if type(value) is not int:  # refuses floats, and true/false, which load as bool
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def load_design(path: str | Path) -> PilotDesign:
    """Read a design JSON, validating shape, values, allocation and power."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError("design", f"no such design file: {path}")
    try:
        payload = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError("design", f"malformed JSON in {path}: {exc}") from exc
    try:
        k, m, nt = (_json_int(payload[key]) for key in ("K", "M", "Nt"))
        pt = float(payload["Pt"])
        full = np.asarray(payload["x_real"], dtype=float) + 1j * np.asarray(
            payload["x_imag"], dtype=float
        )
        allocation = tuple(_json_int(v) for v in payload["allocation"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError("design", f"missing or invalid field in {path}: {exc}") from exc
    if min(k, m, nt) < 1:
        raise ConfigError("design", f"K, M and Nt must be positive in {path}")
    if full.shape != (nt, k * m):
        raise ConfigError("design", f"pilot matrix shape {full.shape} != ({nt}, {k * m})")
    if not (np.all(np.isfinite(full)) and math.isfinite(pt)):
        raise ConfigError("design", f"non-finite pilot entries or Pt in {path}")
    blocks = full.reshape(nt, k, m).transpose(1, 0, 2)
    try:
        design = PilotDesign(blocks=blocks, allocation=allocation, total_power=pt)
    except ValueError as exc:
        raise ConfigError("design", f"{exc} in {path}") from exc
    outside = np.ones(k, dtype=bool)
    outside[list(allocation)] = False
    if np.any(blocks[outside] != 0):
        raise ConfigError("design", f"nonzero pilot blocks outside the allocation in {path}")
    with np.errstate(over="ignore"):  # an overflowing power is inf and refused below
        power = float(np.sum(np.abs(blocks) ** 2))
    if abs(power - pt) > 1e-9 * max(pt, 1.0):
        raise ConfigError("design", f"stored power {power} != declared Pt {pt}")
    return design


# Rows per chunk in _write_csv and _write_cdf, and lines per write in _write_runs;
# one chunk bounds what a writer holds, whatever the row count.
_CSV_CHUNK = 1 << 10


def _write_runs(fh, lines: list[str], ends: np.ndarray) -> None:
    """Write run ``i``'s line until output line ``ends[i]``, at most ``_CSV_CHUNK`` lines per write.

    The block of output lines ``[lo, hi)`` holds runs ``a`` (the first to end
    after ``lo``) to ``b`` (the first to end at or after ``hi``), each cut
    to the block.
    """
    total = int(ends[-1])
    edges = [*range(0, total, _CSV_CHUNK), total]
    firsts = np.searchsorted(ends, edges[:-1], side="right").tolist()
    lasts = np.searchsorted(ends, edges[1:]).tolist()
    ends = ends.tolist()
    for lo, hi, a, b in zip(edges, edges[1:], firsts, lasts):
        cuts = [lo, *ends[a:b], hi]
        fh.write("".join(map(operator.mul, lines[a:b + 1], map(operator.sub, cuts[1:], cuts))))


def _write_csv(path: str | Path, header: list[str], columns) -> None:
    """Write ``header`` and the equal-length ``columns`` through ``csv.writer``, ``\n``-terminated.

    Columns are read ``_CSV_CHUNK`` rows at a time, so memory stays bounded
    by one chunk whatever the row count.
    """
    if len(columns) != len(header):
        raise ValueError("one column per header field is required")
    n = len(columns[0]) if columns else 0
    if any(len(col) != n for col in columns):
        raise ValueError("columns must have equal length")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, n, _CSV_CHUNK):
            rows = slice(start, start + _CSV_CHUNK)
            writer.writerows(zip(*(np.asarray(col[rows]).tolist() for col in columns)))


def _write_cdf(path: str | Path, kind: str, runs) -> None:
    """Write a report CDF's (value, count) runs as ``kind,value`` rows, each ``count`` times.

    Each run's line is formatted once and written through ``_write_runs``,
    so the rows are never expanded. ``kind`` is a literal identifier that
    needs no CSV quoting, and a float's ``repr`` is what ``csv`` writes.
    """
    values, counts = runs
    with open(path, "w", newline="") as fh:
        fh.write("kind,value\n")
        for start in range(0, len(values), _CSV_CHUNK):
            rows = slice(start, start + _CSV_CHUNK)
            lines = [f"{kind},{v!r}\n" for v in values[rows].tolist()]
            _write_runs(fh, lines, np.cumsum(counts[rows]))


def save_trace(trace: OptimizationTrace, path: str | Path) -> None:
    _write_csv(
        path,
        ["iteration", "loss", "f_term", "g_term", "grad_norm"],
        [trace.iterations, trace.loss, trace.f_term, trace.g_term, trace.grad_norm],
    )


def save_report(report: CoherenceReport, out_dir: str | Path, stem: str = "") -> dict:
    """Write the two CDF CSVs plus the JSON summary; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prefix = f"{stem}_" if stem else ""
    paths = {
        "inner": out / f"{prefix}inner_product_cdf.csv",
        "norm": out / f"{prefix}column_norm_cdf.csv",
        "summary": out / f"{prefix}coherence_summary.json",
    }
    _write_cdf(paths["inner"], "inner_product", report.inner_product_runs)
    _write_cdf(paths["norm"], "column_norm", report.column_norm_runs)
    paths["summary"].write_text(json.dumps(report.summary_dict(), indent=2) + "\n")
    return paths


# ---------------------------------------------------------------------------
# Commands


def _optimize_from_seed(cfg: ExperimentConfig, dicts, opt_cfg: OptimizerConfig, seed,
                        trace_every: int = 1):
    """``optimize`` from ``gaussian_init(K, Nt, M, seed)`` at the system's total power."""
    sys_cfg = cfg.system
    x0 = gaussian_init(sys_cfg.num_subcarriers, sys_cfg.num_tx, sys_cfg.seq_len, seed)
    return optimize(x0, dicts, opt_cfg, sys_cfg.total_power, trace_every=trace_every)


def run_design(cfg: ExperimentConfig, out_dir: str | Path, trace_every: int = 1) -> dict:
    """Optimize from a Gaussian start; write the report first so a failing one leaves no file."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dicts = build_dictionaries(cfg.grids, cfg.system)
    design, trace = _optimize_from_seed(cfg, dicts, cfg.optimizer, cfg.optimizer.seed, trace_every)
    report_paths = save_report(coherence_report(design, dicts, cfg.optimizer.p), out, "optimized")
    design_path = out / "design_optimized.json"
    save_design(design, design_path)
    trace_path = out / "trace.csv"
    save_trace(trace, trace_path)
    return {"design": design_path, "trace": trace_path, **report_paths}


def _check_target_q(cfg: ExperimentConfig, target_q: int) -> None:
    k = cfg.system.num_subcarriers
    if not 1 <= target_q <= k:
        raise ConfigError("target_q", f"allocation size {target_q} out of range 1..{k}")


def make_baseline_design(cfg: ExperimentConfig, target_q: int, seed) -> PilotDesign:
    """Gaussian pilot blocks on a uniformly random subcarrier subset."""
    _check_target_q(cfg, target_q)
    sys_cfg = cfg.system
    k = sys_cfg.num_subcarriers
    rng = np.random.default_rng(seed)
    allocation = tuple(sorted(int(v) for v in rng.choice(k, size=target_q, replace=False)))
    blocks = np.zeros((k, sys_cfg.num_tx, sys_cfg.seq_len), dtype=complex)
    draws = rng.standard_normal((target_q, 2, sys_cfg.num_tx, sys_cfg.seq_len))  # per block: re, im
    blocks[list(allocation)] = draws[:, 0] + 1j * draws[:, 1]
    power = float(np.sum(np.abs(blocks) ** 2))
    blocks *= np.sqrt(sys_cfg.total_power / power)
    return PilotDesign(
        blocks=blocks, allocation=allocation, total_power=sys_cfg.total_power
    )


def run_baseline(cfg: ExperimentConfig, target_q: int, out_path: str | Path) -> Path:
    design = make_baseline_design(cfg, target_q, (cfg.base_seed, _BASELINE_STREAM))
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_design(design, out_path)
    return out_path


def _load_checked(cfg: ExperimentConfig, path: str | Path) -> tuple[str, PilotDesign]:
    """``(method tag, design)`` of a design file checked against the system config.

    The tag is the file stem without a ``design_`` prefix.
    """
    tag = Path(path).stem.removeprefix("design_")
    design = load_design(path)
    sys_cfg = cfg.system
    expected = (sys_cfg.num_subcarriers, sys_cfg.num_tx, sys_cfg.seq_len)
    for name, have, want in zip(("K", "Nt", "M"), design.blocks.shape, expected):
        if have != want:
            raise ConfigError(tag, f"design {name} does not match the system config")
    if abs(design.total_power - sys_cfg.total_power) > 1e-6 * sys_cfg.total_power:
        raise ConfigError(tag, "design Pt does not match the system config")
    if not design.allocation:
        raise ConfigError(tag, "design has an empty allocation")
    return tag, design


def run_estimate(
    cfg: ExperimentConfig,
    design_paths,
    out_dir: str | Path,
    threads: int = 1,
    allow_mixed: bool = False,
    timing: bool = False,
) -> dict:
    """Monte-Carlo NMSE evaluation of one or more designs.

    Per (method, SNR, trial): draw a channel with seed ``base_seed +
    trial``, synthesize the noisy measurement, solve with OMP, score NMSE.
    A trial draws its channel once and runs every cell on it, so
    comparisons are paired; only running trials hold a channel. Writes
    ``trials.csv`` and ``summary.csv``; the volatile per-trial timing
    column is emitted only when ``timing`` is on.
    """
    ev = cfg.evaluation
    designs: dict[str, PilotDesign] = {}
    for p in design_paths:
        tag, design = _load_checked(cfg, p)
        if tag in designs:
            raise ConfigError(tag, "duplicate method tag among design files")
        n_obs = cfg.system.num_rx * cfg.system.seq_len * len(design.allocation)
        if ev.max_sparsity > min(n_obs, cfg.grids.total):
            raise ConfigError(tag, f"max_sparsity {ev.max_sparsity} exceeds the {n_obs} "
                              f"observations or the {cfg.grids.total} grid atoms")
        designs[tag] = design
    if not designs:
        raise ConfigError("designs", "at least one design is required")
    if _exceeds_array_limit(len(designs), len(ev.snr_db_list), ev.num_trials, dtype=float):
        raise ConfigError("num_trials", "the (designs, SNRs, trials) tables are too large")
    sizes = {len(d.allocation) for d in designs.values()}
    if len(sizes) > 1 and not allow_mixed:
        raise ConfigError(
            "designs",
            f"allocation sizes differ across designs ({sorted(sizes)}); the SNR "
            "definition depends on Q, pass allow_mixed to override",
        )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any trial
    sys_cfg = cfg.system
    dicts = build_dictionaries(cfg.grids, sys_cfg)
    operators = [build_sensing_matrix(d, dicts) for d in designs.values()]

    methods = list(designs)
    snrs = ev.snr_db_list
    nmse_values = np.empty((len(designs), len(snrs), ev.num_trials))
    elapsed_ms = np.empty_like(nmse_values)

    def run_trial(trial: int) -> None:
        realization = sample_channel(
            sys_cfg, cfg.channel.num_paths, cfg.channel.rician_k_db, cfg.base_seed + trial
        )
        h = assemble_channel(realization, sys_cfg)
        for (i, design), (j, snr) in itertools.product(enumerate(designs.values()), enumerate(snrs)):
            sigma2 = snr_sigma2(
                sys_cfg.total_power, sys_cfg.num_tx, sys_cfg.seq_len, len(design.allocation), snr
            )
            started = time.perf_counter()
            y = synthesize_measurement(h, design, sigma2, (cfg.base_seed + trial, _NOISE_STREAM))
            est = SOLVERS["omp"](y, operators[i], ev.max_sparsity)
            h_hat = reconstruct_channel(est, dicts)
            nmse_values[i, j, trial] = nmse(h.stacked, h_hat.stacked)
            elapsed_ms[i, j, trial] = (time.perf_counter() - started) * 1e3

    # ``threads`` trials at once, each writing only its own cells; a failing
    # trial's error reaches the caller and cancels the trials not yet started.
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(run_trial, range(ev.num_trials)))

    tags, snr_values = np.asarray(methods), np.asarray(snrs, dtype=float)
    method_idx, snr_idx, trial_idx = np.indices(nmse_values.shape).reshape(3, -1)
    header = ["method", "snr_db", "trial_index", "seed", "nmse"]
    # Seeds as Python ints: base_seed is unbounded, numpy ints would wrap.
    columns = [tags[method_idx], snr_values[snr_idx], trial_idx,
               cfg.base_seed + trial_idx.astype(object), nmse_values.ravel()]
    if timing:
        header.append("elapsed_ms")
        columns.append(elapsed_ms.ravel())
    trials_path = out / "trials.csv"
    _write_csv(trials_path, header, columns)
    method_idx, snr_idx = np.indices(nmse_values.shape[:2]).reshape(2, -1)
    summary_path = out / "summary.csv"
    _write_csv(
        summary_path,
        ["method", "snr_db", "num_trials", "nmse_median", "nmse_mean"],
        [tags[method_idx], snr_values[snr_idx], np.broadcast_to(ev.num_trials, method_idx.size),
         np.median(nmse_values, axis=2).ravel(), np.mean(nmse_values, axis=2).ravel()],
    )
    return {"trials": trials_path, "summary": summary_path, "methods": methods,
            "nmse": nmse_values}


def run_report(cfg: ExperimentConfig, design_path: str | Path, out_dir: str | Path) -> dict:
    tag, design = _load_checked(cfg, design_path)
    dicts = build_dictionaries(cfg.grids, cfg.system)
    return save_report(coherence_report(design, dicts, cfg.optimizer.p), out_dir, stem=tag)


@np.errstate(all="ignore")  # a non-finite loss or gradient is refused below
def run_gradcheck(cfg: ExperimentConfig) -> list[dict]:
    """Central-difference check of the closed-form gradient.

    For each random (X, direction) pair the directional derivative of the
    loss must match 2 Re<grad, direction> within _GRADCHECK_TOL relative error.
    A loss or gradient that is not finite, such as an overflowing penalty at
    a tiny ``q``, raises ``DegenerateInputError`` instead of a report row.
    """
    sys_cfg = cfg.system
    dicts = build_dictionaries(cfg.grids, sys_cfg)
    rng = np.random.default_rng((cfg.base_seed, _GRADCHECK_STREAM))
    shape = (sys_cfg.num_subcarriers, sys_cfg.num_tx, sys_cfg.seq_len)
    results = []
    for i in range(_GRADCHECK_PAIRS):
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        delta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        delta /= math.sqrt(np.sum(np.abs(delta) ** 2))
        loss, grad = loss_and_gradient(x, dicts, cfg.optimizer)
        analytic = 2.0 * float(np.sum(grad.conj() * delta).real)
        plus, _ = loss_and_gradient(x + _GRADCHECK_STEP * delta, dicts, cfg.optimizer)
        minus, _ = loss_and_gradient(x - _GRADCHECK_STEP * delta, dicts, cfg.optimizer)
        fd = (plus - minus) / (2.0 * _GRADCHECK_STEP)
        if not (np.isfinite([loss, plus, minus, fd, analytic]).all() and np.isfinite(grad).all()):
            raise DegenerateInputError(f"gradcheck pair {i}: the loss or its gradient is not finite")
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-30)
        results.append({"pair": i, "fd": fd, "analytic": analytic, "rel_err": rel,
                        "ok": rel <= _GRADCHECK_TOL})
    return results


def run_sweep(
    cfg: ExperimentConfig,
    lambda_values,
    out_dir: str | Path,
    target_q: int | None = None,
) -> dict:
    """Optimize once per penalty weight; persist designs and a sweep table.

    Run ``i`` starts from ``gaussian_init`` with seed ``(opt_seed, i)``. Each
    row is ``(lambda_bar, allocation_size, mutual_coherence, design_file)``,
    the coherence being the ``mutual`` of the design's ``coherence_report``.
    With ``target_q``, ``selected`` is the index of the row whose allocation
    size is closest (ties: smaller coherence, then the earlier row), and
    ``sweep_summary.json`` names its design file. Every run is scored
    before the first write, so a failing run leaves no file.
    """
    values = [float(v) for v in lambda_values]
    if not values:
        raise ValueError("lambda_values must be non-empty")
    if target_q is not None:
        _check_target_q(cfg, target_q)
    dicts = build_dictionaries(cfg.grids, cfg.system)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    designs, rows = [], []
    for i, lam in enumerate(values):
        opt_cfg = replace(cfg.optimizer, lambda_bar=lam)
        design, _ = _optimize_from_seed(cfg, dicts, opt_cfg, (cfg.optimizer.seed, i))
        mu = coherence_report(design, dicts, cfg.optimizer.p).mutual_coherence
        designs.append(design)
        rows.append((lam, len(design.allocation), mu, f"design_lambda_{i}.json"))
    for design, row in zip(designs, rows):
        save_design(design, out / row[3])
    table_path = out / "sweep.csv"
    _write_csv(
        table_path,
        ["lambda_bar", "allocation_size", "mutual_coherence", "design_file"],
        list(zip(*rows)),
    )
    selected = None
    if target_q is not None:
        selected = min(range(len(rows)), key=lambda i: (abs(rows[i][1] - target_q), rows[i][2]))
    meta = {"selected": None if selected is None else rows[selected][3]}
    (out / "sweep_summary.json").write_text(json.dumps(meta, indent=2) + "\n")
    return {"table": table_path, "rows": rows, "selected": selected}

