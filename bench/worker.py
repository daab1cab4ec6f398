"""One benchmark repeat in a fresh process: set up, run a pilotopt command, check it.

    python3 bench/worker.py --workload NAME --seed N --out DIR [--trace] [--setup-only]

``run.py`` starts this with BLAS pinned to one thread and
``src`` on ``PYTHONPATH``. It prints one JSON object on stdout: the
monotonic time at which the inputs were ready, the work count and wall time
of each command call, the correctness violations found, digests of the
deterministic outputs, the peak resident set and, with ``--trace``, the
per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from pilotopt import harness
from pilotopt.harness import load_design  # unwrapped: checks are not traced

import spans
from workloads import HARNESS_THREADS, WORKLOADS, Workload

# Outputs that must be byte-identical across repeats of one seed, traced or not.
DETERMINISTIC = {"design": ("design_optimized.json", "trace.csv"), "estimate": ("trials.csv",)}


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """(base_seed, opt_seed, design_seed) from the workload seed."""
    return tuple(int(v) for v in np.random.SeedSequence(seed).generate_state(3))


def set_up(workload: Workload, seed: int, out: Path):
    """Config and generated inputs for one repeat; returns (cfg, design paths)."""
    cfg = harness.profile_config(workload.profile)
    base_seed, opt_seed, design_seed = derive_seeds(seed)
    cfg = replace(
        cfg,
        base_seed=base_seed,
        optimizer=replace(
            cfg.optimizer, seed=opt_seed, iterations=workload.iterations or cfg.optimizer.iterations
        ),
        evaluation=replace(
            cfg.evaluation, num_trials=workload.trials or cfg.evaluation.num_trials
        ),
    )
    design_paths = []
    q = cfg.system.num_subcarriers // 8
    for i in range(workload.designs):
        path = out / "inputs" / f"design_gauss_{i}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        harness.save_design(harness.make_baseline_design(cfg, q, (design_seed, i)), path)
        design_paths.append(path)
    return cfg, design_paths


def command_calls(workload: Workload, cfg, design_paths, result: Path) -> list:
    """The command calls of one repeat: (config, output directory, work items) each.

    Work items are Adam iterations (design) or (method, SNR, trial) cells
    (estimate). A design repeat is one ``run_design`` call. An estimate
    repeat runs its trials in blocks; a block's ``base_seed`` is shifted by
    its first trial, so every trial keeps the channel and noise seeds it has
    in a single call over all trials.
    """
    if workload.command == "design":
        return [(cfg, result, cfg.optimizer.iterations)]
    ev = cfg.evaluation
    block = workload.block_trials or ev.num_trials
    calls = []
    for first in range(0, ev.num_trials, block):
        n = min(block, ev.num_trials - first)
        block_cfg = replace(cfg, base_seed=cfg.base_seed + first, evaluation=replace(ev, num_trials=n))
        cells = len(design_paths) * len(ev.snr_db_list) * n
        calls.append((block_cfg, result / f"block_{first // block:02d}", cells))
    return calls


def _finite_floats(fields) -> bool:
    try:
        return all(math.isfinite(float(v)) for v in fields)
    except ValueError:
        return False


def check_design(cfg, result: Path) -> tuple[list[str], float]:
    """Violations of the design outputs, and the final loss."""
    bad = []
    design = load_design(result / "design_optimized.json")
    power = float(np.sum(np.abs(design.blocks) ** 2))
    if abs(power - cfg.system.total_power) > 1e-9 * cfg.system.total_power:
        bad.append(f"design power {power} != Pt {cfg.system.total_power}")
    alloc = list(design.allocation)
    if not alloc or alloc != sorted(set(alloc)):
        bad.append(f"allocation not sorted and non-empty: {alloc}")
    with open(result / "trace.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != cfg.optimizer.iterations + 1:
        bad.append(f"trace.csv has {len(rows)} rows, expected {cfg.optimizer.iterations + 1}")
    if not all(len(r) == 5 and _finite_floats(r) for r in rows):
        bad.append("trace.csv has a malformed or non-finite row")
    final_loss = float(rows[-1][1]) if rows and _finite_floats(rows[-1][1:2]) else math.nan
    return bad, final_loss


def check_estimate(cfg, design_paths, result: Path) -> tuple[list[str], list[float]]:
    """Violations of the estimate outputs, and the NMSE of every trial."""
    bad = []
    ev = cfg.evaluation
    tags = [p.stem.removeprefix("design_") for p in design_paths]
    expected = {(t, float(s), i) for t in tags for s in ev.snr_db_list for i in range(ev.num_trials)}
    values: dict[tuple[str, float], list[float]] = {}
    seen = set()
    with open(result / "trials.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], float(row["snr_db"]), int(row["trial_index"]))
            value = float(row["nmse"])
            if key in seen or not math.isfinite(value) or value < 0:
                bad.append(f"trials.csv row {key}: duplicate or bad NMSE {value}")
            seen.add(key)
            values.setdefault(key[:2], []).append(value)
    if seen != expected:
        bad.append(f"trials.csv covers {len(seen)} cells, expected {len(expected)}")
    with open(result / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != len(values):
        bad.append(f"summary.csv has {len(summary)} rows, expected {len(values)}")
    for row in summary:
        vals = values.get((row["method"], float(row["snr_db"])), [])
        want = (len(vals), float(np.median(vals)) if vals else math.nan,
                float(np.mean(vals)) if vals else math.nan)
        got = (int(row["num_trials"]), float(row["nmse_median"]), float(row["nmse_mean"]))
        if got[0] != want[0] or not np.allclose(got[1:], want[1:], rtol=1e-12, atol=0.0):
            bad.append(f"summary.csv row {row['method']}/{row['snr_db']} disagrees with trials.csv")
    return bad, [v for vs in values.values() for v in vs]


def digests(workload: Workload, call_dirs: list[Path]) -> dict[str, str]:
    out = {}
    for name in DETERMINISTIC[workload.command]:
        digest = hashlib.sha256()
        for path in (d / name for d in call_dirs):
            digest.update(path.read_bytes() if path.is_file() else b"missing")
        out[name] = digest.hexdigest()
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "harness_threads": threads,
    }


def run_repeat(workload: Workload, seed: int, out: Path, traced: bool, setup_only: bool = False) -> dict:
    """Set up, then run and check each command call; returns the worker's JSON record."""
    cfg, design_paths = set_up(workload, seed, out)
    record = {"ready": time.monotonic()}
    if setup_only:
        return record
    tracer = spans.Tracer() if traced else None
    counter = spans.install(tracer) if traced else None

    def command(call_cfg, call_out):
        if workload.command == "design":
            harness.run_design(call_cfg, call_out)
        else:
            harness.run_estimate(call_cfg, design_paths, call_out, threads=HARNESS_THREADS)

    if traced:
        command = tracer.wrap(f"harness.run_{workload.command}", command)

    record["env"] = environment(HARNESS_THREADS)
    record["calls"] = []
    calls = command_calls(workload, cfg, design_paths, out / "result")
    try:
        violations, quality = [], []
        for call_cfg, call_out, items in calls:
            started = time.perf_counter()
            command(call_cfg, call_out)
            record["calls"].append([items, time.perf_counter() - started])
            if workload.command == "design":
                bad, loss = check_design(call_cfg, call_out)
                quality.append(loss)
            else:
                bad, nmse = check_estimate(call_cfg, design_paths, call_out)
                quality.extend(nmse)
            violations.extend(bad)
        record["command_s"] = sum(seconds for _, seconds in record["calls"])
        record["violations"] = violations
        record["quality"] = statistics.median(quality) if quality else math.nan
        record["digests"] = digests(workload, [call_out for _, call_out, _ in calls])
    except Exception:  # the repeat counts as a failed operation; keep reporting
        traceback.print_exc()
        record["violations"] = [traceback.format_exc(limit=1).strip().splitlines()[-1]]
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if traced:
        tracer.dump(out / "spans.json")
        loaded = spans.load_spans(out / "spans.json")
        record["layers"] = spans.layer_metrics(loaded, HARNESS_THREADS, counter.count)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run_repeat(WORKLOADS[args.workload], args.seed, args.out, args.trace, args.setup_only)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
