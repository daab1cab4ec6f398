"""pilotopt benchmark: drives ``run_design`` / ``run_estimate`` end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each repeat is a fresh worker process
(``worker.py``) with BLAS pinned to one thread; repeats of one seed run the
same inputs until ``--seconds`` is used up. A repeat makes one or more
command calls (``workloads.py``). With ``--trace 0`` the run reports the
end-to-end metrics: medians over repeats, and ``work_rate`` over calls. With ``--trace 1``
it alternates untraced and traced repeats of the same seed, checks that
their outputs are byte-identical, and reports the per-layer metrics.

Every repeat's outputs are checked; a violation or exception counts as a
failed operation and the run exits 1. The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Without the pilotopt sources the run exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import PER_LAYER
from workloads import THREAD_ENV, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"

# name -> (unit, meaning); every one is reported on every workload.
END_TO_END = {
    "setup_s": ("s", "worker process start to inputs ready (imports, config, generated designs)"),
    "work_rate": ("items/s", "Adam iterations (design) or trial cells (estimate) per second of a command call"),
    "peak_rss_mib": ("MiB", "peak resident set of the worker process"),
    "quality_loss": ("1", "final design loss (design) or median NMSE over all trials (estimate)"),
}
MIN_SETUPS = 11
RUN_LIMIT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


def git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def spawn(workload: str, seed: int, out: Path, deadline: float, traced=False, setup_only=False) -> dict:
    """Run one worker to completion; returns its record plus ``setup_s``."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    finally:
        shutil.rmtree(out, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    record["setup_s"] = record["ready"] - spawned
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[float]]:
    """Repeat until ``seconds`` is used; returns (command records, set-up samples)."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    out = RUNS / f"{workload}-{seed}-{os.getpid()}"
    records, cycles = [], []
    while True:
        cycle_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            rec = spawn(workload, seed, out, deadline, traced=traced)
            rec["traced"] = traced
            records.append(rec)
            print(f"repeat {len(records)}{' traced' if traced else ''}: "
                  f"command {rec.get('command_s', float('nan')):.4f} s, setup {rec['setup_s']:.4f} s",
                  flush=True)
        cycles.append(time.monotonic() - cycle_start)
        if time.monotonic() - started + statistics.median(cycles) > seconds:
            break
    setups = [r["setup_s"] for r in records if not r["traced"]]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(spawn(workload, seed, out, deadline, setup_only=True)["setup_s"])
    return records, setups


def check_records(records: list[dict]) -> int:
    """Flag outputs that differ from the first repeat; returns the failed count."""
    reference = next((r["digests"] for r in records if "digests" in r), None)
    failed = 0
    for i, rec in enumerate(records, start=1):
        bad = list(rec.get("violations", ["no result"]))
        if "command_s" not in rec:
            bad.append("command did not finish")
        if rec.get("digests") != reference:
            bad.append(f"outputs differ from the first repeat: {rec.get('digests')} != {reference}")
        for msg in bad:
            print(f"FAIL repeat {i}: {msg}", file=sys.stderr)
        failed += bool(bad)
    return failed


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(records: list[dict], setups: list[float]) -> dict:
    ok = [r for r in records if "command_s" in r]
    return {
        "setup_s": _median(setups),
        "work_rate": _median([items / seconds for r in ok for items, seconds in r["calls"]]),
        "peak_rss_mib": _median([r["peak_rss_mib"] for r in ok]),
        "quality_loss": _median([r["quality"] for r in ok if "quality" in r]),
    }


def per_layer(records: list[dict]) -> dict:
    traced = [r for r in records if r["traced"] and "layers" in r]
    values = {name: _median([r["layers"][name] for r in traced]) for name in PER_LAYER
              if name != "trace.overhead_frac"}
    plain = _median([r["command_s"] for r in records if not r["traced"] and "command_s" in r])
    with_spans = _median([r["command_s"] for r in traced if "command_s" in r])
    values["trace.overhead_frac"] = with_spans / plain - 1.0 if plain and with_spans else None
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pilotopt").is_dir():
        print(f"pilotopt sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        records, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        if RUNS.is_dir() and not any(RUNS.iterdir()):
            RUNS.rmdir()
    env = next(r["env"] for r in records if "env" in r)
    env.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               git_revision=git_revision())
    print("env " + json.dumps(env, sort_keys=True))

    failed = check_records(records)
    if args.trace:
        values, units = per_layer(records), {k: v[0] for k, v in PER_LAYER.items()}
    else:
        values, units = end_to_end(records, setups), {k: v[0] for k, v in END_TO_END.items()}
    for name, value in values.items():
        print(f"{name:32s} {value if value is not None else 'n/a':>20} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
