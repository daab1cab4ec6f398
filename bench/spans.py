"""Span tracing from outside the program, and the per-layer metrics built on it.

A :class:`Tracer` wraps pilotopt functions at the names their callers look
them up by. Each call records a span (name, start, end, parent span, thread
id) in memory; the spans are written out once, when the run ends.

A span's self time is its duration minus the part of its interval that its
child spans cover. Children may run on other threads: a span opened on a
thread with no open span of its own (a harness pool worker) takes as parent
the innermost open span of the thread that created the tracer.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import statistics
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    note: float | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording a span per call; ``note(result)`` is stored on it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if note is not None:
                self.spans[index].note = note(result)
            return result

        return traced

    def _open(self, name: str) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            home = self._stacks.get(self._home)
            parent = stack[-1] if stack else (home[-1] if home else None)
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), math.nan, parent, tid))
            stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index].end = end
            self._stacks[threading.get_ident()].pop()

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def load_spans(path) -> list[Span]:
    with open(path) as fh:
        return [Span(**s) for s in json.load(fh)]


class WarningCounter(logging.Handler):
    """Counts log records whose message contains ``needle``."""

    def __init__(self, needle: str) -> None:
        super().__init__(logging.WARNING)
        self.needle = needle
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        if self.needle in record.getMessage():
            self.count += 1


# Span name -> (object holding the name, attribute). Each is wrapped where its
# caller looks it up: harness functions in the harness namespace, the OMP
# solver in estimator.SOLVERS, engine and operator methods on their classes.
_HARNESS_SPANS = {
    "build_dictionaries": "dictionary.build_dictionaries",
    "optimize": "optimizer.optimize",
    "coherence_report": "coherence.coherence_report",
    "build_sensing_matrix": "coherence.build_sensing_matrix",
    "load_design": "harness.load_design",
    "sample_channel": "channel.sample_channel",
    "assemble_channel": "channel.assemble_channel",
    "synthesize_measurement": "estimator.synthesize_measurement",
    "reconstruct_channel": "estimator.reconstruct_channel",
}
_METHOD_SPANS = {
    ("CoherenceEngine", "f_value_and_vgrad"): "coherence.engine",
    ("CoherenceEngine", "gram_tensor"): "coherence.gram_tensor",
    ("SensingOperator", "rmatvec"): "coherence.rmatvec",
    ("SensingOperator", "column"): "coherence.column",
}


def install(tracer: Tracer) -> WarningCounter:
    """Wrap the pilotopt layer boundaries; returns the rank-deficiency counter.

    A name that no longer exists is skipped, so its span reports count 0.
    """
    from pilotopt import coherence, estimator, harness

    for attr, span in _HARNESS_SPANS.items():
        if hasattr(harness, attr):
            setattr(harness, attr, tracer.wrap(span, getattr(harness, attr)))
    for attr in dir(harness):
        if attr.startswith("save_") and callable(getattr(harness, attr)):
            setattr(harness, attr, tracer.wrap(f"harness.{attr}", getattr(harness, attr)))
    if "omp" in getattr(estimator, "SOLVERS", {}):
        estimator.SOLVERS["omp"] = tracer.wrap(
            "estimator.omp", estimator.SOLVERS["omp"], note=lambda est: len(est.support)
        )
    for (cls_name, attr), span in _METHOD_SPANS.items():
        cls = getattr(coherence, cls_name, None)
        if cls is not None and hasattr(cls, attr):
            setattr(cls, attr, tracer.wrap(span, getattr(cls, attr)))
    counter = WarningCounter("rank-deficient")
    logging.getLogger(estimator.__name__).addHandler(counter)
    return counter


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo))
    total = 0.0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def _within(spans: list[Span], index: int, ancestor: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def _p50(values) -> float:
    return statistics.median(values) if values else 0.0


def _p99(values) -> float:
    """Nearest-rank p99, or 0 when fewer than ten samples lie beyond it."""
    if len(values) < 1000:
        return 0.0
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


# name -> (unit, better); the traced run reports every one on every workload.
PER_LAYER = {
    "dictionary.build_ms": ("ms", "lower"),
    "coherence.engine_calls": ("count", "lower"),
    "coherence.engine_ms_p50": ("ms", "lower"),
    "coherence.engine_ms_p99": ("ms", "lower"),
    "coherence.gram_ms_p50": ("ms", "lower"),
    "coherence.engine_self_ms_p50": ("ms", "lower"),
    "coherence.engine_frac": ("1", "lower"),
    "coherence.report_ms": ("ms", "lower"),
    "coherence.sensing_build_ms": ("ms", "lower"),
    "coherence.rmatvec_calls": ("count", "lower"),
    "coherence.rmatvec_ms_p50": ("ms", "lower"),
    "coherence.column_calls": ("count", "lower"),
    "optimizer.optimize_s": ("s", "lower"),
    "optimizer.iterations": ("count", "higher"),
    "optimizer.step_self_ms": ("ms", "lower"),
    "estimator.omp_calls": ("count", "lower"),
    "estimator.omp_ms_p50": ("ms", "lower"),
    "estimator.omp_ms_p99": ("ms", "lower"),
    "estimator.omp_self_frac": ("1", "lower"),
    "estimator.omp_atoms_mean": ("count", "lower"),
    "estimator.rank_deficient": ("count", "lower"),
    "estimator.synth_ms_p50": ("ms", "lower"),
    "estimator.reconstruct_ms_p50": ("ms", "lower"),
    "channel.calls": ("count", "lower"),
    "channel.sample_ms_p50": ("ms", "lower"),
    "channel.assemble_ms_p50": ("ms", "lower"),
    "harness.load_design_ms": ("ms", "lower"),
    "harness.save_ms": ("ms", "lower"),
    "harness.self_ms": ("ms", "lower"),
    "harness.pool_busy_frac": ("1", "higher"),
    "trace.overhead_frac": ("1", "lower"),
}


def layer_metrics(spans: list[Span], threads: int, rank_deficient: int) -> dict[str, float]:
    """Per-layer metrics of one traced command run (all but trace.overhead_frac)."""
    own = self_times(spans)
    dur: dict[str, list[float]] = {}
    self_of: dict[str, list[float]] = {}
    for s, t in zip(spans, own):
        dur.setdefault(s.name, []).append(s.end - s.start)
        self_of.setdefault(s.name, []).append(t)

    def ms(name):
        return [1e3 * d for d in dur.get(name, ())]

    def total(name):
        return sum(dur.get(name, ()))

    engine_in_opt = [
        s.end - s.start
        for i, s in enumerate(spans)
        if s.name == "coherence.engine" and _within(spans, i, "optimizer.optimize")
    ]
    n_opt = len(dur.get("optimizer.optimize", ()))
    iterations = max(len(engine_in_opt) - n_opt, 0)
    optimize_s = total("optimizer.optimize")
    omp_s = total("estimator.omp")
    trial_names = ("estimator.synthesize_measurement", "estimator.omp", "estimator.reconstruct_channel")
    trial = [s for s in spans if s.name in trial_names]
    loops: dict[int | None, list[Span]] = {}  # trial spans per command call
    for s in trial:
        loops.setdefault(s.parent, []).append(s)
    pool_wall = sum(max(s.end for s in ss) - min(s.start for s in ss) for ss in loops.values())
    atoms = [s.note for s in spans if s.name == "estimator.omp" and s.note is not None]
    return {
        "dictionary.build_ms": 1e3 * total("dictionary.build_dictionaries"),
        "coherence.engine_calls": len(dur.get("coherence.engine", ())),
        "coherence.engine_ms_p50": _p50(ms("coherence.engine")),
        "coherence.engine_ms_p99": _p99(ms("coherence.engine")),
        "coherence.gram_ms_p50": _p50(ms("coherence.gram_tensor")),
        "coherence.engine_self_ms_p50": _p50([1e3 * t for t in self_of.get("coherence.engine", ())]),
        "coherence.engine_frac": sum(engine_in_opt) / optimize_s if optimize_s else 0.0,
        "coherence.report_ms": 1e3 * total("coherence.coherence_report"),
        "coherence.sensing_build_ms": 1e3 * total("coherence.build_sensing_matrix"),
        "coherence.rmatvec_calls": len(dur.get("coherence.rmatvec", ())),
        "coherence.rmatvec_ms_p50": _p50(ms("coherence.rmatvec")),
        "coherence.column_calls": len(dur.get("coherence.column", ())),
        "optimizer.optimize_s": optimize_s,
        "optimizer.iterations": iterations,
        "optimizer.step_self_ms": 1e3 * (optimize_s - sum(engine_in_opt)) / iterations if iterations else 0.0,
        "estimator.omp_calls": len(dur.get("estimator.omp", ())),
        "estimator.omp_ms_p50": _p50(ms("estimator.omp")),
        "estimator.omp_ms_p99": _p99(ms("estimator.omp")),
        "estimator.omp_self_frac": sum(self_of.get("estimator.omp", ())) / omp_s if omp_s else 0.0,
        "estimator.omp_atoms_mean": statistics.fmean(atoms) if atoms else 0.0,
        "estimator.rank_deficient": rank_deficient,
        "estimator.synth_ms_p50": _p50(ms("estimator.synthesize_measurement")),
        "estimator.reconstruct_ms_p50": _p50(ms("estimator.reconstruct_channel")),
        "channel.calls": len(dur.get("channel.sample_channel", ())),
        "channel.sample_ms_p50": _p50(ms("channel.sample_channel")),
        "channel.assemble_ms_p50": _p50(ms("channel.assemble_channel")),
        "harness.load_design_ms": 1e3 * total("harness.load_design"),
        "harness.save_ms": 1e3 * sum(total(n) for n in dur if n.startswith("harness.save_")),
        "harness.self_ms": 1e3 * sum(
            t for n, ts in self_of.items() if n.startswith("harness.run_") for t in ts
        ),
        "harness.pool_busy_frac": sum(s.end - s.start for s in trial) / (threads * pool_wall)
        if pool_wall
        else 0.0,
    }
