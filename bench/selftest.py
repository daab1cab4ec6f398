"""Tests of the benchmark itself.

    python3 bench/selftest.py [--short]

Checks the self-time arithmetic, the span tree across threads, the span
counts each wrapped layer produces on the workloads, and that the output
checks catch broken outputs. ``--short`` runs the workloads with a few
iterations and trials instead of their benchmark sizes.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
import threading
import time
import unittest
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from multiprocessing import get_context
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SHORT = False
RUNS = ROOT / ".bench_runs"


def _span(name, start, end, parent=None, thread=1):
    return spans.Span(name, float(start), float(end), parent, thread)


class SelfTime(unittest.TestCase):
    def test_nested_overlapping_children(self):
        recorded = [
            _span("run", 0, 10),
            _span("a", 1, 4, parent=0),
            _span("b", 3, 6, parent=0),  # overlaps a: the union is [1, 6]
            _span("a.child", 2, 3, parent=1),
            _span("late", 9, 12, parent=0),  # runs past its parent: clipped to [9, 10]
        ]
        self.assertEqual(spans.self_times(recorded), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_children_on_two_threads(self):
        recorded = [
            _span("run", 0, 10, thread=1),
            _span("trial", 1, 5, parent=0, thread=2),
            _span("trial", 2, 7, parent=0, thread=3),
            _span("trial", 8, 9, parent=0, thread=2),
        ]
        # Summing the children would give 10 - 10 = 0; the covered union is 7.
        self.assertAlmostEqual(spans.self_times(recorded)[0], 3.0)

    def test_pool_threads_attach_to_the_home_span(self):
        tracer = spans.Tracer()
        barrier = threading.Barrier(2)

        def trial(_):
            barrier.wait(timeout=5)
            time.sleep(0.02)

        trial = tracer.wrap("trial", trial)

        def run():
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(trial, range(2)))

        tracer.wrap("run", run)()
        root, *children = tracer.spans
        self.assertEqual([c.parent for c in children], [0, 0])
        self.assertEqual(len({c.thread for c in children}), 2)
        self.assertTrue(all(root.start <= c.start and c.end <= root.end for c in children))
        busy = sum(c.end - c.start for c in children)
        covered = spans.covered_length([(c.start, c.end) for c in children], root.start, root.end)
        self.assertLess(covered, busy - 0.01)  # the two trials overlapped
        own = spans.self_times(tracer.spans)[0]
        self.assertAlmostEqual(own, (root.end - root.start) - covered)


def traced_repeat(name: str, iterations: int | None, trials: int | None) -> dict:
    """One traced repeat of a workload, resized; runs in a fresh process."""
    import worker

    workload = WORKLOADS[name]
    workload = replace(workload, iterations=iterations or workload.iterations,
                       trials=trials or workload.trials)
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        return worker.run_repeat(workload, 0, Path(tmp), traced=True)


def in_fresh_process(fn, *args):
    # The tracer patches pilotopt in place, so each traced repeat needs its own process.
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        return pool.submit(fn, *args).result(timeout=600)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        from run import END_TO_END

        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in declared["workloads"]], list(WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]},
                         {name: unit for name, (unit, _) in END_TO_END.items()})
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]},
                         spans.PER_LAYER)


class SpanCounts(unittest.TestCase):
    def _layers(self, name, iterations=None, trials=None):
        record = in_fresh_process(traced_repeat, name, iterations, trials)
        self.assertEqual(record["violations"], [])
        return record["layers"]

    def _check_design(self, name, iterations):
        layers = self._layers(name, iterations=iterations)
        iterations = iterations or WORKLOADS[name].iterations or 2000
        self.assertEqual(layers["coherence.engine_calls"], iterations + 1)
        self.assertEqual(layers["optimizer.iterations"], iterations)
        self.assertGreater(layers["coherence.report_ms"], 0.0)
        self.assertGreater(layers["harness.save_ms"], 0.0)
        self.assertEqual(layers["estimator.omp_calls"], 0)

    def test_design_desk(self):
        self._check_design("design-desk", 3 if SHORT else None)

    @unittest.skipIf(SHORT, "paper-size design repeat is slow")
    def test_design_paper(self):
        self._check_design("design-paper", None)

    def test_estimate_paper(self):
        workload = WORKLOADS["estimate-paper"]
        trials = 1 if SHORT else workload.trials
        layers = self._layers("estimate-paper", trials=trials)
        self.assertEqual(layers["estimator.omp_calls"], workload.designs * 7 * trials)
        self.assertEqual(layers["channel.calls"], trials)
        self.assertGreaterEqual(layers["coherence.rmatvec_calls"], layers["estimator.omp_calls"])
        self.assertGreater(layers["coherence.column_calls"], 0)
        self.assertEqual(layers["coherence.engine_calls"], 0)
        self.assertGreater(layers["harness.pool_busy_frac"], 0.0)


class OutputChecks(unittest.TestCase):
    """The correctness gate flags outputs that were broken after the run."""

    @classmethod
    def setUpClass(cls):
        import worker

        cls.worker = worker
        RUNS.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=RUNS)
        cls.out = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _run(self, name, **resize):
        workload = replace(WORKLOADS[name], **resize)
        out = self.out / name
        record = self.worker.run_repeat(workload, 0, out, traced=False)
        self.assertEqual(record["violations"], [])
        cfg, design_paths = self.worker.set_up(workload, 0, out)
        [(call_cfg, call_out, _)] = self.worker.command_calls(workload, cfg, design_paths, out / "result")
        return call_cfg, design_paths, call_out

    @staticmethod
    def _rewrite(path, edit):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(edit(rows))

    def test_design_trace_rows(self):
        cfg, _, result = self._run("design-desk", iterations=3)
        self._rewrite(result / "trace.csv", lambda rows: rows[:-1])
        bad, _ = self.worker.check_design(cfg, result)
        self.assertTrue(any("rows" in b for b in bad), bad)

    def test_estimate_nonfinite_and_summary(self):
        cfg, design_paths, result = self._run("estimate-paper", trials=1)
        self._rewrite(result / "trials.csv",
                      lambda rows: rows[:1] + [rows[1][:4] + ["nan"]] + rows[2:])
        bad, _ = self.worker.check_estimate(cfg, design_paths, result)
        self.assertTrue(any("bad NMSE" in b for b in bad), bad)
        self.assertTrue(any("disagrees" in b for b in bad), bad)

    def test_estimate_blocks_match_one_call(self):
        # Blocks shift base_seed by their first trial, so each trial keeps its seeds and NMSE.
        whole = replace(WORKLOADS["estimate-paper"], trials=2, block_trials=None)
        rows = {}
        for workload in (whole, replace(whole, block_trials=1)):
            out = self.out / f"blocks-{workload.block_trials}"
            record = self.worker.run_repeat(workload, 0, out, traced=False)
            self.assertEqual(record["violations"], [])
            self.assertEqual(len(record["calls"]), 2 // (workload.block_trials or 2))
            cfg, design_paths = self.worker.set_up(workload, 0, out)
            rows[workload.block_trials] = sorted(
                (r["method"], r["snr_db"], r["seed"], r["nmse"])
                for _, call_out, _ in self.worker.command_calls(workload, cfg, design_paths, out / "result")
                for r in csv.DictReader((call_out / "trials.csv").read_text().splitlines())
            )
        self.assertEqual(rows[None], rows[1])


if __name__ == "__main__":
    if "--short" in sys.argv:
        sys.argv.remove("--short")
        SHORT = True
    unittest.main()
