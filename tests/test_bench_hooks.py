"""The benchmark's tracer and worker reach into pilotopt by name.

``bench/spans.py`` skips a name it cannot find, so a renamed function would
make its layer silently read 0. These checks resolve every name the
benchmark uses without installing the tracer (``install`` patches modules
globally). The benchmark's own self-test also runs here, in its short form.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

from pilotopt import coherence, estimator, harness

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_harness_spans_resolve():
    spans = _load_spans()
    missing = [name for name in spans._HARNESS_SPANS if not callable(getattr(harness, name, None))]
    assert not missing


def test_method_spans_resolve():
    spans = _load_spans()
    missing = [
        (cls, attr)
        for cls, attr in spans._METHOD_SPANS
        if not callable(getattr(getattr(coherence, cls, None), attr, None))
    ]
    assert not missing


def test_omp_solver_registered():
    assert callable(estimator.SOLVERS["omp"])


def test_worker_harness_attributes_resolve():
    tree = ast.parse((BENCH / "worker.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "harness"
    }
    assert used, "worker.py no longer reaches pilotopt.harness by attribute"
    assert not [name for name in sorted(used) if not hasattr(harness, name)]


def test_bench_selftest_short():
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py"), "--short"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
