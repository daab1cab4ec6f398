"""Run the desk and short paper pipelines and print a sha256 of every output.

Usage: ``OPENBLAS_NUM_THREADS=1 python tests/pipeline_digests.py OUT``

Every command runs in-process through ``pilotopt.cli.main`` on the
``pilotopt`` in this checkout's ``src``, writing under ``OUT`` (which must
not exist yet). The script prints the ``# key: value`` lines of the numpy
and BLAS fingerprint the bytes depend on, then one ``sha256  relative/path``
line per output file, sorted by path, and exits 1 if any command fails.
``tests/pipeline_digests.txt`` is this listing, and
``test_pipeline_digests.py`` holds every later output to it; a change that
alters outputs on purpose regenerates it by redirecting this script into
it. The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pilotopt.cli import main  # noqa: E402

# Overrides of the paper profile; desk runs at its profile values.
_PAPER_CONFIG = "iterations = 20\nnum_trials = 8\n"


def _pipelines(out: Path, paper_config: Path) -> list[list[str]]:
    """The commands, in order; ``gradcheck``'s stdout is saved as an output."""
    desk, paper = out / "desk", out / "paper"
    d = ["--profile", "desk"]
    p = ["--profile", "paper", "--config", str(paper_config)]
    desk_designs = [str(desk / "design" / "design_optimized.json"),
                    str(desk / "design_gauss_random.json")]
    paper_designs = [str(paper / "design_b0.json"), str(paper / "design_b1.json")]
    return [
        ["design", *d, "--out", str(desk / "design")],
        ["baseline", *d, "--match-design", desk_designs[0], "--out", desk_designs[1]],
        ["estimate", *d, "--designs", *desk_designs, "--out", str(desk / "estimate")],
        ["report", *d, "--design", desk_designs[0], "--out", str(desk / "report")],
        ["sweep-lambda", *d, "--lambdas", "0,1.5,3", "--target-q", "4",
         "--out", str(desk / "sweep")],
        ["gradcheck", *d],
        ["design", *p, "--out", str(paper / "design")],
        ["baseline", *p, "--seed", "0", "--target-q", "8", "--out", paper_designs[0]],
        ["baseline", *p, "--seed", "1", "--target-q", "8", "--out", paper_designs[1]],
        ["estimate", *p, "--designs", *paper_designs, "--out", str(paper / "estimate")],
        ["report", *p, "--design", str(paper / "design" / "design_optimized.json"),
         "--out", str(paper / "report")],
    ]


def _openblas_core() -> str:
    """The CPU kernel set OpenBLAS picked at load time, or ``unknown``."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            get_corename = getattr(ctypes.CDLL(str(lib)), name, None)
            if get_corename is not None:
                get_corename.argtypes, get_corename.restype = [], ctypes.c_char_p
                return get_corename().decode()
    return "unknown"


def fingerprint() -> list[str]:
    """``# key: value`` lines for numpy's version, its BLAS build and the OpenBLAS core."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return [f"# numpy: {np.__version__}", f"# blas: {blas.get('name')} {blas.get('version')}",
            f"# openblas_core: {_openblas_core()}"]


def listing(out: Path) -> list[str]:
    """Run every pipeline under ``out``; one ``sha256  relative/path`` line per output."""
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        paper_config = Path(tmp) / "paper.cfg"
        paper_config.write_text(_PAPER_CONFIG)
        for argv in _pipelines(out, paper_config):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: pilotopt {' '.join(argv)}")
            if argv[0] == "gradcheck":
                (out / "desk" / "gradcheck.txt").write_text(stdout.getvalue())
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
            for path in sorted(p for p in out.rglob("*") if p.is_file())]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    try:
        lines = listing(Path(sys.argv[1]))
    except RuntimeError as exc:
        sys.exit(str(exc))
    print("\n".join(fingerprint() + lines))
