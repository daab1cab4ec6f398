"""Every desk and short-paper pipeline output matches its checked-in sha256.

``pipeline_digests.txt`` opens with the numpy version, BLAS build and
OpenBLAS core its bytes were made with. Another fingerprint may round
differently, so there the test skips and names what differs instead of
comparing. A change that alters outputs on purpose regenerates the file with
``OPENBLAS_NUM_THREADS=1 python tests/pipeline_digests.py OUT >
tests/pipeline_digests.txt``.
"""

from pathlib import Path

import pytest

from pipeline_digests import fingerprint, listing

CHECKED_IN = Path(__file__).with_name("pipeline_digests.txt")


def test_outputs_match_checked_in_digests(tmp_path):
    lines = CHECKED_IN.read_text().splitlines()
    recorded = [line for line in lines if line.startswith("# ")]
    here = fingerprint()
    if recorded != here:
        differ = [f"{want!r} (here {have!r})" for want, have in zip(recorded, here) if want != have]
        pytest.skip(f"digests were made on another fingerprint: {', '.join(differ)}")
    expected = [line for line in lines if not line.startswith("# ")]
    assert len(expected) == 29
    assert listing(tmp_path / "out") == expected
