"""The sha256 of every host-independent artifact that scripts/artifact_digests.py
writes, pinned. A change that moves an artifact on purpose updates
tests/fixtures/artifact_digests.txt. The classification curves are left out:
their bytes depend on the BLAS core and on numpy's SIMD dispatch."""

import subprocess
import sys

from conftest import REPO

PINNED = REPO / "tests" / "fixtures" / "artifact_digests.txt"


def test_artifact_digests_pinned():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "artifact_digests.py")],
        capture_output=True, text=True, check=True,
    )
    lines = [line for line in proc.stdout.splitlines() if not line.endswith("_curves.csv")]
    assert lines == PINNED.read_text(encoding="utf-8").splitlines()
