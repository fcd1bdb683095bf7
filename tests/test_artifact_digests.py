"""The sha256 of every artifact that scripts/artifact_digests.py writes,
pinned. A change that moves an artifact on purpose updates
tests/fixtures/artifact_digests.txt. Every artifact is host-independent: the
classification curves too, since classify trains and scores in the kernel."""

import subprocess
import sys

from conftest import REPO

PINNED = REPO / "tests" / "fixtures" / "artifact_digests.txt"


def test_artifact_digests_pinned():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "artifact_digests.py")],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == PINNED.read_text(encoding="utf-8").splitlines()
