#!/usr/bin/env python3
"""Print the sha256 of every artifact the astvec commands write for fixed seeds.

A refactor that claims no behaviour change should leave this output unchanged:
run it before and after the change and compare. In a temporary directory it
runs, on data/corpus.jsonl and in-process: `train` (3 epochs), `train --resume`
(a 4th epoch), `nn` for every symbol, `cluster --out --report`, `export` and
`classify`. Run from anywhere:

    python3 scripts/artifact_digests.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from astvec import cli  # noqa: E402
from astvec.ast_core import KIND_NAMES  # noqa: E402

CORPUS = ROOT / "data" / "corpus.jsonl"
TRAIN_EPOCHS = 3


def astvec(*argv: str) -> str:
    """`astvec <argv>` in-process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"astvec {' '.join(argv)} exited {code}")
    return out.getvalue()


def write_artifacts(d: Path) -> None:
    model, resumed = str(d / "model.json"), str(d / "resumed.json")
    astvec("train", "--corpus", str(CORPUS), "--out", model,
           "--loss-log", str(d / "loss.csv"), "--epochs", str(TRAIN_EPOCHS))
    astvec("train", "--corpus", str(CORPUS), "--out", resumed, "--resume", model,
           "--loss-log", str(d / "resumed_loss.csv"), "--epochs", str(TRAIN_EPOCHS + 1))
    (d / "nn.txt").write_text(
        "".join(astvec("nn", "--checkpoint", model, "--symbol", name)
                for name in KIND_NAMES),
        encoding="utf-8",
    )
    astvec("cluster", "--checkpoint", model, "--out", str(d / "clusters.csv"),
           "--report", str(d / "report.txt"))
    astvec("export", "--checkpoint", model, "--out", str(d / "embeddings.txt"))
    astvec("classify", "--corpus", str(CORPUS), "--checkpoint", model,
           "--out-dir", str(d / "classify"))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_artifacts(d)
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(d).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
