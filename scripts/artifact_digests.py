#!/usr/bin/env python3
"""Print the sha256 of every artifact the astvec commands write for fixed seeds.

A refactor that claims no behaviour change should leave this output unchanged:
run it before and after the change and compare. In a temporary directory it
runs, on data/corpus.jsonl and in-process: `train` (3 epochs), `train --resume`
(a 4th epoch), `nn` for every symbol, `cluster --out --report`, `export`,
`classify` and `corpus-build --generate`. It also writes parse.txt: for every
fixture source under tests/fixtures, and for every prefix and suffix of each,
the parser's tree or its error (class, line, column, message, expected).
Run from anywhere:

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
from astvec.ast_core import KIND_NAMES, dump_ast  # noqa: E402
from astvec.cparse import CParseError, parse_file, parse_source  # noqa: E402

CORPUS = ROOT / "data" / "corpus.jsonl"
FIXTURES = ROOT / "tests" / "fixtures"
TRAIN_EPOCHS = 3


def astvec(*argv: str) -> str:
    """`astvec <argv>` in-process; returns its standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != cli.EXIT_OK:
        raise SystemExit(f"astvec {' '.join(argv)} exited {code}")
    return out.getvalue()


def parse_outcome(parse, arg) -> str:
    try:
        return dump_ast(parse(arg))
    except CParseError as exc:
        return (f"{type(exc).__name__} {exc.line}:{exc.column} "
                f"{exc.message!r} {exc.expected!r}")


def parse_results() -> str:
    lines = []
    for src in sorted(FIXTURES.glob("*/*.c")):
        name = src.relative_to(FIXTURES).as_posix()
        text = src.read_text(encoding="utf-8")
        lines.append(f"{name} file {parse_outcome(parse_file, src)}")
        for i in range(len(text) + 1):
            lines.append(f"{name} prefix {i} {parse_outcome(parse_source, text[:i])}")
            lines.append(f"{name} suffix {i} {parse_outcome(parse_source, text[i:])}")
    return "\n".join(lines) + "\n"


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
    astvec("corpus-build", "--generate", "--out", str(d / "generated.jsonl"))
    (d / "parse.txt").write_text(parse_results(), encoding="utf-8")


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
