#!/usr/bin/env python3
"""Print the sha256 of every artifact the astvec commands write for fixed seeds.

A refactor that claims no behaviour change should leave this output unchanged:
run it before and after the change and compare. In a temporary directory it
runs, on data/corpus.jsonl and in-process: `train` (3 epochs), `train --resume`
(a 4th epoch), `nn` for every symbol, `cluster --out --report`, `export`,
`classify`, `classify --no-fine-tune`, `corpus-build --generate`, and
`corpus-build --src-dir` over the seed-0 generated sources written as
<label>/<source_id>.c. It also writes parse.txt: for every fixture source under
tests/fixtures, and for every prefix and suffix of each, the parser's tree or
its error (class, line, column, message, expected). And it writes load.txt:
for the corpus and for a fixed list of edited corpus lines, the corpus that
`load_corpus` returns, dumped again, or its error (class and message); then,
for a fixed list of edited node documents, the tree `load_ast` returns, dumped
again, or its error. And it writes depth.txt: for each construct in
`NESTING` (tests/conftest.py), the deepest nesting up to 2,000 that parses,
bisected, or ">=2000" for a construct that still parses at the cap. And it
writes state.txt:
for model.json and resumed.json as `trainer.load_checkpoint` reads them, the
sha256 of the parameters' and the velocity's float64 bytes, the epoch, the
loss history and the hyperparameters, so a change to the checkpoint's format
alone leaves state.txt as it was. And it writes
objective.txt: the repr of `coder.objective` at model.json's parameters, over
one negative per sample of the corpus, drawn with seed OBJECTIVE_SEED.

No digest depends on the host: the classification curves are computed in the
kernel, in a fixed order, not by BLAS or numpy's SIMD loops. Run from anywhere:

    python3 scripts/artifact_digests.py
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from astvec import cli, coder, corpusgen, sampling, trainer  # noqa: E402
from astvec.ast_core import (  # noqa: E402
    KIND_NAMES,
    AstFormatError,
    dump_ast,
    dump_corpus,
    load_ast,
    load_corpus,
)
from astvec.cparse import CParseError, parse_file, parse_source  # noqa: E402
from conftest import NESTING  # noqa: E402

CORPUS = ROOT / "data" / "corpus.jsonl"
FIXTURES = ROOT / "tests" / "fixtures"
TRAIN_EPOCHS = 3
MAX_DEPTH = 2000
OBJECTIVE_SEED = 1

LEAF = '{"kind":"ID","children":[]}'
DEEP = '{"kind":"UnaryOp","children":[' * 899 + LEAF + "]}" * 899
DEEP_REORDERED = ('{"children":[' * 899 + '{"children":[],"kind":"ID"}'
                  + '],"kind":"UnaryOp"}' * 899)
RETURN = '{"kind":"Return","children":['
# Node documents a step from canonical: a trailing comma, one "]}" too few,
# one too many, a leaf with no "children", a kind spelled with an escape, a
# space after a comma, and chains 200 and 201 tall with a space after them:
# `json` reads the first, and the second nests past `MAX_JSON_NESTING`; then
# a canonical chain 5,000 tall, which only the canonical reader reads.
NEAR_CANONICAL = [
    RETURN + LEAF + ",]}",
    RETURN + LEAF,
    RETURN + LEAF + "]}]}",
    '{"kind":"ID"}',
    '{"kind":"\\u0049D","children":[]}',
    RETURN + LEAF + ", " + LEAF + "]}",
    '{"kind":"UnaryOp","children":[' * 199 + LEAF + "]}" * 199 + " ",
    '{"kind":"UnaryOp","children":[' * 200 + LEAF + "]}" * 200 + " ",
    '{"kind":"UnaryOp","children":[' * 4999 + LEAF + "]}" * 4999,
]
# Corpus lines that are not canonical or not valid, each placed between
# canonical lines: keys reordered, spaced, missing or repeated, extra keys,
# bad kinds and children, nesting too deep to load, and the near-canonical
# documents as "ast".
EDITED_LINES = [
    '{"source_id":"s","label":"a","ast":{"children":[],"kind":"ID"}}',
    '{ "label" : "a" , "source_id" : "s" , "ast" : { "kind" : "ID" , "children" : [ ] } }',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","children":[{"kind":"ID"}]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"If","kind":"ID","children":[]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":[],"children":[' + LEAF + ']}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":[],"x":1}}',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","child":[' + LEAF + ']}}',
    '{"label":"a","source_id":"s","ast":' + LEAF + ',"x":{"kind":"Bogus","children":[]}}',
    '{"label":"a","source_id":"s","ast":' + LEAF + ',"kind":"ID","children":[]}',
    LEAF,
    '{"label":"a","source_id":"s","ast":{"kind":"Return","children":[{"kind":"Bogus"}]}}',
    '{"label":"a","source_id":"s","ast":{"kind":3,"children":[]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":{}}}',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","children":[1]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","children":[[]]}}',
    '{"label":["x"],"source_id":"s","ast":' + LEAF + '}',
    '{"label":"a","source_id":null,"ast":' + LEAF + '}',
    '{"label":"a","source_id":"s"}',
    '{"label":"a","source_id":"s","ast":' + LEAF,
    '\ufeff{"label":"a","source_id":"s","ast":' + LEAF + '}',
    '{"label":"a","source_id":"s","ast":' + DEEP + '}',
    '{"label":"a","source_id":"s","ast":' + DEEP_REORDERED + '}',
] + ['{"label":"a","source_id":"s","ast":' + doc + '}' for doc in NEAR_CANONICAL]
# Node documents, each loaded alone by `load_ast`: the edited "ast" values of
# the lines above, an array, a byte order mark, a truncated document, the
# two deep chains and the near-canonical documents.
EDITED_NODES = [
    '{"children":[],"kind":"ID"}',
    '{ "kind" : "ID" , "children" : [ ] }',
    '{"kind":"Return","children":[{"kind":"ID"}]}',
    '{"kind":"If","kind":"ID","children":[]}',
    '{"children":"ID","kind":[]}',
    '{"kind":"ID","children":[],"children":[' + LEAF + ']}',
    '{"kind":"ID","children":[],"x":1}',
    '{"kind":"Return","child":[' + LEAF + ']}',
    '{"kind":"Return","children":[{"kind":"Bogus"}]}',
    '{"kind":3,"children":[]}',
    '{"kind":"ID","children":{}}',
    '{"kind":"Return","children":[1]}',
    '{"kind":"Return","children":[[]]}',
    '[' + LEAF + ']',
    '\ufeff' + LEAF,
    LEAF[:-1],
    DEEP,
    DEEP_REORDERED,
] + NEAR_CANONICAL


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


def deepest(make) -> str:
    """The deepest nesting of make(n), 1 <= n <= MAX_DEPTH, that parses, or
    ">=MAX_DEPTH" if make(MAX_DEPTH) parses: the cap is not a limit. Any error
    but "nesting too deep" is raised."""
    def parses(n: int) -> bool:
        try:
            parse_source(make(n))
            return True
        except CParseError as exc:
            if exc.message != "nesting too deep":
                raise
            return False

    lo, hi = 1, MAX_DEPTH + 1  # make(lo) parses; make(hi) does not, or is past the cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if parses(mid) else (lo, mid)
    return str(lo) if lo < MAX_DEPTH else f">={MAX_DEPTH}"


def depth_results() -> str:
    return "".join(f"{name} {deepest(make)}\n" for name, make in NESTING.items())


def load_outcome(load, dump, text: str) -> str:
    try:
        return dump(load(text))
    except AstFormatError as exc:
        return f"{type(exc).__name__} {exc}\n"


def load_results() -> str:
    corpus = CORPUS.read_text(encoding="utf-8")
    lines = corpus.splitlines(keepends=True)
    head, tail = "".join(lines[:2]), "".join(lines[2:4])
    return "".join(
        [load_outcome(load_corpus, dump_corpus, corpus)]
        + [load_outcome(load_corpus, dump_corpus, head + line + "\n" + tail)
           for line in EDITED_LINES]
        + [load_outcome(load_ast, lambda tree: dump_ast(tree) + "\n", doc)
           for doc in EDITED_NODES])


def state_results(*paths: Path) -> str:
    lines = []
    for path in paths:
        state = trainer.load_checkpoint(path)
        fields = {
            "params": hashlib.sha256(state.params.flat.tobytes()).hexdigest(),
            "velocity": hashlib.sha256(state.velocity.flat.tobytes()).hexdigest(),
            "epoch": state.epoch,
            "loss_history": repr(state.loss_history),
            "hyper": json.dumps(dataclasses.asdict(state.hyper), sort_keys=True),
        }
        lines += [f"{path.name} {name} {value}\n" for name, value in fields.items()]
    return "".join(lines)


def objective_result(path: Path) -> str:
    state = trainer.load_checkpoint(path)
    samples = sampling.build_training_set(load_corpus(CORPUS.read_text(encoding="utf-8")))
    rng = np.random.default_rng(OBJECTIVE_SEED)
    pairs = [(s, sampling.corrupt(s, rng)) for s in samples]
    return repr(coder.objective(pairs, state.params, state.hyper)) + "\n"


def write_sources(src: Path) -> None:
    for label, source_id, text in corpusgen.generate_sources(seed=0):
        (src / label).mkdir(parents=True, exist_ok=True)
        (src / label / f"{source_id}.c").write_text(text, encoding="utf-8")


def write_artifacts(d: Path, src: Path) -> None:
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
    astvec("classify", "--corpus", str(CORPUS), "--checkpoint", model,
           "--out-dir", str(d / "classify_frozen"), "--no-fine-tune")
    astvec("corpus-build", "--generate", "--out", str(d / "generated.jsonl"))
    write_sources(src)
    astvec("corpus-build", "--src-dir", str(src), "--out", str(d / "from_sources.jsonl"))
    (d / "parse.txt").write_text(parse_results(), encoding="utf-8")
    (d / "load.txt").write_text(load_results(), encoding="utf-8")
    (d / "depth.txt").write_text(depth_results(), encoding="utf-8")
    (d / "state.txt").write_text(state_results(d / "model.json", d / "resumed.json"),
                                 encoding="utf-8")
    (d / "objective.txt").write_text(objective_result(d / "model.json"), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp) / "artifacts"
        d.mkdir()
        write_artifacts(d, Path(tmp) / "sources")
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(d).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
