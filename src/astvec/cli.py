"""Command-line entry point.

Subcommands: parse, corpus-build, train, nn, cluster, classify, export.
Exit codes: 0 success, 1 usage error, 2 input/format error, 3 numerical failure
or out of memory, 4 the C kernel cannot be compiled.

Only the front end, `cparse` and `ast_core`, is imported here; each other
command imports the modules it runs, so `parse` and `corpus-build --src-dir`
never import numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import logging
import os
import stat
import sys
from pathlib import Path

from . import cparse
from .ast_core import (
    KIND_NAMES,
    AstFormatError,
    LabeledProgram,
    UnknownKindError,
    dump_ast,
    dump_corpus,
    load_corpus,
)
from .cparse import CParseError, parse_file

log = logging.getLogger("astvec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_BUILD = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        self.code = code
        super().__init__(message)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as a usage error, in one line, instead of
    printing the usage and exiting 2; subparsers are built from this class."""

    def error(self, message):
        raise CliError(message, EXIT_USAGE)


# (flag, Hyperparams field, type, help); an unset flag takes the field's default
HYPER_FLAGS = (
    ("--dim", "n_f", int, "embedding dimension"),
    ("--margin", "delta", float, "ranking margin"),
    ("--lambda", "lam", float, "l2 coefficient on the weight matrices"),
    ("--lr", "alpha", float, "learning rate"),
    ("--momentum", "epsilon", float, "momentum decay"),
    ("--epochs", "epochs", int, "epoch limit"),
    ("--seed", "seed", int, "seeds the init and keys every epoch's draws"),
)


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    for flag, name, kind, help_text in HYPER_FLAGS:
        p.add_argument(flag, dest=name, type=kind, metavar=flag[2:].upper(),
                       help=help_text)


def _hyper_from_args(args):
    from .coder import Hyperparams

    hyper = Hyperparams(**{
        name: getattr(args, name)
        for _, name, _, _ in HYPER_FLAGS
        if getattr(args, name) is not None
    })
    try:
        hyper.validate()
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    return hyper


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise CliError("seed must be >= 0", EXIT_USAGE)


@contextlib.contextmanager
def _os_errors(path):
    """Turn an OSError on `path` into a one-line input error."""
    try:
        yield
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")


def _put(content, path) -> None:
    if callable(content):
        content(path)
    else:
        Path(path).write_text(content, encoding="utf-8")


def _write(*outputs) -> None:
    """Write every (path, content) output, or none of them.

    `content` is text, or a function that writes the output to the path it is
    given. A new path, or one that names a regular file, is written to a
    temporary beside it (beside the file a symlink names, if it is one) with
    the file's permission bits; only once all are written are they renamed
    into place, and on any failure they are deleted, so a failed command
    leaves every such path as it was (a hard link to the old file keeps the
    old content). A device, FIFO or pipe, such as /dev/null or /dev/stdout,
    cannot be replaced: it is written in place, after the temporaries and
    before any rename. An output without a path goes to stdout, last. Two
    paths that resolve to one file are a usage error, and nothing is written.
    """
    files = [(path, content) for path, content in outputs if path]
    named: set[str] = set()
    for path, _ in files:
        real = os.path.realpath(path)
        if real in named:
            raise CliError(f"{path}: another output writes the same file", EXIT_USAGE)
        named.add(real)
    temps = {}  # index in files -> (temporary, the file it replaces)
    try:
        for i, (path, content) in enumerate(files):
            with _os_errors(path):
                try:
                    mode = os.stat(path).st_mode
                except FileNotFoundError:
                    mode = None
                if mode is not None and stat.S_ISDIR(mode):
                    raise CliError(f"{path}: Is a directory")
                if mode is None or stat.S_ISREG(mode):
                    target = Path(os.path.realpath(path))
                    tmp = target.with_name(f"{target.name}.{os.getpid()}.{i}.tmp")
                    temps[i] = tmp, target
                    _put(content, tmp)
                    if mode is not None:
                        os.chmod(tmp, stat.S_IMODE(mode))
        for i, (path, content) in enumerate(files):
            if i not in temps:
                with _os_errors(path):
                    _put(content, path)
        for i, (tmp, target) in temps.items():
            with _os_errors(files[i][0]):
                tmp.replace(target)
        for path, _ in files:
            log.info("wrote %s", path)
    finally:
        for tmp, _ in temps.values():
            with contextlib.suppress(OSError):
                tmp.unlink()
    for path, content in outputs:
        if not path:
            sys.stdout.write(content)


def cmd_parse(args) -> int:
    if args.out_dir:
        with _os_errors(args.out_dir):
            Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    outputs = []
    for path in args.files:
        src = Path(path)
        try:
            with _os_errors(src):
                ast = parse_file(src)
        except CParseError as exc:
            raise CliError(f"{src}:{exc.line}:{exc.column}: {exc.message}")
        out = Path(args.out_dir) / (src.stem + ".ast.json") if args.out_dir else None
        outputs.append((out, dump_ast(ast) + "\n"))
    _write(*outputs)
    return EXIT_OK


def _source_path(entry: os.DirEntry) -> str | None:
    """The entry's path; None if it is neither a regular file nor a directory
    once a symlink is followed, such as a FIFO, which a read would wait on."""
    try:
        return entry.path if entry.is_file() or entry.is_dir() else None
    except OSError:  # only a symlink costs a stat; the read reports its error
        return entry.path


def _c_sources(root: Path) -> list[tuple[tuple[str, ...], str | None]]:
    """(components under `root`, path) of every entry in its tree whose name
    ends in ".c", of any type, in the order `sorted(root.rglob("*.c"))` gives
    on Python 3.11: by the tuple of components; the path is `_source_path`'s.

    One `os.scandir` per directory, each listing walked in name order, depth
    first, so the entries come out in that order with no sort across the
    tree. Only real directories are walked into, not a symlink to one. A
    subdirectory that cannot be listed is skipped with a warning; `root`
    itself is an input error.
    """
    found = []
    stack = [((), str(root), True)]  # (components, path, walk into it)
    while stack:
        parts, path, is_dir = stack.pop()
        if parts and parts[-1].endswith(".c"):
            found.append((parts, path))
        if not is_dir:
            continue
        try:
            with os.scandir(path) as listing:
                entries = sorted(
                    ((e.name, _source_path(e) if e.name.endswith(".c") else e.path,
                      e.is_dir(follow_symlinks=False)) for e in listing), reverse=True)
        except OSError as exc:
            if not parts:
                raise CliError(f"{root}: {exc.strerror or exc}")
            log.warning("skipping %s: %s", root.joinpath(*parts), exc.strerror or exc)
            continue
        # pushed last name first, so they pop in order
        stack.extend(((*parts, name), sub, sub_dir) for name, sub, sub_dir in entries)
    return found


def cmd_corpus_build(args) -> int:
    if args.per_class < 1:
        raise CliError("per-class must be >= 1", EXIT_USAGE)
    _check_seed(args.seed)
    if args.src_dir == "":  # Path("") would be the working directory
        raise CliError("--src-dir must not be empty", EXIT_USAGE)
    if args.generate:
        from . import corpusgen

        programs = corpusgen.generate_corpus(seed=args.seed, per_class=args.per_class)
    else:
        root = Path(args.src_dir)
        if not root.is_dir():
            raise CliError(f"{root}: not a directory")
        # the corpus's trees share their equal subtrees, and a source text
        # read again is not parsed again
        parse = cparse.ParseMemo()
        programs = []
        paths = _c_sources(root)
        read = 0
        for parts, path in paths:
            try:
                if path is None:
                    raise OSError("not a regular file")
                source = cparse.read_source(path)
                read += 1
                ast = parse(source)
            except OSError as exc:
                log.warning("skipping %s: %s", root.joinpath(*parts), exc.strerror or exc)
                continue
            except CParseError as exc:
                log.warning("skipping %s: %s:%s: %s", root.joinpath(*parts),
                            exc.line, exc.column, exc.message)
                continue
            # the parent directory's name, and the name less ".c", as
            # Path.parent.name and Path.stem give them
            label = parts[-2] if len(parts) > 1 else root.name
            name = parts[-1]
            programs.append(LabeledProgram(ast=ast, label=label, source_id=name[:-2] or name))
        log.info("read %d sources: %d repeat an earlier one's text, %d skipped",
                 read, read - len(parse.parsed), len(paths) - len(programs))
    _write((args.out, dump_corpus(programs)))
    return EXIT_OK


def _load_corpus_file(path) -> list:
    try:
        with _os_errors(path):
            text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not valid UTF-8 at byte {exc.start}")
    try:
        return load_corpus(text)
    except AstFormatError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_train(args) -> int:
    from . import kernel, sampling, trainer

    samples = sampling.build_training_set(_load_corpus_file(args.corpus))
    if not samples:
        raise CliError("corpus yields no training samples")
    hyper = _hyper_from_args(args)
    state = None
    if args.resume:
        state = _load_checkpoint(args.resume)
        ignored = [flag for flag, name, _, _ in HYPER_FLAGS
                   if name != "epochs" and getattr(args, name) is not None]
        if ignored:
            log.warning("%s: the checkpoint's hyperparameters override %s",
                        args.resume, ", ".join(ignored))
        if args.epochs is not None:
            state.hyper = dataclasses.replace(state.hyper, epochs=args.epochs)
    try:
        state, report = trainer.train(samples, hyper, state=state)
    except trainer.TrainingDiverged as exc:
        raise CliError(str(exc), EXIT_NUMERIC)
    except MemoryError as exc:
        raise CliError(str(exc) or "out of memory", EXIT_NUMERIC)
    except kernel.KernelBuildError as exc:
        raise CliError(str(exc), EXIT_BUILD)
    outputs = [(args.out, lambda path: trainer.save_checkpoint(state, path))]
    if args.loss_log:
        outputs.append((args.loss_log,
                        f"# seed={state.hyper.seed}\n" + trainer.loss_log_csv(report)))
    _write(*outputs)
    log.info(
        "trained %d epochs, final mean hinge %.6f -> %s",
        report.epochs_run,
        report.mean_hinge[-1] if report.mean_hinge else float("nan"),
        args.out,
    )
    return EXIT_OK


def _load_checkpoint(path):
    from . import trainer

    try:
        with _os_errors(path):
            return trainer.load_checkpoint(path)
    except trainer.CheckpointError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_nn(args) -> int:
    from . import analysis

    embeddings = _load_checkpoint(args.checkpoint).params.embeddings
    try:
        ranked = analysis.nearest_neighbors(embeddings, args.symbol, args.top)
    except UnknownKindError as exc:
        raise CliError(str(exc))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    for rank, (kind, dist) in enumerate(ranked, start=1):
        print(f"{rank}\t{KIND_NAMES[kind]}\t{dist:.6f}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    from . import analysis

    _check_seed(args.seed)
    embeddings = _load_checkpoint(args.checkpoint).params.embeddings
    try:
        clustering = analysis.kmeans(
            embeddings, k=args.k, restarts=args.restarts, seed=args.seed
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    header = f"# seed={args.seed}\n"
    outputs = [(args.out, (header if args.out else "") + analysis.clusters_csv(clustering[0]))]
    if args.report:
        outputs.append((args.report, header + analysis.render_report(embeddings, clustering)))
    _write(*outputs)
    return EXIT_OK


def cmd_classify(args) -> int:
    from . import classify, kernel

    if args.epochs < 0:
        raise CliError("epochs must be >= 0", EXIT_USAGE)
    _check_seed(args.seed)
    corpus = _load_corpus_file(args.corpus)
    if not corpus:
        raise CliError("corpus holds no programs")
    try:
        labels, train, cv, test = classify.task(corpus, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))

    params = _load_checkpoint(args.checkpoint).params if args.checkpoint else None
    config = classify.ClassifierConfig(epochs=args.epochs, seed=args.seed,
                                       fine_tune=not args.no_fine_tune)
    # the input layer: histogram counts, the pretrained table, a random one
    runs = [("logistic_regression", dataclasses.replace(config, hidden=()), None)]
    if params is not None:
        runs.append(("deep_pretrained", config, params.embeddings))
        runs.append(("deep_random", config, params.n_f))

    out_dir = Path(args.out_dir)
    with _os_errors(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    summary = [f"# seed={args.seed}",
               f"# distinct rows: train {len(train.y)}, cv {len(cv.y)}, test {len(test.y)}",
               "Program classification accuracy", "=" * 32]
    curves_files = []
    try:
        for name, cfg, embed in runs:
            model, curves = classify.train_classifier(
                train, len(labels), cfg, embed=embed, cv=cv)
            acc, xent = classify.evaluate(model, test)
            curves_files.append((out_dir / f"{name}_curves.csv",
                                 f"# seed={args.seed}\n" + classify.curves_csv(curves)))
            summary.append(f"{name:24s} test accuracy {acc * 100:6.2f}%  xent {xent:.4f}")
    except kernel.KernelBuildError as exc:
        raise CliError(str(exc), EXIT_BUILD)
    except RuntimeError as exc:
        raise CliError(str(exc), EXIT_NUMERIC)
    summary.append(f"{'random_guess':24s} test accuracy {100.0 / len(labels):6.2f}%")
    text = "\n".join(summary) + "\n"
    _write(*curves_files, (out_dir / "summary.txt", text), (None, text))
    return EXIT_OK


def cmd_export(args) -> int:
    from . import embedding_io

    cp = _load_checkpoint(args.checkpoint)
    _write((args.out, embedding_io.format_embeddings(cp.params.embeddings)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: each `parse_args`
    call gives a new namespace and keeps no state between calls."""
    parser = _ArgumentParser(
        prog="astvec",
        description="Learn and evaluate vector representations of C AST node kinds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse C files to AST documents")
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--out-dir")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("corpus-build", help="build a labeled corpus file")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--src-dir", help="directory with <label>/<name>.c files")
    source.add_argument("--generate", action="store_true",
                        help="generate the bundled synthetic corpus")
    p.add_argument("--per-class", type=int, default=55)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_corpus_build)

    p = sub.add_parser("train", help="train embeddings on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--loss-log", help="CSV loss log path")
    p.add_argument("--resume", help="checkpoint to resume from")
    _add_hyper_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("nn", help="nearest neighbors of a symbol")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--symbol", required=True)
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_nn)

    p = sub.add_parser("cluster", help="k-means clustering of the embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.add_argument("--report", help="plain-text report path")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("classify", help="program-classification comparison")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", help="coder checkpoint for pretrained embeddings")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-fine-tune", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("export", help="write the embedding table as text")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        args = build_parser().parse_args(argv)
        logging.getLogger().setLevel(logging.INFO)
        return args.func(args)
    except CliError as exc:
        log.error("%s", exc)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
