"""Command-line entry point.

Subcommands: parse, corpus-build, train, nn, cluster, classify, export.
Exit codes: 0 success, 1 usage error, 2 input/format error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

import numpy as np

from . import analysis, classify, corpusgen, embedding_io, trainer
from .ast_core import (
    AstFormatError,
    LabeledProgram,
    dump_ast,
    dump_corpus,
    load_corpus,
)
from .coder import Hyperparams
from .cparse import CParseError, parse_file

log = logging.getLogger("astvec")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_INPUT):
        self.code = code
        super().__init__(message)


# (flag, Hyperparams field, type, help); an unset flag takes the field's default
HYPER_FLAGS = (
    ("--dim", "n_f", int, "embedding dimension"),
    ("--margin", "delta", float, "ranking margin"),
    ("--lambda", "lam", float, "l2 coefficient on the weight matrices"),
    ("--lr", "alpha", float, "learning rate"),
    ("--momentum", "epsilon", float, "momentum decay"),
    ("--epochs", "epochs", int, "epoch limit"),
    ("--seed", "seed", int, "master RNG seed"),
)


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    for flag, name, kind, help_text in HYPER_FLAGS:
        p.add_argument(flag, dest=name, type=kind, metavar=flag[2:].upper(),
                       help=help_text)


def _hyper_from_args(args) -> Hyperparams:
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


def cmd_parse(args) -> int:
    if not args.files:
        raise CliError("no input files", EXIT_USAGE)
    for path in args.files:
        src = Path(path)
        try:
            ast = parse_file(src)
        except OSError as exc:
            raise CliError(f"{src}: {exc.strerror or exc}")
        except CParseError as exc:
            raise CliError(f"{src}:{exc.line}:{exc.column}: {exc.message}")
        doc = dump_ast(ast) + "\n"
        if args.out_dir:
            out = Path(args.out_dir) / (src.stem + ".ast.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(doc, encoding="utf-8")
            log.info("wrote %s", out)
        else:
            sys.stdout.write(doc)
    return EXIT_OK


def cmd_corpus_build(args) -> int:
    if args.generate:
        programs = corpusgen.generate_corpus(seed=args.seed, per_class=args.per_class)
    elif args.src_dir:
        root = Path(args.src_dir)
        if not root.is_dir():
            raise CliError(f"{root}: not a directory")
        programs = []
        for c_path in sorted(root.rglob("*.c")):
            label = c_path.parent.name
            try:
                ast = parse_file(c_path)
            except OSError as exc:
                log.warning("skipping %s: %s", c_path, exc.strerror or exc)
                continue
            except CParseError as exc:
                log.warning(
                    "skipping %s: %s:%s: %s", c_path, exc.line, exc.column, exc.message
                )
                continue
            programs.append(
                LabeledProgram(ast=ast, label=label, source_id=c_path.stem)
            )
    else:
        raise CliError("pass --generate or --src-dir", EXIT_USAGE)
    Path(args.out).write_text(dump_corpus(programs), encoding="utf-8")
    log.info("wrote %d programs to %s", len(programs), args.out)
    return EXIT_OK


def _load_corpus_file(path) -> list:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not valid UTF-8 at byte {exc.start}")
    try:
        return load_corpus(text)
    except AstFormatError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_train(args) -> int:
    from .sampling import build_training_set

    samples = build_training_set(_load_corpus_file(args.corpus))
    if not samples:
        raise CliError("corpus yields no training samples")
    hyper = _hyper_from_args(args)
    state = None
    if args.resume:
        state = _load_params(args.resume)
        ignored = [flag for flag, name, _, _ in HYPER_FLAGS
                   if name != "epochs" and getattr(args, name) is not None]
        if ignored:
            log.warning("%s: the checkpoint's hyperparameters override %s",
                        args.resume, ", ".join(ignored))
        if args.epochs is not None:
            state.hyper = dataclasses.replace(state.hyper, epochs=args.epochs)
    try:
        state, report = trainer.train(
            samples, hyper, shuffle=not args.no_shuffle, state=state
        )
    except trainer.TrainingDiverged as exc:
        raise CliError(str(exc), EXIT_NUMERIC)
    trainer.save_checkpoint(state, args.out)
    if args.loss_log:
        header = f"# seed={state.hyper.seed}\n"
        Path(args.loss_log).write_text(
            header + trainer.loss_log_csv(report), encoding="utf-8"
        )
    log.info(
        "trained %d epochs, final mean hinge %.6f -> %s",
        report.epochs_run,
        report.mean_hinge[-1] if report.mean_hinge else float("nan"),
        args.out,
    )
    return EXIT_OK


def _load_params(path):
    try:
        return trainer.load_checkpoint(path)
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}")
    except trainer.CheckpointError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_nn(args) -> int:
    cp = _load_params(args.checkpoint)
    from .ast_core import UnknownKindError

    try:
        result = analysis.nearest_neighbors(cp.params, args.symbol, args.top)
    except UnknownKindError as exc:
        raise CliError(str(exc))
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    for rank, (kind, dist) in enumerate(result.ranked, start=1):
        print(f"{rank}\t{kind.name}\t{dist:.6f}")
    return EXIT_OK


def cmd_cluster(args) -> int:
    cp = _load_params(args.checkpoint)
    try:
        clustering = analysis.kmeans(
            cp.params, k=args.k, restarts=args.restarts, seed=args.seed
        )
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE)
    header = f"# seed={args.seed}\n"
    if args.out:
        Path(args.out).write_text(
            header + analysis.clusters_csv(clustering), encoding="utf-8"
        )
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(analysis.clusters_csv(clustering))
    if args.report:
        Path(args.report).write_text(
            header + analysis.render_report(cp.params, clustering), encoding="utf-8"
        )
        log.info("wrote %s", args.report)
    return EXIT_OK


def cmd_classify(args) -> int:
    corpus = _load_corpus_file(args.corpus)
    labels = tuple(sorted({p.label for p in corpus}))
    try:
        spec = classify.split(corpus, seed=args.seed)
    except ValueError as exc:
        raise CliError(str(exc))
    X = np.stack([classify.node_histogram(p.ast) for p in corpus]).astype(np.float64)
    y = np.array([labels.index(p.label) for p in corpus])
    tr, cv, te = list(spec.train), list(spec.cv), list(spec.test)

    params = _load_params(args.checkpoint).params if args.checkpoint else None
    config = classify.ClassifierConfig(
        epochs=args.epochs, seed=args.seed, fine_tune=not args.no_fine_tune
    )
    lr_config = classify.ClassifierConfig(
        hidden=(), epochs=args.epochs, seed=args.seed
    )

    runs = [("logistic_regression", "counts", "random", lr_config)]
    if params is not None:
        runs.append(("deep_pretrained", "embed_mean", "pretrained", config))
        runs.append(("deep_random", "embed_mean", "random", config))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [f"# seed={args.seed}", "Program classification accuracy", "=" * 32]
    try:
        for name, mode, init, cfg in runs:
            model, curves = classify.train_classifier(
                X[tr], y[tr], labels, cfg, mode=mode, init=init, params=params,
                cv=(X[cv], y[cv]),
            )
            acc, xent = classify.evaluate(model, X[te], y[te])
            (out_dir / f"{name}_curves.csv").write_text(
                f"# seed={args.seed}\n" + classify.curves_csv(curves),
                encoding="utf-8",
            )
            summary.append(f"{name:24s} test accuracy {acc * 100:6.2f}%  xent {xent:.4f}")
    except RuntimeError as exc:
        raise CliError(str(exc), EXIT_NUMERIC)
    summary.append(f"{'random_guess':24s} test accuracy {100.0 / len(labels):6.2f}%")
    text = "\n".join(summary) + "\n"
    (out_dir / "summary.txt").write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return EXIT_OK


def cmd_export(args) -> int:
    cp = _load_params(args.checkpoint)
    text = embedding_io.format_embeddings(cp.params.embeddings)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="astvec",
        description="Learn and evaluate vector representations of C AST node kinds",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("parse", help="parse C files to AST documents")
    p.add_argument("files", nargs="*")
    p.add_argument("-o", "--out-dir")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("corpus-build", help="build a labeled corpus file")
    p.add_argument("--src-dir", help="directory with <label>/<name>.c files")
    p.add_argument("--generate", action="store_true",
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
    p.add_argument("--no-shuffle", action="store_true",
                   help="iterate samples in corpus order every epoch")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s",
        stream=sys.stderr,
    )
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except CliError as exc:
        log.error("%s", exc)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
