import base64
import functools
import json
import logging
import os
import stat
import subprocess
import sys
import types

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from astvec import classify, cli, cparse, kernel, sampling, trainer
from astvec.ast_core import KIND_NAMES, LabeledProgram, dump_corpus, load_corpus
from astvec.coder import ModelParams
from astvec.cli import EXIT_BUILD, EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from astvec.trainer import load_checkpoint

from conftest import CORPUS_PATH, NON_ASCII_SOURCES, REPO, SNIPPET_SRC, invalid_sources
from test_ast_core import deep_doc, record


def read_export(text: str) -> np.ndarray:
    """The table an `export` wrote, each value read with float()."""
    return np.array([[float(x) for x in line.split()[1:]]
                     for line in text.splitlines()[1:]])


def _python_process(*argv: str, env_vars=None, stdin=None) -> subprocess.CompletedProcess:
    """`python <argv>` as its own process, with the package importable,
    `env_vars` set and the text `stdin` piped in."""
    env = {**os.environ, **(env_vars or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run([sys.executable, *argv], input=stdin,
                          capture_output=True, text=True, env=env, timeout=120)


def _astvec_process(*argv: str, stdin=None) -> subprocess.CompletedProcess:
    """`astvec <argv>` as its own process, so a traceback would show."""
    return _python_process("-m", "astvec.cli", *argv, stdin=stdin)


@pytest.fixture(scope="module")
def small_corpus_file(tmp_path_factory):
    """Thinned copy of the bundled corpus: 6 programs per class."""
    corpus = load_corpus(CORPUS_PATH.read_text(encoding="utf-8"))
    kept = []
    seen: dict[str, int] = {}
    for p in corpus:
        if seen.get(p.label, 0) < 6:
            kept.append(p)
            seen[p.label] = seen.get(p.label, 0) + 1
    path = tmp_path_factory.mktemp("corpus") / "small.jsonl"
    path.write_text(dump_corpus(kept), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def checkpoint_file(tmp_path_factory, small_corpus_file):
    path = tmp_path_factory.mktemp("cp") / "model.json"
    code = main([
        "train", "--corpus", str(small_corpus_file), "--out", str(path),
        "--dim", "8", "--epochs", "3", "--seed", "0",
    ])
    assert code == EXIT_OK
    return path


class TestParse:
    def test_stdout_matches_golden(self, capsys):
        assert main(["parse", str(SNIPPET_SRC)]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        golden = SNIPPET_SRC.with_suffix(".ast.json").read_text(encoding="utf-8")
        assert out == golden.strip()

    def test_reads_a_pipe(self):
        # a named source is read whatever its type: here stdin, a pipe
        proc = _astvec_process("parse", "/dev/stdin",
                               stdin=SNIPPET_SRC.read_text(encoding="utf-8"))
        assert proc.returncode == EXIT_OK
        golden = SNIPPET_SRC.with_suffix(".ast.json").read_text(encoding="utf-8")
        assert proc.stdout.strip() == golden.strip()

    def test_out_dir(self, tmp_path):
        code = main(["parse", str(SNIPPET_SRC), "-o", str(tmp_path)])
        assert code == EXIT_OK
        written = tmp_path / (SNIPPET_SRC.stem + ".ast.json")
        json.loads(written.read_text(encoding="utf-8"))

    def test_invalid_input_exit_code(self, capsys):
        bad = invalid_sources()[0]
        assert main(["parse", str(bad)]) == EXIT_INPUT

    def test_missing_file(self):
        assert main(["parse", "/nonexistent.c"]) == EXIT_INPUT

    def test_no_files_usage(self):
        assert main(["parse"]) == EXIT_USAGE


def test_no_command_usage():
    assert main([]) == EXIT_USAGE


def test_front_end_commands_import_no_numpy(tmp_path):
    # parse and corpus-build --src-dir run only cparse and ast_core
    src = tmp_path / "src" / "lab"
    src.mkdir(parents=True)
    (src / "a.c").write_text("int f(int a) { return a + 1; }\n", encoding="utf-8")
    script = (
        "import sys\n"
        "from astvec.cli import main\n"
        "c_file, out_dir, src_dir, out = sys.argv[1:]\n"
        "print(main(['parse', c_file, '-o', out_dir]),\n"
        "      main(['corpus-build', '--src-dir', src_dir, '--out', out]),\n"
        "      'numpy' in sys.modules)\n"
    )
    proc = _python_process("-c", script, str(src / "a.c"), str(tmp_path / "asts"),
                           str(tmp_path / "src"), str(tmp_path / "c.jsonl"))
    assert proc.stdout == "0 0 False\n", proc.stderr
    assert (tmp_path / "asts" / "a.ast.json").exists()
    assert [p.source_id for p in load_corpus((tmp_path / "c.jsonl").read_text())] == ["a"]


class TestUsageErrors:
    """A command line that argparse rejects exits 1 with one logged line,
    like every other usage error, and `main` returns instead of exiting."""

    @pytest.mark.parametrize("argv,message", [
        (["train", "--corpus", "c.jsonl"],
         "the following arguments are required: --out"),
        (["train", "--corpus", "c.jsonl", "--out", "m.json", "--epochs", "abc"],
         "argument --epochs: invalid int value: 'abc'"),
        (["bogus"], "argument command: invalid choice: 'bogus'"),
        (["train", "--corpus", "c.jsonl", "--out", "m.json", "--no-shuffle"],
         "unrecognized arguments: --no-shuffle"),
        (["-v", "train", "--corpus", "c.jsonl", "--out", "m.json"],
         "unrecognized arguments: -v"),
    ], ids=["missing-flag", "malformed-int", "unknown-command", "no-shuffle", "verbose"])
    def test_returns_usage(self, caplog, argv, message):
        assert main(argv) == EXIT_USAGE
        [line] = _problems(caplog)
        assert line.startswith(message)

    def test_one_stderr_line(self):
        proc = _astvec_process("train")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.splitlines() == [
            "ERROR the following arguments are required: --corpus, --out"
        ]

    def test_parser_is_reused_with_fresh_namespaces(self, tmp_path, capsys, monkeypatch,
                                                     checkpoint_file):
        # one parser per process, and each call parses into a new namespace:
        # nothing of one command line reaches the next, not even after a
        # command line that argparse rejects
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        parse, seen = parser.parse_args, []
        monkeypatch.setattr(parser, "parse_args",
                            lambda argv: seen.append(parse(argv)) or seen[-1])
        cp = str(checkpoint_file)
        assert main(["nn", "--checkpoint", cp, "--symbol", "If", "--top", "2"]) == EXIT_OK
        assert main(["export", "--checkpoint", cp]) == EXIT_OK
        assert main(["nn", "--checkpoint", cp, "--top", "3"]) == EXIT_USAGE
        assert main(["nn", "--checkpoint", cp, "--symbol", "If"]) == EXIT_OK
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--generate", "--src-dir", "s",
                     "--out", str(out)]) == EXIT_USAGE
        assert main(["corpus-build", "--generate", "--per-class", "1",
                     "--out", str(out)]) == EXIT_OK
        first, export, last, build = seen
        assert (first.command, first.top) == ("nn", 2)
        assert export.command == "export" and export.out is None
        assert not hasattr(export, "symbol") and not hasattr(first, "out")
        assert (last.symbol, last.top) == ("If", 5)
        assert build.generate and build.src_dir is None
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 + 1 + len(KIND_NAMES) + 5
        assert lines[-5:-3] == lines[:2]
        assert out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: astvec")


class TestCorpusBuild:
    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            code = main([
                "corpus-build", "--generate", "--per-class", "6",
                "--seed", "3", "--out", str(out),
            ])
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert len(load_corpus(a.read_text(encoding="utf-8"))) == 24

    def test_src_dir(self, tmp_path):
        d = tmp_path / "src" / "label_a"
        d.mkdir(parents=True)
        (d / "one.c").write_text("int x;\n", encoding="utf-8")
        out = tmp_path / "c.jsonl"
        code = main(["corpus-build", "--src-dir", str(tmp_path / "src"),
                     "--out", str(out)])
        assert code == EXIT_OK
        corpus = load_corpus(out.read_text(encoding="utf-8"))
        assert [p.label for p in corpus] == ["label_a"]

    def test_src_dir_is_a_file(self, tmp_path, caplog):
        src = tmp_path / "f.c"
        src.write_text("int x;\n", encoding="utf-8")
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(src), "--out", str(out)]) == EXIT_INPUT
        assert _problems(caplog) == [f"{src}: not a directory"]
        assert not out.exists()

    def test_src_dir_copies_parsed_once(self, tmp_path, caplog, capsys, monkeypatch):
        # byte copies of a valid and of an invalid file, under two labels
        valid, invalid = b"int f(int a) { return a + 1; }\n", b"int x = ;\n"
        files = {"a/one.c": valid, "a/two.c": valid, "b/three.c": valid,
                 "a/bad.c": invalid, "b/worse.c": invalid, "b/other.c": b"int y;\n"}
        src = tmp_path / "src"
        for name, data in files.items():
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_bytes(data)
        memos, dumped = [], []

        class KeptMemo(cparse.ParseMemo):
            def __init__(self):
                super().__init__()
                memos.append(self)

        monkeypatch.setattr(cparse, "ParseMemo", KeptMemo)
        monkeypatch.setattr(cli, "dump_corpus",
                            lambda programs: dumped.append(programs) or dump_corpus(programs))
        caplog.set_level(logging.INFO)
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(src), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        # each file parsed with a fresh table of its own gives the same corpus
        kept = sorted(p for p in src.rglob("*.c") if p.read_bytes() != invalid)
        assert out.read_text(encoding="utf-8") == dump_corpus(
            [LabeledProgram(cparse.parse_file(p), p.parent.name, p.stem) for p in kept])
        [programs] = dumped
        assert [p.source_id for p in programs] == ["one", "two", "other", "three"]
        assert programs[0].ast is programs[1].ast is programs[3].ast
        assert _problems(caplog) == [
            f"skipping {src / 'a' / 'bad.c'}: 1:9: unexpected punctuation ';'",
            f"skipping {src / 'b' / 'worse.c'}: 1:9: unexpected punctuation ';'"]
        assert "read 6 sources: 3 repeat an earlier one's text, 2 skipped" in caplog.messages
        [memo] = memos
        [error] = [e for e in memo.parsed.values() if isinstance(e, cparse.CParseError)]
        assert error.__traceback__ is None

    def test_src_dir_walk_order(self, tmp_path, caplog):
        src = tmp_path / "src"
        for name in ["a/z.c", "a-b/y.c", "a/deep/inner/n.c", "lab/.h.c", "lab/.c",
                     "lab/a.b.c", "lab/dir.c/in.c", "lab/notes.txt", "lab/x.h", "top.c"]:
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_text("int x;\n", encoding="utf-8")
        (src / "lab" / "s.c").symlink_to(src / "a" / "z.c")
        (src / "linked").symlink_to(src / "a-b", target_is_directory=True)
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(src), "--out", str(out)]) == EXIT_OK
        assert _problems(caplog) == [f"skipping {src / 'lab' / 'dir.c'}: Is a directory"]
        # by path components: "a" < "a-b", a directory before what it holds
        assert [(p.label, p.source_id) for p in load_corpus(out.read_text(encoding="utf-8"))] == [
            ("inner", "n"), ("a", "z"), ("a-b", "y"), ("lab", ".c"), ("lab", ".h"),
            ("lab", "a.b"), ("dir.c", "in"), ("lab", "s"), ("src", "top")]
        listed = cli._c_sources(src)
        assert all(path == str(src.joinpath(*parts)) for parts, path in listed)
        if sys.version_info[:2] == (3, 11):  # later versions glob otherwise
            assert [src.joinpath(*parts) for parts, _ in listed] == sorted(src.rglob("*.c"))

    # a read of a FIFO waits for a writer, so the build runs in a process of
    # its own, which the timeout ends if it waits
    @pytest.mark.parametrize("kind,message", [
        ("fifo", "not a regular file"),
        ("symlink-to-fifo", "not a regular file"),
        ("symlink-loop", "Too many levels of symbolic links"),
    ], ids=["fifo", "symlink-to-fifo", "symlink-loop"])
    def test_src_dir_special_file_skips(self, tmp_path, kind, message):
        src = tmp_path / "src"
        (src / "lab").mkdir(parents=True)
        (src / "lab" / "a.c").write_text("int x;\n", encoding="utf-8")
        alone, beside = tmp_path / "alone.jsonl", tmp_path / "beside.jsonl"
        assert main(["corpus-build", "--src-dir", str(src), "--out", str(alone)]) == EXIT_OK
        special = src / "lab" / "p.c"
        if kind == "fifo":
            os.mkfifo(special)
        elif kind == "symlink-to-fifo":
            os.mkfifo(tmp_path / "fifo")
            special.symlink_to(tmp_path / "fifo")
        else:
            special.symlink_to(special)
        proc = _astvec_process("corpus-build", "--src-dir", str(src), "--out", str(beside))
        assert proc.returncode == EXIT_OK
        assert [line for line in proc.stderr.splitlines() if not line.startswith("INFO")] == [
            f"WARNING skipping {special}: {message}"]
        assert beside.read_bytes() == alone.read_bytes()

    def test_src_dir_unlistable_subdirectory_skips(self, tmp_path, caplog, monkeypatch):
        src = tmp_path / "src"
        for name in ["a/one.c", "locked/two.c", "locked/deeper/three.c", "z/four.c"]:
            (src / name).parent.mkdir(parents=True, exist_ok=True)
            (src / name).write_text("int x;\n", encoding="utf-8")
        scandir = os.scandir

        def refuse_locked(path):  # root ignores file modes, so refuse by name
            if os.path.basename(path) == "locked":
                raise PermissionError(13, "Permission denied", path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refuse_locked)
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(src), "--out", str(out)]) == EXIT_OK
        assert _problems(caplog) == [f"skipping {src / 'locked'}: Permission denied"]
        assert [p.source_id for p in load_corpus(out.read_text(encoding="utf-8"))] == [
            "one", "four"]

    def test_src_dir_unlistable_fails(self, tmp_path, caplog, monkeypatch):
        src = tmp_path / "src"
        (src / "a").mkdir(parents=True)
        (src / "a" / "one.c").write_text("int x;\n", encoding="utf-8")
        scandir = os.scandir

        def refuse_src(path):
            if path == str(src):
                raise PermissionError(13, "Permission denied", path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", refuse_src)
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(src), "--out", str(out)]) == EXIT_INPUT
        assert _problems(caplog) == [f"{src}: Permission denied"]
        assert not out.exists()

    def test_neither_flag_usage(self, tmp_path):
        assert main(["corpus-build", "--out", str(tmp_path / "x.jsonl")]) == EXIT_USAGE

    def test_generate_and_src_dir_usage(self, tmp_path, caplog):
        out = tmp_path / "x.jsonl"
        assert main(["corpus-build", "--generate", "--src-dir", str(tmp_path),
                     "--out", str(out)]) == EXIT_USAGE
        assert _problems(caplog) == [
            "argument --src-dir: not allowed with argument --generate"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--per-class", "0"], "per-class must be >= 1"),
        (["--seed", "-5"], "seed must be >= 0"),
        (["--src-dir", ""], "--src-dir must not be empty"),
    ], ids=["per-class", "seed", "empty-src-dir"])
    def test_src_dir_range_usage(self, tmp_path, caplog, flags, message):
        out = tmp_path / "x.jsonl"
        assert main(["corpus-build", "--src-dir", str(tmp_path), "--out", str(out),
                     *flags]) == EXIT_USAGE
        assert _problems(caplog) == [message]
        assert not out.exists()

    def test_negative_per_class_usage(self, tmp_path, caplog):
        out = tmp_path / "x.jsonl"
        assert main(["corpus-build", "--generate", "--per-class", "-1",
                     "--out", str(out)]) == EXIT_USAGE
        assert _problems(caplog) == ["per-class must be >= 1"]
        assert not out.exists()


class TestTrain:
    def test_seed_determinism(self, tmp_path, small_corpus_file):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            code = main([
                "train", "--corpus", str(small_corpus_file), "--out", str(path),
                "--dim", "6", "--epochs", "2", "--seed", "5",
            ])
            assert code == EXIT_OK
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_extracts_samples_through_the_module(self, tmp_path, small_corpus_file,
                                                 monkeypatch):
        # called by its module attribute, so a wrapper on it sees the call
        calls = []
        extract = sampling.build_training_set

        def counting(corpus):
            calls.append(len(corpus))
            return extract(corpus)

        monkeypatch.setattr(sampling, "build_training_set", counting)
        code = main(["train", "--corpus", str(small_corpus_file),
                     "--out", str(tmp_path / "cp.json"), "--dim", "4", "--epochs", "1"])
        assert code == EXIT_OK
        assert calls == [24]

    def test_zero_epochs(self, tmp_path, small_corpus_file):
        path = tmp_path / "cp.json"
        code = main([
            "train", "--corpus", str(small_corpus_file), "--out", str(path),
            "--dim", "4", "--epochs", "0",
        ])
        assert code == EXIT_OK
        assert load_checkpoint(path).epoch == 0

    def test_loss_log_written(self, tmp_path, small_corpus_file):
        path = tmp_path / "cp.json"
        log = tmp_path / "loss.csv"
        code = main([
            "train", "--corpus", str(small_corpus_file), "--out", str(path),
            "--loss-log", str(log), "--dim", "4", "--epochs", "2", "--seed", "9",
        ])
        assert code == EXIT_OK
        lines = log.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "# seed=9"
        assert lines[1] == "epoch,mean_hinge,objective,active_steps"
        assert len(lines) == 4

    def test_diverged_exit_3(self, tmp_path, caplog):
        corpus = tmp_path / "c40.jsonl"
        lines = CORPUS_PATH.read_text(encoding="utf-8").splitlines(keepends=True)
        corpus.write_text("".join(lines[:40]), encoding="utf-8")
        out = tmp_path / "m.json"
        assert main(["train", "--corpus", str(corpus), "--out", str(out),
                     "--lr", "1e100", "--epochs", "3"]) == EXIT_NUMERIC
        assert _problems(caplog) == ["non-finite loss or parameter at epoch 0, sample 689"]
        assert not out.exists()

    def test_missing_corpus(self, tmp_path):
        code = main(["train", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "cp.json")])
        assert code == EXIT_INPUT

    def test_bad_hyper_usage(self, tmp_path, small_corpus_file):
        code = main([
            "train", "--corpus", str(small_corpus_file),
            "--out", str(tmp_path / "cp.json"), "--dim", "0",
        ])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flag,value", [
        ("--lr", "nan"), ("--margin", "inf"), ("--lambda", "nan"), ("--momentum", "-inf"),
    ])
    def test_non_finite_hyper_usage(self, tmp_path, small_corpus_file, flag, value):
        proc = _astvec_process("train", "--corpus", str(small_corpus_file),
                               "--out", str(tmp_path / "cp.json"), "--epochs", "1",
                               f"{flag}={value}")
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert "must be finite" in proc.stderr
        assert not (tmp_path / "cp.json").exists()

    def test_resume(self, tmp_path, small_corpus_file):
        full = tmp_path / "full.json"
        assert main([
            "train", "--corpus", str(small_corpus_file), "--out", str(full),
            "--dim", "5", "--epochs", "4", "--seed", "2",
        ]) == EXIT_OK
        mid = tmp_path / "mid.json"
        assert main([
            "train", "--corpus", str(small_corpus_file), "--out", str(mid),
            "--dim", "5", "--epochs", "2", "--seed", "2",
        ]) == EXIT_OK
        resumed = tmp_path / "resumed.json"
        log = tmp_path / "resumed.csv"
        assert main([
            "train", "--corpus", str(small_corpus_file), "--out", str(resumed),
            "--resume", str(mid), "--dim", "5", "--epochs", "4", "--seed", "2",
            "--loss-log", str(log),
        ]) == EXIT_OK
        assert resumed.read_bytes() == full.read_bytes()
        rows = log.read_text(encoding="utf-8").splitlines()[2:]
        assert [row.split(",")[0] for row in rows] == ["3", "4"]

    def test_resume_keeps_epoch_limit(self, tmp_path, small_corpus_file):
        mid = tmp_path / "mid.json"
        assert main([
            "train", "--corpus", str(small_corpus_file), "--out", str(mid),
            "--dim", "5", "--epochs", "2", "--seed", "2",
        ]) == EXIT_OK
        resumed = tmp_path / "resumed.json"
        assert main([
            "train", "--corpus", str(small_corpus_file), "--out", str(resumed),
            "--resume", str(mid),
        ]) == EXIT_OK
        assert resumed.read_bytes() == mid.read_bytes()

    @pytest.mark.parametrize("flags,ignored", [
        ([], None),
        (["--dim", "5", "--lr", "0.1", "--seed", "3"], "--dim, --lr, --seed"),
    ])
    def test_resume_warns_on_ignored_flags(self, tmp_path, small_corpus_file,
                                           checkpoint_file, caplog, flags, ignored):
        with caplog.at_level(logging.WARNING, logger="astvec"):
            assert main([
                "train", "--corpus", str(small_corpus_file),
                "--out", str(tmp_path / "cp.json"), "--resume", str(checkpoint_file),
                "--epochs", "4", *flags,
            ]) == EXIT_OK
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        if ignored is None:
            assert warnings == []
        else:
            assert len(warnings) == 1
            assert warnings[0].endswith(f"override {ignored}")
        assert load_checkpoint(tmp_path / "cp.json").hyper.n_f == 8


def _drop(*keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


def _put(value, *keys):
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value(doc[keys[-1]]) if callable(value) else value
    return edit


def _decoded(text: str) -> np.ndarray:
    """A checkpoint's "params" or "velocity" string as its flat float64 buffer."""
    return np.frombuffer(base64.b64decode(text), "<f8").copy()


def _encoded(raw) -> str:
    return base64.b64encode(raw).decode("ascii")


def _edit_flat(change, key):
    """An edit of doc[key]'s decoded flat buffer, re-encoded; `change` edits
    the buffer in place, seen as `ModelParams`."""
    def edit(doc):
        params = ModelParams.of_flat(_decoded(doc[key]), doc["hyper"]["n_f"])
        change(params)
        doc[key] = _encoded(params.flat.astype("<f8"))
    return edit


def _as_version_2(doc):
    """The document in the version-2 layout: it also held the state of the
    generator that the next epoch drew from."""
    doc["rng_state"] = np.random.default_rng(doc["hyper"]["seed"]).bit_generator.state
    doc["version"] = 2


def _as_version_1(doc):
    """The document in the version-1 layout: version 2's, with each parameter
    set a dict of nested lists of floats."""
    _as_version_2(doc)
    for key in ("params", "velocity"):
        p = ModelParams.of_flat(_decoded(doc[key]), doc["hyper"]["n_f"])
        doc[key] = {name: getattr(p, name).tolist()
                    for name in ("embeddings", "w_l", "w_r", "b")}
    doc["version"] = 1


def _assert_one_line_exit_2(proc, path):
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert str(path) in proc.stderr


def _set(**fields):
    return lambda doc: doc.update(fields)


@pytest.mark.parametrize("edit", [
    pytest.param(lambda doc: [1, 2], id="json-list"),
    pytest.param(_drop("vocab_fingerprint"), id="no-fingerprint"),
    pytest.param(_drop("hyper", "seed"), id="no-hyper-seed"),
    pytest.param(_put(lambda t: _encoded(_decoded(t)[:-1].astype("<f8")), "params"),
                 id="short-b"),
    pytest.param(_put("x", "hyper", "n_f"), id="n_f-string"),
    pytest.param(_put(10**9, "hyper", "n_f"), id="huge-n_f"),
    pytest.param(_put(-1, "hyper", "alpha"), id="negative-alpha"),
    pytest.param(_edit_flat(lambda p: p.w_l.fill(float("nan")), "velocity"),
                 id="nan-velocity"),
    pytest.param(_edit_flat(lambda p: p.b.put(0, 1e308), "params"), id="huge-b"),
    pytest.param(_put("not base64!", "params"), id="not-base64"),
    pytest.param(_put("\u00e9" * 8, "velocity"), id="non-ascii-payload"),
    pytest.param(_put(lambda t: _encoded(base64.b64decode(t)[:-8]), "velocity"),
                 id="payload-8-bytes-short"),
    pytest.param(_put(lambda t: _encoded(base64.b64decode(t) + bytes(8)), "velocity"),
                 id="payload-8-bytes-long"),
    pytest.param(_put(lambda t: _decoded(t).tolist(), "params"), id="list-payload"),
    pytest.param(_as_version_1, id="version-1"),
    pytest.param(_put(True, "epoch"), id="bool-epoch"),
    pytest.param(_put(lambda h: h + ["0.5"], "loss_history"), id="string-loss"),
    # resumed as converged, it trained 0 epochs and exited 0
    pytest.param(_set(epoch=2, loss_history=[0.5] * 4), id="losses-beyond-epoch"),
    # its loss-log rows were numbered from 51
    pytest.param(_set(epoch=50, loss_history=[0.5, 0.25]), id="losses-short-of-epoch"),
])
def test_malformed_checkpoint_exit_2(tmp_path, small_corpus_file, checkpoint_file, edit):
    doc = json.loads(checkpoint_file.read_text(encoding="utf-8"))
    doc = edit(doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    proc = _astvec_process("train", "--corpus", str(small_corpus_file),
                           "--out", str(tmp_path / "cp.json"), "--resume", str(bad),
                           "--epochs", "4")
    _assert_one_line_exit_2(proc, bad)
    assert not (tmp_path / "cp.json").exists()


@pytest.mark.parametrize("version,as_old", [(1, _as_version_1), (2, _as_version_2)],
                         ids=["version-1", "version-2"])
def test_version_1_checkpoint_nn_exit_2(tmp_path, checkpoint_file, version, as_old):
    doc = json.loads(checkpoint_file.read_text(encoding="utf-8"))
    as_old(doc)
    old = tmp_path / f"v{version}.json"
    old.write_text(json.dumps(doc), encoding="utf-8")
    proc = _astvec_process("nn", "--checkpoint", str(old), "--symbol", "If")
    _assert_one_line_exit_2(proc, old)
    assert proc.stderr.strip().endswith(f"unsupported checkpoint version {version}")
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def dim4_checkpoint_file(tmp_path_factory, small_corpus_file):
    path = tmp_path_factory.mktemp("cp4") / "model.json"
    assert main(["train", "--corpus", str(small_corpus_file), "--out", str(path),
                 "--dim", "4", "--epochs", "1"]) == EXIT_OK
    return path


# n_f = 4 holds (44 + 2 * 4 + 1) * 4 = 212 floats, 1696 bytes, whose base64
# text ends in a group of 1 byte; 8 characters fewer hold 1692 bytes
@pytest.mark.parametrize("edit,message", [
    (_put(0, "hyper", "n_f"), "hyper: n_f must be >= 1"),
    (_put(-1, "epoch"), "epoch must be >= 0"),
    (_put(lambda t: t[:-8], "params"), "params holds 1692 bytes, expected 1696"),
], ids=["zero-n_f", "negative-epoch", "params-8-characters-short"])
def test_malformed_checkpoint_nn_exit_2(tmp_path, dim4_checkpoint_file, edit, message):
    doc = json.loads(dim4_checkpoint_file.read_text(encoding="utf-8"))
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    proc = _astvec_process("nn", "--checkpoint", str(bad), "--symbol", "If")
    _assert_one_line_exit_2(proc, bad)
    assert proc.stderr.strip().endswith(f"{bad}: {message}")
    assert proc.stdout == ""


# Sources and corpora that once ended in a traceback: each C file is either
# valid (exit 0) or rejected with one line (exit 2); each corpus exits 2.
DEEP_C = {
    "parentheses": "int x = " + "(" * 900 + "1" + ")" * 900 + ";\n",
    "not": "int x = " + "!" * 900 + "1;\n",
    "casts": "int x = " + "(int)" * 900 + "1;\n",
    "else-if": "void f(void) { if (a) ;" + " else if (a) ;" * 1200 + " }\n",
    "sum": "int x = " + "+".join(["a"] * 2000) + ";\n",
    "assignment-chain": "void f(void) { " + "a = " * 600 + "1; }\n",
}
# not canonical, so it goes to the JSON decoder, which has a depth limit
DEEP_CORPUS = ('{"label":"a","source_id":"s","ast":' + deep_doc(900, reordered=True)
               + "}\n").encode()
LATIN1_C = b"int x;\nint caf\xe9;\n"
LATIN1_CORPUS = b'{"label":"caf\xe9","source_id":"s","ast":{"kind":"ID"}}\n'


def _problems(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


class TestHostileInputs:
    # the position is the token that would open nesting level MAX_NESTING + 1
    @pytest.mark.parametrize("name,column", [("parentheses", 208), ("else-if", 2806),
                                             ("assignment-chain", 812)])
    def test_too_deep_c(self, tmp_path, caplog, name, column):
        path = tmp_path / "deep.c"
        path.write_text(DEEP_C[name], encoding="utf-8")
        assert main(["parse", str(path)]) == EXIT_INPUT
        assert _problems(caplog) == [f"{path}:1:{column}: nesting too deep"]

    @pytest.mark.parametrize("name,kind", [("sum", "BinaryOp"),
                                           ("not", "UnaryOp"),
                                           ("casts", "Cast")])
    def test_deep_valid_c(self, tmp_path, caplog, capsys, name, kind):
        path = tmp_path / "deep.c"
        path.write_text(DEEP_C[name], encoding="utf-8")
        assert main(["parse", str(path)]) == EXIT_OK
        assert _problems(caplog) == []
        out = capsys.readouterr().out
        assert out.startswith('{"kind":"Root"') and out.endswith("]}\n")
        # one node of `kind` per token of the source that makes one
        token = {"BinaryOp": "+", "UnaryOp": "!", "Cast": "(int)"}[kind]
        assert out.count(f'"{kind}"') == DEEP_C[name].count(token)

    def test_latin1_parse(self, tmp_path, caplog):
        path = tmp_path / "latin1.c"
        path.write_bytes(LATIN1_C)
        assert main(["parse", str(path)]) == EXIT_INPUT
        assert _problems(caplog) == [f"{path}:2:8: not valid UTF-8"]

    @pytest.mark.parametrize("text,line,column", NON_ASCII_SOURCES)
    def test_non_ascii_parse(self, tmp_path, text, line, column):
        path = tmp_path / "non_ascii.c"
        path.write_text(text, encoding="utf-8")
        proc = _astvec_process("parse", str(path))
        _assert_one_line_exit_2(proc, path)
        assert proc.stderr.strip().endswith(
            f"{path}:{line}:{column}: illegal character {text[column - 1]!r}")
        assert proc.stdout == ""

    def test_open_comment_parse(self, tmp_path, caplog):
        path = tmp_path / "open.c"
        path.write_text("int x; /* open", encoding="utf-8")
        assert main(["parse", str(path)]) == EXIT_INPUT
        assert _problems(caplog) == [f"{path}:1:8: unterminated comment"]

    @pytest.mark.parametrize("src,message", [
        ("char c = 'a;", "unterminated character constant"),
        ("char c = '';", "empty character constant"),
    ])
    def test_bad_character_constant_parse(self, tmp_path, caplog, src, message):
        path = tmp_path / "char.c"
        path.write_text(src, encoding="utf-8")
        assert main(["parse", str(path)]) == EXIT_INPUT
        assert _problems(caplog) == [f"{path}:1:10: {message}"]

    def test_latin1_corpus_build_skips(self, tmp_path, caplog):
        d = tmp_path / "src" / "lab"
        d.mkdir(parents=True)
        (d / "bad.c").write_bytes(LATIN1_C)
        (d / "good.c").write_text("int x;\n", encoding="utf-8")
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(tmp_path / "src"),
                     "--out", str(out)]) == EXIT_OK
        assert _problems(caplog) == [f"skipping {d / 'bad.c'}: 2:8: not valid UTF-8"]
        assert [p.source_id for p in load_corpus(out.read_text(encoding="utf-8"))] == ["good"]

    def test_tall_tree_corpus_build_keeps(self, tmp_path, caplog):
        # a chain of 900 `!` is read in a loop, so its 903-tall tree parses,
        # goes into the corpus and loads back
        d = tmp_path / "src" / "lab"
        d.mkdir(parents=True)
        (d / "tall.c").write_text(DEEP_C["not"], encoding="utf-8")
        (d / "good.c").write_text("int f(int a) { return a + 1; }\n", encoding="utf-8")
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(tmp_path / "src"),
                     "--out", str(out)]) == EXIT_OK
        assert _problems(caplog) == []
        assert [p.source_id for p in load_corpus(out.read_text(encoding="utf-8"))] == [
            "good", "tall"]
        assert main(["train", "--corpus", str(out), "--out", str(tmp_path / "m.json"),
                     "--dim", "4", "--epochs", "2"]) == EXIT_OK

    def test_train_on_a_5000_tall_tree(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text(record(deep_doc(5000)) + "\n", encoding="utf-8")
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json"),
                     "--dim", "4", "--epochs", "2"]) == EXIT_OK
        assert _problems(caplog) == []
        assert load_checkpoint(tmp_path / "m.json").epoch == 2

    def test_unreadable_corpus_build_skips(self, tmp_path, caplog, monkeypatch):
        # a directory named like a C file, and a file open() refuses
        d = tmp_path / "src" / "lab"
        (d / "dir.c").mkdir(parents=True)
        (d / "locked.c").write_text("int y;\n", encoding="utf-8")
        (d / "good.c").write_text("int x;\n", encoding="utf-8")
        read_source = cparse.read_source

        def refuse_locked(path):
            if os.path.basename(path) == "locked.c":
                raise PermissionError(13, "Permission denied", str(path))
            return read_source(path)

        monkeypatch.setattr(cparse, "read_source", refuse_locked)
        out = tmp_path / "c.jsonl"
        assert main(["corpus-build", "--src-dir", str(tmp_path / "src"),
                     "--out", str(out)]) == EXIT_OK
        assert _problems(caplog) == [f"skipping {d / 'dir.c'}: Is a directory",
                                     f"skipping {d / 'locked.c'}: Permission denied"]
        assert [p.source_id for p in load_corpus(out.read_text(encoding="utf-8"))] == ["good"]

    @pytest.mark.parametrize("data,message", [
        (LATIN1_CORPUS, ": not valid UTF-8 at byte 13"),
        (DEEP_CORPUS, ": corpus line 1: nesting too deep"),
    ], ids=["latin1", "deep"])
    def test_bad_corpus_train(self, tmp_path, caplog, data, message):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(data)
        assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.json"),
                     "--epochs", "1"]) == EXIT_INPUT
        assert _problems(caplog) == [f"{corpus}{message}"]
        assert not (tmp_path / "m.json").exists()

    # a compiler that is missing, or that rejects its command; a changed
    # command is a different cache entry, so it is really run. classify
    # runs the kernel too, for the logistic regression alone.
    @pytest.mark.parametrize("run,command,detail", [
        ("train", ("astvec-no-such-cc",) + kernel.COMPILE[1:], "No such file or directory"),
        ("train", kernel.COMPILE + ("-no-such-flag",), "-no-such-flag"),
        ("classify", ("astvec-no-such-cc",) + kernel.COMPILE[1:], "No such file or directory"),
    ], ids=["missing", "failing", "classify"])
    def test_compiler_fails(self, tmp_path, caplog, capsys, small_corpus_file,
                            monkeypatch, run, command, detail):
        monkeypatch.setattr(kernel, "load", functools.cache(kernel.load.__wrapped__))
        monkeypatch.setattr(kernel, "COMPILE", command)
        out = tmp_path / "out"
        assert main([run, "--corpus", str(small_corpus_file),
                     "--out" if run == "train" else "--out-dir", str(out),
                     "--epochs", "1"]) == EXIT_BUILD
        [line] = _problems(caplog)
        assert line.startswith("cannot build the epoch kernel: ") and detail in line
        assert "Traceback" not in capsys.readouterr().err
        # classify makes its output directory before it trains
        assert not out.exists() or not any(out.iterdir())
        assert not [p for p in kernel.KERNEL_SOURCE.parent.glob("__pycache__/*")
                    if p.suffix not in (".pyc", ".so")]

    # each raises the MemoryError its allocation would, and nothing is allocated
    @pytest.mark.parametrize("where,message", [
        ("init", "Unable to allocate 1.82 TiB for an array with shape (500000, 500000)"
                 " and data type float64"),
        ("kernel", "no memory for the epoch kernel's scratch arrays"),
    ])
    def test_out_of_memory_train(self, tmp_path, caplog, capsys, small_corpus_file,
                                 monkeypatch, where, message):
        if where == "init":
            def init_params(hyper, rng):
                raise MemoryError(message)
            monkeypatch.setattr(trainer, "init_params", init_params)
        else:
            no_scratch = types.SimpleNamespace(train_epoch=lambda *args: -2)
            monkeypatch.setattr(kernel, "load", lambda: no_scratch)
        out = tmp_path / "m.json"
        assert main(["train", "--corpus", str(small_corpus_file), "--out", str(out),
                     "--epochs", "1"]) == EXIT_NUMERIC
        assert _problems(caplog) == [message]
        assert "Traceback" not in capsys.readouterr().err
        assert not out.exists()

    def test_new_kernel_build_deletes_stale(self, tmp_path, small_corpus_file, monkeypatch):
        source = tmp_path / "epoch.c"
        source.write_bytes(kernel.KERNEL_SOURCE.read_bytes())
        monkeypatch.setattr(kernel, "KERNEL_SOURCE", source)
        monkeypatch.setattr(kernel, "load", functools.cache(kernel.load.__wrapped__))
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "epoch-0000000000000000.so").write_bytes(b"stale")
        other = cache / "epoch-1111111111111111.so.999999.tmp"  # another process's build
        other.write_bytes(b"in progress")
        assert main(["train", "--corpus", str(small_corpus_file),
                     "--out", str(tmp_path / "m.json"), "--epochs", "1"]) == EXIT_OK
        [build] = cache.glob("epoch-*.so")
        assert build == kernel.library_path()
        assert set(cache.iterdir()) == {build, other}

    @pytest.mark.parametrize("data", [b"", b"\n  \n\n"], ids=["empty", "blank-lines"])
    def test_empty_corpus_classify(self, tmp_path, caplog, capsys, data):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(data)
        assert main(["classify", "--corpus", str(corpus),
                     "--out-dir", str(tmp_path / "cls")]) == EXIT_INPUT
        assert _problems(caplog) == ["corpus holds no programs"]
        assert "Traceback" not in capsys.readouterr().err

    # an output path under a regular file, which no command can create
    @pytest.mark.parametrize("command", ["parse", "corpus-build", "train", "cluster",
                                         "classify", "export"])
    def test_unwritable_output(self, tmp_path, caplog, capsys, small_corpus_file,
                               checkpoint_file, command):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = str(blocker / "out")
        argv = {
            "parse": ["parse", str(SNIPPET_SRC), "-o", out],
            "corpus-build": ["corpus-build", "--generate", "--per-class", "1",
                             "--out", out],
            "train": ["train", "--corpus", str(small_corpus_file), "--out", out,
                      "--epochs", "1"],
            "cluster": ["cluster", "--checkpoint", str(checkpoint_file), "--out", out],
            "classify": ["classify", "--corpus", str(small_corpus_file),
                         "--out-dir", out, "--epochs", "1"],
            "export": ["export", "--checkpoint", str(checkpoint_file), "--out", out],
        }[command]
        assert main(argv) == EXIT_INPUT
        assert _problems(caplog) == [f"{out}: Not a directory"]
        assert "Traceback" not in capsys.readouterr().err

    # a later output that cannot be written: the earlier ones are not kept
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_train_writes_all_or_nothing(self, tmp_path, caplog, small_corpus_file,
                                         existing):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = tmp_path / "m.json"
        if existing:
            out.write_text("an older checkpoint", encoding="utf-8")
        assert main(["train", "--corpus", str(small_corpus_file), "--out", str(out),
                     "--loss-log", str(blocker / "loss.csv"), "--epochs", "1"]) == EXIT_INPUT
        assert _problems(caplog) == [f"{blocker / 'loss.csv'}: Not a directory"]
        assert sorted(tmp_path.iterdir()) == sorted([blocker] + [out] * existing)
        if existing:
            assert out.read_text(encoding="utf-8") == "an older checkpoint"

    def test_classify_writes_all_or_nothing(self, tmp_path, caplog, small_corpus_file,
                                            checkpoint_file):
        summary = tmp_path / "cls" / "summary.txt"
        summary.mkdir(parents=True)
        assert main(["classify", "--corpus", str(small_corpus_file),
                     "--checkpoint", str(checkpoint_file),
                     "--out-dir", str(summary.parent), "--epochs", "1"]) == EXIT_INPUT
        assert _problems(caplog) == [f"{summary}: Is a directory"]
        assert list(summary.parent.iterdir()) == [summary]

    def test_output_symlink_is_written_through(self, tmp_path, checkpoint_file):
        real = tmp_path / "real.txt"
        real.write_text("old", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        assert main(["export", "--checkpoint", str(checkpoint_file),
                     "--out", str(link)]) == EXIT_OK
        assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link, real]
        assert read_export(real.read_text(encoding="utf-8")).shape[0] == 44

    def test_parse_writes_all_or_nothing(self, tmp_path, caplog):
        bad = invalid_sources()[0]
        out = tmp_path / "asts"
        assert main(["parse", str(SNIPPET_SRC), str(bad), "-o", str(out)]) == EXIT_INPUT
        assert len(_problems(caplog)) == 1
        assert list(out.iterdir()) == []

    # two outputs naming one file: one of them would be lost
    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_train_out_is_loss_log(self, tmp_path, caplog, small_corpus_file, existing):
        out = tmp_path / "m.json"
        if existing:
            out.write_text("an older checkpoint", encoding="utf-8")
        assert main(["train", "--corpus", str(small_corpus_file), "--out", str(out),
                     "--loss-log", str(out), "--epochs", "1"]) == EXIT_USAGE
        assert _problems(caplog) == [f"{out}: another output writes the same file"]
        assert sorted(tmp_path.iterdir()) == [out] * existing
        if existing:
            assert out.read_text(encoding="utf-8") == "an older checkpoint"

    @pytest.mark.parametrize("through_link", [False, True], ids=["same-path", "symlink"])
    def test_cluster_out_is_report(self, tmp_path, caplog, checkpoint_file, through_link):
        out = tmp_path / "r.txt"
        report = out
        if through_link:
            report = tmp_path / "link.txt"
            report.symlink_to(out)
        assert main(["cluster", "--checkpoint", str(checkpoint_file), "--out", str(out),
                     "--report", str(report)]) == EXIT_USAGE
        assert _problems(caplog) == [f"{report}: another output writes the same file"]
        assert sorted(tmp_path.iterdir()) == [report] * through_link

    def test_parse_sources_with_one_stem(self, tmp_path, caplog):
        for name in ("x", "y"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "a.c").write_text(SNIPPET_SRC.read_text(encoding="utf-8"),
                                                 encoding="utf-8")
        out = tmp_path / "d"
        assert main(["parse", "-o", str(out), str(tmp_path / "x" / "a.c"),
                     str(tmp_path / "y" / "a.c")]) == EXIT_USAGE
        assert _problems(caplog) == [f"{out / 'a.ast.json'}: another output writes the same file"]
        assert list(out.iterdir()) == []

    def test_output_keeps_its_permission_bits(self, tmp_path, checkpoint_file):
        out = tmp_path / "emb.txt"
        out.write_text("old", encoding="utf-8")
        out.chmod(0o640)
        assert main(["export", "--checkpoint", str(checkpoint_file),
                     "--out", str(out)]) == EXIT_OK
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert read_export(out.read_text(encoding="utf-8")).shape[0] == 44

    # a FIFO, like a device, cannot be replaced by a renamed file
    def test_fifo_output_is_written_in_place(self, tmp_path, checkpoint_file):
        fifo = tmp_path / "emb.fifo"
        os.mkfifo(fifo)
        # open the reading end first, so the writer's open does not wait;
        # the export is a few KB, less than the pipe holds
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["export", "--checkpoint", str(checkpoint_file),
                         "--out", str(fifo)]) == EXIT_OK
            text = os.read(reader, 1 << 16).decode("utf-8")
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(fifo.stat().st_mode) and list(tmp_path.iterdir()) == [fifo]
        assert read_export(text).shape[0] == 44

    def test_dev_stdout_output_to_a_pipe(self, checkpoint_file):
        proc = _astvec_process("export", "--checkpoint", str(checkpoint_file),
                               "--out", "/dev/stdout")
        assert proc.returncode == EXIT_OK, proc.stderr
        assert read_export(proc.stdout).shape[0] == 44

    @pytest.mark.parametrize("command", ["train", "corpus-build", "classify", "cluster"])
    def test_negative_seed_usage(self, tmp_path, caplog, small_corpus_file,
                                 checkpoint_file, command):
        out = tmp_path / "out"
        argv = {
            "train": ["train", "--corpus", str(small_corpus_file), "--out", str(out)],
            "corpus-build": ["corpus-build", "--generate", "--out", str(out)],
            "classify": ["classify", "--corpus", str(small_corpus_file),
                         "--out-dir", str(out)],
            "cluster": ["cluster", "--checkpoint", str(checkpoint_file),
                        "--out", str(out)],
        }[command]
        assert main(argv + ["--seed", "-1"]) == EXIT_USAGE
        assert _problems(caplog) == ["seed must be >= 0"]
        assert not out.exists()


C_WORDS = ("int x y T ( ) { } [ ] ; , = + - * & ! ? : . -> ++ 1 2.5 'a' \"s\" if else "
           "for while do switch case default break goto return sizeof struct "
           "typedef const char void /* */ // \n \\").split(" ")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(),
    st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
    st.lists(st.sampled_from(C_WORDS)).map(lambda ws: " ".join(ws).encode()),
))
@example(LATIN1_C)
@example(b"int x = 1;\xff")
@example(b"\x00")
@example(b"/* open")
@example(b'char *s = "open;')
@example(DEEP_C["parentheses"].encode())
@example(DEEP_C["not"].encode())
@example(DEEP_C["casts"].encode())
@example(DEEP_C["else-if"].encode())
@example(DEEP_C["sum"].encode())
@example(DEEP_C["assignment-chain"].encode())
def test_fuzz_parse(fuzz_dir, data):
    path = fuzz_dir / "prog.c"
    path.write_bytes(data)
    assert main(["parse", str(path)]) in (EXIT_OK, EXIT_INPUT)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(),
    st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
))
@example(LATIN1_CORPUS)
@example(DEEP_CORPUS)
@example(b'{"label":"a","source_id":"s","ast":{"kind":"Root","children":[{"kind":"ID"}]}}')
@example(b'{"label":"a","source_id":"s","ast":{"kind":"ID"}}')
@example(b'{"label":[],"source_id":"s","ast":{"kind":"ID"}}')
@example(b"[]\n7\nnull\n" + b"9" * 5000)
@example(b'{"label":"a","source_id":"s","ast":{"kind":"Nope"}}')
def test_fuzz_train(fuzz_dir, data):
    corpus = fuzz_dir / "corpus.jsonl"
    corpus.write_bytes(data)
    code = main(["train", "--corpus", str(corpus), "--out", str(fuzz_dir / "m.json"),
                 "--epochs", "1"])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_NUMERIC)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.binary(),
    st.text().map(lambda t: t.encode("utf-8", "surrogatepass")),
))
@example(b"")
@example(LATIN1_CORPUS)
@example(DEEP_CORPUS)
@example(b'{"label":"a","source_id":"s","ast":{"kind":"ID"}}\n' * 5)
@example(b'{"label":"a","source_id":"s","ast":{"kind":"Nope"}}')
def test_fuzz_classify(fuzz_dir, data):
    corpus = fuzz_dir / "corpus.jsonl"
    corpus.write_bytes(data)
    code = main(["classify", "--corpus", str(corpus), "--out-dir", str(fuzz_dir / "cls"),
                 "--epochs", "1"])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INPUT, EXIT_NUMERIC)


# Values a checkpoint field may be replaced with, NaN and infinities included
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.lists(st.floats(), max_size=3), st.dictionaries(st.text(max_size=2), st.integers()),
)


def _mutated(data, text: bytes) -> bytes:
    """A valid checkpoint with one number or field replaced, cut short, or
    with a few bytes overwritten."""
    how = data.draw(st.sampled_from(["number", "field", "truncate", "bytes"]))
    if how == "number":  # one parameter entry, the kind of edit most likely to load
        doc = json.loads(text)
        key = data.draw(st.sampled_from(["params", "velocity"]))
        flat = _decoded(doc[key])
        flat[data.draw(st.integers(0, flat.size - 1))] = data.draw(st.floats())
        doc[key] = _encoded(flat.astype("<f8"))
        return json.dumps(doc).encode()
    if how == "field":
        doc = json.loads(text)
        node = doc
        while True:
            key = data.draw(st.sampled_from(
                sorted(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and data.draw(st.booleans()):
                node = node[key]
                continue
            node[key] = data.draw(JSON_VALUES)
            return json.dumps(doc).encode()
    at = data.draw(st.integers(0, len(text) - 1))
    if how == "truncate":
        return text[:at]
    return text[:at] + data.draw(st.binary(min_size=1, max_size=4)) + text[at + 1:]


def _checkpoint_argv(command, checkpoint, corpus, out):
    return {
        "nn": ["nn", "--checkpoint", checkpoint, "--symbol", "If"],
        "cluster": ["cluster", "--checkpoint", checkpoint, "--restarts", "2",
                    "--out", f"{out}.csv", "--report", f"{out}.txt"],
        "export": ["export", "--checkpoint", checkpoint, "--out", f"{out}.txt"],
        "classify": ["classify", "--corpus", corpus, "--checkpoint", checkpoint,
                     "--out-dir", out, "--epochs", "2"],
    }[command]


@pytest.mark.parametrize("command", ["nn", "cluster", "export", "classify"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fuzz_checkpoint(fuzz_dir, small_corpus_file, checkpoint_file, command, data):
    valid = checkpoint_file.read_bytes()
    blob = data.draw(st.one_of(st.binary(), st.builds(lambda: None)))
    path = fuzz_dir / "checkpoint.json"
    path.write_bytes(_mutated(data, valid) if blob is None else blob)
    argv = _checkpoint_argv(command, str(path), str(small_corpus_file),
                            str(fuzz_dir / command))
    assert main(argv) in (EXIT_OK, EXIT_INPUT)


class TestNn:
    def test_rows(self, capsys, checkpoint_file):
        assert main(["nn", "--checkpoint", str(checkpoint_file),
                     "--symbol", "ID", "--top", "5"]) == EXIT_OK
        rows = capsys.readouterr().out.strip().split("\n")
        assert len(rows) == 5
        first = rows[0].split("\t")
        assert first[0] == "1"
        float(first[2])

    def test_unknown_symbol(self, checkpoint_file):
        assert main(["nn", "--checkpoint", str(checkpoint_file),
                     "--symbol", "Nope"]) == EXIT_INPUT

    def test_bad_top(self, checkpoint_file):
        assert main(["nn", "--checkpoint", str(checkpoint_file),
                     "--symbol", "ID", "--top", "0"]) == EXIT_USAGE

    def test_missing_checkpoint(self, tmp_path):
        assert main(["nn", "--checkpoint", str(tmp_path / "no.json"),
                     "--symbol", "ID"]) == EXIT_INPUT


class TestCluster:
    def test_csv(self, tmp_path, checkpoint_file):
        out = tmp_path / "clusters.csv"
        assert main(["cluster", "--checkpoint", str(checkpoint_file),
                     "--k", "3", "--seed", "1", "--out", str(out)]) == EXIT_OK
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "# seed=1"
        assert lines[1] == "symbol,cluster"
        assert len(lines) == 46
        clusters = {int(line.split(",")[1]) for line in lines[2:]}
        assert clusters <= {0, 1, 2}

    def test_report(self, tmp_path, checkpoint_file):
        report = tmp_path / "report.txt"
        assert main(["cluster", "--checkpoint", str(checkpoint_file),
                     "--out", str(tmp_path / "c.csv"),
                     "--report", str(report)]) == EXIT_OK
        text = report.read_text(encoding="utf-8")
        assert text.startswith("# seed=0\n")
        assert "Nearest neighbors" in text

    def test_report_clusters_match_csv(self, tmp_path, checkpoint_file):
        csv, report = tmp_path / "c.csv", tmp_path / "report.txt"
        assert main(["cluster", "--checkpoint", str(checkpoint_file), "--k", "4",
                     "--restarts", "3", "--seed", "2", "--out", str(csv),
                     "--report", str(report)]) == EXIT_OK
        from_csv = {}
        for row in csv.read_text(encoding="utf-8").splitlines()[2:]:
            symbol, cluster = row.split(",")
            from_csv.setdefault(int(cluster), []).append(symbol)
        from_report = {}
        for line in report.read_text(encoding="utf-8").splitlines():
            if line.startswith("cluster "):
                head, body = line.split(": ", 1)
                from_report[int(head.split()[1])] = (
                    [] if body == "(empty)" else body.split(", "))
        assert sorted(from_report) == [0, 1, 2, 3]
        assert {j: m for j, m in from_report.items() if m} == from_csv

    def test_bad_k(self, checkpoint_file, tmp_path):
        assert main(["cluster", "--checkpoint", str(checkpoint_file),
                     "--k", "0", "--out", str(tmp_path / "c.csv")]) == EXIT_USAGE

    @pytest.mark.parametrize("restarts", ["0", "-5"])
    def test_bad_restarts(self, checkpoint_file, tmp_path, caplog, restarts):
        out = tmp_path / "c.csv"
        assert main(["cluster", "--checkpoint", str(checkpoint_file),
                     "--restarts", restarts, "--out", str(out)]) == EXIT_USAGE
        assert _problems(caplog) == ["restarts must be >= 1"]
        assert not out.exists()


class TestClassify:
    def test_runs_all_three(self, tmp_path, small_corpus_file, checkpoint_file, capsys):
        out_dir = tmp_path / "cls"
        code = main([
            "classify", "--corpus", str(small_corpus_file),
            "--checkpoint", str(checkpoint_file),
            "--out-dir", str(out_dir), "--epochs", "10", "--seed", "0",
        ])
        assert code == EXIT_OK
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
        for name in ("logistic_regression", "deep_pretrained",
                     "deep_random", "random_guess"):
            assert name in summary
            if name != "random_guess":
                assert (out_dir / f"{name}_curves.csv").exists()
        assert summary.startswith("# seed=0")

    def test_distinct_rows_and_calls_through_the_module(
            self, tmp_path, small_corpus_file, checkpoint_file, monkeypatch):
        # the bench counts these calls through wrappers on the module
        calls = {"loss_and_gradients": 0, "evaluate": 0}
        for name in calls:
            def counting(*args, _name=name, _inner=getattr(classify, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(classify, name, counting)
        out_dir = tmp_path / "cls"
        assert main(["classify", "--corpus", str(small_corpus_file),
                     "--checkpoint", str(checkpoint_file),
                     "--out-dir", str(out_dir), "--epochs", "4"]) == EXIT_OK
        # three models, each one loss pass an epoch, one cv pass an epoch,
        # one last train pass and one test pass
        assert calls == {"loss_and_gradients": 3 * 4, "evaluate": 3 * (4 + 2)}

        corpus = load_corpus(small_corpus_file.read_text(encoding="utf-8"))
        spec = classify.split(corpus, seed=0)
        distinct = [len({(classify.node_histogram(corpus[i].ast).tobytes(), corpus[i].label)
                         for i in part}) for part in (spec.train, spec.cv, spec.test)]
        line = (out_dir / "summary.txt").read_text(encoding="utf-8").splitlines()[1]
        assert line == "# distinct rows: train {}, cv {}, test {}".format(*distinct)

    def test_without_checkpoint_lr_only(self, tmp_path, small_corpus_file):
        out_dir = tmp_path / "cls"
        code = main([
            "classify", "--corpus", str(small_corpus_file),
            "--out-dir", str(out_dir), "--epochs", "5",
        ])
        assert code == EXIT_OK
        assert (out_dir / "logistic_regression_curves.csv").exists()
        assert not (out_dir / "deep_pretrained_curves.csv").exists()

    def test_negative_epochs_usage(self, tmp_path, small_corpus_file, caplog):
        out_dir = tmp_path / "cls"
        assert main(["classify", "--corpus", str(small_corpus_file),
                     "--out-dir", str(out_dir), "--epochs", "-1"]) == EXIT_USAGE
        assert _problems(caplog) == ["epochs must be >= 0"]
        assert not out_dir.exists()

    def test_diverged_exit_3(self, tmp_path, small_corpus_file, caplog, monkeypatch):
        def diverge(*args, **kwargs):
            raise RuntimeError("classifier diverged at epoch 2")
        monkeypatch.setattr(classify, "train_classifier", diverge)
        out_dir = tmp_path / "cls"
        assert main(["classify", "--corpus", str(small_corpus_file),
                     "--out-dir", str(out_dir)]) == EXIT_NUMERIC
        assert _problems(caplog) == ["classifier diverged at epoch 2"]
        assert not (out_dir / "summary.txt").exists()

    def test_too_few_programs_of_a_label(self, tmp_path, caplog):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(b'{"label":"a","source_id":"s","ast":{"kind":"ID"}}\n' * 4)
        out_dir = tmp_path / "cls"
        assert main(["classify", "--corpus", str(corpus),
                     "--out-dir", str(out_dir)]) == EXIT_INPUT
        assert _problems(caplog) == ["label 'a' has fewer than 5 programs"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("env_vars", [
        {"OPENBLAS_CORETYPE": "Prescott"},
        {"OPENBLAS_CORETYPE": "Haswell"},
        {"OPENBLAS_CORETYPE": "SkylakeX"},
        {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
    ])
    def test_bytes_do_not_depend_on_blas_or_simd(self, tmp_path, small_corpus_file,
                                                 checkpoint_file, env_vars):
        # classify trains and scores in the kernel: under each OpenBLAS core
        # and with numpy's AVX-512 dispatch off, every file it writes has the
        # bytes of a run in this process
        argv = ["classify", "--corpus", str(small_corpus_file),
                "--checkpoint", str(checkpoint_file), "--epochs", "20"]
        assert main([*argv, "--out-dir", str(tmp_path / "here")]) == EXIT_OK
        proc = _python_process("-m", "astvec.cli", *argv, "--out-dir",
                               str(tmp_path / "there"), env_vars=env_vars)
        assert proc.returncode == EXIT_OK, proc.stderr
        files = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                 for d in ("here", "there")]
        assert len(files[0]) == 4 and files[0] == files[1]

    def test_one_label_xent_is_not_negative_zero(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(b'{"label":"a","source_id":"s","ast":{"kind":"ID"}}\n' * 5)
        out_dir = tmp_path / "cls"
        assert main(["classify", "--corpus", str(corpus), "--out-dir", str(out_dir),
                     "--epochs", "1"]) == EXIT_OK
        summary = (out_dir / "summary.txt").read_text(encoding="utf-8")
        assert "logistic_regression" in summary and "xent 0.0000" in summary
        assert "-0.0000" not in summary


class TestExport:
    def test_round_trip(self, tmp_path, checkpoint_file):
        out = tmp_path / "emb.txt"
        assert main(["export", "--checkpoint", str(checkpoint_file),
                     "--out", str(out)]) == EXIT_OK
        emb = read_export(out.read_text(encoding="utf-8"))
        assert np.array_equal(emb, load_checkpoint(checkpoint_file).params.embeddings)
