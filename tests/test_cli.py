import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from astvec.ast_core import dump_corpus, load_corpus
from astvec.cli import EXIT_INPUT, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from astvec.embedding_io import parse_embeddings
from astvec.trainer import load_checkpoint

from conftest import CORPUS_PATH, REPO, SNIPPET_SRC, invalid_sources


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

    def test_neither_flag_usage(self, tmp_path):
        assert main(["corpus-build", "--out", str(tmp_path / "x.jsonl")]) == EXIT_USAGE


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
        assert lines[1] == "epoch,mean_hinge,objective"
        assert len(lines) == 4

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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "astvec.cli", "train",
             "--corpus", str(small_corpus_file), "--out", str(tmp_path / "cp.json"),
             "--epochs", "1", f"{flag}={value}"],
            capture_output=True, text=True, env=env, timeout=120,
        )
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


@pytest.mark.parametrize("edit", [
    pytest.param(lambda doc: [1, 2], id="json-list"),
    pytest.param(_drop("vocab_fingerprint"), id="no-fingerprint"),
    pytest.param(_drop("hyper", "seed"), id="no-hyper-seed"),
    pytest.param(_put(lambda b: b[:-1], "params", "b"), id="short-b"),
    pytest.param(_put("x", "hyper", "n_f"), id="n_f-string"),
    pytest.param(_put(-1, "hyper", "alpha"), id="negative-alpha"),
    pytest.param(_put(lambda w: [[float("nan")] * len(w[0])] * len(w),
                      "velocity", "w_l"), id="nan-velocity"),
    pytest.param(_put(True, "epoch"), id="bool-epoch"),
    pytest.param(_put({}, "rng_state"), id="empty-rng-state"),
    pytest.param(_put(lambda h: h + ["0.5"], "loss_history"), id="string-loss"),
])
def test_malformed_checkpoint_exit_2(tmp_path, small_corpus_file, checkpoint_file, edit):
    doc = json.loads(checkpoint_file.read_text(encoding="utf-8"))
    doc = edit(doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "astvec.cli", "train",
         "--corpus", str(small_corpus_file), "--out", str(tmp_path / "cp.json"),
         "--resume", str(bad), "--epochs", "4"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_INPUT
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert str(bad) in proc.stderr
    assert not (tmp_path / "cp.json").exists()


# Sources and corpora that once ended in a traceback: each C file is either
# valid (exit 0) or rejected with one line (exit 2); each corpus exits 2.
DEEP_C = {
    "parentheses": "int x = " + "(" * 900 + "1" + ")" * 900 + ";\n",
    "not": "int x = " + "!" * 900 + "1;\n",
    "else-if": "void f(void) { if (a) ;" + " else if (a) ;" * 600 + " }\n",
    "sum": "int x = " + "+".join(["a"] * 2000) + ";\n",
    "assignment-chain": "void f(void) { " + "a = " * 600 + "1; }\n",
}
DEEP_AST = ('{"kind":"UnaryOp","children":[' * 900 + '{"kind":"ID","children":[]}'
            + "]}" * 900)
DEEP_CORPUS = ('{"label":"a","source_id":"s","ast":' + DEEP_AST + "}\n").encode()
LATIN1_C = b"int x;\nint caf\xe9;\n"
LATIN1_CORPUS = b'{"label":"caf\xe9","source_id":"s","ast":{"kind":"ID"}}\n'


def _problems(caplog):
    return [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]


class TestHostileInputs:
    # the column is where the stack ran out, so it depends on the caller's depth
    @pytest.mark.parametrize("name", ["parentheses", "not", "else-if"])
    def test_too_deep_c(self, tmp_path, caplog, name):
        path = tmp_path / "deep.c"
        path.write_text(DEEP_C[name], encoding="utf-8")
        assert main(["parse", str(path)]) == EXIT_INPUT
        [line] = _problems(caplog)
        assert re.fullmatch(re.escape(str(path)) + r":1:\d+: nesting too deep", line)

    @pytest.mark.parametrize("name,kind", [("sum", "BinaryOp"),
                                           ("assignment-chain", "Assignment")])
    def test_deep_valid_c(self, tmp_path, caplog, capsys, name, kind):
        path = tmp_path / "deep.c"
        path.write_text(DEEP_C[name], encoding="utf-8")
        assert main(["parse", str(path)]) == EXIT_OK
        assert _problems(caplog) == []
        out = capsys.readouterr().out
        assert out.startswith('{"kind":"Root"') and out.endswith("]}\n")
        assert out.count(f'"{kind}"') == DEEP_C[name].count("+" if kind == "BinaryOp" else "=")

    def test_latin1_parse(self, tmp_path, caplog):
        path = tmp_path / "latin1.c"
        path.write_bytes(LATIN1_C)
        assert main(["parse", str(path)]) == EXIT_INPUT
        assert _problems(caplog) == [f"{path}:2:8: not valid UTF-8"]

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

    def test_without_checkpoint_lr_only(self, tmp_path, small_corpus_file):
        out_dir = tmp_path / "cls"
        code = main([
            "classify", "--corpus", str(small_corpus_file),
            "--out-dir", str(out_dir), "--epochs", "5",
        ])
        assert code == EXIT_OK
        assert (out_dir / "logistic_regression_curves.csv").exists()
        assert not (out_dir / "deep_pretrained_curves.csv").exists()


class TestExport:
    def test_round_trip(self, tmp_path, checkpoint_file):
        out = tmp_path / "emb.txt"
        assert main(["export", "--checkpoint", str(checkpoint_file),
                     "--out", str(out)]) == EXIT_OK
        emb = parse_embeddings(out.read_text(encoding="utf-8"))
        assert np.array_equal(emb, load_checkpoint(checkpoint_file).params.embeddings)
