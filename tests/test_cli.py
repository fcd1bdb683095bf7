import json
import os
import subprocess
import sys

import numpy as np
import pytest

from astvec.ast_core import dump_corpus, load_corpus
from astvec.cli import EXIT_INPUT, EXIT_OK, EXIT_USAGE, main
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
