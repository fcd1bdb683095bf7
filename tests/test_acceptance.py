"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line (run with -s to see them live) and
asserts the same condition, covering: gradient correctness, formula hand
cases, the trivial-solution guard, training descent, neighbor and cluster
structure, the classification comparison, determinism, the parser golden
suite, and brute-force oracles.
"""

import itertools
import time

import numpy as np
import pytest

from astvec.analysis import kmeans, nearest_neighbors
from astvec.ast_core import KIND_NAMES, dump_ast, kind_by_name
from astvec.classify import (
    Batch,
    ClassifierConfig,
    _init_model,
    evaluate,
    loss_and_gradients,
    node_histogram,
    task,
    train_classifier,
)
from astvec.cli import EXIT_INPUT, EXIT_OK, main
from astvec.coder import Hyperparams, init_params, objective
from astvec.cparse import CParseError, parse_file
from astvec.sampling import (
    build_training_set,
    child_weight,
    corrupt,
)
from astvec.trainer import train

from conftest import (
    SNIPPET_SRC, distance, extract_samples, golden_sources, invalid_sources,
    model_with_probabilities, node, pair_loss, reference_hinge,
    reference_loss_and_gradients, reference_walk,
)
from test_coder import (
    KERNEL_HINGE_CASES, finite_difference_check, kernel_step_hinge, _zero_params,
)

CONTROL_FLOW = ("If", "For", "While", "Break", "Continue", "Switch", "Case")
DECLARATIONS = ("FuncDecl", "ArrayDecl", "PtrDecl", "TypeDecl", "Decl")


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {num} ({label}) failed"


@pytest.fixture(scope="session")
def five_runs(corpus):
    """Five seeded 40-epoch training runs on the bundled corpus."""
    samples = build_training_set(corpus)
    start = time.perf_counter()
    runs = {}
    for seed in range(5):
        state, report = train(samples, Hyperparams(seed=seed), max_epochs=40)
        runs[seed] = (state, report)
    return runs, time.perf_counter() - start


class TestCriterion1Gradients:
    def test_gradient_correctness(self):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        tree_pool = [
            node("BinaryOp", node("ID"), node("Constant")),
            node("Return", node("BinaryOp", node("Constant"), node("ID"))),
            node("If", node("ID"), node("Compound", node("Break")), node("Return")),
            node("FuncCall", node("ID"), node("ExprList", node("ID"), node("ID"))),
        ]
        count = 0
        for n_f in (2, 4):
            for trial in range(40):
                hyper = Hyperparams(n_f=n_f, lam=1e-3)
                params = init_params(hyper, np.random.default_rng(int(rng.integers(1 << 30))))
                sample = extract_samples(tree_pool[trial % len(tree_pool)])[0]
                neg = corrupt(sample, rng)
                worst = max(worst, finite_difference_check(sample, neg, params, hyper))
                count += 1
        # classifier side: the remaining instances, on rows repeated 1-3 times
        rows = [0, 0, 1, 2, 2, 2, 3, 4, 4, 5]
        X = rng.integers(1, 4, size=(6, 44)).astype(np.float64)[rows]
        y = np.array([0, 1, 2, 0, 1, 2])[rows]
        batch = Batch.of(X, y)
        step = 1e-5
        for trial in range(20):
            n_f = 2 if trial % 2 == 0 else 4
            params = init_params(Hyperparams(n_f=n_f), np.random.default_rng(trial))
            config = ClassifierConfig(hidden=(4,), seed=trial, fine_tune=True)
            model = _init_model(3, batch, config, params.embeddings)
            _, _, grad = loss_and_gradients(model, batch, True)
            ge, gw, gb = model.views(grad)
            for analytic, view in zip(gw + gb + [ge],
                                      model.weights + model.biases + [model.embed]):
                flat = view.reshape(-1)
                picks = np.random.default_rng(trial).choice(
                    flat.size, size=min(10, flat.size), replace=False
                )
                for j in picks:
                    orig = flat[j]
                    flat[j] = orig + step
                    # differences of the loss over every row, repeats included
                    up, *_ = reference_loss_and_gradients(model, X, y, True)
                    flat[j] = orig - step
                    down, *_ = reference_loss_and_gradients(model, X, y, True)
                    flat[j] = orig
                    num = (up - down) / (2 * step)
                    scale = max(abs(analytic.reshape(-1)[j]) + abs(num), 1e-6)
                    worst = max(worst, abs(analytic.reshape(-1)[j] - num) / scale)
            count += 1
        elapsed = time.perf_counter() - start
        _verdict(1, "gradient correctness",
                 count >= 100 and worst < 1e-4 and elapsed < 60.0)


class TestCriterion2Formulas:
    def test_hand_cases(self):
        ok = True
        ok &= child_weight(3, 1) == (1.0, 0.0)
        ok &= child_weight(3, 2) == (0.5, 0.5)
        ok &= child_weight(3, 3) == (0.0, 1.0)
        ok &= child_weight(1, 1) == (0.5, 0.5)

        tree = node("BinaryOp", node("ID"), node("Constant"))
        ok &= extract_samples(tree)[0].coefficients == (0.5, 0.5)
        left = node("ExprList", node("ID"), node("ID"))
        right = node("ExprList", node("ID"), node("ID"), node("ID"))
        ok &= extract_samples(node("FuncCall", left, right))[0].coefficients == (0.4, 0.6)

        ok &= reference_hinge(0.0, 2.0, 1.0) == 0.0
        ok &= reference_hinge(0.5, 1.0, 1.0) == 0.5
        ok &= reference_hinge(0.7, 0.7, 1.0) == 1.0
        for real, corrupted, want in KERNEL_HINGE_CASES:
            ok &= kernel_step_hinge(real, corrupted) == want

        sample = extract_samples(tree)[0]
        neg = sample._replace(parent=kind_by_name("Goto"))
        params = _zero_params(1)
        params.w_l[:] = 3.0
        params.w_r[:] = 1.0
        hyper = Hyperparams(n_f=1, lam=0.4, delta=0.0)
        ok &= abs(objective([(sample, neg)], params, hyper) - 1.0) < 1e-12
        _verdict(2, "formula conformance", bool(ok))


class TestCriterion3TrivialGuard:
    def test_guard(self, five_runs):
        runs, _ = five_runs
        tree = node("BinaryOp", node("ID"), node("Constant"))
        sample = extract_samples(tree)[0]
        zero = _zero_params(30)
        hyper = Hyperparams()
        neg = sample._replace(parent=kind_by_name("Goto"))
        trivial_ok = (
            distance(sample, zero) == 0.0
            and pair_loss(sample, neg, zero, hyper) == hyper.delta
        )
        escaped = all(
            report.mean_hinge[-1] < Hyperparams().delta
            for _, report in runs.values()
        )
        _verdict(3, "trivial-solution guard", trivial_ok and escaped)


class TestCriterion4Descent:
    def test_descent(self, five_runs):
        runs, elapsed = five_runs
        # a run that converges before epoch 40 is judged at its final epoch
        hits = sum(
            1 for _, report in runs.values()
            if report.mean_hinge[min(39, len(report.mean_hinge) - 1)]
            <= 0.5 * report.mean_hinge[0]
        )
        _verdict(4, "training descent", hits >= 4 and elapsed < 600.0)


class TestCriterion5Neighbors:
    def test_neighbor_structure(self, five_runs):
        runs, _ = five_runs
        good = 0
        for state, _ in runs.values():
            top5 = {
                name: {KIND_NAMES[k] for k, _ in
                       nearest_neighbors(state.params.embeddings, name, top=5)}
                for name in ("ID", "For", "While", "If", "Break")
            }
            constant_ok = "Constant" in top5["ID"]
            mutual = any(
                b in top5[a] and a in top5[b]
                for a, b in itertools.combinations(("For", "While", "If", "Break"), 2)
            )
            if constant_ok and mutual:
                good += 1
        _verdict(5, "neighbor structure", good >= 3)


def _co_cluster_rate(labels, group_a, group_b=None):
    if group_b is None:
        pairs = list(itertools.combinations(group_a, 2))
    else:
        pairs = [(a, b) for a in group_a for b in group_b]
    same = sum(
        1 for a, b in pairs
        if labels[kind_by_name(a)] == labels[kind_by_name(b)]
    )
    return same / len(pairs)


class TestCriterion6Clustering:
    def test_cluster_structure(self, five_runs):
        runs, _ = five_runs
        within = []
        cross = []
        for seed, (state, _) in runs.items():
            labels, _, _ = kmeans(state.params.embeddings, k=3, seed=seed)
            within.append(_co_cluster_rate(labels, CONTROL_FLOW))
            cross.append(_co_cluster_rate(labels, CONTROL_FLOW, DECLARATIONS))
        diff = float(np.mean(within) - np.mean(cross))
        _verdict(6, "clustering structure", diff >= 0.2)


class TestCriterion7Classification:
    def test_comparison(self, corpus, five_runs):
        runs, _ = five_runs
        params = runs[0][0].params
        start = time.perf_counter()
        accs = {"lr": [], "pre": [], "rand": []}
        for seed in range(3):
            labels, train, _, test = task(corpus, seed=seed)
            lr_cfg = ClassifierConfig(hidden=(), epochs=300, seed=seed)
            deep_cfg = ClassifierConfig(epochs=300, seed=seed)
            model, _ = train_classifier(train, len(labels), lr_cfg)
            accs["lr"].append(evaluate(model, test)[0])
            model, _ = train_classifier(train, len(labels), deep_cfg,
                                        embed=params.embeddings)
            accs["pre"].append(evaluate(model, test)[0])
            model, _ = train_classifier(train, len(labels), deep_cfg,
                                        embed=params.n_f)
            accs["rand"].append(evaluate(model, test)[0])
        elapsed = time.perf_counter() - start
        lr = float(np.mean(accs["lr"]))
        pre = float(np.mean(accs["pre"]))
        rand = float(np.mean(accs["rand"]))
        chance = 1.0 / len(labels)
        ok = (
            lr >= chance + 0.30
            and pre >= rand
            and pre >= lr - 0.02
            and elapsed < 900.0
        )
        _verdict(7, "classification comparison", ok)


class TestCriterion8Determinism:
    def test_byte_identical_runs(self, tmp_path, small_corpus_args):
        corpus_path = small_corpus_args
        artifacts = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            cp = d / "model.json"
            loss = d / "loss.csv"
            assert main(["train", "--corpus", str(corpus_path), "--out", str(cp),
                         "--loss-log", str(loss), "--dim", "10", "--epochs", "3",
                         "--seed", "7"]) == EXIT_OK
            clusters = d / "clusters.csv"
            report = d / "report.txt"
            assert main(["cluster", "--checkpoint", str(cp), "--out", str(clusters),
                         "--report", str(report), "--seed", "1"]) == EXIT_OK
            emb = d / "emb.txt"
            assert main(["export", "--checkpoint", str(cp),
                         "--out", str(emb)]) == EXIT_OK
            cls = d / "cls"
            assert main(["classify", "--corpus", str(corpus_path),
                         "--checkpoint", str(cp), "--out-dir", str(cls),
                         "--epochs", "20", "--seed", "0"]) == EXIT_OK
            artifacts.append([
                cp.read_bytes(), loss.read_bytes(), clusters.read_bytes(),
                report.read_bytes(), emb.read_bytes(),
                (cls / "summary.txt").read_bytes(),
                (cls / "deep_pretrained_curves.csv").read_bytes(),
            ])
        _verdict(8, "determinism", artifacts[0] == artifacts[1])


@pytest.fixture(scope="session")
def small_corpus_args(tmp_path_factory, corpus):
    from astvec.ast_core import dump_corpus

    kept = []
    seen: dict[str, int] = {}
    for p in corpus:
        if seen.get(p.label, 0) < 10:
            kept.append(p)
            seen[p.label] = seen.get(p.label, 0) + 1
    path = tmp_path_factory.mktemp("acc-corpus") / "small.jsonl"
    path.write_text(dump_corpus(kept), encoding="utf-8")
    return path


class TestCriterion9GoldenSuite:
    def test_parser_suite(self):
        sources = golden_sources()
        ok = len(sources) >= 20 and SNIPPET_SRC in sources
        for src in sources:
            golden = src.with_suffix(".ast.json").read_text(encoding="utf-8").strip()
            ok &= dump_ast(parse_file(src)) == golden
        for bad in invalid_sources():
            try:
                parse_file(bad)
                ok = False
            except CParseError as exc:
                ok &= exc.line >= 1 and exc.column >= 1
        _verdict(9, "parser golden suite", bool(ok))


class TestCriterion10BruteForce:
    def test_oracles(self, corpus):
        ok = True

        # k-means on <= 12 points vs exhaustive partition search
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(10, 2))
        _, _, inertia = kmeans(pts, k=3, restarts=32, seed=0)
        best = np.inf
        for labels in itertools.product(range(3), repeat=10):
            total = 0.0
            for j in range(3):
                members = pts[[i for i in range(10) if labels[i] == j]]
                if len(members):
                    c = members.mean(axis=0)
                    total += float(np.sum((members - c) ** 2))
            best = min(best, total)
        ok &= abs(inertia - best) <= 1e-9 * max(1.0, best)

        # cross-entropy vs straight-line recomputation
        probs = rng.random((8, 4)) + 0.05
        probs /= probs.sum(axis=1, keepdims=True)
        y = rng.integers(0, 4, size=8)
        manual = -sum(np.log(probs[i, y[i]]) for i in range(8)) / 8
        model, batch = model_with_probabilities(probs)
        ok &= abs(evaluate(model, batch._replace(y=y))[1] - manual) < 1e-12

        # histograms vs per-node tally; sample counts vs non-leaf recount
        for program in corpus[:20]:
            hist = node_histogram(program.ast)
            tally = np.zeros(len(KIND_NAMES), dtype=int)
            for n in reference_walk(program.ast):
                tally[n.kind] += 1
            ok &= np.array_equal(hist, tally)
            nonleaf = sum(1 for n in reference_walk(program.ast) if n.children)
            ok &= len(extract_samples(program.ast)) == nonleaf
        _verdict(10, "brute-force oracles", bool(ok))
