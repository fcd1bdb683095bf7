import dataclasses

import numpy as np
import pytest

from astvec.ast_core import (
    LabeledProgram,
    kind_by_name,
    load_ast,
    node,
    vocabulary,
)
from astvec.classify import (
    ClassifierConfig,
    curves_csv,
    evaluate,
    loss_and_gradients,
    node_histogram,
    split,
    train_classifier,
    _accuracy_and_xent,
    _init_model,
    _softmax,
)
from astvec.coder import Hyperparams, init_params
from astvec.cparse import parse_file

from conftest import SNIPPET_SRC, count_leaves_obj, load_golden_obj


class TestFeatures:
    def test_single_leaf(self):
        h = node_histogram(node("ID"))
        assert h[kind_by_name("ID").id] == 1
        assert h.sum() == 1

    def test_snippet_tally_oracle(self):
        # oracle: count kinds by string scan over the raw fixture JSON
        import json

        obj = load_golden_obj(SNIPPET_SRC.with_suffix(".ast.json"))

        def tally(o, acc):
            acc[o["kind"]] = acc.get(o["kind"], 0) + 1
            for c in o["children"]:
                tally(c, acc)
            return acc

        expected = tally(obj, {})
        h = node_histogram(load_ast(json.dumps(obj)))
        for kind in vocabulary():
            assert h[kind.id] == expected.get(kind.name, 0)

    def test_counts_mode(self):
        program = LabeledProgram(ast=parse_file(SNIPPET_SRC), label="x", source_id="s")
        X = node_histogram(program.ast)[None, :]
        model = _init_model("counts", ("x",), X, ClassifierConfig(), "random", None)
        hist, x = model.raw_input(X)
        assert hist is None
        assert np.array_equal(x, X.astype(np.float64))

    def test_embed_mean_hand_case(self):
        params = init_params(Hyperparams(n_f=3), np.random.default_rng(0))
        tree = node("BinaryOp", node("ID"), node("Constant"))
        X = node_histogram(tree)[None, :]
        model = _init_model("embed_mean", ("x",), X, ClassifierConfig(), "pretrained",
                            params)
        ids = [kind_by_name(n).id for n in ("BinaryOp", "ID", "Constant")]
        expected = params.embeddings[ids].mean(axis=0)
        assert np.allclose(model.raw_input(X)[1][0], expected, atol=1e-12)

    def test_embed_mean_requires_params(self):
        X = node_histogram(node("ID"))[None, :]
        with pytest.raises(ValueError):
            _init_model("embed_mean", ("x",), X, ClassifierConfig(), "pretrained", None)


def _toy_corpus(per_label=5, labels=("a", "b", "c", "d")):
    out = []
    for label in labels:
        for i in range(per_label):
            out.append(
                LabeledProgram(ast=node("ID"), label=label, source_id=f"{label}{i}")
            )
    return out


class TestSplit:
    def test_ratios_exact_multiple(self):
        corpus = _toy_corpus(per_label=5)
        s = split(corpus, seed=0)
        assert len(s.train) == 12 and len(s.cv) == 4 and len(s.test) == 4

    def test_partition(self):
        corpus = _toy_corpus(per_label=7)
        s = split(corpus, seed=1)
        joined = sorted(s.train + s.cv + s.test)
        assert joined == list(range(len(corpus)))

    def test_stratified(self):
        corpus = _toy_corpus(per_label=10)
        s = split(corpus, seed=2)
        for part, size in ((s.cv, 2), (s.test, 2), (s.train, 6)):
            per = {}
            for i in part:
                per[corpus[i].label] = per.get(corpus[i].label, 0) + 1
            assert set(per.values()) == {size}

    def test_deterministic_and_seed_sensitive(self):
        corpus = _toy_corpus(per_label=10)
        assert split(corpus, seed=3) == split(corpus, seed=3)
        assert split(corpus, seed=3) != split(corpus, seed=4)

    def test_too_few_per_label(self):
        with pytest.raises(ValueError):
            split(_toy_corpus(per_label=4), seed=0)

    def test_real_corpus(self, corpus):
        s = split(corpus, seed=0)
        n = len(corpus)
        assert len(s.cv) == len(s.test) == n // 5
        assert len(s.train) == n - 2 * (n // 5)


class TestCrossEntropy:
    def test_perfect_one_hot(self):
        probs = np.eye(3)
        assert _accuracy_and_xent(probs, np.array([0, 1, 2]))[1] == 0.0

    def test_uniform(self):
        probs = np.full((6, 4), 0.25)
        assert _accuracy_and_xent(probs, np.zeros(6, dtype=int))[1] == pytest.approx(
            np.log(4.0), abs=1e-12
        )

    def test_hand_oracle(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]])
        expected = -(np.log(0.7) + np.log(0.8)) / 2.0
        assert _accuracy_and_xent(probs, np.array([0, 1]))[1] == pytest.approx(
            expected, abs=1e-12
        )


def test_softmax_shift_invariance():
    logits = np.random.default_rng(0).normal(size=(5, 4))
    assert np.allclose(_softmax(logits), _softmax(logits + 123.0), atol=1e-12)
    assert np.allclose(_softmax(logits).sum(axis=1), 1.0, atol=1e-12)


def _separable_data(n_per=10, seed=0):
    """Histogram-like rows where each class loads a disjoint symbol block."""
    rng = np.random.default_rng(seed)
    rows = []
    ys = []
    for cls in range(3):
        for _ in range(n_per):
            row = rng.integers(0, 3, size=44).astype(np.float64)
            row[cls * 5 : cls * 5 + 5] += 30
            rows.append(row)
            ys.append(cls)
    return np.array(rows), np.array(ys)


class TestClassifier:
    def test_logistic_regression_separable(self):
        X, y = _separable_data()
        config = ClassifierConfig(hidden=(), epochs=200, lr=0.1, seed=0)
        model, curves = train_classifier(X, y, ("a", "b", "c"), config)
        acc, xent = evaluate(model, X, y)
        assert acc == 1.0
        assert curves.train_xent[-1] < curves.train_xent[0]

    def test_deep_separable(self):
        X, y = _separable_data()
        config = ClassifierConfig(hidden=(16, 16), epochs=200, lr=0.05, seed=0)
        model, _ = train_classifier(X, y, ("a", "b", "c"), config)
        acc, _ = evaluate(model, X, y)
        assert acc == 1.0

    def test_cv_returns_best_epoch(self):
        X, y = _separable_data(seed=0)
        cv = _separable_data(seed=1)
        # lr 2 overshoots: the cv cross-entropy falls, then climbs again
        config = ClassifierConfig(hidden=(16, 16), epochs=60, lr=2.0, seed=0)
        model, curves = train_classifier(X, y, ("a", "b", "c"), config, cv=cv)
        assert len(curves.cv_xent) == len(curves.train_xent) == 60
        assert curves.cv_xent[-1] > 10 * min(curves.cv_xent)
        assert evaluate(model, *cv)[1] == min(curves.cv_xent)
        # without a cv split the last epoch's model comes back
        last, _ = train_classifier(X, y, ("a", "b", "c"), config)
        assert evaluate(last, *cv)[1] == curves.cv_xent[-1]

    def test_zero_epochs_near_chance(self):
        X, y = _separable_data()
        config = ClassifierConfig(hidden=(8,), epochs=0, seed=0)
        model, curves = train_classifier(X, y, ("a", "b", "c"), config)
        _, xent = evaluate(model, X, y)
        assert curves.train_xent == [] and curves.train_acc == []
        # untouched random net should sit near the uniform baseline
        assert abs(xent - np.log(3.0)) < 1.0
        # epoch e of the curves scores the model that e epochs of training return
        _, curves = train_classifier(X, y, ("a", "b", "c"),
                                     dataclasses.replace(config, epochs=3))
        for epochs in (1, 2, 3):
            model, _ = train_classifier(X, y, ("a", "b", "c"),
                                        dataclasses.replace(config, epochs=epochs))
            acc, xent = evaluate(model, X, y)
            assert (curves.train_acc[epochs - 1], curves.train_xent[epochs - 1]) == (acc, xent)

    def test_deterministic(self):
        X, y = _separable_data()
        config = ClassifierConfig(hidden=(8,), epochs=20, seed=5)
        a, _ = train_classifier(X, y, ("a", "b", "c"), config)
        b, _ = train_classifier(X, y, ("a", "b", "c"), config)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_embed_mean_pretrained_uses_given_table(self):
        X, y = _separable_data()
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(2))
        config = ClassifierConfig(hidden=(8,), epochs=0, seed=0)
        model, _ = train_classifier(
            X, y, ("a", "b", "c"), config, mode="embed_mean",
            init="pretrained", params=params,
        )
        assert np.array_equal(model.embed, params.embeddings)

    def test_embed_mean_random_differs_from_pretrained(self):
        X, y = _separable_data()
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(2))
        config = ClassifierConfig(hidden=(8,), epochs=0, seed=0)
        a, _ = train_classifier(X, y, ("a", "b", "c"), config, mode="embed_mean",
                                init="pretrained", params=params)
        b, _ = train_classifier(X, y, ("a", "b", "c"), config, mode="embed_mean",
                                init="random", params=params)
        assert not np.array_equal(a.embed, b.embed)

    def test_no_fine_tune_freezes_embedding(self):
        X, y = _separable_data()
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(3))
        config = ClassifierConfig(hidden=(8,), epochs=15, seed=0, fine_tune=False)
        model, _ = train_classifier(X, y, ("a", "b", "c"), config, mode="embed_mean",
                                    init="pretrained", params=params)
        assert np.array_equal(model.embed, params.embeddings)

    def test_fine_tune_moves_embedding(self):
        X, y = _separable_data()
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(3))
        config = ClassifierConfig(hidden=(8,), epochs=15, seed=0, fine_tune=True)
        model, _ = train_classifier(X, y, ("a", "b", "c"), config, mode="embed_mean",
                                    init="pretrained", params=params)
        assert not np.array_equal(model.embed, params.embeddings)

    def test_length_mismatch(self):
        X, y = _separable_data()
        with pytest.raises(ValueError):
            train_classifier(X, y[:-1], ("a", "b", "c"), ClassifierConfig())

    def test_evaluate_recount_oracle(self):
        X, y = _separable_data()
        config = ClassifierConfig(hidden=(8,), epochs=30, seed=1)
        model, _ = train_classifier(X, y, ("a", "b", "c"), config)
        probs = model.forward(X)
        hits = sum(int(np.argmax(p) == t) for p, t in zip(probs, y))
        acc, xent = evaluate(model, X, y)
        assert acc == pytest.approx(hits / len(y), abs=1e-15)
        manual = -sum(np.log(p[t] + 1e-300) for p, t in zip(probs, y)) / len(y)
        assert xent == pytest.approx(manual, rel=1e-12)


class TestClassifierGradients:
    @pytest.mark.parametrize("mode,fine_tune", [
        ("counts", False),
        ("embed_mean", False),
        ("embed_mean", True),
    ])
    def test_finite_differences(self, mode, fine_tune):
        rng = np.random.default_rng(0)
        X = rng.integers(1, 4, size=(6, 44)).astype(np.float64)
        y = np.array([0, 1, 2, 0, 1, 2])
        params = init_params(Hyperparams(n_f=4), np.random.default_rng(1))
        config = ClassifierConfig(hidden=(5,), seed=2, fine_tune=fine_tune)
        model = _init_model(mode, ("a", "b", "c"), X, config, "pretrained"
                            if mode == "embed_mean" else "random", params)

        loss, _, gw, gb, ge = loss_and_gradients(model, X, y, fine_tune)
        step = 1e-6

        def numeric(view):
            out = np.empty_like(view, dtype=np.float64)
            flat = view.reshape(-1)
            res = out.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up, *_ = loss_and_gradients(model, X, y, fine_tune)
                flat[j] = orig - step
                down, *_ = loss_and_gradients(model, X, y, fine_tune)
                flat[j] = orig
                res[j] = (up - down) / (2 * step)
            return out

        for analytic, view in zip(gw + gb, model.weights + model.biases):
            num = numeric(view)
            scale = np.maximum(np.abs(analytic) + np.abs(num), 1e-6)
            assert np.max(np.abs(analytic - num) / scale) < 1e-4
        if fine_tune:
            num = numeric(model.embed)
            scale = np.maximum(np.abs(ge) + np.abs(num), 1e-6)
            assert np.max(np.abs(ge - num) / scale) < 1e-4


def test_curves_csv():
    X, y = _separable_data(n_per=4)
    config = ClassifierConfig(hidden=(), epochs=3, seed=0)
    _, curves = train_classifier(X, y, ("a", "b", "c"), config, cv=(X, y))
    lines = curves_csv(curves).strip().split("\n")
    assert lines[0] == "epoch,train_xent,cv_xent,train_acc,cv_acc"
    assert len(lines) == 4
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert all(f for f in fields[1:])
