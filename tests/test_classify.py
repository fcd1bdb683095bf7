import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from astvec import classify
from astvec.ast_core import KIND_NAMES, LabeledProgram, kind_by_name, load_ast
from astvec.classify import (
    Batch,
    ClassifierConfig,
    curves_csv,
    evaluate,
    loss_and_gradients,
    node_histogram,
    split,
    task,
    train_classifier,
    _init_model,
)
from astvec.coder import Hyperparams, init_params
from astvec.cparse import parse_file

from conftest import (
    SNIPPET_SRC, count_leaves_obj, load_golden_obj, model_with_probabilities, node,
    reference_loss_and_gradients,
)


class TestFeatures:
    def test_single_leaf(self):
        h = node_histogram(node("ID"))
        assert h[kind_by_name("ID")] == 1
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
        for kind, name in enumerate(KIND_NAMES):
            assert h[kind] == expected.get(name, 0)

    # the mean of the input over a batch of one row is that row's input
    def test_counts_mode(self):
        program = LabeledProgram(ast=parse_file(SNIPPET_SRC), label="x", source_id="s")
        X = node_histogram(program.ast)[None, :]
        batch = Batch.of(X, [0])
        model = _init_model(1, batch, ClassifierConfig())
        assert np.array_equal(model.mu, X[0].astype(np.float64))
        assert np.array_equal(model.sigma, np.ones(X.shape[1]))  # every input is constant

    def test_embed_mean_hand_case(self):
        params = init_params(Hyperparams(n_f=3), np.random.default_rng(0))
        tree = node("BinaryOp", node("ID"), node("Constant"))
        batch = Batch.of(node_histogram(tree)[None, :], [0])
        model = _init_model(1, batch, ClassifierConfig(), params.embeddings)
        ids = [kind_by_name(n) for n in ("BinaryOp", "ID", "Constant")]
        expected = params.embeddings[ids].mean(axis=0)
        assert np.allclose(model.mu, expected, atol=1e-12)


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


class TestTask:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_each_part_counts_its_programs(self, corpus, seed):
        labels, *parts = task(corpus, seed)
        assert labels == tuple(sorted({p.label for p in corpus}))
        for batch, part in zip(parts, split(corpus, seed)):
            # oracle: each distinct (histogram, label) of the part's programs,
            # in order of first appearance, and how often it occurs
            counts = {}
            for i in part:
                key = (tuple(node_histogram(corpus[i].ast).tolist()), corpus[i].label)
                counts[key] = counts.get(key, 0) + 1
            rows = [(tuple(int(v) for v in row), labels[label])
                    for row, label in zip(batch.X, batch.y)]
            assert rows == list(counts)
            assert batch.counts.tolist() == list(counts.values())


class TestCrossEntropy:
    def test_perfect_one_hot(self):
        # probabilities 0 come from logits of -1e6, whose exp is 0
        with np.errstate(divide="ignore"):
            model, batch = model_with_probabilities(np.eye(3))
        model.flat[np.isinf(model.flat)] = -1e6
        assert evaluate(model, batch._replace(y=np.arange(3))) == (1.0, 0.0)

    def test_uniform(self):
        model, batch = model_with_probabilities(np.full((6, 4), 0.25))
        acc, xent = evaluate(model, batch)
        assert acc == 1.0  # a tie goes to the lowest class
        assert xent == pytest.approx(np.log(4.0), abs=1e-12)

    def test_hand_oracle(self):
        model, batch = model_with_probabilities(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2.0
        acc, xent = evaluate(model, batch._replace(y=np.array([0, 1])))
        assert acc == 1.0
        assert xent == pytest.approx(expected, abs=1e-12)


def test_softmax_shift_invariance():
    probs = np.random.default_rng(0).dirichlet(np.ones(4), size=5)
    (model, batch), (shifted, _) = (model_with_probabilities(probs, shift)
                                    for shift in (0.0, 123.0))
    for label in range(4):
        labelled = batch._replace(y=np.full(5, label))
        assert evaluate(model, labelled)[1] == pytest.approx(
            evaluate(shifted, labelled)[1], abs=1e-12)
    # the probabilities of each row sum to 1: one row, each label in turn
    model, batch = model_with_probabilities(probs[:1])
    total = sum(np.exp(-evaluate(model, batch._replace(y=np.array([label])))[1])
                for label in range(4))
    assert total == pytest.approx(1.0, abs=1e-12)


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


def _separable_batch(n_per=10, seed=0):
    return Batch.of(*_separable_data(n_per, seed))


class TestClassifier:
    def test_logistic_regression_separable(self):
        train = _separable_batch()
        config = ClassifierConfig(hidden=(), epochs=200, lr=0.1, seed=0)
        model, curves = train_classifier(train, 3, config)
        acc, xent = evaluate(model, train)
        assert acc == 1.0
        assert curves.train_xent[-1] < curves.train_xent[0]

    def test_deep_separable(self):
        train = _separable_batch()
        config = ClassifierConfig(hidden=(16, 16), epochs=200, lr=0.05, seed=0)
        model, _ = train_classifier(train, 3, config)
        acc, _ = evaluate(model, train)
        assert acc == 1.0

    def test_diverged(self, corpus):
        labels, train, cv, _ = task(corpus, 0)
        config = ClassifierConfig(hidden=(8,), epochs=20, lr=1e308)
        with np.errstate(all="ignore"), pytest.raises(RuntimeError) as exc:
            train_classifier(train, len(labels), config, cv=cv)
        assert str(exc.value) == "classifier diverged at epoch 2"

    def test_cv_returns_best_epoch(self):
        train = _separable_batch(seed=0)
        cv = _separable_batch(seed=1)
        # lr 2 overshoots: the cv cross-entropy falls, then climbs again
        config = ClassifierConfig(hidden=(16, 16), epochs=60, lr=2.0, seed=0)
        model, curves = train_classifier(train, 3, config, cv=cv)
        assert len(curves.cv_xent) == len(curves.train_xent) == 60
        assert curves.cv_xent[-1] > 10 * min(curves.cv_xent)
        assert evaluate(model, cv)[1] == min(curves.cv_xent)
        # without a cv split the last epoch's model comes back
        last, _ = train_classifier(train, 3, config)
        assert evaluate(last, cv)[1] == curves.cv_xent[-1]

    def test_zero_epochs_near_chance(self):
        train = _separable_batch()
        config = ClassifierConfig(hidden=(8,), epochs=0, seed=0)
        model, curves = train_classifier(train, 3, config)
        _, xent = evaluate(model, train)
        assert curves.train_xent == [] and curves.train_acc == []
        # untouched random net should sit near the uniform baseline
        assert abs(xent - np.log(3.0)) < 1.0
        # epoch e of the curves scores the model that e epochs of training return
        _, curves = train_classifier(train, 3, dataclasses.replace(config, epochs=3))
        for epochs in (1, 2, 3):
            model, _ = train_classifier(train, 3, dataclasses.replace(config, epochs=epochs))
            acc, xent = evaluate(model, train)
            assert (curves.train_acc[epochs - 1], curves.train_xent[epochs - 1]) == (acc, xent)

    def test_deterministic(self):
        train = _separable_batch()
        config = ClassifierConfig(hidden=(8,), epochs=20, seed=5)
        a, _ = train_classifier(train, 3, config)
        b, _ = train_classifier(train, 3, config)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_embed_mean_pretrained_uses_given_table(self):
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(2))
        config = ClassifierConfig(hidden=(8,), epochs=0, seed=0)
        model, _ = train_classifier(_separable_batch(), 3, config, embed=params.embeddings)
        assert np.array_equal(model.embed, params.embeddings)

    def test_embed_mean_random_differs_from_pretrained(self):
        train = _separable_batch()
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(2))
        config = ClassifierConfig(hidden=(8,), epochs=0, seed=0)
        a, _ = train_classifier(train, 3, config, embed=params.embeddings)
        b, _ = train_classifier(train, 3, config, embed=params.n_f)
        assert not np.array_equal(a.embed, b.embed)

    def test_no_fine_tune_freezes_embedding(self):
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(3))
        config = ClassifierConfig(hidden=(8,), epochs=15, seed=0, fine_tune=False)
        model, _ = train_classifier(_separable_batch(), 3, config, embed=params.embeddings)
        assert np.array_equal(model.embed, params.embeddings)

    def test_fine_tune_moves_embedding(self):
        params = init_params(Hyperparams(n_f=6), np.random.default_rng(3))
        config = ClassifierConfig(hidden=(8,), epochs=15, seed=0, fine_tune=True)
        model, _ = train_classifier(_separable_batch(), 3, config, embed=params.embeddings)
        assert not np.array_equal(model.embed, params.embeddings)

    def test_evaluate_recount_oracle(self):
        X, y = _separable_data()
        config = ClassifierConfig(hidden=(8,), epochs=30, seed=1)
        model, _ = train_classifier(Batch.of(X, y), 3, config)
        # rows repeated 1-3 times, each run of repeats in place
        rows = np.repeat(np.arange(len(y)), 1 + np.arange(len(y)) % 3)
        X, y = X[rows], y[rows]
        batch = Batch.of(X, y)
        # each row alone, as a batch of one
        scores = [evaluate(model, Batch.of(X[i:i + 1], y[i:i + 1])) for i in range(len(y))]
        acc, xent = evaluate(model, batch)
        assert acc == sum(hit for hit, _ in scores) / len(y)
        assert xent == pytest.approx(sum(x for _, x in scores) / len(y), rel=1e-12)

    def test_one_call_per_epoch_through_the_module(self, monkeypatch):
        # the bench counts these calls through wrappers on the module
        calls = {"loss_and_gradients": 0, "evaluate": 0}
        for name in calls:
            def counting(*args, _name=name, _inner=getattr(classify, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(classify, name, counting)
        train = _separable_batch(n_per=4)
        config = ClassifierConfig(hidden=(4,), epochs=7, seed=0)
        train_classifier(train, 3, config, cv=train)
        assert calls == {"loss_and_gradients": 7, "evaluate": 8}

    @pytest.mark.parametrize("embed", [None, 6])
    def test_doubled_rows_give_the_same_model(self, embed):
        X, y = _separable_data()
        X[1], y[1] = X[0], y[0]
        config = ClassifierConfig(hidden=(8, 8), epochs=25, seed=3)
        cv = _separable_batch(seed=1)
        once, curves = train_classifier(Batch.of(X, y), 3, config, embed, cv)
        twice, twice_curves = train_classifier(
            Batch.of(np.repeat(X, 2, axis=0), np.repeat(y, 2)), 3, config, embed, cv)
        assert np.array_equal(once.flat, twice.flat)
        assert np.array_equal(once.mu, twice.mu) and np.array_equal(once.sigma, twice.sigma)
        assert curves == twice_curves


class TestBatch:
    def test_distinct_rows_in_order_of_first_appearance(self):
        X = np.array([[2.0, 0.0], [1.0, 1.0], [2.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        y = np.array([1, 0, 1, 2, 2, 0])
        batch = Batch.of(X, y)
        # the same histogram under another label is another row
        assert batch.X.tolist() == [[2.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]
        assert batch.y.tolist() == [1, 0, 2, 0]
        assert batch.counts.tolist() == [2, 1, 2, 1]
        assert batch.hist.tolist() == [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.0, 0.0]]

    def test_length_mismatch(self):
        X, y = _separable_data()
        with pytest.raises(ValueError):
            Batch.of(X, y[:-1])


def assert_matches_row_oracle(model, X, y, fine_tune, accuracy=None):
    """The batch's loss, accuracy and gradient equal the row-wise oracle's
    over every row: the accuracy exactly (or `accuracy`, where given), the
    loss and the gradient (as one vector, in the max norm) to 1e-12
    relative."""
    loss, acc, grad = loss_and_gradients(model, Batch.of(X, y), fine_tune)
    want_loss, want_acc, want_grad = reference_loss_and_gradients(model, X, y, fine_tune)
    assert acc == (want_acc if accuracy is None else accuracy)
    assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
    assert np.max(np.abs(grad - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))


class TestRowOracle:
    @pytest.mark.parametrize("embed,fine_tune", [(None, False), (30, False), (30, True)])
    def test_bundled_corpus(self, corpus, embed, fine_tune):
        labels = tuple(sorted({p.label for p in corpus}))
        X = np.stack([node_histogram(p.ast) for p in corpus]).astype(np.float64)
        y = np.array([labels.index(p.label) for p in corpus])
        train = split(corpus, seed=0).train
        X, y = X[train], y[train]
        batch = Batch.of(X, y)
        assert len(batch.y) < len(y)  # the bundled corpus repeats programs
        hidden = () if embed is None else ClassifierConfig.hidden
        model = _init_model(len(labels), batch, ClassifierConfig(hidden=hidden), embed)
        assert_matches_row_oracle(model, X, y, fine_tune)

    @settings(max_examples=60, deadline=None)
    @given(
        base=st.integers(1, 5),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=14),
        hidden=st.sampled_from([(), (3,), (5, 4)]),
        embed=st.sampled_from([None, 3]),
        fine_tune=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_hypothesis_rows(self, base, picks, hidden, embed, fine_tune, seed):
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 4, size=(base, 44)).astype(np.float64)
        labels = rng.integers(0, 3, size=base)
        rows = [pick % base for pick in picks]
        X, y = distinct[rows], labels[rows]
        config = ClassifierConfig(hidden=hidden, seed=seed)
        batch = Batch.of(X, y)
        model = _init_model(3, batch, config, embed)
        # Standardizing an input whose spread is 1e-4 of its size turns an ulp
        # of it (the two sides multiply by the table in batches of different
        # heights) into 1e4 ulps; such an input is left out.
        raw_input = batch.X if embed is None else batch.hist @ model.embed
        assume(np.max(np.abs(raw_input) / model.sigma) <= 1e3)
        # One histogram on every row, times a table: the input has no spread,
        # so the kernel takes mu its value and sigma 1 and standardizes it to
        # exactly 0. Every logit is then its bias, 0 at initialization, and a
        # tie goes to class 0. The oracle's product with the table rounds
        # otherwise, to 1e-17 from mu, and that rounding would pick its
        # argmax, so the kernel's accuracy is held to the ties instead.
        accuracy = None
        if embed is not None and (batch.hist == batch.hist[:1]).all():
            accuracy = float(np.mean(y == 0))
        assert_matches_row_oracle(model, X, y, fine_tune, accuracy)


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
        # rows repeated 1-3 times: the batch weights them by count, and the
        # differences are taken of the row-wise loss over every row
        rows = [0, 1, 1, 2, 3, 3, 3, 4, 5, 5]
        X, y = X[rows], y[rows]
        batch = Batch.of(X, y)
        assert sorted(set(batch.counts.tolist())) == [1, 2, 3]
        params = init_params(Hyperparams(n_f=4), np.random.default_rng(1))
        config = ClassifierConfig(hidden=(5,), seed=2, fine_tune=fine_tune)
        model = _init_model(3, batch, config,
                            params.embeddings if mode == "embed_mean" else None)

        loss, _, grad = loss_and_gradients(model, batch, fine_tune)
        ge, gw, gb = model.views(grad)
        step = 1e-6

        def numeric(view):
            out = np.empty_like(view, dtype=np.float64)
            flat = view.reshape(-1)
            res = out.reshape(-1)
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + step
                up, *_ = reference_loss_and_gradients(model, X, y, fine_tune)
                flat[j] = orig - step
                down, *_ = reference_loss_and_gradients(model, X, y, fine_tune)
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
        elif ge is not None:  # a frozen table takes a zero gradient
            assert not ge.any()


def test_curves_csv():
    train = _separable_batch(n_per=4)
    config = ClassifierConfig(hidden=(), epochs=3, seed=0)
    _, curves = train_classifier(train, 3, config, cv=train)
    lines = curves_csv(curves).strip().split("\n")
    assert lines[0] == "epoch,train_xent,cv_xent,train_acc,cv_acc"
    assert len(lines) == 4
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert all(repr(float(f)) == f for f in fields[1:])  # each field a float's repr
