import functools
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from astvec import kernel
from astvec.ast_core import KIND_NAMES, LabeledProgram, kind_by_name
from astvec.coder import Hyperparams, ModelParams, init_params, objective
from astvec.sampling import (
    TrainingSample,
    build_training_set,
    child_weight,
    corrupt,
    pack_samples,
)
from astvec.trainer import gradient_and_hinge

from conftest import (
    code_children,
    distance,
    extract_samples,
    node,
    pair_loss,
    reference_gradient_and_hinge,
    reference_hinge,
    reference_objective,
)
from test_ast_core import trees


def _sample(parent, children, coefficients=None):
    kids = tuple(kind_by_name(c) for c in children)
    if coefficients is None:
        coefficients = tuple(1.0 / len(kids) for _ in kids)
    return TrainingSample(kind_by_name(parent), kids, tuple(coefficients))


def _zero_params(n_f):
    v = len(KIND_NAMES)
    return ModelParams(
        embeddings=np.zeros((v, n_f)),
        w_l=np.zeros((n_f, n_f)),
        w_r=np.zeros((n_f, n_f)),
        b=np.zeros(n_f),
    )


def _random_params(n_f, seed=0):
    return init_params(Hyperparams(n_f=n_f), np.random.default_rng(seed))


class TestInit:
    def test_deterministic(self):
        h = Hyperparams(n_f=8, seed=3)
        a = init_params(h, np.random.default_rng(h.seed))
        b = init_params(h, np.random.default_rng(h.seed))
        assert np.array_equal(a.flat, b.flat)

    def test_range_for_default_dim(self):
        h = Hyperparams(n_f=30)
        p = init_params(h, np.random.default_rng(0))
        r = np.sqrt(6.0 / 60.0)
        assert abs(r - 0.31623) < 1e-4
        for arr in (p.embeddings, p.w_l, p.w_r, p.b):
            assert np.all(np.abs(arr) <= r)

    def test_mean_near_zero(self):
        h = Hyperparams(n_f=50)
        p = init_params(h, np.random.default_rng(11))
        draws = np.concatenate([p.embeddings.ravel(), p.w_l.ravel(), p.w_r.ravel()])
        r = np.sqrt(6.0 / 100.0)
        sigma = 2 * r / np.sqrt(12.0)
        assert abs(draws.mean()) < 3 * sigma / np.sqrt(draws.size)


class TestChildWeight:
    def test_three_children(self):
        assert child_weight(3, 1) == (1.0, 0.0)
        assert child_weight(3, 2) == (0.5, 0.5)
        assert child_weight(3, 3) == (0.0, 1.0)

    def test_single_child(self):
        assert child_weight(1, 1) == (0.5, 0.5)

    def test_two_children_endpoints(self):
        assert child_weight(2, 1) == (1.0, 0.0)
        assert child_weight(2, 2) == (0.0, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_sum_to_one_nonnegative(self, n):
        for i in range(1, n + 1):
            left, right = child_weight(n, i)
            assert left >= 0 and right >= 0
            assert left + right == pytest.approx(1.0, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            child_weight(2, 0)
        with pytest.raises(ValueError):
            child_weight(2, 3)

    def test_arrays_match_scalars(self):
        n = np.array([1, 2, 2, 3, 3, 3, 7])
        i = np.array([1, 1, 2, 1, 2, 3, 5])
        left, right = child_weight(n, i)
        for k in range(len(n)):
            assert (left[k], right[k]) == child_weight(int(n[k]), int(i[k]))
        with pytest.raises(ValueError):
            child_weight(n, i + 1)


class TestCodeChildren:
    def test_zero_params(self):
        s = _sample("BinaryOp", ["ID", "Constant"])
        out = code_children(s, _zero_params(4))
        assert np.all(out == 0.0)

    def test_hand_case_dim_one(self):
        # one child, l=1: tanh(0.5*(W_l+W_r) @ vec + b) = tanh(2*0.25 + 0.5)
        p = _zero_params(1)
        p.w_l[:] = 2.0
        p.w_r[:] = 2.0
        p.b[:] = 0.5
        s = _sample("Return", ["ID"], [1.0])
        p.embeddings[kind_by_name("ID")] = 0.25
        assert code_children(s, p)[0] == pytest.approx(np.tanh(1.0), abs=1e-12)
        assert np.tanh(1.0) == pytest.approx(0.76159, abs=1e-5)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n_f = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            p = _random_params(n_f, seed=int(rng.integers(1 << 30)))
            kids = [int(rng.integers(44)) for _ in range(n)]
            raw = rng.random(n) + 0.1
            coeffs = tuple(raw / raw.sum())
            s = TrainingSample(0, tuple(kids), coeffs)
            # oracle: literal elementwise recomputation
            z = p.b.copy()
            for i in range(1, n + 1):
                if n == 1:
                    left, right = 0.5, 0.5
                else:
                    left, right = (n - i) / (n - 1), (i - 1) / (n - 1)
                w_i = left * p.w_l + right * p.w_r
                z += coeffs[i - 1] * (w_i @ p.embeddings[kids[i - 1]])
            assert np.allclose(code_children(s, p), np.tanh(z), atol=1e-12)

    def test_output_strictly_inside_unit_box(self):
        p = _random_params(3, seed=1)
        p.embeddings *= 50  # force near-saturation
        s = _sample("BinaryOp", ["ID", "Constant"])
        out = code_children(s, p)
        assert np.all(np.abs(out) <= 1.0)


class TestDistance:
    def test_zero_params_is_trivial_zero(self):
        s = _sample("BinaryOp", ["ID", "Constant"])
        assert distance(s, _zero_params(5)) == 0.0

    def test_exact_match_zero(self):
        p = _random_params(3, seed=2)
        s = _sample("BinaryOp", ["ID", "Constant"])
        p.embeddings[s.parent] = code_children(s, p)
        assert distance(s, p) == pytest.approx(0.0, abs=1e-15)

    def test_squared_norm(self):
        p = _zero_params(2)
        s = _sample("BinaryOp", ["ID", "Constant"])
        p.embeddings[s.parent] = [1.0, 0.0]
        assert distance(s, p) == pytest.approx(1.0, abs=1e-15)


def _pair(seed=0, n_f=2):
    rng = np.random.default_rng(seed)
    tree = node("BinaryOp", node("ID"), node("Constant"))
    s = extract_samples(tree)[0]
    return s, corrupt(s, rng)


def pair_step(s, neg, params, hyper, gradient=gradient_and_hinge):
    """A pair step, by default the kernel's, on the packed rows of one
    (sample, negative) pair; the gradient comes back as parameters viewing
    the flat gradient."""
    packed = pack_samples([s, neg])
    grad, hinge = gradient(
        packed.ids[packed.rows], packed.coef[packed.rows[0]], params, hyper
    )
    return ModelParams.of_flat(grad, params.n_f), hinge


# the public callers of the kernel's two entries, each on one pair
KERNEL_CALLERS = [
    pytest.param(pair_step, id="gradient_and_hinge"),
    pytest.param(lambda s, neg, p, hyper: objective([(s, neg)], p, hyper), id="objective"),
]


def kernel_step_hinge(real_row, corrupted_row):
    """The kernel step's hinge at delta 1 on a pair whose corrupted copy
    replaces the parent, with zero weights and bias: h = 0, so each d is its
    parent row's squared norm."""
    s, _ = _pair()
    neg = s._replace(parent=kind_by_name("Goto"))
    p = _zero_params(2)
    p.embeddings[s.parent] = real_row
    p.embeddings[neg.parent] = corrupted_row
    return pair_step(s, neg, p, Hyperparams(n_f=2, delta=1.0))[1]


# (real parent row, corrupted parent row, hinge) at delta 1: d = 0 vs d_c = 2,
# 0.5 vs 1, and equal distances
KERNEL_HINGE_CASES = [
    ((0.0, 0.0), (1.0, 1.0), 0.0),
    ((0.5, 0.5), (1.0, 0.0), 0.5),
    ((0.5, 0.5), (0.5, 0.5), 1.0),
]


class TestHinge:
    def test_margin_satisfied(self):
        assert reference_hinge(0.0, 2.0, 1.0) == 0.0

    def test_partial(self):
        assert reference_hinge(0.5, 1.0, 1.0) == 0.5

    def test_tie(self):
        assert reference_hinge(0.7, 0.7, 1.0) == 1.0

    def test_monotonicity(self):
        assert reference_hinge(0.5, 1.0, 1.0) <= reference_hinge(0.6, 1.0, 1.0)
        assert reference_hinge(0.5, 1.2, 1.0) <= reference_hinge(0.5, 1.0, 1.0)

    def test_zero_iff_margin_met(self):
        assert reference_hinge(0.3, 1.3, 1.0) == 0.0
        assert reference_hinge(0.3, 1.2999, 1.0) > 0.0

    @pytest.mark.parametrize("real,corrupted,want", KERNEL_HINGE_CASES)
    def test_kernel_step_hand_cases(self, real, corrupted, want):
        assert kernel_step_hinge(real, corrupted) == want


class TestObjective:
    def test_zero_when_satisfied_and_unregularized(self):
        s, _ = _pair()
        neg = s._replace(parent=kind_by_name("Goto"))
        p = _random_params(2)
        # inflate the corrupted distance by moving its parent far away
        hyper = Hyperparams(n_f=2, lam=0.0, delta=0.0)
        p.embeddings[neg.parent] += 100.0
        assert objective([(s, neg)], p, hyper) == 0.0

    def test_penalty_only_hand_case(self):
        s, neg = _pair()
        p = _zero_params(1)
        p.w_l[:] = 3.0
        p.w_r[:] = 1.0
        hyper = Hyperparams(n_f=1, lam=0.4, delta=0.0)
        # M = 2, hinge terms are 0 (d = d_c = 0, delta 0)
        expected = (0.4 / 4.0) * (9.0 + 1.0)
        assert objective([(s, neg)], p, hyper) == pytest.approx(expected, abs=1e-15)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(3)
        hyper = Hyperparams(n_f=3, lam=0.01)
        p = _random_params(3, seed=4)
        pairs = []
        for i in range(10):
            s, neg = _pair(seed=i, n_f=3)
            pairs.append((s, neg))
        total = 0.0
        for s, neg in pairs:
            total += max(0.0, hyper.delta + distance(s, p) - distance(neg, p))
        m = 2 * 9
        expected = total / (2 * len(pairs)) + hyper.lam / (2 * m) * (
            np.sum(p.w_l**2) + np.sum(p.w_r**2)
        )
        assert objective(pairs, p, hyper) == pytest.approx(expected, rel=1e-12)

    def test_requires_samples(self):
        with pytest.raises(ValueError):
            objective([], _zero_params(2), Hyperparams(n_f=2))

    def test_batched_matches_per_pair_loop(self, corpus):
        def oracle_distance(sample, p):
            # literal recomputation, one child at a time
            n = len(sample.children)
            z = p.b.copy()
            for i, (child, share) in enumerate(
                zip(sample.children, sample.coefficients), start=1
            ):
                left, right = child_weight(n, i)
                z += share * ((left * p.w_l + right * p.w_r) @ p.embeddings[child])
            e = p.embeddings[sample.parent] - np.tanh(z)
            return float(e @ e)

        rng = np.random.default_rng(8)
        pairs = [(s, corrupt(s, rng)) for s in build_training_set(corpus)]
        hyper = Hyperparams(lam=0.01)
        p = _random_params(hyper.n_f, seed=5)
        total = 0.0
        for s, neg in pairs:
            total += reference_hinge(oracle_distance(s, p), oracle_distance(neg, p),
                                     hyper.delta)
        m = 2 * hyper.n_f**2
        expected = total / (2 * len(pairs)) + hyper.lam / (2 * m) * (
            np.sum(p.w_l**2) + np.sum(p.w_r**2)
        )
        assert total > 0.0
        assert objective(pairs, p, hyper) == pytest.approx(expected, rel=0, abs=1e-12)

    @pytest.mark.parametrize("seed,lam,delta", [(0, 1e-4, 1.0), (5, 0.01, 0.3)])
    def test_matches_numpy_oracle_on_bundled_corpus(self, corpus, seed, lam, delta):
        # the kernel's forward and an exactly rounded sum, against numpy's
        # forward and sums, chunk by chunk
        rng = np.random.default_rng(seed)
        pairs = [(s, corrupt(s, rng)) for s in build_training_set(corpus)]
        hyper = Hyperparams(lam=lam, delta=delta)
        p = _random_params(hyper.n_f, seed=seed)
        want = reference_objective(pairs, p, hyper)
        assert objective(pairs, p, hyper) == pytest.approx(want, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(trees(), min_size=1, max_size=6), st.integers(1, 12),
           st.integers(0, 2**32 - 1), st.floats(1e-4, 1.0), st.floats(0.0, 2.0))
    def test_matches_numpy_oracle(self, roots, n_f, seed, lam, delta):
        samples = build_training_set([LabeledProgram(r, "", "") for r in roots])
        rng = np.random.default_rng(seed)
        pairs = [(s, corrupt(s, rng)) for s in samples]
        assume(pairs)
        hyper = Hyperparams(n_f=n_f, lam=lam, delta=delta)
        p = _random_params(n_f, seed=seed)
        want = reference_objective(pairs, p, hyper)
        assert objective(pairs, p, hyper) == pytest.approx(want, rel=1e-12)


def finite_difference_check(s, neg, params, hyper, step=1e-5, gradient=gradient_and_hinge):
    """Max relative error of a pair step's gradient, by default the kernel's,
    vs central differences of the oracle's loss, over every weight and bias
    and the embedding rows the pair touches."""
    grad, _ = pair_step(s, neg, params, hyper, gradient)
    touched = sorted({s.parent, neg.parent, *s.children, *neg.children})
    n_f = params.n_f
    coords = [i * n_f + j for i in touched for j in range(n_f)]
    coords += range(params.embeddings.size, params.flat.size)
    analytic = grad.flat[coords]
    numeric = np.empty_like(analytic)
    for k, j in enumerate(coords):
        orig = params.flat[j]
        params.flat[j] = orig + step
        up = pair_loss(s, neg, params, hyper)
        params.flat[j] = orig - step
        down = pair_loss(s, neg, params, hyper)
        params.flat[j] = orig
        numeric[k] = (up - down) / (2 * step)
    scale = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / scale))


def _worst_finite_difference_error(n_f, gradient):
    """finite_difference_check's worst error over 20 random pairs."""
    rng = np.random.default_rng(100 + n_f)
    worst = 0.0
    for trial in range(20):
        p = _random_params(n_f, seed=int(rng.integers(1 << 30)))
        s, neg = _pair(seed=trial, n_f=n_f)
        hyper = Hyperparams(n_f=n_f, lam=1e-3)
        worst = max(worst, finite_difference_check(s, neg, p, hyper, gradient=gradient))
    return worst


class TestGradient:
    def test_inactive_hinge_zero_grad(self):
        s, _ = _pair()
        neg = s._replace(parent=kind_by_name("Goto"))
        p = _random_params(2)
        p.embeddings[neg.parent] += 100.0  # d_c huge, margin satisfied
        hyper = Hyperparams(n_f=2, lam=0.0)
        g, hinge = pair_step(s, neg, p, hyper)
        assert hinge == 0.0
        assert np.all(g.flat == 0)

    @pytest.mark.parametrize("n_f", [2, 4])
    def test_finite_differences(self, n_f):
        assert _worst_finite_difference_error(n_f, gradient_and_hinge) < 1e-4

    @pytest.mark.parametrize("n_f", [2, 4])
    def test_oracle_finite_differences(self, n_f):
        assert _worst_finite_difference_error(n_f, reference_gradient_and_hinge) < 1e-4

    def test_shared_symbol_accumulates(self):
        # parent also appears as a child: its row gradient is the sum of
        # the per-role gradients computed with artificially split roles
        parent = kind_by_name("Compound")
        s = TrainingSample(parent, (parent, kind_by_name("ID")), (0.5, 0.5))
        neg = s._replace(children=(parent, kind_by_name("For")))
        p = _random_params(3, seed=9)
        hyper = Hyperparams(n_f=3, lam=0.0)
        g, _ = pair_step(s, neg, p, hyper)

        # split roles: give the child occurrence a scratch symbol with an
        # identical embedding row
        scratch = kind_by_name("Goto")
        p2 = p.copy()
        p2.embeddings[scratch] = p.embeddings[parent]
        s2 = TrainingSample(parent, (scratch, kind_by_name("ID")), (0.5, 0.5))
        neg2 = s2._replace(children=(scratch, kind_by_name("For")))
        g2, _ = pair_step(s2, neg2, p2, hyper)
        combined = g2.embeddings[parent] + g2.embeddings[scratch]
        assert np.allclose(g.embeddings[parent], combined, atol=1e-12)

    def test_hinge_value_returned(self):
        # the kernel's forward on the same two rows, as `objective` runs it
        s, neg = _pair()
        p = _random_params(2)
        hyper = Hyperparams(n_f=2)
        _, hinge = pair_step(s, neg, p, hyper)
        packed = pack_samples([s, neg])
        d, d_c = kernel.code_rows(p, packed.ids, packed.coef, packed.n_children)
        assert hinge > 0.0
        assert hinge == max(0.0, hyper.delta + d - d_c)

    @settings(max_examples=300, deadline=None)
    @given(trees(), st.integers(1, 7), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 1e-3, 0.1]), st.sampled_from([0.0, 1.0, 3.0]))
    def test_matches_oracle(self, root, n_f, seed, lam, delta):
        samples = build_training_set([LabeledProgram(root, "", "")])
        assume(samples)
        rng = np.random.default_rng(seed)
        s = samples[rng.integers(len(samples))]
        neg = corrupt(s, rng)
        hyper = Hyperparams(n_f=n_f, lam=lam, delta=delta)
        p = init_params(hyper, rng)
        before = p.flat.copy()
        g, hinge = pair_step(s, neg, p, hyper)
        want, want_hinge = pair_step(s, neg, p, hyper, reference_gradient_and_hinge)
        assert p.flat.tobytes() == before.tobytes()
        assert np.max(np.abs(g.flat - want.flat)) <= 1e-12 * np.max(np.abs(want.flat))
        assert hinge == pytest.approx(want_hinge, rel=0, abs=1e-12)

    @pytest.mark.parametrize("corrupted", ["parent", "child"])
    def test_pair_reading_every_symbol(self, corrupted):
        # 43 children that, with the parent, are all 44 kinds: the pair has as
        # many distinct symbols as the vocabulary, the kernel's slot bound
        v = len(KIND_NAMES)
        rng = np.random.default_rng(11)
        s = TrainingSample(0, tuple(range(1, v)), tuple(rng.uniform(0.1, 1.0, v - 1)))
        neg = (s._replace(parent=v - 1) if corrupted == "parent"
               else s._replace(children=(0, *s.children[1:])))
        assert pack_samples([s, neg]).ids.shape == (2, v)
        hyper = Hyperparams(n_f=5, lam=1e-3, delta=3.0)
        p = init_params(hyper, rng)
        g, hinge = pair_step(s, neg, p, hyper)
        want, want_hinge = pair_step(s, neg, p, hyper, reference_gradient_and_hinge)
        assert hinge > 0.0
        assert np.max(np.abs(g.flat - want.flat)) <= 1e-12 * np.max(np.abs(want.flat))
        assert hinge == pytest.approx(want_hinge, rel=0, abs=1e-12)

    @pytest.mark.parametrize("run", KERNEL_CALLERS)
    def test_out_of_memory(self, monkeypatch, run):
        # both entries fail to allocate; each caller reports it with one text
        no_scratch = types.SimpleNamespace(train_epoch=lambda *args: -2,
                                           code_rows=lambda *args: -2)
        monkeypatch.setattr(kernel, "load", lambda: no_scratch)
        s, neg = _pair()
        with pytest.raises(MemoryError) as info:
            run(s, neg, _random_params(2), Hyperparams(n_f=2))
        assert str(info.value) == "no memory for the epoch kernel's scratch arrays"

    @pytest.mark.parametrize("run", KERNEL_CALLERS)
    def test_without_a_compiler(self, monkeypatch, run):
        monkeypatch.setattr(kernel, "load", functools.cache(kernel.load.__wrapped__))
        monkeypatch.setattr(kernel, "COMPILE", ("astvec-no-such-cc",) + kernel.COMPILE[1:])
        s, neg = _pair()
        with pytest.raises(kernel.KernelBuildError):
            run(s, neg, _random_params(2), Hyperparams(n_f=2))

    def test_leaves_params_bit_unchanged(self):
        # a step with alpha = 0 maps a -0.0 entry whose gradient is negative to
        # +0.0, so the kernel must step a copy
        s, neg = _pair()
        p = _random_params(3, seed=6)
        p.w[:, ::2] = -0.0
        before = p.flat.copy()
        g, hinge = pair_step(s, neg, p, Hyperparams(n_f=3))
        assert hinge > 0.0 and (g.w[:, ::2] < 0).any()
        assert p.flat.tobytes() == before.tobytes()


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(n_f=0).validate()
        with pytest.raises(ValueError):
            Hyperparams(delta=-1).validate()
        with pytest.raises(ValueError):
            Hyperparams(epsilon=1.0).validate()
        with pytest.raises(ValueError):
            Hyperparams(alpha=-0.1).validate()
        with pytest.raises(ValueError, match="lam"):
            Hyperparams(lam=-1e-4).validate()
        with pytest.raises(ValueError, match="epochs"):
            Hyperparams(epochs=-1).validate()
        Hyperparams().validate()

    @pytest.mark.parametrize("name", ["delta", "lam", "alpha", "epsilon"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            Hyperparams(**{name: value}).validate()
