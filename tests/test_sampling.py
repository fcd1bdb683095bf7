import numpy as np
import pytest
from hypothesis import given

from astvec.ast_core import leaf_count, node, vocabulary
from astvec.sampling import (
    build_training_set,
    child_weight,
    corrupt,
    corrupt_packed,
    dump_samples,
    extract_samples,
    pack_samples,
)

from test_ast_core import trees


def _chain(*names):
    tree = node(names[-1])
    for name in reversed(names[:-1]):
        tree = node(name, tree)
    return tree


class TestExtract:
    def test_leaf_gives_nothing(self):
        assert extract_samples(node("ID")) == []

    def test_two_leaves_half_half(self):
        tree = node("BinaryOp", node("ID"), node("Constant"))
        (s,) = extract_samples(tree)
        assert s.parent.name == "BinaryOp"
        assert [c.name for c in s.children] == ["ID", "Constant"]
        assert s.coefficients == (0.5, 0.5)

    def test_unbalanced_leaves(self):
        # children carrying 2 and 3 leaves -> 0.4 / 0.6
        left = node("ExprList", node("ID"), node("ID"))
        right = node("ExprList", node("ID"), node("ID"), node("ID"))
        tree = node("FuncCall", left, right)
        s = extract_samples(tree)[0]
        assert s.coefficients == (0.4, 0.6)

    def test_preorder_one_per_nonleaf(self):
        tree = node(
            "Root",
            node("Decl", node("TypeDecl", node("IdentifierType"))),
            node("Constant"),
        )
        samples = extract_samples(tree)
        assert [s.parent.name for s in samples] == ["Root", "Decl", "TypeDecl"]

    @given(trees())
    def test_coefficient_invariants(self, tree):
        for s in extract_samples(tree):
            assert abs(sum(s.coefficients) - 1.0) < 1e-12
            assert all(l > 0 for l in s.coefficients)
        nonleaf = sum(1 for n in tree.walk() if n.children)
        assert len(extract_samples(tree)) == nonleaf

    def test_single_child_coefficient_exact(self):
        s = extract_samples(_chain("Return", "ID"))[0]
        assert s.coefficients == (1.0,)

    @given(trees())
    def test_min_coefficient_bound(self, tree):
        for n, s in zip((x for x in tree.walk() if x.children), extract_samples(tree)):
            assert min(s.coefficients) >= 1.0 / leaf_count(n) - 1e-12


class TestCorrupt:
    @pytest.fixture
    def sample(self):
        tree = node("BinaryOp", node("ID"), node("Constant"))
        return extract_samples(tree)[0]

    def test_differs_in_exactly_one_slot(self, sample):
        rng = np.random.default_rng(7)
        for _ in range(200):
            neg = corrupt(sample, rng)
            original = (
                sample.parent
                if neg.corrupted_position == 0
                else sample.children[neg.corrupted_position - 1]
            )
            assert neg.new_symbol != original
            assert neg.coefficients == sample.coefficients
            # untouched slots identical
            slots_base = [sample.parent, *sample.children]
            slots_neg = [neg.parent, *neg.children]
            diffs = [i for i, (a, b) in enumerate(zip(slots_base, slots_neg)) if a != b]
            assert diffs == [neg.corrupted_position]

    def test_position_uniform(self, sample):
        rng = np.random.default_rng(123)
        hits = np.zeros(3)
        n = 10_000
        for _ in range(n):
            hits[corrupt(sample, rng).corrupted_position] += 1
        assert np.all(np.abs(hits / n - 1 / 3) < 0.02)

    def test_replacement_uniform_over_others(self, sample):
        rng = np.random.default_rng(5)
        v = len(vocabulary())
        counts = np.zeros(v)
        n = 40_000
        for _ in range(n):
            neg = corrupt(sample, rng)
            counts[neg.new_symbol.id] += 1
        # each symbol is a valid replacement in some slot; none dominates
        assert counts.max() / n < 3.0 / (v - 1)

    def test_seed_reproducible(self, sample):
        a = [corrupt(sample, np.random.default_rng(9)) for _ in range(50)]
        b = [corrupt(sample, np.random.default_rng(9)) for _ in range(50)]
        assert a == b


class TestBuildTrainingSet:
    def test_empty(self):
        assert build_training_set([]) == []

    def test_single_program(self, corpus):
        assert build_training_set(corpus[:1]) == extract_samples(corpus[0].ast)

    def test_total_count_recount(self, corpus):
        # oracle: independent per-tree traversal counting non-leaf nodes
        expected = sum(
            sum(1 for n in p.ast.walk() if n.children) for p in corpus
        )
        assert len(build_training_set(corpus)) == expected


class TestPack:
    def test_expands_to_training_set(self, corpus):
        samples = build_training_set(corpus)
        packed = pack_samples(samples)
        assert [packed.distinct[r] for r in packed.rows] == samples
        assert len(set(packed.distinct)) == len(packed.distinct) < len(samples)
        width = packed.ids.shape[1] - 1
        assert width == max(len(s.children) for s in samples)
        for r, s in enumerate(packed.distinct):
            n = len(s.children)
            assert packed.n_children[r] == n
            assert packed.ids[r].tolist() == (
                [s.parent.id] + [c.id for c in s.children] + [0] * (width - n)
            )
            weights = [child_weight(n, i) for i in range(1, n + 1)]
            assert packed.coef[r, 0].tolist() == (
                [0.0] + [l * w[0] for l, w in zip(s.coefficients, weights)]
                + [0.0] * (width - n)
            )
            assert packed.coef[r, 1].tolist() == (
                [0.0] + [l * w[1] for l, w in zip(s.coefficients, weights)]
                + [0.0] * (width - n)
            )

    def test_corrupt_packed_matches_corrupt(self, corpus):
        samples = build_training_set(corpus[:10])
        packed = pack_samples(samples)
        order = np.random.default_rng(0).permutation(len(samples))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        rows, pairs = corrupt_packed(packed, order, a)
        assert rows.tolist() == packed.rows[order].tolist()
        for t, i in enumerate(order):
            neg = corrupt(samples[i], b)
            assert pairs[t, 0].tolist() == packed.ids[packed.rows[i]].tolist()
            assert pairs[t, 1].tolist() == pack_samples([neg]).ids[0].tolist() + [0] * (
                pairs.shape[2] - 1 - len(neg.children)
            )
        assert a.bit_generator.state == b.bit_generator.state

    def test_one_draw_matches_two_scalar_draws_per_sample(self, corpus):
        # the epoch's single draw reproduces two scalar draws per sample
        # (slot, then symbol), so negatives and resumed runs stay the same
        samples = build_training_set(corpus[:10])
        packed = pack_samples(samples)
        order = np.random.default_rng(1).permutation(len(samples))
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        _, pairs = corrupt_packed(packed, order, a)
        v = len(vocabulary())
        for t, i in enumerate(order):
            slots = [samples[i].parent.id] + [c.id for c in samples[i].children]
            position = int(b.integers(0, len(slots)))
            draw = int(b.integers(0, v - 1))
            slots[position] = draw + (draw >= slots[position])
            assert pairs[t, 1, : len(slots)].tolist() == slots
        assert a.bit_generator.state == b.bit_generator.state


def test_dump_samples_format():
    tree = node("BinaryOp", node("ID"), node("Constant"))
    text = dump_samples(extract_samples(tree))
    assert text == "BinaryOp\tID:0.500000,Constant:0.500000\n"
