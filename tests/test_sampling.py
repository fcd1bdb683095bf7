import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st

from astvec.ast_core import (
    KIND_NAMES,
    VOCAB_SIZE,
    LabeledProgram,
    NodeTable,
    dump_ast,
    dump_corpus,
    kind_by_name,
    load_corpus,
)
from astvec.classify import node_histogram
from astvec.coder import Hyperparams, init_params, objective
from astvec.sampling import (
    ID_DTYPE,
    TrainingSample,
    build_training_set,
    child_weight,
    corrupt,
    corrupt_packed,
    pack_samples,
)

from conftest import (
    extract_samples,
    leaf_count,
    node,
    per_node_samples,
    reference_build_training_set,
    reference_dump,
    reference_histogram,
    reference_objective,
    reference_walk,
    shared_ladder,
    unshared,
)
from test_ast_core import hash_consed, trees


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
        assert KIND_NAMES[s.parent] == "BinaryOp"
        assert [KIND_NAMES[c] for c in s.children] == ["ID", "Constant"]
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
        assert [KIND_NAMES[s.parent] for s in samples] == ["Root", "Decl", "TypeDecl"]

    @given(trees())
    def test_coefficient_invariants(self, tree):
        for s in extract_samples(tree):
            assert abs(sum(s.coefficients) - 1.0) < 1e-12
            assert all(l > 0 for l in s.coefficients)
        nonleaf = sum(1 for n in reference_walk(tree) if n.children)
        assert len(extract_samples(tree)) == nonleaf

    def test_single_child_coefficient_exact(self):
        s = extract_samples(_chain("Return", "ID"))[0]
        assert s.coefficients == (1.0,)

    @given(trees())
    def test_min_coefficient_bound(self, tree):
        for n, s in zip((x for x in reference_walk(tree) if x.children), extract_samples(tree)):
            assert min(s.coefficients) >= 1.0 / leaf_count(n) - 1e-12


def _corrupted_slot(sample, neg):
    """(position, new symbol) of the one slot where `neg` differs from
    `sample`; position 0 is the parent, i the i-th child."""
    base, swapped = [sample.parent, *sample.children], [neg.parent, *neg.children]
    assert len(swapped) == len(base)
    (position,) = [i for i, (a, b) in enumerate(zip(base, swapped)) if a != b]
    return position, swapped[position]


class TestCorrupt:
    @pytest.fixture
    def sample(self):
        tree = node("BinaryOp", node("ID"), node("Constant"))
        return extract_samples(tree)[0]

    def test_differs_in_exactly_one_slot(self, sample):
        rng = np.random.default_rng(7)
        for _ in range(200):
            neg = corrupt(sample, rng)
            assert isinstance(neg, TrainingSample)
            # exactly one slot differs, so its new symbol is not the old one
            _corrupted_slot(sample, neg)
            assert neg.coefficients == sample.coefficients

    def test_position_uniform(self, sample):
        rng = np.random.default_rng(123)
        hits = np.zeros(3)
        n = 10_000
        for _ in range(n):
            hits[_corrupted_slot(sample, corrupt(sample, rng))[0]] += 1
        assert np.all(np.abs(hits / n - 1 / 3) < 0.02)

    def test_replacement_uniform_over_others(self, sample):
        rng = np.random.default_rng(5)
        v = len(KIND_NAMES)
        counts = np.zeros(v)
        n = 40_000
        for _ in range(n):
            _, symbol = _corrupted_slot(sample, corrupt(sample, rng))
            counts[symbol] += 1
        # each symbol is a valid replacement in some slot; none dominates
        assert counts.max() / n < 3.0 / (v - 1)

    def test_seed_reproducible(self, sample):
        a = [corrupt(sample, np.random.default_rng(9)) for _ in range(50)]
        b = [corrupt(sample, np.random.default_rng(9)) for _ in range(50)]
        assert a == b


def assert_same_samples(got, want):
    """Equal samples in the same order, where two positions hold one object
    exactly when they do in `want`."""
    assert got == want
    first_got, first_want = {}, {}
    assert ([first_got.setdefault(id(s), i) for i, s in enumerate(got)]
            == [first_want.setdefault(id(s), i) for i, s in enumerate(want)])


class TestBuildTrainingSet:
    def test_empty(self):
        assert build_training_set([]) == []

    def test_single_program(self, corpus):
        assert build_training_set(corpus[:1]) == per_node_samples(corpus[0].ast)

    def test_shared_equals_unshared(self, corpus):
        # the corpus fixture is hash-consed; the same trees, every node a new
        # object, give the same samples in the same order
        samples = build_training_set(corpus)
        assert samples == build_training_set(
            [dataclasses.replace(p, ast=unshared(p.ast)) for p in corpus])
        assert samples == [s for p in corpus for s in per_node_samples(p.ast)]
        assert len({id(s) for s in samples}) == len(set(samples))

    def test_deep_chain(self):
        # built bottom-up like test_ast_core's deep dump; far deeper than the
        # recursion limit, and each level's leaf share differs
        depth = 5000
        tree = node("ID")
        for level in range(depth):
            tree = node("UnaryOp", tree) if level % 2 else node("BinaryOp", tree, node("ID"))
        assert build_training_set([LabeledProgram(tree, "a", "s")]) == per_node_samples(tree)
        histogram = node_histogram(tree)
        assert histogram.dtype == np.int64
        assert histogram.tolist() == reference_histogram(tree).tolist()

    def test_deep_shared_chain(self):
        # one subtree repeated at each of 5000 levels: its sample is replayed
        shared, tree = shared_ladder(5000)
        programs = [LabeledProgram(shared, "a", "s"), LabeledProgram(tree, "b", "t")]
        samples = build_training_set(programs)
        assert len(samples) == 1 + 2 * 5000
        assert_same_samples(samples, reference_build_training_set(programs))

    def test_repeated_roots_equal_the_walk(self, corpus):
        # the bundled corpus holds 220 programs but 125 distinct trees
        assert len({id(p.ast) for p in corpus}) < len(corpus)
        assert_same_samples(build_training_set(corpus), reference_build_training_set(corpus))

    @given(st.lists(trees(), min_size=1, max_size=3),
           st.lists(st.integers(0, 2), min_size=1, max_size=8), st.booleans())
    def test_repeated_programs_equal_the_walk(self, pool, picks, hash_consed):
        programs = [LabeledProgram(pool[i % len(pool)], "a", "s") for i in picks]
        if hash_consed:
            programs = load_corpus(dump_corpus(programs))
        assert_same_samples(build_training_set(programs),
                            reference_build_training_set(programs))

    @given(st.lists(trees(), min_size=2, max_size=3))
    def test_passes_over_shared_subtrees_equal_the_oracles(self, pool):
        # the dump, the samples and the histograms of programs built through
        # one table: `a` listed twice, `b` a program and then a subtree of a
        # later one, and a copy of each with no node shared
        table = NodeTable()
        a, b, *rest = (hash_consed(tree, table) for tree in pool)
        roots = [a, b, table.node(kind_by_name("Root"), [b, a, *rest, b]), a]
        roots += map(unshared, list(roots))
        programs = [LabeledProgram(root, "a", f"s{i}") for i, root in enumerate(roots)]
        assert dump_corpus(programs) == "".join(
            f'{{"label":"a","source_id":"{p.source_id}","ast":{reference_dump(p.ast)}}}\n'
            for p in programs)
        for root in roots:
            assert dump_ast(root) == reference_dump(root)
            assert node_histogram(root).tolist() == reference_histogram(root).tolist()
        assert_same_samples(build_training_set(programs),
                            reference_build_training_set(programs))

    def test_total_count_recount(self, corpus):
        # oracle: independent per-tree traversal counting non-leaf nodes
        expected = sum(
            sum(1 for n in reference_walk(p.ast) if n.children) for p in corpus
        )
        assert len(build_training_set(corpus)) == expected


class TestPack:
    def test_id_dtype_holds_every_kind(self):
        assert VOCAB_SIZE <= np.iinfo(ID_DTYPE).max + 1

    def test_expands_to_training_set(self, corpus):
        samples = build_training_set(corpus)
        packed = pack_samples(samples)
        distinct = list(dict.fromkeys(samples))
        assert [distinct[r] for r in packed.rows] == samples
        assert len(packed.ids) == len(distinct) < len(samples)
        width = packed.ids.shape[1] - 1
        assert width == max(len(s.children) for s in samples)
        for r, s in enumerate(distinct):
            n = len(s.children)
            assert packed.n_children[r] == n
            assert packed.ids[r].tolist() == [s.parent, *s.children] + [0] * (width - n)
            weights = [child_weight(n, i) for i in range(1, n + 1)]
            assert packed.coef[r, 0].tolist() == (
                [0.0] + [l * w[0] for l, w in zip(s.coefficients, weights)]
                + [0.0] * (width - n)
            )
            assert packed.coef[r, 1].tolist() == (
                [0.0] + [l * w[1] for l, w in zip(s.coefficients, weights)]
                + [0.0] * (width - n)
            )

    # the first ten programs, then the whole bundled corpus, whose widest rows
    # give the slot draw its widest range
    @pytest.mark.parametrize("programs", [10, None])
    def test_corrupt_packed_matches_corrupt(self, corpus, programs):
        samples = build_training_set(corpus[:programs])
        packed = pack_samples(samples)
        order = np.random.default_rng(0).permutation(len(samples))
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        rows, pairs = corrupt_packed(packed, order, a)
        assert rows.tolist() == packed.rows[order].tolist()
        for t, i in enumerate(order):
            neg = corrupt(samples[i], b)
            assert pairs[t, 0].tolist() == packed.ids[packed.rows[i]].tolist()
            assert pairs[t, 1].tolist() == [neg.parent, *neg.children] + [0] * (
                pairs.shape[2] - 1 - len(neg.children)
            )
            assert neg.coefficients == samples[i].coefficients
        assert a.bit_generator.state == b.bit_generator.state

    def test_one_draw_matches_two_scalar_draws_per_sample(self, corpus):
        # the epoch's single draw reproduces two scalar draws per sample
        # (slot, then symbol), so negatives and resumed runs stay the same
        samples = build_training_set(corpus[:10])
        packed = pack_samples(samples)
        order = np.random.default_rng(1).permutation(len(samples))
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        _, pairs = corrupt_packed(packed, order, a)
        v = len(KIND_NAMES)
        for t, i in enumerate(order):
            slots = [samples[i].parent, *samples[i].children]
            position = int(b.integers(0, len(slots)))
            draw = int(b.integers(0, v - 1))
            slots[position] = draw + (draw >= slots[position])
            assert pairs[t, 1, : len(slots)].tolist() == slots
        assert a.bit_generator.state == b.bit_generator.state


def test_bundled_corpus_pin(corpus):
    # the sample counts and the objective of the bundled corpus, as the
    # benchmark reads them: a change to how samples are held must keep all three
    samples = build_training_set(corpus)
    assert (len(samples), len(set(samples))) == (12_159, 295)
    rng = np.random.default_rng(1)
    pairs = [(s, corrupt(s, rng)) for s in samples]
    params = init_params(Hyperparams(), np.random.default_rng(0))
    assert objective(pairs, params, Hyperparams()) == 0.501112683119344
    assert reference_objective(pairs, params, Hyperparams()) == 0.501112683119344
