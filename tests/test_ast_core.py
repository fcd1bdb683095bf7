import json

import pytest
from hypothesis import given, strategies as st

from astvec.ast_core import (
    AstFormatError,
    AstNode,
    KIND_NAMES,
    LabeledProgram,
    NodeTable,
    UnknownKindError,
    dump_ast,
    dump_corpus,
    kind_by_name,
    load_ast,
    load_corpus,
    node,
    vocabulary,
)
from astvec.corpusgen import generate_corpus

from conftest import (
    CORPUS_PATH,
    SNIPPET_SRC,
    count_leaves_obj,
    leaf_count,
    load_golden_obj,
)


def trees(max_depth=4):
    kinds = st.sampled_from(KIND_NAMES)
    return st.deferred(
        lambda: st.builds(
            lambda k, cs: AstNode(kind_by_name(k), tuple(cs)),
            kinds,
            st.lists(trees(max_depth - 1), max_size=3) if max_depth > 0 else st.just([]),
        )
    )


class TestVocabulary:
    def test_size(self):
        assert len(vocabulary()) == 44

    def test_ids_contiguous(self):
        ids = [k.id for k in vocabulary()]
        assert ids == list(range(44))

    def test_lookup_by_name(self):
        kind = kind_by_name("ID")
        assert vocabulary()[kind.id].name == "ID"

    def test_names_unique(self):
        assert len({k.name for k in vocabulary()}) == 44

    def test_unknown_name(self):
        with pytest.raises(UnknownKindError):
            kind_by_name("NotAKind")


class TestLeafCount:
    def test_single_leaf(self):
        assert leaf_count(node("ID")) == 1

    def test_two_leaf_children(self):
        assert leaf_count(node("BinaryOp", node("ID"), node("Constant"))) == 2

    def test_snippet_golden_tree(self):
        # oracle: independent recursion over the raw fixture JSON
        obj = load_golden_obj(SNIPPET_SRC.with_suffix(".ast.json"))
        expected = count_leaves_obj(obj)
        tree = load_ast(json.dumps(obj))
        assert leaf_count(tree) == expected

    @given(trees())
    def test_sum_over_children(self, tree):
        if tree.children:
            assert leaf_count(tree) == sum(leaf_count(c) for c in tree.children)


def hash_consed(tree, table):
    """`tree` rebuilt bottom-up through `table`."""
    return table.node(tree.kind, [hash_consed(c, table) for c in tree.children])


def assert_one_object_per_distinct_subtree(programs):
    nodes = {id(n): n for p in programs for n in p.ast.walk()}
    assert len({dump_ast(n) for n in nodes.values()}) == len(nodes)
    assert len(nodes) < sum(1 for p in programs for _ in p.ast.walk())


class TestNodeTable:
    @given(trees())
    def test_equals_plain_tree(self, tree):
        shared = hash_consed(tree, NodeTable())
        assert shared == tree
        assert dump_ast(shared) == dump_ast(tree)

    @given(trees(), trees())
    def test_equal_subtrees_are_one_object(self, a, b):
        table = NodeTable()
        root = table.node(kind_by_name("Root"), [hash_consed(a, table), hash_consed(b, table)])
        nodes = {id(n): n for n in root.walk()}
        assert len({dump_ast(n) for n in nodes.values()}) == len(nodes)
        left, right = root.children
        assert (left is right) == (a == b)

    def test_load_corpus_one_object_per_distinct_subtree(self):
        text = CORPUS_PATH.read_text(encoding="utf-8")
        programs = load_corpus(text)
        assert dump_corpus(programs) == text
        assert_one_object_per_distinct_subtree(programs)

    def test_generate_corpus_one_object_per_distinct_subtree(self):
        assert_one_object_per_distinct_subtree(generate_corpus(seed=3, per_class=10))


class TestInterchange:
    def test_root_leaf(self):
        tree = load_ast('{"kind": "Root", "children": []}')
        assert tree.kind.name == "Root" and tree.is_leaf()

    def test_root_dump(self):
        assert dump_ast(node("Root")) == '{"kind":"Root","children":[]}'

    def test_unknown_kind_reports_position(self):
        doc = '{"kind": "Root", "children": [{"kind": "Bogus", "children": []}]}'
        with pytest.raises(UnknownKindError) as exc:
            load_ast(doc)
        assert "Bogus" in str(exc.value)
        assert exc.value.path == "0"

    def test_malformed(self):
        with pytest.raises(AstFormatError):
            load_ast("not json")
        with pytest.raises(AstFormatError):
            load_ast('{"children": []}')
        with pytest.raises(AstFormatError):
            load_ast('{"kind": "Root", "children": 3}')

    @given(trees())
    def test_round_trip(self, tree):
        assert load_ast(dump_ast(tree)) == tree

    @given(trees())
    def test_canonical(self, tree):
        # structurally equal trees serialize to identical bytes
        clone = load_ast(dump_ast(tree))
        assert dump_ast(clone) == dump_ast(tree)

    def test_golden_files_round_trip(self, golden_pairs):
        for _, golden in golden_pairs:
            text = golden.read_text(encoding="utf-8").strip()
            assert dump_ast(load_ast(text)) == text


    def test_deep_tree_dumps(self):
        depth = 5000
        tree = node("ID")
        for _ in range(depth):
            tree = node("UnaryOp", tree)
        leaf = '{"kind":"ID","children":[]}'
        expected = '{"kind":"UnaryOp","children":[' * depth + leaf + "]}" * depth
        assert dump_ast(tree) == expected
        line = dump_corpus([LabeledProgram(tree, "a", "s")])
        assert line == '{"label":"a","source_id":"s","ast":' + expected + "}\n"

    def test_too_deep_to_load(self):
        doc = '{"kind":"UnaryOp","children":[' * 900 + '{"kind":"ID"}' + "]}" * 900
        with pytest.raises(AstFormatError, match="^nesting too deep$"):
            load_ast(doc)
        with pytest.raises(AstFormatError, match="^corpus line 2: nesting too deep$"):
            load_corpus('\n{"label":"a","source_id":"s","ast":' + doc + "}")


class TestCorpusFormat:
    def test_round_trip(self, corpus):
        text = dump_corpus(corpus)
        again = load_corpus(text)
        assert again == corpus

    def test_empty(self):
        assert load_corpus("") == []
        assert dump_corpus([]) == ""

    def test_missing_field(self):
        with pytest.raises(AstFormatError):
            load_corpus('{"label": "a", "ast": {"kind": "Root", "children": []}}')

    @pytest.mark.parametrize("line,message", [
        ("[1, 2]", "corpus line 1: expected an object"),
        ("7", "corpus line 1: expected an object"),
        ('{"label": 1, "source_id": "s", "ast": {"kind": "ID"}}',
         "corpus line 1: 'label' must be a string"),
        ('{"label": "a", "source_id": null, "ast": {"kind": "ID"}}',
         "corpus line 1: 'source_id' must be a string"),
        ("9" * 5000, "corpus line 1: invalid JSON: "),
    ], ids=["list", "number", "int-label", "null-source-id", "long-integer"])
    def test_malformed_record(self, line, message):
        with pytest.raises(AstFormatError) as exc:
            load_corpus(line)
        assert str(exc.value).startswith(message)

    def test_all_fixture_kinds_resolve(self, corpus):
        for program in corpus:
            for n in program.ast.walk():
                assert n.kind.name in KIND_NAMES
