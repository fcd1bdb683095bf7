import contextlib
import dataclasses
import json
import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from astvec import ast_core
from astvec.ast_core import (
    AstFormatError,
    AstNode,
    KIND_IDS,
    KIND_NAMES,
    MAX_JSON_NESTING,
    LabeledProgram,
    NodeTable,
    UnknownKindError,
    dump_ast,
    dump_corpus,
    kind_by_name,
    load_ast,
    load_corpus,
)
from astvec.corpusgen import generate_corpus
from astvec.cparse import parse_source

from conftest import (
    CORPUS_PATH,
    SNIPPET_SRC,
    ReferenceTooDeep,
    count_leaves_obj,
    leaf_count,
    load_golden_obj,
    node,
    reference_load_ast,
    reference_load_corpus,
    reference_walk,
    shared_ladder,
    unshared,
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
        assert len(KIND_NAMES) == 44

    def test_ids_contiguous(self):
        ids = [KIND_IDS[name] for name in KIND_NAMES]
        assert ids == list(range(44))

    def test_lookup_by_name(self):
        kind = kind_by_name("ID")
        assert KIND_NAMES[kind] == "ID"

    def test_names_unique(self):
        assert len(set(KIND_NAMES)) == len(KIND_IDS) == 44

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
    nodes = {id(n): n for p in programs for n in reference_walk(p.ast)}
    assert len({dump_ast(n) for n in nodes.values()}) == len(nodes)
    assert len(nodes) < sum(1 for p in programs for _ in reference_walk(p.ast))


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
        nodes = {id(n): n for n in reference_walk(root)}
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

    def test_one_leaf_object_per_kind(self):
        # the parser's own leaves, and leaves made through `node` (a Struct
        # with no body, an empty block), parsed through two tables and none,
        # then loaded on the canonical and the json path of either loader
        source = ("struct S { int x; };\n"
                  "int f(int a, struct S s) {\n"
                  "  while (a) { if (a) break; else continue; }\n"
                  "  ; {}\n"
                  "  goto out;\n"
                  "out:\n"
                  "  return s.x + 1;\n"
                  "}\n")
        tables = []

        class KeptTable(NodeTable):
            def __init__(self):
                super().__init__()
                tables.append(self)

        with mock.patch.object(ast_core, "NodeTable", KeptTable):
            trees = [parse_source(source, KeptTable()), parse_source(source, KeptTable()),
                     parse_source(source)]
            doc = dump_ast(trees[0])
            spaced = json.dumps(json.loads(doc))
            trees += [load_ast(doc), load_ast(spaced)]
            trees += [p.ast for p in load_corpus(f"{record(doc)}\n{record(spaced, 'b')}")]
            trees += [p.ast for p in load_corpus(
                json.dumps({"label": "a", "source_id": "s", "ast": json.loads(doc)}))]
        assert len(tables) == 6 and all(tree == trees[0] for tree in trees)
        leaves = {id(n): n for tree in trees for n in reference_walk(tree) if not n.children}
        assert {KIND_NAMES[n.kind] for n in leaves.values()} == {
            "ID", "Constant", "IdentifierType", "EmptyStatement", "Break", "Continue",
            "Goto", "Struct", "Compound"}
        assert all(n is ast_core.LEAVES[n.kind] for n in leaves.values())
        assert all(len(key) > 1 for table in tables for key in table._nodes)


class TestInterchange:
    def test_root_leaf(self):
        tree = load_ast('{"kind": "Root", "children": []}')
        assert KIND_NAMES[tree.kind] == "Root" and not tree.children

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

    def test_deep_shared_tree_dumps(self):
        # one subtree repeated at each of 5000 levels: replayed, not walked
        depth = 5000
        shared, tree = shared_ladder(depth)
        repeat = '{"kind":"Return","children":[{"kind":"ID","children":[]}]}'
        expected = ('{"kind":"BinaryOp","children":[' * depth + '{"kind":"ID","children":[]}'
                    + ("," + repeat + "]}") * depth)
        assert dump_ast(tree) == expected
        line = dump_corpus([LabeledProgram(shared, "a", "s"), LabeledProgram(tree, "b", "t")])
        assert line.split("\n")[1] == '{"label":"b","source_id":"t","ast":' + expected + "}"

    def test_too_deep_to_load(self):
        doc = '{"kind":"UnaryOp","children":[' * 900 + '{"kind":"ID"}' + "]}" * 900
        with pytest.raises(AstFormatError, match="^nesting too deep$"):
            load_ast(doc)
        with pytest.raises(AstFormatError, match="^corpus line 2: nesting too deep$"):
            load_corpus('\n{"label":"a","source_id":"s","ast":' + doc + "}")


def _leaves(tree: AstNode) -> int:
    """Oracle for `AstNode.leaves`: recursive, so for shallow trees only."""
    return sum(map(_leaves, tree.children)) if tree.children else 1


def _nested(frames: int, call):
    """`call()` with `frames` more frames on the stack."""
    return call() if frames == 0 else _nested(frames - 1, call)


class TestNodeFacts:
    def assert_facts(self, tree):
        for n in reference_walk(tree):
            assert n.leaves == _leaves(n)

    @given(trees())
    def test_match_recursive_oracles(self, tree):
        self.assert_facts(tree)
        self.assert_facts(hash_consed(tree, NodeTable()))

    def test_corpus_shared_and_unshared(self, corpus):
        for program in corpus:
            self.assert_facts(program.ast)
            self.assert_facts(unshared(program.ast))

    def test_deep_chain(self):
        tree = node("ID")
        for _ in range(4999):
            tree = node("UnaryOp", tree, node("Constant"))
        assert tree.leaves == 5000

    @given(trees())
    def test_equality_and_hash_ignore_the_facts(self, tree):
        shared = hash_consed(tree, NodeTable())
        assert shared == tree and hash(shared) == hash(tree)
        assert repr(shared) == repr(tree)

    def test_frozen(self):
        tree = node("ID")
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.leaves = 2

    def test_tall_chain_loads_from_a_deeper_stack(self):
        # a corpus line of a 5,000-tall tree loads back, also with 300 more
        # frames on the stack than here: canonical text is read without
        # recursion
        tree = node("ID")
        for _ in range(4999):
            tree = node("UnaryOp", tree)
        text = dump_corpus([LabeledProgram(tree, "a", "s")])
        [program] = _nested(300, lambda: load_corpus(text))
        assert dump_ast(program.ast) == dump_ast(tree)


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
            for n in reference_walk(program.ast):
                assert n.kind in range(len(KIND_NAMES))


class TestLineBreaks:
    @pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
    def test_unicode_line_break_in_a_string(self, brk):
        text = (f'{{"label":"a{brk}b","source_id":"s","ast":{{"kind":"ID","children":[]}}}}\n'
                '{"label":"c","source_id":"s","ast":{"kind":"Bogus"}}\n')
        with pytest.raises(UnknownKindError, match="^unknown node kind 'Bogus' at line 2$"):
            load_corpus(text)
        [program] = load_corpus(text.split("\n")[0])
        assert program.label == f"a{brk}b"

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_line_ends(self, corpus, end):
        text = dump_corpus(corpus).replace("\n", end)
        assert load_corpus(text) == corpus
        with pytest.raises(AstFormatError, match=f"^corpus line {len(corpus) + 2}: "):
            load_corpus(text + end + "[]")


# Differential test of the loaders against the reference loaders in conftest.

class Obj(list):
    """A JSON object as its (key, value) pairs, in order and possibly repeated."""


class Raw(str):
    """JSON text to emit as it is."""


def node_obj(tree):
    return Obj([("kind", KIND_NAMES[tree.kind]),
                ("children", [node_obj(c) for c in tree.children])])


def to_json(value, spaced=False, raw=False):
    if isinstance(value, Raw):
        return value
    colon, comma = (": ", ", ") if spaced else (":", ",")
    if isinstance(value, Obj):
        return "{" + comma.join(json.dumps(k, ensure_ascii=not raw) + colon
                                + to_json(v, spaced, raw) for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + comma.join(to_json(v, spaced, raw) for v in value) + "]"
    return json.dumps(value, ensure_ascii=not raw)


def deep_doc(depth, reordered=False):
    """A chain of `depth` nodes, built as text: too deep for to_json. With
    `reordered`, each object lists "children" before "kind"."""
    if reordered:
        return Raw('{"children":[' * (depth - 1) + '{"children":[],"kind":"ID"}'
                   + '],"kind":"UnaryOp"}' * (depth - 1))
    return Raw('{"kind":"UnaryOp","children":[' * (depth - 1) + '{"kind":"ID","children":[]}'
               + "]}" * (depth - 1))


def record(ast_text, label="a"):
    return f'{{"label":"{label}","source_id":"s","ast":{ast_text}}}'


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3))
KINDS = st.one_of(st.sampled_from(KIND_NAMES + ("Bogus",)), JSON_SCALARS,
                  st.lists(JSON_SCALARS, max_size=2))
CHILDREN = st.one_of(
    JSON_SCALARS,
    st.builds(Obj, st.just([])),
    st.lists(st.one_of(JSON_SCALARS, st.lists(JSON_SCALARS, max_size=1),
                       trees(2).map(node_obj)), max_size=3),
)


def edit_object(obj, draw, keys):
    """One edit of a node or record object's pairs."""
    how = draw(st.sampled_from(["reorder", "drop", "duplicate", "extra", "rename",
                                "replace"]))
    names = [k for k, _ in keys]
    if how == "reorder":
        obj.reverse()
    elif how == "drop" and obj:
        del obj[draw(st.integers(0, len(obj) - 1))]
    elif how == "duplicate" and obj:
        obj.insert(draw(st.integers(0, len(obj))), obj[draw(st.integers(0, len(obj) - 1))])
    elif how == "extra":
        key = draw(st.one_of(st.sampled_from(names), st.text(max_size=3)))
        obj.insert(draw(st.integers(0, len(obj))), (key, draw(KINDS)))
    elif how == "rename" and obj:
        at = draw(st.integers(0, len(obj) - 1))
        obj[at] = (draw(st.one_of(st.sampled_from(names), st.text(max_size=3))), obj[at][1])
    else:
        key, values = draw(st.sampled_from(keys))
        obj[:] = [(k, draw(values) if k == key else v) for k, v in obj]


NODE_KEYS = [("kind", KINDS), ("children", CHILDREN)]
RECORD_KEYS = [("label", KINDS), ("source_id", KINDS), ("ast", CHILDREN),
               ("kind", KINDS), ("children", CHILDREN)]


def edit_node(tree_obj, draw):
    """Edit one node of the tree, or put a deep chain in its place."""
    nodes = [tree_obj]
    for node_ in nodes:
        nodes.extend(c for _, v in node_ if isinstance(v, list) for c in v)
    target = nodes[draw(st.integers(0, len(nodes) - 1))]
    if draw(st.integers(0, 5)) == 0:
        # often a height that puts the document at the nesting limit or past it
        height = draw(st.one_of(st.integers(1, 1000), st.integers(MAX_JSON_NESTING // 2 - 15,
                                                                  MAX_JSON_NESTING // 2 + 1)))
        target[:] = [("kind", "Return"), ("children", [deep_doc(height)])]
    else:
        edit_object(target, draw, NODE_KEYS)


@st.composite
def corpus_texts(draw):
    """A generated corpus, one line of it edited, with blank lines, spaced
    separators and raw non-ASCII strings here and there."""
    records = []
    for tree, label in draw(st.lists(st.tuples(trees(), st.text(max_size=4)),
                                     min_size=1, max_size=4)):
        records.append(Obj([("label", label), ("source_id", "s"), ("ast", node_obj(tree))]))
    record = records[draw(st.integers(0, len(records) - 1))]
    where = draw(st.sampled_from(["node", "record", "none"]))
    if where == "node":
        edit_node(record[2][1], draw)
    elif where == "record":
        edit_object(record, draw, RECORD_KEYS)
    lines = [to_json(r, draw(st.booleans()), draw(st.booleans())) for r in records]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    cut = draw(st.one_of(st.none(), st.integers(0, len(lines[-1]))))
    if cut is not None:
        lines[-1] = lines[-1][:cut]
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def outcome(load, text):
    """What `load` returns for `text`, dumped (equality of deep trees would
    recurse too deep), or the class and message it raises."""
    try:
        result = load(text)
    except AstFormatError as exc:
        return type(exc), str(exc)
    return dump_ast(result) if isinstance(result, AstNode) else dump_corpus(result)


def assert_same_outcome(load, reference, text):
    """`load` and `reference` give the same outcome for `text`, "nesting too
    deep" included, unless the reference recurses too deep to read it."""
    try:
        want = outcome(reference, text)
    except ReferenceTooDeep:
        return
    assert outcome(load, text) == want


def assert_shared(trees_):
    nodes = {id(n): n for tree in trees_ for n in reference_walk(tree)}
    assert len({dump_ast(n) for n in nodes.values()}) == len(nodes)


MUTATED_CORPUS_LINES = [
    '{"source_id":"s","label":"a","ast":{"children":[],"kind":"ID"}}',
    '{ "label" : "a" , "source_id" : "s" , "ast" : { "kind" : "ID" , "children" : [ ] } }',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","children":[{"kind":"ID"}]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"If","kind":"ID","children":[]}}',
    '{"label":"a","source_id":"s","ast":{"children":"ID","kind":[]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":[],"children":[{"kind":"ID","children":[]}]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":[],"x":1}}',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","child":[{"kind":"ID","children":[]}]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":[]},"x":{"kind":"Bogus","children":[]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":[]},"kind":"ID","children":[]}',
    '{"kind":"ID","children":[]}',
    '{"label":"a","source_id":"s","ast":{"kind":"Bogus","children":[]}}',
    '{"label":"a","source_id":"s","ast":{"kind":3,"children":[]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":{}}}',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","children":[1]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"Return","children":[[]]}}',
    '{"label":["x"],"source_id":"s","ast":{"kind":"ID","children":[]}}',
    '{"label":"a","source_id":"s","ast":{"kind":"ID","children":[]}',
    '\ufeff{"label":"a","source_id":"s","ast":{"kind":"ID","children":[]}}',
    record(deep_doc(900)),
]


# A line of dump_corpus's shape: its label, its source_id and its ast text.
CANONICAL_LINE = re.compile(r'\{"label":("(?:[^"\\]|\\.)*"),"source_id":("(?:[^"\\]|\\.)*"),'
                            r'"ast":(.*)\}', re.DOTALL)

# Labels with escapes, a raw line separator, non-ASCII and the text that
# follows a source_id.
LABELS = st.lists(st.sampled_from(['"', "\\", "\n", "\u2028", "\u00e9", "\u5b57",
                                   ',"ast":', "a"]), max_size=4).map("".join)


# Small canonical documents for the one-character mutations: leaves, chains,
# siblings and repeated subtrees.
SMALL_TREES = [
    node("ID"),
    node("Root"),
    node("Return", node("ID")),
    node("UnaryOp", node("UnaryOp", node("UnaryOp", node("Constant")))),
    node("BinaryOp", node("ID"), node("Constant")),
    node("ExprList", node("ID"), node("ID"), node("ID")),
    node("FuncCall", node("ID"), node("ExprList", node("ID"), node("Constant"))),
    node("If", node("ID"), node("Break"), node("Continue")),
    node("Compound", node("Return", node("ID")), node("Return", node("ID"))),
    node("ArrayRef", node("ArrayRef", node("ID"), node("ID")), node("ID")),
    node("Assignment", node("ID"), node("BinaryOp", node("ID"), node("ID"))),
    node("Cast", node("Typename", node("TypeDecl", node("IdentifierType"))), node("ID")),
    node("Switch", node("ID"), node("Compound", node("Case", node("Constant")),
                                     node("Default", node("Break")))),
    node("Decl", node("PtrDecl", node("TypeDecl", node("IdentifierType")))),
    node("While", node("ID"), node("EmptyStatement")),
    node("TernaryOp", node("ID"), node("ID"), node("Constant")),
    node("StructRef", node("StructRef", node("ID"), node("ID")), node("ID")),
    node("Label", node("Goto")),
    node("InitList", node("Constant"), node("InitList", node("Constant"))),
    node("Root", node("FuncDef", node("Decl"), node("Compound"))),
]
INSERTED = [",", "]", "}", "[", '"', " ", "]}"]


def one_character_edits(doc):
    """Every deletion of one character of `doc`, and every insertion of one
    of INSERTED at every position."""
    yield from (doc[:i] + doc[i + 1:] for i in range(len(doc)))
    yield from (doc[:i] + piece + doc[i:] for i in range(len(doc) + 1) for piece in INSERTED)


class TestOnePassLoader:
    """`load_corpus` loads each distinct ast text of a canonical line once
    and decodes each other line once, `load_ast` its document once; the
    canonical reader takes what it can and `json` the rest: they must give
    what the reference loaders give."""

    @settings(max_examples=150, deadline=None)
    @given(corpus_texts())
    def test_load_corpus_equals_reference(self, text):
        assert_same_outcome(load_corpus, reference_load_corpus, text)
        with contextlib.suppress(AstFormatError):
            assert_shared(p.ast for p in load_corpus(text))

    @pytest.mark.parametrize("line", MUTATED_CORPUS_LINES)
    def test_mutated_line_equals_reference(self, corpus, line):
        text = dump_corpus(corpus[:3]) + line + "\n" + dump_corpus(corpus[:5])
        assert_same_outcome(load_corpus, reference_load_corpus, text)
        with contextlib.suppress(AstFormatError):
            assert_shared(p.ast for p in load_corpus(text))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_load_ast_equals_reference(self, data):
        tree = node_obj(data.draw(trees()))
        edit_node(tree, data.draw)
        text = to_json(tree, data.draw(st.booleans()))
        assert_same_outcome(load_ast, reference_load_ast, text)
        with contextlib.suppress(AstFormatError):
            assert_shared([load_ast(text)])

    @pytest.mark.parametrize("load,wrap", [(load_ast, str), (load_corpus, record)],
                             ids=["load_ast", "load_corpus"])
    def test_chains_up_to_the_depth_limit(self, load, wrap):
        # Canonical chains load at any height. A reordered chain goes to the
        # JSON decoder, which takes MAX_JSON_NESTING containers, two a node,
        # with the same verdicts from a stack 300 frames deeper.
        def chain(depth, reordered, frames=0):
            return _nested(frames, lambda: outcome(load, wrap(deep_doc(depth, reordered))))

        def loaded(depth):
            return deep_doc(depth) if load is load_ast else wrap(deep_doc(depth)) + "\n"

        limit = MAX_JSON_NESTING // 2
        for depth in [*range(1, limit + 20), 5000]:
            assert chain(depth, False) == loaded(depth), depth
            if depth <= limit:
                assert chain(depth, True) == loaded(depth), depth
        too_deep = "nesting too deep" if load is load_ast else "corpus line 1: nesting too deep"
        for depth in range(limit + 1, limit + 20):
            assert chain(depth, True) == (AstFormatError, too_deep), depth
        for frames in (0, 300):
            assert chain(limit, True, frames) == loaded(limit)
            assert chain(limit + 1, True, frames) == (AstFormatError, too_deep)

    def test_json_nesting_counts_containers_outside_strings(self):
        n = MAX_JSON_NESTING
        assert outcome(load_ast, "[" * n + "]" * n) == (
            AstFormatError, "expected object at root, got list")
        assert outcome(load_ast, "[" * (n + 1) + "]" * (n + 1)) == (
            AstFormatError, "nesting too deep")
        # more than n brackets, but never more than two containers open
        assert outcome(load_ast, "[" + ",".join(["[]"] * n) + "]") == (
            AstFormatError, "expected object at root, got list")
        # a spaced record, decoded whole, with a label of 2n brackets
        label = json.dumps("[{" * n + '"')
        line = f'{{"label": {label}, "source_id": "s", "ast": {{"kind": "ID", "children": []}}}}'
        [program] = load_corpus(line)
        assert program.label == "[{" * n + '"'

    @pytest.mark.parametrize("line", MUTATED_CORPUS_LINES)
    def test_each_ast_text_is_decoded_once(self, corpus, line):
        # a line of dump_corpus's shape has its ast text read alone by the
        # canonical reader, once per distinct text, and decoded alone only if
        # the reader declines it; any other line, and one whose ast text does
        # not load alone, is decoded whole, once
        lines = dump_corpus(corpus[:5] + corpus[:2]).splitlines()
        lines.insert(3, line)
        text = "\n".join(lines)
        failed = isinstance(outcome(load_corpus, text), tuple)

        def canonical(doc):
            return outcome(load_ast, doc) == doc

        read, expected, loaded = [], [], set()
        for each in lines:
            match = CANONICAL_LINE.fullmatch(each)
            if match and match[3] in loaded:
                continue
            if match:
                read.append(match[3])
                if canonical(match[3]):
                    loaded.add(match[3])
                    continue
                expected.append(match[3])
                if isinstance(outcome(load_ast, match[3]), str):
                    loaded.add(match[3])
                    continue
            expected.append(each)
            if failed and each == line:
                break
        with mock.patch.object(ast_core, "_read_canonical",
                               wraps=ast_core._read_canonical) as reader, \
                mock.patch.object(ast_core, "_decode", wraps=ast_core._decode) as spy:
            outcome(load_corpus, text)
            outcome(load_ast, line)
        assert [call.args[0] for call in reader.call_args_list] == read + [line]
        decoded = [call.args[0] for call in spy.call_args_list]
        assert decoded == expected + ([] if canonical(line) else [line])
        assert len(loaded) < len(lines) - 1  # the corpus repeats ast texts
        assert_same_outcome(load_corpus, reference_load_corpus, text)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(trees(), min_size=1, max_size=3),
           st.lists(st.tuples(st.integers(0, 2), LABELS, st.booleans()),
                    min_size=1, max_size=6))
    def test_repeated_ast_texts_under_other_labels(self, pool, rows):
        texts = [dump_ast(pool[pick % len(pool)]) for pick, _, _ in rows]
        text = "\n".join(
            to_json(Obj([("label", label), ("source_id", label[::-1]), ("ast", Raw(ast))]),
                    raw=raw)
            for ast, (_, label, raw) in zip(texts, rows))
        assert_same_outcome(load_corpus, reference_load_corpus, text)
        programs = load_corpus(text)
        assert [p.label for p in programs] == [label for _, label, _ in rows]
        for ast, program in zip(texts, programs):
            assert program.ast is programs[texts.index(ast)].ast

    # the messages the whole-line loader gives, so the column of invalid JSON
    # is the column in the line, not in its ast text
    @pytest.mark.parametrize("ast,error", [
        ('{"kind":"Return","children":[{"kind":"Bogus","children":[]}]}',
         (UnknownKindError, "unknown node kind 'Bogus' at line 3/0")),
        ('{"kind":"Return","children":[{"kind":"ID","children":[],}]}',
         (AstFormatError, "corpus line 3: invalid JSON: Expecting property name "
                          "enclosed in double quotes: line 1 column 92 (char 91)")),
    ], ids=["unknown-kind", "bad-json"])
    def test_canonical_line_errors_as_before(self, ast, error):
        leaf = '{"kind":"ID","children":[]}'
        text = "\n".join([record(leaf), record(leaf, "b"), record(ast)])
        assert outcome(load_corpus, text) == error

    def test_tall_canonical_lines_share_nodes(self):
        # 200 levels, the most a reordered chain may have, 13 times as tall
        # as the bundled corpus' trees
        canonical, reordered = deep_doc(200), deep_doc(200, reordered=True)
        text = "\n".join([record(canonical, "a"), record(reordered, "b"),
                          record(canonical, "c")])
        assert_same_outcome(load_corpus, reference_load_corpus, text)
        first, second, third = load_corpus(text)
        assert first.ast is second.ast is third.ast
        assert_shared([first.ast])

    def test_one_character_edits_equal_reference(self):
        for tree in SMALL_TREES:
            doc = dump_ast(tree)
            for edited in one_character_edits(doc):
                assert_same_outcome(load_ast, reference_load_ast, edited)
                # after the unedited line, so the reader knows its pieces
                text = record(doc) + "\n" + record(edited)
                assert_same_outcome(load_corpus, reference_load_corpus, text)

    def test_one_character_edits_at_the_depth_limit(self):
        # chains at the limit, canonical and reordered, edited near either
        # end: an edit can open one container more, or close one, or make
        # the text not canonical
        limit = MAX_JSON_NESTING // 2
        for doc in (deep_doc(limit), deep_doc(limit, reordered=True)):
            texts = [edited + doc[16:] for edited in one_character_edits(doc[:16])]
            texts += [doc[:-16] + edited for edited in one_character_edits(doc[-16:])]
            verdicts = set()
            for edited in texts:
                assert_same_outcome(load_ast, reference_load_ast, edited)
                assert_same_outcome(load_corpus, reference_load_corpus, record(edited))
                verdicts.add(outcome(load_ast, edited) == (AstFormatError, "nesting too deep"))
            assert verdicts == {True, False}

    def test_canonical_text_loads_without_json(self):
        chain = deep_doc(5000)
        with mock.patch.object(json, "loads", side_effect=AssertionError), \
                mock.patch.object(json.JSONDecoder, "decode", side_effect=AssertionError):
            corpus = load_corpus(CORPUS_PATH.read_text(encoding="utf-8"))
            assert outcome(load_ast, chain) == chain
            assert outcome(load_corpus, record(chain)) == record(chain) + "\n"
        assert len(corpus) > 0
        reordered = deep_doc(200, reordered=True)
        for load, reference, doc in [(load_ast, reference_load_ast, reordered),
                                     (load_corpus, reference_load_corpus, record(reordered))]:
            want = outcome(reference, doc)
            assert isinstance(want, str)
            with mock.patch.object(json, "loads", wraps=json.loads) as spy:
                assert outcome(load, doc) == want
            assert spy.called

    def test_canonical_lines_are_built_by_the_decoder(self, corpus):
        text = dump_corpus(corpus)
        with mock.patch.object(NodeTable, "node", side_effect=AssertionError):
            assert load_corpus(text) == corpus
            assert outcome(load_ast, deep_doc(300)) == deep_doc(300)
