import collections
import importlib
import pkgutil
import re
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st
from pycparser import c_ast, c_parser

import astvec
from astvec import corpusgen
from astvec.ast_core import KIND_NAMES, dump_ast
from astvec.cparse import (
    MAX_NESTING,
    CParseError,
    ParseMemo,
    TokenizeError,
    category,
    offsets,
    parse_file,
    parse_program,
    parse_source,
    position,
    read_source,
    tokenize,
)

from conftest import (
    NESTING,
    NON_ASCII_SOURCES,
    REPO,
    SNIPPET_SRC,
    convert,
    golden_sources,
    invalid_sources,
    pycparser_dump,
    reference_tokenize,
    reference_walk,
)
from test_ast_core import _nested


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_simple_decl(self):
        toks = tokenize("int x;")
        assert [(category(t), t) for t in toks] == [
            ("keyword", "int"),
            ("identifier", "x"),
            ("punctuation", ";"),
        ]

    def test_positions(self):
        toks = tokenize("int x;\n  y = 2;")
        at = offsets(toks)
        assert position(toks.source, at[0]) == (1, 1)
        assert position(toks.source, at[3]) == (2, 3)
        assert position(toks.source, at[-1]) == (2, 9)  # the end of the last token

    def test_snippet_token_count(self):
        # hand count: double doubles ( double doublee ) { return 2 * doublee ; }
        src = SNIPPET_SRC.read_text(encoding="utf-8")
        assert len(tokenize(src)) == 13

    def test_comments_stripped(self):
        toks = tokenize("int x; // trailing\n/* block\n comment */ int y;")
        assert toks == ["int", "x", ";", "int", "y", ";"]

    @pytest.mark.parametrize("src", [
        'char *s = "oops;\n',
        # a literal ends at a raw newline, so the next line's quotes open none
        'char *s = "oops;\nint y = "x";',
    ])
    def test_unterminated_string(self, src):
        with pytest.raises(TokenizeError) as exc:
            tokenize(src)
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            "unterminated string literal", 1, 11)

    @pytest.mark.parametrize("src,line,column", [
        ("int x; /* open", 1, 8),
        ("int x; /* closed */\n  /* open */ /* again", 2, 14),
        ("x /*/", 1, 3),
    ])
    def test_unterminated_comment(self, src, line, column):
        with pytest.raises(TokenizeError) as exc:
            tokenize(src)
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            "unterminated comment", line, column)

    @pytest.mark.parametrize("src,message,column", [
        ("char c = 'a;", "unterminated character constant", 10),
        ("char c = '\\';", "unterminated character constant", 10),
        ("char c = 'a", "unterminated character constant", 10),
        ("char c = 'a\n';", "unterminated character constant", 10),
        ("char c = '';", "empty character constant", 10),
        ("char c = 'a'; char d = '';", "empty character constant", 24),
    ])
    def test_bad_character_constant(self, src, message, column):
        with pytest.raises(TokenizeError) as exc:
            tokenize(src)
        assert (exc.value.message, exc.value.line, exc.value.column) == (message, 1, column)

    def test_illegal_character(self):
        with pytest.raises(TokenizeError) as exc:
            tokenize("int x = 1 @ 2;")
        assert (exc.value.line, exc.value.column) == (1, 11)

    def test_position_after_a_string_across_lines(self):
        with pytest.raises(TokenizeError) as exc:
            tokenize('int x = "a\\\nb"; @')
        assert (exc.value.line, exc.value.column) == (2, 5)

    @pytest.mark.parametrize("src,error", [
        ("x" + " " * 1_000_000, None),
        ("x " + "/* " * 66_667, "unterminated comment"),
        ('x "' + '\\"' * 100_000, "unterminated string literal"),
    ], ids=["trailing-spaces", "open-comments", "open-string"])
    def test_linear_time(self, src, error):
        # A scan that started again one character later at each trailing
        # space, or that read on past the first error, would take minutes here.
        start = time.perf_counter()
        try:
            got = tokenize(src)
        except TokenizeError as exc:
            got = exc.message
        assert time.perf_counter() - start < 1.0
        assert got == (error or ["x"])


def test_patterns_compile_on_python_3_10():
    # The package supports Python 3.10, whose `re` has no atomic groups or
    # possessive quantifiers: a pattern with one fails to compile there, and
    # its module fails to import.
    parser = pytest.importorskip("re._parser")
    newer = {parser.ATOMIC_GROUP, parser.POSSESSIVE_REPEAT}

    def opcodes(sub):
        for op, av in sub:
            yield op
            stack = [av]
            while stack:
                x = stack.pop()
                if isinstance(x, parser.SubPattern):
                    yield from opcodes(x)
                elif isinstance(x, (tuple, list)):
                    stack.extend(x)

    patterns = [
        value
        for info in pkgutil.iter_modules(astvec.__path__)
        for value in vars(importlib.import_module(f"astvec.{info.name}")).values()
        if isinstance(value, re.Pattern)
    ]
    assert len(patterns) >= 3  # cparse's two, ast_core's one
    for pattern in patterns:
        assert not newer & set(opcodes(parser.parse(pattern.pattern, pattern.flags))), pattern


# Pieces of C and of what is not C, for text that stresses the scan: comments
# open and closed, strings and characters across lines, illegal characters.
C_FRAGMENTS = ["int", "x", "_y2", "if", "1", "0x1fUL", "2.5e-3f", ".5", "'a'", "'\\''",
               '"s"', '"', "'", "\\", "@", "$", "`", "/*", "*/", "//", "/", "*", "\n",
               " ", "\t", "\r", "+", "+=", ">>=", "->", "...", ".", "(", ")", "{", "}",
               ";", ",", "\u00e9", "\u00a0"]


def outcome(tokens_of, source):
    """A tokenizer's tokens as (category, lexeme, line, column), or its error
    as (class, message, line, column)."""
    try:
        return tokens_of(source)
    except TokenizeError as exc:
        return (type(exc).__name__, exc.message, exc.line, exc.column)


def positions(source):
    toks = tokenize(source)
    return [(category(t), t, *position(source, at)) for t, at in zip(toks, offsets(toks))]


def assert_matches_oracle(source):
    """The oracle reads a comment that is never closed as '/' and '*'; there
    the scan must stop, after the same tokens as the oracle's before it."""
    got = outcome(positions, source)
    if got[:2] == ("TokenizeError", "unterminated comment"):
        *_, line, column = got
        line_starts = [0] + [i + 1 for i, ch in enumerate(source) if ch == "\n"]
        start = line_starts[line - 1] + column - 1
        assert source.startswith("/*", start) and "*/" not in source[start + 2:]
        got, source = outcome(positions, source[:start]), source[:start]
    assert got == outcome(reference_tokenize, source)


class TestTokenizeOracle:
    @pytest.mark.parametrize("src", golden_sources() + invalid_sources(), ids=lambda p: p.name)
    def test_fixture_prefixes(self, src):
        text = src.read_text(encoding="utf-8")
        for i in range(len(text) + 1):
            assert_matches_oracle(text[:i])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_sources(self, seed):
        for _, _, text in corpusgen.generate_sources(seed):
            assert_matches_oracle(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(C_FRAGMENTS)).map("".join))
    @example('int x = "a\\\nb"; @')
    @example("x\n\n  'a\\\n'  \"\\\"\n")
    def test_c_like_text(self, source):
        assert_matches_oracle(source)


class TestParseShapes:
    def test_empty_source(self):
        tree = parse_source("")
        assert KIND_NAMES[tree.kind] == "Root" and not tree.children

    def test_simple_decl_chain(self):
        tree = parse_source("int x;")
        kinds = []
        n = tree
        while True:
            kinds.append(KIND_NAMES[n.kind])
            if not n.children:
                break
            n = n.children[0]
        assert kinds == ["Root", "Decl", "TypeDecl", "IdentifierType"]

    def test_snippet_shape(self):
        tree = parse_file(SNIPPET_SRC)
        funcdef = tree.children[0]
        assert KIND_NAMES[funcdef.kind] == "FuncDef"
        decl, body = funcdef.children
        assert KIND_NAMES[decl.kind] == "Decl"
        funcdecl = decl.children[0]
        assert KIND_NAMES[funcdecl.kind] == "FuncDecl"
        assert [KIND_NAMES[c.kind] for c in funcdecl.children] == ["ParamList", "TypeDecl"]
        assert KIND_NAMES[body.kind] == "Compound"
        ret = body.children[0]
        assert KIND_NAMES[ret.kind] == "Return"
        binop = ret.children[0]
        assert KIND_NAMES[binop.kind] == "BinaryOp"
        assert [KIND_NAMES[c.kind] for c in binop.children] == ["Constant", "ID"]

    def test_precedence(self):
        tree = parse_source("int f(int a, int b, int c) { return a + b * c; }")
        binop = tree.children[0].children[1].children[0].children[0]
        assert KIND_NAMES[binop.kind] == "BinaryOp"
        left, right = binop.children
        assert KIND_NAMES[left.kind] == "ID"
        assert KIND_NAMES[right.kind] == "BinaryOp"

    def test_deterministic(self):
        src = golden_sources()[4].read_text(encoding="utf-8")
        assert dump_ast(parse_source(src)) == dump_ast(parse_source(src))

    def test_only_vocabulary_kinds(self):
        for src in golden_sources():
            for n in reference_walk(parse_file(src)):
                assert n.kind in range(len(KIND_NAMES))


def assert_same_trees_as_pycparser(texts):
    """Both parsers dump the same tree for every text; pycparser, the
    reference the golden fixtures were made with, dumped as they were."""
    reference = c_parser.CParser()
    mismatched = [
        text for text in texts
        if dump_ast(parse_source(text)) != pycparser_dump(reference.parse(text))
    ]
    assert mismatched == []


def fixture_inputs():
    """Each fixture source, and each prefix and suffix of it: the inputs of
    parse.txt in scripts/artifact_digests.py."""
    for src in sorted((REPO / "tests" / "fixtures").glob("*/*.c")):
        text = src.read_text(encoding="utf-8")
        yield text
        for i in range(len(text) + 1):
            yield text[:i]
            yield text[i:]


def dump_or_none(text):
    try:
        return dump_ast(parse_source(text))
    except CParseError:
        return None


def has_body_after_non_function(tree) -> bool:
    """Whether pycparser's tree holds a FuncDef whose declarator is not a
    function's."""
    stack = [tree]
    while stack:
        n = stack.pop()
        if isinstance(n, c_ast.FuncDef) and not isinstance(n.decl.type, c_ast.FuncDecl):
            return True
        stack.extend(child for _, child in n.children())
    return False


def divergences(text: str, at: int, tree) -> list[str]:
    """Which of the constructs that astvec rejects and pycparser accepts, each
    matched exactly, explain `text`: astvec rejects it at offset `at`, and
    pycparser reads it as `tree`."""
    want = pycparser_dump(tree)
    found = []
    # C89 implicit int: `int ` put in at the error gives pycparser's tree
    if dump_or_none(f"{text[:at]}int {text[at:]}") == want:
        found.append("implicit int")
    # an empty declaration, a `;` alone at file scope: taking it out does
    if text[at:at + 1] == ";" and dump_or_none(text[:at] + text[at + 1:]) == want:
        found.append("empty declaration")
    if has_body_after_non_function(tree):
        found.append("body after a non-function declarator")
    return found


# Qualifiers, storage classes, pointer qualifiers, `typedef` in a block and
# a struct member list with `,`: each gives pycparser's tree.
QUALIFIED_SOURCES = [
    "const int x = 1;",
    "static int f(void) { return 0; }",
    "extern int y;",
    "int * const p;",
    "int * const * volatile q;",
    "void f(void) { const int a = 1; static int b; register int c; volatile int d; }",
    "void f(void) { for (const int *p = 0; p; ) ; }",
    "int g(const char *s) { return (const int) 1; }",
    "struct S { int a, b; const int c; } s;",
    "int x = sizeof(const int);",
    "typedef const int cint; cint z;",
    "void f(void) { typedef int T; T t; }",
    "int const w;",
    "const struct S { int a; } v;",
    "void f(void) { int a, *b, c[3]; }",
    "long long unsigned int u;",
]


class TestPycparserOracle:
    def test_generated_sources(self):
        texts = sorted({text for seed in range(1, 11)
                        for _, _, text in corpusgen.generate_sources(seed, per_class=275)})
        assert len(texts) == 1800
        assert_same_trees_as_pycparser(texts)

    def test_fixture_prefixes_and_suffixes(self):
        # Both parsers give the same tree or both reject, but for the
        # divergences: an input that astvec alone rejects shows exactly one.
        reference = c_parser.CParser()
        outcomes = collections.Counter()
        for text in fixture_inputs():
            try:
                tree = reference.parse(text)
            except (c_parser.ParseError, AssertionError):
                # a `}` that closes no scope trips an assertion in pycparser
                tree = None
            want = None if tree is None else pycparser_dump(tree)
            try:
                got = dump_ast(parse_source(text))
            except CParseError as exc:
                got = None
                lines = text.split("\n")
                at = sum(len(line) + 1 for line in lines[: exc.line - 1]) + exc.column - 1
            if want is None:
                outcomes["rejected by both" if got is None else "accepted by astvec only"] += 1
            elif got is not None:
                outcomes["same tree" if got == want else "different trees"] += 1
            else:
                outcomes[" and ".join(divergences(text, at, tree)) or "unexplained"] += 1
        assert outcomes == {
            "same tree": 270,
            "rejected by both": 5705,
            "implicit int": 154,
            "empty declaration": 19,
            "body after a non-function declarator": 16,
        }

    @pytest.mark.parametrize("label,kind", [("case 1", "Case"), ("default", "Default")])
    def test_case_label_outside_switch(self, label, kind):
        # A fourth divergence, which no fixture or generated input holds:
        # pycparser takes a case or default label in any block, astvec only
        # in a switch body.
        text = f"void f(void) {{ {label}: ; }}"
        body = convert(c_parser.CParser().parse(text))["children"][0]["children"][1]
        assert [item["kind"] for item in body["children"]] == [kind]
        with pytest.raises(CParseError) as exc:
            parse_source(text)
        keyword = label.split()[0]
        assert str(exc.value) == f"1:16: unexpected keyword {keyword!r} (expected expression)"

    def test_qualifiers_and_storage_classes(self):
        assert_same_trees_as_pycparser(QUALIFIED_SOURCES)

    def test_type_name_declaring_an_identifier(self):
        text = "int y = (int x) 1;"
        with pytest.raises(c_parser.ParseError):
            c_parser.CParser().parse(text)
        with pytest.raises(CParseError) as exc:
            parse_source(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            "type name must not declare an identifier", 1, 15)

    @pytest.mark.parametrize("text,line,column", NON_ASCII_SOURCES)
    def test_non_ascii_rejected_where_pycparser_rejects(self, text, line, column):
        with pytest.raises(c_parser.ParseError,
                           match=f"^:{line}:{column}: Illegal character"):
            c_parser.CParser().parse(text)
        with pytest.raises(TokenizeError) as exc:
            parse_source(text)
        assert (exc.value.message, exc.value.line, exc.value.column) == (
            f"illegal character {text[column - 1]!r}", line, column)

    def test_non_ascii_in_literals(self):
        assert_same_trees_as_pycparser(['char *s = "\u00e9\u0661";', "char c = '\u00e9';"])

    @pytest.mark.parametrize("comment", ["/* \u00e9\u00a0\u0661 */", "// \u3000\u2028\n"])
    def test_non_ascii_in_comments(self, comment):
        # pycparser reads preprocessed text, so it takes the source without
        # the comment
        assert dump_ast(parse_source(f"int x; {comment}int y;")) == pycparser_dump(
            c_parser.CParser().parse("int x; int y;"))


def shape(node) -> str:
    """A tree as Kind[child, ...]; a leaf is its kind alone."""
    if not node.children:
        return KIND_NAMES[node.kind]
    return f"{KIND_NAMES[node.kind]}[{', '.join(shape(c) for c in node.children)}]"


def expression_shape(expr: str) -> str:
    """The tree of `expr` parsed as a statement, where T names a typedef."""
    root = parse_source("typedef int T; void f(void) { %s; }" % expr)
    return shape(root.children[1].children[1].children[0])


INT = "Typename[TypeDecl[IdentifierType]]"


# Grouping, where ExprLists flatten and nest, and the prefix, cast, sizeof and
# postfix forms, each pinned as a tree.
EXPRESSION_TREES = {
    "a = b = c": "Assignment[ID, Assignment[ID, ID]]",
    "a - b - c": "BinaryOp[BinaryOp[ID, ID], ID]",
    "a ? b : c ? d : e": "TernaryOp[ID, ID, TernaryOp[ID, ID, ID]]",
    "a ? b : c = d": "Assignment[TernaryOp[ID, ID, ID], ID]",
    "a || b = c": "Assignment[BinaryOp[ID, ID], ID]",
    "a, b = c, d": "ExprList[ID, Assignment[ID, ID], ID]",
    "(a, b), c": "ExprList[ExprList[ID, ID], ID]",
    "-(int)x": f"UnaryOp[Cast[{INT}, ID]]",
    "(T)x": f"Cast[{INT}, ID]",
    "(x)": "ID",
    "sizeof (int)": f"UnaryOp[{INT}]",
    "sizeof -x": "UnaryOp[UnaryOp[ID]]",
    "sizeof sizeof x": "UnaryOp[UnaryOp[ID]]",
    "f()": "FuncCall[ID]",
    "f(a, b)": "FuncCall[ID, ExprList[ID, ID]]",
    "*p++": "UnaryOp[UnaryOp[ID]]",
}


@pytest.mark.parametrize("expr", list(EXPRESSION_TREES))
def test_expression_tree(expr):
    assert expression_shape(expr) == EXPRESSION_TREES[expr]


# A compound literal is a postfix expression, as in C99; sizeof(type) is not.
COMPOUND_LITERAL_TREES = {
    "(struct P){1}.a":
        "StructRef[CompoundLiteral[Typename[TypeDecl[Struct]], InitList[Constant]], ID]",
    "(int[]){1,2}[0]": (
        "ArrayRef[CompoundLiteral[Typename[ArrayDecl[TypeDecl[IdentifierType]]],"
        " InitList[Constant, Constant]], Constant]"
    ),
}


@pytest.mark.parametrize("expr", list(COMPOUND_LITERAL_TREES))
def test_compound_literal_takes_postfix_operators(expr):
    assert expression_shape(expr) == COMPOUND_LITERAL_TREES[expr]


def test_sizeof_type_takes_no_postfix_operator():
    with pytest.raises(CParseError) as exc:
        expression_shape("sizeof (int)[0]")
    assert (exc.value.message, exc.value.expected) == ("unexpected punctuation '['", "';'")


@pytest.mark.parametrize("src", golden_sources(), ids=lambda p: p.stem)
def test_golden_pair(src):
    golden = src.with_suffix(".ast.json").read_text(encoding="utf-8").strip()
    assert dump_ast(parse_file(src)) == golden


@pytest.mark.parametrize("src", invalid_sources(), ids=lambda p: p.stem)
def test_invalid_rejected_with_position(src):
    with pytest.raises(CParseError) as exc:
        parse_file(src)
    assert exc.value.line >= 1
    assert exc.value.column >= 1


def test_parse_file_missing():
    with pytest.raises(OSError):
        parse_file("/nonexistent/path.c")


def test_parse_program_matches_parse_source():
    src = "int x; int y = 2;"
    assert parse_program(tokenize(src)) == parse_source(src)


# The exact (message, line, column, expected) for each truncated source, so a
# change to how the parser meets the end of its input shows here.
END = "unexpected end of input: "


@pytest.mark.parametrize("src,message,line,column,expected", [
    pytest.param("int x", "unexpected end of input", 1, 6, "';'",
                 id="mid-declaration"),
    pytest.param("int f(void) { return a *", END + "expression expected", 1, 25, "",
                 id="mid-expression"),
    pytest.param("int f(void) {\n    int x = 1;\n", END + "unterminated block", 2, 15,
                 "'}'", id="open-block"),
    pytest.param("void f(int a) {\n    switch (a) {\n    case 1:\n        break;\n",
                 END + "unterminated switch body", 4, 15, "'}'", id="open-switch"),
    pytest.param("void f(void) { goto", "unexpected end of input", 1, 20,
                 "identifier", id="after-goto"),
    pytest.param("int f(", "unexpected end of input", 1, 7, "type specifier",
                 id="empty-parameter-list"),
    pytest.param('char *s = "a\\\nb"', "unexpected end of input", 2, 3, "';'",
                 id="after-a-string-across-lines"),
])
def test_truncated_source_error(src, message, line, column, expected):
    with pytest.raises(CParseError) as exc:
        parse_source(src)
    err = exc.value
    assert type(err) is CParseError
    assert (err.message, err.line, err.column, err.expected) == (
        message, line, column, expected
    )


@pytest.mark.parametrize("bad", ["int x = ;", "int x = 1 @ 2;"], ids=["parse", "tokenize"])
def test_parse_memo_parses_a_text_once(bad):
    good = "int f(int a) { return a + 1; }"
    parse = ParseMemo()
    tree = parse(good)
    assert parse("".join(list(good))) is tree  # an equal text, not the same str
    assert tree == parse_source(good)
    with pytest.raises(CParseError) as fresh:
        parse_source(bad)
    raised = []
    for _ in range(2):
        with pytest.raises(CParseError) as exc:
            parse("".join(list(bad)))
        raised.append(exc.value)
    stored = parse.parsed[bad]
    assert len(parse.parsed) == 2
    assert stored.__traceback__ is None
    for err in (stored, *raised):
        assert type(err) is type(fresh.value)
        assert (str(err), err.message, err.line, err.column, err.expected) == (
            str(fresh.value), fresh.value.message, fresh.value.line, fresh.value.column,
            fresh.value.expected)
    assert raised[0] is not raised[1] and stored not in raised


def test_end_tokens_not_returned():
    toks = tokenize("int x;")
    parse_program(toks)
    assert toks == ["int", "x", ";"]


def test_read_source_reads_as_open_does(tmp_path):
    path = tmp_path / "mixed.c"
    path.write_bytes("\ufeffint x;\r\nint y;\rint z;\n\r\n\r\r/* \u00e9 */\r".encode())
    with open(path, encoding="utf-8") as fh:
        assert read_source(path) == fh.read()


@pytest.mark.parametrize("data,line,column", [
    (b"int caf\xe9;", 1, 8),
    (b"int x;\r\n/* \xc3\xa9 */\rint \xff;", 3, 5),
], ids=["latin1", "after-crlf-and-cr"])
def test_not_utf8_position(tmp_path, data, line, column):
    path = tmp_path / "bad.c"
    path.write_bytes(data)
    with pytest.raises(CParseError) as exc:
        parse_file(path)
    assert (exc.value.message, exc.value.line, exc.value.column) == (
        "not valid UTF-8", line, column
    )


def _nesting_outcome(source: str, frames: int):
    """None if `source` parses with `frames` more frames on the stack, else
    the error's (message, line, column)."""
    try:
        _nested(frames, lambda: parse_source(source))
    except CParseError as exc:
        return exc.message, exc.line, exc.column
    return None


# prefix operators and casts are read in a loop and open no nesting level
@pytest.mark.parametrize("name", [name for name in NESTING if name not in ("casts", "unary")])
def test_one_nesting_limit(name):
    # The deepest accepted nesting is MAX_NESTING less the levels the
    # construct's surroundings open (at most two), and one more level is
    # "nesting too deep", with the same verdicts and positions from a
    # stack 300 frames deeper.
    make = NESTING[name]
    low, high = 1, MAX_NESTING + 1
    assert _nesting_outcome(make(low), 0) is None
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if _nesting_outcome(make(mid), 0) is None else (low, mid)
    assert MAX_NESTING - 2 <= low <= MAX_NESTING
    too_deep = _nesting_outcome(make(low + 1), 0)
    assert too_deep[0] == "nesting too deep"
    assert _nesting_outcome(make(low), 300) is None
    assert _nesting_outcome(make(low + 1), 300) == too_deep


def test_deep_unshared_sum_parses_in_linear_memory():
    # A left-associative sum is read in a loop, so its depth has no limit, and
    # each level is a distinct node. A node holding anything that grows with
    # its subtree would make this quadratic: a copy of the subtree's kind ids
    # per node takes 200 MB here. Linear, it peaks at about 13 MB on
    # CPython 3.11.
    terms = 20_000
    source = "int x = " + "+".join(["a"] * terms) + ";\n"
    tracemalloc.start()
    try:
        root = parse_source(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the sum is a chain of terms - 1 BinaryOps down its left operands
    node, depth = root.children[0].children[1], 0
    while node.children:
        node, depth = node.children[0], depth + 1
    assert depth == terms - 1
    assert peak < 40e6
