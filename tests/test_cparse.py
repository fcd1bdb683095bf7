import pytest

from astvec.ast_core import KIND_NAMES, dump_ast
from astvec.cparse import (
    CParseError,
    TokenizeError,
    parse_file,
    parse_program,
    parse_source,
    tokenize,
)

from conftest import SNIPPET_SRC, golden_sources, invalid_sources


class TestTokenize:
    def test_empty(self):
        assert tokenize("") == []

    def test_simple_decl(self):
        toks = tokenize("int x;")
        assert [(t.category, t.lexeme) for t in toks] == [
            ("keyword", "int"),
            ("identifier", "x"),
            ("punctuation", ";"),
        ]

    def test_positions(self):
        toks = tokenize("int x;\n  y = 2;")
        assert (toks[0].line, toks[0].column) == (1, 1)
        assert (toks[3].line, toks[3].column) == (2, 3)

    def test_snippet_token_count(self):
        # hand count: double doubles ( double doublee ) { return 2 * doublee ; }
        src = SNIPPET_SRC.read_text(encoding="utf-8")
        assert len(tokenize(src)) == 13

    def test_comments_stripped(self):
        toks = tokenize("int x; // trailing\n/* block\n comment */ int y;")
        assert [t.lexeme for t in toks] == ["int", "x", ";", "int", "y", ";"]

    def test_unterminated_string(self):
        with pytest.raises(TokenizeError) as exc:
            tokenize('char *s = "oops;\n')
        assert exc.value.line == 1

    def test_illegal_character(self):
        with pytest.raises(TokenizeError) as exc:
            tokenize("int x = 1 @ 2;")
        assert (exc.value.line, exc.value.column) == (1, 11)


class TestParseShapes:
    def test_empty_source(self):
        tree = parse_source("")
        assert tree.kind.name == "Root" and tree.is_leaf()

    def test_simple_decl_chain(self):
        tree = parse_source("int x;")
        kinds = []
        n = tree
        while True:
            kinds.append(n.kind.name)
            if not n.children:
                break
            n = n.children[0]
        assert kinds == ["Root", "Decl", "TypeDecl", "IdentifierType"]

    def test_snippet_shape(self):
        tree = parse_file(SNIPPET_SRC)
        funcdef = tree.children[0]
        assert funcdef.kind.name == "FuncDef"
        decl, body = funcdef.children
        assert decl.kind.name == "Decl"
        funcdecl = decl.children[0]
        assert funcdecl.kind.name == "FuncDecl"
        assert [c.kind.name for c in funcdecl.children] == ["ParamList", "TypeDecl"]
        assert body.kind.name == "Compound"
        ret = body.children[0]
        assert ret.kind.name == "Return"
        binop = ret.children[0]
        assert binop.kind.name == "BinaryOp"
        assert [c.kind.name for c in binop.children] == ["Constant", "ID"]

    def test_precedence(self):
        tree = parse_source("int f(int a, int b, int c) { return a + b * c; }")
        binop = tree.children[0].children[1].children[0].children[0]
        assert binop.kind.name == "BinaryOp"
        left, right = binop.children
        assert left.kind.name == "ID"
        assert right.kind.name == "BinaryOp"

    def test_deterministic(self):
        src = golden_sources()[4].read_text(encoding="utf-8")
        assert dump_ast(parse_source(src)) == dump_ast(parse_source(src))

    def test_only_vocabulary_kinds(self):
        for src in golden_sources():
            for n in parse_file(src).walk():
                assert n.kind.name in KIND_NAMES


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
])
def test_truncated_source_error(src, message, line, column, expected):
    with pytest.raises(CParseError) as exc:
        parse_source(src)
    err = exc.value
    assert type(err) is CParseError
    assert (err.message, err.line, err.column, err.expected) == (
        message, line, column, expected
    )


def test_end_tokens_not_returned():
    toks = tokenize("int x;")
    parse_program(toks)
    assert len(toks) == 3 and all(t.category != "end" for t in toks)


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
