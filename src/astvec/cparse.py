"""Recursive-descent parser for a C subset.

Produces trees over the closed node-kind vocabulary only, with the same shape
conventions as pycparser (the reference used to generate the golden fixtures):
literals collapse to Constant, every unary operator to UnaryOp, every binary
operator to BinaryOp; identifier spellings are dropped.

Unsupported on purpose: the preprocessor, bitfields, variadic declarations,
function pointers nested deeper than one level, designated initializers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from .ast_core import AstNode, kind_by_name


@dataclass(frozen=True)
class Token:
    # keyword | identifier | constant | operator | punctuation, or end: the
    # parser's end-of-input marker, placed just after the last real token
    category: str
    lexeme: str
    line: int
    column: int


class CParseError(Exception):
    def __init__(self, message: str, line: int, column: int, expected: str = ""):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"{line}:{column}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class TokenizeError(CParseError):
    pass


KEYWORDS = frozenset(
    """void char short int long float double signed unsigned
    struct union enum typedef if else for while do switch case default
    break continue goto return sizeof const static extern register volatile
    """.split()
)

BASE_TYPE_KEYWORDS = frozenset(
    "void char short int long float double signed unsigned".split()
)
QUALIFIERS = frozenset("const static extern register volatile".split())

_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|//[^\n]*|/\*.*?\*/)
  | (?P<constant>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?
      | (0[xX][0-9a-fA-F]+|\d+)([uU][lL]{0,2}|[lL]{1,2}[uU]?)?
      | '(\\.|[^\\'])+'
      | "(\\.|[^\\"])*")
  | (?P<identifier>[A-Za-z_]\w*)
  | (?P<operator>>>=|<<=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&^|]=|[+\-*/%<>=&|^!~?:.])
  | (?P<punctuation>[()\[\]{};,])
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    line_start = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            col = pos - line_start + 1
            ch = source[pos]
            if ch == '"':
                raise TokenizeError("unterminated string literal", line, col)
            if source.startswith("/*", pos):
                raise TokenizeError("unterminated comment", line, col)
            raise TokenizeError(f"illegal character {ch!r}", line, col)
        category = m.lastgroup
        text = m.group()
        # whitespace and comments are dropped, but line accounting still runs
        if category != "skip":
            if category == "identifier" and text in KEYWORDS:
                category = "keyword"
            tokens.append(Token(category, text, line, pos - line_start + 1))
        nl = text.count("\n")
        if nl:
            line += nl
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    return tokens


# Binary operator precedence (C standard); higher binds tighter.
_BINOP_PREC = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

_ASSIGN_OPS = frozenset(
    ["=", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=", "<<=", ">>="]
)

_UNARY_PREFIX = frozenset(["+", "-", "*", "&", "!", "~", "++", "--"])


def _mk(kind_name: str, children: list[AstNode]) -> AstNode:
    return AstNode(kind_by_name(kind_name), tuple(children))


@dataclass
class _Declarator:
    """A parsed declarator: a name (None if abstract) and a builder that wraps
    the inner type node in the Ptr/Array/Func modifier chain."""

    name: Optional[str]
    build: Callable[[AstNode], AstNode]


class Parser:
    """One instance per parse; holds the token cursor and typedef-name table."""

    def __init__(self, tokens: list[Token]):
        # Two end tokens: lookahead is at most one token past the cursor, and
        # the cursor never moves past the first end token.
        last = tokens[-1] if tokens else Token("end", "", 1, 1)
        end = Token("end", "", last.line, last.column + len(last.lexeme))
        self.tokens = tokens + [end, end]
        self.pos = 0
        self.typedefs: set[str] = set()

    # --- cursor helpers ---

    def _peek(self, off: int = 0) -> Token:
        return self.tokens[self.pos + off]

    def _at_end(self) -> bool:
        return self.tokens[self.pos].category == "end"

    def _error(self, message: str, expected: str = "") -> CParseError:
        tok = self.tokens[self.pos]
        if tok.category == "end":
            message = "unexpected end of input" + (message and ": " + message)
        return CParseError(message, tok.line, tok.column, expected)

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.category == "end":
            raise self._error("token expected")
        self.pos += 1
        return tok

    def _check(self, lexeme: str, off: int = 0) -> bool:
        return self.tokens[self.pos + off].lexeme == lexeme

    def _accept(self, lexeme: str) -> bool:
        if self._check(lexeme):
            self.pos += 1
            return True
        return False

    def _unexpected(self, expected: str) -> CParseError:
        tok = self._peek()
        if tok.category == "end":  # _error names the end of input
            return self._error("", expected)
        return self._error(f"unexpected {tok.category} {tok.lexeme!r}", expected)

    def _expect(self, lexeme: str) -> Token:
        if not self._check(lexeme):
            raise self._unexpected(repr(lexeme))
        return self._advance()

    def _expect_identifier(self) -> Token:
        if self._peek().category != "identifier":
            raise self._unexpected("identifier")
        return self._advance()

    # --- type detection ---

    def _is_typedef_name(self, tok: Token) -> bool:
        return tok.category == "identifier" and tok.lexeme in self.typedefs

    def _starts_type(self, off: int = 0) -> bool:
        tok = self._peek(off)
        if tok.lexeme in BASE_TYPE_KEYWORDS or tok.lexeme in ("struct", "union", "enum"):
            return True
        if tok.lexeme in QUALIFIERS or tok.lexeme == "typedef":
            return True
        return self._is_typedef_name(tok)

    # --- top level ---

    def parse_translation_unit(self) -> AstNode:
        items: list[AstNode] = []
        while not self._at_end():
            items.extend(self._declaration(allow_funcdef=True))
        return _mk("Root", items)

    def _declaration(self, allow_funcdef: bool = False) -> list[AstNode]:
        """Parse one declaration; returns one node per declarator (C expands
        'int x, y;' into separate Decl nodes)."""
        is_typedef, base = self._declaration_specifiers()

        # 'struct S { ... };' with no declarator
        if self._accept(";"):
            return [_mk("Decl", [base])]

        nodes: list[AstNode] = []
        first = True
        while True:
            declr = self._declarator()
            if declr.name is None:
                raise self._error("declarator requires a name")
            type_node = declr.build(_mk("TypeDecl", [base]))

            if is_typedef:
                self.typedefs.add(declr.name)
                nodes.append(_mk("Typedef", [type_node]))
            elif (
                allow_funcdef
                and first
                and type_node.kind.name == "FuncDecl"
                and self._check("{")
            ):
                body = self._compound_statement()
                decl = _mk("Decl", [type_node])
                return [_mk("FuncDef", [decl, body])]
            else:
                children = [type_node]
                if self._accept("="):
                    children.append(self._initializer())
                nodes.append(_mk("Decl", children))
            first = False
            if self._accept(","):
                continue
            self._expect(";")
            return nodes

    def _declaration_specifiers(self) -> tuple[bool, AstNode]:
        """Returns (is_typedef, base type node: IdentifierType/Struct/Union/Enum)."""
        is_typedef = False
        basic_words: list[str] = []
        tag_node: Optional[AstNode] = None
        while True:
            tok = self._peek()
            if tok.lexeme == "typedef":
                is_typedef = True
                self._advance()
            elif tok.lexeme in QUALIFIERS:
                self._advance()
            elif tok.lexeme in BASE_TYPE_KEYWORDS:
                basic_words.append(tok.lexeme)
                self._advance()
            elif tok.lexeme in ("struct", "union", "enum") and tag_node is None and not basic_words:
                tag_node = self._struct_union_enum_specifier()
            elif (
                self._is_typedef_name(tok)
                and tag_node is None
                and not basic_words
                and self._declarator_follows(1)
            ):
                basic_words.append(tok.lexeme)
                self._advance()
            else:
                break
        if tag_node is not None:
            return is_typedef, tag_node
        if not basic_words:
            raise self._unexpected("type specifier")
        return is_typedef, _mk("IdentifierType", [])

    def _declarator_follows(self, off: int) -> bool:
        """Disambiguates 'T x;' (T is a typedef name) from 'x;' misread."""
        tok = self._peek(off)
        return tok.category == "identifier" or tok.lexeme in ("*", "(", ";", ",", ")", "[")

    def _struct_union_enum_specifier(self) -> AstNode:
        tok = self._advance()  # struct | union | enum
        tag = tok.lexeme
        named = self._peek().category == "identifier"
        if named:
            self._advance()  # tag name, dropped
        if tag == "enum":
            if self._accept("{"):
                enums: list[AstNode] = []
                while not self._check("}"):
                    self._expect_identifier()
                    value: list[AstNode] = []
                    if self._accept("="):
                        value.append(self._conditional_expression())
                    enums.append(_mk("Enumerator", value))
                    if not self._accept(","):
                        break
                self._expect("}")
                return _mk("Enum", [_mk("EnumeratorList", enums)])
            if not named:
                raise self._error("anonymous enum requires a body")
            return _mk("Enum", [])
        kind = "Struct" if tag == "struct" else "Union"
        if self._accept("{"):
            members: list[AstNode] = []
            while not self._check("}"):
                members.extend(self._struct_member_declaration())
            self._expect("}")
            return _mk(kind, members)
        if not named:
            raise self._error(f"anonymous {tag} requires a body")
        return _mk(kind, [])

    def _struct_member_declaration(self) -> list[AstNode]:
        _, base = self._declaration_specifiers()
        members: list[AstNode] = []
        while True:
            declr = self._declarator()
            if declr.name is None:
                raise self._error("member declarator requires a name")
            members.append(_mk("Decl", [declr.build(_mk("TypeDecl", [base]))]))
            if self._accept(","):
                continue
            self._expect(";")
            return members

    # --- declarators ---

    def _declarator(self, abstract: bool = False) -> _Declarator:
        ptr_depth = 0
        while self._accept("*"):
            while self._peek().lexeme in QUALIFIERS:
                self._advance()
            ptr_depth += 1

        name: Optional[str] = None
        inner: Optional[_Declarator] = None
        if self._peek().category == "identifier":
            name = self._advance().lexeme
        elif self._check("(") and self._nested_declarator_follows():
            self._advance()
            inner = self._declarator(abstract=abstract)
            name = inner.name
            self._expect(")")
        elif not abstract:
            raise self._unexpected("declarator")

        suffixes: list[Callable[[AstNode], AstNode]] = []
        while True:
            if self._accept("["):
                dim: list[AstNode] = []
                if not self._check("]"):
                    dim.append(self._assignment_expression())
                self._expect("]")
                suffixes.append(
                    lambda t, d=tuple(dim): _mk("ArrayDecl", [t, *d])
                )
            elif self._accept("("):
                params = self._parameter_list()
                self._expect(")")
                suffixes.append(
                    lambda t, p=params: _mk("FuncDecl", ([p] if p else []) + [t])
                )
            else:
                break

        def build(base: AstNode, ptr_depth=ptr_depth, inner=inner, suffixes=suffixes) -> AstNode:
            t = base
            for _ in range(ptr_depth):
                t = _mk("PtrDecl", [t])
            for wrap in reversed(suffixes):
                t = wrap(t)
            if inner is not None:
                t = inner.build(t)
            return t

        return _Declarator(name=name, build=build)

    def _nested_declarator_follows(self) -> bool:
        """After '(', distinguish a parenthesized declarator from a parameter
        list (for abstract declarators in type names)."""
        tok = self._peek(1)
        return tok.lexeme in ("*", "(") or tok.category == "identifier" and not self._is_typedef_name(tok)

    def _parameter_list(self) -> Optional[AstNode]:
        if self._check(")"):
            return None
        params: list[AstNode] = []
        while True:
            _, base = self._declaration_specifiers()
            declr = self._declarator(abstract=True)
            type_node = declr.build(_mk("TypeDecl", [base]))
            if declr.name is None:
                params.append(_mk("Typename", [type_node]))
            else:
                params.append(_mk("Decl", [type_node]))
            if not self._accept(","):
                break
        return _mk("ParamList", params)

    def _type_name(self) -> AstNode:
        _, base = self._declaration_specifiers()
        declr = self._declarator(abstract=True)
        if declr.name is not None:
            raise self._error("type name must not declare an identifier")
        return _mk("Typename", [declr.build(_mk("TypeDecl", [base]))])

    # --- statements ---

    def _compound_statement(self) -> AstNode:
        self._expect("{")
        items: list[AstNode] = []
        while not self._check("}"):
            if self._at_end():
                raise self._error("unterminated block", expected="'}'")
            if self._starts_type():
                items.extend(self._declaration())
            else:
                items.append(self._statement())
        self._expect("}")
        return _mk("Compound", items)

    def _statement(self) -> AstNode:
        tok = self._peek()
        if tok.category == "end":
            raise self._error("statement expected")
        lex = tok.lexeme
        if lex == "{":
            return self._compound_statement()
        if lex == ";":
            self._advance()
            return _mk("EmptyStatement", [])
        if lex == "if":
            return self._if_statement()
        if lex == "for":
            return self._for_statement()
        if lex == "while":
            self._advance()
            self._expect("(")
            cond = self._expression()
            self._expect(")")
            return _mk("While", [cond, self._statement()])
        if lex == "do":
            self._advance()
            body = self._statement()
            self._expect("while")
            self._expect("(")
            cond = self._expression()
            self._expect(")")
            self._expect(";")
            return _mk("DoWhile", [cond, body])
        if lex == "switch":
            return self._switch_statement()
        if lex == "break":
            self._advance()
            self._expect(";")
            return _mk("Break", [])
        if lex == "continue":
            self._advance()
            self._expect(";")
            return _mk("Continue", [])
        if lex == "goto":
            self._advance()
            self._expect_identifier()
            self._expect(";")
            return _mk("Goto", [])
        if lex == "return":
            self._advance()
            expr: list[AstNode] = []
            if not self._check(";"):
                expr.append(self._expression())
            self._expect(";")
            return _mk("Return", expr)
        if (
            tok.category == "identifier"
            and self._check(":", 1)
            and not self._is_typedef_name(tok)
        ):
            self._advance()
            self._advance()
            return _mk("Label", [self._statement()])
        expr = self._expression()
        self._expect(";")
        return expr

    def _if_statement(self) -> AstNode:
        self._expect("if")
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        then = self._statement()
        children = [cond, then]
        if self._accept("else"):
            children.append(self._statement())
        return _mk("If", children)

    def _for_statement(self) -> AstNode:
        self._expect("for")
        self._expect("(")
        children: list[AstNode] = []
        if self._starts_type():
            decls = self._declaration()  # consumes the ';'
            children.append(_mk("DeclList", decls))
        elif self._accept(";"):
            pass
        else:
            children.append(self._expression())
            self._expect(";")
        if not self._check(";"):
            children.append(self._expression())
        self._expect(";")
        if not self._check(")"):
            children.append(self._expression())
        self._expect(")")
        children.append(self._statement())
        return _mk("For", children)

    def _switch_statement(self) -> AstNode:
        self._expect("switch")
        self._expect("(")
        cond = self._expression()
        self._expect(")")
        self._expect("{")
        # statements after a case/default label re-parent under that label,
        # mirroring the reference tree shape
        items: list[AstNode] = []
        current: Optional[tuple[str, list[AstNode]]] = None

        def flush():
            nonlocal current
            if current is not None:
                items.append(_mk(current[0], current[1]))
                current = None

        while not self._check("}"):
            if self._at_end():
                raise self._error("unterminated switch body", expected="'}'")
            if self._accept("case"):
                flush()
                expr = self._conditional_expression()
                self._expect(":")
                current = ("Case", [expr])
            elif self._accept("default"):
                flush()
                self._expect(":")
                current = ("Default", [])
            else:
                stmts = (
                    self._declaration()
                    if self._starts_type()
                    else [self._statement()]
                )
                if current is not None:
                    current[1].extend(stmts)
                else:
                    items.extend(stmts)
        flush()
        self._expect("}")
        return _mk("Switch", [cond, _mk("Compound", items)])

    # --- expressions ---

    def _expression(self) -> AstNode:
        """Full expression; comma sequences collapse into ExprList."""
        first = self._assignment_expression()
        if not self._check(","):
            return first
        exprs = [first]
        while self._accept(","):
            exprs.append(self._assignment_expression())
        return _mk("ExprList", exprs)

    def _assignment_expression(self) -> AstNode:
        left = self._conditional_expression()
        if self._peek().lexeme in _ASSIGN_OPS:
            self._advance()
            right = self._assignment_expression()
            return _mk("Assignment", [left, right])
        return left

    def _conditional_expression(self) -> AstNode:
        cond = self._binary_expression(1)
        if self._accept("?"):
            iftrue = self._expression()
            self._expect(":")
            iffalse = self._conditional_expression()
            return _mk("TernaryOp", [cond, iftrue, iffalse])
        return cond

    def _binary_expression(self, min_prec: int) -> AstNode:
        left = self._cast_expression()
        while True:
            tok = self._peek()
            if tok.category != "operator":
                break
            prec = _BINOP_PREC.get(tok.lexeme)
            if prec is None or prec < min_prec:
                break
            self._advance()
            right = self._binary_expression(prec + 1)
            left = _mk("BinaryOp", [left, right])
        return left

    def _cast_expression(self) -> AstNode:
        if self._check("(") and self._starts_type(1):
            self._advance()
            type_name = self._type_name()
            self._expect(")")
            if self._check("{"):
                init = self._initializer()
                return _mk("CompoundLiteral", [type_name, init])
            return _mk("Cast", [type_name, self._cast_expression()])
        return self._unary_expression()

    def _unary_expression(self) -> AstNode:
        tok = self._peek()
        if tok.category == "end":
            raise self._error("expression expected")
        if tok.lexeme in _UNARY_PREFIX and tok.category == "operator":
            self._advance()
            return _mk("UnaryOp", [self._cast_expression()])
        if tok.lexeme == "sizeof":
            self._advance()
            if self._check("(") and self._starts_type(1):
                self._advance()
                type_name = self._type_name()
                self._expect(")")
                return _mk("UnaryOp", [type_name])
            return _mk("UnaryOp", [self._unary_expression()])
        return self._postfix_expression()

    def _postfix_expression(self) -> AstNode:
        expr = self._primary_expression()
        while True:
            tok = self._peek()
            if tok.lexeme == "[":
                self._advance()
                subscript = self._expression()
                self._expect("]")
                expr = _mk("ArrayRef", [expr, subscript])
            elif tok.lexeme == "(":
                self._advance()
                args: list[AstNode] = []
                if not self._check(")"):
                    call_args = [self._assignment_expression()]
                    while self._accept(","):
                        call_args.append(self._assignment_expression())
                    args.append(_mk("ExprList", call_args))
                self._expect(")")
                expr = _mk("FuncCall", [expr] + args)
            elif tok.lexeme in (".", "->"):
                self._advance()
                self._expect_identifier()
                expr = _mk("StructRef", [expr, _mk("ID", [])])
            elif tok.lexeme in ("++", "--"):
                self._advance()
                expr = _mk("UnaryOp", [expr])
            else:
                break
        return expr

    def _primary_expression(self) -> AstNode:
        tok = self._peek()
        if tok.category == "identifier":
            self._advance()
            return _mk("ID", [])
        if tok.category == "constant":
            self._advance()
            return _mk("Constant", [])
        if tok.lexeme == "(":
            self._advance()
            expr = self._expression()
            self._expect(")")
            return expr
        raise self._unexpected("expression")

    def _initializer(self) -> AstNode:
        if self._accept("{"):
            items: list[AstNode] = []
            while not self._check("}"):
                items.append(self._initializer())
                if not self._accept(","):
                    break
            self._expect("}")
            return _mk("InitList", items)
        return self._assignment_expression()


def parse_program(tokens: list[Token]) -> AstNode:
    parser = Parser(tokens)
    try:
        return parser.parse_translation_unit()
    except RecursionError:
        raise parser._error("nesting too deep") from None


def parse_source(source: str) -> AstNode:
    return parse_program(tokenize(source))


def parse_file(path) -> AstNode:
    try:
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
    except UnicodeDecodeError as exc:
        # the first bad byte's position, with newlines read as open() reads them
        good = exc.object[: exc.start].decode("utf-8")
        good = good.replace("\r\n", "\n").replace("\r", "\n")
        line = good.count("\n") + 1
        raise CParseError("not valid UTF-8", line, len(good) - good.rfind("\n")) from None
    return parse_source(source)
