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
from typing import NamedTuple, Optional

from .ast_core import KIND_IDS, AstNode, NodeTable


def position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of `offset` in `source`, counted from the
    source each time: positions are read only by errors and tests."""
    start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, start) + 1, offset - start + 1


class Token(NamedTuple):
    # keyword | identifier | constant | operator | punctuation, or end: the
    # parser's end-of-input marker, placed just after the last real token
    category: str
    lexeme: str
    offset: int
    source: str

    @property
    def line(self) -> int:
        return position(self.source, self.offset)[0]

    @property
    def column(self) -> int:
        return position(self.source, self.offset)[1]


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
  | (?P<open_comment>/\*)
  | (?P<constant>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?[fFlL]?|\d+[eE][+-]?\d+[fFlL]?
      | (0[xX][0-9a-fA-F]+|\d+)([uU][lL]{0,2}|[lL]{1,2}[uU]?)?
      | '(\\.|[^\\'\n])+'
      | "(\\.|[^\\"\n])*")
  | (?P<identifier>[A-Za-z_]\w*)
  | (?P<operator>>>=|<<=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&^|]=|[+\-*/%<>=&|^!~?:.])
  | (?P<punctuation>[()\[\]{};,])
  | (?P<error>.)
    """,
    re.VERBOSE | re.DOTALL | re.ASCII,  # \s, \d and \w match ASCII characters only
)


def tokenize(source: str) -> list[Token]:
    """The tokens of `source`, by one scan: whitespace and comments are
    matched and dropped. A comment that is never closed matches
    `open_comment`, and the last alternative, `error`, matches the first
    character no token starts with; either stops the scan."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # Token(...) less the frame of its __new__
    for m in _TOKEN_RE.finditer(source):
        category = m.lastgroup
        if category == "skip":
            continue
        text = m[0]
        if text in KEYWORDS:  # only the identifier alternative matches one
            category = "keyword"
        elif category == "error" or category == "open_comment":
            raise _scan_error(m)
        append(new(Token, (category, text, m.start(), source)))
    return tokens


def _scan_error(m: re.Match) -> TokenizeError:
    """The error for a match of `open_comment` or `error`; a quote there
    starts no literal the constant alternative accepts."""
    text, start = m[0], m.start()
    if text == "/*":
        message = "unterminated comment"
    elif text == '"':
        message = "unterminated string literal"
    elif text == "'":
        empty = m.string.startswith("''", start)
        message = "empty character constant" if empty else "unterminated character constant"
    else:
        message = f"illegal character {text!r}"
    return TokenizeError(message, *position(m.string, start))


# Infix operators by level, lowest first; a higher level binds tighter.
# Assignment and ?: group right to left, the ten binary levels of the C
# standard left to right. The comma, below them all, is read by _expression at
# its lowest level only.
_COMMA, _ASSIGN, _TERNARY = range(3)
_INFIX = {
    op: prec
    for prec, ops in enumerate(
        ["= += -= *= /= %= &= ^= |= <<= >>=", "?", "||", "&&", "|", "^", "&",
         "== !=", "< > <= >=", "<< >>", "+ -", "* / %"],
        start=_ASSIGN,
    )
    for op in ops.split()
}

_UNARY_PREFIX = frozenset(["+", "-", "*", "&", "!", "~", "++", "--"])

# The deepest nesting the parser accepts: the calls to _statement, _expression,
# _modifiers, _initializer and _struct_union_enum_specifier open at once. Every
# recursive cycle in the parser passes through one of them and costs at most
# three interpreter frames a level, so a parse stays well inside Python's
# default recursion limit and its verdict does not depend on the caller's
# stack. C11 5.2.4.1 asks a compiler for at least 127 nested blocks and 63
# nested parenthesized expressions or struct definitions. Prefix operators,
# casts and left-associative operators are read in loops and are not counted.
MAX_NESTING = 200


class Parser:
    """One instance per parse; holds the token cursor and typedef-name table,
    and builds its nodes through `table` (a fresh one if not given)."""

    def __init__(self, tokens: list[Token], table: Optional[NodeTable] = None):
        # Two end tokens: lookahead is at most one token past the cursor, and
        # the cursor never moves past the first end token.
        last = tokens[-1] if tokens else Token("end", "", 0, "")
        end = Token("end", "", last.offset + len(last.lexeme), last.source)
        self.tokens = tokens + [end, end]
        self.pos = 0
        self.depth = 0  # the nesting levels open, up to MAX_NESTING
        self.typedefs: set[str] = set()
        self.table = table if table is not None else NodeTable()

    def _mk(self, kind_name: str, children: list[AstNode]) -> AstNode:
        return self.table.node(KIND_IDS[kind_name], children)

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

    def _nest(self) -> None:
        """Open one more nesting level. The method that opens it closes it as
        it returns; a failed parse leaves its levels open, as its parser is
        discarded."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error("nesting too deep")

    def _advance(self) -> Token:
        """Callers check the current token first, so it is never the end."""
        tok = self.tokens[self.pos]
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
        return self._mk("Root", items)

    def _declaration(self, allow_funcdef: bool = False) -> list[AstNode]:
        """Parse one declaration; returns one node per declarator (C expands
        'int x, y;' into separate Decl nodes)."""
        is_typedef, base = self._declaration_specifiers()

        # 'struct S { ... };' with no declarator
        if self._accept(";"):
            return [self._mk("Decl", [base])]

        nodes: list[AstNode] = []
        first = True
        while True:
            name, type_node = self._declarator(base)
            if is_typedef:
                self.typedefs.add(name)
                nodes.append(self._mk("Typedef", [type_node]))
            elif (
                allow_funcdef
                and first
                and type_node.kind == KIND_IDS["FuncDecl"]
                and self._check("{")
            ):
                body = self._compound_statement()
                decl = self._mk("Decl", [type_node])
                return [self._mk("FuncDef", [decl, body])]
            else:
                children = [type_node]
                if self._accept("="):
                    children.append(self._initializer())
                nodes.append(self._mk("Decl", children))
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
        return is_typedef, self._mk("IdentifierType", [])

    def _declarator_follows(self, off: int) -> bool:
        """Disambiguates 'T x;' (T is a typedef name) from 'x;' misread."""
        tok = self._peek(off)
        return tok.category == "identifier" or tok.lexeme in ("*", "(", ";", ",", ")", "[")

    def _struct_union_enum_specifier(self) -> AstNode:
        self._nest()
        tag = self._advance().lexeme  # struct | union | enum
        named = self._peek().category == "identifier"
        if named:
            self._advance()  # tag name, dropped
        children: list[AstNode] = []
        if self._accept("{"):
            if tag == "enum":
                enums: list[AstNode] = []
                while not self._check("}"):
                    self._expect_identifier()
                    value: list[AstNode] = []
                    if self._accept("="):
                        value.append(self._expression(_TERNARY))
                    enums.append(self._mk("Enumerator", value))
                    if not self._accept(","):
                        break
                children.append(self._mk("EnumeratorList", enums))
            else:
                while not self._check("}"):
                    children.extend(self._struct_member_declaration())
            self._expect("}")
        elif not named:
            raise self._error(f"anonymous {tag} requires a body")
        self.depth -= 1
        return self._mk(tag.capitalize(), children)

    def _struct_member_declaration(self) -> list[AstNode]:
        _, base = self._declaration_specifiers()
        members: list[AstNode] = []
        while True:
            members.append(self._mk("Decl", [self._declarator(base)[1]]))
            if self._accept(","):
                continue
            self._expect(";")
            return members

    # --- declarators ---

    def _declarator(
        self, base: AstNode, abstract: bool = False
    ) -> tuple[Optional[str], AstNode]:
        """Returns the declared name (None if abstract) and its type: the
        declarator's modifiers wrapped around TypeDecl(base)."""
        name, modifiers = self._modifiers(abstract)
        t = self._mk("TypeDecl", [base])
        for kind, before, after in modifiers:
            t = self._mk(kind, [*before, t, *after])
        return name, t

    def _modifiers(self, abstract: bool) -> tuple[Optional[str], list]:
        """Parses a declarator into its name and its modifiers, innermost first:
        (kind, children before the type, children after it) for each."""
        self._nest()
        modifiers = []
        while self._accept("*"):
            while self._peek().lexeme in QUALIFIERS:
                self._advance()
            modifiers.append(("PtrDecl", (), ()))

        name: Optional[str] = None
        nested = []  # a parenthesized declarator's modifiers wrap all of ours
        if self._peek().category == "identifier":
            name = self._advance().lexeme
        elif self._check("(") and self._nested_declarator_follows():
            self._advance()
            name, nested = self._modifiers(abstract)
            self._expect(")")
        elif not abstract:
            raise self._unexpected("declarator")

        suffixes = []
        while True:
            if self._accept("["):
                dim: list[AstNode] = []
                if not self._check("]"):
                    dim.append(self._expression(_ASSIGN))
                self._expect("]")
                suffixes.append(("ArrayDecl", (), dim))
            elif self._accept("("):
                params = self._parameter_list()
                self._expect(")")
                suffixes.append(("FuncDecl", [params] if params else [], ()))
            else:
                break
        self.depth -= 1
        return name, modifiers + suffixes[::-1] + nested

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
            name, type_node = self._declarator(base, abstract=True)
            if name is None:
                params.append(self._mk("Typename", [type_node]))
            else:
                params.append(self._mk("Decl", [type_node]))
            if not self._accept(","):
                break
        return self._mk("ParamList", params)

    def _type_name(self) -> AstNode:
        """A parenthesized type name, as in a cast or sizeof."""
        self._expect("(")
        _, base = self._declaration_specifiers()
        name, type_node = self._declarator(base, abstract=True)
        if name is not None:
            raise self._error("type name must not declare an identifier")
        self._expect(")")
        return self._mk("Typename", [type_node])

    # --- statements ---

    def _compound_statement(self, switch: bool = False) -> AstNode:
        """A block, or a switch body (`switch`): there the statements after a
        case or default label re-parent under it, as in the reference tree,
        and an open label is (kind, children) in `items` until the body ends."""
        self._expect("{")
        items: list = []
        into = items  # the list the next statement joins: the block's or a label's
        while not self._check("}"):
            if self._at_end():
                what = "switch body" if switch else "block"
                raise self._error(f"unterminated {what}", expected="'}'")
            if switch and self._accept("case"):
                into = [self._expression(_TERNARY)]
                self._expect(":")
                items.append(("Case", into))
            elif switch and self._accept("default"):
                self._expect(":")
                into = []
                items.append(("Default", into))
            elif self._starts_type():
                into.extend(self._declaration())
            else:
                into.append(self._statement())
        self._expect("}")
        if switch:
            items = [self._mk(*item) if item.__class__ is tuple else item for item in items]
        return self._mk("Compound", items)

    def _statement(self) -> AstNode:
        self._nest()
        tok = self._peek()
        if tok.category == "end":
            raise self._error("statement expected")
        lex = tok.lexeme
        if lex == "{":
            stmt = self._compound_statement()
        elif lex == ";":
            self._advance()
            stmt = self._mk("EmptyStatement", [])
        elif lex == "if":
            self._advance()
            children = [self._parenthesized(), self._statement()]
            if self._accept("else"):
                children.append(self._statement())
            stmt = self._mk("If", children)
        elif lex == "for":
            stmt = self._for_statement()
        elif lex == "while":
            self._advance()
            stmt = self._mk("While", [self._parenthesized(), self._statement()])
        elif lex == "do":
            self._advance()
            body = self._statement()
            self._expect("while")
            cond = self._parenthesized()
            self._expect(";")
            stmt = self._mk("DoWhile", [cond, body])
        elif lex == "switch":
            self._advance()
            cond = self._parenthesized()
            stmt = self._mk("Switch", [cond, self._compound_statement(switch=True)])
        elif lex == "break" or lex == "continue":
            self._advance()
            self._expect(";")
            stmt = self._mk(lex.capitalize(), [])
        elif lex == "goto":
            self._advance()
            self._expect_identifier()
            self._expect(";")
            stmt = self._mk("Goto", [])
        elif lex == "return":
            self._advance()
            expr: list[AstNode] = []
            if not self._check(";"):
                expr.append(self._expression())
            self._expect(";")
            stmt = self._mk("Return", expr)
        elif (
            tok.category == "identifier"
            and self._check(":", 1)
            and not self._is_typedef_name(tok)
        ):
            self._advance()
            self._advance()
            stmt = self._mk("Label", [self._statement()])
        else:
            stmt = self._expression()
            self._expect(";")
        self.depth -= 1
        return stmt

    def _parenthesized(self) -> AstNode:
        """The condition of an if, switch, while or do."""
        self._expect("(")
        expr = self._expression()
        self._expect(")")
        return expr

    def _for_statement(self) -> AstNode:
        self._expect("for")
        self._expect("(")
        children: list[AstNode] = []
        if self._starts_type():
            decls = self._declaration()  # consumes the ';'
            children.append(self._mk("DeclList", decls))
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
        return self._mk("For", children)

    # --- expressions ---

    def _expression(self, min_prec: int = _COMMA) -> AstNode:
        """Precedence climbing over _INFIX: an operand, then each infix
        operator of level min_prec or higher with its right operand. At the
        lowest level, a comma sequence collapses into one ExprList."""
        self._nest()
        left = self._operand()
        while True:
            prec = _INFIX.get(self._peek().lexeme)
            if prec is None or prec < min_prec:
                break
            self._advance()
            if prec == _ASSIGN:
                left = self._mk("Assignment", [left, self._expression(_ASSIGN)])
            elif prec == _TERNARY:
                iftrue = self._expression()
                self._expect(":")
                left = self._mk("TernaryOp", [left, iftrue, self._expression(_TERNARY)])
            else:
                left = self._mk("BinaryOp", [left, self._expression(prec + 1)])
        if min_prec == _COMMA and self._check(","):
            exprs = [left]
            while self._accept(","):
                exprs.append(self._expression(_ASSIGN))
            left = self._mk("ExprList", exprs)
        self.depth -= 1
        return left

    def _operand(self) -> AstNode:
        """A cast or unary expression. Its prefix operators and casts are read
        in a loop, outermost first, then folded around the primary expression
        and its postfix operators, innermost first, so they open no nesting
        level."""
        prefixes = []  # (kind, children before the operand), outermost first
        postfix = True  # sizeof(type) takes no postfix operator
        while True:
            tok = self._peek()
            if tok.lexeme == "(" and self._starts_type(1):
                type_name = self._type_name()
                if self._check("{"):
                    expr = self._mk("CompoundLiteral", [type_name, self._initializer()])
                    break
                prefixes.append(("Cast", [type_name]))
            elif tok.lexeme in _UNARY_PREFIX:
                self._advance()
                prefixes.append(("UnaryOp", []))
            elif tok.lexeme == "sizeof":
                self._advance()
                if self._check("(") and self._starts_type(1):
                    expr = self._mk("UnaryOp", [self._type_name()])
                    postfix = False
                    break
                prefixes.append(("UnaryOp", []))
            elif tok.category == "identifier" or tok.category == "constant":
                self._advance()
                expr = self._mk("ID" if tok.category == "identifier" else "Constant", [])
                break
            elif tok.lexeme == "(":
                self._advance()
                expr = self._expression()
                self._expect(")")
                break
            elif tok.category == "end":
                raise self._error("expression expected")
            else:
                raise self._unexpected("expression")
        while postfix:
            lex = self._peek().lexeme
            if lex == "[":
                self._advance()
                subscript = self._expression()
                self._expect("]")
                expr = self._mk("ArrayRef", [expr, subscript])
            elif lex == "(":
                self._advance()
                args: list[AstNode] = []
                if not self._check(")"):
                    call_args = [self._expression(_ASSIGN)]
                    while self._accept(","):
                        call_args.append(self._expression(_ASSIGN))
                    args.append(self._mk("ExprList", call_args))
                self._expect(")")
                expr = self._mk("FuncCall", [expr] + args)
            elif lex in (".", "->"):
                self._advance()
                self._expect_identifier()
                expr = self._mk("StructRef", [expr, self._mk("ID", [])])
            elif lex in ("++", "--"):
                self._advance()
                expr = self._mk("UnaryOp", [expr])
            else:
                break
        for kind, before in reversed(prefixes):
            expr = self._mk(kind, [*before, expr])
        return expr

    def _initializer(self) -> AstNode:
        self._nest()
        if self._accept("{"):
            items: list[AstNode] = []
            while not self._check("}"):
                items.append(self._initializer())
                if not self._accept(","):
                    break
            self._expect("}")
            init = self._mk("InitList", items)
        else:
            init = self._expression(_ASSIGN)
        self.depth -= 1
        return init


def parse_program(tokens: list[Token], table: Optional[NodeTable] = None) -> AstNode:
    """Parse a token list; the tree's nodes come from `table`, so trees parsed
    through one table share their equal subtrees."""
    parser = Parser(tokens, table)
    try:
        return parser.parse_translation_unit()
    except RecursionError:
        # a backstop only: MAX_NESTING stops a parse first, unless the
        # caller's own stack is already near the recursion limit
        raise parser._error("nesting too deep") from None


def parse_source(source: str, table: Optional[NodeTable] = None) -> AstNode:
    return parse_program(tokenize(source), table)


def read_source(path) -> str:
    """The text of a source file, read as `open` reads UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # the first bad byte's position, with newlines read as open() reads them
        good = exc.object[: exc.start].decode("utf-8")
        good = good.replace("\r\n", "\n").replace("\r", "\n")
        raise CParseError("not valid UTF-8", *position(good, len(good))) from None


def parse_file(path) -> AstNode:
    return parse_source(read_source(path))


class ParseMemo:
    """`parse_source` through a table of its own, once per distinct source
    text.

    Calling it with a text seen before returns the tree made the first time,
    or raises a copy of the error raised then. `parsed` maps each text to its
    tree or its error; an error is stored without its traceback, so it keeps
    no parser frame or token alive.
    """

    def __init__(self):
        self.table = NodeTable()
        self.parsed: dict[str, AstNode | CParseError] = {}

    def __call__(self, source: str) -> AstNode:
        found = self.parsed.get(source)
        if found is None:
            try:
                found = parse_source(source, self.table)
            except CParseError as exc:
                found = exc.with_traceback(None)
            self.parsed[source] = found
        if found.__class__ is AstNode:
            return found
        raise found.__class__(found.message, found.line, found.column, found.expected)
