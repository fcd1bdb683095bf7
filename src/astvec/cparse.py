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
from itertools import islice
from types import SimpleNamespace
from typing import Optional

from .ast_core import KIND_IDS, LEAVES, AstNode, NodeTable, normalize_newlines


def position(source: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, column) of `offset` in `source`, counted from the
    source each time: positions are read only by errors and tests."""
    start = source.rfind("\n", 0, offset) + 1
    return source.count("\n", 0, start) + 1, offset - start + 1


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

# The token categories, in the order the scan tries them; no alternative
# matches where one before it does.
_IDENTIFIER = r"[A-Za-z_]\w*"
_PUNCTUATION = r"[()\[\]{};,]"
_CONSTANT = r"""
    (?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?[fFlL]? | \d+[eE][+-]?\d+[fFlL]?
  | (?:0[xX][0-9a-fA-F]+|\d+)(?:[uU][lL]{0,2}|[lL]{1,2}[uU]?)?
  | '(?:\\.|[^\\'\n])+' | "(?:\\.|[^\\"\n])*"
"""
_OPERATOR = r">>=|<<=|\.\.\.|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&^|]=|[+\-*/%<>=&|^!~?:.]"
_FLAGS = re.VERBOSE | re.DOTALL | re.ASCII  # \s, \d and \w match ASCII characters only
# A lexeme is a token if it matches this whole; its category, keywords
# aside, is the name of the group that matches.
_TOKEN_RE = re.compile(
    f"(?P<identifier>{_IDENTIFIER}) | (?P<punctuation>{_PUNCTUATION})"
    f" | (?P<constant>{_CONSTANT}) | (?P<operator>{_OPERATOR})",
    _FLAGS,
)

# Whitespace and comments, then one lexeme, captured: a token, or else the
# rest of the text from a comment never closed (tried before the operator
# `/`) or from a character that starts no token, or else the empty end of
# the text. No scan position fails to match, so a scan that meets trailing
# whitespace never starts again one character later, and one that meets an
# error reads nothing past it; and the capture always matches where the
# skip stops, so the skip is never backtracked into. The scan is linear in
# the text.
_LEX_RE = re.compile(
    rf"(?:\s+|//[^\n]*|/\*.*?\*/)* ({_IDENTIFIER}|{_PUNCTUATION}|{_CONSTANT}"
    rf"| /\*.* |{_OPERATOR}| .+ | \Z)",
    _FLAGS,
)


class Tokens(list):
    """The lexemes of `source` in order, each token its own spelling: its
    category is `category(lexeme)`, its place `offsets(tokens)`."""

    __slots__ = ("source",)


def tokenize(source: str) -> Tokens:
    """The tokens of `source`, by one `findall` of `_LEX_RE`. Only the last
    lexeme can be an error, which then runs to the end of the text: it is
    checked, and raised as a `TokenizeError`, before any token is returned."""
    lexemes = _LEX_RE.findall(source)
    lexemes.pop()  # \Z, at the end of the text
    if lexemes and not lexemes[-1]:
        lexemes.pop()  # \Z after skip text: the text's end was matched twice
    if lexemes and _TOKEN_RE.fullmatch(lexemes[-1]) is None:
        raise _scan_error(source, lexemes[-1])
    tokens = Tokens(lexemes)
    tokens.source = source
    return tokens


def _scan_error(source: str, rest: str) -> TokenizeError:
    """The error for the text's `rest`, which no token starts: a comment
    never closed, a quote that opens no literal the constant alternative
    accepts, or an illegal character."""
    if rest.startswith("/*"):
        message = "unterminated comment"
    elif rest[0] == '"':
        message = "unterminated string literal"
    elif rest[0] == "'":
        empty = rest.startswith("''")
        message = "empty character constant" if empty else "unterminated character constant"
    else:
        message = f"illegal character {rest[0]!r}"
    return TokenizeError(message, *position(source, len(source) - len(rest)))


def category(lexeme: str) -> str:
    """A token's category, from its lexeme alone: keyword, identifier,
    constant, operator or punctuation."""
    if lexeme in KEYWORDS:
        return "keyword"
    return _TOKEN_RE.fullmatch(lexeme).lastgroup


def offsets(tokens: Tokens) -> list[int]:
    """Where each token starts in `tokens.source`, then where the last one
    ends (0 if there is none): found by scanning the source again, since only
    errors and tests read them."""
    matches = list(islice(_LEX_RE.finditer(tokens.source), len(tokens)))
    return [m.start(1) for m in matches] + [matches[-1].end(1) if matches else 0]


# Each node kind's id, by name, as _K.Decl.
_K = SimpleNamespace(**KIND_IDS)
_TAG_KINDS = {"struct": _K.Struct, "union": _K.Union, "enum": _K.Enum}
# The leaves the parser puts in place itself, without a table call.
_ID_LEAF, _CONSTANT_LEAF, _TYPE_LEAF, _EMPTY_LEAF, _GOTO_LEAF = (
    LEAVES[_K.ID], LEAVES[_K.Constant], LEAVES[_K.IdentifierType],
    LEAVES[_K.EmptyStatement], LEAVES[_K.Goto])
_JUMP_LEAVES = {"break": LEAVES[_K.Break], "continue": LEAVES[_K.Continue]}

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
# the keywords that start a type; a typedef name does too
_TYPE_START = BASE_TYPE_KEYWORDS | QUALIFIERS | {"struct", "union", "enum", "typedef"}

# The deepest nesting the parser accepts: the calls to _statement, _expression,
# _modifiers, _initializer and _struct_union_enum_specifier open at once. Every
# recursive cycle in the parser passes through one of them and costs at most
# three interpreter frames a level, so a parse stays well inside Python's
# default recursion limit and its verdict does not depend on the caller's
# stack. C11 5.2.4.1 asks a compiler for at least 127 nested blocks and 63
# nested parenthesized expressions or struct definitions. Prefix operators,
# casts and left-associative operators are read in loops and are not counted.
MAX_NESTING = 200


def _is_identifier(lexeme: str) -> bool:
    return lexeme not in KEYWORDS and lexeme.isidentifier()


class Parser:
    """One instance per parse; holds the token cursor and typedef-name table,
    and builds its nodes through `table` (a fresh one if not given)."""

    def __init__(self, tokens: Tokens, table: Optional[NodeTable] = None):
        self.tokens = tokens
        # Two end tokens, the empty lexeme: lookahead is at most one token
        # past the cursor, and the cursor never moves past the first one.
        self.lex = tokens + ["", ""]
        self.pos = 0
        self.depth = 0  # the nesting levels open, up to MAX_NESTING
        self.typedefs: set[str] = set()
        self.node = (table if table is not None else NodeTable()).node

    # --- cursor helpers ---

    def _error(self, message: str, expected: str = "") -> CParseError:
        if not self.lex[self.pos]:
            message = "unexpected end of input" + (message and ": " + message)
        at = offsets(self.tokens)[self.pos]
        return CParseError(message, *position(self.tokens.source, at), expected)

    def _nest(self) -> None:
        """Open one more nesting level. The method that opens it closes it as
        it returns; a failed parse leaves its levels open, as its parser is
        discarded."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self._error("nesting too deep")

    def _accept(self, lexeme: str) -> bool:
        if self.lex[self.pos] == lexeme:
            self.pos += 1
            return True
        return False

    def _unexpected(self, expected: str) -> CParseError:
        tok = self.lex[self.pos]
        if not tok:  # _error names the end of input
            return self._error("", expected)
        return self._error(f"unexpected {category(tok)} {tok!r}", expected)

    def _expect(self, lexeme: str) -> None:
        if self.lex[self.pos] != lexeme:
            raise self._unexpected(repr(lexeme))
        self.pos += 1

    def _expect_identifier(self) -> None:
        if not _is_identifier(self.lex[self.pos]):
            raise self._unexpected("identifier")
        self.pos += 1

    # --- type detection ---

    def _starts_type(self, off: int = 0) -> bool:
        tok = self.lex[self.pos + off]
        return tok in _TYPE_START or tok in self.typedefs

    # --- top level ---

    def parse_translation_unit(self) -> AstNode:
        items: list[AstNode] = []
        while self.lex[self.pos]:
            items.extend(self._declaration(allow_funcdef=True))
        return self.node(_K.Root, items)

    def _declaration(self, allow_funcdef: bool = False) -> list[AstNode]:
        """Parse one declaration; returns one node per declarator (C expands
        'int x, y;' into separate Decl nodes)."""
        node = self.node
        is_typedef, base = self._declaration_specifiers()

        # 'struct S { ... };' with no declarator
        if self._accept(";"):
            return [node(_K.Decl, (base,))]

        nodes: list[AstNode] = []
        first = True
        while True:
            name, type_node = self._declarator(base)
            if is_typedef:
                self.typedefs.add(name)
                nodes.append(node(_K.Typedef, (type_node,)))
            elif (
                allow_funcdef
                and first
                and type_node.kind == _K.FuncDecl
                and self.lex[self.pos] == "{"
            ):
                body = self._compound_statement()
                decl = node(_K.Decl, (type_node,))
                return [node(_K.FuncDef, (decl, body))]
            else:
                children = [type_node]
                if self._accept("="):
                    children.append(self._initializer())
                nodes.append(node(_K.Decl, children))
            first = False
            if self._accept(","):
                continue
            self._expect(";")
            return nodes

    def _declaration_specifiers(self) -> tuple[bool, AstNode]:
        """Returns (is_typedef, base type node: IdentifierType/Struct/Union/Enum)."""
        lex = self.lex
        is_typedef = False
        has_base = False  # a base type keyword or a typedef name was read
        tag_node: Optional[AstNode] = None
        while True:
            tok = lex[self.pos]
            if tok == "typedef":
                is_typedef = True
                self.pos += 1
            elif tok in QUALIFIERS:
                self.pos += 1
            elif tok in BASE_TYPE_KEYWORDS:
                has_base = True
                self.pos += 1
            elif tok in _TAG_KINDS and tag_node is None and not has_base:
                tag_node = self._struct_union_enum_specifier()
            elif (
                tok in self.typedefs
                and tag_node is None
                and not has_base
                and self._declarator_follows(lex[self.pos + 1])
            ):
                has_base = True
                self.pos += 1
            else:
                break
        if tag_node is not None:
            return is_typedef, tag_node
        if not has_base:
            raise self._unexpected("type specifier")
        return is_typedef, _TYPE_LEAF

    @staticmethod
    def _declarator_follows(tok: str) -> bool:
        """Disambiguates 'T x;' (T is a typedef name) from 'x;' misread."""
        return tok in ("*", "(", ";", ",", ")", "[") or _is_identifier(tok)

    def _struct_union_enum_specifier(self) -> AstNode:
        self._nest()
        lex = self.lex
        tag = lex[self.pos]  # struct | union | enum
        self.pos += 1
        named = _is_identifier(lex[self.pos])
        if named:
            self.pos += 1  # tag name, dropped
        children: list[AstNode] = []
        if self._accept("{"):
            if tag == "enum":
                enums: list[AstNode] = []
                while lex[self.pos] != "}":
                    self._expect_identifier()
                    value: list[AstNode] = []
                    if self._accept("="):
                        value.append(self._expression(_TERNARY))
                    enums.append(self.node(_K.Enumerator, value))
                    if not self._accept(","):
                        break
                children.append(self.node(_K.EnumeratorList, enums))
            else:
                while lex[self.pos] != "}":
                    children.extend(self._struct_member_declaration())
            self._expect("}")
        elif not named:
            raise self._error(f"anonymous {tag} requires a body")
        self.depth -= 1
        return self.node(_TAG_KINDS[tag], children)

    def _struct_member_declaration(self) -> list[AstNode]:
        _, base = self._declaration_specifiers()
        members: list[AstNode] = []
        while True:
            members.append(self.node(_K.Decl, (self._declarator(base)[1],)))
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
        node = self.node
        name, modifiers = self._modifiers(abstract)
        t = node(_K.TypeDecl, (base,))
        for kind, before, after in modifiers:
            t = node(kind, (*before, t, *after))
        return name, t

    def _modifiers(self, abstract: bool) -> tuple[Optional[str], list]:
        """Parses a declarator into its name and its modifiers, innermost first:
        (kind, children before the type, children after it) for each."""
        self._nest()
        lex = self.lex
        modifiers = []
        while self._accept("*"):
            while lex[self.pos] in QUALIFIERS:
                self.pos += 1
            modifiers.append((_K.PtrDecl, (), ()))

        name: Optional[str] = None
        nested = []  # a parenthesized declarator's modifiers wrap all of ours
        tok = lex[self.pos]
        if _is_identifier(tok):
            name = tok
            self.pos += 1
        elif tok == "(" and self._nested_declarator_follows():
            self.pos += 1
            name, nested = self._modifiers(abstract)
            self._expect(")")
        elif not abstract:
            raise self._unexpected("declarator")

        suffixes = []
        while True:
            if self._accept("["):
                dim: list[AstNode] = []
                if lex[self.pos] != "]":
                    dim.append(self._expression(_ASSIGN))
                self._expect("]")
                suffixes.append((_K.ArrayDecl, (), dim))
            elif self._accept("("):
                params = self._parameter_list()
                self._expect(")")
                suffixes.append((_K.FuncDecl, [params] if params else [], ()))
            else:
                break
        self.depth -= 1
        return name, modifiers + suffixes[::-1] + nested

    def _nested_declarator_follows(self) -> bool:
        """After '(', distinguish a parenthesized declarator from a parameter
        list (for abstract declarators in type names)."""
        tok = self.lex[self.pos + 1]
        return tok in ("*", "(") or _is_identifier(tok) and tok not in self.typedefs

    def _parameter_list(self) -> Optional[AstNode]:
        if self.lex[self.pos] == ")":
            return None
        params: list[AstNode] = []
        while True:
            _, base = self._declaration_specifiers()
            name, type_node = self._declarator(base, abstract=True)
            params.append(self.node(_K.Typename if name is None else _K.Decl, (type_node,)))
            if not self._accept(","):
                break
        return self.node(_K.ParamList, params)

    def _type_name(self) -> AstNode:
        """A parenthesized type name, as in a cast or sizeof."""
        self._expect("(")
        _, base = self._declaration_specifiers()
        name, type_node = self._declarator(base, abstract=True)
        if name is not None:
            raise self._error("type name must not declare an identifier")
        self._expect(")")
        return self.node(_K.Typename, (type_node,))

    # --- statements ---

    def _compound_statement(self, switch: bool = False) -> AstNode:
        """A block, or a switch body (`switch`): there the statements after a
        case or default label re-parent under it, as in the reference tree,
        and an open label is (kind, children) in `items` until the body ends."""
        self._expect("{")
        lex = self.lex
        items: list = []
        into = items  # the list the next statement joins: the block's or a label's
        while True:
            tok = lex[self.pos]
            if tok == "}":
                break
            if not tok:
                what = "switch body" if switch else "block"
                raise self._error(f"unterminated {what}", expected="'}'")
            if switch and tok == "case":
                self.pos += 1
                into = [self._expression(_TERNARY)]
                self._expect(":")
                items.append((_K.Case, into))
            elif switch and tok == "default":
                self.pos += 1
                self._expect(":")
                into = []
                items.append((_K.Default, into))
            elif self._starts_type():
                into.extend(self._declaration())
            else:
                into.append(self._statement())
        self.pos += 1
        if switch:
            items = [self.node(*item) if item.__class__ is tuple else item for item in items]
        return self.node(_K.Compound, items)

    def _statement(self) -> AstNode:
        self._nest()
        node = self.node
        lex = self.lex
        tok = lex[self.pos]
        if not tok:
            raise self._error("statement expected")
        if tok == "{":
            stmt = self._compound_statement()
        elif tok == ";":
            self.pos += 1
            stmt = _EMPTY_LEAF
        elif tok == "if":
            self.pos += 1
            children = [self._parenthesized(), self._statement()]
            if self._accept("else"):
                children.append(self._statement())
            stmt = node(_K.If, children)
        elif tok == "for":
            stmt = self._for_statement()
        elif tok == "while":
            self.pos += 1
            stmt = node(_K.While, (self._parenthesized(), self._statement()))
        elif tok == "do":
            self.pos += 1
            body = self._statement()
            self._expect("while")
            cond = self._parenthesized()
            self._expect(";")
            stmt = node(_K.DoWhile, (cond, body))
        elif tok == "switch":
            self.pos += 1
            cond = self._parenthesized()
            stmt = node(_K.Switch, (cond, self._compound_statement(switch=True)))
        elif tok in _JUMP_LEAVES:
            self.pos += 1
            self._expect(";")
            stmt = _JUMP_LEAVES[tok]
        elif tok == "goto":
            self.pos += 1
            self._expect_identifier()
            self._expect(";")
            stmt = _GOTO_LEAF
        elif tok == "return":
            self.pos += 1
            expr: list[AstNode] = []
            if lex[self.pos] != ";":
                expr.append(self._expression())
            self._expect(";")
            stmt = node(_K.Return, expr)
        elif lex[self.pos + 1] == ":" and _is_identifier(tok) and tok not in self.typedefs:
            self.pos += 2
            stmt = node(_K.Label, (self._statement(),))
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
        lex = self.lex
        children: list[AstNode] = []
        if self._starts_type():
            decls = self._declaration()  # consumes the ';'
            children.append(self.node(_K.DeclList, decls))
        elif self._accept(";"):
            pass
        else:
            children.append(self._expression())
            self._expect(";")
        if lex[self.pos] != ";":
            children.append(self._expression())
        self._expect(";")
        if lex[self.pos] != ")":
            children.append(self._expression())
        self._expect(")")
        children.append(self._statement())
        return self.node(_K.For, children)

    # --- expressions ---

    def _expression(self, min_prec: int = _COMMA) -> AstNode:
        """Precedence climbing over _INFIX: an operand, then each infix
        operator of level min_prec or higher with its right operand. At the
        lowest level, a comma sequence collapses into one ExprList."""
        self._nest()
        node = self.node
        lex = self.lex
        left = self._operand()
        while True:
            prec = _INFIX.get(lex[self.pos])
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            if prec == _ASSIGN:
                left = node(_K.Assignment, (left, self._expression(_ASSIGN)))
            elif prec == _TERNARY:
                iftrue = self._expression()
                self._expect(":")
                left = node(_K.TernaryOp, (left, iftrue, self._expression(_TERNARY)))
            else:
                left = node(_K.BinaryOp, (left, self._expression(prec + 1)))
        if min_prec == _COMMA and lex[self.pos] == ",":
            exprs = [left]
            while self._accept(","):
                exprs.append(self._expression(_ASSIGN))
            left = node(_K.ExprList, exprs)
        self.depth -= 1
        return left

    def _operand(self) -> AstNode:
        """A cast or unary expression. Its prefix operators and casts are read
        in a loop, outermost first, then folded around the primary expression
        and its postfix operators, innermost first, so they open no nesting
        level."""
        node = self.node
        lex = self.lex
        prefixes = []  # (kind, a cast's type name or None), outermost first
        postfix = True  # sizeof(type) takes no postfix operator
        while True:
            tok = lex[self.pos]
            if _is_identifier(tok):
                self.pos += 1
                expr = _ID_LEAF
                break
            elif tok == "(":
                if self._starts_type(1):
                    type_name = self._type_name()
                    if lex[self.pos] == "{":
                        expr = node(_K.CompoundLiteral, (type_name, self._initializer()))
                        break
                    prefixes.append((_K.Cast, type_name))
                    continue
                self.pos += 1
                expr = self._expression()
                self._expect(")")
                break
            elif tok in _UNARY_PREFIX:
                self.pos += 1
                prefixes.append((_K.UnaryOp, None))
            elif tok == "sizeof":
                self.pos += 1
                if lex[self.pos] == "(" and self._starts_type(1):
                    expr = node(_K.UnaryOp, (self._type_name(),))
                    postfix = False
                    break
                prefixes.append((_K.UnaryOp, None))
            elif not tok:
                raise self._error("expression expected")
            elif category(tok) == "constant":
                self.pos += 1
                expr = _CONSTANT_LEAF
                break
            else:
                raise self._unexpected("expression")
        while postfix:
            tok = lex[self.pos]
            if tok == "[":
                self.pos += 1
                subscript = self._expression()
                self._expect("]")
                expr = node(_K.ArrayRef, (expr, subscript))
            elif tok == "(":
                self.pos += 1
                children = [expr]
                if lex[self.pos] != ")":
                    call_args = [self._expression(_ASSIGN)]
                    while self._accept(","):
                        call_args.append(self._expression(_ASSIGN))
                    children.append(node(_K.ExprList, call_args))
                self._expect(")")
                expr = node(_K.FuncCall, children)
            elif tok == "." or tok == "->":
                self.pos += 1
                self._expect_identifier()
                expr = node(_K.StructRef, (expr, _ID_LEAF))
            elif tok == "++" or tok == "--":
                self.pos += 1
                expr = node(_K.UnaryOp, (expr,))
            else:
                break
        for kind, before in reversed(prefixes):
            expr = node(kind, (expr,) if before is None else (before, expr))
        return expr

    def _initializer(self) -> AstNode:
        self._nest()
        if self._accept("{"):
            items: list[AstNode] = []
            while self.lex[self.pos] != "}":
                items.append(self._initializer())
                if not self._accept(","):
                    break
            self._expect("}")
            init = self.node(_K.InitList, items)
        else:
            init = self._expression(_ASSIGN)
        self.depth -= 1
        return init


def parse_program(tokens: Tokens, table: Optional[NodeTable] = None) -> AstNode:
    """Parse the tokens of one source; the tree's nodes come from `table`,
    so trees parsed through one table share their equal subtrees."""
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
    """The text of a source file, as `open` reads UTF-8 text: decoded, with
    "\\r\\n" and "\\r" read as "\\n". The file is read whole, unbuffered."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    try:
        return normalize_newlines(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # the first bad byte's position, with newlines read as open() reads them
        good = normalize_newlines(data[: exc.start].decode("utf-8"))
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
