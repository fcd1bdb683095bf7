"""AST node-kind vocabulary, tree structure, and the JSON interchange format.

Trees keep only node kinds and shape: identifier names, literal values and
operator lexemes are dropped at ingestion, so two programs differing only in
naming produce identical trees.

Parsing and loading build trees through a `NodeTable`, which hash-conses them:
a corpus built through one table holds one `AstNode` per distinct subtree, and
equal subtrees are the same object.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import accumulate
from json.decoder import scanstring

# Closed, ordered vocabulary of node kinds. Index in this tuple is the kind id
# and must stay stable: embedding tables, checkpoints and fixtures rely on it.
KIND_NAMES: tuple[str, ...] = (
    "ID",
    "Constant",
    "BinaryOp",
    "UnaryOp",
    "ArrayRef",
    "Assignment",
    "StructRef",
    "ExprList",
    "FuncCall",
    "Cast",
    "TernaryOp",
    "CompoundLiteral",
    "If",
    "For",
    "While",
    "DoWhile",
    "Break",
    "Continue",
    "Case",
    "Default",
    "Switch",
    "Goto",
    "Label",
    "Return",
    "Compound",
    "EmptyStatement",
    "FuncDef",
    "Decl",
    "DeclList",
    "TypeDecl",
    "FuncDecl",
    "ArrayDecl",
    "PtrDecl",
    "ParamList",
    "IdentifierType",
    "Typedef",
    "Typename",
    "Struct",
    "Union",
    "Enum",
    "Enumerator",
    "EnumeratorList",
    "InitList",
    "Root",
)

VOCAB_SIZE = len(KIND_NAMES)

# A kind is its id everywhere inside the package; names are looked up here
# where text comes in, and in `KIND_NAMES` where text goes out.
KIND_IDS: dict[str, int] = {name: i for i, name in enumerate(KIND_NAMES)}


def kind_by_name(name: str) -> int:
    """The id of the kind named `name`; raises UnknownKindError if absent."""
    try:
        return KIND_IDS[name]
    except KeyError:
        raise UnknownKindError(name) from None


class AstFormatError(ValueError):
    """Malformed AST interchange document."""


class UnknownKindError(AstFormatError):
    """A kind name outside the closed vocabulary."""

    def __init__(self, name: str, path: str = ""):
        self.kind_name = name
        self.path = path
        where = f" at {path}" if path else ""
        super().__init__(f"unknown node kind {name!r}{where}")


@dataclass(frozen=True, init=False)
class AstNode:
    """Ordered, immutable tree of node kinds, each kind its id (its index in
    `KIND_NAMES`). Immutability is what lets a `NodeTable` share one node
    between many parents and trees.

    `leaves` is set from the children when the node is made, so through a
    table once per distinct subtree. It takes no part in equality, hash or
    repr.
    """

    kind: int
    children: tuple["AstNode", ...] = ()
    leaves: int = field(init=False, compare=False, repr=False)

    def __init__(self, kind: int, children: tuple["AstNode", ...] = ()):
        # sets every field itself, so a node costs no __post_init__ call
        leaves = 0
        for child in children:
            leaves += child.leaves
        put = object.__setattr__
        put(self, "kind", kind)
        put(self, "children", children)
        put(self, "leaves", leaves or 1)


# The one leaf of each kind, by kind id: every table, the parser and the
# loaders give these, so a leaf of one kind is one object everywhere.
LEAVES: tuple[AstNode, ...] = tuple(AstNode(kind) for kind in range(VOCAB_SIZE))


class NodeTable:
    """Hash-consing constructor: one `AstNode` per distinct (kind, children).

    A node with no children is `LEAVES[kind]`, and is not stored. Any other
    is keyed by its kind id and the identities of its children. Built
    bottom-up through one table, equal subtrees are therefore the same object.
    The table keeps every node it made alive, so no identity in a key is ever
    reused while the table exists.
    """

    def __init__(self):
        self._nodes: dict[tuple, AstNode] = {}

    def node(self, kind: int, children) -> AstNode:
        if not children:
            return LEAVES[kind]
        key = (kind, *map(id, children))
        found = self._nodes.get(key)
        if found is None:
            found = self._nodes[key] = AstNode(kind, tuple(children))
        return found


@dataclass(frozen=True)
class LabeledProgram:
    ast: AstNode
    label: str
    source_id: str


_LEAF_JSON = tuple(f'{{"kind":"{name}","children":[]}}' for name in KIND_NAMES)
_OPEN_JSON = tuple(f'{{"kind":"{name}","children":[' for name in KIND_NAMES)


def _dump_tree(root: AstNode, out: list[str], spans: dict) -> None:
    """Append the canonical JSON of `root` to `out`. An explicit stack of
    nodes, closing text and node ends, so any depth dumps.

    `spans` maps the id of each non-leaf node dumped into `out` to its pieces'
    (start, end) there. A node that comes up again copies them, joined into
    one string the first time, instead of being walked again, so a dump
    walks each distinct subtree once. The caller keeps the nodes alive, so no
    id is reused meanwhile.
    """
    stack: list = [root]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        if item.__class__ is tuple:  # the end of a node: (its id, its start)
            out.append("]}")
            spans[item[0]] = item[1], len(out)
            continue
        kids = item.children
        if not kids:
            out.append(_LEAF_JSON[item.kind])
            continue
        span = spans.get(id(item))
        if span is not None:
            if span.__class__ is tuple:
                span = spans[id(item)] = "".join(out[span[0]:span[1]])
            out.append(span)
            continue
        stack.append((id(item), len(out)))
        out.append(_OPEN_JSON[item.kind])
        # pushed last child first, so they pop in order with commas between
        for child in kids[:0:-1]:
            stack.append(child)
            stack.append(",")
        stack.append(kids[0])


def _from_obj(obj: object, path: str, table: NodeTable) -> AstNode:
    """The tree a decoded document describes, built through `table`.

    This walk defines what is valid, and the message and path of every
    error. It checks objects in preorder with an explicit stack, so any depth
    works. It then builds the trees in reverse preorder, where each object's
    children are the last trees built.
    """
    stack = [(obj, path)]
    preorder: list = []  # (kind id, number of children) of each object
    while stack:
        obj, path = stack.pop()
        where = path or "root"
        if not isinstance(obj, dict):
            raise AstFormatError(f"expected object at {where}, got {type(obj).__name__}")
        if "kind" not in obj:
            raise AstFormatError(f"missing 'kind' at {where}")
        name = obj["kind"]
        if not isinstance(name, str):
            raise AstFormatError(f"'kind' must be a string at {where}")
        kind = KIND_IDS.get(name)
        if kind is None:
            raise UnknownKindError(name, where)
        children = obj.get("children", [])
        if not isinstance(children, list):
            raise AstFormatError(f"'children' must be an array at {where}")
        preorder.append((kind, len(children)))
        prefix = f"{path}/" if path else ""
        stack.extend((children[i], f"{prefix}{i}") for i in reversed(range(len(children))))
    built: list[AstNode] = []
    for kind, n in reversed(preorder):
        first = len(built) - n
        node = table.node(kind, built[first:][::-1])
        del built[first:]
        built.append(node)
    return built[0]


def dump_ast(root: AstNode) -> str:
    """Canonical serialization: compact JSON, fixed key order, no trailing newline.

    Byte equality of dumps implies tree equality.
    """
    out: list[str] = []
    _dump_tree(root, out, {})
    return "".join(out)


_NODE_START = '{"kind":"'
_CHILDREN_START = '","children":['


def _piece(piece: str):
    """What a piece of canonical text between two `{"kind":"` means, as
    (kind, leaf, closes, comma): `leaf` is None for a node whose children
    follow, else the leaf of `LEAVES`, which `closes` more "]}" and then, if
    `comma`, a sibling follow. None for a piece canonical text never holds."""
    name, sep, rest = piece.partition(_CHILDREN_START)
    kind = KIND_IDS.get(name)
    if kind is None or not sep:
        return None
    if not rest:
        return kind, None, 0, False
    comma = rest.endswith(",")
    if comma:
        rest = rest[:-1]
    closes = len(rest) // 2
    if not closes or rest != "]}" * closes:
        return None
    return kind, LEAVES[kind], closes - 1, comma


def _read_canonical(text: str, table: NodeTable, pieces: dict):
    """The tree `text` is `dump_ast`'s output for, built through `table`;
    None for any other text.

    The text is split on `{"kind":"`, and `pieces` caches what each distinct
    piece means (see `_piece`). The tree is built bottom-up with an explicit
    stack of open nodes, each node looked up under the key `NodeTable.node`
    uses; `pieces` holds only leaves of `LEAVES`, so any table may share it.
    """
    nodes = table._nodes
    parts = iter(text.split(_NODE_START))
    if next(parts):  # the text must start with a node
        return None
    # the innermost open node, (kind, its children read), is in locals; the
    # stack holds the nodes around it, and at its bottom (None, None), which
    # the outermost node's close pops back: `kids` is None when none is open
    stack: list = []
    kind = kids = None
    for piece in parts:
        info = pieces.get(piece)
        if info is None:
            info = _piece(piece)
            if info is None:
                return None
            pieces[piece] = info
        opened, node, closes, comma = info
        if node is None:
            stack.append((kind, kids))
            kind, kids = opened, []
            continue
        while closes:
            if kids is None:
                return None
            kids.append(node)
            key = (kind, *map(id, kids))
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = AstNode(kind, tuple(kids))
            kind, kids = stack.pop()
            closes -= 1
        if not comma:
            break
        if kids is None:
            return None
        kids.append(node)
    else:  # the text ended inside a node, or after a comma
        return None
    if kids is not None or next(parts, None) is not None:
        return None
    return node


# The most JSON containers, objects and arrays, that text read by `json.loads`
# may hold open at once; a node document opens two per level, so 200 levels.
# The decoder recurses once per container, and 400 frames stay well inside
# Python's default recursion limit of 1,000 even from a caller 300 frames
# deep, so a verdict does not depend on the caller's stack. Canonical text is
# read without recursion, at any height.
MAX_JSON_NESTING = 400

# a string, or an unterminated one to the end of the text, found as ""; or
# a bracket, found as itself. The closing `"?` always matches, so the scan
# never backtracks into a string and stays linear.
_JSON_BRACKET_RE = re.compile(r'"(?:[^"\\]+|\\.)*"?|([][{}])', re.DOTALL)
_BRACKET_STEP = {"": 0, "[": 1, "{": 1, "]": -1, "}": -1}


def _nesting(text: str) -> int:
    """The most containers open at once in `text`, counted outside strings."""
    steps = map(_BRACKET_STEP.__getitem__, _JSON_BRACKET_RE.findall(text))
    return max(accumulate(steps), default=0)


def _decode(text: str, where: str = "") -> object:
    """`json.loads(text)`; a failure raises its error as an `AstFormatError`,
    and text nested deeper than MAX_JSON_NESTING is not decoded."""
    # every container opens with a bracket, so the count bounds the nesting
    deep = text.count("[") + text.count("{") > MAX_JSON_NESTING
    if deep and _nesting(text) > MAX_JSON_NESTING:
        raise AstFormatError(f"{where}nesting too deep")
    try:
        return json.loads(text)
    except RecursionError:  # a backstop, for a caller near the recursion limit
        raise AstFormatError(f"{where}nesting too deep") from None
    except ValueError as exc:  # invalid JSON, or an integer too long to convert
        raise AstFormatError(f"{where}invalid JSON: {exc}") from exc


def load_ast(text: str) -> AstNode:
    """Parse an interchange document back into a tree.

    `_read_canonical` reads a canonical document; any other is decoded by
    `json.loads`, and `_from_obj` checks what it decodes to.
    """
    table = NodeTable()
    tree = _read_canonical(text, table, {})
    if tree is None:
        tree = _from_obj(_decode(text), "", table)
    return tree


def dump_corpus(programs: list[LabeledProgram]) -> str:
    """One JSON record per line: label, source_id, ast. A subtree dumped
    before, in this program or an earlier one, is copied, not walked."""
    out: list[str] = []
    spans: dict = {}
    for p in programs:
        label, source_id = json.dumps(p.label), json.dumps(p.source_id)
        out.append(f'{{"label":{label},"source_id":{source_id},"ast":')
        _dump_tree(p.ast, out, spans)
        out.append("}\n")
    return "".join(out)


def _canonical_parts(line: str):
    """(label, source_id, ast text) of a line of `dump_corpus`'s shape,
    `{"label":<string>,"source_id":<string>,"ast":<text>}`, with the two
    strings decoded; None for any other line."""
    if not (line.startswith('{"label":"') and line.endswith("}")):
        return None
    try:
        label, end = scanstring(line, 10)
        if not line.startswith(',"source_id":"', end):
            return None
        source_id, end = scanstring(line, end + 14)
    except ValueError:
        return None
    if not line.startswith(',"ast":', end):
        return None
    return label, source_id, line[end + 7:-1]


def normalize_newlines(text: str) -> str:
    """`text` with "\\r\\n" and "\\r" read as "\\n", as `open` reads text."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def load_corpus(text: str) -> list[LabeledProgram]:
    """Parse a corpus document; its trees share one `NodeTable`.

    Lines end at "\r\n", "\r" or "\n" only: a JSON string may hold other
    line breaks (U+0085, U+2028, U+2029) raw, but never these. A line of
    `dump_corpus`'s shape is split into its label, source_id and ast text,
    and each distinct ast text is loaded once, on its own:
    `_read_canonical` reads a canonical one, with one piece cache for the
    whole corpus, and `json.loads` and `_from_obj` any other. Every other
    line, and one whose ast text does not load alone, is decoded whole and
    checked as a record. All trees are built through one table.
    """
    lines = normalize_newlines(text).split("\n")
    table = NodeTable()
    pieces: dict = {}
    trees: dict[str, AstNode] = {}  # ast text -> its tree
    programs = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        parts = _canonical_parts(line)
        if parts is not None:
            label, source_id, ast_text = parts
            ast = trees.get(ast_text)
            if ast is None:
                ast = _read_canonical(ast_text, table, pieces)
            if ast is None:
                try:
                    ast = _from_obj(_decode(ast_text), "", table)
                except AstFormatError:
                    pass  # the whole line, below, gives the error and where it is
            if ast is not None:
                trees[ast_text] = ast
                programs.append(LabeledProgram(ast=ast, label=label, source_id=source_id))
                continue
        where = f"corpus line {lineno}: "
        rec = _decode(line, where)
        if not isinstance(rec, dict):
            raise AstFormatError(f"{where}expected an object")
        for key in ("label", "source_id", "ast"):
            if key not in rec:
                raise AstFormatError(f"{where}missing {key!r}")
            if key != "ast" and not isinstance(rec[key], str):
                raise AstFormatError(f"{where}{key!r} must be a string")
        ast = _from_obj(rec["ast"], f"line {lineno}", table)
        programs.append(LabeledProgram(ast=ast, label=rec["label"], source_id=rec["source_id"]))
    return programs
