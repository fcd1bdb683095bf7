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
from dataclasses import dataclass, field
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

    `height` (a leaf is 1) and `leaves` are set from the children when the
    node is made, so through a table once per distinct subtree. They take
    no part in equality, hash or repr.
    """

    kind: int
    children: tuple["AstNode", ...] = ()
    height: int = field(init=False, compare=False, repr=False)
    leaves: int = field(init=False, compare=False, repr=False)

    def __init__(self, kind: int, children: tuple["AstNode", ...] = ()):
        # Every recursive parse path ends in making a node, so this costs no
        # more stack than the generated __init__: no __post_init__, and no
        # comprehension, max() or sum(), which count against the recursion
        # limit.
        height, leaves = 0, 0
        for child in children:
            if child.height > height:
                height = child.height
            leaves += child.leaves
        put = object.__setattr__
        put(self, "kind", kind)
        put(self, "children", children)
        put(self, "height", height + 1)
        put(self, "leaves", leaves or 1)


class NodeTable:
    """Hash-consing constructor: one `AstNode` per distinct (kind, children).

    A node is keyed by its kind id and the identities of its children. Built
    bottom-up through one table, equal subtrees are therefore the same object.
    The table keeps every node it made alive, so no identity in a key is ever
    reused while the table exists.
    """

    def __init__(self):
        self._nodes: dict[tuple, AstNode] = {}

    def node(self, kind: int, children) -> AstNode:
        key = (kind, *map(id, children))
        found = self._nodes.get(key)
        if found is None:
            found = self._nodes[key] = AstNode(kind, tuple(children))
        return found

    def decoder(self) -> json.JSONDecoder:
        """A JSON decoder that builds canonical node objects into the table.

        The decoder hands each object to its hook once the object's values
        are decoded, children first. An object whose keys are exactly "kind"
        then "children" is looked up under the same key as `node` uses: a hit
        is the node, as only nodes have the identities in a key. On a miss,
        once per distinct subtree, a node is built if the kind is known and
        every child is a node. Any other object stays a dict.
        """
        nodes = self._nodes

        def node_or_dict(pairs):
            if len(pairs) == 2:
                (k, name), (c, kids) = pairs
                if k == "kind" and c == "children" and name.__class__ is str \
                        and kids.__class__ is list:
                    kind = KIND_IDS.get(name)
                    if kind is not None:
                        key = (kind, *map(id, kids))
                        found = nodes.get(key)
                        if found is not None:
                            return found
                        if all(kid.__class__ is AstNode for kid in kids):
                            found = nodes[key] = AstNode(kind, tuple(kids))
                            return found
            return dict(pairs)

        return json.JSONDecoder(object_pairs_hook=node_or_dict)


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
    works, and takes a node the decoder built as valid. It then builds the
    trees in reverse preorder, where each object's children are the last
    trees built.
    """
    stack = [(obj, path)]
    preorder: list = []  # a node, or (kind id, number of children) for an object
    while stack:
        obj, path = stack.pop()
        if obj.__class__ is AstNode:
            preorder.append(obj)
            continue
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
    for item in reversed(preorder):
        if item.__class__ is not AstNode:
            kind, n = item
            first = len(built) - n
            item = table.node(kind, built[first:][::-1])
            del built[first:]
        built.append(item)
    return built[0]


def dump_ast(root: AstNode) -> str:
    """Canonical serialization: compact JSON, fixed key order, no trailing newline.

    Byte equality of dumps implies tree equality.
    """
    out: list[str] = []
    _dump_tree(root, out, {})
    return "".join(out)


# The tallest tree (`AstNode.height`) a corpus line is sure to load back.
# The decoder recurses per nesting level and reads about 495 levels from a
# shallow stack, fewer from a deeper one; this leaves room for the caller's.
MAX_LOAD_HEIGHT = 400


def _decode(decoder: json.JSONDecoder, text: str, where: str = "") -> object:
    """`text` decoded by `decoder`; a failure raises the error `json.loads`
    reports, as an `AstFormatError`."""
    try:
        return decoder.decode(text)
    except RecursionError:  # the decoder recurses per nesting level
        raise AstFormatError(f"{where}nesting too deep") from None
    except ValueError as exc:  # invalid JSON, or an integer too long to convert
        if text.startswith("\ufeff"):  # json.loads checks first; decode just fails
            exc = json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raise AstFormatError(f"{where}invalid JSON: {exc}") from exc


def load_ast(text: str) -> AstNode:
    """Parse an interchange document back into a tree.

    The document is decoded once, by a `NodeTable.decoder`, so a canonical
    one is a tree already; `_from_obj` checks what any other decodes to.
    """
    table = NodeTable()
    return _from_obj(_decode(table.decoder(), text), "", table)


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


def load_corpus(text: str) -> list[LabeledProgram]:
    """Parse a corpus document; its trees share one `NodeTable`.

    Lines end at "\r\n", "\r" or "\n" only: a JSON string may hold other
    line breaks (U+0085, U+2028, U+2029) raw, but never these. A line of
    `dump_corpus`'s shape is split into its label, source_id and ast text,
    and each distinct ast text is decoded once, on its own, by one
    `NodeTable.decoder`, so canonical nodes are a tree already; `_from_obj`
    checks any other. Every other line, and one whose ast text does not load
    alone, is decoded whole and checked as a record, with the same table.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    table = NodeTable()
    decoder = table.decoder()
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
                try:
                    ast = trees[ast_text] = _from_obj(_decode(decoder, ast_text), "", table)
                except AstFormatError:
                    pass  # the whole line, below, gives the error and where it is
            if ast is not None:
                programs.append(LabeledProgram(ast=ast, label=label, source_id=source_id))
                continue
        where = f"corpus line {lineno}: "
        rec = _decode(decoder, line, where)
        if rec.__class__ is AstNode:  # a node object: its keys are "kind" and "children"
            raise AstFormatError(f"{where}missing 'label'")
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
