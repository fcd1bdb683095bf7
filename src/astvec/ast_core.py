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
from typing import Iterator

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


@dataclass(frozen=True)
class NodeKind:
    id: int
    name: str

    def __repr__(self) -> str:
        return f"NodeKind({self.id}, {self.name!r})"


_VOCAB: tuple[NodeKind, ...] = tuple(
    NodeKind(i, name) for i, name in enumerate(KIND_NAMES)
)
_BY_NAME: dict[str, NodeKind] = {k.name: k for k in _VOCAB}


def vocabulary() -> tuple[NodeKind, ...]:
    """The full ordered vocabulary of node kinds."""
    return _VOCAB


def kind_by_name(name: str) -> NodeKind:
    """Look up a kind by symbolic name; raises UnknownKindError if absent."""
    try:
        return _BY_NAME[name]
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


@dataclass(frozen=True)
class AstNode:
    """Ordered, immutable tree of node kinds. Immutability is what lets a
    `NodeTable` share one node between many parents and trees."""

    kind: NodeKind
    children: tuple["AstNode", ...] = ()

    def is_leaf(self) -> bool:
        return not self.children

    def walk(self) -> Iterator["AstNode"]:
        """Preorder traversal."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


def node(kind_name: str, *children: AstNode) -> AstNode:
    """Convenience constructor from a kind name."""
    return AstNode(kind_by_name(kind_name), tuple(children))


# The tallest tree a `NodeTable.decoder` builds. A taller one stays dicts, so
# the loaders walk it with `_from_obj`, whose limit is the interpreter's
# recursion limit: about 500 levels on Python 3.11, where `json`'s C scanner
# counts against that limit too, while from 3.12 the scanner has its own. So
# the one-pass loaders accept only trees the walk accepts, on any interpreter,
# unless called with fewer than about 400 frames of recursion left. Corpus
# trees here are about 15 levels tall.
_DECODED_MAX_HEIGHT = 200


class NodeTable:
    """Hash-consing constructor: one `AstNode` per distinct (kind, children).

    A node is keyed by its kind id and the identities of its children. Built
    bottom-up through one table, equal subtrees are therefore the same object.
    The table keeps every node it made alive, so no identity in a key is ever
    reused while the table exists.
    """

    def __init__(self):
        self._nodes: dict[tuple, AstNode] = {}
        self._heights: dict[int, int] = {}  # by identity, of nodes its decoders built

    def node(self, kind: NodeKind, children) -> AstNode:
        key = (kind.id, *map(id, children))
        found = self._nodes.get(key)
        if found is None:
            found = self._nodes[key] = AstNode(kind, tuple(children))
        return found

    def decoder(self) -> json.JSONDecoder:
        """A JSON decoder that builds canonical node objects into the table.

        The decoder hands each object to its hook once the object's values
        are decoded, children first. An object whose keys are exactly "kind"
        then "children" is looked up under the same key as `node` uses: a hit
        is the node, with no further check, since the table holds only trees
        already accepted. On a miss, once per distinct subtree, a node is
        built only if the kind is known and every child is a node this hook
        built, no taller than `_DECODED_MAX_HEIGHT` with it. A child's
        identity finds its height: no other live object has a node's
        identity. Any other object stays a dict.
        """
        nodes, heights = self._nodes, self._heights

        def node_or_dict(pairs):
            if len(pairs) == 2:
                (k, name), (c, kids) = pairs
                if k == "kind" and c == "children" and name.__class__ is str \
                        and kids.__class__ is list:
                    kind = _BY_NAME.get(name)
                    if kind is not None:
                        key = (kind.id, *map(id, kids))
                        found = nodes.get(key)
                        if found is not None:
                            return found
                        kid_heights = [heights.get(id(kid)) for kid in kids]
                        if None not in kid_heights:
                            height = 1 + max(kid_heights, default=0)
                            if height <= _DECODED_MAX_HEIGHT:
                                found = nodes[key] = AstNode(kind, tuple(kids))
                                heights[id(found)] = height
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


def _dump_tree(root: AstNode, out: list[str]) -> None:
    """Append the canonical JSON of `root` to `out`. An explicit stack of
    nodes and closing text, so any depth dumps."""
    stack: list = [root]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        kids = item.children
        if not kids:
            out.append(_LEAF_JSON[item.kind.id])
            continue
        out.append(_OPEN_JSON[item.kind.id])
        stack.append("]}")
        # pushed last child first, so they pop in order with commas between
        for child in kids[:0:-1]:
            stack.append(child)
            stack.append(",")
        stack.append(kids[0])


def _from_obj(obj: object, path: str, table: NodeTable) -> AstNode:
    if not isinstance(obj, dict):
        raise AstFormatError(f"expected object at {path or 'root'}, got {type(obj).__name__}")
    if "kind" not in obj:
        raise AstFormatError(f"missing 'kind' at {path or 'root'}")
    name = obj["kind"]
    if not isinstance(name, str):
        raise AstFormatError(f"'kind' must be a string at {path or 'root'}")
    if name not in _BY_NAME:
        raise UnknownKindError(name, path or "root")
    children = obj.get("children", [])
    if not isinstance(children, list):
        raise AstFormatError(f"'children' must be an array at {path or 'root'}")
    kids = [
        _from_obj(c, f"{path}/{i}" if path else str(i), table)
        for i, c in enumerate(children)
    ]
    return table.node(_BY_NAME[name], kids)


def dump_ast(root: AstNode) -> str:
    """Canonical serialization: compact JSON, fixed key order, no trailing newline.

    Byte equality of dumps implies tree equality.
    """
    out: list[str] = []
    _dump_tree(root, out)
    return "".join(out)


def _loads(text: str, where: str = "") -> object:
    try:
        return json.loads(text)
    except ValueError as exc:  # invalid JSON, or an integer too long to convert
        raise AstFormatError(f"{where}invalid JSON: {exc}") from exc


def _decode(decoder: json.JSONDecoder, text: str) -> object:
    """`decoder`'s result for `text`, or None where it fails: the walk then
    decodes `text` again and reports the error."""
    try:
        return decoder.decode(text)
    except (ValueError, RecursionError):
        return None


def load_ast(text: str) -> AstNode:
    """Parse an interchange document back into a tree.

    A canonical document no taller than `_DECODED_MAX_HEIGHT` is built in
    one decoding pass; any other is walked by `_from_obj`, which defines what
    is valid and what error is raised.
    """
    table = NodeTable()
    tree = _decode(table.decoder(), text)
    if tree.__class__ is AstNode:
        return tree
    try:
        return _from_obj(_loads(text), "", table)
    except RecursionError:  # json.loads and _from_obj recurse per nesting level
        raise AstFormatError("nesting too deep") from None


def dump_corpus(programs: list[LabeledProgram]) -> str:
    """One JSON record per line: label, source_id, ast."""
    out: list[str] = []
    for p in programs:
        label, source_id = json.dumps(p.label), json.dumps(p.source_id)
        out.append(f'{{"label":{label},"source_id":{source_id},"ast":')
        _dump_tree(p.ast, out)
        out.append("}\n")
    return "".join(out)


def load_corpus(text: str) -> list[LabeledProgram]:
    """Parse a corpus document; its trees share one `NodeTable`.

    Lines end at "\r\n", "\r" or "\n" only: a JSON string may hold other
    line breaks (U+0085, U+2028, U+2029) raw, but never these. A record of
    canonical nodes, as `dump_corpus` writes them, is built in one decoding
    pass, unless its tree is taller than `_DECODED_MAX_HEIGHT`; any other
    line is decoded again and walked by `_from_obj`, with the same table.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    table = NodeTable()
    decoder = table.decoder()
    programs = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        rec = _decode(decoder, line)
        if rec.__class__ is dict and rec.get("ast").__class__ is AstNode \
                and rec.get("label").__class__ is str \
                and rec.get("source_id").__class__ is str:
            ast = rec["ast"]
        else:
            where = f"corpus line {lineno}: "
            try:
                rec = _loads(line, where)
                if not isinstance(rec, dict):
                    raise AstFormatError(f"{where}expected an object")
                for key in ("label", "source_id", "ast"):
                    if key not in rec:
                        raise AstFormatError(f"{where}missing {key!r}")
                    if key != "ast" and not isinstance(rec[key], str):
                        raise AstFormatError(f"{where}{key!r} must be a string")
                ast = _from_obj(rec["ast"], f"line {lineno}", table)
            except RecursionError:  # json.loads and _from_obj recurse per nesting level
                raise AstFormatError(f"{where}nesting too deep") from None
        programs.append(LabeledProgram(ast=ast, label=rec["label"], source_id=rec["source_id"]))
    return programs
