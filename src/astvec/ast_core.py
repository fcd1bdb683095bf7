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


class NodeTable:
    """Hash-consing constructor: one `AstNode` per distinct (kind, children).

    A node is keyed by its kind id and the identities of its children. Built
    bottom-up through one table, equal subtrees are therefore the same object.
    The table keeps every node it made alive, so no identity in a key is ever
    reused while the table exists.
    """

    def __init__(self):
        self._nodes: dict[tuple, AstNode] = {}

    def node(self, kind: NodeKind, children) -> AstNode:
        key = (kind.id, *map(id, children))
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


def load_ast(text: str) -> AstNode:
    """Parse an interchange document back into a tree."""
    try:
        return _from_obj(_loads(text), "", NodeTable())
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
    """Parse a corpus document; its trees share one `NodeTable`."""
    table = NodeTable()
    programs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
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
