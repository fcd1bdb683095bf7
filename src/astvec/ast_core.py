"""AST node-kind vocabulary, tree structure, and the JSON interchange format.

Trees keep only node kinds and shape: identifier names, literal values and
operator lexemes are dropped at ingestion, so two programs differing only in
naming produce identical trees.
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
    """Ordered, immutable tree of node kinds."""

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


def leaf_count(root: AstNode) -> int:
    """Number of leaf descendants; a leaf counts itself as 1."""
    total = 0
    stack = [root]
    while stack:
        n = stack.pop()
        if n.children:
            stack.extend(n.children)
        else:
            total += 1
    return total


@dataclass(frozen=True)
class LabeledProgram:
    ast: AstNode
    label: str
    source_id: str


def _to_obj(node: AstNode) -> dict:
    return {
        "kind": node.kind.name,
        "children": [_to_obj(c) for c in node.children],
    }


def _from_obj(obj: object, path: str) -> AstNode:
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
    kids = tuple(
        _from_obj(c, f"{path}/{i}" if path else str(i))
        for i, c in enumerate(children)
    )
    return AstNode(_BY_NAME[name], kids)


def dump_ast(root: AstNode) -> str:
    """Canonical serialization: compact JSON, fixed key order, no trailing newline.

    Byte equality of dumps implies tree equality.
    """
    return json.dumps(_to_obj(root), separators=(",", ":"))


def load_ast(text: str) -> AstNode:
    """Parse an interchange document back into a tree."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AstFormatError(f"invalid JSON: {exc}") from exc
    return _from_obj(obj, "")


def dump_corpus(programs: list[LabeledProgram]) -> str:
    """One JSON record per line: label, source_id, ast."""
    lines = []
    for p in programs:
        rec = {"label": p.label, "source_id": p.source_id, "ast": _to_obj(p.ast)}
        lines.append(json.dumps(rec, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def load_corpus(text: str) -> list[LabeledProgram]:
    programs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise AstFormatError(f"corpus line {lineno}: invalid JSON: {exc}") from exc
        for key in ("label", "source_id", "ast"):
            if key not in rec:
                raise AstFormatError(f"corpus line {lineno}: missing {key!r}")
        ast = _from_obj(rec["ast"], f"line {lineno}")
        programs.append(LabeledProgram(ast=ast, label=rec["label"], source_id=rec["source_id"]))
    return programs
