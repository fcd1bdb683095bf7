"""Vector representations for C AST node kinds, learned from tree structure."""

from .ast_core import (
    KIND_NAMES,
    AstNode,
    LabeledProgram,
    dump_ast,
    load_ast,
)
from .cparse import parse_file, parse_source

__all__ = [
    "KIND_NAMES",
    "AstNode",
    "LabeledProgram",
    "dump_ast",
    "load_ast",
    "parse_file",
    "parse_source",
]

__version__ = "0.1.0"
