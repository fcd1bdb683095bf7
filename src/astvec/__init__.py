"""Vector representations for C AST node kinds, learned from tree structure."""

from .ast_core import (
    AstNode,
    LabeledProgram,
    NodeKind,
    dump_ast,
    load_ast,
    vocabulary,
)
from .coder import Hyperparams, ModelParams
from .cparse import parse_file, parse_source

__all__ = [
    "AstNode",
    "LabeledProgram",
    "NodeKind",
    "dump_ast",
    "load_ast",
    "vocabulary",
    "Hyperparams",
    "ModelParams",
    "parse_file",
    "parse_source",
]

__version__ = "0.1.0"
