"""Text export of the embedding table: header "V N_f", then one line per
symbol with full-precision values, so each value reads back exactly."""

from __future__ import annotations

import numpy as np

from .ast_core import KIND_NAMES


def format_embeddings(embeddings: np.ndarray) -> str:
    v, n_f = embeddings.shape
    lines = [f"{v} {n_f}"]
    for i in range(v):
        values = " ".join(repr(float(x)) for x in embeddings[i])
        lines.append(f"{KIND_NAMES[i]} {values}")
    return "\n".join(lines) + "\n"

