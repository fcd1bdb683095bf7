"""Training-sample extraction, packing and negative-sample corruption.

Every non-leaf node yields one sample: its kind, its children's kinds, and
per-child coefficients equal to each child's share of the parent's leaves.
A negative sample replaces exactly one symbol (parent or any child) with a
different one drawn uniformly; the coefficients are kept, since corruption
swaps a symbol without touching the tree shape.

For training, the samples are packed once into arrays (`pack_samples`), so a
negative is one id overwrite in a copied row and an epoch's corruptions come
from a single draw (`corrupt_packed`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ast_core import (
    VOCAB_SIZE,
    AstNode,
    LabeledProgram,
    NodeKind,
    leaf_count,
    vocabulary,
)


@dataclass(frozen=True)
class TrainingSample:
    parent: NodeKind
    children: tuple[NodeKind, ...]
    coefficients: tuple[float, ...]

    def __post_init__(self):
        assert len(self.children) == len(self.coefficients) >= 1


@dataclass(frozen=True)
class NegativeSample:
    base: TrainingSample
    corrupted_position: int  # 0 = parent, 1..n = child index
    new_symbol: NodeKind

    @property
    def parent(self) -> NodeKind:
        return self.new_symbol if self.corrupted_position == 0 else self.base.parent

    @property
    def children(self) -> tuple[NodeKind, ...]:
        if self.corrupted_position == 0:
            return self.base.children
        kids = list(self.base.children)
        kids[self.corrupted_position - 1] = self.new_symbol
        return tuple(kids)

    @property
    def coefficients(self) -> tuple[float, ...]:
        return self.base.coefficients


def extract_samples(ast: AstNode) -> list[TrainingSample]:
    """One sample per non-leaf node, in preorder."""
    samples: list[TrainingSample] = []
    for node in ast.walk():
        if node.is_leaf():
            continue
        child_leaves = [leaf_count(c) for c in node.children]
        total = sum(child_leaves)
        samples.append(
            TrainingSample(
                parent=node.kind,
                children=tuple(c.kind for c in node.children),
                coefficients=tuple(lc / total for lc in child_leaves),
            )
        )
    return samples


def build_training_set(corpus: list[LabeledProgram]) -> list[TrainingSample]:
    samples: list[TrainingSample] = []
    for program in corpus:
        samples.extend(extract_samples(program.ast))
    return samples


def child_weight(n, i):
    """Interpolation coefficients (left, right) for child i of n, 1-based;
    n and i may also be integer arrays of one shape."""
    n, i = np.asarray(n), np.asarray(i)
    if np.any((i < 1) | (i > n)):
        raise ValueError(f"child position {i} out of range for {n} children")
    span = np.maximum(n - 1, 1)
    return np.where(n == 1, 0.5, (n - i) / span), np.where(n == 1, 0.5, (i - 1) / span)


# The smallest integer type that holds every symbol id, which keeps an epoch's
# pair array small.
ID_DTYPE = np.min_scalar_type(VOCAB_SIZE - 1)


@dataclass(frozen=True)
class PackedSamples:
    """The distinct samples of a sequence as arrays, K the most children.

    Row r of `ids` is the parent id, then the child ids, padded with 0.
    `coef[r, 0, j]` and `coef[r, 1, j]` are the left and right weights of
    slot j of that row (`child_weight` times the child's leaf share), and 0
    for the parent slot and for padding, so neither adds to the coded vector.
    Sample i of the sequence is row `rows[i]`, which holds `distinct[rows[i]]`.
    """

    distinct: tuple  # (R,) the samples, each once, in order of first use
    ids: np.ndarray  # (R, 1 + K)
    coef: np.ndarray  # (R, 2, 1 + K)
    n_children: np.ndarray  # (R,)
    rows: np.ndarray  # (N,)


def pack_samples(samples) -> PackedSamples:
    """Pack samples, or anything with parent, children and coefficients."""
    index: dict = {}
    rows = np.array([index.setdefault(s, len(index)) for s in samples], dtype=np.intp)
    distinct = tuple(index)
    n_children = np.array([len(s.children) for s in distinct], dtype=np.intp)
    ids = np.zeros((len(distinct), 1 + n_children.max(initial=0)), dtype=ID_DTYPE)
    coef = np.zeros((len(distinct), 2, ids.shape[1]))
    ids[:, 0] = [s.parent.id for s in distinct]
    # one entry per child: its row, its 1-based position and its leaf share
    row = np.repeat(np.arange(len(distinct)), n_children)
    first = np.repeat(np.cumsum(n_children) - n_children, n_children)
    position = np.arange(len(row)) - first + 1
    ids[row, position] = [c.id for s in distinct for c in s.children]
    share = np.array([l for s in distinct for l in s.coefficients])
    left, right = child_weight(n_children[row], position)
    coef[row, 0, position] = share * left
    coef[row, 1, position] = share * right
    return PackedSamples(distinct, ids, coef, n_children, rows)


def _draw_corruptions(n_children: np.ndarray, rng: np.random.Generator):
    """(slot, draw) for one corruption per entry: slot uniform over parent and
    children, draw uniform over V-1 symbols. One generator call whose bounds
    alternate between the two draws, so it consumes the stream exactly as two
    scalar draws per entry, in order, would."""
    highs = np.empty(2 * len(n_children), dtype=np.int64)
    highs[0::2] = n_children + 1
    highs[1::2] = VOCAB_SIZE - 1
    draws = rng.integers(0, highs)
    return draws[0::2], draws[1::2]


def _replacement(draw, original):
    """Map a draw over V-1 symbols onto the symbols other than `original`."""
    return draw + (draw >= original)


def corrupt(sample: TrainingSample, rng: np.random.Generator) -> NegativeSample:
    """Replace one uniformly chosen slot with a different uniformly chosen symbol."""
    slot, draw = _draw_corruptions(np.array([len(sample.children)]), rng)
    position = int(slot[0])
    original = sample.parent if position == 0 else sample.children[position - 1]
    return NegativeSample(
        base=sample,
        corrupted_position=position,
        new_symbol=vocabulary()[int(_replacement(draw[0], original.id))],
    )


def corrupt_packed(packed: PackedSamples, order: np.ndarray, rng: np.random.Generator):
    """Pairs for samples `order` of a packed sequence, drawing the negatives
    as `corrupt` does, sample by sample.

    Returns (rows, pairs): the packed row of each sample and a (len(order), 2,
    1 + K) id array whose [t, 0] is that row and [t, 1] its corrupted copy.
    """
    rows = packed.rows[order]
    pairs = np.repeat(packed.ids[rows][:, None, :], 2, axis=1)
    slot, draw = _draw_corruptions(packed.n_children[rows], rng)
    step = np.arange(len(rows))
    pairs[step, 1, slot] = _replacement(draw, pairs[step, 1, slot])
    return rows, pairs


def dump_samples(samples: list[TrainingSample]) -> str:
    """Debug format: parent<TAB>child:coeff,child:coeff,..."""
    lines = []
    for s in samples:
        pairs = ",".join(
            f"{c.name}:{l:.6f}" for c, l in zip(s.children, s.coefficients)
        )
        lines.append(f"{s.parent.name}\t{pairs}")
    return "\n".join(lines) + ("\n" if lines else "")
