"""Training-sample extraction, packing and negative-sample corruption.

Every non-leaf node yields one sample: its kind id, its children's kind ids,
and per-child coefficients equal to each child's share of the parent's leaves.
A negative is a sample too: the same sample with exactly one symbol (parent
or any child) replaced by a different one drawn uniformly; the coefficients
are kept, since corruption swaps a symbol without touching the tree shape.

For training, the samples are packed once into arrays (`pack_samples`), so a
negative is one id overwrite in a copied row and an epoch's corruptions come
from a single draw (`corrupt_packed`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ast_core import VOCAB_SIZE, LabeledProgram


class TrainingSample(NamedTuple):
    """The values of one packed row: kind ids and the children's leaf shares."""

    parent: int
    children: tuple[int, ...]
    coefficients: tuple[float, ...]


def build_training_set(corpus: list[LabeledProgram]) -> list[TrainingSample]:
    """The samples of every program, in corpus order, each in preorder.

    A node's sample is made from its children's `leaves` over its own, and
    equal samples are the same object. Each non-leaf node walked records the
    span its samples fill in the output; a node that comes up again, in the
    same program or a later one, copies that span instead of being walked,
    so on hash-consed trees each distinct subtree is walked once. The corpus
    keeps every node alive, so no id is reused meanwhile.
    """
    interned: dict[TrainingSample, TrainingSample] = {}
    spans: dict[int, tuple[int, int]] = {}  # id of a node -> its slice of samples
    samples: list[TrainingSample] = []
    for program in corpus:
        stack: list = [program.ast]
        while stack:
            item = stack.pop()
            if item.__class__ is tuple:  # the end of a node: (its id, its start)
                spans[item[0]] = item[1], len(samples)
                continue
            kids = item.children
            if not kids:
                continue
            span = spans.get(id(item))
            if span is not None:
                samples += samples[span[0]:span[1]]
                continue
            stack.append((id(item), len(samples)))
            sample = TrainingSample(
                item.kind,
                tuple(child.kind for child in kids),
                tuple(child.leaves / item.leaves for child in kids),
            )
            samples.append(interned.setdefault(sample, sample))
            stack += kids[::-1]
    return samples


def child_weight(n, i):
    """Interpolation coefficients (left, right) for child i of n, 1-based;
    n and i may also be integer arrays of one shape."""
    n, i = np.asarray(n), np.asarray(i)
    if np.any((i < 1) | (i > n)):
        raise ValueError(f"child position {i} out of range for {n} children")
    span = np.maximum(n - 1, 1)
    return np.where(n == 1, 0.5, (n - i) / span), np.where(n == 1, 0.5, (i - 1) / span)


# The integer type of a symbol id in a packed array: the epoch kernel reads
# the pair array as `const uint8_t *pairs` (epoch.c), and one byte holds every
# id while keeping that array small.
ID_DTYPE = np.uint8


@dataclass(frozen=True)
class PackedSamples:
    """The distinct samples of a sequence as arrays, K the most children.

    Row r of `ids` is the parent id, then the child ids, padded with 0.
    `coef[r, 0, j]` and `coef[r, 1, j]` are the left and right weights of
    slot j of that row (`child_weight` times the child's leaf share), and 0
    for the parent slot and for padding, so neither adds to the coded vector.
    Sample i of the sequence is row `rows[i]`; rows are in order of first use.
    """

    ids: np.ndarray  # (R, 1 + K)
    coef: np.ndarray  # (R, 2, 1 + K)
    n_children: np.ndarray  # (R,)
    rows: np.ndarray  # (N,)


def pack_samples(samples: Iterable[TrainingSample]) -> PackedSamples:
    """Pack a sequence of samples; equal samples share one row."""
    index: dict = {}
    rows = np.array([index.setdefault(s, len(index)) for s in samples], dtype=np.intp)
    distinct = tuple(index)
    n_children = np.array([len(s.children) for s in distinct], dtype=np.intp)
    ids = np.zeros((len(distinct), 1 + n_children.max(initial=0)), dtype=ID_DTYPE)
    coef = np.zeros((len(distinct), 2, ids.shape[1]))
    ids[:, 0] = [s.parent for s in distinct]
    # one entry per child: its row, its 1-based position and its leaf share
    row = np.repeat(np.arange(len(distinct)), n_children)
    first = np.repeat(np.cumsum(n_children) - n_children, n_children)
    position = np.arange(len(row)) - first + 1
    ids[row, position] = [c for s in distinct for c in s.children]
    share = np.array([l for s in distinct for l in s.coefficients])
    left, right = child_weight(n_children[row], position)
    coef[row, 0, position] = share * left
    coef[row, 1, position] = share * right
    return PackedSamples(ids, coef, n_children, rows)


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


def corrupt(sample: TrainingSample, rng: np.random.Generator) -> TrainingSample:
    """The sample with one uniformly chosen slot replaced by a different
    uniformly chosen symbol, and the same coefficients."""
    slots = [sample.parent, *sample.children]
    position = int(rng.integers(0, len(slots)))
    slots[position] = _replacement(int(rng.integers(0, VOCAB_SIZE - 1)), slots[position])
    return TrainingSample(slots[0], tuple(slots[1:]), sample.coefficients)


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
