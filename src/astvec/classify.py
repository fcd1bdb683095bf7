"""Program-classification harness: node-kind histogram features, a stratified
3:1:1 split, softmax classifiers trained by full-batch gradient descent with
momentum, and the pretrained-vs-random embedding comparison.

The deep model is a plain feed-forward net over the mean of node embeddings
(the histogram, normalized, times the embedding table, which is trainable when
fine-tuning is on). Logistic regression is the same machinery with no table
and no hidden layers, over raw histogram counts.

A split is trained and scored as a `Batch`: each distinct (histogram, label)
row once, weighted by how often it occurs. Many programs of a corpus share a
tree, so this is the same loss, accuracy and gradient as over every row, for
less work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernel
from .ast_core import VOCAB_SIZE, AstNode, LabeledProgram
from .coder import uniform_init


# --- features ---


def node_histogram(ast: AstNode) -> np.ndarray:
    """Length-V count of node kinds in the tree, tallied in one walk with an
    explicit stack, so any depth works. A count needs no order, so children
    are pushed as they stand."""
    counts = [0] * VOCAB_SIZE
    stack = [ast]
    while stack:
        node = stack.pop()
        counts[node.kind] += 1
        stack += node.children
    return np.array(counts, dtype=np.int64)


# --- split ---


class SplitSpec(NamedTuple):
    train: list[int]
    cv: list[int]
    test: list[int]


def split(corpus: list[LabeledProgram], seed: int) -> SplitSpec:
    """Stratified 3:1:1 per label; deterministic given the seed."""
    by_label: dict[str, list[int]] = {}
    for i, program in enumerate(corpus):
        by_label.setdefault(program.label, []).append(i)
    rng = np.random.default_rng(seed)
    train: list[int] = []
    cv: list[int] = []
    test: list[int] = []
    for label in sorted(by_label):
        idx = by_label[label]
        if len(idx) < 5:
            raise ValueError(f"label {label!r} has fewer than 5 programs")
        perm = rng.permutation(len(idx))
        shuffled = [idx[j] for j in perm]
        n = len(shuffled)
        n_cv = n // 5
        n_test = n // 5
        cv.extend(shuffled[:n_cv])
        test.extend(shuffled[n_cv : n_cv + n_test])
        train.extend(shuffled[n_cv + n_test :])
    return SplitSpec(sorted(train), sorted(cv), sorted(test))


# --- batches ---


class Batch(NamedTuple):
    """The rows a classifier is trained or scored on: each distinct (raw
    histogram, label) row once, in order of first appearance, with how often
    it occurs. The loss, the accuracy and the gradient weight a row by
    count / n, so they equal those over all n rows."""

    X: np.ndarray       # the distinct raw histogram rows, float64
    y: np.ndarray       # the label id of each
    counts: np.ndarray  # how often each occurs
    hist: np.ndarray    # X scaled to sum 1 per row; a row of zeros stays 0

    @classmethod
    def of(cls, X: np.ndarray, y: np.ndarray) -> Batch:
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.int64)
        if X.shape[0] != len(y):
            raise ValueError("feature/label length mismatch")
        first: dict[tuple[bytes, int], int] = {}
        firsts = [first.setdefault((row.tobytes(), label), i)
                  for i, (row, label) in enumerate(zip(X, y.tolist()))]
        keep, counts = np.unique(np.array(firsts, dtype=np.intp), return_counts=True)
        X = X[keep]
        return cls(X, y[keep], counts,
                   X / np.maximum(X.sum(axis=1, keepdims=True), 1.0))


def task(
    corpus: list[LabeledProgram], seed: int
) -> tuple[tuple[str, ...], Batch, Batch, Batch]:
    """(labels, train, cv, test): the corpus's sorted labels, and each part
    of `split` as a Batch of node histograms and label ids. Raises `split`'s
    ValueError."""
    labels = tuple(sorted({p.label for p in corpus}))
    spec = split(corpus, seed)
    X = np.stack([node_histogram(p.ast) for p in corpus])
    y = np.array([labels.index(p.label) for p in corpus])
    return (labels, *(Batch.of(X[part], y[part]) for part in spec))


# --- model ---


@dataclass
class ClassifierConfig:
    hidden: tuple[int, ...] = (64, 64, 64, 64)
    lr: float = 0.05
    momentum: float = 0.9
    epochs: int = 300
    seed: int = 0
    fine_tune: bool = True


@dataclass
class ClassifierModel:
    """A softmax classifier whose trained values are all views of one float64
    buffer: `flat` holds the embedding table (V, N_f), if the model has one,
    then W and b of each layer, so one array operation steps them all, and a
    gradient or a velocity with the same layout is one flat array too. A
    model without a table reads the histogram counts themselves.
    """

    shapes: list[tuple[int, ...]]  # of the table, if any, then of each W and b
    flat: np.ndarray
    mu: np.ndarray  # input standardization, (x - mu) / sigma
    sigma: np.ndarray

    def __post_init__(self):
        ends = np.cumsum([math.prod(shape) for shape in self.shapes]).tolist()
        self._spans = list(zip([0, *ends], ends, self.shapes))
        self.embed, self.weights, self.biases = self.views(self.flat)

    def views(self, flat: np.ndarray):
        """(table or None, weights, biases) of `flat`, laid out like `self.flat`."""
        parts = [flat[start:end].reshape(shape) for start, end, shape in self._spans]
        table = parts.pop(0) if len(parts) % 2 else None
        return table, parts[0::2], parts[1::2]


@dataclass
class TrainCurves:
    train_xent: list[float] = field(default_factory=list)
    cv_xent: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    cv_acc: list[float] = field(default_factory=list)


def _init_model(
    n_classes: int,
    batch: Batch,
    config: ClassifierConfig,
    embed: np.ndarray | int | None = None,
) -> ClassifierModel:
    """The input layer is `embed`: None, the histogram counts; an array, a
    pretrained table (copied); an int, the width of a random table, drawn
    before the layer weights."""
    rng = np.random.default_rng(config.seed)
    if isinstance(embed, int):  # drawn as the untrained coder's table is
        embed = uniform_init(rng, (VOCAB_SIZE, embed), embed, embed)
    parts = [] if embed is None else [embed]
    sizes = [batch.X.shape[1] if embed is None else embed.shape[1],
             *config.hidden, n_classes]
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        parts += [uniform_init(rng, (fan_in, fan_out), fan_in, fan_out), np.zeros(fan_out)]
    model = ClassifierModel([part.shape for part in parts],
                            np.concatenate([part.ravel() for part in parts]),
                            np.empty(sizes[0]), np.empty(sizes[0]))
    # standardization constants: the mean and std of the input over every
    # training row; a constant input takes its value and 1, so that it
    # standardizes to exactly 0
    kernel.classifier_pass(model, batch, fit=True)
    return model


def loss_and_gradients(model: ClassifierModel, batch: Batch, fine_tune: bool):
    """(loss, accuracy, grad): the cross-entropy and the accuracy of the
    model on the batch, and the exact gradient of the loss, laid out like
    `model.flat` and 0 on the table unless fine-tuning."""
    grad = np.empty_like(model.flat)
    loss, accuracy = kernel.classifier_pass(model, batch, grad, fine_tune)
    return loss, accuracy, grad


def train_classifier(
    train: Batch,
    n_classes: int,
    config: ClassifierConfig,
    embed: np.ndarray | int | None = None,
    cv: Batch | None = None,
) -> tuple[ClassifierModel, TrainCurves]:
    """Full-batch gradient descent with momentum on the softmax cross-entropy.

    The label ids of `train` and `cv` are below `n_classes`; `embed` selects
    the input as in `_init_model`. Every epoch passes over the distinct rows
    only, weighted by their counts. With a cv split, the returned model is
    the one of the epoch with the lowest cv cross-entropy (the earliest, on
    a tie); without one, that of the last epoch. The curves record every
    epoch.
    """
    model = _init_model(n_classes, train, config, embed)
    velocity = np.zeros_like(model.flat)

    best, best_xent = None, np.inf
    curves = TrainCurves()
    for epoch in range(config.epochs):
        loss, acc, grad = loss_and_gradients(model, train, config.fine_tune)
        if not np.isfinite(loss):
            raise RuntimeError(f"classifier diverged at epoch {epoch}")
        if epoch > 0:
            # this pass scored the model the previous epoch left
            curves.train_xent.append(loss)
            curves.train_acc.append(acc)
        velocity *= config.momentum
        velocity += grad
        np.multiply(velocity, config.lr, out=grad)
        model.flat -= grad

        if cv is not None:
            acc_cv, xent_cv = evaluate(model, cv)
            if xent_cv < best_xent:
                best, best_xent = model.flat.copy(), xent_cv
            curves.cv_xent.append(xent_cv)
            curves.cv_acc.append(acc_cv)
    if config.epochs > 0:
        acc, xent = evaluate(model, train)
        curves.train_xent.append(xent)
        curves.train_acc.append(acc)
    if best is not None:
        model.flat[...] = best
    return model, curves


def evaluate(model: ClassifierModel, batch: Batch) -> tuple[float, float]:
    """(accuracy fraction, cross-entropy); the accuracy is exact, and argmax
    ties break to the lowest index."""
    loss, accuracy = kernel.classifier_pass(model, batch)
    return accuracy, loss


def curves_csv(curves: TrainCurves) -> str:
    lines = ["epoch,train_xent,cv_xent,train_acc,cv_acc"]
    for i in range(len(curves.train_xent)):
        cv_x = repr(curves.cv_xent[i]) if curves.cv_xent else ""
        cv_a = repr(curves.cv_acc[i]) if curves.cv_acc else ""
        lines.append(
            f"{i + 1},{curves.train_xent[i]!r},{cv_x},{curves.train_acc[i]!r},{cv_a}"
        )
    return "\n".join(lines) + "\n"
