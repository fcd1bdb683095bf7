"""Program-classification harness: node-kind histogram features, a stratified
3:1:1 split, softmax classifiers trained by full-batch gradient descent with
momentum, and the pretrained-vs-random embedding comparison.

The deep model is a plain feed-forward net over the mean of node embeddings
(the histogram, normalized, times the embedding table, which is trainable when
fine-tuning is on). Logistic regression is the same machinery with no hidden
layers over raw histogram counts.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .ast_core import VOCAB_SIZE, AstNode, LabeledProgram
from .coder import ModelParams


# --- features ---


def node_histogram(ast: AstNode) -> np.ndarray:
    """Length-V count of node kinds in the tree."""
    counts = np.zeros(VOCAB_SIZE, dtype=np.int64)
    for node in ast.walk():
        counts[node.kind.id] += 1
    return counts


def featurize(
    program: LabeledProgram, mode: str, params: ModelParams | None = None
) -> np.ndarray:
    if mode == "counts":
        return node_histogram(program.ast)
    if mode == "embed_mean":
        if params is None:
            raise ValueError("embed_mean mode requires trained params")
        counts = node_histogram(program.ast).astype(np.float64)
        return (counts / counts.sum()) @ params.embeddings
    raise ValueError(f"unknown feature mode {mode!r}")


# --- split ---


@dataclass(frozen=True)
class SplitSpec:
    train: tuple[int, ...]
    cv: tuple[int, ...]
    test: tuple[int, ...]


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
    return SplitSpec(train=tuple(sorted(train)), cv=tuple(sorted(cv)), test=tuple(sorted(test)))


# --- loss ---


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2:
        raise ValueError("probs must be 2-d")
    if np.any(probs < 0.0):
        raise ValueError("probabilities must be nonnegative")
    if not np.allclose(probs.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("probability rows must sum to 1")
    n = probs.shape[0]
    true_p = probs[np.arange(n), labels]
    if np.any(true_p <= 0.0):
        raise ValueError("true class has zero probability")
    return float(-np.log(true_p).mean())


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


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
    mode: str                      # counts | embed_mean
    labels: tuple[str, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    mu: np.ndarray
    sigma: np.ndarray
    embed: np.ndarray | None = None  # (V, N_f), embed_mean mode only

    def _input(self, X: np.ndarray) -> np.ndarray:
        if self.mode == "embed_mean":
            totals = X.sum(axis=1, keepdims=True)
            x = (X / np.maximum(totals, 1.0)) @ self.embed
        else:
            x = X.astype(np.float64)
        return (x - self.mu) / self.sigma

    def forward(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities; X holds raw histogram rows."""
        a = self._input(X)
        for W, b in zip(self.weights[:-1], self.biases[:-1]):
            a = np.tanh(a @ W + b)
        logits = a @ self.weights[-1] + self.biases[-1]
        return _softmax(logits)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.forward(X), axis=1)


@dataclass
class TrainCurves:
    train_xent: list[float] = field(default_factory=list)
    cv_xent: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    cv_acc: list[float] = field(default_factory=list)


def _init_model(
    mode: str,
    labels: tuple[str, ...],
    X: np.ndarray,
    config: ClassifierConfig,
    init: str,
    params: ModelParams | None,
) -> ClassifierModel:
    rng = np.random.default_rng(config.seed)
    if mode == "embed_mean":
        if init == "pretrained":
            if params is None:
                raise ValueError("pretrained init requires coder params")
            embed = params.embeddings.copy()
        elif init == "random":
            n_f = params.embeddings.shape[1] if params is not None else 30
            r = np.sqrt(6.0 / (2.0 * n_f))
            embed = rng.uniform(-r, r, size=(VOCAB_SIZE, n_f))
        else:
            raise ValueError(f"unknown init {init!r}")
        in_dim = embed.shape[1]
    else:
        embed = None
        in_dim = X.shape[1]

    # standardization constants from the raw (pre-MLP) training inputs
    if mode == "embed_mean":
        totals = X.sum(axis=1, keepdims=True)
        x0 = (X / np.maximum(totals, 1.0)) @ embed
    else:
        x0 = X.astype(np.float64)
    mu = x0.mean(axis=0)
    sigma = x0.std(axis=0)
    sigma[sigma == 0.0] = 1.0

    sizes = [in_dim, *config.hidden, len(labels)]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        r = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ClassifierModel(
        mode=mode, labels=labels, weights=weights, biases=biases,
        mu=mu, sigma=sigma, embed=embed,
    )


def loss_and_gradients(
    model: ClassifierModel, X: np.ndarray, y: np.ndarray, fine_tune: bool
):
    """Cross-entropy loss with exact gradients for every trainable tensor."""
    n = X.shape[0]
    if model.mode == "embed_mean":
        totals = X.sum(axis=1, keepdims=True)
        hist = X / np.maximum(totals, 1.0)
        x_raw = hist @ model.embed
    else:
        hist = None
        x_raw = X.astype(np.float64)
    a = (x_raw - model.mu) / model.sigma

    activations = [a]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.tanh(a @ W + b)
        activations.append(a)
    logits = a @ model.weights[-1] + model.biases[-1]
    probs = _softmax(logits)
    loss = float(-np.log(probs[np.arange(n), y] + 1e-300).mean())

    onehot = np.zeros_like(probs)
    onehot[np.arange(n), y] = 1.0
    delta = (probs - onehot) / n

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    grads_w[-1] = activations[-1].T @ delta
    grads_b[-1] = delta.sum(axis=0)
    upstream = delta @ model.weights[-1].T
    for layer in range(len(model.weights) - 2, -1, -1):
        dz = upstream * (1.0 - activations[layer + 1] ** 2)
        grads_w[layer] = activations[layer].T @ dz
        grads_b[layer] = dz.sum(axis=0)
        upstream = dz @ model.weights[layer].T

    grad_embed = None
    if model.mode == "embed_mean" and fine_tune:
        dx = upstream / model.sigma
        grad_embed = hist.T @ dx
    return loss, grads_w, grads_b, grad_embed


def train_classifier(
    X: np.ndarray,
    y: np.ndarray,
    labels: tuple[str, ...],
    config: ClassifierConfig,
    mode: str = "counts",
    init: str = "random",
    params: ModelParams | None = None,
    cv: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ClassifierModel, TrainCurves]:
    """Full-batch gradient descent with momentum on the softmax cross-entropy.

    X rows are raw node-kind histograms in both modes; y holds label indices.
    With a cv split, the returned model is the one of the epoch with the
    lowest cv cross-entropy (the earliest, on a tie); without one, that of
    the last epoch. The curves record every epoch.
    """
    if X.shape[0] != len(y):
        raise ValueError("feature/label length mismatch")
    model = _init_model(mode, labels, X, config, init, params)
    vel_w = [np.zeros_like(W) for W in model.weights]
    vel_b = [np.zeros_like(b) for b in model.biases]
    vel_e = np.zeros_like(model.embed) if model.embed is not None else None

    best, best_xent = model, np.inf
    curves = TrainCurves()
    for epoch in range(config.epochs):
        loss, gw, gb, ge = loss_and_gradients(model, X, y, config.fine_tune)
        if not np.isfinite(loss):
            raise RuntimeError(f"classifier diverged at epoch {epoch}")
        for i in range(len(model.weights)):
            vel_w[i] = config.momentum * vel_w[i] + gw[i]
            vel_b[i] = config.momentum * vel_b[i] + gb[i]
            model.weights[i] -= config.lr * vel_w[i]
            model.biases[i] -= config.lr * vel_b[i]
        if ge is not None:
            vel_e = config.momentum * vel_e + ge
            model.embed -= config.lr * vel_e

        acc, xent = evaluate(model, X, y)
        curves.train_xent.append(xent)
        curves.train_acc.append(acc)
        if cv is not None:
            acc_cv, xent_cv = evaluate(model, cv[0], cv[1])
            if xent_cv < best_xent:
                best, best_xent = copy.deepcopy(model), xent_cv
            curves.cv_xent.append(xent_cv)
            curves.cv_acc.append(acc_cv)
    return (model if cv is None else best), curves


def evaluate(
    model: ClassifierModel, X: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """(accuracy fraction, cross-entropy); argmax ties break to the lowest index."""
    probs = model.forward(X)
    predictions = np.argmax(probs, axis=1)
    accuracy = float((predictions == np.asarray(y)).mean())
    n = probs.shape[0]
    xent = float(-np.log(probs[np.arange(n), y] + 1e-300).mean())
    return accuracy, xent


def curves_csv(curves: TrainCurves) -> str:
    lines = ["epoch,train_xent,cv_xent,train_acc,cv_acc"]
    for i in range(len(curves.train_xent)):
        cv_x = repr(curves.cv_xent[i]) if curves.cv_xent else ""
        cv_a = repr(curves.cv_acc[i]) if curves.cv_acc else ""
        lines.append(
            f"{i + 1},{curves.train_xent[i]!r},{cv_x},{curves.train_acc[i]!r},{cv_a}"
        )
    return "\n".join(lines) + "\n"
