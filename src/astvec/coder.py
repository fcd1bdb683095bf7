"""The coding model: a parent kind's vector should be reproducible from its
children's vectors through one tanh layer whose per-child weight interpolates
between two global matrices by relative position.

Training pulls the reconstruction distance of real samples below that of
corrupted ones by a margin, with an l2 penalty on the two weight matrices.

The coder runs on packed rows (see `sampling.pack_samples`). Its forward
pass and its gradient are the C kernel's (epoch.c), run only through
`kernel.train_epoch` (training) and `kernel.code_rows` (`objective`); this
module holds the parameters, their initialisation and the objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .ast_core import VOCAB_SIZE
from .sampling import TrainingSample, pack_samples


@dataclass
class Hyperparams:
    n_f: int = 30          # embedding dimension
    delta: float = 1.0     # ranking margin
    lam: float = 1e-4      # l2 coefficient on the weight matrices
    alpha: float = 0.003   # learning rate
    epsilon: float = 0.9   # momentum decay
    epochs: int = 200
    seed: int = 0

    def validate(self) -> None:
        for name in ("delta", "lam", "alpha", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.n_f < 1:
            raise ValueError("n_f must be >= 1")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if not 0 <= self.epsilon < 1:
            raise ValueError("epsilon must be in [0, 1)")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class ModelParams:
    """The coder's parameters, all views of one contiguous float64 buffer.

    `flat` holds the embeddings (V, N_f), w = [W_l W_r] (N_f, 2 N_f) and
    b (N_f,), in that order, so one array operation updates the whole set,
    and a gradient or a velocity with the same layout is a flat array too.
    """

    def __init__(self, embeddings, w_l, w_r, b):
        parts = (embeddings, np.hstack([w_l, w_r]), b)
        self._view(np.concatenate([np.ravel(a) for a in parts], dtype=np.float64),
                   np.shape(b)[0])

    @classmethod
    def of_flat(cls, flat: np.ndarray, n_f: int) -> "ModelParams":
        """Parameters viewing `flat` itself, not a copy."""
        params = cls.__new__(cls)
        params._view(flat, n_f)
        return params

    def _view(self, flat: np.ndarray, n_f: int) -> None:
        w_start = flat.size - 2 * n_f * n_f - n_f
        self.flat = flat
        self.w_span = slice(w_start, flat.size - n_f)
        self.embeddings = flat[:w_start].reshape(-1, n_f)
        self.w = flat[self.w_span].reshape(n_f, 2 * n_f)
        self.w_l = self.w[:, :n_f]
        self.w_r = self.w[:, n_f:]
        self.b = flat[self.w_span.stop :]

    @property
    def n_f(self) -> int:
        return self.b.shape[0]

    def zeros_like(self) -> "ModelParams":
        return ModelParams.of_flat(np.zeros_like(self.flat), self.n_f)

    def copy(self) -> "ModelParams":
        return ModelParams.of_flat(self.flat.copy(), self.n_f)


def uniform_init(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform draws in [-r, r] with r = sqrt(6 / (fan_in + fan_out))."""
    r = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-r, r, size=shape)


def init_params(hyper: Hyperparams, rng: np.random.Generator) -> ModelParams:
    """Every parameter drawn by `uniform_init` with fan_in = fan_out = N_f."""
    n_f = hyper.n_f
    return ModelParams(
        embeddings=uniform_init(rng, (VOCAB_SIZE, n_f), n_f, n_f),
        w_l=uniform_init(rng, (n_f, n_f), n_f, n_f),
        w_r=uniform_init(rng, (n_f, n_f), n_f, n_f),
        b=uniform_init(rng, n_f, n_f, n_f),
    )


def l2_rate(hyper: Hyperparams) -> float:
    """c in the l2 penalty's gradient c [W_l W_r], c = lam / 2 N_f^2."""
    return hyper.lam / (2.0 * hyper.n_f**2)


def l2_penalty(params: ModelParams, hyper: Hyperparams) -> float:
    """(lam/2M)(|W_l|_F^2 + |W_r|_F^2), M = 2 N_f^2, which is c/2 times the
    squared norms, c the `l2_rate`."""
    return l2_rate(hyper) / 2.0 * (
        float(np.sum(params.w_l**2)) + float(np.sum(params.w_r**2))
    )


def objective(
    pairs: list[tuple[TrainingSample, TrainingSample]],
    params: ModelParams,
    hyper: Hyperparams,
) -> float:
    """(1/2N) sum of hinges + (lam/2M)(|W_l|_F^2 + |W_r|_F^2), M = 2 N_f^2,
    over N (sample, corrupted sample) pairs.

    Each distinct sample is coded once, by the kernel's fixed-order forward,
    and the hinges are summed exactly rounded (`math.fsum`), so the value
    does not depend on the host.
    """
    if not pairs:
        raise ValueError("objective requires at least one sample pair")
    packed = pack_samples(s for pair in pairs for s in pair)
    d = kernel.code_rows(params, packed.ids, packed.coef, packed.n_children)
    d = d[packed.rows].reshape(-1, 2)
    hinges = np.maximum(0.0, hyper.delta + d[:, 0] - d[:, 1])
    return math.fsum(hinges.data) / (2.0 * len(pairs)) + l2_penalty(params, hyper)
