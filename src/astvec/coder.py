"""The coding model: a parent kind's vector should be reproducible from its
children's vectors through one tanh layer whose per-child weight interpolates
between two global matrices by relative position.

Training pulls the reconstruction distance of real samples below that of
corrupted ones by a margin, with an l2 penalty on the two weight matrices.
All gradients here are exact and checked against finite differences in the
test suite.

Every function runs the coder through one batched forward pass over packed
rows (see `sampling.pack_samples`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ast_core import VOCAB_SIZE
from .sampling import NegativeSample, TrainingSample, pack_samples

# Pairs per batch in `objective`, which bounds its working memory.
OBJECTIVE_CHUNK = 256


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

    def allclose(self, other: "ModelParams", **kw) -> bool:
        return np.allclose(self.flat, other.flat, **kw)


def init_params(hyper: Hyperparams, rng: np.random.Generator) -> ModelParams:
    """Uniform init in [-r, r] with r = sqrt(6 / (fan_in + fan_out)) = sqrt(6/2N_f)."""
    n_f = hyper.n_f
    r = np.sqrt(6.0 / (2.0 * n_f))
    return ModelParams(
        embeddings=rng.uniform(-r, r, size=(VOCAB_SIZE, n_f)),
        w_l=rng.uniform(-r, r, size=(n_f, n_f)),
        w_r=rng.uniform(-r, r, size=(n_f, n_f)),
        b=rng.uniform(-r, r, size=n_f),
    )


def _forward(ids: np.ndarray, coef: np.ndarray, params: ModelParams, ahead=None):
    """The coder on a batch of packed rows: ids (..., 1+K), parent id then
    child ids; coef (..., 2, 1+K), broadcast against the rows.

    With ahead = (velocity, drift), drift (..., 4) broadcast against the rows,
    each row is coded at parameters mixed from params and the velocity:
    drift[..., 0] params + drift[..., 1] velocity on the embeddings and b,
    drift[..., 2] params + drift[..., 3] velocity on [W_l W_r].

    Returns (s, h, e): s (..., 2 N_f) the children's left- and right-weighted
    vector sums side by side, h = tanh([W_l W_r] s + b) the coded vectors and
    e the parent vectors minus h.
    """
    if ahead is None:
        vectors = params.embeddings.take(ids, axis=0)
        s = (coef @ vectors).reshape(*ids.shape[:-1], -1)
        z = s @ params.w.T + params.b
        parents = vectors[..., 0, :]
    else:
        velocity, drift = ahead
        n_f = params.n_f
        # each slot's vector in params, then in the velocity, mixed by drift
        both = np.stack([params.embeddings, velocity.embeddings], axis=1).take(ids, axis=0)
        both = both.reshape(*ids.shape[:-1], -1, n_f)
        mixed = coef[..., None] * drift[..., None, None, :2]
        s = (mixed.reshape(*mixed.shape[:-2], -1) @ both).reshape(*ids.shape[:-1], -1)
        parents = (drift[..., None, :2] @ both[..., :2, :])[..., 0, :]
        # [W_l W_r] s in params, then in the velocity, mixed by drift
        ws = s.reshape(-1, 2 * n_f) @ np.hstack([params.w.T, velocity.w.T])
        ws = ws.reshape(*s.shape[:-1], 2, n_f)
        b = drift[..., :2] @ np.stack([params.b, velocity.b])
        z = (drift[..., None, 2:] @ ws)[..., 0, :] + b
    h = np.tanh(z)
    return s, h, parents - h


def _sample_rows(samples):
    packed = pack_samples(samples)
    return packed.ids[packed.rows], packed.coef[packed.rows]


def code_children(sample, params: ModelParams) -> np.ndarray:
    """tanh( sum_i l_i W_i vec(c_i) + b ) with W_i from child_weight."""
    _, h, _ = _forward(*_sample_rows([sample]), params)
    return h[0]


def distance(sample, params: ModelParams) -> float:
    """Squared Euclidean distance between the parent vector and the coded one."""
    _, _, e = _forward(*_sample_rows([sample]), params)
    return float(e[0] @ e[0])


def hinge_loss(d: float, d_c: float, delta: float) -> float:
    return max(0.0, delta + d - d_c)


def l2_penalty(params: ModelParams, hyper: Hyperparams) -> float:
    """(lam/2M)(|W_l|_F^2 + |W_r|_F^2), M = 2 N_f^2."""
    m = 2.0 * hyper.n_f**2
    return (hyper.lam / (2.0 * m)) * (
        float(np.sum(params.w_l**2)) + float(np.sum(params.w_r**2))
    )


def pair_loss(
    sample: TrainingSample,
    negative: NegativeSample,
    params: ModelParams,
    hyper: Hyperparams,
) -> float:
    """Per-pair objective: hinge term plus the l2 share on W_l, W_r."""
    d = distance(sample, params)
    d_c = distance(negative, params)
    return hinge_loss(d, d_c, hyper.delta) + l2_penalty(params, hyper)


def objective(
    pairs: list[tuple[TrainingSample, NegativeSample]],
    params: ModelParams,
    hyper: Hyperparams,
) -> float:
    """(1/2N) sum of hinges + (lam/2M)(|W_l|_F^2 + |W_r|_F^2), M = 2 N_f^2.

    Pairs are coded OBJECTIVE_CHUNK at a time, each distinct sample of a
    chunk once.
    """
    if not pairs:
        raise ValueError("objective requires at least one sample pair")
    total = 0.0
    for start in range(0, len(pairs), OBJECTIVE_CHUNK):
        chunk = pairs[start : start + OBJECTIVE_CHUNK]
        packed = pack_samples(s for pair in chunk for s in pair)
        _, _, e = _forward(packed.ids, packed.coef, params)
        d = (e * e).sum(axis=1)[packed.rows].reshape(-1, 2)
        total += float(np.maximum(0.0, hyper.delta + d[:, 0] - d[:, 1]).sum())
    return total / (2.0 * len(pairs)) + l2_penalty(params, hyper)


def l2_rate(hyper: Hyperparams) -> float:
    """c in the l2 penalty's gradient c [W_l W_r], c = lam / 2 N_f^2."""
    return hyper.lam / (2.0 * hyper.n_f**2)


# d(d - d_c)/d(e) is 2e on the real row of a pair and -2e on the corrupted one.
_PAIR_SIGN = np.array([[2.0], [-2.0]])


def gradient_and_hinge(
    ids: np.ndarray,
    coef: np.ndarray,
    params: ModelParams,
    hyper: Hyperparams,
) -> tuple[np.ndarray, float]:
    """Exact gradient of pair_loss plus the hinge value of one pair.

    ids (2, 1+K) holds the packed row of the real sample, then that of its
    corrupted copy; coef (2, 1+K) is their shared row of child weights. The
    gradient is a flat array in the layout of `params.flat`. Both rows share
    one forward pass, which the gradient reuses.

    At the hinge kink (margin exactly met) the subgradient 0 is used, so a
    satisfied pair contributes only the l2 part.
    """
    s, h, e = _forward(ids, coef, params)
    d, d_c = (e * e).sum(axis=1).tolist()
    hinge = hinge_loss(d, d_c, hyper.delta)
    flat = np.zeros(params.flat.size)
    w_span = params.w_span
    np.multiply(params.flat[w_span], l2_rate(hyper), out=flat[w_span])
    if hinge > 0.0:
        grad = ModelParams.of_flat(flat, params.n_f)
        de = _PAIR_SIGN * e
        dz = de * (h * h - 1.0)
        grad.b[:] = dz[0] + dz[1]
        grad.w += dz.T @ s
        # slot j of row p: coef[0, j] W_l^T dz_p + coef[1, j] W_r^T dz_p,
        # which is 0 on the parent slot, where the parent's own term goes
        slots = coef.T @ (dz @ params.w).reshape(2, 2, -1)
        slots[:, 0] += de
        np.add.at(grad.embeddings, ids, slots)
    return flat, hinge


def lookahead_margins(pairs: np.ndarray, coef: np.ndarray, params: ModelParams,
                      velocity: ModelParams, drift: np.ndarray,
                      hyper: Hyperparams) -> np.ndarray:
    """delta + d - d_c of each pair, the hinge before clipping at 0, with pair
    k coded at the parameters drift[k] mixes from params and the velocity (see
    `_forward`): pairs (P, 2, 1+K) as `gradient_and_hinge` takes them, coef
    (P, 2, 1+K) and drift (P, 4)."""
    _, _, e = _forward(pairs, coef[:, None], params, (velocity, drift[:, None]))
    d = (e * e).sum(axis=-1)
    return hyper.delta + d[:, 0] - d[:, 1]
