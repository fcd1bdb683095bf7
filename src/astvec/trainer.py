"""Stochastic gradient descent with momentum over sample pairs.

One running velocity buffer is kept for the whole parameter set and carried
across epochs; each step pairs a sample with a fresh negative, folds the pair
gradient into the velocity with decay epsilon, and applies the update. The
samples are packed once per call, and an epoch's negatives are drawn in one
go before its steps. All randomness (init, shuffling, corruption) flows from
a single seeded stream, so runs are reproducible bit for bit and resumable
from checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .ast_core import KIND_NAMES
from .coder import Hyperparams, ModelParams, gradient_and_hinge, init_params, l2_penalty
from .sampling import TrainingSample, pack_samples
# An epoch's negatives are drawn through this name and each step's pair goes
# through gradient_and_hinge; the traced benchmark wraps both here.
from .sampling import corrupt_packed as corrupt

CHECKPOINT_VERSION = 1

CONVERGENCE_REL_TOL = 1e-4
CONVERGENCE_PATIENCE = 3


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, sample_index: int):
        self.epoch = epoch
        self.sample_index = sample_index
        super().__init__(
            f"non-finite loss or parameter at epoch {epoch}, sample {sample_index}"
        )


class CheckpointError(ValueError):
    pass


def vocabulary_fingerprint() -> str:
    return hashlib.sha256(",".join(KIND_NAMES).encode()).hexdigest()


@dataclass
class TrainReport:
    mean_hinge: list[float] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    epochs_run: int = 0
    wall_time: float = 0.0
    seed: int = 0
    first_epoch: int = 1  # number of the first epoch this report covers


@dataclass
class TrainState:
    """Everything needed to continue training bit-identically."""

    params: ModelParams
    velocity: ModelParams
    epoch: int
    rng: np.random.Generator
    hyper: Hyperparams
    loss_history: list[float] = field(default_factory=list)


def has_converged(history: list[float]) -> bool:
    """True once relative improvement of the mean epoch loss stays at or below
    1e-4 for 3 consecutive epochs."""
    if len(history) < CONVERGENCE_PATIENCE + 1:
        return False
    for prev, cur in zip(
        history[-CONVERGENCE_PATIENCE - 1 : -1], history[-CONVERGENCE_PATIENCE:]
    ):
        if prev - cur > CONVERGENCE_REL_TOL * abs(prev):
            return False
    return True


def fresh_state(hyper: Hyperparams) -> TrainState:
    hyper.validate()
    rng = np.random.default_rng(hyper.seed)
    params = init_params(hyper, rng)
    return TrainState(
        params=params, velocity=params.zeros_like(), epoch=0, rng=rng, hyper=hyper
    )


def train(
    samples: list[TrainingSample],
    hyper: Hyperparams,
    shuffle: bool = True,
    state: TrainState | None = None,
    max_epochs: int | None = None,
) -> tuple[TrainState, TrainReport]:
    """Run the momentum-SGD loop until convergence or the epoch limit.

    Passing a previously saved state resumes exactly where it left off.
    """
    if not samples:
        raise ValueError("training requires at least one sample")
    if state is None:
        state = fresh_state(hyper)
    else:
        hyper = state.hyper
    limit = hyper.epochs if max_epochs is None else max_epochs

    packed = pack_samples(samples)
    params = state.params
    theta = params.flat
    vel = state.velocity.flat
    rng = state.rng
    eps = hyper.epsilon
    alpha = hyper.alpha
    n = len(samples)

    report = TrainReport(seed=hyper.seed, first_epoch=state.epoch + 1)
    start = time.perf_counter()

    while state.epoch < limit and not has_converged(state.loss_history):
        order = rng.permutation(n) if shuffle else np.arange(n)
        rows, pairs = corrupt(packed, order, rng)
        hinge_total = 0.0
        for step, (row, ids) in enumerate(zip(rows, pairs)):
            grad, hinge = gradient_and_hinge(ids, packed.coef[row], params, hyper)
            hinge_total += hinge
            vel *= eps
            vel += grad
            theta -= alpha * vel
            if not (math.isfinite(hinge) and np.isfinite(theta).all()):
                raise TrainingDiverged(state.epoch, int(order[step]))

        mean_hinge = hinge_total / n
        state.epoch += 1
        state.loss_history.append(mean_hinge)
        report.mean_hinge.append(mean_hinge)
        report.objective.append(mean_hinge / 2.0 + l2_penalty(params, hyper))

    report.epochs_run = len(report.mean_hinge)
    report.wall_time = time.perf_counter() - start
    return state, report


@dataclass
class Checkpoint:
    params: ModelParams
    hyper: Hyperparams
    vocab_fingerprint: str
    epoch: int
    rng_state: dict
    velocity: ModelParams
    loss_history: list[float] = field(default_factory=list)

    @classmethod
    def from_state(cls, state: TrainState) -> "Checkpoint":
        return cls(
            params=state.params,
            hyper=state.hyper,
            vocab_fingerprint=vocabulary_fingerprint(),
            epoch=state.epoch,
            rng_state=state.rng.bit_generator.state,
            velocity=state.velocity,
            loss_history=list(state.loss_history),
        )

    def to_state(self) -> TrainState:
        if self.vocab_fingerprint != vocabulary_fingerprint():
            raise CheckpointError("vocabulary fingerprint mismatch")
        rng = np.random.default_rng()
        rng.bit_generator.state = self.rng_state
        return TrainState(
            params=self.params,
            velocity=self.velocity,
            epoch=self.epoch,
            rng=rng,
            hyper=self.hyper,
            loss_history=list(self.loss_history),
        )


def _params_to_obj(p: ModelParams) -> dict:
    return {
        "embeddings": p.embeddings.tolist(),
        "w_l": p.w_l.tolist(),
        "w_r": p.w_r.tolist(),
        "b": p.b.tolist(),
    }


def _params_from_obj(obj: dict) -> ModelParams:
    return ModelParams(
        embeddings=np.array(obj["embeddings"], dtype=np.float64),
        w_l=np.array(obj["w_l"], dtype=np.float64),
        w_r=np.array(obj["w_r"], dtype=np.float64),
        b=np.array(obj["b"], dtype=np.float64),
    )


def save_checkpoint(cp: Checkpoint, path) -> None:
    """Canonical JSON container; floats round-trip exactly via repr."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "hyper": {
            "n_f": cp.hyper.n_f,
            "delta": cp.hyper.delta,
            "lam": cp.hyper.lam,
            "alpha": cp.hyper.alpha,
            "epsilon": cp.hyper.epsilon,
            "epochs": cp.hyper.epochs,
            "seed": cp.hyper.seed,
        },
        "vocab_fingerprint": cp.vocab_fingerprint,
        "epoch": cp.epoch,
        "rng_state": cp.rng_state,
        "params": _params_to_obj(cp.params),
        "velocity": _params_to_obj(cp.velocity),
        "loss_history": cp.loss_history,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"not a checkpoint file: {exc}") from exc
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    if doc["vocab_fingerprint"] != vocabulary_fingerprint():
        raise CheckpointError("vocabulary fingerprint mismatch")
    h = doc["hyper"]
    hyper = Hyperparams(
        n_f=h["n_f"],
        delta=h["delta"],
        lam=h["lam"],
        alpha=h["alpha"],
        epsilon=h["epsilon"],
        epochs=h["epochs"],
        seed=h["seed"],
    )
    return Checkpoint(
        params=_params_from_obj(doc["params"]),
        hyper=hyper,
        vocab_fingerprint=doc["vocab_fingerprint"],
        epoch=doc["epoch"],
        rng_state=doc["rng_state"],
        velocity=_params_from_obj(doc["velocity"]),
        loss_history=list(doc["loss_history"]),
    )


def loss_log_csv(report: TrainReport) -> str:
    lines = ["epoch,mean_hinge,objective"]
    rows = zip(report.mean_hinge, report.objective)
    for i, (h, o) in enumerate(rows, start=report.first_epoch):
        lines.append(f"{i},{h!r},{o!r}")
    return "\n".join(lines) + "\n"
