"""Stochastic gradient descent with momentum over sample pairs.

One running velocity buffer is kept for the whole parameter set and carried
across epochs; each step pairs a sample with a fresh negative, folds the pair
gradient into the velocity with decay epsilon, and applies the update. The
samples are packed once per call, and an epoch's negatives are drawn in one
go before its steps. All randomness (init, shuffling, corruption) flows from
a single seeded stream, so runs are reproducible bit for bit and resumable
from checkpoints.

Most pairs are inactive (hinge 0), and a run of inactive steps is a fixed
linear map of (theta, velocity) (`inactive_powers`). So the epoch goes
window by window: one look-ahead pass codes the next LOOKAHEAD pairs, each at
the parameters the inactive steps before it would reach, the parameters jump
in closed form to the first active pair, and that pair takes an ordinary
step. This moves the parameters only in the last digits against stepping
every pair.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .ast_core import KIND_NAMES, VOCAB_SIZE
from .coder import (
    Hyperparams,
    ModelParams,
    gradient_and_hinge,
    init_params,
    l2_penalty,
    l2_rate,
    lookahead_margins,
)
from .sampling import TrainingSample, pack_samples
# An epoch's negatives are drawn through this name and each active step's pair
# goes through gradient_and_hinge; the traced benchmark wraps both here.
from .sampling import corrupt_packed as corrupt

CHECKPOINT_VERSION = 1

# Pairs coded per look-ahead pass. Windows restart at each epoch, so an epoch
# computes the same floats however the epochs are split across calls.
LOOKAHEAD = 32

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
    first_epoch: int = 1  # number of the first epoch this report covers


@dataclass
class TrainState:
    """Everything needed to continue training bit-identically; a checkpoint
    is one saved whole."""

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
    n = len(samples)
    powers = inactive_powers(hyper, LOOKAHEAD)
    # the parameters after k inactive steps, as coder._forward mixes them
    drift = powers[:-1, :, 0, :].reshape(LOOKAHEAD, 4)

    report = TrainReport(first_epoch=state.epoch + 1)
    start = time.perf_counter()

    while state.epoch < limit and not has_converged(state.loss_history):
        order = rng.permutation(n) if shuffle else np.arange(n)
        rows, pairs = corrupt(packed, order, rng)
        hinge_total = 0.0
        t = 0
        while t < n:
            stop = min(t + LOOKAHEAD, n)
            margins = lookahead_margins(pairs[t:stop], packed.coef[rows[t:stop]], params,
                                        state.velocity, drift[: stop - t], hyper)
            # the first pair with a hinge > 0, or a non-finite one
            hits = np.flatnonzero(~(margins <= 0.0))
            active = t + int(hits[0]) if len(hits) else stop
            if active > t and not _skip_inactive(theta, vel, params.w_span,
                                                 powers[active - t]):
                # replay, so that the error names the step that overflowed
                hinge_total = _steps(state, packed, rows, pairs, order,
                                     range(t, active), hinge_total)
            t = min(active + 1, stop)
            hinge_total = _steps(state, packed, rows, pairs, order, range(active, t),
                                 hinge_total)

        mean_hinge = hinge_total / n
        state.epoch += 1
        state.loss_history.append(mean_hinge)
        report.mean_hinge.append(mean_hinge)
        report.objective.append(mean_hinge / 2.0 + l2_penalty(params, hyper))

    report.epochs_run = len(report.mean_hinge)
    report.wall_time = time.perf_counter() - start
    return state, report


def _steps(state: TrainState, packed, rows, pairs, order, steps,
           hinge_total: float) -> float:
    """The SGD steps `steps` of the epoch one by one; hinge_total plus their
    hinges."""
    params, hyper = state.params, state.hyper
    theta, vel = params.flat, state.velocity.flat
    for step in steps:
        grad, hinge = gradient_and_hinge(pairs[step], packed.coef[rows[step]], params, hyper)
        hinge_total += hinge
        vel *= hyper.epsilon
        vel += grad
        theta -= hyper.alpha * vel
        if not (math.isfinite(hinge) and np.isfinite(theta).all()):
            raise TrainingDiverged(state.epoch, int(order[step]))
    return hinge_total


def inactive_powers(hyper: Hyperparams, steps: int) -> np.ndarray:
    """M^k for k = 0..steps, (steps + 1, 2, 2, 2): the map that k momentum
    steps apply to (theta, velocity) when every pair is inactive.

    An inactive pair's gradient is only the l2 part, c theta on [W_l W_r] and
    0 elsewhere, so the step v' = epsilon v + c theta, theta' = theta - alpha
    v' is the same 2 x 2 map on every entry of a region: [k, 0] on the
    embeddings and b (c = 0), [k, 1] on [W_l W_r].
    """
    a, eps = hyper.alpha, hyper.epsilon
    powers = np.empty((steps + 1, 2, 2, 2))
    powers[0] = np.eye(2)
    for c, region in ((0.0, 0), (l2_rate(hyper), 1)):
        m = np.array([[1.0 - a * c, -a * eps], [c, eps]])
        for k in range(steps):
            powers[k + 1, region] = m @ powers[k, region]
    return powers


def _skip_inactive(theta: np.ndarray, vel: np.ndarray, w_span: slice, power) -> bool:
    """Apply `power`, the map of a run of inactive steps (one of
    `inactive_powers`), to theta and vel in place; False, with both left as
    they were, if that makes either non-finite."""
    both = np.stack([theta, vel])
    new = power[0] @ both
    new[:, w_span] = power[1] @ both[:, w_span]
    if not np.isfinite(new).all():
        return False
    theta[:], vel[:] = new
    return True


PARAM_FIELDS = ("embeddings", "w_l", "w_r", "b")

# The largest parameter magnitude a checkpoint may hold. Squared distances and
# k-means weights over the embedding table stay finite far beyond it; a value
# near the float limit overflows them (one 1e308 entry made `cluster` fail).
PARAM_LIMIT = 1e100


def _params_doc(p: ModelParams) -> dict:
    return {name: getattr(p, name).tolist() for name in PARAM_FIELDS}


def save_checkpoint(state: TrainState, path) -> None:
    """Canonical JSON container; floats round-trip exactly via repr."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "hyper": asdict(state.hyper),
        "vocab_fingerprint": vocabulary_fingerprint(),
        "epoch": state.epoch,
        "rng_state": state.rng.bit_generator.state,
        "params": _params_doc(state.params),
        "velocity": _params_doc(state.velocity),
        "loss_history": state.loss_history,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _typed(obj: dict, key: str, kind: type, where: str = ""):
    """obj[key], which must be a `kind`; an int is read as a float where a
    float is expected, and a bool is never a number."""
    value = obj.get(key)
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise CheckpointError(f"{where}{key}: expected {kind.__name__}")
    return float(value) if kind is float else value


def _read_params(doc: dict, key: str, n_f: int) -> ModelParams:
    obj = _typed(doc, key, dict)
    shapes = {"embeddings": (VOCAB_SIZE, n_f), "w_l": (n_f, n_f), "w_r": (n_f, n_f),
              "b": (n_f,)}
    arrays = {}
    for name in PARAM_FIELDS:
        try:
            a = np.array(obj.get(name), dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"{key}.{name}: {exc}") from exc
        if a.shape != shapes[name]:
            raise CheckpointError(
                f"{key}.{name} has shape {a.shape}, expected {shapes[name]}")
        if not (np.abs(a) <= PARAM_LIMIT).all():
            raise CheckpointError(
                f"{key}.{name} holds a value that is not finite or beyond {PARAM_LIMIT:g}")
        arrays[name] = a
    return ModelParams(**arrays)


def load_checkpoint(path) -> TrainState:
    """The training state saved at `path`, checked field by field; any
    malformed document raises CheckpointError."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise CheckpointError(f"not a checkpoint file: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError("not a checkpoint file: not a JSON object")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    if doc.get("vocab_fingerprint") != vocabulary_fingerprint():
        raise CheckpointError("vocabulary fingerprint mismatch")

    h = _typed(doc, "hyper", dict)
    hyper = Hyperparams(**{
        f.name: _typed(h, f.name, type(f.default), "hyper.")
        for f in fields(Hyperparams)
    })
    try:
        hyper.validate()
    except ValueError as exc:
        raise CheckpointError(f"hyper: {exc}") from exc

    epoch = _typed(doc, "epoch", int)
    if epoch < 0:
        raise CheckpointError("epoch must be >= 0")
    loss_history = _typed(doc, "loss_history", list)
    if not all(type(v) is float and math.isfinite(v) for v in loss_history):
        raise CheckpointError("loss_history must hold finite floats")
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = _typed(doc, "rng_state", dict)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"bad rng_state: {exc}") from exc
    return TrainState(
        params=_read_params(doc, "params", hyper.n_f),
        velocity=_read_params(doc, "velocity", hyper.n_f),
        epoch=epoch,
        rng=rng,
        hyper=hyper,
        loss_history=loss_history,
    )


def loss_log_csv(report: TrainReport) -> str:
    lines = ["epoch,mean_hinge,objective"]
    rows = zip(report.mean_hinge, report.objective)
    for i, (h, o) in enumerate(rows, start=report.first_epoch):
        lines.append(f"{i},{h!r},{o!r}")
    return "\n".join(lines) + "\n"
