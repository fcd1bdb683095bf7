"""Stochastic gradient descent with momentum over sample pairs.

One running velocity buffer is kept for the whole parameter set and carried
across epochs; each step pairs a sample with a fresh negative, folds the pair
gradient into the velocity with decay epsilon, and applies the update. The
samples are packed once per call, and an epoch's negatives are drawn in one
go before its steps. The init draws from the seed, and each epoch's shuffle
and negatives from `epoch_rng(seed, epoch)`, so runs are reproducible bit for
bit and resume from checkpoints that hold no generator state.

The model is written from scratch on numpy, plus the C kernel (epoch.c,
built by `kernel`) that runs an epoch's steps: each step computes the pair
gradient that `gradient_and_hinge` returns and the momentum update, but a
parameter that a step only decays (all of them when the hinge is 0, and
each embedding row the pair does not read) is brought up to date in closed
form only when an active step writes it, or at the end of the epoch.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import kernel
from .ast_core import KIND_NAMES, VOCAB_SIZE
from .coder import Hyperparams, ModelParams, init_params, l2_penalty, l2_rate
from .sampling import ID_DTYPE, TrainingSample, pack_samples
# An epoch's negatives are drawn through this name; the traced benchmark wraps
# it here.
from .sampling import corrupt_packed as corrupt

CHECKPOINT_VERSION = 3

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
    active_steps: list[int] = field(default_factory=list)  # steps with hinge > 0
    epochs_run: int = 0
    wall_time: float = 0.0
    first_epoch: int = 1  # number of the first epoch this report covers


@dataclass
class TrainState:
    """Everything needed to continue training bit-identically, since each
    epoch draws from `epoch_rng`; a checkpoint is one saved whole."""

    params: ModelParams
    velocity: ModelParams
    epoch: int
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


def epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    """Epoch `epoch`'s generator (epochs count from 1): a child stream of `seed`."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(epoch,)))


def fresh_state(hyper: Hyperparams) -> TrainState:
    hyper.validate()
    params = init_params(hyper, np.random.default_rng(hyper.seed))
    return TrainState(params=params, velocity=params.zeros_like(), epoch=0, hyper=hyper)


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
    hyper = state.hyper
    limit = hyper.epochs if max_epochs is None else max_epochs

    packed = pack_samples(samples)
    params = state.params
    n = len(samples)
    report = TrainReport(first_epoch=state.epoch + 1)
    start = time.perf_counter()

    while state.epoch < limit and not has_converged(state.loss_history):
        rng = epoch_rng(hyper.seed, state.epoch + 1)
        order = rng.permutation(n) if shuffle else np.arange(n)
        rows, pairs = corrupt(packed, order, rng)
        failed, hinge_total, active = kernel.train_epoch(
            params, state.velocity, pairs, rows, packed.coef, packed.n_children,
            hyper.delta, l2_rate(hyper), hyper.alpha, hyper.epsilon)
        if failed is not None:
            raise TrainingDiverged(state.epoch, int(order[failed]))

        mean_hinge = hinge_total / n
        state.epoch += 1
        state.loss_history.append(mean_hinge)
        report.mean_hinge.append(mean_hinge)
        report.objective.append(mean_hinge / 2.0 + l2_penalty(params, hyper))
        report.active_steps.append(active)

    report.epochs_run = len(report.mean_hinge)
    report.wall_time = time.perf_counter() - start
    return state, report


def gradient_and_hinge(
    ids: np.ndarray,
    coef: np.ndarray,
    params: ModelParams,
    hyper: Hyperparams,
) -> tuple[np.ndarray, float]:
    """Exact gradient of one pair's objective, its hinge plus the l2 penalty,
    and the hinge value, as the epoch kernel's step computes them.

    ids (2, 1+K) holds the packed row of the real sample, then that of its
    corrupted copy; coef (2, 1+K) is their shared row of child weights, 0 on
    padding, which adds nothing. The gradient is a flat array in the layout
    of `params.flat`. At the hinge kink (margin exactly met) the subgradient
    0 is used, so a satisfied pair contributes only the l2 part.

    It is one kernel step on a copy of the parameters, from a zero velocity,
    with epsilon = alpha = 0: the velocity it leaves is the gradient, and no
    parameter moves.
    """
    grad = params.zeros_like()
    _, hinge, _ = kernel.train_epoch(
        params.copy(), grad, np.ascontiguousarray(ids[None], dtype=ID_DTYPE),
        np.zeros(1, np.int64), coef[None], np.array([ids.shape[1] - 1], np.int64),
        hyper.delta, l2_rate(hyper), 0.0, 0.0)
    return grad.flat, hinge


# The largest parameter magnitude a checkpoint may hold. Squared distances and
# k-means weights over the embedding table stay finite far beyond it; a value
# near the float limit overflows them (one 1e308 entry made `cluster` fail).
PARAM_LIMIT = 1e100


def _params_doc(p: ModelParams) -> str:
    """`p.flat` as little-endian float64 bytes, base64-encoded."""
    return base64.b64encode(p.flat.astype("<f8", copy=False)).decode("ascii")


def save_checkpoint(state: TrainState, path) -> None:
    """Canonical JSON container; the parameters and the velocity are each one
    base64 string of `ModelParams.flat` as little-endian float64, so they
    round-trip bit for bit."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "hyper": asdict(state.hyper),
        "vocab_fingerprint": vocabulary_fingerprint(),
        "epoch": state.epoch,
        "params": _params_doc(state.params),
        "velocity": _params_doc(state.velocity),
        "loss_history": state.loss_history,
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))  # the C encoder
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _typed(obj: dict, key: str, kind: type, where: str = ""):
    """obj[key], which must be a `kind`; an int is read as a float where a
    float is expected, and a bool is never a number."""
    value = obj.get(key)
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise CheckpointError(f"{where}{key}: expected {kind.__name__}")
    return float(value) if kind is float else value


def _read_params(doc: dict, key: str, n_f: int) -> ModelParams:
    """The parameters saved under doc[key], which is taken out of `doc` so
    that its text is freed once decoded."""
    _typed(doc, key, str)
    size = 8 * (VOCAB_SIZE * n_f + 2 * n_f * n_f + n_f)  # before any decoding
    try:
        raw = base64.b64decode(doc.pop(key), validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise CheckpointError(f"{key}: not base64: {exc}") from exc
    if len(raw) != size:
        raise CheckpointError(f"{key} holds {len(raw)} bytes, expected {size}")
    flat = np.frombuffer(raw, "<f8").astype(np.float64)
    del raw
    if not (np.abs(flat) <= PARAM_LIMIT).all():
        raise CheckpointError(
            f"{key} holds a value that is not finite or beyond {PARAM_LIMIT:g}")
    return ModelParams.of_flat(flat, n_f)


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
    if len(loss_history) != epoch:
        raise CheckpointError(
            f"loss_history holds {len(loss_history)} values for {epoch} epochs")
    return TrainState(
        params=_read_params(doc, "params", hyper.n_f),
        velocity=_read_params(doc, "velocity", hyper.n_f),
        epoch=epoch,
        hyper=hyper,
        loss_history=loss_history,
    )


def loss_log_csv(report: TrainReport) -> str:
    """One row per epoch of `report`; the active-step field is left empty for
    an epoch whose count the report lacks, as in a report merged from
    per-epoch ones that kept only their lists of hinges and objectives (the
    traced benchmark's)."""
    lines = ["epoch,mean_hinge,objective,active_steps"]
    active = report.active_steps + [""] * (len(report.mean_hinge) - len(report.active_steps))
    rows = zip(report.mean_hinge, report.objective, active)
    for i, (h, o, a) in enumerate(rows, start=report.first_epoch):
        lines.append(f"{i},{h!r},{o!r},{a}")
    return "\n".join(lines) + "\n"
