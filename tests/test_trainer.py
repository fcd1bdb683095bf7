import base64
import ctypes
import dataclasses
import json
import math
import subprocess

import numpy as np
import pytest

from astvec import kernel
from astvec.ast_core import KIND_NAMES, VOCAB_SIZE, kind_by_name
from astvec.coder import (
    Hyperparams,
    init_params,
    l2_rate,
    objective,
)
from astvec.sampling import (
    build_training_set,
    corrupt,
    corrupt_packed,
    pack_samples,
)
from astvec.trainer import (
    CHECKPOINT_VERSION,
    PARAM_LIMIT,
    CheckpointError,
    TrainingDiverged,
    TrainReport,
    fresh_state,
    has_converged,
    load_checkpoint,
    loss_log_csv,
    save_checkpoint,
    train,
    vocabulary_fingerprint,
)

from conftest import extract_samples, node, reference_gradient_and_hinge


def _samples():
    trees = [
        node("BinaryOp", node("ID"), node("Constant")),
        node("Return", node("BinaryOp", node("Constant"), node("ID"))),
        node("If", node("ID"), node("Compound", node("Break"))),
        node("While", node("Constant"), node("Compound", node("Continue"))),
    ]
    out = []
    for t in trees:
        out.extend(extract_samples(t))
    return out


HYPER = Hyperparams(n_f=4, epochs=5, seed=1)


class TestConvergence:
    def test_short_history(self):
        assert not has_converged([])
        assert not has_converged([1.0, 1.0, 1.0])

    def test_flat_tail(self):
        assert has_converged([1.0, 0.5, 0.49995, 0.49993, 0.49992])

    def test_still_improving(self):
        assert not has_converged([1.0, 0.9, 0.8, 0.7, 0.6])

    def test_increase_counts_as_converged(self):
        # a rebound is not an improvement, so it does not reset patience
        assert has_converged([1.0, 0.5, 0.5001, 0.5002, 0.5003])

    def test_one_large_drop_resets(self):
        assert not has_converged([1.0, 1.0, 1.0, 0.5])


class TestTrain:
    def test_zero_learning_rate_identity(self):
        hyper = Hyperparams(n_f=4, alpha=0.0, epochs=3, seed=2)
        init = init_params(hyper, np.random.default_rng(hyper.seed))
        state, report = train(_samples(), hyper)
        assert np.array_equal(state.params.flat, init.flat)
        assert report.epochs_run == 3

    def test_loss_decreases(self):
        hyper = Hyperparams(n_f=8, epochs=30, seed=0)
        _, report = train(_samples(), hyper)
        assert report.mean_hinge[-1] < report.mean_hinge[0]

    def test_deterministic(self, tmp_path):
        runs = []
        for _ in range(2):
            state, _ = train(_samples(), Hyperparams(n_f=4, epochs=4, seed=7))
            p = tmp_path / f"cp{len(runs)}.json"
            save_checkpoint(state, p)
            runs.append(p.read_bytes())
        assert runs[0] == runs[1]

    def test_seed_changes_outcome(self):
        a, _ = train(_samples(), Hyperparams(n_f=4, epochs=4, seed=0))
        b, _ = train(_samples(), Hyperparams(n_f=4, epochs=4, seed=1))
        assert not np.allclose(a.params.flat, b.params.flat, atol=1e-12)

    def test_no_momentum_equals_plain_sgd(self):
        # with epsilon=0 the velocity is just the current gradient, so the
        # update reduces to theta -= alpha * grad; replicate by hand, one
        # corrupt() call per sample
        from test_coder import pair_step

        hyper = Hyperparams(n_f=3, epsilon=0.0, epochs=2, seed=5, alpha=0.01)
        samples = _samples()
        state, _ = train(samples, hyper, shuffle=False)

        rng = np.random.default_rng(hyper.seed)
        params = init_params(hyper, rng)
        for _ in range(2):
            for s in samples:
                neg = corrupt(s, rng)
                grad, _ = pair_step(s, neg, params, hyper)
                params.w_l -= hyper.alpha * grad.w_l
                params.w_r -= hyper.alpha * grad.w_r
                params.b -= hyper.alpha * grad.b
                params.embeddings -= hyper.alpha * grad.embeddings
        assert np.allclose(state.params.flat, params.flat, atol=1e-12)
        assert state.rng.bit_generator.state == rng.bit_generator.state

    def test_zero_epochs(self):
        hyper = Hyperparams(n_f=4, epochs=0, seed=3)
        state, report = train(_samples(), hyper)
        assert report.epochs_run == 0
        assert np.array_equal(
            state.params.flat, init_params(hyper, np.random.default_rng(3)).flat)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            train([], HYPER)

    def test_finite_after_training(self):
        state, _ = train(_samples(), Hyperparams(n_f=6, epochs=20, seed=4))
        for arr in (state.params.embeddings, state.params.w_l,
                    state.params.w_r, state.params.b):
            assert np.isfinite(arr).all()

    def test_shuffle_flag_changes_order(self):
        a, _ = train(_samples(), Hyperparams(n_f=4, epochs=1, seed=6), shuffle=True)
        b, _ = train(_samples(), Hyperparams(n_f=4, epochs=1, seed=6), shuffle=False)
        assert not np.allclose(a.params.flat, b.params.flat, atol=1e-12)

    def test_divergence_raised(self):
        hyper = Hyperparams(n_f=4, alpha=1e100, epochs=50, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train(_samples(), hyper)

    @pytest.mark.parametrize("where", ["w_l", "w_r", "b", "embedding"])
    def test_divergence_names_the_step_sample(self, where):
        # every embedding row equal and no margin: a pair and its corrupted
        # copy code alike, so the pairs are inactive; in epoch 1 one entry of
        # w_l, w_r or b, which only decay between active steps, or of the
        # embedding row of Goto, which no sample uses, starts near -max float
        # with a velocity that pushes it past -max float in step
        # OVERFLOW_STEP. The kernel writes none of them before the end of the
        # epoch, so it names that step by replaying the entry's decay.
        hyper = Hyperparams(n_f=4, delta=0.0, epochs=3, seed=3)
        samples = _samples()
        state = fresh_state(hyper)
        state.params.embeddings[:] = state.params.embeddings[0]
        state, _ = train(samples, hyper, state=state, max_epochs=1)
        if where == "embedding":
            goto = kind_by_name("Goto")
            state.params.embeddings[goto, 0], state.velocity.embeddings[goto, 0] = (
                THETA_0, VEL_0)
        elif where == "b":
            state.params.b[1], state.velocity.b[1] = THETA_0, VEL_0
        else:
            params, velocity = getattr(state.params, where), getattr(state.velocity, where)
            params[1, 2], velocity[1, 2] = THETA_0, VEL_0
        order = np.random.default_rng(0)
        order.bit_generator.state = state.rng.bit_generator.state
        order = order.permutation(len(samples))  # epoch 1

        # the entry's own inactive steps, one by one: the l2 penalty is on
        # w_l and w_r only
        c = l2_rate(hyper) if where in ("w_l", "w_r") else 0.0
        theta, vel = THETA_0, VEL_0
        for step in range(len(samples)):
            vel = hyper.epsilon * vel + c * theta
            theta = theta - hyper.alpha * vel
            if not np.isfinite(theta):
                break
        assert step == OVERFLOW_STEP

        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as caught:
            train(samples, hyper, state=state)
        assert order[step] != step  # the index names the sample, not the step
        assert (caught.value.epoch, caught.value.sample_index) == (1, int(order[step]))

    # 7 and 70 pairs an epoch; at the faster rate, coding a pair at the wrong
    # parameters flips some pair's activity. The kernel rounds its sums
    # unlike numpy, so the floats agree to a tolerance only. On the bundled
    # corpus at n_f=4 the per-step loop itself moves by 0.18 within 3 epochs
    # when its start moves by 1e-15, so no tolerance would hold there.
    @pytest.mark.parametrize("copies", [1, 10])
    @pytest.mark.parametrize("alpha,lam", [(0.003, 1e-4), (0.03, 0.1)])
    def test_matches_per_step_loop(self, copies, alpha, lam):
        hyper = Hyperparams(n_f=4, alpha=alpha, lam=lam, epochs=5, seed=1)
        samples = _samples() * copies
        state, report = train(samples, hyper)
        ref, hinges, _ = per_step_train(samples, hyper)
        np.testing.assert_allclose(state.params.flat, ref.params.flat, rtol=0, atol=1e-10)
        np.testing.assert_allclose(state.velocity.flat, ref.velocity.flat, rtol=0, atol=1e-10)
        np.testing.assert_allclose(report.mean_hinge, hinges, rtol=0, atol=1e-10)
        assert state.rng.bit_generator.state == ref.rng.bit_generator.state

    def test_active_steps_match_per_step_loop(self):
        # the steps with a positive hinge, counted per epoch, none written
        _, report = train(_samples(), HYPER)
        _, _, active = per_step_train(_samples(), HYPER)
        assert report.active_steps == active
        assert 0 < min(active) and max(active) < len(_samples())

    def test_epoch_hinges_are_the_forward_passes(self, corpus):
        # at alpha = 0 no parameter moves, so each step codes its pair at the
        # starting parameters: the epoch's hinge total is, bit for bit, the
        # sequential sum of the hinges that `kernel.code_rows` gives for its pairs
        hyper = Hyperparams(alpha=0.0, epochs=1, seed=2)
        samples = build_training_set(corpus)
        state = fresh_state(hyper)
        start = state.params.copy()
        draws = np.random.default_rng()
        draws.bit_generator.state = state.rng.bit_generator.state
        _, report = train(samples, hyper, state=state)

        packed = pack_samples(samples)
        rows, pairs = corrupt_packed(packed, draws.permutation(len(samples)), draws)
        d = kernel.code_rows(start, pairs.reshape(-1, pairs.shape[2]),
                             np.repeat(packed.coef[rows], 2, axis=0),
                             np.repeat(packed.n_children[rows], 2))
        total, active = 0.0, 0
        for real, corrupted in d.reshape(-1, 2).tolist():
            hinge = max(0.0, hyper.delta + real - corrupted)
            total += hinge
            active += hinge > 0.0
        assert report.mean_hinge == [total / len(samples)]
        assert report.active_steps == [active]

    def test_all_active_epochs_match_per_step_loop(self):
        # a margin above any distance difference makes every pair active,
        # so every step moves w, b and every table row: the other extreme
        # of test_inactive_epoch_equals_literal_steps. The hinges are near
        # the margin, 1e6, whose unit in the last place is 1.2e-10, so they
        # agree to a relative tolerance.
        hyper = Hyperparams(n_f=4, delta=1e6, epochs=3, seed=1)  # before the stop rule
        samples = _samples() * 10
        state, report = train(samples, hyper)
        ref, hinges, active = per_step_train(samples, hyper)
        assert report.active_steps == active == [len(samples)] * hyper.epochs
        np.testing.assert_allclose(state.params.flat, ref.params.flat, rtol=0, atol=1e-10)
        np.testing.assert_allclose(state.velocity.flat, ref.velocity.flat, rtol=0, atol=1e-10)
        np.testing.assert_allclose(report.mean_hinge, hinges, rtol=1e-15, atol=0)


# -max float plus a velocity that overflows it in the 4th step: alpha epsilon
# VEL_0 (1 + epsilon + epsilon^2) = 7.3e305 < 7.7e305 < 9.3e305 (one more term)
THETA_0, VEL_0, OVERFLOW_STEP = -1.79e308, 1e308, 3


def per_step_train(samples, hyper):
    """The literal per-step loop that `train` shortens: every pair of every
    epoch steps through reference_gradient_and_hinge, the numpy oracle of the
    kernel's step, and the momentum update, with the negatives drawn as
    `train` draws them. Returns the state, and per epoch the mean hinge and
    the number of steps whose hinge is positive."""
    state = fresh_state(hyper)
    packed = pack_samples(samples)
    theta, vel = state.params.flat, state.velocity.flat
    hinges, active = [], []
    for _ in range(hyper.epochs):
        order = state.rng.permutation(len(samples))
        rows, pairs = corrupt_packed(packed, order, state.rng)
        total, count = 0.0, 0
        for row, ids in zip(rows, pairs):
            grad, hinge = reference_gradient_and_hinge(ids, packed.coef[row], state.params,
                                                       hyper)
            total += hinge
            count += hinge > 0.0
            vel *= hyper.epsilon
            vel += grad
            theta -= hyper.alpha * vel
        hinges.append(total / len(samples))
        active.append(count)
    return state, hinges, active


def inactive_step(theta, vel, w_span, hyper):
    """One literal step of a pair with hinge 0: the l2 gradient only."""
    g_l2 = np.zeros_like(theta)
    g_l2[w_span] = l2_rate(hyper) * theta[w_span]
    vel *= hyper.epsilon
    vel += g_l2
    theta -= hyper.alpha * vel


def test_inactive_epoch_equals_literal_steps():
    # a margin below any distance difference makes every pair inactive, so an
    # epoch is the l2 shrink and the momentum decay alone, step by step; the
    # kernel instead jumps each embedding row over the steps that do not read
    # it, one closed-form map per jump. The penalty is strong enough that the
    # weights' map differs visibly, and with epsilon near 1 the velocities stay
    # visible to the end.
    hyper = Hyperparams(n_f=4, delta=-1e6, lam=0.5, alpha=0.05, epsilon=0.995,
                        epochs=1, seed=4)
    samples = _samples() * 150
    n = len(samples)
    assert n >= 1000
    state = fresh_state(dataclasses.replace(hyper, delta=0.0))
    state.hyper = hyper
    state.velocity.flat[:] = np.random.default_rng(5).uniform(
        -1, 1, state.velocity.flat.size)
    theta, vel = state.params.flat.copy(), state.velocity.flat.copy()
    for _ in range(n):
        inactive_step(theta, vel, state.params.w_span, hyper)

    # the epoch's pairs, drawn as train draws them: some row goes unread for
    # far longer than a few dozen steps
    draws = np.random.default_rng()
    draws.bit_generator.state = state.rng.bit_generator.state
    packed = pack_samples(samples)
    rows, pairs = corrupt_packed(packed, draws.permutation(n), draws)
    real = np.arange(pairs.shape[2]) <= packed.n_children[rows][:, None]
    longest = max(
        np.diff(np.flatnonzero(np.r_[True, ((pairs == sym) & real[:, None]).any(axis=(1, 2)),
                                     True])).max()
        for sym in range(VOCAB_SIZE))
    assert longest > 100

    state, report = train(samples, hyper, state=state)
    assert report.mean_hinge == [0.0]
    for got, want in ((state.params.flat, theta), (state.velocity.flat, vel)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_wide_node_matches_per_step_loop():
    # 80 dimensions and a node with 300 children: every scratch array of the
    # kernel is sized from N_f and K, none is fixed
    kinds = [kind for kind in KIND_NAMES if kind != "Root"]
    wide = node("Compound", *(node(kinds[i % len(kinds)]) for i in range(300)))
    samples = _samples() + extract_samples(node("FuncDef", node("ID"), wide))
    hyper = Hyperparams(n_f=80, epochs=3, seed=2)
    state, report = train(samples, hyper)
    ref, hinges, _ = per_step_train(samples, hyper)
    assert max(len(s.children) for s in samples) == 300
    assert 0 < min(report.mean_hinge)
    np.testing.assert_allclose(state.params.flat, ref.params.flat, rtol=0, atol=1e-10)
    np.testing.assert_allclose(state.velocity.flat, ref.velocity.flat, rtol=0, atol=1e-10)
    np.testing.assert_allclose(report.mean_hinge, hinges, rtol=0, atol=1e-10)


# The largest distance, in units in the last place, of the kernel's tanh from
# libm's, as measured on a grid of [-20, 20] in steps of 1e-5 and the grids
# below; epoch.c states it.
TANH_ULP = 3


def _tanh_grid():
    ln2 = math.log(2)
    # y = -2|x| is reduced by k ln2, and k changes where y / ln2 is a half
    boundaries = np.array([(j + 0.5) * ln2 / 2 for j in range(60)])
    around = np.arange(-200, 201)
    x = np.concatenate([
        np.arange(-21, 21, 1e-4),
        np.geomspace(5e-324, 1, 20_001),  # dense near 0, subnormals too
        (boundaries[:, None] + around * np.spacing(boundaries)[:, None]).ravel(),
        (boundaries[:, None] + np.linspace(-1e-6, 1e-6, 201)).ravel(),
        np.linspace(19, 21, 20_001),
        [25.0, 1e3, 1e300, np.finfo(float).max, np.inf, 0.0],
    ])
    return np.concatenate([x, -x, [np.nan]])


def test_kernel_tanh_is_near_libm():
    fn = ctypes.CDLL(str(kernel.library_path())).tanh_array
    array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    fn.argtypes = [array, array, ctypes.c_int64]
    fn.restype = None
    x = _tanh_grid()
    got = np.empty_like(x)
    fn(x, got, len(x))
    want = np.array([math.tanh(v) for v in x])
    assert np.array_equal(np.isnan(got), np.isnan(x))  # the hinge check sees a NaN
    x, got, want = x[~np.isnan(x)], got[~np.isnan(x)], want[~np.isnan(x)]
    assert np.array_equal(np.signbit(got), np.signbit(want))
    # same sign: the distance of the bit patterns counts the doubles between
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= TANH_ULP
    exact = (x == 0) | (np.abs(x) >= 20)  # +-0, and +-1 from 20 to inf
    assert np.array_equal(got[exact], want[exact])


def test_kernel_floats_do_not_depend_on_the_build(tmp_path, monkeypatch, corpus):
    # the kernel's build with the vector width of this host, then without it,
    # then at -O2: two epochs of the bundled corpus give the same parameters,
    # velocity, mean hinges and active steps, and the objective at the end
    # the same value, byte for byte
    portable = tuple(flag for flag in kernel.COMPILE if flag != "-march=native")
    commands = [kernel.COMPILE, portable,
                tuple("-O2" if flag == "-O3" else flag for flag in portable)]
    samples = build_training_set(corpus)
    rng = np.random.default_rng(1)
    pairs = [(s, corrupt(s, rng)) for s in samples]
    load = kernel.load
    runs = []
    for i, command in enumerate(commands):
        lib = tmp_path / f"epoch{i}.so"
        subprocess.run([*command, "-o", str(lib), str(kernel.KERNEL_SOURCE)], check=True)
        monkeypatch.setattr(kernel, "load", lambda lib=lib: load(lib))
        state, report = train(samples, Hyperparams(epochs=2, seed=0))
        runs.append((state.params.flat.tobytes(), state.velocity.flat.tobytes(),
                     np.array(report.mean_hinge).tobytes(), report.active_steps,
                     np.float64(objective(pairs, state.params, state.hyper)).tobytes()))
    assert runs[0] == runs[1] == runs[2]


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        state, _ = train(_samples(), HYPER)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(state, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_round_trip_bit_exact(self, tmp_path):
        state, _ = train(_samples(), HYPER)
        edges = [-0.0, 5e-324, -5e-324, PARAM_LIMIT, -PARAM_LIMIT]
        state.params.flat[:len(edges)] = edges
        state.velocity.flat[-len(edges):] = edges
        p = tmp_path / "cp.json"
        save_checkpoint(state, p)
        doc = json.loads(p.read_text(encoding="utf-8"))
        loaded = load_checkpoint(p)
        for key in ("params", "velocity"):
            flat = getattr(state, key).flat
            assert getattr(loaded, key).flat.tobytes() == flat.tobytes()
            assert doc[key] == base64.b64encode(flat.astype("<f8").tobytes()).decode()

    def test_resume_bit_identical(self, tmp_path):
        samples = _samples()
        hyper = Hyperparams(n_f=4, epochs=6, seed=11)

        full, _ = train(samples, hyper)
        cp_full = tmp_path / "full.json"
        save_checkpoint(full, cp_full)

        half, _ = train(samples, Hyperparams(n_f=4, epochs=6, seed=11), max_epochs=3)
        mid = tmp_path / "mid.json"
        save_checkpoint(half, mid)
        resumed_state = load_checkpoint(mid)
        resumed, _ = train(samples, resumed_state.hyper, state=resumed_state)
        cp_resumed = tmp_path / "resumed.json"
        save_checkpoint(resumed, cp_resumed)

        assert cp_full.read_bytes() == cp_resumed.read_bytes()

    def test_fingerprint_mismatch(self, tmp_path):
        state, _ = train(_samples(), HYPER)
        p = tmp_path / "cp.json"
        save_checkpoint(state, p)
        doc = p.read_text(encoding="utf-8").replace(
            vocabulary_fingerprint(), "0" * 64
        )
        p.write_text(doc, encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "cp.json"
        p.write_text("not json", encoding="utf-8")
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_version_rejected(self, tmp_path):
        state, _ = train(_samples(), HYPER)
        p = tmp_path / "cp.json"
        save_checkpoint(state, p)
        p.write_text(
            p.read_text(encoding="utf-8").replace(
                f'"version":{CHECKPOINT_VERSION}', '"version":99'),
            encoding="utf-8",
        )
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    def test_hyper_preserved(self, tmp_path):
        hyper = Hyperparams(n_f=5, delta=0.7, lam=0.02, alpha=0.01,
                            epsilon=0.5, epochs=2, seed=13)
        state, _ = train(_samples(), hyper)
        p = tmp_path / "cp.json"
        save_checkpoint(state, p)
        assert load_checkpoint(p).hyper == hyper


def test_loss_log_csv():
    state, report = train(_samples(), Hyperparams(n_f=4, epochs=2, seed=0))
    text = loss_log_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "epoch,mean_hinge,objective,active_steps"
    assert len(lines) == 3
    epoch, hinge, obj, active = lines[1].split(",")
    assert epoch == "1"
    assert float(hinge) == report.mean_hinge[0]
    assert float(obj) == report.objective[0]
    assert int(active) == report.active_steps[0]


def test_loss_log_csv_without_counts():
    # a report merged from per-epoch ones that kept only their hinges and
    # objectives still gives one row per epoch
    report = TrainReport(mean_hinge=[0.5, 0.25], objective=[0.3, 0.2], active_steps=[7])
    assert loss_log_csv(report).splitlines()[1:] == ["1,0.5,0.3,7", "2,0.25,0.2,"]


def test_loss_log_csv_numbers_resumed_epochs():
    samples = _samples()
    half, _ = train(samples, Hyperparams(n_f=4, epochs=4, seed=0), max_epochs=2)
    _, report = train(samples, half.hyper, state=half)
    epochs = [line.split(",")[0] for line in loss_log_csv(report).splitlines()[1:]]
    assert epochs == ["3", "4"]


def test_fingerprint_stable():
    assert vocabulary_fingerprint() == vocabulary_fingerprint()
    assert len(vocabulary_fingerprint()) == 64
