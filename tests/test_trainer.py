import numpy as np
import pytest

from astvec import trainer
from astvec.ast_core import kind_by_name, node
from astvec.coder import Hyperparams, ModelParams, init_params
from astvec.sampling import corrupt, extract_samples
from astvec.trainer import (
    CheckpointError,
    TrainingDiverged,
    fresh_state,
    has_converged,
    load_checkpoint,
    loss_log_csv,
    save_checkpoint,
    train,
    vocabulary_fingerprint,
)


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
        assert state.params.allclose(init, atol=0)
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
        assert not a.params.allclose(b.params, atol=1e-12)

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
        assert state.params.allclose(params, atol=1e-12)
        assert state.rng.bit_generator.state == rng.bit_generator.state

    def test_zero_epochs(self):
        hyper = Hyperparams(n_f=4, epochs=0, seed=3)
        state, report = train(_samples(), hyper)
        assert report.epochs_run == 0
        assert state.params.allclose(
            init_params(hyper, np.random.default_rng(3)), atol=0
        )

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
        assert not a.params.allclose(b.params, atol=1e-12)

    def test_divergence_raised(self):
        hyper = Hyperparams(n_f=4, alpha=1e100, epochs=50, seed=0)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train(_samples(), hyper)

    @pytest.mark.parametrize("where", ["w_l", "embedding"])
    def test_divergence_names_the_step_sample(self, monkeypatch, where):
        # the gradient of step 1 of epoch 1 turns one entry of w_l, or of an
        # embedding row no sample uses, to inf; b and the hinge stay finite
        hyper = Hyperparams(n_f=4, epochs=3, seed=3)
        samples = _samples()
        rng = np.random.default_rng(hyper.seed)
        init_params(hyper, rng)
        for i in rng.permutation(len(samples)):  # epoch 0
            corrupt(samples[i], rng)
        order = rng.permutation(len(samples))  # epoch 1
        step_fn = trainer.gradient_and_hinge
        calls = []

        def blow_up(ids, coef, params, hyper):
            grad, hinge = step_fn(ids, coef, params, hyper)
            calls.append(None)
            if len(calls) == len(samples) + 2:
                g = ModelParams.of_flat(grad, params.n_f)
                if where == "w_l":
                    g.w_l[1, 2] = np.inf
                else:
                    g.embeddings[kind_by_name("Goto").id, 0] = np.inf
            return grad, hinge

        monkeypatch.setattr(trainer, "gradient_and_hinge", blow_up)
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as caught:
            train(samples, hyper)
        assert order[1] != 1  # the index names the sample, not the step
        assert (caught.value.epoch, caught.value.sample_index) == (1, int(order[1]))
        assert len(calls) == len(samples) + 2


class TestCheckpoint:
    def test_round_trip_bytes(self, tmp_path):
        state, _ = train(_samples(), HYPER)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(state, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
            p.read_text(encoding="utf-8").replace('"version":1', '"version":99'),
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
    assert lines[0] == "epoch,mean_hinge,objective"
    assert len(lines) == 3
    epoch, hinge, obj = lines[1].split(",")
    assert epoch == "1"
    assert float(hinge) == report.mean_hinge[0]
    assert float(obj) == report.objective[0]


def test_loss_log_csv_numbers_resumed_epochs():
    samples = _samples()
    half, _ = train(samples, Hyperparams(n_f=4, epochs=4, seed=0), max_epochs=2)
    _, report = train(samples, half.hyper, state=half)
    epochs = [line.split(",")[0] for line in loss_log_csv(report).splitlines()[1:]]
    assert epochs == ["3", "4"]


def test_fingerprint_stable():
    assert vocabulary_fingerprint() == vocabulary_fingerprint()
    assert len(vocabulary_fingerprint()) == 64
