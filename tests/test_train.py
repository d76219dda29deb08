"""Loss, optimizer, scheduler traces, and the fit loop (determinism, resume)."""

import numpy as np
import pytest

from sarunet import Tape, ops, parameter, tensor
from sarunet.data import WindowDataset, WindowSpec, make_windows, synth_generate
from sarunet.errors import DataError, DimensionError, NumericError, UsageError
from sarunet.metrics import EvalSetup, evaluate_setup
from sarunet.model import ModelConfig, build
from sarunet.train import (HISTORY_COLUMNS, LR0, TrainConfig, TrainState, _split_mse,
                           adam_step, fit, mse_loss, scheduler_step)


class TestMseLoss:
    def test_equal_inputs_give_zero(self):
        x = tensor(np.random.default_rng(0).random((2, 3, 4, 4)).astype(np.float32))
        assert mse_loss(x, x).item() == 0.0

    def test_unit_offset_gives_one(self):
        x = tensor(np.zeros((2, 1, 3, 3), np.float32))
        y = tensor(np.ones((2, 1, 3, 3), np.float32))
        assert mse_loss(x, y).item() == pytest.approx(1.0, abs=1e-7)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.random((2, 2, 3, 3)).astype(np.float32)
        b = rng.random((2, 2, 3, 3)).astype(np.float32)
        want = sum((float(x) - float(y)) ** 2 for x, y in zip(a.ravel(), b.ravel()))
        want /= a.size
        assert mse_loss(tensor(a), tensor(b)).item() == pytest.approx(want, rel=1e-7)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse_loss(tensor(np.zeros((1, 1, 2, 2))), tensor(np.zeros((1, 1, 2, 3))))

    def test_differentiable(self):
        p = parameter(np.full((1, 1, 2, 2), 3.0), dtype=np.float64)
        t = tensor(np.full((1, 1, 2, 2), 1.0), dtype=np.float64)
        with Tape() as tape:
            loss = mse_loss(p, t)
        tape.backward(loss)
        np.testing.assert_allclose(p.grad, np.full((1, 1, 2, 2), 1.0), rtol=1e-12)


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = parameter(np.full((1, 2, 1, 1), 1.5))
        before = p.data.copy()
        state = TrainState(current_lr=0.1)
        for _ in range(3):
            adam_step([("p", p)], state, lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    @pytest.mark.parametrize("g", [1e-4, 1.0, 250.0])
    def test_first_step_magnitude_is_scale_free(self, g):
        p = parameter(np.zeros((1, 1, 1, 1)), dtype=np.float64)
        p.grad[...] = g
        state = TrainState(current_lr=0.01)
        adam_step([("p", p)], state, lr=0.01)
        delta = abs(float(p.data[0, 0, 0, 0]))
        assert 0.99 * 0.01 <= delta <= 0.01

    def test_quadratic_bowl_monotone_after_warmup(self):
        p = parameter(np.full((1, 1, 1, 1), 1.0), dtype=np.float64)
        state = TrainState(current_lr=0.05)
        losses = []
        for _ in range(10):
            with Tape() as tape:
                loss = ops.sum_all(ops.mul(p, p))
            losses.append(loss.item())
            p.zero_grad()
            tape.backward(loss)
            adam_step([("p", p)], state, lr=0.05)
        for i in range(2, 9):
            assert losses[i + 1] < losses[i]

    def test_missing_grad_names_parameter(self):
        bad = tensor(np.zeros((1, 1, 1, 1)))  # no grad buffer
        with pytest.raises(UsageError, match="enc0.weight"):
            adam_step([("enc0.weight", bad)], TrainState(current_lr=0.1), lr=0.1)


class TestSchedulerTraces:
    def run_trace(self, losses):
        state = TrainState(current_lr=LR0)
        lrs = []
        for i, v in enumerate(losses, start=1):
            state.epoch = i
            lrs.append(scheduler_step(state, v))
        return state, lrs

    def test_plateau_drop_after_epoch_six(self):
        state, lrs = self.run_trace([1.0, 0.9, 0.95, 0.96, 0.97, 0.98])
        assert state.current_lr == 0.001 * 0.1
        assert lrs[:5] == [0.001] * 5
        assert lrs[5] == 0.001 * 0.1

    def test_strictly_decreasing_never_drops(self):
        losses = [1.0 / (i + 1) for i in range(200)]
        state, lrs = self.run_trace(losses)
        assert state.current_lr == 0.001
        assert all(lr == 0.001 for lr in lrs)

    def test_flat_losses_early_stop_at_15_best_epoch_1(self):
        config = TrainConfig()
        state = TrainState(current_lr=LR0)
        stop_epoch = None
        for i in range(1, 100):
            state.epoch = i
            scheduler_step(state, 1.0)
            if state.since_improve >= config.early_stop_patience:
                stop_epoch = i
                break
        assert stop_epoch == 15
        assert state.best_epoch == 1
        assert state.best_val_loss == 1.0

    def test_nan_loss_aborts(self):
        state = TrainState(current_lr=0.001)
        state.epoch = 1
        with pytest.raises(NumericError):
            scheduler_step(state, float("nan"))

    def test_tie_counts_as_non_improvement(self):
        state, _ = self.run_trace([1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        assert state.best_epoch == 2
        assert state.current_lr == 0.001 * 0.1  # four ties after the best


def tiny_dataset(seed=0, frames=40, size=32, in_frames=2, offset=1):
    series = synth_generate(seed=seed, n_frames=frames, height=size, width=size)
    wins = make_windows(series, WindowSpec(in_frames, (offset,)))
    scale = float(series.frames.max())
    cut = int(len(wins) * 0.7)
    train = WindowDataset(series, wins[:cut], scale)
    val = WindowDataset(series, wins[cut:], scale)
    return train, val


def tiny_model(seed=0):
    return build(ModelConfig(in_channels=2, out_channels=1, base_channels=4,
                             cbam_reduction=4), seed=seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_validation_mse_is_evaluate_mse(seed):
    """Training's validation MSE and the evaluation report's MSE share one
    accumulator: bit-equal at every batch size."""
    _, val = tiny_dataset(seed=seed)
    model = tiny_model(seed)
    setup = EvalSetup(model_name="sar-unet", input_minutes=10, lead_minutes=(5,),
                      unit="raw", scale=val.scale, interval_minutes=5)
    for batch_size in (1, 4, len(val)):
        assert _split_mse(model, val, batch_size) == \
            evaluate_setup(model, val, setup, batch_size=batch_size).mse, batch_size


class TestFit:
    def test_single_epoch_history(self, tmp_path):
        train, val = tiny_dataset()
        result = fit(tiny_model(), train, val,
                     TrainConfig(max_epochs=1, batch_size=4, seed=1),
                     out_dir=tmp_path)
        assert len(result.history) == 1
        assert result.best_epoch == 1
        assert (tmp_path / "history.csv").exists()
        header = (tmp_path / "history.csv").read_text().splitlines()[0]
        assert header == ",".join(HISTORY_COLUMNS)
        assert (tmp_path / "best.ckpt").exists()
        assert (tmp_path / "last.ckpt").exists()

    def test_same_seed_bitwise_identical_history(self):
        train, val = tiny_dataset()
        cfg = TrainConfig(max_epochs=3, batch_size=4, seed=7)
        r1 = fit(tiny_model(3), train, val, cfg)
        r2 = fit(tiny_model(3), train, val, cfg)
        for a, b in zip(r1.history, r2.history):
            assert (a.epoch, a.train_mse, a.val_mse, a.lr) == \
                   (b.epoch, b.train_mse, b.val_mse, b.lr)

    def test_resume_reproduces_remaining_history(self, tmp_path):
        train, val = tiny_dataset()
        full_cfg = TrainConfig(max_epochs=4, batch_size=4, seed=9)
        r_full = fit(tiny_model(5), train, val, full_cfg, out_dir=tmp_path / "full")
        half_dir = tmp_path / "half"
        fit(tiny_model(5), train, val,
            TrainConfig(max_epochs=2, batch_size=4, seed=9), out_dir=half_dir)
        r_rest = fit(tiny_model(5), train, val, full_cfg, out_dir=half_dir, resume=True)
        assert [e.epoch for e in r_rest.history] == [3, 4]
        for a, b in zip(r_full.history[2:], r_rest.history):
            assert (a.train_mse, a.val_mse, a.lr) == (b.train_mse, b.val_mse, b.lr)

    def test_best_checkpoint_matches_history_minimum(self, tmp_path):
        train, val = tiny_dataset()
        model = tiny_model(11)
        result = fit(model, train, val, TrainConfig(max_epochs=4, batch_size=4, seed=2))
        assert result.best_val_loss == min(e.val_mse for e in result.history)
        # fit returns with the best epoch's weights in the model
        assert _split_mse(model, val, 4) == result.best_val_loss

    def test_empty_split_rejected(self):
        train, _ = tiny_dataset()
        empty = WindowDataset(train.series, [], train.scale)
        with pytest.raises(DataError):
            fit(tiny_model(), train, empty, TrainConfig(max_epochs=1))

    def test_optimizer_touches_only_trainables(self):
        train, val = tiny_dataset()
        model = tiny_model(13)
        buffers_before = {n: b.copy() for n, b in model.named_buffers()}
        params_before = {n: p.data.copy() for n, p in model.named_parameters()}
        batch = train.batch([0, 1])
        model.zero_grad()
        with Tape() as tape:
            pred, _ = model.forward(batch.inputs, train=False)  # eval: stats frozen
            loss = mse_loss(pred, batch.targets)
        tape.backward(loss)
        state = TrainState(current_lr=0.001)
        adam_step(list(model.named_parameters()), state, 0.001)
        changed = [n for n, p in model.named_parameters()
                   if not np.array_equal(p.data, params_before[n])]
        assert changed  # step moved parameters
        for n, b in model.named_buffers():
            np.testing.assert_array_equal(b, buffers_before[n])

    def test_eval_forward_keeps_buffers_train_forward_updates(self):
        train, _ = tiny_dataset()
        model = tiny_model(17)
        before = {n: b.copy() for n, b in model.named_buffers()}
        batch = train.batch([0, 1])
        model.forward(batch.inputs, train=False)
        for n, b in model.named_buffers():
            np.testing.assert_array_equal(b, before[n])
        model.forward(batch.inputs, train=True)
        assert any(not np.array_equal(b, before[n]) for n, b in model.named_buffers())

    def test_divergence_aborts(self):
        train, val = tiny_dataset()
        model = tiny_model(19)
        for _, p in model.named_parameters():
            p.data *= 0.0
        bias = dict(model.named_parameters())["out.bias"]
        bias.data[...] = 2e3  # mse ~ 4e6 against ~unit-scale targets
        with pytest.raises(NumericError):
            fit(model, train, val, TrainConfig(max_epochs=1, batch_size=4))
