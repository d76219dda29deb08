"""Tape mechanics and gradient correctness via central finite differences.

All finite-difference sweeps run in float64 with h=1e-4; agreement is judged
by the max absolute gradient difference normalized by the largest gradient
magnitude (see oracles.grad_rel_err).
"""

import gc
import threading
import weakref
from itertools import combinations

import numpy as np
import pytest

from sarunet import Tape, ops, tensor
from sarunet.errors import UsageError

from oracles import finite_diff, grad_rel_err

F64 = np.float64


def _scalar_loss(out):
    return ops.sum_all(ops.mul(out, out))  # sum of squares keeps grads non-trivial


def check_op_gradients(build_inputs, apply_op, seeds=range(10), tol=1e-4, h=1e-4):
    """For each seed: backward() gradients vs finite differences, all inputs."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        tensors = build_inputs(rng)
        with Tape() as tape:
            loss = _scalar_loss(apply_op(*tensors))
        tape.backward(loss)
        for ti in tensors:
            if not ti.requires_grad:
                continue

            def f(ti=ti):
                return _scalar_loss(apply_op(*tensors)).item()

            num = finite_diff(f, ti.data, h=h)
            assert grad_rel_err(ti.grad, num) <= tol, f"seed {seed}"


class TestTapeMechanics:
    def test_sum_gives_ones(self):
        x = tensor(np.random.default_rng(0).normal(size=(2, 3, 4, 5)),
                   requires_grad=True, dtype=F64)
        with Tape() as tape:
            loss = ops.sum_all(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_relu_dead_region_gives_zeros(self):
        x = tensor(-np.abs(np.random.default_rng(1).normal(size=(1, 2, 3, 3))) - 0.1,
                   requires_grad=True, dtype=F64)
        with Tape() as tape:
            loss = ops.sum_all(ops.relu(x))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))

    def test_every_op_visited_exactly_once(self):
        x = tensor(np.ones((1, 2, 4, 4)), requires_grad=True)
        with Tape() as tape:
            a = ops.relu(x)
            b = ops.sigmoid(x)
            c = ops.add(a, b)
            loss = ops.mean_all(c)
        calls = []

        def counted(rec):
            fn = rec.backward_fn

            def run(gout):
                calls.append(rec)
                return fn(gout)
            return run

        recorded = list(tape.ops)
        for rec in recorded:
            rec.backward_fn = counted(rec)
        tape.backward(loss)
        assert len(recorded) == 4
        assert calls == recorded[::-1]          # each once, in reverse order
        assert tape.ops == []                   # backward consumes the tape

    def test_backward_twice_accumulates(self):
        """Two tapes over the same leaf add into its buffer until zeroed."""
        x = tensor(np.full((1, 1, 2, 2), 2.0), requires_grad=True, dtype=F64)
        for _ in range(2):
            with Tape() as tape:
                loss = ops.sum_all(x)
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full_like(x.data, 2.0))

    def test_second_backward_is_usage_error(self):
        x = tensor(np.full((1, 1, 2, 2), 2.0), requires_grad=True, dtype=F64)
        with Tape() as tape:
            loss = ops.sum_all(ops.relu(x))
        tape.backward(loss)
        with pytest.raises(UsageError, match="consumes"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

        # A call that raised partway consumed the tape all the same.
        x.zero_grad()
        with Tape() as tape:
            loss = ops.sum_all(ops.relu(x))

        def broken(gout):
            raise FloatingPointError("rule failed")
        tape.ops[-1].backward_fn = broken
        with pytest.raises(FloatingPointError):
            tape.backward(loss)
        with pytest.raises(UsageError, match="consumes"):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros_like(x.data))

    def test_grad_kept_on_leaves_and_retained_outputs_only(self):
        x = tensor(np.array([-1.0, 2.0]).reshape(1, 1, 1, 2), requires_grad=True, dtype=F64)
        three = tensor(np.full((1, 1, 1, 2), 3.0), dtype=F64)
        with Tape() as tape:
            a = ops.relu(x)
            b = ops.mul(a, three)
            b.retain_grad()
            loss = ops.sum_all(b)
        assert a.requires_grad and a.grad is None and loss.grad is None
        tape.backward(loss)
        assert a.grad is None and loss.grad is None
        np.testing.assert_array_equal(b.grad, np.ones_like(b.data))
        np.testing.assert_array_equal(x.grad, [[[[0.0, 3.0]]]])

    def test_retain_grad_is_noop_without_gradient_flow(self):
        a = ops.relu(tensor(np.ones((1, 1, 1, 1)), requires_grad=True))   # no tape
        a.retain_grad()
        assert not a.requires_grad and a.grad is None

    def test_output_of_another_tape_is_skipped(self):
        w = tensor(np.ones((1, 1, 2, 2)), requires_grad=True, dtype=F64)
        with Tape():
            a = ops.add(w, w)
        with Tape() as tape:
            loss = ops.sum_all(ops.mul(a, w))
        tape.backward(loss)
        assert a.grad is None
        np.testing.assert_array_equal(w.grad, a.data)

    def test_non_scalar_loss_rejected(self):
        x = tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            y = ops.relu(x)
        with pytest.raises(UsageError):
            tape.backward(y)

    def test_untaped_loss_rejected(self):
        x = tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        y = ops.relu(x)  # no tape active: nothing recorded
        with pytest.raises(UsageError):
            Tape().backward(y)

    def test_loss_from_another_tape_rejected(self):
        x = tensor(np.ones((1, 1, 1, 1)), requires_grad=True)
        with Tape():
            y = ops.relu(x)
        with pytest.raises(UsageError):
            Tape().backward(y)

    def test_tape_freed_without_collector(self):
        """Recorded outputs hold no reference back to their tape, so a dropped
        tape is freed by reference counting while its loss lives on."""
        rng = np.random.default_rng(3)
        x = tensor(rng.normal(size=(1, 2, 8, 8)))
        w = tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        gc.disable()
        try:
            with Tape() as tape:
                loss = ops.mean_all(ops.relu(ops.conv2d(x, w)))
            tape.backward(loss)
            ref = weakref.ref(tape)
            del tape
            assert ref() is None
            assert loss.shape == (1, 1, 1, 1)
        finally:
            gc.enable()

    def test_tape_is_topological(self):
        """Each input key is either an output key recorded earlier on the
        tape, with no tensor held, or a leaf the record holds itself."""
        x = tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            a = ops.relu(x)
            b = ops.add(a, a)
            s = ops.sum_all(b)
        created = {}
        for pos, rec in enumerate(tape.ops):
            for key, leaf in zip(rec.inputs, rec.leaves):
                if leaf is None:
                    assert created[key] < pos
                else:
                    assert leaf.key == key and key not in created
            created[rec.key] = pos
        assert created == {a.key: 0, b.key: 1, s.key: 2}
        assert tape.ops[0].leaves == (x,)
        assert tape.ops[1].inputs == (a.key, a.key)
        assert tape.ops[1].leaves == (None, None)

    def test_shared_intermediate_accumulates(self):
        x = tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True, dtype=F64)
        with Tape() as tape:
            a = ops.relu(x)
            loss = ops.sum_all(ops.add(a, a))
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.full_like(x.data, 2.0))

    def test_threaded_inference_private_tapes(self):
        rng = np.random.default_rng(2)
        w = tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32), requires_grad=True)
        xs = [tensor(rng.normal(size=(1, 2, 8, 8)).astype(np.float32)) for _ in range(4)]
        serial = [ops.conv2d(x, w).data for x in xs]
        results = [None] * 4

        def run(i):
            with Tape():
                results[i] = ops.conv2d(xs[i], w).data

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for got, want in zip(results, serial):
            np.testing.assert_array_equal(got, want)


class TestOpGradients:
    def test_conv2d(self):
        """The dense kernel, 3x3."""
        def build(rng):
            return (tensor(rng.normal(size=(2, 4, 5, 5)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(6, 4, 3, 3)) * 0.5, requires_grad=True, dtype=F64))

        check_op_gradients(build, ops.conv2d, seeds=range(3))

    def test_conv2d_cbam_7x7(self):
        """The dense kernel at CBAM's shape: two maps in, one out, 7x7, on
        planes smaller than the kernel."""
        def build(rng):
            return (tensor(rng.normal(size=(1, 2, 5, 4)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(1, 2, 7, 7)), requires_grad=True, dtype=F64))

        check_op_gradients(build, ops.conv2d, seeds=range(3))

    def test_batch_norm_train(self):
        """The pointwise conv fused with its train-mode batch norm: input,
        weight, gamma and beta."""
        def build(rng):
            return (tensor(rng.normal(size=(3, 2, 4, 4)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(3, 2, 1, 1)), requires_grad=True, dtype=F64),
                    tensor(1.0 + 0.1 * rng.normal(size=(1, 3, 1, 1)),
                           requires_grad=True, dtype=F64),
                    tensor(0.1 * rng.normal(size=(1, 3, 1, 1)),
                           requires_grad=True, dtype=F64))

        def apply(x, w, g, b):
            rm = np.zeros(3, dtype=F64)
            rv = np.ones(3, dtype=F64)
            return ops.pointwise_batch_norm(x, w, g, b, rm, rv, train=True)

        check_op_gradients(build, apply, seeds=range(10), tol=1e-4)

    def test_batch_norm_eval(self):
        rm = np.array([0.3, -0.2, 0.1], dtype=F64)
        rv = np.array([1.5, 0.7, 1.1], dtype=F64)

        def build(rng):
            return (tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(3, 2, 1, 1)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(1, 3, 1, 1)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(1, 3, 1, 1)), requires_grad=True, dtype=F64))

        check_op_gradients(build,
                           lambda x, w, g, b: ops.pointwise_batch_norm(
                               x, w, g, b, rm.copy(), rv.copy(), train=False),
                           seeds=range(3))

    @pytest.mark.parametrize("op", [
        ops.relu, ops.sigmoid,
        lambda x: ops.max_pool2(x),
        lambda x: ops.upsample_bilinear2(x),
        lambda x: ops.global_pool(x, "avg", "spatial"),
        lambda x: ops.global_pool(x, "max", "spatial"),
        lambda x: ops.global_pool(x, "avg", "channel"),
        lambda x: ops.global_pool(x, "max", "channel"),
    ], ids=["relu", "sigmoid", "max_pool2", "upsample", "gp_avg_s", "gp_max_s",
            "gp_avg_c", "gp_max_c"])
    def test_unary_ops(self, op):
        def build(rng):
            # keep values away from relu kinks / pooling ties
            vals = rng.normal(size=(2, 3, 4, 4))
            vals += 0.05 * np.sign(vals)
            return (tensor(vals, requires_grad=True, dtype=F64),)

        check_op_gradients(build, op, seeds=range(10))

    def test_binary_ops(self):
        def build(rng):
            return (tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True, dtype=F64))

        for op in (ops.add, ops.sub, ops.mul):
            check_op_gradients(build, op, seeds=range(5))

    def test_concat_and_slice(self):
        def build(rng):
            return (tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(1, 3, 3, 3)), requires_grad=True, dtype=F64))

        check_op_gradients(build, ops.concat_channels, seeds=range(5))

    def test_mul_broadcast_both_shapes(self):
        def build_c(rng):
            return (tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(2, 3, 1, 1)), requires_grad=True, dtype=F64))

        def build_s(rng):
            return (tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True, dtype=F64),
                    tensor(rng.normal(size=(2, 1, 4, 4)), requires_grad=True, dtype=F64))

        check_op_gradients(build_c, ops.mul_broadcast, seeds=range(5))
        check_op_gradients(build_s, ops.mul_broadcast, seeds=range(5))


class TestDepthwiseSeparableProperty:
    def test_depthwise_then_pointwise_matches_loop_oracle(self):
        from oracles import depthwise_separable_loops
        rng = np.random.default_rng(21)
        x = rng.normal(size=(1, 3, 8, 8))
        dw = rng.normal(size=(3, 1, 3, 3))
        pw = rng.normal(size=(5, 3, 1, 1))
        pb = rng.normal(size=5)
        mid = ops.conv2d(tensor(x, dtype=F64), tensor(dw, dtype=F64))
        out = ops.conv2d(mid, tensor(pw, dtype=F64), tensor(pb.reshape(1, 5, 1, 1), dtype=F64))
        ref = depthwise_separable_loops(x, dw, pw, pb)
        err = np.abs(out.data - ref).max() / np.abs(ref).max()
        assert err <= 1e-6


def _f32(rng, shape, scale=1.0):
    return (rng.normal(size=shape) * scale).astype(np.float32)


def _rule_grads(apply_op, arrays, frozen, gout):
    """The recorded rule's input gradients for ``gout``, with the inputs at
    the indices in ``frozen`` built without ``requires_grad``."""
    tensors = [tensor(a, requires_grad=i not in frozen) for i, a in enumerate(arrays)]
    with Tape() as tape:
        apply_op(*tensors)
    (rec,) = tape.ops
    return rec.backward_fn(gout)


def _bn(train):
    def apply(x, w, g, b):
        return ops.pointwise_batch_norm(x, w, g, b, np.full(3, 0.2, np.float32),
                                        np.full(3, 1.5, np.float32), train=train)
    return apply


_SKIP_CASES = {
    "pointwise": (ops.conv2d, [(2, 3, 5, 4), (4, 3, 1, 1)]),
    "pointwise_bias": (ops.conv2d, [(2, 3, 5, 4), (4, 3, 1, 1), (1, 4, 1, 1)]),
    "depthwise": (ops.conv2d, [(2, 3, 5, 4), (3, 1, 3, 3)]),
    "dense": (ops.conv2d, [(2, 3, 5, 4), (4, 3, 3, 3)]),
    "dense_7x7": (ops.conv2d, [(1, 2, 6, 5), (1, 2, 7, 7)]),
    "batch_norm_train": (_bn(True), [(2, 4, 4, 4), (3, 4, 1, 1), (1, 3, 1, 1), (1, 3, 1, 1)]),
    "batch_norm_eval": (_bn(False), [(2, 4, 4, 4), (3, 4, 1, 1), (1, 3, 1, 1), (1, 3, 1, 1)]),
    "mul": (ops.mul, [(2, 3, 4, 4), (2, 3, 4, 4)]),
    "mul_broadcast_channel": (ops.mul_broadcast, [(2, 3, 4, 4), (2, 3, 1, 1)]),
    "mul_broadcast_pixel": (ops.mul_broadcast, [(2, 3, 4, 4), (2, 1, 4, 4)]),
}


class TestSkipRules:
    """A rule returns ``None`` for an input that needed no gradient at
    forward time, and the gradients it still computes are bitwise those of
    the run in which every input needs one."""

    @pytest.mark.parametrize("case", sorted(_SKIP_CASES))
    def test_frozen_inputs_get_none_and_the_rest_is_unchanged(self, case):
        apply_op, shapes = _SKIP_CASES[case]
        rng = np.random.default_rng(31)
        arrays = [_f32(rng, s) for s in shapes]
        with Tape():
            out_shape = apply_op(*[tensor(a) for a in arrays]).shape
        gout = _f32(rng, out_shape)
        full = _rule_grads(apply_op, arrays, (), gout)
        assert all(g is not None for g in full)
        n = len(arrays)
        for frozen in (set(c) for k in range(1, n) for c in combinations(range(n), k)):
            got = _rule_grads(apply_op, arrays, frozen, gout)
            assert len(got) == n
            for i in range(n):
                if i in frozen:
                    assert got[i] is None, f"input {i} frozen with {sorted(frozen)}"
                else:
                    assert got[i].tobytes() == full[i].tobytes(), \
                        f"input {i} with {sorted(frozen)} frozen"

    @pytest.mark.parametrize("weight_shape, helper, calls", [
        ((2, 1, 3, 3), "_pad_planes", 1),          # the gradient's planes only
        ((1, 2, 7, 7), "_spectrum", 2),            # the gradient's and the weight's spectra
    ], ids=["depthwise", "dense"])
    def test_frozen_weight_skips_its_work(self, monkeypatch, weight_shape, helper, calls):
        rng = np.random.default_rng(32)
        x = tensor(_f32(rng, (1, 2, 6, 6)), requires_grad=True)
        with Tape() as tape:
            out = ops.conv2d(x, tensor(_f32(rng, weight_shape)))
        seen = []
        real = getattr(ops, helper)
        monkeypatch.setattr(ops, helper, lambda a, *rest: seen.append(a) or real(a, *rest))
        tape.ops[0].backward_fn(np.ones_like(out.data))
        assert len(seen) == calls
        assert not any(a is x.data for a in seen)      # nothing of the input

    def test_model_input_gets_no_gradient_in_training(self):
        """The first convolutions over the model input compute no ``dx``."""
        from sarunet.model import ModelConfig, build
        m = build(ModelConfig(in_channels=2, out_channels=1, base_channels=2,
                              cbam_reduction=2), seed=0)
        x = tensor(np.random.default_rng(33).normal(size=(1, 2, 32, 32)))
        with Tape() as tape:
            y, _ = m.forward(x, train=True)
        readers = [rec for rec in tape.ops if x.key in rec.inputs]
        assert len(readers) == 2            # enc0's depthwise conv and its shortcut
        for rec in readers:
            assert rec.leaves[0] is x       # held as a leaf: the tape did not make it
            # both write [1, 2, 32, 32]: enc0 keeps the input's size, base 2 channels
            assert rec.backward_fn(np.ones((1, 2, 32, 32), np.float32))[0] is None
