import gc
import struct
import weakref

import numpy as np
import pytest

from cellgraph.autodiff import (NonFiniteGradient, ParamStore, Tape,
                                TapeReuseError, adam_step,
                                finite_difference_check, lr_decay,
                                save_checkpoint)
from cellgraph.gradcheck import run_gradient_checks


def store_with(**params):
    store = ParamStore()
    for name, value in params.items():
        store.register(name, np.asarray(value, dtype=np.float64))
    return store


class TestForwardOps:
    def test_relu_definition(self):
        t = Tape()
        out = t.relu(t.constant([[-1.0, 2.0]]))
        assert np.array_equal(t.value(out), [[0.0, 2.0]])

    def test_group_norm_single_group_row(self):
        store = store_with(g=np.ones((1, 2)), b=np.zeros((1, 2)))
        t = Tape(store)
        out = t.group_norm(t.constant([[1.0, 3.0]]), t.param("g"),
                           t.param("b"), n_groups=1)
        # mean 2, population sd 1 (up to the 1e-5 epsilon)
        assert np.allclose(t.value(out), [[-1.0, 1.0]], atol=1e-4)

    def test_exp_scale_multiplies_by_exp(self):
        store = store_with(s=np.array([[np.log(3.0)]]))
        t = Tape(store)
        out = t.exp_scale(t.constant([[1.0, -2.0]]), t.param("s"))
        assert np.allclose(t.value(out), [[3.0, -6.0]])

    def test_dropout_rate_zero_is_identity(self):
        t = Tape()
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(t.value(t.dropout(t.constant(x), 0.0)), x)

    def test_dropout_eval_mode_is_identity(self):
        t = Tape(train=False)
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(t.value(t.dropout(t.constant(x), 0.7)), x)

    @pytest.mark.parametrize("train, rate", [(False, 0.3), (True, 0.0)])
    def test_dropout_without_draws_returns_its_input(self, train, rate):
        t = Tape(train=train)
        x = t.constant(np.ones((2, 3)))
        assert t.dropout(x, rate) == x
        assert len(t.nodes) == 1

    def test_dropout_rate_checked_on_eval_tape(self):
        t = Tape(train=False)
        with pytest.raises(ValueError, match="dropout rate"):
            t.dropout(t.constant(np.ones((2, 3))), 1.0)

    def test_dropout_inverted_scaling_expectation(self):
        rate = 0.3
        rng = np.random.default_rng(0)
        total = np.zeros((1, 4))
        n = 10_000
        x = np.ones((1, 4))
        t = Tape(rng=rng)
        for _ in range(n):
            total += t.value(t.dropout(t.constant(x), rate))
        assert np.all(np.abs(total / n - 1.0) < 0.02)

    def test_shape_mismatch_reports_op_kind(self):
        t = Tape()
        with pytest.raises(ValueError, match="matmul"):
            t.matmul(t.constant(np.ones((2, 3))), t.constant(np.ones((2, 3))))
        with pytest.raises(ValueError, match="add"):
            t.add(t.constant(np.ones((2, 3))), t.constant(np.ones((3, 2))))

    def test_take_gathers_rows_and_columns(self):
        x = np.arange(20.0).reshape(4, 5)
        for idx, axis, picked in (([3, 0, 2], 0, x[[3, 0, 2]]),
                                  ([4, 1], 1, x[:, [4, 1]])):
            store = store_with(x=x)
            t = Tape(store)
            out = t.take(t.param("x"), np.array(idx), axis=axis)
            assert np.array_equal(t.value(out), picked)
            t.backward(t.mse(out, np.zeros(picked.shape)))
            expected = np.zeros_like(x)
            if axis == 0:
                expected[idx] = 2 * picked / picked.size
            else:
                expected[:, idx] = 2 * picked / picked.size
            # the unselected row / columns get exactly zero
            assert np.array_equal(store.grad("x"), expected)


def chain_affine(t, x, w, b, relu=False):
    """The matmul -> add (-> relu) chain that Tape.affine stands for."""
    out = t.add(t.matmul(x, w), b)
    return t.relu(out) if relu else out


class TestAffine:
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("x_is_param", [True, False])
    def test_bitwise_equal_to_the_chain(self, relu, rows, x_is_param):
        rng = np.random.default_rng(rows + 2 * relu + 4 * x_is_param)
        x, w, b = (rng.standard_normal(shape)
                   for shape in ((rows, 5), (5, 4), (1, 4)))
        target = rng.standard_normal((rows, 4))
        results = []
        for op in (chain_affine, Tape.affine):
            store = store_with(x=x, w=w, b=b)
            t = Tape(store)
            xh = t.param("x") if x_is_param else t.constant(x)
            out = op(t, xh, t.param("w"), t.param("b"), relu=relu)
            # with one row, the chain's bias gradient is g itself and
            # affine's a sum over that one row
            t.backward(t.mse(out, target))
            results.append([t.value(out)] + [store.grad(k)
                                              for k in ("x", "w", "b")])
        for chain_value, affine_value in zip(*results):
            assert np.array_equal(chain_value, affine_value)

    def test_relu_zeroes_what_is_not_positive(self):
        t = Tape(store_with(w=np.eye(3), b=np.zeros((1, 3))))
        # a NaN input spreads over its row, which relu zeroes as the chain's
        out = t.affine(t.constant([[-1.0, 0.0, 2.0], [np.nan, 0.0, 1.0]]),
                       t.param("w"), t.param("b"), relu=True)
        assert np.array_equal(t.value(out), [[0.0, 0.0, 2.0], [0.0, 0.0, 0.0]])
        assert not np.signbit(t.value(out)).any()

    def test_constant_input_gets_no_gradient(self):
        t = Tape(store_with(w=np.ones((2, 3)), b=np.zeros((1, 3))))
        out = t.affine(t.constant(np.ones((4, 2))), t.param("w"),
                       t.param("b"), relu=True)
        gx, gw, gb = t.nodes[out].vjp(np.ones((4, 3)))
        assert gx is None
        assert np.array_equal(gw, np.full((2, 3), 4.0))
        assert np.array_equal(gb, np.full((1, 3), 4.0))

    def test_rejects_mismatched_shapes(self):
        t = Tape(store_with(w=np.ones((2, 3)), b=np.zeros((1, 2))))
        with pytest.raises(ValueError, match="affine"):
            t.affine(t.constant(np.ones((4, 2))), t.param("w"), t.param("b"))


class TestBackward:
    def test_sum_gives_ones(self):
        store = store_with(w=np.arange(6.0).reshape(2, 3))
        t = Tape(store)
        # sum(W) via mse against zero scaled back: use matmul with ones
        ones_col = t.constant(np.ones((3, 1)))
        row = t.matmul(t.param("w"), ones_col)
        total = t.matmul(t.constant(np.ones((1, 2))), row)
        t.backward(total)
        assert np.allclose(store.grad("w"), np.ones((2, 3)))

    def test_mse_closed_form(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 3))
        x = rng.standard_normal((3, 2))
        y = rng.standard_normal((3, 2))
        store = store_with(w=w)
        t = Tape(store)
        pred = t.matmul(t.param("w"), t.constant(x))
        t.backward(t.mse(pred, y))
        expected = 2 * (w @ x - y) @ x.T / y.size
        assert np.allclose(store.grad("w"), expected, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        store = store_with(x=np.ones((2, 2)))
        t = Tape(store)
        h = t.relu(t.param("x"))
        with pytest.raises(ValueError, match="scalar"):
            t.backward(h)

    def test_tape_reuse_rejected(self):
        store = store_with(x=np.ones((2, 2)))
        t = Tape(store)
        loss = t.mse(t.param("x"), np.zeros((2, 2)))
        t.backward(loss)
        with pytest.raises(TapeReuseError):
            t.backward(loss)

    def test_fanout_accumulates(self):
        store = store_with(x=np.full((1, 2), 3.0))
        t = Tape(store)
        x = t.param("x")
        both = t.add(x, x)
        t.backward(t.mse(both, np.zeros((1, 2))))
        assert np.allclose(store.grad("x"), 2 * 2 * 2 * 3.0 / 2)

    def test_spent_tape_freed_without_cyclic_collector(self):
        # no backward closure may hold its tape, or every spent tape would
        # live until the cyclic collector runs
        store = store_with(w=[[0.3, 0.7]])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = Tape(store)
            mixed = t.scalar_mix([t.constant(np.ones((2, 2))),
                                  t.constant(np.eye(2))], t.param("w"))
            t.backward(t.mse(mixed, np.zeros((2, 2))))
            ref = weakref.ref(t)
            del t, mixed
            assert ref() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_finite_differences_all_ops(self):
        results, worst, passed = run_gradient_checks(n_seeds=20,
                                                     network_seeds=())
        assert passed, f"worst op-gradient error {worst:.2e}: {results}"

    def test_every_op_has_a_gradient_check(self):
        # a check is named after its op, plus an optional variant suffix
        not_ops = {"constant", "param", "value", "backward"}
        ops = [name for name, fn in vars(Tape).items()
               if callable(fn) and not name.startswith("_")
               and name not in not_ops]
        results, _, _ = run_gradient_checks(n_seeds=1, network_seeds=())
        unchecked = [op for op in ops
                     if not any(k == op or k.startswith(op + "_")
                                for k in results)]
        assert "matmul" in ops and not unchecked, unchecked


class TestHandles:
    """A value lives in the Var an op returns; the tape keeps only what a
    backward reads, so a value no closure reads dies with its handle."""

    def test_param_value_is_the_store_array(self):
        store = store_with(w=np.ones((2, 2)))
        for train in (True, False):
            assert Tape(store, train=train).param("w").value is store.value("w")

    def test_add_output_before_dropout_dies_with_its_handle(self):
        store = store_with(x=np.arange(6.0).reshape(2, 3))
        t = Tape(store, rng=np.random.default_rng(0))
        summed = t.add(t.param("x"), t.constant(np.ones((2, 3))))
        alive = weakref.ref(summed.value)
        dropped = t.dropout(summed, 0.5)
        del summed
        assert alive() is None
        keep = t.value(dropped) != 0
        t.backward(t.mse(dropped, np.zeros((2, 3))))
        x = store.value("x")
        expected = 2.0 * (x + 1.0) * 2.0 * keep * 2.0 / 6
        assert np.allclose(store.grad("x"), expected)

    def test_fixed_mix_keeps_none_of_its_inputs(self):
        store = store_with(x=np.ones((2, 2)))
        t = Tape(store)
        x = t.param("x")
        inputs = [t.add(x, t.constant(np.full((2, 2), c))) for c in (1., 2.)]
        alive = [weakref.ref(h.value) for h in inputs]
        mixed = t.scalar_mix(inputs, np.array([0.25, 0.75]))
        del inputs
        assert all(ref() is None for ref in alive)
        t.backward(t.mse(mixed, np.zeros((2, 2))))
        # d/dx mean((x + 1.75)^2) at x = 1
        assert np.allclose(store.grad("x"), 2.0 * 2.75 / 4)

    def test_relu_affine_keeps_a_mask_not_its_output(self):
        store = store_with(w=[[1.0, -1.0], [2.0, 0.5]], b=[[0.0, -4.0]])
        t = Tape(store)
        x = np.array([[1.0, 2.0], [-3.0, 1.0]])
        out = t.affine(t.constant(x), t.param("w"), t.param("b"), relu=True)
        alive = weakref.ref(out.value)
        loss = t.mse(out, np.zeros((2, 2)))
        node = t.nodes[out]
        del out
        assert alive() is None
        cells = [c.cell_contents for c in node.vjp.__closure__]
        masks = [c for c in cells if isinstance(c, np.ndarray)
                 and c.dtype == bool]
        assert len(masks) == 1
        t.backward(loss)
        h = np.maximum(x @ store.value("w") + store.value("b"), 0.0)
        assert np.allclose(store.grad("w"), x.T @ (2.0 * h / h.size))


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        store = store_with(w=np.ones((2, 2)))
        adam_step(store, lr=0.1)
        assert np.array_equal(store.value("w"), np.ones((2, 2)))

    def test_first_step_is_signed_lr(self):
        store = store_with(w=np.zeros((1, 3)))
        store.entries["w"].grad[:] = np.array([[0.5, -2.0, 1e-3]])
        adam_step(store, lr=0.01)
        assert np.allclose(store.value("w"),
                           [[-0.01, 0.01, -0.01]], atol=1e-4)

    def test_quadratic_convergence(self):
        # lr small enough that the iterate approaches 0 without reaching the
        # oscillation floor within 200 steps
        store = store_with(w=np.array([[1.0]]))
        values = []
        for _ in range(200):
            store.entries["w"].grad[:] = 2 * store.value("w")
            adam_step(store, lr=0.005)
            values.append(abs(store.value("w")[0, 0]))
        assert values[-1] < 0.3
        assert all(b <= a + 1e-12 for a, b in zip(values[5:], values[6:]))

    def test_decoupled_weight_decay(self):
        store = store_with(w=np.array([[2.0]]))
        adam_step(store, lr=0.1, weight_decay=0.5)
        # zero gradient: the only update is -lr * wd * w
        assert store.value("w")[0, 0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)

    def test_decay_exempt_parameter_keeps_its_value(self):
        store = ParamStore()
        store.register("s", [[2.0]], decay=False)
        adam_step(store, lr=0.1, weight_decay=0.5)
        assert store.value("s")[0, 0] == 2.0

    def test_bounds_clip_the_step(self):
        store = ParamStore()
        store.register("s", [[0.995]], bounds=(0.0, 1.0))
        store.entries["s"].grad[:] = -1.0  # the step pushes s up by lr
        adam_step(store, lr=0.01)
        assert store.value("s")[0, 0] == 1.0

    def test_non_finite_gradient_aborts_step(self):
        store = store_with(w=np.ones((1, 2)), v=np.ones((1, 2)))
        store.entries["w"].grad[:] = np.array([[np.nan, 0.0]])
        store.entries["v"].grad[:] = 1.0
        with pytest.raises(NonFiniteGradient, match="'w'"):
            adam_step(store, lr=0.1)
        assert np.array_equal(store.value("v"), np.ones((1, 2)))

    def test_gradients_zeroed_after_step(self):
        store = store_with(w=np.ones((1, 2)))
        store.entries["w"].grad[:] = 1.0
        adam_step(store, lr=0.1)
        assert np.array_equal(store.grad("w"), np.zeros((1, 2)))


class TestLrDecay:
    def test_no_decay_at_step_zero(self):
        assert lr_decay(0.1, 0, 0.5, 100) == 0.1

    def test_power_arithmetic(self):
        assert lr_decay(0.8, 200, 0.5, 100) == pytest.approx(0.2)

    def test_monotone_non_increasing(self):
        values = [lr_decay(1.0, s, 0.9, 7) for s in range(100)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            lr_decay(0.1, 5, 0.5, 0)


class TestSnapshotAndCheckpoint:
    def test_snapshot_restore(self):
        store = store_with(w=np.ones((2, 2)))
        snap = store.snapshot()
        store.entries["w"].value[:] = 5.0
        store.restore(snap)
        assert np.array_equal(store.value("w"), np.ones((2, 2)))

    def test_checkpoint_layout(self, tmp_path):
        # magic, version, step count, parameter count; then per name in
        # sorted order its length, name, shape, value, adam_m and adam_v
        rng = np.random.default_rng(3)
        store = store_with(beta=rng.standard_normal(5),
                           alpha=rng.standard_normal((3, 4)))
        for e in store.entries.values():
            e.adam_m[:] = rng.standard_normal(e.value.shape)
            e.adam_v[:] = np.abs(rng.standard_normal(e.value.shape))
        store.step_count = 77
        expected = b"CGCK" + struct.pack("<IQI", 1, 77, 2)
        for name, shape in (("alpha", (3, 4)), ("beta", (1, 5))):
            e = store.entries[name]
            expected += struct.pack("<H", len(name)) + name.encode()
            expected += struct.pack("<II", *shape)
            for arr in (e.value, e.adam_m, e.adam_v):
                expected += struct.pack(f"<{arr.size}d", *arr.ravel())
        path = tmp_path / "model.ckpt"
        save_checkpoint(store, path)
        assert path.read_bytes() == expected

    def test_duplicate_registration_rejected(self):
        store = store_with(w=np.ones((1, 1)))
        with pytest.raises(ValueError, match="already registered"):
            store.register("w", np.ones((1, 1)))


class TestDeterminism:
    def test_training_step_bitwise_reproducible(self):
        def run():
            store = store_with(w=np.linspace(-1, 1, 12).reshape(3, 4))
            rng = np.random.default_rng(9)
            for epoch in range(5):
                t = Tape(store, rng=np.random.default_rng([9, epoch]))
                h = t.dropout(t.relu(t.param("w")), 0.25)
                loss = t.mse(h, np.ones((3, 4)))
                t.backward(loss)
                adam_step(store, lr=0.01)
            return store.value("w").copy()

        assert np.array_equal(run(), run())
