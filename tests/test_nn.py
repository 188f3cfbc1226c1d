"""Primitive layer, optimizer, and gradient-check tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf import nn as nn_mod
from g2sf.errors import ConfigError, DivergenceError, ShapeError
from g2sf.nn import (
    Adam,
    LinearBlock,
    adam_step,
    backprop_check,
    exp_tanh,
    exp_tanh_backward,
    linear_backward,
    linear_forward,
    relu_dropout,
)
from tests import oracles


def naive_matvec(weight, bias, x):
    """Independent oracle: triple-checked elementwise accumulation."""
    out = np.zeros(weight.shape[0], dtype=np.float64)
    for i in range(weight.shape[0]):
        for j in range(weight.shape[1]):
            out[i] += float(weight[i, j]) * float(x[j])
        out[i] += float(bias[i])
    return out


class TestLinear:
    def test_identity(self):
        block = LinearBlock(np.eye(2, dtype=np.float32), np.zeros(2, dtype=np.float32))
        np.testing.assert_array_equal(linear_forward(block, np.array([3.0, 4.0])), [3.0, 4.0])

    def test_forced_arithmetic(self):
        block = LinearBlock(np.array([[1.0, 1.0]], dtype=np.float32),
                            np.array([1.0], dtype=np.float32))
        np.testing.assert_allclose(linear_forward(block, np.array([2.0, 3.0])), [6.0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        x = rng.standard_normal(3).astype(np.float32)
        got = linear_forward(LinearBlock(w, b), x)
        np.testing.assert_allclose(got, naive_matvec(w, b, x), rtol=1e-6)

    def test_dimension_mismatch(self):
        block = LinearBlock(np.eye(2, dtype=np.float32), np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeError):
            linear_forward(block, np.zeros(3))

    def test_batch_forward(self):
        rng = np.random.default_rng(1)
        block = LinearBlock(rng.standard_normal((4, 3)).astype(np.float32),
                            rng.standard_normal(4).astype(np.float32))
        xs = rng.standard_normal((5, 3)).astype(np.float32)
        batched = linear_forward(block, xs)
        for i in range(5):
            np.testing.assert_allclose(batched[i], linear_forward(block, xs[i]), rtol=1e-6)


class TestActivations:
    def test_relu_values(self):
        out = relu_dropout(np.array([-1.0, 0.0, 2.0]), 0.0)
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_in_place(self):
        pre = np.array([-1.0, 0.5])
        assert relu_dropout(pre, 0.5) is pre
        np.testing.assert_array_equal(pre, [0.0, 0.5])

    def test_relu_backward_tie_at_zero(self):
        x = np.array([[0.0, 0.0, 2.0]])
        grad, _, _ = linear_backward(LinearBlock(np.eye(3), np.zeros(3)), x, np.ones((1, 3)),
                                     (0.0,))
        assert grad is x
        np.testing.assert_array_equal(grad, [[0.0, 0.0, 1.0]])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_relu_idempotent(self, values):
        once = relu_dropout(np.asarray(values), 0.0)
        np.testing.assert_array_equal(relu_dropout(once.copy(), 0.0), once)

    def test_exp_tanh_at_zero(self):
        assert exp_tanh(np.float64(0.0)) == 1.0

    def test_exp_tanh_saturates(self):
        assert abs(exp_tanh(np.float64(50.0)) - np.e) < 1e-6

    def test_exp_tanh_range_bulk(self):
        # Range invariant over a million random inputs.
        rng = np.random.default_rng(7)
        x = rng.uniform(-60, 60, size=1_000_000)
        y = exp_tanh(x)
        assert y.min() >= np.exp(-1.0) - 1e-12
        assert y.max() <= np.e + 1e-12

    def test_exp_tanh_derivative_matches_fd(self):
        x = np.float64(0.3)
        h = 1e-4
        fd = (exp_tanh(x + h) - exp_tanh(x - h)) / (2 * h)
        analytic = exp_tanh_backward(x, np.float64(1.0))
        assert abs(analytic - fd) / abs(fd) < 1e-5


class TestDropout:
    def test_inference_identity(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = relu_dropout(np.arange(5.0), 0.7, rng, training=False)
        np.testing.assert_array_equal(out, np.arange(5.0))
        assert rng.bit_generator.state == before  # nothing drawn

    def test_rate_zero(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = relu_dropout(np.arange(5.0), 0.0, rng, training=True)
        np.testing.assert_array_equal(out, np.arange(5.0))
        assert rng.bit_generator.state == before

    def test_rate_one_rejected(self):
        pre = -np.ones(3)
        with pytest.raises(ConfigError):
            relu_dropout(pre, 1.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(pre, -np.ones(3))  # rejected before any write

    def test_training_needs_rng(self):
        with pytest.raises(ConfigError):
            relu_dropout(np.ones(3), 0.5, None, training=True)

    def test_strided_input_rejected(self):
        # In place means writing through ``pre``; a strided view would need
        # a copy whose writes are lost.
        with pytest.raises(ShapeError):
            relu_dropout(np.ones((4, 4))[:, ::2], 0.5, np.random.default_rng(0), training=True)

    def test_survivor_statistics(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1.0, 2.0, size=100_000)
        out = relu_dropout(x.copy(), 0.5, rng, training=True)
        survivors = (out != 0).mean()
        assert 0.48 <= survivors <= 0.52
        assert abs(out.mean() - x.mean()) / x.mean() < 0.02


def _pre_activations(rng, shape, dtype):
    """Random pre-activations with exact zeros of both signs."""
    pre = rng.standard_normal(shape).astype(dtype)
    flat = pre.reshape(-1)
    flat[::7] = 0.0
    flat[3::11] = -0.0
    return pre


class TestReluDropoutMatchesOracle:
    """The fused pair against the unfused oracle (ReLU, then dropout with a
    float mask, backward through both from the pre-activation)."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("rate", [0.0, 0.3, 0.5])
    # (3000, 33) and (70000,) span several mask blocks of the backward, the
    # last one partial.
    @pytest.mark.parametrize("shape", [(1,), (37,), (64, 33), (2, 129, 257), (3000, 33),
                                       (70000,)])
    def test_bit_equal(self, shape, rate, training, dtype):
        rng = np.random.default_rng(len(shape) * 100 + int(rate * 10))
        pre = _pre_activations(rng, shape, dtype)
        grad = rng.standard_normal(shape).astype(dtype)
        fused_rng, oracle_rng = np.random.default_rng(9), np.random.default_rng(9)
        want, mask = oracles.dropout_forward(oracles.relu(pre), rate, oracle_rng, training)
        got = relu_dropout(pre.copy(), rate, fused_rng, training)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # The same draws, so every later draw of the training run is unchanged.
        assert fused_rng.bit_generator.state == oracle_rng.bit_generator.state
        if not training:
            assert mask is None
            return
        want_grad = oracles.relu_backward(pre, oracles.dropout_backward(mask, grad))
        got_grad = oracles.relu_dropout_backward(got, grad, rate)
        assert got_grad.dtype == want_grad.dtype
        # Equal bits up to the sign of zero: the product writes -0.0 where a
        # negative gradient is blocked, the oracle's np.where writes 0.0.
        assert (got_grad + 0.0).tobytes() == (want_grad + 0.0).tobytes()


class TestReluDropoutBackwardInPlace:
    """The ReLU-dropout backward runs inside the next layer's
    :func:`linear_backward`, which writes the masked input gradient over the
    block output it reads; its upstream gradient may be a column view, as
    the branches' halves of the fusion input are."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_returns_given_array_with_oracle_bits(self, rate, dtype):
        self._check(64, rate, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_several_mask_blocks(self, rate, dtype):
        # Eleven blocks of 256 rows, the last one longer, at an odd width.
        self._check(3000, rate, dtype, width=65, upstream_width=64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows_per_block", [3, 256])
    def test_fused_input_gradient_is_linear_then_mask(self, monkeypatch, rows_per_block,
                                                      dtype):
        # The fusion head's first layer: two halves of the input, each the
        # output of a branch with its own rate.
        monkeypatch.setattr(nn_mod, "_GRAD_ROWS", rows_per_block)
        monkeypatch.setattr(nn_mod, "_GRAD_MACS", 0)
        rng = np.random.default_rng(rows_per_block)
        rates = (0.5, 0.25)
        halves = [relu_dropout(rng.standard_normal((700, 12)).astype(dtype), rate, rng, True)
                  for rate in rates]
        x = np.concatenate(halves, axis=1)
        block = LinearBlock(rng.standard_normal((9, 24)).astype(dtype),
                            rng.standard_normal(9).astype(dtype))
        upstream = rng.standard_normal((700, 9)).astype(dtype)
        want_x, want_w, want_b = oracles.linear_backward(block, x, upstream)
        for half, cols, rate in zip(halves, (slice(0, 12), slice(12, 24)), rates):
            oracles.relu_dropout_backward(half, want_x[:, cols], rate)
        given = x.copy()
        got_x, got_w, got_b = linear_backward(block, given, upstream, rates)
        assert got_x is given
        assert got_x.tobytes() == want_x.tobytes()
        assert got_w.tobytes() == want_w.tobytes()
        assert got_b.tobytes() == want_b.tobytes()

    @staticmethod
    def _check(rows, rate, dtype, width=33, upstream_width=17):
        rng = np.random.default_rng(int(rate * 10))
        pre = _pre_activations(rng, (rows, width), dtype)
        want_out, mask = oracles.dropout_forward(oracles.relu(pre), rate,
                                                 np.random.default_rng(4), True)
        out = relu_dropout(pre.copy(), rate, np.random.default_rng(4), True)
        assert out.tobytes() == want_out.tobytes()
        wide = rng.standard_normal((rows, upstream_width + 33)).astype(dtype)
        untouched = wide.copy()
        upstream = wide[:, :upstream_width]  # a strided view, as the branches pass
        block = LinearBlock(rng.standard_normal((upstream_width, width)).astype(dtype),
                            np.zeros(upstream_width, dtype))
        want = oracles.relu_backward(pre, oracles.dropout_backward(mask, upstream @ block.weight))
        want_w = upstream.T @ out
        got, got_w, got_b = linear_backward(block, out, upstream, (rate,))
        assert got is out
        assert got.dtype == want.dtype
        # Equal bits up to the sign of zero (see TestReluDropoutMatchesOracle).
        assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
        assert got_w.tobytes() == want_w.tobytes()
        assert got_b.tobytes() == upstream.sum(axis=0).tobytes()
        assert wide.tobytes() == untouched.tobytes()


class TestAdam:
    def test_zero_grad_fixed_point(self):
        p = np.array([1.5, -2.0], dtype=np.float32)
        before = p.copy()
        opt = Adam([(0.1, 0.0)])
        opt.step([p], [np.zeros_like(p)])
        np.testing.assert_array_equal(p, before)

    def test_first_step_hand_value(self):
        # At step 1 the bias-corrected ratio is g/|g| so the update is -lr.
        p = np.array([1.0], dtype=np.float64)
        m = np.zeros(1)
        v = np.zeros(1)
        adam_step(p, np.array([1.0]), m, v, step=1, lr=0.1)
        expected = 1.0 - 0.1 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(p, [expected], rtol=1e-12)

    def test_quadratic_bowl_converges(self):
        p = np.array([1.0], dtype=np.float64)
        opt = Adam([(1.5e-4, 0.0)])
        previous = abs(p[0])
        for _ in range(500):
            opt.step([p], [2.0 * p])
            assert abs(p[0]) < previous
            previous = abs(p[0])

    def test_non_finite_gradient_rejected(self):
        p = np.array([1.0], dtype=np.float32)
        opt = Adam([(0.1, 0.0)])
        with pytest.raises(DivergenceError):
            opt.step([p], [np.array([np.nan], dtype=np.float32)])

    def test_decoupled_decay_shrinks_weights(self):
        p = np.array([1.0], dtype=np.float64)
        m = np.zeros(1)
        v = np.zeros(1)
        adam_step(p, np.array([0.0]), m, v, step=1, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p, [0.95])  # decay only, no gradient term


class TestBackpropCheck:
    def test_linear_net_squared_loss(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        x = rng.standard_normal(4)
        target = rng.standard_normal(3)

        def loss_fn(params):
            weight, bias = params
            out = weight @ x + bias
            return float(((out - target) ** 2).sum())

        out = w.astype(np.float64) @ x + b
        grad_out = 2.0 * (out - target)
        _, gw, gb = oracles.linear_backward(LinearBlock(w, b), x, grad_out)
        err = backprop_check(loss_fn, [w, b], [gw, gb])
        assert err < 1e-5

    def test_degenerate_zero_case_finite(self):
        w = np.zeros((2, 2), dtype=np.float32)
        b = np.zeros(2, dtype=np.float32)

        def loss_fn(params):
            weight, bias = params
            return float(((weight @ np.zeros(2) + bias) ** 2).sum())

        err = backprop_check(loss_fn, [w, b], [np.zeros((2, 2)), np.zeros(2)])
        assert np.isfinite(err)
