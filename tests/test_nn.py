"""Primitive layer, optimizer, and gradient-check tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.errors import ConfigError, DivergenceError, ShapeError
from g2sf.nn import (
    Adam,
    LinearBlock,
    adam_step,
    backprop_check,
    dropout_forward,
    exp_tanh,
    exp_tanh_backward,
    linear_backward,
    linear_forward,
    relu,
    relu_backward,
)


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
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_backward_tie_at_zero(self):
        grad = relu_backward(np.array([-1.0, 0.0, 2.0]), np.ones(3))
        np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_relu_idempotent(self, values):
        x = np.asarray(values)
        np.testing.assert_array_equal(relu(relu(x)), relu(x))

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
        x = np.arange(5.0)
        out, mask = dropout_forward(x, 0.7, training=False)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_rate_zero(self):
        x = np.arange(5.0)
        out, mask = dropout_forward(x, 0.0, np.random.default_rng(0), training=True)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            dropout_forward(np.ones(3), 1.0, np.random.default_rng(0), training=True)

    def test_survivor_statistics(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(1.0, 2.0, size=100_000)
        out, mask = dropout_forward(x, 0.5, rng, training=True)
        survivors = (out != 0).mean()
        assert 0.48 <= survivors <= 0.52
        assert abs(out.mean() - x.mean()) / x.mean() < 0.02


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
        _, gw, gb = linear_backward(LinearBlock(w, b), x, grad_out)
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
