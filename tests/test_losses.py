"""Hand-derived loss values and loss-gradient finite-difference checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.errors import DivergenceError
from g2sf.losses import (
    LossBatch,
    LossConfig,
    cma_loss,
    combine_terms,
    compute_m0,
    consistency_loss,
    eta_coefficients,
    margin_bounds,
    margin_loss,
    scaling_loss,
    sep_loss,
    total_loss,
    total_loss_with_grads,
)

E = math.e


def batch_from_l0(y, l0, k=1):
    """Batch whose rank-0 metrics are given; higher ranks are inert slack."""
    y = np.asarray(y, dtype=float)
    l0 = np.asarray(l0, dtype=float)
    n = 2 * k + 1
    l = np.tile(l0[:, None], (1, n))
    s = np.ones((y.size, n, 2))
    w0 = np.ones((y.size, 2))
    return LossBatch(y=y, l=l, s=s, w0=w0)


class TestSepLoss:
    def test_normal_pays_metric(self):
        assert sep_loss(batch_from_l0([0], [0.3]), m0=2.0)[0] == pytest.approx(0.3)

    def test_anomalous_at_threshold_is_zero(self):
        assert sep_loss(batch_from_l0([1], [2.0]), m0=2.0)[0] == 0.0

    def test_anomalous_half_threshold(self):
        m0 = 2.0
        got, _ = sep_loss(batch_from_l0([1], [m0 / 2]), m0=m0)
        assert got == pytest.approx(1.0 / m0)

    def test_anomalous_monotone_nonincreasing(self):
        m0 = 3.0
        values = [sep_loss(batch_from_l0([1], [l]), m0)[0] for l in np.linspace(0.05, 4.0, 40)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_tiny_metric_safeguarded(self):
        got, _ = sep_loss(batch_from_l0([1], [0.0]), m0=2.0)
        assert np.isfinite(got) and got == pytest.approx(1e8 - 0.5)


class TestMarginLoss:
    def test_fully_separated(self):
        value, grad = margin_loss(batch_from_l0([0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0]))
        assert value == 0.0 and not grad.any()

    def test_interleaved_hand_value(self):
        value, grad = margin_loss(batch_from_l0([0, 0, 1, 1], [1.0, 3.0, 2.0, 4.0]))
        assert value == pytest.approx(2.0 / 3.0)
        # m_l = 2, m_u = 3: the normal at 3 and the anomaly at 2 overlap.
        assert grad.tolist() == pytest.approx([0.0, 1 / 3, -1 / 3, 0.0])

    def test_single_class_skips(self):
        batch = batch_from_l0([0, 0], [1.0, 2.0])
        value, grad = margin_loss(batch)
        assert margin_bounds(batch) is None
        assert value == 0.0 and grad.tolist() == [0.0, 0.0]

    def test_zero_iff_separated(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.integers(0, 2, size=6)
            if y.min() == y.max():
                continue
            l0 = rng.uniform(0.1, 2.0, size=6)
            value, _ = margin_loss(batch_from_l0(y, l0))
            separated = l0[y == 1].min() >= l0[y == 0].max()
            assert (value == 0.0) == separated


class TestConsistencyLoss:
    def test_hand_value(self):
        l = np.array([[1.0, 1.5, 0.8]])
        s = np.ones((1, 3, 2))
        batch = LossBatch(y=[0], l=l, s=s, w0=np.ones((1, 2)))
        # eta_1 must be 1.2: ratios of equal distances are 1, eta0 = 1.2.
        got, _ = consistency_loss(batch, eta0=1.2, k=1)
        assert got == pytest.approx(0.5)

    def test_exact_slack_is_free(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0.5, 2.0, size=(4, 5, 2))
        s.sort(axis=1)
        ratios = s.sum(axis=2) / s.sum(axis=2)[:, :1]
        l = 1.3 * ratios  # l_j exactly eta_j/eta0 * l_0 and nondecreasing
        batch = LossBatch(y=np.zeros(4), l=l, s=s, w0=np.ones((4, 2)))
        assert consistency_loss(batch, eta0=1.2, k=2)[0] == pytest.approx(0.0, abs=1e-12)

    def test_all_equal_metrics_zero(self):
        batch = LossBatch(y=[0], l=np.full((1, 5), 0.7), s=np.ones((1, 5, 2)),
                          w0=np.ones((1, 2)))
        assert consistency_loss(batch, eta0=1.2, k=2)[0] == 0.0

    def test_eta_exceeds_one(self):
        rng = np.random.default_rng(2)
        s = np.sort(rng.uniform(0.1, 2.0, size=(8, 7, 2)), axis=1)
        batch = LossBatch(y=np.zeros(8), l=np.ones((8, 7)), s=s, w0=np.ones((8, 2)))
        eta = eta_coefficients(batch, eta0=1.2)
        assert np.all(eta[:, 1:] > 1.0)


class TestScalingLoss:
    def test_normal_below_one_free(self):
        batch = batch_from_l0([0], [1.0])
        batch.w0 = np.array([[0.9, 0.9]])
        assert scaling_loss(batch)[0] == 0.0

    def test_normal_above_one_linear(self):
        batch = batch_from_l0([0], [1.0])
        batch.w0 = np.array([[1.3, 1.3]])
        assert scaling_loss(batch)[0] == pytest.approx(0.6)

    def test_anomalous_at_e_free(self):
        batch = batch_from_l0([1], [1.0])
        batch.w0 = np.array([[E, E]])
        assert scaling_loss(batch)[0] == pytest.approx(0.0, abs=1e-12)


class TestCmaLoss:
    def test_at_upper_anchor(self):
        assert cma_loss(np.array([[E, E]]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_at_unity(self):
        assert cma_loss(np.array([[1.0, 1.0]]))[0] == pytest.approx(2 * (E - 1))

    def test_empty(self):
        assert cma_loss(None)[0] == 0.0
        assert cma_loss(np.zeros((0, 2)))[0] == 0.0


class TestTotalLoss:
    def test_weighted_sum_arithmetic(self):
        cfg = LossConfig(m0=1.0, l1_weight=0.0)
        parts = {"sep": 0.5, "mar": 0.1, "cns": 0.2, "sc": 0.3, "cma": 0.4, "l1": 0.0}
        assert combine_terms(parts, cfg) == pytest.approx(23.9)

    def test_zero_case(self):
        cfg = LossConfig(alpha=0, beta=0, gamma=0, mu=0, m0=1.0, l1_weight=0.0, k=1)
        batch = batch_from_l0([1], [5.0])  # anomalous beyond threshold
        batch.w0 = np.array([[E, E]])
        value, parts = total_loss(batch, None, cfg)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_total_equals_recombined_parts(self):
        rng = np.random.default_rng(3)
        cfg = LossConfig(m0=4.0, k=2, l1_weight=0.0)
        n = 2 * cfg.k + 1
        s = np.sort(rng.uniform(0.2, 2.0, size=(6, n, 2)), axis=1)
        batch = LossBatch(
            y=rng.integers(0, 2, size=6),
            l=rng.uniform(0.1, 3.0, size=(6, n)),
            s=s,
            w0=rng.uniform(1 / E, E, size=(6, 2)),
        )
        neg = rng.uniform(1 / E, E, size=(4, 2))
        value, parts = total_loss(batch, neg, cfg)
        manual = (
            sep_loss(batch, cfg.m0)[0]
            + cfg.alpha * margin_loss(batch)[0]
            + cfg.beta * consistency_loss(batch, cfg.eta0, cfg.k)[0]
            + cfg.gamma * scaling_loss(batch)[0]
            + cfg.mu * cma_loss(neg)[0]
        )
        assert value == pytest.approx(manual, rel=1e-6)
        assert all(v >= 0 for v in parts.values())

    def test_non_finite_term_named(self):
        cfg = LossConfig(m0=1.0, k=1, l1_weight=0.0)
        batch = batch_from_l0([0], [np.inf])
        with np.errstate(invalid="ignore"):  # inf - inf inside the hinges
            with pytest.raises(DivergenceError, match="sep"):
                total_loss(batch, None, cfg)


class TestComputeM0:
    def test_twice_max(self):
        s0 = np.array([[0.5, 1.25], [0.2, 0.9]])
        assert compute_m0(s0) == pytest.approx(2.5)


class TestInvariants:
    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_every_term_nonnegative(self, seed, size):
        rng = np.random.default_rng(seed)
        cfg = LossConfig(m0=5.0, k=2, l1_weight=0.0)
        n = 2 * cfg.k + 1
        batch = LossBatch(
            y=rng.integers(0, 2, size=size),
            l=rng.uniform(0.0, 4.0, size=(size, n)),
            s=np.sort(rng.uniform(0.05, 3.0, size=(size, n, 2)), axis=1),
            w0=rng.uniform(1 / E, E, size=(size, 2)),
        )
        neg = rng.uniform(1 / E, E, size=(3, 2))
        _, parts = total_loss(batch, neg, cfg)
        assert all(v >= 0.0 for v in parts.values())

    def test_subgradient_zero_at_hinge_kinks(self):
        # Items sitting exactly on the margin bounds and at w0 == 1 must get
        # zero gradient from the inactive hinge side.
        cfg = LossConfig(m0=4.0, k=1, l1_weight=0.0, beta=0.0)
        l = np.array([[2.0, 2.0, 2.0], [3.0, 3.0, 3.0]])  # m_u=2 (normal), m_l=3
        batch = LossBatch(y=[0, 1], l=l, s=np.ones((2, 3, 2)),
                          w0=np.ones((2, 2)))
        bounds = margin_bounds(batch)
        _, _, dl, dw0, _, _ = total_loss_with_grads(batch, None, cfg, margin=bounds)
        # normal l0=2 < m_l=3: margin hinge inactive, only the sep slope of 1
        assert dl[0, 0] == pytest.approx(1.0)
        # anomalous l0=3 > m_u=2: margin hinge inactive; sep active (-1/l^2)
        assert dl[1, 0] == pytest.approx(-1.0 / 9.0)
        # w0 exactly 1: the (w-1)_+ kink contributes nothing for normals
        assert dw0[0, 0] == 0.0 and dw0[0, 1] == 0.0


class TestLossGradients:
    def test_grads_match_finite_differences(self):
        # Perturb every l, w0 and neg entry; the loss gradients must match.
        rng = np.random.default_rng(9)
        cfg = LossConfig(m0=3.0, k=2, l1_weight=0.0)
        n = 2 * cfg.k + 1
        s = np.sort(rng.uniform(0.2, 2.0, size=(5, n, 2)), axis=1)
        y = np.array([0, 1, 0, 1, 0])
        l = rng.uniform(0.3, 2.5, size=(5, n))
        w0 = rng.uniform(1 / E + 0.05, E - 0.05, size=(5, 2))
        neg = rng.uniform(1 / E + 0.05, E - 0.05, size=(3, 2))
        batch = LossBatch(y=y, l=l, s=s, w0=w0)
        frozen = margin_bounds(batch)
        value, parts, dl, dw0, dneg, _ = total_loss_with_grads(batch, neg, cfg, margin=frozen)

        h = 1e-6

        def loss_at(l_mod, w_mod, neg_mod):
            b = LossBatch(y=y, l=l_mod, s=s, w0=w_mod)
            return total_loss(b, neg_mod, cfg, margin=frozen)[0]

        for idx in np.ndindex(l.shape):
            lp, lm = l.copy(), l.copy()
            lp[idx] += h
            lm[idx] -= h
            fd = (loss_at(lp, w0, neg) - loss_at(lm, w0, neg)) / (2 * h)
            assert dl[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)
        for idx in np.ndindex(w0.shape):
            wp, wm = w0.copy(), w0.copy()
            wp[idx] += h
            wm[idx] -= h
            fd = (loss_at(l, wp, neg) - loss_at(l, wm, neg)) / (2 * h)
            assert dw0[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)
        for idx in np.ndindex(neg.shape):
            np_, nm = neg.copy(), neg.copy()
            np_[idx] += h
            nm[idx] -= h
            fd = (loss_at(l, w0, np_) - loss_at(l, w0, nm)) / (2 * h)
            assert dneg[idx] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    def test_l1_subgradient_on_weight_matrices_only(self):
        # The L1 term's gradient is l1_weight * sign(W), at the weights' own
        # dtype, for each weight matrix and for no bias or log sigma.
        from g2sf.lspn import LspnConfig, init_model, parameters

        model = init_model(LspnConfig(dim_pc=3, dim_rgb=2, branch_widths=(4,),
                                      fusion_widths=(3,)), seed=0)
        cfg = LossConfig(m0=3.0, k=1, l1_weight=0.5)
        batch = batch_from_l0([0, 1], [1.0, 2.0])
        value, parts, *_, dparams = total_loss_with_grads(batch, None, cfg, model=model)
        params = parameters(model)
        dparams = list(dparams)
        assert [i for i, _ in dparams] == [i for i, p in enumerate(params) if p.ndim == 2]
        for i, grad in dparams:
            assert grad.dtype == params[i].dtype
            assert grad.tobytes() == (0.5 * np.sign(params[i])).tobytes()
        assert parts["l1"] == sum(np.abs(params[i]).sum(dtype=np.float64) for i, _ in dparams)
        assert (value, parts) == total_loss(batch, None, cfg, model=model)
        off = total_loss_with_grads(batch, None, LossConfig(m0=3.0, k=1, l1_weight=0.0),
                                    model=model)
        assert off[1]["l1"] == 0.0 and list(off[-1]) == []
