"""Scale-network architecture, initialization, and backprop tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.bank import MemoryBank, query_neighbors_batch
from g2sf.errors import ShapeError
from g2sf.geometry import GeometricEncoding, inverse_distances
from g2sf.lspn import (
    Directions,
    LspnConfig,
    Sources,
    backward_batch,
    forward_batch,
    init_model,
    metric_values,
    parameters,
    parameter_names,
    rank_rows,
    weight_flags,
)
from g2sf.nn import backprop_check
from tests.oracles import (
    dense_backward,
    dense_forward,
    dense_rows,
    fused_metric,
    random_inputs,
)

E = math.e

SMALL = LspnConfig(dim_pc=4, dim_rgb=3, branch_widths=(16, 8), fusion_widths=(8,),
                   dropout=0.5)


def zeroed(model):
    for p in parameters(model)[:-1]:
        p[...] = 0.0
    return model


class TestForward:
    def test_zero_parameters_give_unit_scales(self):
        model = zeroed(init_model(SMALL, seed=0))
        w, _ = forward_batch(model, *random_inputs(np.random.default_rng(0), SMALL, 8))
        assert np.all(w == 1.0)

    def test_output_range(self):
        rng = np.random.default_rng(0)
        model = init_model(SMALL, seed=3)
        w, _ = forward_batch(model, *random_inputs(rng, SMALL, 4096, scale=10.0))
        assert w.min() >= np.exp(-1.0) - 1e-6
        assert w.max() <= E + 1e-6

    def test_dimension_mismatch(self):
        model = init_model(SMALL, seed=1)
        wide = LspnConfig(dim_pc=5, dim_rgb=3, branch_widths=(16, 8), fusion_widths=(8,))
        with pytest.raises(ShapeError):
            forward_batch(model, *random_inputs(np.random.default_rng(1), wide, 4))
        protos, dirs, sources = random_inputs(np.random.default_rng(1), SMALL, 4)
        with pytest.raises(ShapeError):
            forward_batch(model, protos[:3], dirs, sources)

    def test_inference_deterministic(self):
        rng = np.random.default_rng(5)
        model = init_model(SMALL, seed=2)
        inputs = random_inputs(rng, SMALL, 16)
        a, cache = forward_batch(model, *inputs)
        b, _ = forward_batch(model, *inputs)
        assert a.tobytes() == b.tobytes()
        assert cache is None  # inference keeps no training state

    def test_degenerate_zero_direction_passes_through(self):
        model = init_model(SMALL, seed=2)
        protos, dirs, sources = random_inputs(np.random.default_rng(2), SMALL, 8)
        dirs = dirs._replace(inv_r=np.zeros_like(dirs.inv_r))
        w, _ = forward_batch(model, protos, dirs, sources)
        assert np.all((np.exp(-1) <= w) & (w <= E))
        # A zero direction term is the direction branch's bias alone, so the
        # output cannot depend on the cells.
        shuffled = dirs._replace(cells=dirs.cells[::-1].copy())
        w_shuffled, _ = forward_batch(model, protos, shuffled, sources)
        assert w.tobytes() == w_shuffled.tobytes()

    def test_dropout_only_in_training(self):
        rng = np.random.default_rng(6)
        model = init_model(SMALL, seed=4)
        inputs = random_inputs(rng, SMALL, 64)
        train_a, _ = forward_batch(model, *inputs, training=True, rng=np.random.default_rng(0))
        train_b, _ = forward_batch(model, *inputs, training=True, rng=np.random.default_rng(1))
        assert not np.array_equal(train_a, train_b)


def _factored_problem(seed, case):
    """Bank-neighbor rows of a few cells, plus rank-0 rows whose rgb half
    (prototype or direction) comes from another cell, as negatives do.
    Returns (protos, dirs, sources, raw distances of every row)."""
    rng = np.random.default_rng(seed)
    k, n_cells = 2, 5
    n_protos = 3 if case == "truncated" else 9  # 3 < 2k+1: truncated ranks
    prototypes, features = [], []
    for dim in (5, 3):
        protos = (10.0 * rng.standard_normal((n_protos, dim))).astype(np.float32)
        feats = (10.0 * rng.standard_normal((n_cells, dim))).astype(np.float32)
        if case == "members":
            feats[:2] = protos[rng.integers(n_protos, size=2)]
        elif case == "near":
            # |f| ~ 20 and r / |f| from about 1e-7 (an ulp or two) to 1e-3.
            anchor = protos[rng.integers(n_protos, size=n_cells)]
            step = 10.0 ** rng.uniform(-7, -3, size=(n_cells, 1)) * np.linalg.norm(
                anchor, axis=1, keepdims=True)
            unit = rng.standard_normal((n_cells, dim))
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
            feats = (anchor + step * unit).astype(np.float32)
        prototypes.append(protos)
        features.append(feats)
    ids, raw = [], []
    for m, modality in enumerate(("pc", "rgb")):
        idx, dist, _ = query_neighbors_batch(MemoryBank(modality, prototypes[m]),
                                             features[m], k)
        ids.append(idx)
        raw.append(dist)
    ids, raw = np.stack(ids, axis=2), np.stack(raw, axis=2)
    protos, dirs = rank_rows(ids, inverse_distances(raw))
    raw_rows = raw.reshape(-1, 2)
    own = np.arange(n_cells)
    partner = np.roll(own, 1)
    swap_proto = np.stack([ids[own, 0, 0], ids[partner, 0, 1]], axis=1)
    cells = np.stack([own, partner], axis=1)
    anchors = np.stack([ids[own, 0, 0], ids[partner, 0, 1]], axis=1)
    neg_raw = np.stack([raw[own, 0, 0], raw[partner, 0, 1]], axis=1)
    protos = np.concatenate([protos, swap_proto, ids[own, 0]])
    dirs = Directions(np.concatenate([dirs.cells, np.stack([own, own], axis=1), cells]),
                      np.concatenate([dirs.anchors, ids[own, 0], anchors]),
                      np.concatenate([dirs.inv_r, inverse_distances(raw[own, 0]),
                                      inverse_distances(neg_raw)]))
    raw_rows = np.concatenate([raw_rows, raw[own, 0], neg_raw])
    return protos, dirs, Sources(tuple(prototypes), tuple(features)), raw_rows


class TestFactoredMatchesDense:
    """The factored first layers against the dense network on built rows.

    The dense reference runs in float64 on the same weights, so each
    tolerance bounds the factored path's own rounding. The examples are
    derandomized: float32 bias gradients are sums of rows with mixed signs,
    and a rare random draw puts their rounding near the 1e-6 bound.
    """

    CFG = LspnConfig(dim_pc=5, dim_rgb=3, branch_widths=(12, 6), fusion_widths=(6,),
                     dropout=0.0)

    @staticmethod
    def _close(got, want, tol):
        got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
        return np.abs(got - want).max() <= tol * max(np.abs(want).max(), 1e-30)

    @given(seed=st.integers(0, 2**32 - 1),
           case=st.sampled_from(["random", "members", "near", "truncated"]),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_forward_and_backward(self, seed, case, dtype):
        tol = 1e-6 if dtype == np.float32 else 1e-8
        model = init_model(self.CFG, seed=seed % 1000).astype(dtype)
        reference = model.astype(np.float64)
        protos, dirs, sources, raw = _factored_problem(seed, case)
        w, cache = forward_batch(model, protos, dirs, sources, training=True)
        dense_p, dense_d = dense_rows(protos, dirs.cells, dirs.anchors, raw,
                                      sources.prototypes, sources.features, np.float64)
        w_dense, dense_cache = dense_forward(reference, dense_p, dense_d, training=True)
        assert self._close(cache.proto[0][1], dense_cache.proto[0][1], tol)
        assert self._close(cache.direc[0][1], dense_cache.direc[0][1], tol)
        assert self._close(w, w_dense, tol)

        coeffs = np.random.default_rng(seed).standard_normal(w.shape).astype(dtype)
        grads = dict(zip(parameter_names(model), backward_batch(model, cache, coeffs)))
        want = dict(zip(parameter_names(model),
                        dense_backward(reference, dense_cache, coeffs.astype(np.float64))))
        for name in ("proto_0_w", "proto_0_b", "dir_0_w", "dir_0_b"):
            assert grads[name].dtype == dtype
            assert self._close(grads[name], want[name], tol), name

    def test_float32_tables_would_fail_near_members(self):
        # The case the float64 tables exist for: near bank members (r / |f|
        # down to 1e-7) a float32 W f - W m loses its digits, while the
        # factored path stays within float32 rounding of the dense one.
        model = init_model(self.CFG, seed=0)
        protos, dirs, sources, raw = _factored_problem(3, "near")
        _, cache = forward_batch(model, protos, dirs, sources, training=True)
        dense_p, dense_d = dense_rows(protos, dirs.cells, dirs.anchors, raw,
                                      sources.prototypes, sources.features, np.float64)
        _, dense_cache = dense_forward(model.astype(np.float64), dense_p, dense_d,
                                       training=True)
        want = dense_cache.direc[0][1]
        assert self._close(cache.direc[0][1], want, 1e-6)
        w32 = model.dir_branch[0].weight
        lossy = model.dir_branch[0].bias.copy() + sum(
            (sources.features[m][dirs.cells[:, m]] @ w32[:, cols].T
             - sources.prototypes[m][dirs.anchors[:, m]] @ w32[:, cols].T)
            * dirs.inv_r[:, m, None].astype(np.float32)
            for m, cols in enumerate((slice(0, 5), slice(5, 8))))
        assert not self._close(lossy, want, 1e-3)


class TestInit:
    def test_seed_reproducible(self):
        a = init_model(SMALL, seed=11)
        b = init_model(SMALL, seed=11)
        for pa, pb in zip(parameters(a), parameters(b)):
            np.testing.assert_array_equal(pa, pb)

    def test_sigma_readback(self):
        model = init_model(SMALL, seed=0)
        assert model.sigma_pc == pytest.approx(0.5)
        assert model.sigma_rgb == pytest.approx(0.5)

    def test_near_identity_start(self):
        # Fan-in scaled init keeps the predicted scales close to 1.
        rng = np.random.default_rng(1)
        model = init_model(LspnConfig(dim_pc=8, dim_rgb=8, branch_widths=(64, 32),
                                      fusion_widths=(32,)), seed=7)
        cfg = model.cfg
        w, _ = forward_batch(model, *random_inputs(rng, cfg, 1024))
        assert np.abs(w - 1.0).mean() < 0.2

    def test_init_metric_tracks_euclidean_sum(self):
        rng = np.random.default_rng(2)
        model = init_model(SMALL, seed=9)
        w, _ = forward_batch(model, *random_inputs(rng, SMALL, 512))
        s = rng.uniform(0.3, 2.0, size=(512, 2))
        l = metric_values(w.astype(np.float64), s, model.sigma.astype(np.float64))
        baseline = 0.5 * s.sum(axis=1)
        assert np.all(np.abs(l - baseline) / baseline < 0.25)

    def test_full_scale_defaults_forward(self):
        # Default architecture (1152/768 dims, 512/256 branches) wires up and
        # keeps the output bounds; one small batch is enough for the shapes.
        cfg = LspnConfig()
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        w, _ = forward_batch(model, *random_inputs(rng, cfg, 4))
        assert w.shape == (4, 2)
        assert np.exp(-1) - 1e-6 <= w.min() and w.max() <= E + 1e-6

    def test_parameter_bookkeeping(self):
        model = init_model(SMALL, seed=0)
        names = parameter_names(model)
        params = parameters(model)
        flags = weight_flags(model)
        assert len(names) == len(params) == len(flags)
        assert names[-1] == "log_sigma" and flags[-1] is False
        n_blocks = len(model.proto_branch) + len(model.dir_branch) + len(model.fusion_head)
        assert sum(flags) == n_blocks


class TestFusedMetric:
    def test_unit_scale_identity(self):
        model = zeroed(init_model(SMALL, seed=0))
        banks = {
            "pc": MemoryBank("pc", np.zeros((1, 4), dtype=np.float32)),
            "rgb": MemoryBank("rgb", np.zeros((1, 3), dtype=np.float32)),
        }
        enc_pc = GeometricEncoding(0, np.ones(4) / 2.0, 0.4)
        enc_rgb = GeometricEncoding(0, np.ones(3) / np.sqrt(3), 0.6)
        got = fused_metric(model, enc_pc, enc_rgb, banks)
        assert got.l == pytest.approx(0.5)
        assert got.w_pc == 1.0 and got.w_rgb == 1.0

    def test_zero_distances_zero_metric(self):
        model = init_model(SMALL, seed=3)
        banks = {
            "pc": MemoryBank("pc", np.ones((1, 4), dtype=np.float32)),
            "rgb": MemoryBank("rgb", np.ones((1, 3), dtype=np.float32)),
        }
        enc_pc = GeometricEncoding(0, np.zeros(4), 0.0, degenerate=True)
        enc_rgb = GeometricEncoding(0, np.zeros(3), 0.0, degenerate=True)
        assert fused_metric(model, enc_pc, enc_rgb, banks).l == 0.0

    def test_lower_interval_bound(self):
        rng = np.random.default_rng(4)
        model = init_model(SMALL, seed=5)
        banks = {
            "pc": MemoryBank("pc", rng.standard_normal((6, 4)).astype(np.float32)),
            "rgb": MemoryBank("rgb", rng.standard_normal((6, 3)).astype(np.float32)),
        }
        sigma = min(model.sigma_pc, model.sigma_rgb)
        for _ in range(30):
            d_pc = rng.standard_normal(4)
            d_pc /= np.linalg.norm(d_pc)
            d_rgb = rng.standard_normal(3)
            d_rgb /= np.linalg.norm(d_rgb)
            s_pc, s_rgb = rng.uniform(0.1, 2.0, size=2)
            enc_pc = GeometricEncoding(int(rng.integers(6)), d_pc, s_pc)
            enc_rgb = GeometricEncoding(int(rng.integers(6)), d_rgb, s_rgb)
            got = fused_metric(model, enc_pc, enc_rgb, banks)
            assert got.l >= np.exp(-1.0) * sigma * (s_pc + s_rgb) - 1e-9

    def test_decomposition_invariant(self):
        rng = np.random.default_rng(8)
        model = init_model(SMALL, seed=6)
        banks = {
            "pc": MemoryBank("pc", rng.standard_normal((4, 4)).astype(np.float32)),
            "rgb": MemoryBank("rgb", rng.standard_normal((4, 3)).astype(np.float32)),
        }
        for _ in range(20):
            enc_pc = GeometricEncoding(int(rng.integers(4)),
                                       rng.standard_normal(4), float(rng.uniform(0, 2)))
            enc_rgb = GeometricEncoding(int(rng.integers(4)),
                                        rng.standard_normal(3), float(rng.uniform(0, 2)))
            got = fused_metric(model, enc_pc, enc_rgb, banks)
            recon = (got.w_pc * got.s_pc * model.sigma_pc
                     + got.w_rgb * got.s_rgb * model.sigma_rgb)
            assert got.l == pytest.approx(recon, rel=1e-6)


class TestBackward:
    def test_network_gradients_match_fd(self):
        # Scalar objective: weighted sum of the batch scale outputs, through
        # the factored first layers at float64 against extended-precision FD.
        rng = np.random.default_rng(12)
        cfg = LspnConfig(dim_pc=3, dim_rgb=2, branch_widths=(6, 4), fusion_widths=(5,),
                         dropout=0.0)
        model = init_model(cfg, seed=1).astype(np.float64)
        protos, dirs, sources = random_inputs(rng, cfg, 8, n_protos=3)
        dirs = dirs._replace(cells=rng.integers(0, 4, size=(8, 2)))  # rows share cells
        coeffs = rng.standard_normal((8, 2))

        w, cache = forward_batch(model, protos, dirs, sources, training=True)
        grads = backward_batch(model, cache, coeffs)
        params = parameters(model)[:-1]

        def loss_fn(values):
            dtype = values[0].dtype
            trial = init_model(cfg, seed=1).astype(dtype)
            for dst, src in zip(parameters(trial)[:-1], values):
                dst[...] = src
            out, _ = forward_batch(trial, protos, dirs, sources)
            return (coeffs * out).sum()

        err = backprop_check(loss_fn, params, grads, h=1e-6, fd_dtype=np.longdouble)
        assert err < 1e-6
