"""Scale-network architecture, initialization, and backprop tests."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.bank import MemoryBank, query_neighbors_batch
from g2sf.errors import ConfigError, ShapeError
from g2sf.geometry import inverse_distances
from g2sf import lspn, nn
from g2sf.lspn import (
    Directions,
    LspnConfig,
    Sources,
    _direction_pre,
    _layout,
    _proto_pre,
    _segment_sums,
    backward_batch,
    forward_batch,
    init_model,
    metric_values,
    model_from_parameters,
    parameters,
    rank_rows,
)
from g2sf.nn import backprop_check
from tests.oracles import (
    GeometricEncoding,
    bincount_segment_sum,
    dense_backward,
    dense_forward,
    dense_rows,
    fused_metric,
    random_inputs,
)


def parameter_names(cfg: LspnConfig):
    """Labels of :func:`parameters` of a model of ``cfg``, in order:
    ``<block>_w`` and ``<block>_b`` per block of its layout, then ``log_sigma``."""
    return [f"{name}_{part}" for name, *_ in _layout(cfg) for part in "wb"] + ["log_sigma"]


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
        assert self._close(_proto_pre(model, protos, sources), dense_cache.proto[0][1], tol)
        assert self._close(_direction_pre(model, dirs, sources), dense_cache.direc[0][1], tol)
        assert self._close(w, w_dense, tol)

        coeffs = np.random.default_rng(seed).standard_normal(w.shape).astype(dtype)
        grads = dict(zip(parameter_names(model.cfg), backward_batch(model, cache, coeffs)))
        want = dict(zip(parameter_names(model.cfg),
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
        dense_p, dense_d = dense_rows(protos, dirs.cells, dirs.anchors, raw,
                                      sources.prototypes, sources.features, np.float64)
        _, dense_cache = dense_forward(model.astype(np.float64), dense_p, dense_d,
                                       training=True)
        want = dense_cache.direc[0][1]
        assert self._close(_direction_pre(model, dirs, sources), want, 1e-6)
        w32 = model.dir_branch[0].weight
        lossy = model.dir_branch[0].bias.copy() + sum(
            (sources.features[m][dirs.cells[:, m]] @ w32[:, cols].T
             - sources.prototypes[m][dirs.anchors[:, m]] @ w32[:, cols].T)
            * dirs.inv_r[:, m, None].astype(np.float32)
            for m, cols in enumerate((slice(0, 5), slice(5, 8))))
        assert not self._close(lossy, want, 1e-3)

    def test_dropout_step_matches_dense(self):
        # With dropout on, both networks draw the same masks in the same
        # order, so every gradient of the fused, output-cached backward
        # matches the dense network's unfused one.
        cfg = dataclasses.replace(self.CFG, dropout=0.5)
        model = init_model(cfg, seed=4).astype(np.float64)
        protos, dirs, sources, raw = _factored_problem(11, "random")
        w, cache = forward_batch(model, protos, dirs, sources, training=True,
                                 rng=np.random.default_rng(3))
        dense_p, dense_d = dense_rows(protos, dirs.cells, dirs.anchors, raw,
                                      sources.prototypes, sources.features, np.float64)
        w_dense, dense_cache = dense_forward(model, dense_p, dense_d, training=True,
                                             rng=np.random.default_rng(3))
        assert self._close(w, w_dense, 1e-12)
        coeffs = np.random.default_rng(5).standard_normal(w.shape)
        got = backward_batch(model, cache, coeffs)
        want = dense_backward(model, dense_cache, coeffs)
        for name, g, ref in zip(parameter_names(cfg), got, want):
            assert self._close(g, ref, 1e-10), name


class TestSegmentSum:
    """All groups of one product against a bincount per group."""

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 40),
           width=st.integers(1, 6), n_groups=st.integers(1, 4), zero_rows=st.booleans(),
           scaled=st.lists(st.booleans(), min_size=4, max_size=4),
           dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_bit_equal_to_bincount(self, seed, rows, width, n_groups, zero_rows, scaled,
                                   dtype):
        # Per group, few ids over many rows: repeated ids, and ids that no
        # row names (empty segments), with ``size`` up to 3 above the
        # largest id. Scaled groups have rows with 1/r = 0. Ids and scales
        # are column views of (R, 2) arrays, as the first layers pass them.
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-3, 4)).astype(dtype)
        if zero_rows and rows:
            values[rng.random(rows) < 0.3] = 0.0
        groups = []
        for g in range(n_groups):
            n_ids = int(rng.integers(1, 9))
            ids = rng.integers(0, n_ids, size=(rows, 2))[:, 1]
            scale = None
            if scaled[g]:
                scale = rng.uniform(0.0, 50.0, size=(rows, 2))[:, 0]
                scale[rng.random(rows) < 0.2] = 0.0  # degenerate rows have 1/r = 0
            groups.append((ids, n_ids + int(rng.integers(0, 4)), scale))
        sums = _segment_sums(values.astype(np.float64), groups)
        assert len(sums) == n_groups
        for got, (ids, size, scale) in zip(sums, groups):
            want = bincount_segment_sum(ids, values, size, scale)
            assert got.shape == (size, width) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


class TestTrainingCache:
    def test_one_output_per_hidden_block(self):
        # The training cache holds each hidden block's output and nothing
        # else that grows with the widths: no pre-activations, no masks.
        rows = 40
        model = init_model(SMALL, seed=0)  # dropout 0.5
        protos, dirs, sources = random_inputs(np.random.default_rng(0), SMALL, rows)
        _, cache = forward_batch(model, protos, dirs, sources, training=True,
                                 rng=np.random.default_rng(1))
        for outputs, blocks in ((cache.proto, model.proto_branch),
                                (cache.direc, model.dir_branch),
                                (cache.fusion, model.fusion_head[:-1])):
            assert [a.shape for a in outputs] == [(rows, b.out_dim) for b in blocks]
        buffers = {}
        for f in dataclasses.fields(cache):
            if f.name in ("protos", "dirs", "sources"):
                continue  # the caller's inputs
            value = getattr(cache, f.name)
            for arr in value if isinstance(value, list) else [value]:
                while arr.base is not None:
                    arr = arr.base
                buffers[id(arr)] = arr
        hidden = model.proto_branch + model.dir_branch + model.fusion_head[:-1]
        itemsize = np.dtype(np.float32).itemsize
        expected = sum(rows * b.out_dim for b in hidden) * itemsize
        expected += rows * 2 * itemsize  # the final linear layer's pre-activation
        assert sum(a.nbytes for a in buffers.values()) == expected

    def test_backward_consumes_cache(self):
        rows = 40
        model = init_model(SMALL, seed=0)
        protos, dirs, sources = random_inputs(np.random.default_rng(0), SMALL, rows)
        w, cache = forward_batch(model, protos, dirs, sources, training=True,
                                 rng=np.random.default_rng(1))
        backward_batch(model, cache, np.ones_like(w))
        # Nothing is left, so no row-sized array either.
        for f in dataclasses.fields(cache):
            value = getattr(cache, f.name)
            assert value is None or (isinstance(value, list) and not value), f.name
        with pytest.raises(ConfigError, match="already run on this cache"):
            backward_batch(model, cache, np.ones_like(w))


def ranked_inputs(rng, cfg, cells, ranks, negatives, n_protos=12):
    """Factored inputs of ``cells`` cells at ``ranks`` neighbor ranks each, as
    :func:`rank_rows` lays them out, then ``negatives`` rank-0 rows whose rgb
    half (cell, anchor, prototype) comes from another cell, as the trainer's
    cross-modal negatives do."""
    dims = (cfg.dim_pc, cfg.dim_rgb)
    prototypes = tuple(rng.standard_normal((n_protos, d)).astype(np.float32) for d in dims)
    features = tuple(rng.standard_normal((cells, d)).astype(np.float32) for d in dims)
    ids = rng.integers(0, n_protos, size=(cells, ranks, 2))
    inv_r = np.stack([inverse_distances(np.linalg.norm(
        features[m][:, None, :].astype(np.float64) - prototypes[m][ids[..., m]], axis=2))
        for m in range(2)], axis=2)
    protos, dirs = rank_rows(ids, inv_r)
    own = rng.integers(0, cells, size=negatives)
    partner = (own + rng.integers(1, cells, size=negatives)) % cells
    neg_cells = np.stack([own, partner], axis=1)
    neg_ids = np.stack([ids[own, 0, 0], ids[partner, 0, 1]], axis=1)
    neg_inv_r = np.stack([inv_r[own, 0, 0], inv_r[partner, 0, 1]], axis=1)
    dirs = Directions(np.concatenate([dirs.cells, neg_cells]),
                      np.concatenate([dirs.anchors, neg_ids]),
                      np.concatenate([dirs.inv_r, neg_inv_r]))
    return np.concatenate([protos, neg_ids]), dirs, Sources(prototypes, features)


def _cache_bytes(cache):
    """Bytes of the distinct buffers a training cache holds, the caller's
    inputs aside."""
    buffers = {}
    for f in dataclasses.fields(cache):
        if f.name in ("protos", "dirs", "sources"):
            continue
        value = getattr(cache, f.name)
        for arr in value if isinstance(value, list) else [value]:
            while arr.base is not None:
                arr = arr.base
            buffers[id(arr)] = arr
    return sum(a.nbytes for a in buffers.values())


class TestStepMemory:
    """A training step holds no row-sized array beyond its forward cache:
    the forward never joins the branch outputs by a concatenation, and the
    backward writes each input gradient over the input it consumes."""

    # The branches end wider than the fusion head, as at the paper's widths
    # (256 against 128), and each cell has 11 ranks.
    CFG = LspnConfig(dim_pc=12, dim_rgb=8, branch_widths=(128, 128), fusion_widths=(64,),
                     dropout=0.5)

    def _step_inputs(self):
        rng = np.random.default_rng(8)
        model = init_model(self.CFG, seed=3)
        protos, dirs, sources = ranked_inputs(rng, self.CFG, cells=256, ranks=11,
                                              negatives=256)
        return model, protos, dirs, sources

    def _traced(self, call):
        """(result, peak traced bytes above the start) of ``call()``."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = call()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def _step(self, model, protos, dirs, sources):
        w, cache = forward_batch(model, protos, dirs, sources, training=True,
                                 rng=np.random.default_rng(1))
        coeffs = np.random.default_rng(2).standard_normal(w.shape).astype(np.float32)
        return cache, coeffs

    def test_forward_peak_below_cache_plus_one_branch_output(self):
        model, protos, dirs, sources = self._step_inputs()
        backward_batch(model, *self._step(model, protos, dirs, sources))  # warm-up
        (w, cache), peak = self._traced(lambda: forward_batch(
            model, protos, dirs, sources, training=True, rng=np.random.default_rng(1)))
        branch_output = len(protos) * self.CFG.branch_widths[-1] * 4
        assert peak < _cache_bytes(cache) + w.nbytes + branch_output

    def test_backward_peak_within_its_starting_memory(self, monkeypatch):
        # The default column block (about 8 MB of float64) is sized for
        # batches of paper rows; at these 3,072 rows it would hold every
        # column of a first-layer gradient, so blocks of 8 columns stand in.
        model, protos, dirs, sources = self._step_inputs()
        monkeypatch.setattr(lspn, "_SUM_BLOCK", 8 * len(protos), raising=False)
        # A warm-up step loads scipy.sparse, whose import the tracer counts.
        backward_batch(model, *self._step(model, protos, dirs, sources))
        cache, coeffs = self._step(model, protos, dirs, sources)
        start_bytes = _cache_bytes(cache)
        grads, peak = self._traced(lambda: backward_batch(model, cache, coeffs))
        weight_grads = sum(g.nbytes for g in grads)
        # Beyond the weight gradients, the backward holds the first layers'
        # segment sums and sparse matrix and one column block: about 1 MB
        # here, against a 7.1 MB cache, of which one branch output is 1.6 MB.
        branch_output = len(protos) * self.CFG.branch_widths[-1] * 4
        assert start_bytes > 4 * branch_output
        assert peak - weight_grads < branch_output


class TestBlockedBackwardBits:
    """Row blocks of the input gradients and column blocks of the first-layer
    sums change no bit of a training step."""

    CFG = LspnConfig(dim_pc=6, dim_rgb=5, branch_widths=(16, 12), fusion_widths=(8,),
                     dropout=0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("columns", [1, 5])
    def test_small_blocks_give_the_default_bits(self, monkeypatch, columns, dtype):
        rng = np.random.default_rng(columns)
        model = init_model(self.CFG, seed=5).astype(dtype)
        protos, dirs, sources = ranked_inputs(rng, self.CFG, cells=30, ranks=5, negatives=19)
        coeffs = rng.standard_normal((len(protos), 2)).astype(dtype)

        def step():
            w, cache = forward_batch(model, protos, dirs, sources, training=True,
                                     rng=np.random.default_rng(6))
            return w, backward_batch(model, cache, coeffs)

        want_w, want = step()  # one row block and one column block at 169 rows
        # Blocks of 3 rows fall below OpenBLAS's small-matrix cutoff, which
        # the default blocks never do; at these widths (multiples of 8) its
        # small kernels sum as the large ones do, so the bits hold anyway.
        monkeypatch.setattr(nn, "_GRAD_ROWS", 3)
        monkeypatch.setattr(nn, "_GRAD_MACS", 0)
        monkeypatch.setattr(lspn, "_SUM_BLOCK", columns * len(protos))
        got_w, got = step()
        assert got_w.tobytes() == want_w.tobytes()
        for name, g, ref in zip(parameter_names(self.CFG), got, want):
            assert g.dtype == dtype, name
            assert g.tobytes() == ref.tobytes(), name


def frozen(model):
    """``model`` with every parameter read-only, as a loaded checkpoint's."""
    for p in parameters(model):
        p.setflags(write=False)
    return model


def frozen_sources(sources):
    """``sources`` with read-only prototypes, as a bank's."""
    for protos in sources.prototypes:
        protos.setflags(write=False)
    return sources


@pytest.fixture
def table_builds(monkeypatch):
    """Counts the prototype tables the forward builds, one per call."""
    calls = []
    build = lspn._build_tables

    def counted(model, branch, m, prototypes):
        calls.append((branch, m))
        return build(model, branch, m, prototypes)

    monkeypatch.setattr(lspn, "_build_tables", counted)
    return calls


class TestFrozenTables:
    """First-layer prototype tables are cached for frozen weights only."""

    def test_built_once_and_bit_identical_to_writable_copy(self, table_builds):
        rng = np.random.default_rng(20)
        model = frozen(init_model(SMALL, seed=5))
        protos, dirs, sources = random_inputs(rng, SMALL, 64)
        sources = frozen_sources(sources)
        want, _ = forward_batch(model.copy(), protos, dirs, sources)
        assert len(table_builds) == 4  # writable copy: both branches, both modalities
        first, _ = forward_batch(model, protos, dirs, sources)
        second, _ = forward_batch(model, protos, dirs, sources)
        assert len(table_builds) == 8  # the frozen model built its tables once
        assert first.tobytes() == want.tobytes() == second.tobytes()

    def test_writable_weights_never_read_a_stale_table(self, table_builds):
        rng = np.random.default_rng(21)
        model = init_model(SMALL, seed=6)
        protos, dirs, sources = random_inputs(rng, SMALL, 32)
        sources = frozen_sources(sources)
        before, _ = forward_batch(model, protos, dirs, sources)
        for block in (model.proto_branch[0], model.dir_branch[0]):
            block.weight *= 2.0
        after, _ = forward_batch(model, protos, dirs, sources)
        fresh, _ = forward_batch(model.copy(), protos, dirs, sources)
        assert not np.array_equal(after, before)
        assert after.tobytes() == fresh.tobytes()
        assert len(table_builds) == 12 and model._tables == {}

    def test_writable_prototypes_are_not_cached(self, table_builds):
        # A read-only view of a writable array can still change under it.
        rng = np.random.default_rng(22)
        model = frozen(init_model(SMALL, seed=7))
        protos, dirs, sources = random_inputs(rng, SMALL, 16)
        bases = sources.prototypes
        views = tuple(b[:] for b in bases)
        for view in views:
            view.setflags(write=False)
        sources = sources._replace(prototypes=views)
        before, _ = forward_batch(model, protos, dirs, sources)
        bases[0][...] += 1.0
        after, _ = forward_batch(model, protos, dirs, sources)
        fresh, _ = forward_batch(model.copy(), protos, dirs, sources)
        assert not np.array_equal(after, before)
        assert after.tobytes() == fresh.tobytes()
        assert model._tables == {}

    def test_other_bank_rebuilds(self, table_builds):
        rng = np.random.default_rng(23)
        model = frozen(init_model(SMALL, seed=8))
        protos, dirs, sources = random_inputs(rng, SMALL, 16)
        other = frozen_sources(sources._replace(
            prototypes=tuple(p + np.float32(0.5) for p in sources.prototypes)))
        sources = frozen_sources(sources)
        for src in (sources, other, sources):
            got, _ = forward_batch(model, protos, dirs, src)
            want, _ = forward_batch(model.copy(), protos, dirs, src)
            assert got.tobytes() == want.tobytes()
        assert len(model._tables) == 4  # one entry per branch and modality

    def test_cache_holds_no_reference_to_the_model(self):
        rng = np.random.default_rng(24)
        model = frozen(init_model(SMALL, seed=9))
        protos, dirs, sources = random_inputs(rng, SMALL, 8)
        forward_batch(model, protos, dirs, frozen_sources(sources))
        assert len(model._tables) == 4
        ref = weakref.ref(model)
        del model
        assert ref() is None

    def test_concurrent_fills_build_once(self, table_builds):
        # More threads than cores on the first forward of fresh frozen models,
        # with a short switch interval: each model builds its tables once and
        # every thread reads whole, equal tables.
        rng = np.random.default_rng(25)
        protos, dirs, sources = random_inputs(rng, SMALL, 256)
        sources = frozen_sources(sources)
        writable = init_model(SMALL, seed=10)
        want, _ = forward_batch(writable, protos, dirs, sources)
        rounds, threads = 4, 8
        start = threading.Barrier(threads)

        def one(model):
            start.wait(timeout=60)
            return forward_batch(model, protos, dirs, sources)[0]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in range(rounds):
                    model = frozen(writable.copy())
                    futures = [pool.submit(one, model) for _ in range(threads)]
                    results = [f.result(timeout=60) for f in futures]
                    assert all(r.tobytes() == want.tobytes() for r in results)
        finally:
            sys.setswitchinterval(interval)
        assert len(table_builds) == 4 * (1 + rounds)  # the writable model's, then each frozen one's


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
        # The weight matrices (the weight-decay and L1 targets) are the 2-D
        # parameters, one per block, and only the output block has no dropout.
        model = init_model(SMALL, seed=0)
        names = parameter_names(SMALL)
        params = parameters(model)
        assert len(names) == len(params)
        assert names[-1] == "log_sigma" and params[-1].shape == (2,)
        blocks = model.proto_branch + model.dir_branch + model.fusion_head
        assert [n for n, p in zip(names, params) if p.ndim == 2] == \
            [f"{prefix}_{i}_w" for prefix in ("proto", "dir") for i in range(2)] + \
            [f"fusion_{i}_w" for i in range(2)]
        assert [b.dropout_rate for b in blocks] == [0.5] * 5 + [0.0]

    def test_draw_order_pinned(self):
        # Each block draws its weight, then its bias: the prototype branch,
        # the direction branch, then the fusion head (shapes written out here
        # for SMALL), so a seed gives the same network it always has.
        shapes = [(16, 7), (8, 16), (16, 7), (8, 16), (8, 16), (2, 8)]
        rng = np.random.default_rng(np.random.SeedSequence([5, 0x157]))
        want = []
        for fan_out, fan_in in shapes:
            bound = 1.0 / np.sqrt(fan_in)
            want.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(np.float32))
            want.append(rng.uniform(-bound, bound, size=fan_out).astype(np.float32))
        got = parameters(init_model(SMALL, seed=5))
        assert len(got) == len(want) + 1
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_model_from_parameters_wraps_arrays(self):
        params = parameters(init_model(SMALL, seed=3))
        model = model_from_parameters(SMALL, params)
        assert all(a is b for a, b in zip(parameters(model), params))
        copy = model.copy()
        assert not any(np.shares_memory(a, b) for a, b in zip(parameters(copy), params))

    def test_model_from_parameters_names_mismatched_block(self):
        params = parameters(init_model(SMALL, seed=3))
        params[6] = params[6][:, :-1]  # dir_1_w
        with pytest.raises(ShapeError, match="dir_1"):
            model_from_parameters(SMALL, params)
        with pytest.raises(ShapeError, match="parameter arrays"):
            model_from_parameters(SMALL, params[:-3] + params[-1:])


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
