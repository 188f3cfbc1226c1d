"""Coreset construction and exact nearest-neighbor tests."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.bank import (
    MemoryBank,
    build_bank,
    covering_radius,
    load_bank,
    nearest_distance,
    query_neighbors,
    query_neighbors_batch,
    save_bank,
)
from g2sf.errors import ConfigError, EmptyBankError, ShapeError


def brute_force_radius(points, centers_idx):
    """Oracle: covering radius of a center subset by full pairwise scan."""
    worst = 0.0
    for p in points:
        best = min(np.linalg.norm(p - points[c]) for c in centers_idx)
        worst = max(worst, best)
    return worst


def optimal_radius(points, budget):
    """Oracle: exhaustive best covering radius over all center subsets."""
    best = np.inf
    for combo in itertools.combinations(range(len(points)), budget):
        best = min(best, brute_force_radius(points, combo))
    return best


def assert_batch_equals_oracle(bank, queries, k, chunk=1024):
    """The batched query must reproduce the scalar oracle bit for bit."""
    idx, dist, truncated = query_neighbors_batch(bank, queries, k, chunk)
    n = min(2 * k + 1, bank.size)
    assert idx.shape == dist.shape == (len(queries), n)
    assert truncated == (bank.size < 2 * k + 1)
    for i, q in enumerate(queries):
        single = query_neighbors(bank, q, k)
        np.testing.assert_array_equal(idx[i], single.indices)
        np.testing.assert_array_equal(dist[i], single.distances)
    return idx, dist, truncated


class TestBuildBank:
    def test_hand_trace_1d(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]], dtype=np.float32)
        bank = build_bank(points, "pc", 0.5)
        got = sorted(bank.prototypes[:, 0].tolist())
        assert got == [0.0, 10.0]
        assert covering_radius(bank, points) == pytest.approx(2.0)

    def test_fraction_one_is_input_set(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((7, 3)).astype(np.float32)
        bank = build_bank(points, "rgb", 1.0)
        assert bank.size == 7
        assert covering_radius(bank, points) == 0.0
        got = {tuple(row) for row in bank.prototypes}
        assert got == {tuple(row) for row in points}

    def test_two_approximation_exhaustive(self):
        # Greedy k-center is a 2-approximation; verify on every instance we
        # can brute-force (N <= 12, budget 3).
        rng = np.random.default_rng(5)
        for trial in range(20):
            n = int(rng.integers(4, 13))
            points = rng.uniform(-1, 1, size=(n, 2)).astype(np.float32)
            budget = 3
            bank = build_bank(points, "pc", budget / n)
            greedy = covering_radius(bank, points)
            optimal = optimal_radius(points, bank.size)
            assert greedy <= 2.0 * optimal + 1e-7

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyBankError):
            build_bank(np.zeros((0, 3), dtype=np.float32), "pc", 0.5)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            build_bank(np.ones((3, 2), dtype=np.float32), "pc", 0.0)

    def test_projection_preserves_full_dim_prototypes(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((50, 16)).astype(np.float32)
        bank = build_bank(points, "pc", 0.2, seed=1, projection_dim=4)
        assert bank.dim == 16
        rows = {tuple(r) for r in points}
        assert all(tuple(p) in rows for p in bank.prototypes)

    def test_immutable_after_build(self):
        bank = build_bank(np.ones((3, 2), dtype=np.float32), "pc", 1.0)
        with pytest.raises(ValueError):
            bank.prototypes[0, 0] = 5.0

    def test_source_refs_follow_selection(self):
        points = np.array([[0.0], [1.0], [2.0], [10.0]], dtype=np.float32)
        refs = [("s", 0, i) for i in range(4)]
        bank = build_bank(points, "pc", 0.5, source_refs=refs)
        assert set(bank.source_refs) == {("s", 0, 0), ("s", 0, 3)}

    def test_duplicate_points_select_distinct_indices(self):
        points = np.repeat(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32), 3,
                           axis=0)
        refs = [("s", 0, i) for i in range(6)]
        bank = build_bank(points, "pc", 1.0, source_refs=refs)
        assert bank.size == 6
        assert len(set(bank.source_refs)) == 6  # no prototype index reused


class TestQuery:
    def test_member_distance_zero(self):
        rng = np.random.default_rng(4)
        protos = rng.standard_normal((10, 5)).astype(np.float32)
        bank = MemoryBank("pc", protos)
        got = query_neighbors(bank, protos[7], 2)
        assert got.indices[0] == 7
        assert got.distances[0] == 0.0

    def test_hand_euclidean(self):
        bank = MemoryBank("pc", np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32))
        got = query_neighbors(bank, np.array([0.0, 0.0]), 0)
        assert got.indices[0] == 0 and got.distances[0] == 0.0
        got = query_neighbors(bank, np.array([3.0, 0.0]), 0)
        assert got.indices[0] == 0  # d=3 to origin beats d=4 to (3,4)
        assert got.distances[0] == pytest.approx(3.0)

    def test_truncation_flag(self):
        bank = MemoryBank("pc", np.eye(4, dtype=np.float32))
        got = query_neighbors(bank, np.zeros(4), 5)
        assert len(got) == 4
        assert got.truncated

    def test_distances_nondecreasing_and_consistent(self):
        rng = np.random.default_rng(9)
        bank = MemoryBank("rgb", rng.standard_normal((30, 6)).astype(np.float32))
        f = rng.standard_normal(6)
        got = query_neighbors(bank, f, 3)
        assert np.all(np.diff(got.distances) >= 0)
        for idx, dist in zip(got.indices, got.distances):
            direct = np.linalg.norm(f - bank.prototypes[idx])
            assert dist == pytest.approx(direct, rel=1e-6)

    def test_tie_breaks_to_lower_index(self):
        bank = MemoryBank("pc", np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]],
                                         dtype=np.float32))
        got = query_neighbors(bank, np.array([0.0, 0.0]), 1)
        assert got.indices.tolist() == [0, 1, 2]

    def test_dimension_mismatch(self):
        bank = MemoryBank("pc", np.ones((3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            query_neighbors(bank, np.zeros(3), 1)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(12)
        bank = MemoryBank("pc", rng.standard_normal((25, 5)).astype(np.float32))
        queries = rng.standard_normal((8, 5)).astype(np.float32)
        _, _, truncated = assert_batch_equals_oracle(bank, queries, 2)
        assert not truncated

    def test_order_invariance_up_to_tiebreak(self):
        rng = np.random.default_rng(21)
        protos = rng.standard_normal((20, 4)).astype(np.float32)
        perm = rng.permutation(20)
        a = MemoryBank("pc", protos)
        b = MemoryBank("pc", protos[perm])
        f = rng.standard_normal(4)
        qa = query_neighbors(a, f, 3)
        qb = query_neighbors(b, f, 3)
        np.testing.assert_allclose(qa.distances, qb.distances, rtol=1e-12)
        np.testing.assert_array_equal(protos[qa.indices], b.prototypes[qb.indices])


class TestBatchEqualsOracle:
    """Adversarial inputs for the GEMM shortlist and its exact re-rank."""

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 40), d=st.integers(1, 12),
           n=st.integers(0, 30), k=st.integers(0, 5), chunk=st.sampled_from([1, 4, 7, 1024]),
           offset=st.sampled_from([0.0, 1e3]), scale=st.sampled_from([1e-3, 1.0, 1e2]))
    @settings(max_examples=60, deadline=None)
    def test_random_banks(self, seed, p, d, n, k, chunk, offset, scale):
        rng = np.random.default_rng(seed)
        bank = MemoryBank("pc", (rng.standard_normal((p, d)) * scale + offset)
                          .astype(np.float32))
        queries = rng.standard_normal((n, d)) * scale + offset
        assert_batch_equals_oracle(bank, queries, k, chunk)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_thin_shell_at_large_offset(self, seed):
        # Prototypes on a radius-0.01 sphere around a +1e3 centre: their exact
        # distances lie closer together than the rounding error of the GEMM
        # expansion, so the right top 2k+1 survives only a widened shortlist.
        rng = np.random.default_rng(seed)
        centre = np.float32(1e3) + rng.uniform(0, 1, 64).astype(np.float32)
        u = rng.standard_normal((200, 64))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        bank = MemoryBank("pc", (centre + 0.01 * u).astype(np.float32))
        queries = (centre + 1e-4 * rng.standard_normal((16, 64))).astype(np.float32)
        assert_batch_equals_oracle(bank, queries, 2)

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 30), d=st.integers(1, 6),
           k=st.integers(0, 4), offset=st.sampled_from([0.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_duplicates_and_integer_ties(self, seed, p, d, k, offset):
        # Few distinct integer points, many duplicates: most distances tie.
        rng = np.random.default_rng(seed)
        grid = rng.integers(-2, 3, size=(p, d)).astype(np.float32)
        bank = MemoryBank("pc", np.repeat(grid, 3, axis=0) + np.float32(offset))
        queries = rng.integers(-2, 3, size=(16, d)).astype(np.float64) + offset
        assert_batch_equals_oracle(bank, queries, k, chunk=5)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_all_tied_row_takes_lowest_indices(self, offset):
        unit = np.vstack([np.eye(3), -np.eye(3), np.eye(3)]).astype(np.float32)
        bank = MemoryBank("pc", unit + np.float32(offset))
        idx, dist, _ = assert_batch_equals_oracle(bank, np.full((2, 3), offset), 3)
        np.testing.assert_array_equal(idx, np.tile(np.arange(7), (2, 1)))
        np.testing.assert_array_equal(dist, np.ones((2, 7)))

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 40), d=st.integers(1, 12),
           k=st.integers(0, 4), offset=st.sampled_from([0.0, 1e3]))
    @settings(max_examples=40, deadline=None)
    def test_members_sit_at_zero(self, seed, p, d, k, offset):
        rng = np.random.default_rng(seed)
        protos = (rng.standard_normal((p, d)) + offset).astype(np.float32)
        protos = np.vstack([protos, protos[: p // 2]])  # duplicated members too
        bank = MemoryBank("pc", protos)
        members = rng.integers(0, len(protos), size=9)
        idx, dist, _ = assert_batch_equals_oracle(bank, protos[members], k, chunk=4)
        assert np.all(dist[:, 0] == 0.0)
        first_copy = [np.flatnonzero((protos == protos[m]).all(axis=1))[0] for m in members]
        np.testing.assert_array_equal(idx[:, 0], first_copy)  # lowest duplicate wins

    @pytest.mark.parametrize("p,k", [(1, 0), (1, 3), (4, 2), (6, 5)])
    def test_bank_smaller_than_window_is_truncated(self, p, k):
        rng = np.random.default_rng(p + k)
        bank = MemoryBank("rgb", rng.standard_normal((p, 3)).astype(np.float32))
        assert_batch_equals_oracle(bank, rng.standard_normal((5, 3)), k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_query_ranks_whole_bank(self, bad):
        rng = np.random.default_rng(3)
        bank = MemoryBank("pc", rng.standard_normal((9, 3)).astype(np.float32))
        queries = rng.standard_normal((4, 3))
        queries[1, 0] = bad
        assert_batch_equals_oracle(bank, queries, 2, chunk=2)

    @pytest.mark.parametrize("n,chunk", [(0, 4), (1, 1), (13, 1), (13, 4), (13, 13),
                                         (13, 1024)])
    def test_chunk_boundaries(self, n, chunk):
        rng = np.random.default_rng(n * 31 + chunk)
        bank = MemoryBank("pc", rng.standard_normal((11, 4)).astype(np.float32))
        queries = rng.standard_normal((n, 4)).astype(np.float32)
        for k in (0, 2):
            assert_batch_equals_oracle(bank, queries, k, chunk)


class TestNearestDistance:
    def test_member_zero(self):
        bank = MemoryBank("pc", np.array([[1.0, 2.0]], dtype=np.float32))
        assert nearest_distance(bank, np.array([1.0, 2.0])) == 0.0

    def test_matches_allpairs_oracle(self):
        rng = np.random.default_rng(6)
        protos = rng.standard_normal((40, 7)).astype(np.float32)
        bank = MemoryBank("pc", protos)
        for _ in range(10):
            f = rng.standard_normal(7)
            oracle = min(np.linalg.norm(f - p) for p in protos)
            assert nearest_distance(bank, f) == pytest.approx(oracle, rel=1e-9)

    def test_monotone_under_prototype_addition(self):
        rng = np.random.default_rng(8)
        protos = rng.standard_normal((10, 3)).astype(np.float32)
        grown = np.vstack([protos, rng.standard_normal((5, 3)).astype(np.float32)])
        small = MemoryBank("pc", protos)
        big = MemoryBank("pc", grown)
        for _ in range(20):
            f = rng.standard_normal(3)
            assert nearest_distance(big, f) <= nearest_distance(small, f) + 1e-12


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        bank = build_bank(rng.standard_normal((20, 4)).astype(np.float32), "rgb", 0.3,
                          source_refs=[("s0", r // 5, r % 5) for r in range(20)])
        save_bank(bank, tmp_path / "bank.g2t")
        back = load_bank(tmp_path / "bank.g2t")
        np.testing.assert_array_equal(back.prototypes, bank.prototypes)
        assert back.modality == "rgb"
        assert back.coreset_fraction == pytest.approx(0.3)
        assert back.source_refs == bank.source_refs
