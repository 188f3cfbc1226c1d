"""Coreset construction and exact nearest-neighbor tests."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from g2sf.bank import (
    MemoryBank,
    build_bank,
    covering_radius,
    load_bank,
    query_neighbors_batch,
    save_bank,
)
from g2sf.errors import ConfigError, EmptyBankError, ShapeError
from tests.oracles import greedy_scan, query_neighbors


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

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_non_matrix_input_names_its_shape(self, shape):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            build_bank(np.ones(shape, dtype=np.float32), "pc", 0.5)

    def test_bad_fraction(self):
        with pytest.raises(ConfigError):
            build_bank(np.ones((3, 2), dtype=np.float32), "pc", 0.0)

    def test_immutable_after_build(self):
        bank = build_bank(np.ones((3, 2), dtype=np.float32), "pc", 1.0)
        with pytest.raises(ValueError):
            bank.prototypes[0, 0] = 5.0

    def test_duplicate_points_select_distinct_indices(self):
        points = np.repeat(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32), 3,
                           axis=0)
        bank = assert_build_equals_scan(points, 1.0)  # the scan reuses no index
        assert bank.size == 6
        assert np.all(bank.coverage == 0.0)


def assert_build_equals_scan(points, fraction):
    """The filtered greedy build must pick what the full exact scan picks, and
    its coverage must be the scan's final nearest-center distances, bit for
    bit."""
    points = np.asarray(points, dtype=np.float32)
    n = points.shape[0]
    bank = build_bank(points, "pc", fraction)
    selected, min_sq = greedy_scan(points, bank.size)
    assert len(np.unique(selected)) == bank.size
    assert bank.prototypes.tobytes() == points[selected].tobytes()
    min_sq[selected] = 0.0
    assert bank.coverage.shape == (n,)
    assert bank.coverage.tobytes() == np.sqrt(min_sq).tobytes()
    return bank


def shell_points(rng, n, d, radius, offset=1e3):
    """Points on a thin sphere around a +offset centre: their distances lie
    closer together than the GEMM expansion's rounding error."""
    centre = np.float32(offset) + rng.uniform(0, 1, d).astype(np.float32)
    u = rng.standard_normal((n, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return (centre + radius * u).astype(np.float32)


class TestCoresetEqualsScan:
    """The filtered exact greedy update against the full-scan oracle."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), d=st.integers(1, 64),
           fraction=st.sampled_from([0.05, 0.3, 1.0]),
           kind=st.sampled_from(["normal", "ties", "equal", "shell"]),
           offset=st.sampled_from([0.0, 1e3]))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_selection_and_coverage(self, seed, n, d, fraction, kind, offset):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            points = rng.standard_normal((n, d)) + offset
        elif kind == "ties":  # few distinct integer points, many duplicates
            points = np.repeat(rng.integers(-2, 3, size=(n // 3 + 1, d)), 3, axis=0)[:n] + offset
        elif kind == "equal":
            points = np.full((n, d), offset + 0.5)
        else:
            points = shell_points(rng, n, d, 3e-4, offset)
        assert_build_equals_scan(points, fraction)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_thin_shell_at_large_offset(self, seed):
        # The GEMV's rounding error here is as large as the spread of the
        # squared distances, so a bound without the slack skips points whose
        # exact distance would lower their minimum.
        rng = np.random.default_rng(seed)
        assert_build_equals_scan(shell_points(rng, 300, 64, 3e-4), 0.2)

    def test_single_point(self):
        bank = assert_build_equals_scan(np.array([[1.5, -2.0]]), 0.5)
        assert bank.size == 1 and bank.coverage.tolist() == [0.0]

    def test_fraction_one_covers_every_point_at_zero(self):
        rng = np.random.default_rng(8)
        points = np.repeat(rng.standard_normal((5, 3)), 2, axis=0)
        bank = assert_build_equals_scan(points, 1.0)
        assert np.all(bank.coverage == 0.0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 80), d=st.integers(1, 16),
           fraction=st.sampled_from([0.05, 0.2, 1.0]), ties=st.booleans(),
           offset=st.sampled_from([0.0, 1e3]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_coverage_is_rank_zero_query(self, seed, n, d, fraction, ties, offset):
        rng = np.random.default_rng(seed)
        if ties:
            points = rng.integers(-2, 3, size=(n, d)).astype(np.float32)
        else:
            points = rng.standard_normal((n, d)).astype(np.float32)
        points += np.float32(offset)
        bank = build_bank(points, "rgb", fraction)
        _, dist, _ = query_neighbors_batch(bank, points, 0)
        assert bank.coverage.tobytes() == dist[:, 0].tobytes()
        assert float(bank.coverage.max()) == covering_radius(bank, points)

    def test_past_float32_overflow(self):
        # Products of these coordinates overflow float32: the filter GEMV
        # returns inf or NaN, and those rows must take the exact path.
        rng = np.random.default_rng(4)
        points = (3e19 * rng.standard_normal((40, 5))).astype(np.float32)
        assert_build_equals_scan(points, 0.3)

    def test_no_float64_copy_of_the_input(self):
        # Filter and exact differences run in row blocks on the float32
        # input, so one build allocates less than a copy of that input. A
        # build that casts the (N, D) points to float64 allocates twice the
        # input for the copy and as much again for its first full-scan
        # difference: about 82 MB here, against 11.5 MB.
        import tracemalloc

        rng = np.random.default_rng(3)
        n, d = 20_000, 256
        points = (rng.standard_normal((n, d)) + rng.integers(0, 8, (n, 1))).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bank = build_bank(points, "pc", 0.005)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert bank.size == 100
        assert peak < points.nbytes, (peak, points.nbytes)

    def test_coverage_read_only_and_not_persisted(self, tmp_path):
        rng = np.random.default_rng(6)
        points = rng.standard_normal((30, 4)).astype(np.float32)
        bank = build_bank(points, "pc", 0.2)
        with pytest.raises(ValueError):
            bank.coverage[0] = 1.0
        save_bank(bank, tmp_path / "built.g2t")
        save_bank(MemoryBank("pc", bank.prototypes), tmp_path / "bare.g2t")
        assert (tmp_path / "built.g2t").read_bytes() == (tmp_path / "bare.g2t").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bare.g2t", "built.g2t"]
        assert load_bank(tmp_path / "built.g2t").coverage is None


def query_one(bank, f, k):
    """(indices, distances, truncated) of one feature through the batched query."""
    idx, dist, truncated = query_neighbors_batch(bank, np.asarray(f)[None, :], k)
    return idx[0], dist[0], truncated


class TestQuery:
    def test_member_distance_zero(self):
        rng = np.random.default_rng(4)
        protos = rng.standard_normal((10, 5)).astype(np.float32)
        bank = MemoryBank("pc", protos)
        idx, dist, _ = query_one(bank, protos[7], 2)
        assert idx[0] == 7
        assert dist[0] == 0.0

    def test_hand_euclidean(self):
        bank = MemoryBank("pc", np.array([[0.0, 0.0], [3.0, 4.0]], dtype=np.float32))
        idx, dist, _ = query_one(bank, np.array([0.0, 0.0]), 0)
        assert idx[0] == 0 and dist[0] == 0.0
        idx, dist, _ = query_one(bank, np.array([3.0, 0.0]), 0)
        assert idx[0] == 0  # d=3 to origin beats d=4 to (3,4)
        assert dist[0] == pytest.approx(3.0)

    def test_truncation_flag(self):
        bank = MemoryBank("pc", np.eye(4, dtype=np.float32))
        idx, _, truncated = query_one(bank, np.zeros(4), 5)
        assert len(idx) == 4
        assert truncated

    def test_distances_nondecreasing_and_consistent(self):
        rng = np.random.default_rng(9)
        bank = MemoryBank("rgb", rng.standard_normal((30, 6)).astype(np.float32))
        f = rng.standard_normal(6)
        idx, dist, _ = query_one(bank, f, 3)
        assert np.all(np.diff(dist) >= 0)
        for i, d in zip(idx, dist):
            direct = np.linalg.norm(f - bank.prototypes[i])
            assert d == pytest.approx(direct, rel=1e-6)

    def test_tie_breaks_to_lower_index(self):
        bank = MemoryBank("pc", np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]],
                                         dtype=np.float32))
        idx, _, _ = query_one(bank, np.array([0.0, 0.0]), 1)
        assert idx.tolist() == [0, 1, 2]

    def test_dimension_mismatch(self):
        bank = MemoryBank("pc", np.ones((3, 4), dtype=np.float32))
        with pytest.raises(ShapeError):
            query_neighbors_batch(bank, np.zeros((1, 3)), 1)

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
        idx_a, dist_a, _ = query_one(a, f, 3)
        idx_b, dist_b, _ = query_one(b, f, 3)
        np.testing.assert_allclose(dist_a, dist_b, rtol=1e-12)
        np.testing.assert_array_equal(protos[idx_a], b.prototypes[idx_b])


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

    @given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 30), d=st.integers(1, 6),
           k=st.integers(0, 5), ranks=st.integers(1, 11), ties=st.booleans(),
           offset=st.sampled_from([0.0, 1e3]))
    @settings(max_examples=60, deadline=None)
    def test_fewer_ranks_are_a_prefix(self, seed, p, d, k, ranks, ties, offset):
        # Scoring asks for k+1 ranks and synthesis for 2k+1: the shorter
        # query must be the longer one's first ranks bit for bit, tie order
        # included, and the scalar oracle's.
        rng = np.random.default_rng(seed)
        if ties:
            grid = rng.integers(-2, 3, size=(p, d)).astype(np.float32)
            protos = np.repeat(grid, 3, axis=0)
            queries = rng.integers(-2, 3, size=(16, d)).astype(np.float64)
        else:
            protos = rng.standard_normal((p, d)).astype(np.float32)
            queries = rng.standard_normal((16, d))
        bank = MemoryBank("pc", protos + np.float32(offset))
        queries += offset
        short = query_neighbors_batch(bank, queries, k, chunk=5, ranks=k + 1)
        full = query_neighbors_batch(bank, queries, k, chunk=5)
        n = min(k + 1, bank.size)
        assert short[0].tobytes() == full[0][:, :n].tobytes()
        assert short[1].tobytes() == full[1][:, :n].tobytes()
        assert short[2] == (bank.size < k + 1)
        idx, dist, truncated = query_neighbors_batch(bank, queries, k, ranks=ranks)
        n = min(ranks, bank.size)
        assert idx.shape == dist.shape == (16, n) and truncated == (bank.size < ranks)
        for i, q in enumerate(queries):
            single = query_neighbors(bank, q, ranks)  # 2 ranks + 1 >= ranks
            np.testing.assert_array_equal(idx[i], single.indices[:n])
            np.testing.assert_array_equal(dist[i], single.distances[:n])

    def test_tied_ranks_prefix(self):
        # Nine prototypes at distance 1: every count takes the lowest indices.
        unit = np.vstack([np.eye(3), -np.eye(3), np.eye(3)]).astype(np.float32)
        bank = MemoryBank("pc", unit)
        full_idx, _, _ = query_neighbors_batch(bank, np.zeros((2, 3)), 3)
        for want in range(1, 10):
            idx, dist, _ = query_neighbors_batch(bank, np.zeros((2, 3)), 3, ranks=want)
            np.testing.assert_array_equal(idx, np.tile(np.arange(want), (2, 1)))
            np.testing.assert_array_equal(dist, np.ones((2, want)))
            if want <= 7:
                np.testing.assert_array_equal(idx, full_idx[:, :want])

    def test_zero_ranks_rejected(self):
        bank = MemoryBank("pc", np.eye(3, dtype=np.float32))
        with pytest.raises(ConfigError):
            query_neighbors_batch(bank, np.zeros((1, 3)), 2, ranks=0)

    @pytest.mark.parametrize("n,chunk", [(0, 4), (1, 1), (13, 1), (13, 4), (13, 13),
                                         (13, 1024)])
    def test_chunk_boundaries(self, n, chunk):
        rng = np.random.default_rng(n * 31 + chunk)
        bank = MemoryBank("pc", rng.standard_normal((11, 4)).astype(np.float32))
        queries = rng.standard_normal((n, 4)).astype(np.float32)
        for k in (0, 2):
            assert_batch_equals_oracle(bank, queries, k, chunk)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(10)
        bank = build_bank(rng.standard_normal((20, 4)).astype(np.float32), "rgb", 0.3)
        save_bank(bank, tmp_path / "bank.g2t")
        back = load_bank(tmp_path / "bank.g2t")
        assert back.prototypes.tobytes() == bank.prototypes.tobytes()
        assert back.modality == "rgb"
        assert [p.name for p in tmp_path.iterdir()] == ["bank.g2t"]
