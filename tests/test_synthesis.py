"""Perlin mask, injection, and training-pool tests."""

import numpy as np
import pytest

from g2sf import synthesis
from g2sf.bank import query_neighbors_batch
from g2sf.errors import ConfigError, EmptyBankError, ShapeError
from g2sf.features import SamplePair, iter_samples, load_sample
from g2sf.synthesis import (
    MAX_COVERAGE,
    MIN_COVERAGE,
    SynthesisConfig,
    augment_dataset,
    build_training_pool,
    gen_perlin_mask,
    inject_anomaly,
    pool_from_samples,
)
from tests.conftest import DESK_K
from tests.oracles import pool_by_map_encoding


class TestPerlinMask:
    def test_deterministic(self):
        a = gen_perlin_mask(16, 16, np.random.default_rng(5))
        b = gen_perlin_mask(16, 16, np.random.default_rng(5))
        assert a.shape == (16, 16) and a.dtype == bool
        np.testing.assert_array_equal(a, b)

    def test_impossible_threshold_clamps(self, monkeypatch):
        monkeypatch.setattr(synthesis, "PERLIN_THRESHOLD", np.inf)
        monkeypatch.setattr(synthesis, "MAX_RESAMPLE", 3)
        mask = gen_perlin_mask(16, 16, np.random.default_rng(0))
        assert MIN_COVERAGE <= mask.mean() <= MAX_COVERAGE

    def test_coverage_band_over_many_seeds(self):
        for seed in range(1000):
            mask = gen_perlin_mask(16, 16, np.random.default_rng(seed))
            assert MIN_COVERAGE <= mask.mean() <= MAX_COVERAGE

    def test_small_grid_rejected(self):
        with pytest.raises(Exception):
            gen_perlin_mask(1, 5, np.random.default_rng(0))


class TestInjectAnomaly:
    @pytest.fixture()
    def two_pairs(self, desk_dataset):
        _, train_manifest, _ = desk_dataset
        target = load_sample(train_manifest, train_manifest.samples[0])
        donor = load_sample(train_manifest, train_manifest.samples[1])
        return target, donor

    def test_empty_mask_identity(self, two_pairs):
        target, donor = two_pairs
        mask = np.zeros(target.grid, dtype=bool)
        out, labels = inject_anomaly(target, donor, mask, "joint", 1.0,
                                     np.random.default_rng(0))
        assert not labels.any()
        assert out.pc.data.tobytes() == target.pc.data.tobytes()
        assert out.rgb.data.tobytes() == target.rgb.data.tobytes()

    def test_unmasked_cells_untouched(self, two_pairs):
        target, donor = two_pairs
        rng = np.random.default_rng(1)
        mask = np.zeros(target.grid, dtype=bool)
        mask[3:6, 3:7] = True
        out, labels = inject_anomaly(target, donor, mask, "joint", 1.0, rng)
        np.testing.assert_array_equal(labels, mask)
        assert np.array_equal(out.pc.data[~mask], target.pc.data[~mask])
        assert not np.array_equal(out.pc.data[mask], target.pc.data[mask])

    def test_mode_limits_modality(self, two_pairs):
        target, donor = two_pairs
        mask = np.zeros(target.grid, dtype=bool)
        mask[2:5, 2:5] = True
        out, _ = inject_anomaly(target, donor, mask, "rgb_only", 1.0,
                                np.random.default_rng(2))
        assert out.pc.data.tobytes() == target.pc.data.tobytes()
        assert not np.array_equal(out.rgb.data[mask], target.rgb.data[mask])
        # Each mode has one name, as in features.ANOMALY_MODES.
        with pytest.raises(ConfigError, match="both"):
            inject_anomaly(target, donor, mask, "both", 1.0, np.random.default_rng(2))

    def test_strength_zero_same_donor_labels_follow_mask(self, two_pairs):
        target, _ = two_pairs
        mask = np.zeros(target.grid, dtype=bool)
        mask[4:7, 4:7] = True
        out, labels = inject_anomaly(target, target, mask, "pc_only", 0.0,
                                     np.random.default_rng(3))
        np.testing.assert_allclose(out.pc.data, target.pc.data, atol=1e-6)
        np.testing.assert_array_equal(labels, mask)

    def test_misaligned_mask_rejected(self, two_pairs):
        target, donor = two_pairs
        with pytest.raises(ShapeError):
            inject_anomaly(target, donor, np.zeros((3, 3), dtype=bool), "joint", 1.0,
                           np.random.default_rng(0))

    def test_injection_raises_bank_distance(self, desk_dataset, desk_banks):
        # Memory-bank oracle: corrupted cells must move away from the bank.
        _, train_manifest, _ = desk_dataset
        banks, _ = desk_banks
        rng = np.random.default_rng(4)
        increased = 0
        total = 0
        for t_idx, d_idx in [(0, 1), (2, 3), (4, 5)]:
            target = load_sample(train_manifest, train_manifest.samples[t_idx])
            donor = load_sample(train_manifest, train_manifest.samples[d_idx])
            mask = np.zeros(target.grid, dtype=bool)
            mask[3:8, 3:8] = True
            out, _ = inject_anomaly(target, donor, mask, "joint", 1.0, rng)
            for modality in ("pc", "rgb"):
                before = getattr(target, modality).data[mask]
                after = getattr(out, modality).data[mask]
                _, d_before, _ = query_neighbors_batch(banks[modality], before, 0)
                _, d_after, _ = query_neighbors_batch(banks[modality], after, 0)
                increased += int((d_after[:, 0] > d_before[:, 0]).sum())
                total += before.shape[0]
        assert increased / total >= 0.95


class TestTrainingPool:
    def test_zero_augmentation_all_normal(self, desk_dataset, desk_banks):
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        cfg = SynthesisConfig(n_aug=0, k=2)
        pool = build_training_pool(train_manifest, banks, normalizer, cfg, 0)
        assert pool.size > 0
        assert not pool.y.any()

    def test_regeneration_identical(self, desk_dataset, desk_banks):
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        cfg = SynthesisConfig(n_aug=4, k=2)
        a = build_training_pool(train_manifest, banks, normalizer, cfg, 9)
        b = build_training_pool(train_manifest, banks, normalizer, cfg, 9)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.idx_pc, b.idx_pc)
        np.testing.assert_array_equal(a.feat_rgb, b.feat_rgb)
        np.testing.assert_array_equal(a.r_rgb, b.r_rgb)
        np.testing.assert_array_equal(a.s_pc, b.s_pc)

    def test_label_balance_matches_mask_coverage(self, desk_dataset, desk_banks):
        # Counting oracle: pooled label fraction equals foreground-restricted
        # mask coverage, recomputed from the augmented samples directly.
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        cfg = SynthesisConfig(n_aug=10, k=2)
        samples = augment_dataset(train_manifest, cfg, 17)
        pool = pool_from_samples(samples, banks, normalizer, cfg.k)
        masked = sum(int((labels & pair.foreground).sum()) for pair, labels in samples)
        fg = sum(int(pair.foreground.sum()) for pair, _ in samples)
        assert pool.y.mean() == pytest.approx(masked / fg, abs=0.02)
        assert pool.size == fg

    def test_equals_whole_map_encoding(self, desk_dataset, desk_banks):
        # The pool queries foreground cells only; each of its arrays must be
        # bit-equal to encoding whole maps and keeping the foreground rows.
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        samples = augment_dataset(train_manifest, SynthesisConfig(n_aug=6, k=DESK_K), 11)
        assert not all(pair.foreground.all() for pair, _ in samples)
        pool = pool_from_samples(samples, banks, normalizer, DESK_K)
        want = pool_by_map_encoding(samples, banks, normalizer, DESK_K)
        for key, value in want.items():
            got = getattr(pool, key)
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), key

    def test_generator_equals_list(self, desk_dataset, desk_banks):
        # Streamed once from a generator, sized by the foreground counts, the
        # pool is the one built from the same samples as a list.
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        samples = augment_dataset(train_manifest, SynthesisConfig(n_aug=5, k=DESK_K), 13)
        cells = [int(pair.foreground.sum()) for pair, _ in samples]
        want = pool_from_samples(samples, banks, normalizer, DESK_K)
        got = pool_from_samples((item for item in samples), banks, normalizer, DESK_K,
                                cells=cells)
        assert got.k == want.k
        arrays = {key for key, value in vars(want).items() if isinstance(value, np.ndarray)}
        assert {"train_indices", "val_indices", "y"} <= arrays
        for key in arrays:
            a, b = getattr(got, key), getattr(want, key)
            assert a.dtype == b.dtype and a.shape == b.shape, key
            assert a.tobytes() == b.tobytes(), key

    def test_generator_needs_cell_counts(self, desk_dataset, desk_banks):
        # A one-pass iterator cannot be counted and then pooled; the counts
        # it was sized for must match what it yields.
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        samples = augment_dataset(train_manifest, SynthesisConfig(n_aug=3, k=DESK_K), 13)
        with pytest.raises(ShapeError):
            pool_from_samples(iter(samples), banks, normalizer, DESK_K)
        cells = [int(pair.foreground.sum()) for pair, _ in samples]
        with pytest.raises(ShapeError, match="aug_0001"):
            pool_from_samples(iter(samples), banks, normalizer, DESK_K,
                              cells=[cells[0], cells[1] + 1, cells[2]])

    def test_sample_without_foreground_named(self, desk_dataset, desk_banks):
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        samples = augment_dataset(train_manifest, SynthesisConfig(n_aug=2, k=DESK_K), 13)
        pair, labels = samples[1]
        empty = SamplePair("blank_0001", pair.pc, pair.rgb,
                           foreground=np.zeros(pair.grid, dtype=bool))
        items = [samples[0], (empty, labels)]
        cells = [int(samples[0][0].foreground.sum()), 0]
        for source, counts in ((items, None), (iter(items), cells)):
            with pytest.raises(EmptyBankError, match="blank_0001"):
                pool_from_samples(source, banks, normalizer, DESK_K, cells=counts)

    def test_split_halves_cover_both_labels(self, desk_pool):
        for part in (desk_pool.train_indices, desk_pool.val_indices):
            y = desk_pool.y[part]
            assert y.min() == 0 and y.max() == 1

    def test_no_per_rank_feature_axis(self, desk_pool):
        # Features are stored once per cell: no array is (cell, rank, dim).
        arrays = [v for v in vars(desk_pool).values() if isinstance(v, np.ndarray)]
        assert all(v.ndim <= 2 for v in arrays)
        assert desk_pool.feat_pc.shape == desk_pool.feat_rgb.shape == (desk_pool.size, 6)
        ranks = (desk_pool.size, desk_pool.n_neighbors)
        assert desk_pool.r_pc.shape == desk_pool.r_rgb.shape == desk_pool.idx_pc.shape == ranks

    def test_neighbor_ranks_sorted(self, desk_pool):
        assert np.all(np.diff(desk_pool.s_pc, axis=1) >= 0)
        assert np.all(np.diff(desk_pool.s_rgb, axis=1) >= 0)

    def test_labels_independent_of_features(self, desk_dataset):
        # One mask, two strengths: the features differ, the labels do not.
        _, train_manifest, _ = desk_dataset
        target, donor = (load_sample(train_manifest, ref) for ref in train_manifest.samples[:2])
        mask = gen_perlin_mask(*target.grid, np.random.default_rng(5))
        (a, la), (b, lb) = (inject_anomaly(target, donor, mask, "joint", strength,
                                           np.random.default_rng(5)) for strength in (0.5, 2.0))
        assert not np.array_equal(a.rgb.data[mask], b.rgb.data[mask])
        np.testing.assert_array_equal(la, mask)
        np.testing.assert_array_equal(lb, mask)
