"""Perlin mask, injection, and training-pool tests."""

import numpy as np
import pytest

from g2sf.bank import query_neighbors_batch
from g2sf.errors import ShapeError
from g2sf.features import iter_samples, load_sample
from g2sf.synthesis import (
    PerlinParams,
    SynthesisConfig,
    augment_dataset,
    build_training_pool,
    gen_perlin_mask,
    inject_anomaly,
    pool_from_samples,
)


class TestPerlinMask:
    def test_deterministic(self):
        params = PerlinParams()
        a = gen_perlin_mask(16, 16, params, np.random.default_rng(5))
        b = gen_perlin_mask(16, 16, params, np.random.default_rng(5))
        np.testing.assert_array_equal(a.grid, b.grid)

    def test_impossible_threshold_clamps(self):
        params = PerlinParams(threshold=np.inf, max_resample=3)
        mask = gen_perlin_mask(16, 16, params, np.random.default_rng(0))
        assert params.min_coverage <= mask.coverage <= params.max_coverage

    def test_coverage_band_over_many_seeds(self):
        params = PerlinParams()
        for seed in range(1000):
            mask = gen_perlin_mask(16, 16, params, np.random.default_rng(seed))
            assert params.min_coverage <= mask.coverage <= params.max_coverage

    def test_small_grid_rejected(self):
        with pytest.raises(Exception):
            gen_perlin_mask(1, 5, PerlinParams(), np.random.default_rng(0))


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

    def test_labels_independent_of_features(self, desk_dataset, desk_banks):
        # Same masks, different strength: labels must not change.
        _, train_manifest, _ = desk_dataset
        cfg_a = SynthesisConfig(n_aug=3, k=2, strength=0.5)
        cfg_b = SynthesisConfig(n_aug=3, k=2, strength=2.0)
        for (_, la), (_, lb) in zip(augment_dataset(train_manifest, cfg_a, 5),
                                    augment_dataset(train_manifest, cfg_b, 5)):
            np.testing.assert_array_equal(la, lb)
