"""Score aggregation, background bypass, and upsampling tests."""

import numpy as np
import pytest

from g2sf.features import load_sample
from g2sf.scoring import (
    AGGREGATIONS,
    G2SF_SCORE,
    ScoreMap,
    bilinear_upsample,
    gaussian_smooth,
    sample_maps,
    score_sample,
    upsample_smooth,
)
from tests.conftest import DESK_K
from tests.oracles import encode, fused_metric, score_cell


@pytest.fixture(scope="module")
def scored_sample(desk_dataset, desk_banks, desk_checkpoint):
    _, _, test_manifest = desk_dataset
    banks, normalizer = desk_banks
    ckpt, _ = desk_checkpoint
    pair = load_sample(test_manifest, test_manifest.samples[0])
    return ckpt, banks, normalizer, pair


class TestScoreCell:
    def test_min_of_metrics(self, scored_sample):
        ckpt, banks, normalizer, pair = scored_sample
        f_pc = pair.pc.data[4, 4]
        f_rgb = pair.rgb.data[4, 4]
        encs_pc = encode(f_pc, banks["pc"], DESK_K, normalizer)
        encs_rgb = encode(f_rgb, banks["rgb"], DESK_K, normalizer)
        got = score_cell(ckpt.model, encs_pc, encs_rgb, DESK_K, banks)
        values = [fused_metric(ckpt.model, encs_pc[j], encs_rgb[j], banks).l
                  for j in range(DESK_K + 1)]
        assert got == pytest.approx(min(values), rel=1e-9)
        assert got <= values[0] + 1e-12  # never above the rank-0 metric

    def test_k_zero_is_rank0_metric(self, scored_sample):
        ckpt, banks, normalizer, pair = scored_sample
        encs_pc = encode(pair.pc.data[3, 5], banks["pc"], 0, normalizer)
        encs_rgb = encode(pair.rgb.data[3, 5], banks["rgb"], 0, normalizer)
        got = score_cell(ckpt.model, encs_pc, encs_rgb, 0, banks)
        want = fused_metric(ckpt.model, encs_pc[0], encs_rgb[0], banks).l
        assert got == pytest.approx(want, rel=1e-9)

    def test_missing_rank_errors(self, scored_sample):
        ckpt, banks, normalizer, pair = scored_sample
        encs_pc = encode(pair.pc.data[2, 2], banks["pc"], 0, normalizer)
        encs_rgb = encode(pair.rgb.data[2, 2], banks["rgb"], 0, normalizer)
        with pytest.raises(Exception):
            score_cell(ckpt.model, encs_pc, encs_rgb, DESK_K, banks)


class TestScoreSample:
    def test_min_dominated_by_first(self, scored_sample):
        ckpt, banks, normalizer, pair = scored_sample
        maps = sample_maps(ckpt.model, pair, banks, normalizer, DESK_K)
        assert np.all(maps["min"].grid <= maps["first"].grid + 1e-12)
        assert np.all(maps["first"].grid <= maps["max"].grid + 1e-12)
        assert np.all(maps["min"].grid <= maps["mean"].grid + 1e-12)
        assert np.all(maps["mean"].grid <= maps["max"].grid + 1e-12)

    def test_recomputation_oracle(self, scored_sample):
        # Second pass through the single-cell path must reproduce the batch
        # path exactly (same parameters, independent assembly).
        ckpt, banks, normalizer, pair = scored_sample
        smap = score_sample(ckpt.model, pair, banks, normalizer, DESK_K)
        for r in range(0, pair.grid[0], 3):
            for c in range(0, pair.grid[1], 3):
                if not pair.foreground[r, c]:
                    continue
                encs_pc = encode(pair.pc.data[r, c], banks["pc"], DESK_K, normalizer)
                encs_rgb = encode(pair.rgb.data[r, c], banks["rgb"], DESK_K, normalizer)
                cell = score_cell(ckpt.model, encs_pc, encs_rgb, DESK_K, banks)
                assert smap.grid[r, c] == pytest.approx(cell, rel=1e-5)

    def test_score_sample_is_one_key_of_sample_maps(self, scored_sample):
        # The G2SF score is the min over ranks 0..k.
        ckpt, banks, normalizer, pair = scored_sample
        maps = sample_maps(ckpt.model, pair, banks, normalizer, DESK_K)
        smap = score_sample(ckpt.model, pair, banks, normalizer, DESK_K)
        assert G2SF_SCORE == "min" == AGGREGATIONS[0]
        assert smap.grid.tobytes() == maps["min"].grid.tobytes()
        assert smap.sample_score == maps["min"].sample_score

    def test_sample_score_is_foreground_max(self, scored_sample):
        ckpt, banks, normalizer, pair = scored_sample
        smap = score_sample(ckpt.model, pair, banks, normalizer, DESK_K)
        assert smap.sample_score == pytest.approx(smap.grid[pair.foreground].max())

    def test_background_scores_are_sigma_weighted_sums(self, scored_sample):
        ckpt, banks, normalizer, pair = scored_sample
        maps = sample_maps(ckpt.model, pair, banks, normalizer, DESK_K)
        bg = ~pair.foreground
        s_sum = (maps["s_pc"].grid * ckpt.model.sigma_pc
                 + maps["s_rgb"].grid * ckpt.model.sigma_rgb)
        np.testing.assert_allclose(maps["first"].grid[bg], s_sum[bg], rtol=1e-6)
        np.testing.assert_array_equal(maps["w_pc"].grid[bg], 1.0)
        np.testing.assert_array_equal(maps["w_rgb"].grid[bg], 1.0)

    def test_sample_score_ignores_background(self, scored_sample):
        ckpt, banks, normalizer, pair = scored_sample
        smap = score_sample(ckpt.model, pair, banks, normalizer, DESK_K)
        boosted = smap.grid.copy()
        boosted[~pair.foreground] = boosted.max() + 100.0
        assert smap.sample_score == pytest.approx(smap.grid[pair.foreground].max())
        assert smap.sample_score < boosted.max()

    def test_empty_foreground_warns_zero(self, scored_sample):
        from g2sf.features import SamplePair

        ckpt, banks, normalizer, pair = scored_sample
        empty = SamplePair("empty", pair.pc, pair.rgb,
                           foreground=np.zeros(pair.grid, dtype=bool))
        with pytest.warns(UserWarning):
            smap = score_sample(ckpt.model, empty, banks, normalizer, DESK_K)
        assert smap.sample_score == 0.0


@pytest.fixture(scope="module")
def loaded_checkpoint(tmp_path_factory, desk_checkpoint):
    from g2sf.trainer import load_checkpoint, save_checkpoint

    ckpt, _ = desk_checkpoint
    path = tmp_path_factory.mktemp("ckpt") / "final"
    save_checkpoint(ckpt, path)
    return load_checkpoint(path)


class TestLoadedCheckpoint:
    def test_parameters_are_read_only(self, loaded_checkpoint):
        from g2sf.lspn import parameters

        model = loaded_checkpoint.model
        for param in parameters(model):
            assert not param.flags.writeable
        with pytest.raises(ValueError):
            model.proto_branch[0].weight[0, 0] = 0.0
        with pytest.raises(ValueError):
            model.dir_branch[0].bias[...] = 0.0
        assert all(p.flags.writeable for p in parameters(model.copy()))

    def test_maps_bit_identical_to_writable_copy(self, loaded_checkpoint, desk_dataset,
                                                 desk_banks):
        _, _, test_manifest = desk_dataset
        banks, normalizer = desk_banks
        frozen, writable = loaded_checkpoint.model, loaded_checkpoint.model.copy()
        for ref in test_manifest.samples[:4]:
            pair = load_sample(test_manifest, ref)
            got = sample_maps(frozen, pair, banks, normalizer, DESK_K)
            want = sample_maps(writable, pair, banks, normalizer, DESK_K)
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].grid.tobytes() == want[name].grid.tobytes(), name
                assert got[name].sample_score == want[name].sample_score
            a = score_sample(frozen, pair, banks, normalizer, DESK_K)
            b = score_sample(writable, pair, banks, normalizer, DESK_K)
            assert a.grid.tobytes() == b.grid.tobytes()
            assert a.grid.tobytes() == got["min"].grid.tobytes()
        assert len(frozen._tables) == 4 and writable._tables == {}


class TestUpsampleSmooth:
    def test_identity(self):
        grid = np.arange(12.0).reshape(3, 4)
        out = upsample_smooth(ScoreMap(grid, float(grid.max())), 1, 0.0)
        np.testing.assert_array_equal(out.upsampled, grid)

    def test_constant_preserved(self):
        grid = np.full((5, 5), 3.25)
        out = upsample_smooth(ScoreMap(grid, 3.25), 3, 4.0)
        np.testing.assert_allclose(out.upsampled, 3.25, rtol=1e-6)

    def test_bilinear_hand_values(self):
        # Pixel-center convention on the 2x2 ramp [[0,1],[2,3]], factor 2:
        # source coords per output index are [0, .25, .75, 1].
        grid = np.array([[0.0, 1.0], [2.0, 3.0]])
        got = bilinear_upsample(grid, 2)
        ry = np.array([0.0, 0.25, 0.75, 1.0])
        want = 2.0 * ry[:, None] + ry[None, :]
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_blur_keeps_isolated_max_location(self):
        grid = np.zeros((9, 9))
        grid[2, 6] = 1.0
        out = gaussian_smooth(bilinear_upsample(grid, 2), 2.0)
        assert np.unravel_index(np.argmax(out), out.shape) == (4, 12)

    @pytest.mark.parametrize("factor", [1, 4])
    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    def test_stack_matches_per_map_bytes(self, factor, sigma):
        # Reports upsample and smooth a split's maps as one (n, H, W) stack;
        # the leading axis is never smoothed, so each map keeps its bytes.
        stack = np.random.default_rng(6).random((5, 7, 6))
        stack[2] = 0.0
        stack[2, 3, 3] = 1.0  # smoothing across maps would leak into 1 and 3
        got = gaussian_smooth(bilinear_upsample(stack, factor), sigma)
        assert got.shape == (5, 7 * factor, 6 * factor)
        for grid, pixel in zip(stack, got):
            alone = upsample_smooth(ScoreMap(grid, float(grid.max())), factor, sigma)
            assert pixel.tobytes() == alone.upsampled.tobytes()

    def test_invalid_factor(self):
        from g2sf.errors import ConfigError

        with pytest.raises(ConfigError):
            bilinear_upsample(np.zeros((2, 2)), 0)


def scipy_smooth(x, sigma):
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(x, sigma, mode="reflect", truncate=2.0, axes=(-2, -1))


class TestGaussianSmoothMatchesScipy:
    """``gaussian_smooth`` gives the bytes of scipy's reflect-mode filter."""

    @pytest.mark.parametrize("shape", [(64, 64), (7, 13), (24, 64, 64), (10, 69, 69),
                                       (2, 3, 5, 6)])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0, 3.3, 4.0])
    def test_maps_and_stacks(self, shape, sigma):
        # (10, 69, 69) smooths in two blocks of maps; (2, 3, 5, 6) has two
        # leading axes.
        rng = np.random.default_rng(int(10 * sigma) + len(shape))
        for scale in (1e-3, 1.0, 1e6):
            x = rng.standard_normal(shape) * scale
            assert gaussian_smooth(x, sigma).tobytes() == scipy_smooth(x, sigma).tobytes()

    @pytest.mark.parametrize("length", [1, 2, 3, 9])
    def test_axes_shorter_than_the_radius(self, length):
        # sigma 4 reaches 8 cells out: the mirror repeats on every short axis.
        rng = np.random.default_rng(length)
        for shape in ((length, 20), (20, length), (3, length, length)):
            x = rng.random(shape)
            assert gaussian_smooth(x, 4.0).tobytes() == scipy_smooth(x, 4.0).tobytes()

    def test_random_cases(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            shape = tuple(int(n) for n in rng.integers(2, 70, size=rng.integers(2, 4)))
            sigma = float(rng.choice([0.5, 1.0, 2.0, 3.3, 4.0]))
            x = rng.standard_normal(shape)
            assert gaussian_smooth(x, sigma).tobytes() == scipy_smooth(x, sigma).tobytes()

    def test_zero_sigma_copies(self):
        x = np.random.default_rng(0).random((3, 5, 4))
        got = gaussian_smooth(x, 0.0)
        assert got is not x and got.tobytes() == scipy_smooth(x, 0.0).tobytes() == x.tobytes()

    def test_input_untouched_and_float32_promoted(self):
        x = np.random.default_rng(1).random((2, 9, 8)).astype(np.float32)
        before = x.copy()
        got = gaussian_smooth(x, 2.0)
        assert np.array_equal(x, before)
        assert got.tobytes() == scipy_smooth(x.astype(np.float64), 2.0).tobytes()

    def test_transposed_input(self):
        x = np.random.default_rng(2).random((11, 7)).T
        assert gaussian_smooth(x, 3.3).tobytes() == scipy_smooth(x, 3.3).tobytes()
