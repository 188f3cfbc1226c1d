"""Score aggregation, background bypass, and upsampling tests."""

import numpy as np
import pytest

from g2sf.features import load_sample
from g2sf.geometry import encode
from g2sf.scoring import (
    ScoreMap,
    bilinear_upsample,
    gaussian_smooth,
    sample_maps,
    score_sample,
    upsample_smooth,
)
from tests.conftest import DESK_K
from tests.oracles import fused_metric, score_cell


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
        smap = score_sample(ckpt.model, pair, banks, normalizer, DESK_K, "min")
        for r in range(0, pair.grid[0], 3):
            for c in range(0, pair.grid[1], 3):
                if not pair.foreground[r, c]:
                    continue
                encs_pc = encode(pair.pc.data[r, c], banks["pc"], DESK_K, normalizer)
                encs_rgb = encode(pair.rgb.data[r, c], banks["rgb"], DESK_K, normalizer)
                cell = score_cell(ckpt.model, encs_pc, encs_rgb, DESK_K, banks)
                assert smap.grid[r, c] == pytest.approx(cell, rel=1e-5)

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
        from g2sf.features import FeatureMap, SamplePair

        ckpt, banks, normalizer, pair = scored_sample
        fg = np.zeros(pair.grid, dtype=bool)
        empty = SamplePair(
            "empty",
            FeatureMap("pc", pair.pc.data, fg),
            FeatureMap("rgb", pair.rgb.data, fg),
        )
        with pytest.warns(UserWarning):
            smap = score_sample(ckpt.model, empty, banks, normalizer, DESK_K)
        assert smap.sample_score == 0.0


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

    def test_invalid_factor(self):
        from g2sf.errors import ConfigError

        with pytest.raises(ConfigError):
            bilinear_upsample(np.zeros((2, 2)), 0)


class TestExports:
    def test_csv_roundtrip(self, tmp_path):
        from g2sf.scoring import export_csv

        grid = np.arange(6.0).reshape(2, 3) / 7.0
        path = tmp_path / "m.csv"
        export_csv(grid, path)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_allclose(back, grid, rtol=1e-8)

    def test_pgm_header_and_range(self, tmp_path):
        from g2sf.scoring import export_pgm

        grid = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = tmp_path / "m.pgm"
        export_pgm(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2" and lines[1] == "2 2" and lines[2] == "255"
        values = [int(v) for line in lines[3:] for v in line.split()]
        assert min(values) == 0 and max(values) == 255
