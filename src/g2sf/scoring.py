"""Anomaly scoring from the fused metric.

The per-cell score aggregates the metric values of the k+1 nearest local
spaces with a min operator (alternatives: the rank-0 value, max, mean).
Background cells bypass the network with unit scaling factors, reducing to
the sigma-weighted sum of normalized Euclidean distances. The sample-level
score is the max over foreground cells of the pre-smoothing grid; smoothing
and bilinear upsampling only shape the pixel-level map.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import gaussian_filter

from . import lspn as lspn_mod
from .errors import ConfigError, ShapeError
from .features import SamplePair
from .geometry import encode_map, inverse_distances

AGGREGATIONS = ("min", "max", "mean", "first")

__all__ = ["ScoreMap", "AGGREGATIONS", "score_sample", "sample_maps",
           "bilinear_upsample", "gaussian_smooth", "upsample_smooth"]


@dataclass
class ScoreMap:
    grid: np.ndarray                 # (H, W) per-cell scores
    sample_score: float              # max over foreground cells, pre-smoothing
    upsampled: np.ndarray | None = None


def _aggregate(l: np.ndarray, agg: str) -> np.ndarray:
    """Reduce metric values over the trailing neighbor-rank axis."""
    if agg == "min":
        return l.min(axis=-1)
    if agg == "max":
        return l.max(axis=-1)
    if agg == "mean":
        return l.mean(axis=-1)
    if agg == "first":
        return l[..., 0]
    raise ConfigError(f"unknown aggregation {agg!r}; choose from {AGGREGATIONS}")


def _metric_grid(model, pair: SamplePair, banks, normalizer, k: int):
    """Fused metric values l (H, W, k+1) for every cell, plus the rank-0
    scale factors (H, W, 2) and normalized distances (H, W, k+1, 2)."""
    enc_pc = encode_map(pair.pc, banks["pc"], k, normalizer)
    enc_rgb = encode_map(pair.rgb, banks["rgb"], k, normalizer)
    n_use = k + 1
    if enc_pc.n_neighbors < n_use or enc_rgb.n_neighbors < n_use:
        raise ShapeError(f"banks hold too few prototypes for ranks 0..{k}")
    h, w = pair.grid
    fg = pair.foreground.reshape(-1)
    s = np.stack(
        [enc_pc.distances[..., :n_use], enc_rgb.distances[..., :n_use]], axis=-1
    ).reshape(h * w, n_use, 2).astype(np.float64)
    sigma = model.sigma.astype(np.float64)

    w_factors = np.ones((h * w, n_use, 2))
    rows = np.flatnonzero(fg)
    if rows.size:
        encs = (enc_pc, enc_rgb)
        ids = np.stack([e.indices.reshape(h * w, -1)[rows, :n_use] for e in encs], axis=2)
        raw = np.stack([e.raw_distances.reshape(h * w, -1)[rows, :n_use] for e in encs],
                       axis=2)
        protos, dirs = lspn_mod.rank_rows(ids, inverse_distances(raw))
        sources = lspn_mod.Sources(
            (banks["pc"].prototypes, banks["rgb"].prototypes),
            tuple(f.data.reshape(h * w, -1)[rows] for f in (pair.pc, pair.rgb)))
        w_rows, _ = lspn_mod.forward_batch(model, protos, dirs, sources)
        w_factors[rows] = w_rows.reshape(rows.size, n_use, 2)

    l = lspn_mod.metric_values(w_factors, s, sigma)
    return (
        l.reshape(h, w, n_use),
        w_factors.reshape(h, w, n_use, 2)[:, :, 0, :],
        s.reshape(h, w, n_use, 2),
    )


def _sample_score(grid: np.ndarray, foreground: np.ndarray) -> float:
    if not foreground.any():
        warnings.warn("sample has no foreground cells; sample score is 0", stacklevel=2)
        return 0.0
    return float(grid[foreground].max())


def score_sample(model, pair: SamplePair, banks, normalizer, k: int, agg="min") -> ScoreMap:
    l, _, _ = _metric_grid(model, pair, banks, normalizer, k)
    grid = _aggregate(l, agg)
    return ScoreMap(grid, _sample_score(grid, pair.foreground))


def sample_maps(model, pair: SamplePair, banks, normalizer, k: int) -> dict:
    """All score variants of one sample in a single network pass.

    Keys: the four aggregations of the fused metric, the unimodal normalized
    distances s_pc / s_rgb, and the rank-0 scale factors w_pc / w_rgb.
    """
    l, w0, s = _metric_grid(model, pair, banks, normalizer, k)
    maps = {agg: _aggregate(l, agg) for agg in AGGREGATIONS}
    maps["s_pc"] = s[:, :, 0, 0]
    maps["s_rgb"] = s[:, :, 0, 1]
    maps["w_pc"] = w0[:, :, 0]
    maps["w_rgb"] = w0[:, :, 1]
    return {name: ScoreMap(grid, _sample_score(grid, pair.foreground))
            for name, grid in maps.items()}


# ---------------------------------------------------------------------------
# Upsampling and smoothing
# ---------------------------------------------------------------------------


def bilinear_upsample(grid: np.ndarray, factor: int) -> np.ndarray:
    """Integer-factor bilinear upsampling with the pixel-center convention:
    output pixel (i, j) samples source position ((i+0.5)/f - 0.5, ...)."""
    if factor < 1 or int(factor) != factor:
        raise ConfigError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return grid.astype(np.float64).copy()
    grid = np.asarray(grid, dtype=np.float64)
    out_shape = (grid.shape[0] * factor, grid.shape[1] * factor)

    def axis_coords(n_out, n_in):
        pos = (np.arange(n_out) + 0.5) / factor - 0.5
        pos = np.clip(pos, 0.0, n_in - 1.0)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = pos - lo
        return lo, hi, frac

    r_lo, r_hi, r_f = axis_coords(out_shape[0], grid.shape[0])
    c_lo, c_hi, c_f = axis_coords(out_shape[1], grid.shape[1])
    top = grid[np.ix_(r_lo, c_lo)] * (1 - c_f) + grid[np.ix_(r_lo, c_hi)] * c_f
    bottom = grid[np.ix_(r_hi, c_lo)] * (1 - c_f) + grid[np.ix_(r_hi, c_hi)] * c_f
    return top * (1 - r_f)[:, None] + bottom * r_f[:, None]


def gaussian_smooth(grid: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur, kernel truncated at radius 2*sigma, reflective border."""
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative")
    if sigma == 0:
        return np.asarray(grid, dtype=np.float64).copy()
    return gaussian_filter(np.asarray(grid, dtype=np.float64), sigma=sigma,
                           mode="reflect", truncate=2.0)


def upsample_smooth(score_map: ScoreMap, factor: int, sigma: float = 4.0) -> ScoreMap:
    """Bilinear upsample then blur; identity when factor=1 and sigma=0."""
    up = gaussian_smooth(bilinear_upsample(score_map.grid, factor), sigma)
    return ScoreMap(score_map.grid, score_map.sample_score, upsampled=up)


def export_csv(grid: np.ndarray, path):
    """Plain-text inspection dump, one row of scores per grid row."""
    np.savetxt(path, np.asarray(grid, dtype=np.float64), delimiter=",", fmt="%.9g")


def export_pgm(grid: np.ndarray, path):
    """8-bit PGM (P2) rendering with scores min-max scaled to 0..255."""
    grid = np.asarray(grid, dtype=np.float64)
    span = grid.max() - grid.min()
    scaled = np.zeros_like(grid) if span == 0 else (grid - grid.min()) / span
    pixels = np.round(255.0 * scaled).astype(int)
    with open(path, "w") as fh:
        fh.write(f"P2\n{grid.shape[1]} {grid.shape[0]}\n255\n")
        for row in pixels:
            fh.write(" ".join(str(v) for v in row) + "\n")
