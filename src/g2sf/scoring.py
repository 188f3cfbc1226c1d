"""Anomaly scoring from the fused metric.

The per-cell G2SF score is the minimum of the metric values of the k+1
nearest local spaces, the ``G2SF_SCORE`` map; the rank-0 value, max and mean
are the other aggregations, kept for the ablation tables. k is
the one the model was pooled and trained with: the evaluation entry points
read it from the checkpoint (``loss_cfg.k``).
Scoring queries the banks for exactly those k+1 ranks; synthesis and
training encode 2k+1, and the first k+1 of those are the same neighbors in
the same order. Scoring a model loaded from a checkpoint reuses its
first-layer prototype tables across samples (see :mod:`g2sf.lspn`).
:func:`sample_maps` computes every score map of a sample in one network
pass; :func:`score_sample` is its view of the G2SF score.
Background cells bypass the network with unit scaling factors, reducing to
the sigma-weighted sum of normalized Euclidean distances. The sample-level
score is the max over foreground cells of the pre-smoothing grid; smoothing
and bilinear upsampling only shape the pixel-level map; both take one map or
a stack of them, and a report passes a split's maps as one stack.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import lspn as lspn_mod
from .errors import ConfigError, ShapeError
from .features import SamplePair
from .geometry import encode_map, inverse_distances

__all__ = ["ScoreMap", "AGGREGATIONS", "G2SF_SCORE", "score_sample", "sample_maps",
           "bilinear_upsample", "gaussian_smooth", "upsample_smooth"]


@dataclass
class ScoreMap:
    grid: np.ndarray                 # (H, W) per-cell scores
    sample_score: float              # max over foreground cells, pre-smoothing
    upsampled: np.ndarray | None = None


# Each aggregation reduces metric values over the trailing neighbor-rank axis.
_REDUCE = {"min": lambda l: l.min(axis=-1), "max": lambda l: l.max(axis=-1),
           "mean": lambda l: l.mean(axis=-1), "first": lambda l: l[..., 0]}
AGGREGATIONS = tuple(_REDUCE)
G2SF_SCORE = "min"  # the map key of the paper's score


def _sample_score(grid: np.ndarray, foreground: np.ndarray) -> float:
    if not foreground.any():
        warnings.warn("sample has no foreground cells; sample score is 0", stacklevel=2)
        return 0.0
    return float(grid[foreground].max())


def sample_maps(model, pair: SamplePair, banks, normalizer, k: int) -> dict:
    """Every score map of one sample from a single network pass.

    Keys, in order: the four aggregations of the fused metric over ranks
    0..k, the unimodal normalized rank-0 distances s_pc / s_rgb, and the
    rank-0 scale factors w_pc / w_rgb.
    """
    n_use = k + 1
    enc_pc = encode_map(pair.pc, banks["pc"], k, normalizer, ranks=n_use)
    enc_rgb = encode_map(pair.rgb, banks["rgb"], k, normalizer, ranks=n_use)
    if enc_pc.truncated or enc_rgb.truncated:
        raise ShapeError(f"banks hold too few prototypes for ranks 0..{k}")
    h, w = pair.grid
    fg = pair.foreground.reshape(-1)
    s = np.stack([enc_pc.distances, enc_rgb.distances], axis=-1
                 ).reshape(h * w, n_use, 2).astype(np.float64)
    sigma = model.sigma.astype(np.float64)

    w_factors = np.ones((h * w, n_use, 2))
    rows = np.flatnonzero(fg)
    if rows.size:
        encs = (enc_pc, enc_rgb)
        ids = np.stack([e.indices.reshape(h * w, n_use)[rows] for e in encs], axis=2)
        raw = np.stack([e.raw_distances.reshape(h * w, n_use)[rows] for e in encs], axis=2)
        protos, dirs = lspn_mod.rank_rows(ids, inverse_distances(raw))
        sources = lspn_mod.Sources(
            (banks["pc"].prototypes, banks["rgb"].prototypes),
            tuple(f.data.reshape(h * w, -1)[rows] for f in (pair.pc, pair.rgb)))
        w_rows, _ = lspn_mod.forward_batch(model, protos, dirs, sources)
        w_factors[rows] = w_rows.reshape(rows.size, n_use, 2)

    l = lspn_mod.metric_values(w_factors, s, sigma).reshape(h, w, n_use)
    w0 = w_factors.reshape(h, w, n_use, 2)[:, :, 0, :]
    s0 = s.reshape(h, w, n_use, 2)[:, :, 0, :]
    maps = {agg: reduce(l) for agg, reduce in _REDUCE.items()}
    maps.update(s_pc=s0[:, :, 0], s_rgb=s0[:, :, 1], w_pc=w0[:, :, 0], w_rgb=w0[:, :, 1])
    return {name: ScoreMap(grid, _sample_score(grid, pair.foreground))
            for name, grid in maps.items()}


def score_sample(model, pair: SamplePair, banks, normalizer, k: int) -> ScoreMap:
    """The G2SF score map of :func:`sample_maps`."""
    return sample_maps(model, pair, banks, normalizer, k)[G2SF_SCORE]


# ---------------------------------------------------------------------------
# Upsampling and smoothing
# ---------------------------------------------------------------------------


def bilinear_upsample(grid: np.ndarray, factor: int) -> np.ndarray:
    """Integer-factor bilinear upsampling of the last two axes, (H, W) or
    (..., H, W), with the pixel-center convention: output pixel (i, j) samples
    source position ((i+0.5)/f - 0.5, ...)."""
    if factor < 1 or int(factor) != factor:
        raise ConfigError(f"upsample factor must be a positive integer, got {factor}")
    factor = int(factor)
    if factor == 1:
        return grid.astype(np.float64).copy()
    grid = np.asarray(grid, dtype=np.float64)
    h, w = grid.shape[-2:]

    def axis_coords(n_in):
        pos = (np.arange(n_in * factor) + 0.5) / factor - 0.5
        pos = np.clip(pos, 0.0, n_in - 1.0)
        lo = np.floor(pos).astype(int)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = pos - lo
        return lo, hi, frac

    r_lo, r_hi, r_f = axis_coords(h)
    c_lo, c_hi, c_f = axis_coords(w)
    rows_lo, rows_hi = grid[..., r_lo, :], grid[..., r_hi, :]
    top = rows_lo[..., c_lo] * (1 - c_f) + rows_lo[..., c_hi] * c_f
    bottom = rows_hi[..., c_lo] * (1 - c_f) + rows_hi[..., c_hi] * c_f
    return top * (1 - r_f)[:, None] + bottom * r_f[:, None]


def gaussian_smooth(grid: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of the last two axes, so the maps of a stack stay apart;
    kernel truncated at radius 2*sigma, reflective border."""
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative")
    if sigma == 0:
        return np.asarray(grid, dtype=np.float64).copy()
    # Imported here: scipy.ndimage costs each process that loads it about
    # 0.4 s and 22 MB of RSS, and the bank, synth and train stages never
    # smooth or label.
    from scipy.ndimage import gaussian_filter

    return gaussian_filter(np.asarray(grid, dtype=np.float64), sigma=sigma,
                           mode="reflect", truncate=2.0, axes=(-2, -1))


def upsample_smooth(score_map: ScoreMap, factor: int, sigma: float) -> ScoreMap:
    """Bilinear upsample then blur; identity when factor=1 and sigma=0."""
    up = gaussian_smooth(bilinear_upsample(score_map.grid, factor), sigma)
    return ScoreMap(score_map.grid, score_map.sample_score, upsampled=up)
