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


# Maps smoothed together: 32,768 float64 cells, 256 KB per array, stay in
# cache through the 3 * radius + 1 array passes of each axis.
_SMOOTH_BLOCK_CELLS = 32768


def gaussian_smooth(grid: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of the last two axes, so the maps of a stack stay apart;
    kernel truncated at radius 2*sigma, reflective border.

    Plain numpy, bit for bit ``scipy.ndimage.gaussian_filter(grid, sigma,
    mode="reflect", truncate=2.0, axes=(-2, -1))``: the same kernel, axis -2
    before axis -1, and each output summed in scipy's order. Not importing
    scipy keeps about 22 MB of RSS and 0.3 s off every process that scores
    or evaluates.
    """
    if sigma < 0:
        raise ConfigError("sigma must be nonnegative")
    out = np.array(grid, dtype=np.float64, order="C")
    if sigma == 0 or out.size == 0:
        return out
    radius = int(2.0 * float(sigma) + 0.5)
    taps = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * taps ** 2)
    half_kernel = (kernel / kernel.sum())[radius:]  # symmetric: w[0..radius]
    maps = out.reshape(-1, *out.shape[-2:])
    step = max(1, _SMOOTH_BLOCK_CELLS // maps[0].size)
    scratch = np.empty((min(step, len(maps)),) + maps.shape[1:])
    for start in range(0, len(maps), step):
        block = maps[start:start + step]
        for axis in (1, 2):
            _smooth_axis(block, half_kernel, axis, scratch[:len(block)])
    return out


def _smooth_axis(x: np.ndarray, half_kernel: np.ndarray, axis: int, tap: np.ndarray):
    """Smooth ``x`` in place along ``axis`` with the kernel w[-j] = w[j], as
    scipy's ``correlate1d`` sums a symmetric kernel: each output starts at
    ``x[i] * w[0]`` and adds ``(x[i-j] + x[i+j]) * w[j]`` from j = radius
    down to 1. ``tap`` is scratch of x's shape."""
    radius, n = half_kernel.size - 1, x.shape[axis]
    pad = [(0, 0)] * x.ndim
    pad[axis] = (radius, radius)
    # Mirrored d c b a | a b c d, and again on axes shorter than the radius.
    padded = np.pad(x, pad, mode="symmetric")
    lead = (slice(None),) * axis
    x *= half_kernel[0]
    for j in range(radius, 0, -1):
        np.add(padded[lead + (slice(radius - j, radius - j + n),)],
               padded[lead + (slice(radius + j, radius + j + n),)], out=tap)
        tap *= half_kernel[j]
        x += tap


def upsample_smooth(score_map: ScoreMap, factor: int, sigma: float) -> ScoreMap:
    """Bilinear upsample then blur; identity when factor=1 and sigma=0."""
    up = gaussian_smooth(bilinear_upsample(score_map.grid, factor), sigma)
    return ScoreMap(score_map.grid, score_map.sample_score, upsampled=up)
