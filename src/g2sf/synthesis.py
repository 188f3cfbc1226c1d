"""Synthetic anomaly injection on feature grids and training-pool assembly.

Binarized gradient-noise (Perlin) masks pick the corrupted region; masked
cells receive donor features from another training sample plus a random
perturbation (affine jitter for the rgb modality, a constant offset vector
for the pc modality). Cell labels follow the mask only: a cell is anomalous
iff its center lies inside the binarized mask, regardless of feature values.

The training pool keeps each foreground cell's features once, with its
neighbor ids and raw and normalized distances per rank; it stores no
directions (see :class:`TrainingPool`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bank import query_neighbors_batch
from .errors import ConfigError, EmptyBankError, ShapeError
from .features import ANOMALY_MODES, FeatureMap, SamplePair, load_sample

__all__ = [
    "PerlinParams",
    "PerlinMask",
    "SynthesisConfig",
    "TrainingPool",
    "perlin_noise",
    "gen_perlin_mask",
    "inject_anomaly",
    "augment_dataset",
    "pool_from_samples",
    "build_training_pool",
]


@dataclass
class PerlinParams:
    octaves: int = 2
    frequency: int = 4
    threshold: float = 0.2
    min_coverage: float = 0.02
    max_coverage: float = 0.35
    max_resample: int = 16


@dataclass
class PerlinMask:
    grid: np.ndarray
    coverage: float


def _perlin_octave(h, w, frequency, rng):
    """One octave of classic 2-D gradient noise sampled at cell centers."""
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(frequency + 1, frequency + 1))
    grad_y, grad_x = np.sin(angles), np.cos(angles)
    ys = (np.arange(h) + 0.5) / h * frequency
    xs = (np.arange(w) + 0.5) / w * frequency
    yi = np.minimum(ys.astype(int), frequency - 1)
    xi = np.minimum(xs.astype(int), frequency - 1)
    fy = (ys - yi)[:, None]
    fx = (xs - xi)[None, :]

    def dot(dy, dx):
        gy = grad_y[np.ix_(yi + dy, xi + dx)]
        gx = grad_x[np.ix_(yi + dy, xi + dx)]
        return gy * (fy - dy) + gx * (fx - dx)

    def fade(t):
        return t * t * t * (t * (t * 6 - 15) + 10)

    u, v = fade(fx), fade(fy)
    top = dot(0, 0) + u * (dot(0, 1) - dot(0, 0))
    bottom = dot(1, 0) + u * (dot(1, 1) - dot(1, 0))
    return top + v * (bottom - top)


def perlin_noise(h, w, frequency, octaves, rng, persistence=0.5):
    total = np.zeros((h, w))
    amplitude, freq = 1.0, int(frequency)
    for _ in range(max(1, octaves)):
        total += amplitude * _perlin_octave(h, w, freq, rng)
        amplitude *= persistence
        freq *= 2
    return total


def gen_perlin_mask(h, w, params: PerlinParams, rng) -> PerlinMask:
    """Thresholded noise mask with coverage forced into the band
    [``params.min_coverage``, ``params.max_coverage``].

    Out-of-band masks are resampled up to ``max_resample`` times; if the band
    is still missed, the threshold is clamped to the quantile that lands the
    coverage on the nearest band edge, so the call always terminates.
    """
    if h < 2 or w < 2:
        raise ConfigError("mask grid must be at least 2x2")
    n = h * w
    k_min = max(1, int(np.ceil(params.min_coverage * n)))
    k_max = max(k_min, int(np.floor(params.max_coverage * n)))
    noise = None
    for _ in range(params.max_resample + 1):
        noise = perlin_noise(h, w, params.frequency, params.octaves, rng)
        mask = noise > params.threshold
        cov = float(mask.mean())
        if params.min_coverage <= cov <= params.max_coverage:
            return PerlinMask(mask, cov)
    # Clamp: keep the top-k cells of the last field, k snapped into the band.
    raw_count = int((noise > params.threshold).sum())
    count = int(np.clip(raw_count, k_min, k_max))
    order = np.argsort(noise, axis=None, kind="stable")[::-1]
    mask = np.zeros(n, dtype=bool)
    mask[order[:count]] = True
    mask = mask.reshape(h, w)
    return PerlinMask(mask, float(mask.mean()))


def inject_anomaly(target: SamplePair, donor: SamplePair, mask: np.ndarray,
                   mode: str, strength: float, rng):
    """Paste perturbed donor features into masked cells of ``target``.

    ``mode`` selects the corrupted modality(ies): pc_only, rgb_only or
    joint. Returns (augmented SamplePair, label grid) where labels are 1
    exactly on masked cells. Unmasked cells are bit-identical to the input.
    """
    if mode not in ANOMALY_MODES:
        raise ConfigError(f"unknown injection mode {mode!r}")
    mask = np.asarray(mask, dtype=bool)
    if target.grid != donor.grid or mask.shape != target.grid:
        raise ShapeError(
            f"misaligned grids: target {target.grid}, donor {donor.grid}, mask {mask.shape}"
        )
    maps = {"pc": target.pc, "rgb": target.rgb}
    affected = {"pc_only": ("pc",), "rgb_only": ("rgb",), "joint": ("pc", "rgb")}[mode]
    for modality in affected:
        src = getattr(donor, modality).data
        dst = maps[modality].data.copy()
        spread = float(src.std())
        patch = src[mask].astype(np.float64)
        if modality == "rgb":
            # Affine jitter: one random gain for the region plus per-entry noise.
            scale = 1.0 + rng.uniform(-strength, strength)
            patch = patch * scale + rng.normal(0.0, 2.0 * strength * spread, patch.shape)
        else:
            # One constant translation, sized to clear the bank's local scale.
            direction = rng.standard_normal(src.shape[2])
            direction /= np.linalg.norm(direction)
            patch = patch + (1.5 * strength * spread * np.sqrt(src.shape[2])) * direction
        dst[mask] = patch.astype(np.float32)
        maps[modality] = FeatureMap(modality, dst)
    pair = SamplePair(target.sample_id, maps["pc"], maps["rgb"], target.pixel_gt,
                      target.image_label, target.foreground)
    return pair, mask.copy()


@dataclass
class SynthesisConfig:
    """Augmentation count and strength. Each augmented sample draws its mode
    from ``ANOMALY_MODES`` and its mask from ``PerlinParams()``."""

    n_aug: int = 48
    strength: float = 1.0
    k: int = 5

    def validate(self):
        for name in ("n_aug", "strength", "k"):
            if getattr(self, name) < 0:
                raise ConfigError(f"synth.{name} must be nonnegative")


def augment_dataset(train_manifest, cfg: SynthesisConfig, seed: int):
    """Generate ``cfg.n_aug`` corrupted samples from the training split.

    Each augmented sample draws its own RNG stream from (seed, index), so
    regeneration is order-independent and reproducible. With n_aug == 0 the
    raw training samples are returned with all-zero label grids.
    """
    cfg.validate()
    refs = train_manifest.samples
    if not refs:
        raise EmptyBankError("training manifest holds no samples")
    out = []
    if cfg.n_aug == 0:
        for ref in refs:
            pair = load_sample(train_manifest, ref)
            out.append((pair, np.zeros(pair.grid, dtype=bool)))
        return out
    if len(refs) < 2:
        raise ConfigError("anomaly synthesis needs at least two training samples")
    for i in range(cfg.n_aug):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), 3, i]))
        t_idx = int(rng.integers(len(refs)))
        d_idx = int(rng.integers(len(refs) - 1))
        if d_idx >= t_idx:
            d_idx += 1  # donor differs from target
        target = load_sample(train_manifest, refs[t_idx])
        donor = load_sample(train_manifest, refs[d_idx])
        h, w = target.grid
        mask = gen_perlin_mask(h, w, PerlinParams(), rng).grid
        mode = ANOMALY_MODES[int(rng.integers(len(ANOMALY_MODES)))]
        pair, labels = inject_anomaly(target, donor, mask, mode, cfg.strength, rng)
        pair.sample_id = f"aug_{i:04d}"
        out.append((pair, labels))
    return out


@dataclass
class TrainingPool:
    """Precomputed per-cell encodings for LSPN training.

    Arrays are indexed by pooled cell; ``n`` is 2k+1 neighbor ranks. Each
    cell keeps its raw features once, not one direction per rank: with the
    banks, neighbor ids and raw distances, the scale network reads every
    direction (f - m) / r in factored form (see :mod:`g2sf.lspn`). For the
    default 48 augmented samples on 56x56 grids of 1152 + 768 dims (the
    paper's feature shape) that is about 1.2 GB of features where per-rank
    directions took about 12 GB. :func:`pool_from_samples` writes each
    sample's rows straight into these arrays, so building the pool needs no
    second copy of them.
    The train/validation split is by source-sample parity so both halves
    carry mixed labels.
    """

    k: int
    y: np.ndarray          # (N,) uint8 labels
    feat_pc: np.ndarray    # (N, D_pc) float32 cell features
    idx_pc: np.ndarray     # (N, n) prototype ids, nearest first
    r_pc: np.ndarray       # (N, n) float64 raw distances
    s_pc: np.ndarray       # (N, n) normalized distances
    feat_rgb: np.ndarray
    idx_rgb: np.ndarray
    r_rgb: np.ndarray
    s_rgb: np.ndarray
    sample_index: np.ndarray  # (N,) source augmented-sample index
    train_indices: np.ndarray
    val_indices: np.ndarray

    @property
    def size(self) -> int:
        return self.y.shape[0]

    @property
    def n_neighbors(self) -> int:
        return self.idx_pc.shape[1]

    def s0(self) -> np.ndarray:
        """Rank-0 normalized distances, shape (N, 2), modality order (pc, rgb)."""
        return np.stack([self.s_pc[:, 0], self.s_rgb[:, 0]], axis=1)


def pool_from_samples(samples_with_labels, banks, normalizer, k: int,
                      cells=None) -> TrainingPool:
    """Encode every foreground cell of each (SamplePair, labels) item.

    The items are consumed once, in order, and each one's foreground rows are
    written straight into the pool's arrays, so the build holds the pool and
    the item in hand, never a second copy of the cells. ``cells`` lists each
    item's foreground cell count, which sizes the arrays; it may be left out
    when the items are a sequence, which is then counted first. Only
    foreground cells are pooled, so only they are queried: one k-NN query per
    modality over the pooled cells of all items, with distances normalized by
    :meth:`~g2sf.geometry.DistanceNormalizer.normalize`, as in
    :func:`~g2sf.geometry.encode_map`.
    """
    n = 2 * k + 1
    if min(banks["pc"].size, banks["rgb"].size) < n:
        raise EmptyBankError(
            f"banks too small for 2k+1={n} neighbors "
            f"(pc {min(n, banks['pc'].size)}, rgb {min(n, banks['rgb'].size)})"
        )
    if cells is None:
        cells = [int(np.count_nonzero(pair.foreground)) for pair, _ in samples_with_labels]
    bounds = np.concatenate([[0], np.cumsum(cells, dtype=np.int64)])
    out = {"y": np.empty(bounds[-1], np.uint8), "sample_index": np.empty(bounds[-1], np.int64)}
    for m in ("pc", "rgb"):
        out[f"feat_{m}"] = np.empty((bounds[-1], banks[m].dim), np.float32)
    items = 0
    for sample_idx, (pair, labels) in enumerate(samples_with_labels):
        sel = pair.foreground.reshape(-1)
        if not sel.any():
            raise EmptyBankError(f"sample {pair.sample_id} has no foreground cells")
        if sample_idx >= len(cells) or np.count_nonzero(sel) != cells[sample_idx]:
            raise ShapeError(f"sample {pair.sample_id} does not match the foreground "
                             f"cell counts the pool was sized from")
        part = slice(bounds[sample_idx], bounds[sample_idx + 1])
        out["y"][part] = np.asarray(labels, dtype=bool).reshape(-1)[sel]
        out["sample_index"][part] = sample_idx
        for m in ("pc", "rgb"):
            fmap = getattr(pair, m)
            if fmap.dim != banks[m].dim:
                raise ShapeError(f"sample {pair.sample_id} has {m} width {fmap.dim}, "
                                 f"the {m} bank {banks[m].dim}")
            out[f"feat_{m}"][part] = fmap.data.reshape(-1, fmap.dim)[sel]
        items = sample_idx + 1
    if items != len(cells):
        raise ShapeError(f"the pool was sized for {len(cells)} samples, got {items}")
    for m in ("pc", "rgb"):
        out[f"idx_{m}"], out[f"r_{m}"], _ = query_neighbors_batch(banks[m], out[f"feat_{m}"], k)
        out[f"s_{m}"] = normalizer.normalize(out[f"r_{m}"], m).astype(np.float64)
    train_mask = (out["sample_index"] % 2) == 0
    indices = np.arange(bounds[-1])
    return TrainingPool(k=k, **out, train_indices=indices[train_mask],
                        val_indices=indices[~train_mask])


def build_training_pool(train_manifest, banks, normalizer, cfg: SynthesisConfig,
                        seed: int) -> TrainingPool:
    """Augment the training split and encode it into a pool in one call."""
    return pool_from_samples(augment_dataset(train_manifest, cfg, seed), banks, normalizer, cfg.k)
