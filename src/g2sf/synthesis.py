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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyBankError, ShapeError
from .features import ANOMALY_MODES, FeatureMap, SamplePair, load_sample
from .geometry import encode_map

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
    params: PerlinParams
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
    """Thresholded noise mask with coverage forced into the configured band.

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
            return PerlinMask(mask, params, cov)
    # Clamp: keep the top-k cells of the last field, k snapped into the band.
    raw_count = int((noise > params.threshold).sum())
    count = int(np.clip(raw_count, k_min, k_max))
    order = np.argsort(noise, axis=None, kind="stable")[::-1]
    mask = np.zeros(n, dtype=bool)
    mask[order[:count]] = True
    mask = mask.reshape(h, w)
    return PerlinMask(mask, params, float(mask.mean()))


def inject_anomaly(target: SamplePair, donor: SamplePair, mask: np.ndarray,
                   mode: str, strength: float, rng):
    """Paste perturbed donor features into masked cells of ``target``.

    ``mode`` selects the corrupted modality(ies): pc_only, rgb_only or joint
    ("both" is accepted as an alias). Returns (augmented SamplePair,
    label grid) where labels are 1 exactly on masked cells. Unmasked cells
    are bit-identical to the input.
    """
    if mode == "both":
        mode = "joint"
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
        maps[modality] = FeatureMap(modality, dst, maps[modality].foreground)
    pair = SamplePair(target.sample_id, maps["pc"], maps["rgb"],
                      pixel_gt=target.pixel_gt, image_label=target.image_label)
    return pair, mask.copy()


@dataclass
class SynthesisConfig:
    n_aug: int = 48
    strength: float = 1.0
    modes: tuple = ANOMALY_MODES
    k: int = 5
    perlin: PerlinParams = field(default_factory=PerlinParams)

    def validate(self):
        if self.n_aug < 0 or self.k < 0 or self.strength < 0:
            raise ConfigError("n_aug, k and strength must be nonnegative")
        bad = [m for m in self.modes if m not in ANOMALY_MODES + ("both",)]
        if bad:
            raise ConfigError(f"unknown synthesis modes {bad}")


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
        mask = gen_perlin_mask(h, w, cfg.perlin, rng).grid
        mode = cfg.modes[int(rng.integers(len(cfg.modes)))]
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
    direction (f - m) / r in factored form (see :mod:`g2sf.lspn`). At the
    built-in defaults (48 augmented 56x56 samples, 1152 + 768 dims) that is
    about 1.2 GB of features where per-rank directions took about 12 GB.
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
    positions: np.ndarray     # (N, 2) grid row/col
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


def pool_from_samples(samples_with_labels, banks, normalizer, k: int) -> TrainingPool:
    """Encode every foreground cell of each (SamplePair, labels) item."""
    rows = {key: [] for key in ("y", "si", "pos")}
    for modality in ("pc", "rgb"):
        rows.update({f"{key}_{modality}": [] for key in ("feat", "idx", "r", "s")})
    for sample_idx, (pair, labels) in enumerate(samples_with_labels):
        fg = pair.foreground
        if not fg.any():
            raise EmptyBankError(f"sample {pair.sample_id} has no foreground cells")
        enc = {m: encode_map(getattr(pair, m), banks[m], k, normalizer) for m in ("pc", "rgb")}
        if enc["pc"].n_neighbors != 2 * k + 1 or enc["rgb"].n_neighbors != 2 * k + 1:
            raise EmptyBankError(
                f"banks too small for 2k+1={2 * k + 1} neighbors "
                f"(pc {enc['pc'].n_neighbors}, rgb {enc['rgb'].n_neighbors})"
            )
        labels = np.asarray(labels, dtype=bool)
        sel = fg.reshape(-1)
        n = 2 * k + 1
        rows["y"].append(labels.reshape(-1)[sel].astype(np.uint8))
        for m in ("pc", "rgb"):
            fmap = getattr(pair, m)
            rows[f"feat_{m}"].append(fmap.data.reshape(-1, fmap.dim)[sel])
            rows[f"idx_{m}"].append(enc[m].indices.reshape(-1, n)[sel])
            rows[f"r_{m}"].append(enc[m].raw_distances.reshape(-1, n)[sel])
            rows[f"s_{m}"].append(enc[m].distances.reshape(-1, n)[sel])
        rows["si"].append(np.full(sel.sum(), sample_idx, dtype=np.int64))
        rows["pos"].append(np.argwhere(fg))
    sample_index = np.concatenate(rows["si"])
    train_mask = (sample_index % 2) == 0
    indices = np.arange(sample_index.shape[0])
    cat = {key: np.concatenate(parts) for key, parts in rows.items()}
    return TrainingPool(
        k=k,
        y=cat["y"],
        feat_pc=cat["feat_pc"],
        idx_pc=cat["idx_pc"],
        r_pc=cat["r_pc"],
        s_pc=cat["s_pc"].astype(np.float64),
        feat_rgb=cat["feat_rgb"],
        idx_rgb=cat["idx_rgb"],
        r_rgb=cat["r_rgb"],
        s_rgb=cat["s_rgb"].astype(np.float64),
        sample_index=sample_index,
        positions=cat["pos"],
        train_indices=indices[train_mask],
        val_indices=indices[~train_mask],
    )


def build_training_pool(train_manifest, banks, normalizer, cfg: SynthesisConfig,
                        seed: int) -> TrainingPool:
    """Augment the training split and encode it into a pool in one call."""
    samples = augment_dataset(train_manifest, cfg, seed)
    pool = pool_from_samples(samples, banks, normalizer, cfg.k)
    if cfg.n_aug > 0 and pool.val_indices.size == 0:
        warnings.warn("pool has no validation half (n_aug < 2)", stacklevel=2)
    return pool
