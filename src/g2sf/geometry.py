"""Geometric encoding of features against memory prototypes.

A feature f is rewritten, per neighbor prototype m_j, as the triplet
(prototype index, unit direction d_j = (f - m_j) / r_j, normalized distance
r_j / mean), with r_j = ||f - m_j||. The encoding is seamless: f = m_j +
r_j d_j reconstructs from any one triplet, so no information is lost before
metric learning.

:func:`encode_map` encodes a whole map at once and stores only neighbor ids
and distances, raw and normalized. A direction is (f - m_j) / r_j, so the
scale network's first layer reads it as (W f - W m_j) / r_j from the cell's
features and the bank, and no (cells, 2k+1, D) direction block is ever built.

Distances are normalized per modality by the mean nearest-prototype distance
over the training foreground, so both modalities score in comparable units.
:func:`normalizer_from_distances` is the one place that mean is summed, and
:meth:`DistanceNormalizer.normalize` the one place a raw distance is divided
by it. :func:`fit_banks`, the one bank fit of a training split (the CLI's
bank stage calls it), feeds the former the coverage its coreset builds
already computed (see :func:`g2sf.bank.build_bank`), split per sample.
:func:`fit_normalizer` feeds it rank-0 k-NN distances of samples read again
against any banks; on the banks of :func:`fit_banks` both give the same bits.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bank import MemoryBank, build_bank, query_neighbors_batch
from .errors import EmptyBankError, ShapeError
from .features import MODALITIES, FeatureMap, SamplePair, iter_samples, read_mask

DEGENERATE_EPS = 1e-12  # raw-unit distance below which the direction is undefined

__all__ = [
    "DistanceNormalizer",
    "MapEncoding",
    "encode_map",
    "inverse_distances",
    "fit_banks",
    "fit_normalizer",
    "normalizer_from_distances",
]


@dataclass
class DistanceNormalizer:
    mean_pc: float
    mean_rgb: float

    def mean_for(self, modality: str) -> float:
        if modality == "pc":
            return self.mean_pc
        if modality == "rgb":
            return self.mean_rgb
        raise ShapeError(f"unknown modality {modality!r}")

    def normalize(self, raw: np.ndarray, modality: str) -> np.ndarray:
        """Raw float64 distances of ``modality`` in units of its mean, as the
        float32 values every encoding stores."""
        return (raw / self.mean_for(modality)).astype(np.float32)

    def to_dict(self):
        return {"mean_pc": self.mean_pc, "mean_rgb": self.mean_rgb}

    @classmethod
    def from_dict(cls, doc):
        return cls(float(doc["mean_pc"]), float(doc["mean_rgb"]))


@dataclass
class MapEncoding:
    """Vectorized encoding of a whole feature map against one bank.

    ``indices`` (H, W, n) prototype ids, ``distances`` (H, W, n) normalized
    float32 distances and ``raw_distances`` (H, W, n) float64 distances in
    feature units, where n = min(ranks, bank size). Directions are not
    stored: with the map's features and the bank, each one is
    ``(f - prototypes[idx]) * inverse_distances(raw)``, and the scale
    network reads them in that factored form.
    """

    indices: np.ndarray
    distances: np.ndarray
    raw_distances: np.ndarray
    truncated: bool = False

    @property
    def n_neighbors(self) -> int:
        return self.indices.shape[2]


def inverse_distances(raw: np.ndarray) -> np.ndarray:
    """Float64 ``1 / raw``, and 0 where the direction is degenerate (raw < eps)."""
    raw = np.asarray(raw, dtype=np.float64)
    out = np.zeros_like(raw)
    live = raw >= DEGENERATE_EPS
    out[live] = 1.0 / raw[live]
    return out


def encode_map(fmap: FeatureMap, bank: MemoryBank, k: int, normalizer: DistanceNormalizer,
               ranks: int | None = None) -> MapEncoding:
    """Encode every cell of ``fmap`` against its nearest prototypes.

    ``ranks`` is how many nearest prototypes each cell keeps, 2k+1 by default
    (the local spaces synthesis and training read); scoring asks for the k+1
    it aggregates. The first ranks are the same whatever the count (see
    :func:`g2sf.bank.query_neighbors_batch`).
    """
    h, w, d = fmap.data.shape
    if d != bank.dim:
        raise ShapeError(f"feature dim {d} != bank dim {bank.dim}")
    idx, dist, truncated = query_neighbors_batch(bank, fmap.data.reshape(h * w, d), k,
                                                 ranks=ranks)
    n = idx.shape[1]
    return MapEncoding(
        indices=idx.reshape(h, w, n),
        distances=normalizer.normalize(dist, bank.modality).reshape(h, w, n),
        raw_distances=dist.reshape(h, w, n),
        truncated=truncated,
    )


def fit_banks(train_manifest, fraction: float):
    """One coreset bank per modality over a training split's foreground, and
    the distance normalizer of those banks.

    The foreground masks size one float32 (cells, D) array per modality; each
    sample's foreground rows then stream into them in sample order, so no
    per-sample slice outlives its sample. The normalizer sums each bank's
    ``coverage`` sample by sample through :func:`normalizer_from_distances`,
    with no second k-NN pass. Returns (banks, normalizer).
    """
    root = train_manifest.root or Path(".")
    cells = [int(read_mask(root / ref.foreground).sum()) if ref.foreground
             else int(np.prod(train_manifest.grid)) for ref in train_manifest.samples]
    bounds = np.concatenate([[0], np.cumsum(cells, dtype=np.int64)])
    points = {m: np.empty((bounds[-1], train_manifest.dims[m]), np.float32)
              for m in MODALITIES}
    for i, pair in enumerate(iter_samples(train_manifest)):
        for m in MODALITIES:
            points[m][bounds[i] : bounds[i + 1]] = getattr(pair, m).data[pair.foreground]
    banks = {m: build_bank(points[m], m, fraction) for m in MODALITIES}
    nearest = {m: np.split(banks[m].coverage, bounds[1:-1]) for m in MODALITIES}
    return banks, normalizer_from_distances(nearest)


def fit_normalizer(train_pairs, banks: dict) -> DistanceNormalizer:
    """Mean nearest-prototype distance per modality over training foreground.

    ``train_pairs`` is an iterable of :class:`SamplePair`; each sample's
    foreground is queried against ``banks`` and the rank-0 distances go to
    :func:`normalizer_from_distances`.
    """
    nearest = {"pc": [], "rgb": []}
    for pair in train_pairs:
        if not isinstance(pair, SamplePair):
            raise ShapeError("fit_normalizer expects SamplePair items")
        fg = pair.foreground.reshape(-1)
        for modality in ("pc", "rgb"):
            fmap = getattr(pair, modality)
            flat = fmap.data.reshape(-1, fmap.dim)[fg]
            if flat.shape[0] == 0:
                continue
            _, dist, _ = query_neighbors_batch(banks[modality], flat, 0)
            nearest[modality].append(dist[:, 0])
    return normalizer_from_distances(nearest)


def normalizer_from_distances(nearest: dict) -> DistanceNormalizer:
    """Normalizer from per-sample nearest-prototype distances.

    ``nearest`` maps "pc" and "rgb" to sequences of 1-D distance arrays, one
    per training sample in sample order; each sample's sum is added in that
    order. A zero mean (all features sit in the bank, e.g. fraction 1.0) is
    replaced by 1.0, with a warning, so downstream divisions stay defined.
    """
    means = {}
    for modality in ("pc", "rgb"):
        total, count = 0.0, 0
        for dist in nearest[modality]:
            total += float(dist.sum())
            count += dist.shape[0]
        if count == 0:
            raise EmptyBankError("no foreground features to fit the distance normalizer")
        means[modality] = total / count
    for modality, mean in means.items():
        if mean <= 0.0:
            warnings.warn(
                f"mean {modality} nearest distance is 0 (bank covers the training set); "
                "using 1.0 instead",
                stacklevel=3,
            )
            means[modality] = 1.0
    return DistanceNormalizer(mean_pc=means["pc"], mean_rgb=means["rgb"])
