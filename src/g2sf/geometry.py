"""Geometric encoding of features against memory prototypes.

A feature f is rewritten, per neighbor prototype m_j, as the triplet
(prototype index, unit direction (f - m_j)/||f - m_j||, normalized distance
||f - m_j|| / mean). The encoding is seamless: f reconstructs exactly from
any one triplet, so no information is lost before metric learning.

:func:`encode` builds the triplets of one feature explicitly. The batched
:func:`encode_map` returns only neighbor ids and distances: a direction is
(f - m_j) / r_j, so the scale network's first layer can read it as
(W f - W m_j) / r_j from the cell's features and the bank, and no
(cells, 2k+1, D) direction block is ever built.

Distances are normalized per modality by the mean nearest-prototype distance
over the training foreground, so both modalities score in comparable units.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .bank import MemoryBank, query_neighbors, query_neighbors_batch
from .errors import EmptyBankError, ShapeError
from .features import FeatureMap, SamplePair

DEGENERATE_EPS = 1e-12  # raw-unit distance below which the direction is undefined

__all__ = [
    "GeometricEncoding",
    "DistanceNormalizer",
    "MapEncoding",
    "encode",
    "decode",
    "encode_map",
    "inverse_distances",
    "fit_normalizer",
]


@dataclass
class GeometricEncoding:
    """One (feature, neighbor) triplet in normalized units."""

    prototype_idx: int
    direction: np.ndarray
    distance: float
    degenerate: bool = False


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

    def to_dict(self):
        return {"mean_pc": self.mean_pc, "mean_rgb": self.mean_rgb}

    @classmethod
    def from_dict(cls, doc):
        return cls(float(doc["mean_pc"]), float(doc["mean_rgb"]))


def encode(f: np.ndarray, bank: MemoryBank, k: int, normalizer: DistanceNormalizer):
    """Encode ``f`` against its 2k+1 nearest prototypes; nearest first.

    Output order matches the neighbor order. A zero raw distance yields the
    zero direction and a ``degenerate`` flag.
    """
    neighbors = query_neighbors(bank, f, k)
    mean = normalizer.mean_for(bank.modality)
    out = []
    f64 = np.asarray(f, dtype=np.float64)
    for idx, raw in zip(neighbors.indices, neighbors.distances):
        offset = f64 - bank.prototypes[idx].astype(np.float64)
        if raw < DEGENERATE_EPS:
            out.append(GeometricEncoding(int(idx), np.zeros_like(offset), 0.0, degenerate=True))
        else:
            out.append(GeometricEncoding(int(idx), offset / raw, float(raw / mean)))
    return out


def decode(enc: GeometricEncoding, bank: MemoryBank, normalizer: DistanceNormalizer) -> np.ndarray:
    """Invert :func:`encode` for one triplet: m_j + (s * mean) * d."""
    mean = normalizer.mean_for(bank.modality)
    return bank.prototypes[enc.prototype_idx].astype(np.float64) + (
        enc.distance * mean
    ) * enc.direction


@dataclass
class MapEncoding:
    """Vectorized encoding of a whole feature map against one bank.

    ``indices`` (H, W, n) prototype ids, ``distances`` (H, W, n) normalized
    float32 distances and ``raw_distances`` (H, W, n) float64 distances in
    feature units, where n = min(2k+1, bank size). Directions are not
    stored: with the map's features and the bank, each one is
    ``(f - prototypes[idx]) * inverse_distances(raw)``, and the scale
    network reads them in that factored form.
    """

    modality: str
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


def encode_map(fmap: FeatureMap, bank: MemoryBank, k: int, normalizer: DistanceNormalizer):
    h, w, d = fmap.data.shape
    if d != bank.dim:
        raise ShapeError(f"feature dim {d} != bank dim {bank.dim}")
    idx, dist, truncated = query_neighbors_batch(bank, fmap.data.reshape(h * w, d), k)
    n = idx.shape[1]
    mean = normalizer.mean_for(bank.modality)
    return MapEncoding(
        modality=bank.modality,
        indices=idx.reshape(h, w, n),
        distances=(dist / mean).reshape(h, w, n).astype(np.float32),
        raw_distances=dist.reshape(h, w, n),
        truncated=truncated,
    )


def fit_normalizer(train_pairs, banks: dict) -> DistanceNormalizer:
    """Mean nearest-prototype distance per modality over training foreground.

    ``train_pairs`` is an iterable of :class:`SamplePair`. A zero mean (all
    features sit in the bank, e.g. fraction 1.0) is replaced by 1.0 with a
    warning so downstream divisions stay defined.
    """
    totals = {"pc": 0.0, "rgb": 0.0}
    counts = {"pc": 0, "rgb": 0}
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
            totals[modality] += float(dist[:, 0].sum())
            counts[modality] += flat.shape[0]
    if counts["pc"] == 0 or counts["rgb"] == 0:
        raise EmptyBankError("no foreground features to fit the distance normalizer")
    means = {}
    for modality in ("pc", "rgb"):
        mean = totals[modality] / counts[modality]
        if mean <= 0.0:
            warnings.warn(
                f"mean {modality} nearest distance is 0 (bank covers the training set); "
                "using 1.0 instead",
                stacklevel=2,
            )
            mean = 1.0
        means[modality] = mean
    return DistanceNormalizer(mean_pc=means["pc"], mean_rgb=means["rgb"])
