"""Per-modality memory banks: greedy coreset construction and exact k-NN.

The bank stores full-dimensional prototype vectors selected by farthest-point
(greedy k-center) sampling. Selection starts at index 0 for reproducibility;
an optional seeded Gaussian random projection accelerates the *selection*
distances only.

Queries are exact. A float64 GEMM expansion ||q||^2 - 2 q.p + ||p||^2
shortlists each query's candidates, widened by a per-query rounding bound so
that no prototype that could tie or beat the (2k+1)-th is dropped; the
shortlist is then re-ranked on exact float64 differences, with ties broken
toward the lower prototype index.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, EmptyBankError, ShapeError
from .tensorio import read_tensor, write_tensor

__all__ = [
    "MemoryBank",
    "NeighborSet",
    "build_bank",
    "query_neighbors",
    "query_neighbors_batch",
    "nearest_distance",
    "covering_radius",
    "save_bank",
    "load_bank",
]


@dataclass
class MemoryBank:
    modality: str
    prototypes: np.ndarray
    source_refs: list = field(default_factory=list)
    coreset_fraction: float = 1.0

    def __post_init__(self):
        self.prototypes = np.ascontiguousarray(self.prototypes, dtype=np.float32)
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 1:
            raise EmptyBankError("bank needs a (P, D) prototype matrix with P >= 1")
        if not np.all(np.isfinite(self.prototypes)):
            raise ConfigError("bank prototypes must be finite")
        self.prototypes.setflags(write=False)  # banks are immutable after build

    @property
    def size(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


@dataclass
class NeighborSet:
    """Ordered nearest prototypes: indices plus nondecreasing L2 distances.

    ``truncated`` flags the degenerate case where the bank holds fewer than
    the requested 2k+1 prototypes and the full bank is returned instead.
    """

    indices: np.ndarray
    distances: np.ndarray
    truncated: bool = False

    def __len__(self):
        return len(self.indices)


def _sq_distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = np.asarray(points, dtype=np.float64) - np.asarray(query, dtype=np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def build_bank(
    features,
    modality: str,
    fraction: float,
    seed: int | None = None,
    projection_dim: int | None = None,
    source_refs=None,
) -> MemoryBank:
    """Greedy k-center selection of ``ceil(fraction * N)`` prototypes.

    ``features`` is any iterable of D-vectors (foreground features of the
    training split). When ``projection_dim`` is set, selection distances are
    computed in a seeded Gaussian random-projection space for speed, but the
    stored prototypes are always full-dimensional.
    """
    points = np.asarray(list(features) if not isinstance(features, np.ndarray) else features,
                        dtype=np.float32)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EmptyBankError("cannot build a bank from an empty feature set")
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"coreset fraction {fraction} outside (0, 1]")
    n = points.shape[0]
    budget = min(n, math.ceil(fraction * n))

    space = points.astype(np.float64)  # cast once, not on every greedy step
    if projection_dim is not None and projection_dim < points.shape[1]:
        rng = np.random.default_rng(np.random.SeedSequence([0 if seed is None else int(seed), 0x9A]))
        proj = rng.standard_normal((points.shape[1], projection_dim)) / np.sqrt(projection_dim)
        space = space @ proj

    selected = np.empty(budget, dtype=np.int64)
    selected[0] = 0
    min_sq = _sq_distances(space, space[0])
    min_sq[0] = -np.inf  # selected rows can never win the argmax again
    for i in range(1, budget):
        nxt = int(np.argmax(min_sq))  # argmax takes the lowest index on ties
        selected[i] = nxt
        np.minimum(min_sq, _sq_distances(space, space[nxt]), out=min_sq)
        min_sq[nxt] = -np.inf

    refs = None
    if source_refs is not None:
        source_refs = list(source_refs)
        if len(source_refs) != n:
            raise ShapeError("source_refs length must match the feature count")
        refs = [source_refs[i] for i in selected]
    return MemoryBank(modality, points[selected], refs or [], fraction)


def query_neighbors(bank: MemoryBank, f: np.ndarray, k: int) -> NeighborSet:
    """Exact 2k+1 nearest prototypes of ``f``, nearest first."""
    f = np.asarray(f)
    if f.shape != (bank.dim,):
        raise ShapeError(f"query shape {f.shape} != bank dim ({bank.dim},)")
    want = 2 * k + 1
    d = np.sqrt(_sq_distances(bank.prototypes, f))
    order = np.argsort(d, kind="stable")[:want]
    return NeighborSet(order, d[order], truncated=bank.size < want)


def query_neighbors_batch(bank: MemoryBank, queries: np.ndarray, k: int, chunk: int = 1024):
    """Vectorized :func:`query_neighbors` over rows of ``queries`` (N, D).

    Returns (indices (N, n), distances (N, n), truncated) with
    n = min(2k+1, bank size); indices and distances equal the scalar query's
    bit for bit.

    Per chunk of rows, one float64 GEMM gives approximate squared distances
    ||q||^2 - 2 q.p + ||p||^2. Each row keeps every prototype whose
    approximate value is within 8 (D + 4) eps (||q||^2 + max ||p||^2) of the
    row's n-th smallest; that bound exceeds the rounding error of both the
    expansion and the exact distance, so every prototype that could tie or
    beat the n-th in exact arithmetic stays. The kept candidates are sorted
    by index, their distances recomputed from float64 differences exactly as
    :func:`query_neighbors` does, and ordered by a stable sort, so ties go to
    the lower index and a bank member sits at distance exactly 0. Scratch is
    O(chunk * P) for the GEMM plus O(chunk * width * D) for the re-rank, with
    width close to n.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != bank.dim:
        raise ShapeError(f"queries shape {queries.shape} incompatible with bank dim {bank.dim}")
    want = 2 * k + 1
    n = min(want, bank.size)
    out_idx = np.empty((queries.shape[0], n), dtype=np.int64)
    out_dist = np.empty((queries.shape[0], n), dtype=np.float64)
    protos = bank.prototypes.astype(np.float64)
    protos_sq = np.einsum("pd,pd->p", protos, protos)
    max_sq = protos_sq.max()
    # The expansion and the exact re-rank together err by at most about
    # 4 (D + 4) eps (||q||^2 + max ||p||^2); the shortlist keeps twice that.
    rel_slack = 8.0 * (bank.dim + 4) * np.finfo(np.float64).eps
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk].astype(np.float64)
        block_sq = np.einsum("bd,bd->b", block, block)
        approx = block @ protos.T
        approx *= -2.0
        approx += block_sq[:, None]
        approx += protos_sq[None, :]
        # .copy() lets the partitioned block go before the argpartition below.
        nth = np.partition(approx, n - 1, axis=1)[:, n - 1].copy()
        limit = nth + rel_slack * (block_sq + max_sq)
        if np.all(np.isfinite(limit)):
            width = int((approx <= limit[:, None]).sum(axis=1).max())
        else:  # non-finite queries: rank the whole bank
            width = bank.size
        cand = np.sort(np.argpartition(approx, width - 1, axis=1)[:, :width], axis=1)
        diff = protos[cand]
        np.subtract(block[:, None, :], diff, out=diff)
        d = np.sqrt(np.einsum("bpd,bpd->bp", diff, diff))
        order = np.argsort(d, axis=1, kind="stable")[:, :n]
        out_idx[start : start + block.shape[0]] = np.take_along_axis(cand, order, axis=1)
        out_dist[start : start + block.shape[0]] = np.take_along_axis(d, order, axis=1)
    return out_idx, out_dist, bank.size < want


def nearest_distance(bank: MemoryBank, f: np.ndarray) -> float:
    return float(query_neighbors(bank, f, 0).distances[0])


def covering_radius(bank: MemoryBank, features: np.ndarray) -> float:
    """Max over ``features`` of the distance to the nearest prototype."""
    _, dist, _ = query_neighbors_batch(bank, np.asarray(features, dtype=np.float32), 0)
    return float(dist[:, 0].max())


def save_bank(bank: MemoryBank, path):
    """Persist prototypes as a tensor container plus a JSON sidecar of refs."""
    path = Path(path)
    write_tensor(path, bank.prototypes, {"kind": "memory_bank", "modality": bank.modality})
    sidecar = {
        "modality": bank.modality,
        "coreset_fraction": bank.coreset_fraction,
        "source_refs": [list(r) for r in bank.source_refs],
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, sort_keys=True, indent=1) + "\n"
    )


def load_bank(path) -> MemoryBank:
    path = Path(path)
    protos, header = read_tensor(path)
    if header.get("kind") != "memory_bank":
        raise ConfigError(f"{path} is not a memory bank container")
    sidecar_path = path.with_suffix(path.suffix + ".json")
    refs, fraction = [], 1.0
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
        refs = [tuple(r) for r in sidecar.get("source_refs", [])]
        fraction = sidecar.get("coreset_fraction", 1.0)
    return MemoryBank(header["modality"], protos, refs, fraction)
