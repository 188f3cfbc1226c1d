"""Per-modality memory banks: greedy coreset construction and exact k-NN.

The bank stores prototype vectors selected by farthest-point (greedy
k-center) sampling on the features themselves. Selection starts at index 0
for reproducibility.

Selection keeps every point's exact squared distance to its nearest chosen
center. Each greedy step prices the new center against all points with one
float32 GEMV on the features, ||x||^2 - 2 x.c + ||c||^2, and recomputes exact
float64 differences, in row blocks, only for the points whose lower rounding
bound does not already exceed their current minimum, so the minima, and with
them the selected indices, are those of a full exact scan. No float64 copy
of the (N, D) features is made. When the last step ends, those minima are each
input point's exact nearest-prototype distance: the bank hands them back as
``coverage``, and the bank stage takes the distance normalizer from them
without a second k-NN pass.

Queries are exact and batched: :func:`query_neighbors_batch` is the one
k-NN path. A float64 GEMM expansion ||q||^2 - 2 q.p + ||p||^2 shortlists
each query's candidates, widened by a per-query rounding bound so that no
prototype that could tie or beat the last requested rank is dropped; the
shortlist is then re-ranked on exact float64 differences, with ties broken
toward the lower prototype index. A query asks for 2k+1 ranks by default
(the local spaces synthesis and training read) or for any smaller count
(scoring reads ranks 0..k); the first ranks of a query are the same, tie
order included, whatever the count.

A bank is its prototypes: :func:`save_bank` writes them as one tensor
container whose header names the modality, and :func:`load_bank` reads it
back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, EmptyBankError, ShapeError
from .tensorio import read_tensor, write_tensor

__all__ = [
    "MemoryBank",
    "build_bank",
    "query_neighbors_batch",
    "covering_radius",
    "save_bank",
    "load_bank",
]


@dataclass
class MemoryBank:
    """Read-only prototypes of one modality.

    ``coverage`` is the exact distance of each input point of
    :func:`build_bank`, in input order, to its nearest prototype. It is not
    persisted, so it is None for a bank read by :func:`load_bank`.
    """

    modality: str
    prototypes: np.ndarray
    coverage: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.prototypes = np.ascontiguousarray(self.prototypes, dtype=np.float32)
        if self.prototypes.ndim != 2 or self.prototypes.shape[0] < 1:
            raise EmptyBankError("bank needs a (P, D) prototype matrix with P >= 1")
        if not np.all(np.isfinite(self.prototypes)):
            raise ConfigError("bank prototypes must be finite")
        self.prototypes.setflags(write=False)  # banks are immutable after build
        if self.coverage is not None:
            self.coverage.setflags(write=False)

    @property
    def size(self) -> int:
        return self.prototypes.shape[0]

    @property
    def dim(self) -> int:
        return self.prototypes.shape[1]


_BLOCK = 1 << 19  # float64 elements in one block of exact differences (4 MB)


def _sq_distances(points: np.ndarray, query: np.ndarray, rows=None) -> np.ndarray:
    """Exact float64 squared distances from ``points[rows]`` (all rows when
    ``rows`` is None) to ``query``.

    The differences are taken block by block, so float32 points are never
    cast whole; the cast is exact, and a row's value does not depend on the
    blocking.
    """
    query = np.asarray(query, dtype=np.float64)
    count = len(points) if rows is None else len(rows)
    step = max(1, _BLOCK // max(1, query.size))
    out = np.empty(count)
    for lo in range(0, count, step):
        block = points[lo : lo + step] if rows is None else points[rows[lo : lo + step]]
        diff = np.subtract(block, query, dtype=np.float64)
        out[lo : lo + step] = np.einsum("ij,ij->i", diff, diff)
    return out


def _rel_slack(dim: int) -> float:
    """Relative rounding slack of a float64 GEMM distance in ``dim`` dimensions.

    The expansion ||x||^2 - 2 x.c + ||c||^2 and the exact difference form
    together err by at most about 4 (D + 4) eps (||x||^2 + ||c||^2); the
    slack is twice that, and it scales the same sum.
    """
    return 8.0 * (dim + 4) * np.finfo(np.float64).eps


def _dot_slack(dim: int):
    """(relative, absolute) error bound of 2 x.c taken in float32, beyond
    what :func:`_rel_slack` already covers for float64.

    A float32 dot product errs by at most gamma_D ||x|| ||c||, with
    gamma_D = D u / (1 - D u) and u = 2^-24, in any summation order (Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.1); since
    2 ||x|| ||c|| <= ||x||^2 + ||c||^2, gamma_D scales the same sum as the
    float64 slack. A product that underflows errs instead by up to half the
    smallest subnormal, so 2 x.c can err by D smallest subnormals more; the
    absolute term is twice that.
    """
    info = np.finfo(np.float32)
    du = dim * info.eps / 2
    return du / (1.0 - du), 2.0 * dim * float(info.smallest_subnormal)


def build_bank(features, modality: str, fraction: float, seed: int | None = None) -> MemoryBank:
    """Greedy k-center selection of ``ceil(fraction * N)`` prototypes.

    ``features`` is an (N, D) array, N >= 1 (foreground features of the
    training split); any other shape raises ShapeError. Selection is
    deterministic, so ``seed`` is unused; it is still accepted because
    callers outside this package pass it.

    Each point's squared distance to its nearest center, ``min_sq``, is the
    one a full scan of exact float64 differences would hold. A step computes
    approximate distances to the new center c with one float32 GEMV on the
    features, and skips every point whose lower bound
    ``approx - slack (||x||^2 + ||c||^2)`` exceeds its ``min_sq``: its exact
    distance cannot lower the minimum. The slack is the float64 one of
    :func:`_rel_slack` plus the float32 dot-product bound gamma_D of
    :func:`_dot_slack`. The other points
    (non-finite ones, and rows whose GEMV value overflowed, included) get
    exact float64 differences, row block by row block, and a minimum; the
    float32 to float64 cast is exact, so a survivor's distance is the full
    scan's. The argmax, with ties to the lowest index, thus picks what the
    full scan picks, whatever the BLAS summation order.

    The returned bank's ``coverage`` is ``sqrt(min_sq)`` after the last
    step, with selected points at exactly 0: each input point's nearest-
    prototype distance, bit-equal to rank 0 of
    :func:`query_neighbors_batch`.
    """
    points = np.ascontiguousarray(features, dtype=np.float32)
    if points.ndim != 2:
        raise ShapeError(f"a bank is built from an (N, D) feature array, got shape "
                         f"{points.shape}")
    if points.shape[0] == 0:
        raise EmptyBankError("cannot build a bank from an empty feature set")
    if not (0.0 < fraction <= 1.0):
        raise ConfigError(f"coreset fraction {fraction} outside (0, 1]")
    n, dim = points.shape
    budget = min(n, math.ceil(fraction * n))

    selected = np.empty(budget, dtype=np.int64)
    selected[0] = 0
    min_sq = _sq_distances(points, points[0])
    min_sq[0] = -np.inf  # selected rows can never win the argmax again
    points_sq = _sq_distances(points, np.zeros(dim))
    # lower = approx - slack (||x||^2 + ||c||^2) - tiny, with the slack
    # folded into the squared norms once per build.
    dot_rel, tiny = _dot_slack(dim)
    keep = 1.0 - _rel_slack(dim) - dot_rel
    points_sq_lo = points_sq * keep
    # Past half the float32 range a GEMV may overflow, and an overflowed
    # value bounds nothing: such rows then take the exact path.
    may_overflow = not points_sq.max() <= np.finfo(np.float32).max / 2
    dot = np.empty(n, dtype=np.float32)
    lower = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed filter is handled
        for i in range(1, budget):
            nxt = int(np.argmax(min_sq))  # argmax takes the lowest index on ties
            selected[i] = nxt
            centre = points[nxt]
            np.matmul(points, centre, out=dot)
            np.multiply(dot, -2.0, out=lower, dtype=np.float64)
            lower += points_sq_lo
            lower += points_sq[nxt] * keep - tiny
            if may_overflow:
                lower[~np.isfinite(dot)] = np.nan
            rows = np.flatnonzero(~(lower > min_sq))  # NaN bounds take the exact path
            min_sq[rows] = np.minimum(min_sq[rows], _sq_distances(points, centre, rows))
            min_sq[nxt] = -np.inf
    min_sq[selected] = 0.0
    return MemoryBank(modality, points[selected], np.sqrt(min_sq))


def query_neighbors_batch(bank: MemoryBank, queries: np.ndarray, k: int, chunk: int = 256,
                          ranks: int | None = None):
    """Exact nearest prototypes of each row of ``queries`` (N, D), nearest first.

    Returns (indices (N, n), distances (N, n), truncated) with
    n = min(ranks, bank size); ``ranks`` defaults to 2k+1, and ``truncated``
    is whether the bank holds fewer than ``ranks`` prototypes. A row's
    distances are the float64 norms of its exact float64 differences to the
    prototypes, nondecreasing, with ties in the lower prototype index first:
    a row ranks as a full sort of its distances to the whole bank would rank
    it, so a bank member sits at distance exactly 0, the result does not
    depend on ``chunk``, and a query for fewer ranks is a prefix of one for
    more, bit for bit.

    Per chunk of rows, one float64 GEMM gives approximate squared distances
    ||q||^2 - 2 q.p + ||p||^2. Each row keeps every prototype whose
    approximate value is within 8 (D + 4) eps (||q||^2 + max ||p||^2) of the
    row's n-th smallest; that bound exceeds the rounding error of both the
    expansion and the exact distance, so every prototype that could tie or
    beat the n-th in exact arithmetic stays. One ``argpartition`` at n - 1
    finds the n-th smallest and, unless the bound admits more than n
    prototypes in some row, the shortlist too. The kept candidates are sorted
    by index, their distances recomputed from float64 differences, and
    ordered by a stable sort, so ties go to the lower index. Scratch is
    O(chunk * P) for the GEMM plus O(chunk * width * D) for the re-rank, with
    width close to n. The default chunk, 256 rows, keeps that scratch at one
    16 x 16 map's when a call queries many samples at once, as the training
    pool does.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2 or queries.shape[1] != bank.dim:
        raise ShapeError(f"queries shape {queries.shape} incompatible with bank dim {bank.dim}")
    want = 2 * k + 1 if ranks is None else ranks
    if want < 1:
        raise ConfigError(f"a query needs at least one rank, got {want}")
    n = min(want, bank.size)
    out_idx = np.empty((queries.shape[0], n), dtype=np.int64)
    out_dist = np.empty((queries.shape[0], n), dtype=np.float64)
    protos = bank.prototypes.astype(np.float64)
    protos_sq = np.einsum("pd,pd->p", protos, protos)
    max_sq = protos_sq.max()
    rel_slack = _rel_slack(bank.dim)
    for start in range(0, queries.shape[0], chunk):
        block = queries[start : start + chunk].astype(np.float64)
        block_sq = np.einsum("bd,bd->b", block, block)
        approx = block @ protos.T
        approx *= -2.0
        approx += block_sq[:, None]
        approx += protos_sq[None, :]
        part = np.argpartition(approx, n - 1, axis=1)
        nth = np.take_along_axis(approx, part[:, n - 1 : n], axis=1)[:, 0]
        limit = nth + rel_slack * (block_sq + max_sq)
        if np.all(np.isfinite(limit)):
            width = int((approx <= limit[:, None]).sum(axis=1).max())
        else:  # non-finite queries: rank the whole bank
            width = bank.size
        if width > n:
            del part  # one (chunk, P) index block at a time
            part = np.argpartition(approx, width - 1, axis=1)
        cand = np.sort(part[:, :width], axis=1)
        del part
        # One (chunk, width, D) float64 block, 14 MB at paper dims, kept whole
        # on purpose: once freed it raises glibc's dynamic mmap threshold, so
        # scoring's later per-sample arrays come from the heap. Bounded to
        # 4 MB it cut paper_fit's peak RSS by 30 MB but cost paper_inspect
        # 184,500 page faults per pass and about 0.4 s.
        diff = protos[cand]
        np.subtract(block[:, None, :], diff, out=diff)
        d = np.sqrt(np.einsum("bpd,bpd->bp", diff, diff))
        order = np.argsort(d, axis=1, kind="stable")[:, :n]
        out_idx[start : start + block.shape[0]] = np.take_along_axis(cand, order, axis=1)
        out_dist[start : start + block.shape[0]] = np.take_along_axis(d, order, axis=1)
    return out_idx, out_dist, bank.size < want


def covering_radius(bank: MemoryBank, features: np.ndarray) -> float:
    """Max over ``features`` of the distance to the nearest prototype."""
    _, dist, _ = query_neighbors_batch(bank, np.asarray(features, dtype=np.float32), 0)
    return float(dist[:, 0].max())


def save_bank(bank: MemoryBank, path):
    """Persist the prototypes as one tensor container."""
    write_tensor(path, bank.prototypes, {"kind": "memory_bank", "modality": bank.modality})


def load_bank(path) -> MemoryBank:
    protos, header = read_tensor(path)
    if header.get("kind") != "memory_bank":
        raise ConfigError(f"{path} is not a memory bank container")
    return MemoryBank(header["modality"], protos)
