"""Test oracles: the per-cell k-NN and geometric encoding, the dense scale
network and the scalar helpers built on it, the full-scan greedy coreset, and
the training pool encoded map by map.

Production code has one batched path for each of these computations. The
k-NN is :func:`g2sf.bank.query_neighbors_batch` and the encoding
:func:`g2sf.geometry.encode_map`: one GEMM shortlist and an exact re-rank
per chunk of rows, and neighbor ids and distances, never explicit
directions. :func:`query_neighbors` and :func:`encode` below do the same work
one feature at a time: a full sort of exact float64 distances, and the
(prototype, direction, distance) triplets written out, with :func:`decode`
to invert one.

Production code also never builds a row's 1920-wide prototype or direction
vector; it reads prototype ids, cell ids and inverse distances (see
:mod:`g2sf.lspn`). The oracles below do build them, the way the network was
first written: directions in float64 as :func:`encode` makes them, then cast
to the model dtype, and every layer a dense GEMM. Tests compare the factored
production path against them.

The dense network runs ReLU and dropout as separate passes that keep the
pre-activation and a float mask (:func:`relu`, :func:`dropout_forward` and
their backwards) and its linear layers as whole new products
(:func:`linear_backward`), so it stays independent of the fused
:func:`g2sf.nn.relu_dropout` and the in-place :func:`g2sf.nn.linear_backward`
it checks.

The rank metrics :func:`auroc_argsort` and :func:`aupro_curve_argsort` are
:func:`g2sf.evaluation.auroc` and :func:`g2sf.evaluation.aupro_curve` as
first written: each orders every pixel with one stable argsort and reads
ranks and cumulative sums at the ends of tied-score runs. Production code
sorts values only; the tests compare the two byte for byte.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from g2sf import nn
from g2sf.bank import _sq_distances
from g2sf.errors import ConfigError, ShapeError, UndefinedMetricError
from g2sf.geometry import DEGENERATE_EPS, encode_map, inverse_distances
from g2sf.lspn import Directions, Sources


# ---------------------------------------------------------------------------
# Per-cell k-NN and encoding
# ---------------------------------------------------------------------------


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


def query_neighbors(bank, f: np.ndarray, k: int) -> NeighborSet:
    """Exact 2k+1 nearest prototypes of ``f``, nearest first: a stable sort
    of the exact float64 distances to every prototype."""
    f = np.asarray(f)
    if f.shape != (bank.dim,):
        raise ShapeError(f"query shape {f.shape} != bank dim ({bank.dim},)")
    want = 2 * k + 1
    d = np.sqrt(_sq_distances(bank.prototypes, f))
    order = np.argsort(d, kind="stable")[:want]
    return NeighborSet(order, d[order], truncated=bank.size < want)


@dataclass
class GeometricEncoding:
    """One (feature, neighbor) triplet in normalized units."""

    prototype_idx: int
    direction: np.ndarray
    distance: float
    degenerate: bool = False


def encode(f: np.ndarray, bank, k: int, normalizer) -> list:
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


def decode(enc: GeometricEncoding, bank, normalizer) -> np.ndarray:
    """Invert :func:`encode` for one triplet: m_j + (s * mean) * d."""
    mean = normalizer.mean_for(bank.modality)
    return bank.prototypes[enc.prototype_idx].astype(np.float64) + (
        enc.distance * mean
    ) * enc.direction


# ---------------------------------------------------------------------------
# Unfused activations
# ---------------------------------------------------------------------------


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient at 0 is taken as 0.
    return np.where(x > 0, grad_out, 0)


def dropout_forward(x, rate, rng=None, training=False):
    """Inverted dropout: zero entries w.p. ``rate``, scale survivors by 1/(1-rate).

    Returns (output, mask); the mask is None (nothing drawn) at inference
    and at rate 0.
    """
    x = np.asarray(x)
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"dropout rate {rate} outside [0, 1]")
    if not training or rate == 0.0:
        return x, None
    if rate >= 1.0:
        raise ConfigError("dropout rate 1.0 would zero every activation")
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask, mask


def dropout_backward(mask, grad_out: np.ndarray) -> np.ndarray:
    return grad_out if mask is None else grad_out * mask


def relu_dropout_backward(out: np.ndarray, grad_out: np.ndarray, rate: float) -> np.ndarray:
    """Gradient through :func:`g2sf.nn.relu_dropout` from the block's output
    ``out``, in place on ``grad_out``; returns it.

    An entry passes (times 1/(1-rate)) iff its output is positive: dropped
    entries and non-positive pre-activations both give 0 there. This is the
    mask :func:`g2sf.nn.linear_backward` applies as it writes its input
    gradient, in the same two products, so the two agree bit for bit.
    """
    scale = out.dtype.type(1) / out.dtype.type(1.0 - rate)
    grad_out *= out > 0
    if rate:
        grad_out *= scale
    return grad_out


def linear_backward(block, x, grad_out):
    """(grad_x, grad_weight, grad_bias) of ``y = W x + b``, each a whole new
    array, with nothing written over ``x`` and no activation applied."""
    x = np.atleast_2d(np.asarray(x))
    g = np.atleast_2d(np.asarray(grad_out))
    return g @ block.weight, g.T @ x, g.sum(axis=0)


# ---------------------------------------------------------------------------
# Dense network
# ---------------------------------------------------------------------------


@dataclass
class DenseCache:
    proto: list
    direc: list
    fusion: list
    final_input: np.ndarray
    final_pre: np.ndarray


def _stack_forward(blocks, x, training, rng):
    caches = []
    h = x
    for block in blocks:
        pre = nn.linear_forward(block, h)
        out, mask = dropout_forward(relu(pre), block.dropout_rate, rng, training)
        caches.append((h, pre, mask))
        h = out
    return h, caches


def _stack_backward(blocks, caches, grad):
    grads = [None] * len(blocks)
    for i in range(len(blocks) - 1, -1, -1):
        x, pre, mask = caches[i]
        g = relu_backward(pre, dropout_backward(mask, grad))
        grad, gw, gb = linear_backward(blocks[i], x, g)
        grads[i] = (gw, gb)
    return grad, grads


def dense_forward(model, protos, dirs, training=False, rng=None):
    """Scaling factors of dense rows: ``protos`` rows are concat(m_pc, m_rgb),
    ``dirs`` rows concat(d_pc, d_rgb). Returns (w (R, 2), DenseCache)."""
    protos = np.atleast_2d(protos)
    dirs = np.atleast_2d(dirs)
    joint = model.cfg.joint_dim
    if protos.shape[1] != joint or dirs.shape[1] != joint:
        raise ShapeError(f"expected joint width {joint}, got {protos.shape[1]} (protos) / "
                         f"{dirs.shape[1]} (dirs)")
    p_out, p_cache = _stack_forward(model.proto_branch, protos, training, rng)
    d_out, d_cache = _stack_forward(model.dir_branch, dirs, training, rng)
    h = np.concatenate([p_out, d_out], axis=1)
    f_out, f_cache = _stack_forward(model.fusion_head[:-1], h, training, rng)
    pre = nn.linear_forward(model.fusion_head[-1], f_out)
    return nn.exp_tanh(pre), DenseCache(p_cache, d_cache, f_cache, f_out, pre)


def dense_backward(model, cache: DenseCache, grad_w):
    """Gradients aligned with :func:`g2sf.lspn.parameters` (without log sigma)."""
    g = nn.exp_tanh_backward(cache.final_pre, grad_w)
    grad_h, gw_final, gb_final = linear_backward(model.fusion_head[-1], cache.final_input, g)
    grad_h, fusion_grads = _stack_backward(model.fusion_head[:-1], cache.fusion, grad_h)
    split = model.proto_branch[-1].out_dim
    _, proto_grads = _stack_backward(model.proto_branch, cache.proto, grad_h[:, :split])
    _, dir_grads = _stack_backward(model.dir_branch, cache.direc, grad_h[:, split:])
    out = []
    for gw, gb in proto_grads + dir_grads + fusion_grads:
        out.extend((gw, gb))
    out.extend((gw_final, gb_final))
    return out


def dense_rows(protos, cells, anchors, raw, prototypes, features, dtype=np.float32):
    """Dense rows of factored inputs: each (R, 2) id or raw-distance array
    names a row's (pc, rgb) prototypes, cells and direction anchors.
    Directions are (f - m) / r in float64, zero where r < DEGENERATE_EPS."""
    proto_rows, dir_rows = [], []
    for m in range(2):
        proto_rows.append(prototypes[m][protos[:, m]].astype(np.float64))
        offsets = (features[m][cells[:, m]].astype(np.float64)
                   - prototypes[m][anchors[:, m]].astype(np.float64))
        r = raw[:, m]
        direction = offsets / np.maximum(r, DEGENERATE_EPS)[:, None]
        direction[r < DEGENERATE_EPS] = 0.0
        dir_rows.append(direction)
    return (np.concatenate(proto_rows, axis=1).astype(dtype),
            np.concatenate(dir_rows, axis=1).astype(dtype))


def dense_pool_rows(pool, banks, rows, neg=None, dtype=np.float32):
    """Dense rows of pooled cells ``rows`` and their negatives, assembled the
    way the trainer did before its inputs were factored."""
    ids = np.stack([pool.idx_pc[rows], pool.idx_rgb[rows]], axis=2)
    raw = np.stack([pool.r_pc[rows], pool.r_rgb[rows]], axis=2)
    cells = np.broadcast_to(np.arange(len(rows))[:, None, None], ids.shape).reshape(-1, 2)
    prototypes = (banks["pc"].prototypes, banks["rgb"].prototypes)
    features = (pool.feat_pc[rows], pool.feat_rgb[rows])
    protos, dirs = dense_rows(ids.reshape(-1, 2), cells, ids.reshape(-1, 2),
                              raw.reshape(-1, 2), prototypes, features, dtype)
    if neg is None or not len(neg):
        return protos, dirs
    n = pool.n_neighbors
    own, partner = neg.rows * n, neg.partners * n  # rank-0 row of each cell
    half = pool.feat_pc.shape[1]
    proto_swap = (neg.kinds == 0)[:, None]
    neg_p = np.concatenate([protos[own, :half],
                            np.where(proto_swap, protos[partner, half:], protos[own, half:])],
                           axis=1)
    neg_d = np.concatenate([dirs[own, :half],
                            np.where(~proto_swap, dirs[partner, half:], dirs[own, half:])],
                           axis=1)
    return np.concatenate([protos, neg_p]), np.concatenate([dirs, neg_d])


def random_inputs(rng, cfg, n, scale=1.0, n_protos=6):
    """Factored inputs (protos, Directions, Sources) of ``n`` rows, one cell
    each, from random prototypes and features at ``scale``, with the true
    inverse distances between them."""
    dims = (cfg.dim_pc, cfg.dim_rgb)
    prototypes = tuple((scale * rng.standard_normal((n_protos, d))).astype(np.float32)
                       for d in dims)
    features = tuple((scale * rng.standard_normal((n, d))).astype(np.float32) for d in dims)
    ids = rng.integers(0, n_protos, size=(n, 2))
    raw = np.stack([np.linalg.norm(features[m].astype(np.float64) - prototypes[m][ids[:, m]],
                                   axis=1) for m in range(2)], axis=1)
    cells = np.stack([np.arange(n)] * 2, axis=1)
    return ids, Directions(cells, ids, inverse_distances(raw)), Sources(prototypes, features)


def bincount_segment_sum(ids, values, size, scale=None):
    """(size, H) float64 sums of the rows of ``values`` (times ``scale``) that
    share an id, as one bincount over flattened ``id * H + column`` bins: one
    group of the scatter :func:`g2sf.lspn._segment_sums` computes, for all of
    a branch's groups at once, with one sparse product. Both add each id's
    rows in row order."""
    h = values.shape[1]
    weights = values.astype(np.float64)
    if scale is not None:
        weights = weights * scale[:, None]
    flat = (ids[:, None] * h + np.arange(h)).ravel()
    return np.bincount(flat, weights=weights.ravel(), minlength=size * h).reshape(size, h)


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------


def lspn_forward(model, m_pc, m_rgb, d_pc, d_rgb, training=False, rng=None):
    """Single-pair convenience wrapper; returns (w_pc, w_rgb) floats."""
    protos = np.concatenate([np.asarray(m_pc), np.asarray(m_rgb)])[None, :]
    dirs = np.concatenate([np.asarray(d_pc), np.asarray(d_rgb)])[None, :]
    w, _ = dense_forward(model, protos, dirs, training=training, rng=rng)
    return float(w[0, 0]), float(w[0, 1])


@dataclass
class MetricValue:
    l: float
    w_pc: float
    w_rgb: float
    s_pc: float
    s_rgb: float


def fused_metric(model, enc_pc: GeometricEncoding, enc_rgb: GeometricEncoding,
                 banks: dict) -> MetricValue:
    m_pc = banks["pc"].prototypes[enc_pc.prototype_idx]
    m_rgb = banks["rgb"].prototypes[enc_rgb.prototype_idx]
    w_pc, w_rgb = lspn_forward(model, m_pc, m_rgb, enc_pc.direction, enc_rgb.direction)
    l = w_pc * enc_pc.distance * model.sigma_pc + w_rgb * enc_rgb.distance * model.sigma_rgb
    return MetricValue(float(l), w_pc, w_rgb, enc_pc.distance, enc_rgb.distance)


def score_cell(model, encodings_pc, encodings_rgb, k: int, banks, foreground=True) -> float:
    """Min over ranks 0..k of the fused metric for one cell.

    ``encodings_*`` are the per-rank :class:`GeometricEncoding` lists of the
    cell; background cells use the unit-scale bypass.
    """
    if len(encodings_pc) < k + 1 or len(encodings_rgb) < k + 1:
        raise ShapeError(f"need encodings for ranks 0..{k}, got "
                         f"{len(encodings_pc)}/{len(encodings_rgb)}")
    values = []
    for j in range(k + 1):
        e_pc, e_rgb = encodings_pc[j], encodings_rgb[j]
        if foreground:
            values.append(fused_metric(model, e_pc, e_rgb, banks).l)
        else:
            values.append(e_pc.distance * model.sigma_pc + e_rgb.distance * model.sigma_rgb)
    return float(min(values))


# ---------------------------------------------------------------------------
# Coreset
# ---------------------------------------------------------------------------


def greedy_scan(space: np.ndarray, budget: int):
    """Greedy k-center over the rows of ``space`` by a full exact float64 scan
    per step.

    Returns (selected indices, final ``min_sq``): every step recomputes exact
    squared differences from all points to the new center, as
    :func:`g2sf.bank.build_bank` first did. Selected rows hold -inf.
    """
    selected = np.empty(budget, dtype=np.int64)
    selected[0] = 0
    min_sq = _sq_distances(space, space[0])
    min_sq[0] = -np.inf
    for i in range(1, budget):
        nxt = int(np.argmax(min_sq))  # argmax takes the lowest index on ties
        selected[i] = nxt
        np.minimum(min_sq, _sq_distances(space, space[nxt]), out=min_sq)
        min_sq[nxt] = -np.inf
    return selected, min_sq


# ---------------------------------------------------------------------------
# Negative pairing
# ---------------------------------------------------------------------------


def sattolo_scalar(n: int, rng) -> np.ndarray:
    """Sattolo's cyclic permutation with one scalar draw per swap, as
    :func:`g2sf.trainer._sattolo` first drew it."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


# ---------------------------------------------------------------------------
# Training pool
# ---------------------------------------------------------------------------


def pool_by_map_encoding(samples_with_labels, banks, normalizer, k: int) -> dict:
    """The arrays :func:`g2sf.synthesis.pool_from_samples` pools, keyed by
    :class:`~g2sf.synthesis.TrainingPool` field, built as it first built
    them: every cell of each map encoded with
    :func:`~g2sf.geometry.encode_map`, then the foreground rows kept. The
    split puts each even-numbered sample's cells in ``train_indices`` and
    each odd-numbered one's in ``val_indices``."""
    n = 2 * k + 1
    parts = {}
    halves = ([np.empty(0, np.int64)], [np.empty(0, np.int64)])
    start = 0
    for i, (pair, labels) in enumerate(samples_with_labels):
        sel = pair.foreground.reshape(-1)
        halves[i % 2].append(np.arange(start, start + sel.sum(), dtype=np.int64))
        start += sel.sum()
        found = {"y": np.asarray(labels, dtype=bool).reshape(-1)[sel].astype(np.uint8)}
        for m in ("pc", "rgb"):
            fmap = getattr(pair, m)
            enc = encode_map(fmap, banks[m], k, normalizer)
            found[f"feat_{m}"] = fmap.data.reshape(-1, fmap.dim)[sel]
            found[f"idx_{m}"] = enc.indices.reshape(-1, n)[sel]
            found[f"r_{m}"] = enc.raw_distances.reshape(-1, n)[sel]
            found[f"s_{m}"] = enc.distances.reshape(-1, n)[sel].astype(np.float64)
        for key, value in found.items():
            parts.setdefault(key, []).append(value)
    parts["train_indices"], parts["val_indices"] = halves
    return {key: np.concatenate(value) for key, value in parts.items()}


# ---------------------------------------------------------------------------
# Rank metrics
# ---------------------------------------------------------------------------


def _run_ends(sorted_values: np.ndarray) -> np.ndarray:
    """Index of the last element of each run of equal values."""
    return np.flatnonzero(np.append(sorted_values[1:] != sorted_values[:-1], True))


def auroc_argsort(scores, labels) -> float:
    """Mann-Whitney AUROC from the average ranks of one stable argsort."""
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    labels = np.asarray(labels).reshape(-1).astype(int)
    if scores.shape != labels.shape:
        raise ConfigError("scores and labels must have equal length")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    if scores.min() == scores.max():
        raise UndefinedMetricError("AUROC is undefined for constant scores")
    order = np.argsort(scores, kind="stable")
    ends = _run_ends(scores[order])
    starts = np.append(0, ends[:-1] + 1)
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)  # 1-based
    rank_sum = ranks[labels == 1].sum()
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def aupro_curve_argsort(score_maps, gt_masks):
    """(fpr, pro) points from every pixel in one descending order: score
    descending, ties by descending pixel index. Both axes are cumulative sums
    over that order (a normal pixel adds +0.0 to PRO) read at run ends."""
    from scipy import ndimage

    comp_ids, comp_sizes, scores = [], [], []
    next_comp = 0
    for smap, gt in zip(score_maps, gt_masks):
        smap = np.asarray(smap, dtype=np.float64)
        gt = np.asarray(gt, dtype=bool)
        labels, count = ndimage.label(gt, structure=np.ones((3, 3), dtype=bool))
        comp_ids.append(np.where(gt, labels + next_comp - 1, -1).reshape(-1))  # -1: normal
        comp_sizes.append(np.bincount(labels.reshape(-1), minlength=count + 1)[1:])
        next_comp += count
        scores.append(smap.reshape(-1))
    comp_ids = np.concatenate(comp_ids)
    scores = np.concatenate(scores)
    comp_sizes = np.concatenate(comp_sizes).astype(np.float64)
    if comp_sizes.size == 0:
        raise UndefinedMetricError("AUPRO needs at least one anomalous region")
    normal = comp_ids < 0
    n_normal = int(normal.sum())
    if n_normal == 0:
        raise UndefinedMetricError("AUPRO needs normal pixels for the FPR axis")
    order = np.argsort(scores, kind="stable")[::-1]
    ends = _run_ends(scores[order])
    normal = normal[order]
    region_weight = 1.0 / (comp_sizes * comp_sizes.size)
    weight = np.where(normal, 0.0, region_weight[comp_ids[order]])  # -1 rows are masked
    fpr = np.cumsum(normal)[ends] / n_normal
    pro = np.cumsum(weight)[ends]
    pro[np.cumsum(~normal)[ends] == normal.size - n_normal] = 1.0
    return np.append(0.0, fpr), np.append(0.0, pro)
