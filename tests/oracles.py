"""Test oracles: the dense scale network and the scalar helpers built on it.

Production code never builds a row's 1920-wide prototype or direction
vector; it reads prototype ids, cell ids and inverse distances (see
:mod:`g2sf.lspn`). The oracles below do build them, the way the network was
first written: directions in float64 as :func:`g2sf.geometry.encode` makes
them, then cast to the model dtype, and every layer a dense GEMM. Tests
compare the factored production path against them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from g2sf import nn
from g2sf.errors import ShapeError
from g2sf.geometry import DEGENERATE_EPS, GeometricEncoding, inverse_distances
from g2sf.lspn import Directions, Sources


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
        out, mask = nn.dropout_forward(nn.relu(pre), block.dropout_rate, rng, training)
        caches.append((h, pre, mask))
        h = out
    return h, caches


def _stack_backward(blocks, caches, grad):
    grads = [None] * len(blocks)
    for i in range(len(blocks) - 1, -1, -1):
        x, pre, mask = caches[i]
        g = nn.relu_backward(pre, nn.dropout_backward(mask, grad))
        grad, gw, gb = nn.linear_backward(blocks[i], x, g)
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
    grad_h, gw_final, gb_final = nn.linear_backward(model.fusion_head[-1], cache.final_input, g)
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

    ``encodings_*`` are the per-rank :class:`~g2sf.geometry.GeometricEncoding`
    lists of the cell; background cells use the unit-scale bypass.
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
