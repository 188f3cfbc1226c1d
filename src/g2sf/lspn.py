"""Local scale prediction network and the fused anisotropic metric.

The network reads, for each (cell, neighbor-rank) row, the prototypes of
both modalities and the unit directions from them to the cell's features.
Two parallel MLP branches (prototypes, directions) are fused and emit a pair
of scaling factors (w_pc, w_rgb) through exp(tanh(.)), so every factor lies
in [1/e, e] and is symmetric around the Euclidean baseline w = 1. The metric
for one (feature, neighbor-rank) pair is

    l = w_pc * s_pc * sigma_pc + w_rgb * s_rgb * sigma_rgb

with trainable positive global scales sigma (stored as log sigma).

Factored input layers. No row's joint-width prototype or direction vector
(1920 wide at the paper's dims) is ever built. A row names its prototypes by id, and its directions by
(cell, prototype id, 1/r): the encoding is seamless, f = m + r d, so
W d = (W f - W m) / r. The first pre-activations are

    prototype branch   T_pc[id_pc] + T_rgb[id_rgb] + b,          T_m = M_m W_m^T
    direction branch   sum_m (A_m[cell] - B_m[id_m]) / r_m + b,   A_m = F_m W_m^T,
                                                                   B_m = M_m W_m^T

where M_m are the bank prototypes, F_m the cells' features and W_m the
layer's columns for modality m. A row with r < DEGENERATE_EPS has 1/r = 0,
so its direction term is zero, as a zero direction would give. A and B are
float64 (at least): W f and W m nearly cancel when f sits close to its
prototype, and dividing their float32 difference by a small r multiplies its
rounding error by |f| / r (at r / |f| = 1e-6 that is a few percent of the
pre-activation, against about 1e-10 in float64). The backward pass sums
each row's first-layer gradient onto its cell and onto its prototype and
forms the weight gradient as G_cell^T F - G_proto^T M, again in float64 for
the direction branch. It never forms a gradient with respect to the inputs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import nn
from .errors import ConfigError, ShapeError

__all__ = [
    "LspnConfig",
    "LspnModel",
    "Directions",
    "Sources",
    "init_model",
    "rank_rows",
    "forward_batch",
    "backward_batch",
    "metric_values",
    "parameters",
    "parameter_names",
    "weight_flags",
]


@dataclass
class LspnConfig:
    """Architecture knobs. Widths are free choices; the activation is not."""

    dim_pc: int = 1152
    dim_rgb: int = 768
    branch_widths: tuple = (512, 256)
    fusion_widths: tuple = (128,)
    dropout: float = 0.5

    @property
    def joint_dim(self) -> int:
        return self.dim_pc + self.dim_rgb

    def validate(self):
        if self.dim_pc < 1 or self.dim_rgb < 1:
            raise ConfigError("modality dims must be positive")
        if not self.branch_widths or not self.fusion_widths:
            raise ConfigError("branch and fusion widths must be non-empty")
        if any(w < 1 for w in self.branch_widths + self.fusion_widths):
            raise ConfigError("layer widths must be positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must lie in [0, 1)")


@dataclass
class LspnModel:
    cfg: LspnConfig
    proto_branch: list = field(default_factory=list)
    dir_branch: list = field(default_factory=list)
    fusion_head: list = field(default_factory=list)
    log_sigma: np.ndarray = None  # (2,): log sigma_pc, log sigma_rgb

    @property
    def sigma_pc(self) -> float:
        return float(np.exp(self.log_sigma[0]))

    @property
    def sigma_rgb(self) -> float:
        return float(np.exp(self.log_sigma[1]))

    @property
    def sigma(self) -> np.ndarray:
        return np.exp(self.log_sigma)

    def astype(self, dtype) -> "LspnModel":
        return LspnModel(
            cfg=self.cfg,
            proto_branch=[b.astype(dtype) for b in self.proto_branch],
            dir_branch=[b.astype(dtype) for b in self.dir_branch],
            fusion_head=[b.astype(dtype) for b in self.fusion_head],
            log_sigma=self.log_sigma.astype(dtype),
        )

    def copy(self) -> "LspnModel":
        model = self.astype(self.log_sigma.dtype)
        return model


def _init_block(rng, fan_in, fan_out, dropout):
    # Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) for weight and bias: a fan-in
    # scaled start that keeps pre-activations small enough for w ~ 1.
    bound = 1.0 / np.sqrt(fan_in)
    weight = rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(np.float32)
    bias = rng.uniform(-bound, bound, size=fan_out).astype(np.float32)
    return nn.LinearBlock(weight, bias, dropout)


def init_model(cfg: LspnConfig, seed: int) -> LspnModel:
    """Fan-in scaled random init; sigma starts at 0.5 per modality."""
    cfg.validate()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x157]))
    proto, direc, fusion = [], [], []
    for branch in (proto, direc):
        fan = cfg.joint_dim
        for width in cfg.branch_widths:
            branch.append(_init_block(rng, fan, width, cfg.dropout))
            fan = width
    fan = 2 * cfg.branch_widths[-1]
    for width in cfg.fusion_widths:
        fusion.append(_init_block(rng, fan, width, cfg.dropout))
        fan = width
    fusion.append(_init_block(rng, fan, 2, 0.0))  # final linear, no dropout
    log_sigma = np.full(2, np.log(0.5), dtype=np.float32)
    return LspnModel(cfg, proto, direc, fusion, log_sigma)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


class Directions(NamedTuple):
    """Direction-branch inputs of R rows; each field is (R, 2), modality order
    (pc, rgb). Row i's direction in modality m is
    ``(features[m][cells[i, m]] - prototypes[m][anchors[i, m]]) * inv_r[i, m]``
    with ``inv_r`` from :func:`g2sf.geometry.inverse_distances`."""

    cells: np.ndarray
    anchors: np.ndarray
    inv_r: np.ndarray


class Sources(NamedTuple):
    """What row ids point into: (pc, rgb) pairs of bank prototypes (P_m, D_m)
    and of cell features (C, D_m)."""

    prototypes: tuple
    features: tuple


def rank_rows(ids: np.ndarray, inv_r: np.ndarray):
    """(protos, :class:`Directions`) of every (cell, rank) row of C cells.

    ``ids`` (C, n, 2) are neighbor prototype ids and ``inv_r`` (C, n, 2) the
    inverse distances to them; rows run cell-major and cell ids are 0..C-1.
    """
    cells = np.broadcast_to(np.arange(ids.shape[0])[:, None, None], ids.shape)
    protos = ids.reshape(-1, 2)
    return protos, Directions(cells.reshape(-1, 2), protos, inv_r.reshape(-1, 2))


@dataclass
class _Cache:
    protos: np.ndarray
    dirs: Directions
    sources: Sources
    proto: list
    direc: list
    fusion: list
    final_input: np.ndarray
    final_pre: np.ndarray


# Elements of one float64 scratch block in the direction branch's first
# layer: rows are processed a block at a time so the gathered table rows stay
# in cache (256 KB), which runs the layer about three times faster than
# whole-batch temporaries.
_SCRATCH = 1 << 15


def _columns(cfg: LspnConfig):
    return slice(0, cfg.dim_pc), slice(cfg.dim_pc, cfg.joint_dim)


def _table_dtype(dtype):
    return np.promote_types(dtype, np.float64)


def _segment_sum(ids: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """(size, H) float64 sums of the rows of ``values`` that share an id.

    One bincount over flattened ``id * H + column`` indices: it adds in row
    order, so the sums are deterministic.
    """
    h = values.shape[1]
    flat = (ids[:, None] * h + np.arange(h)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=size * h).reshape(size, h)


def _proto_pre(model, protos, sources):
    block = model.proto_branch[0]
    dtype = block.weight.dtype
    pre = None
    for m, cols in enumerate(_columns(model.cfg)):
        table = sources.prototypes[m].astype(dtype, copy=False) @ block.weight[:, cols].T
        part = np.take(table, protos[:, m], axis=0)
        pre = part if pre is None else np.add(pre, part, out=pre)
    pre += block.bias
    return pre


def _direction_pre(model, dirs: Directions, sources):
    block = model.dir_branch[0]
    acc = _table_dtype(block.weight.dtype)
    tables = []  # (A_m, B_m, 1/r) per modality
    for m, cols in enumerate(_columns(model.cfg)):
        weight = block.weight[:, cols].astype(acc)
        tables.append((sources.features[m].astype(acc) @ weight.T,
                       sources.prototypes[m].astype(acc) @ weight.T,
                       np.ascontiguousarray(dirs.inv_r[:, m])))
    rows = dirs.cells.shape[0]
    pre = np.empty((rows, block.out_dim), block.weight.dtype)
    step = max(1, _SCRATCH // block.out_dim)
    for start in range(0, rows, step):
        part = slice(start, start + step)
        total = None
        for m, (a, b, inv_r) in enumerate(tables):
            term = np.take(a, dirs.cells[part, m], axis=0)
            term -= np.take(b, dirs.anchors[part, m], axis=0)
            term *= inv_r[part, None]
            total = term if total is None else np.add(total, term, out=total)
        pre[part] = total
    pre += block.bias
    return pre


def _proto_first_backward(model, cache: _Cache, g):
    block = model.proto_branch[0]
    grad_w = np.empty_like(block.weight)
    for m, cols in enumerate(_columns(model.cfg)):
        protos = cache.sources.prototypes[m]
        g_proto = _segment_sum(cache.protos[:, m], g, protos.shape[0])
        grad_w[:, cols] = g_proto.T @ protos.astype(g_proto.dtype)
    return grad_w, g.sum(axis=0)


def _direction_first_backward(model, cache: _Cache, g):
    block = model.dir_branch[0]
    acc = _table_dtype(block.weight.dtype)
    dirs, sources = cache.dirs, cache.sources
    grad_w = np.empty_like(block.weight)
    for m, cols in enumerate(_columns(model.cfg)):
        protos, feats = sources.prototypes[m], sources.features[m]
        g_row = g.astype(acc)
        g_row *= np.ascontiguousarray(dirs.inv_r[:, m])[:, None]
        g_cell = _segment_sum(dirs.cells[:, m], g_row, feats.shape[0])
        g_proto = _segment_sum(dirs.anchors[:, m], g_row, protos.shape[0])
        grad_w[:, cols] = g_cell.T @ feats.astype(acc) - g_proto.T @ protos.astype(acc)
    return grad_w, g.sum(axis=0)


def _stack_forward(blocks, x, training, rng, pre=None):
    """Run ``blocks`` on input ``x``. A factored branch passes its first
    pre-activation as ``pre`` instead (and ``x`` None). Caches (input,
    pre-activation, dropout mask) per block only when training."""
    caches = []
    h = x
    for i, block in enumerate(blocks):
        if i or pre is None:
            pre = nn.linear_forward(block, h)
        out, mask = nn.dropout_forward(nn.relu(pre), block.dropout_rate, rng, training)
        if training:
            caches.append((h, pre, mask))
        h = out
    return h, caches


def _stack_backward(blocks, caches, grad):
    """Backpropagate through ``blocks`` down to the first pre-activation.

    Returns (gradient of the first pre-activation, [(grad_w, grad_b)] of
    blocks[1:])."""
    grads = []
    for i in range(len(blocks) - 1, -1, -1):
        x, pre, mask = caches[i]
        g = nn.relu_backward(pre, nn.dropout_backward(mask, grad))
        if i == 0:
            return g, grads[::-1]
        grad, gw, gb = nn.linear_backward(blocks[i], x, g)
        grads.append((gw, gb))


def _check_inputs(model: LspnModel, protos, dirs: Directions, sources: Sources):
    rows = protos.shape[0]
    if protos.ndim != 2 or protos.shape[1] != 2:
        raise ShapeError(f"protos must be (rows, 2) prototype ids, got {protos.shape}")
    for name, arr in zip(Directions._fields, dirs):
        if np.shape(arr) != (rows, 2):
            raise ShapeError(f"dirs.{name} has shape {np.shape(arr)}, expected ({rows}, 2)")
    dims = (model.cfg.dim_pc, model.cfg.dim_rgb)
    for kind, pair in zip(Sources._fields, sources):
        got = tuple(np.shape(a)[1] if np.ndim(a) == 2 else None for a in pair)
        if got != dims:
            raise ShapeError(f"{kind} widths {got} != model dims {dims}")


def forward_batch(model: LspnModel, protos: np.ndarray, dirs: Directions, sources: Sources,
                  training: bool = False, rng=None):
    """Scaling factors for R rows: returns (w (R, 2), cache).

    ``protos`` (R, 2) holds each row's (pc, rgb) prototype ids into
    ``sources.prototypes``; ``dirs`` names each row's directions. With
    ``training`` dropout is active (when the rate is nonzero) and the cache
    for :func:`backward_batch` is kept; otherwise the cache is None.
    """
    protos = np.asarray(protos)
    _check_inputs(model, protos, dirs, sources)
    p_out, p_cache = _stack_forward(model.proto_branch, None, training, rng,
                                    pre=_proto_pre(model, protos, sources))
    d_out, d_cache = _stack_forward(model.dir_branch, None, training, rng,
                                    pre=_direction_pre(model, dirs, sources))
    h = np.concatenate([p_out, d_out], axis=1)
    del p_out, d_out
    f_out, f_cache = _stack_forward(model.fusion_head[:-1], h, training, rng)
    pre = nn.linear_forward(model.fusion_head[-1], f_out)
    w = nn.exp_tanh(pre)
    if not training:
        return w, None
    return w, _Cache(protos, dirs, sources, p_cache, d_cache, f_cache, f_out, pre)


def backward_batch(model: LspnModel, cache: _Cache, grad_w: np.ndarray):
    """Backpropagate dLoss/dw; returns gradients aligned with :func:`parameters`
    (network parameters only; sigma gradients are chained by the caller)."""
    if cache is None:
        raise ConfigError("backward_batch needs the cache of a training-mode forward")
    g = nn.exp_tanh_backward(cache.final_pre, grad_w)
    grad_h, gw_final, gb_final = nn.linear_backward(model.fusion_head[-1], cache.final_input, g)
    hidden = model.fusion_head[:-1]
    g_first, fusion_grads = _stack_backward(hidden, cache.fusion, grad_h)
    grad_h, gw, gb = nn.linear_backward(hidden[0], cache.fusion[0][0], g_first)
    fusion_grads = [(gw, gb)] + fusion_grads
    split = model.proto_branch[-1].out_dim
    g_first, proto_grads = _stack_backward(model.proto_branch, cache.proto, grad_h[:, :split])
    proto_grads = [_proto_first_backward(model, cache, g_first)] + proto_grads
    g_first, dir_grads = _stack_backward(model.dir_branch, cache.direc, grad_h[:, split:])
    dir_grads = [_direction_first_backward(model, cache, g_first)] + dir_grads
    out = []
    for gw, gb in proto_grads + dir_grads + fusion_grads:
        out.extend((gw, gb))
    out.extend((gw_final, gb_final))
    return out


# ---------------------------------------------------------------------------
# Fused metric
# ---------------------------------------------------------------------------


def metric_values(w: np.ndarray, s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Batched metric: (w * s * sigma).sum over the modality axis (last)."""
    return (w * s * sigma).sum(axis=-1)


# ---------------------------------------------------------------------------
# Parameter plumbing
# ---------------------------------------------------------------------------


def _blocks(model: LspnModel):
    return model.proto_branch + model.dir_branch + model.fusion_head


def parameters(model: LspnModel):
    """Flat parameter list (in-place updatable), log_sigma last."""
    out = []
    for block in _blocks(model):
        out.extend((block.weight, block.bias))
    out.append(model.log_sigma)
    return out


def parameter_names(model: LspnModel):
    names = []
    groups = (
        ("proto", model.proto_branch),
        ("dir", model.dir_branch),
        ("fusion", model.fusion_head),
    )
    for prefix, blocks in groups:
        for i in range(len(blocks)):
            names.extend((f"{prefix}_{i}_w", f"{prefix}_{i}_b"))
    names.append("log_sigma")
    return names


def weight_flags(model: LspnModel):
    """True for linear weight matrices (weight-decay / L1 targets)."""
    flags = []
    for _ in _blocks(model):
        flags.extend((True, False))
    flags.append(False)
    return flags

