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
each row's first-layer gradient onto its cell and onto its prototype, in
float64, and forms the weight gradient as G_cell^T F - G_proto^T M. Each
branch takes all of its sums from products of one transposed sparse
(rows, ids) matrix with float64 copies of column blocks of its row
gradients: the direction branch's matrix holds each row's cell and anchor in
both modalities, weighted by 1/r, and the prototype branch's its two
prototypes. The product adds each id's rows in row order, so the sums are
deterministic. It never forms a gradient with respect to the inputs.

Prototype tables of frozen weights. T_m, and B_m with the float64 copy of
W_m it is built from, depend only on the first-layer weight and the bank.
When both arrays are read-only (every :class:`g2sf.bank.MemoryBank` is, and
so is a checkpoint from :func:`g2sf.trainer.load_checkpoint`, whose
parameters are views of its one read-only payload array), the tables are
built once and kept on the model, keyed by those two arrays, so scoring a
test split pays for them once per checkpoint and bank rather than once per
sample. Weights that are being trained are writable, so training and
validation rebuild the tables on every forward and can never read a stale
one. A_m depends on the sample's features and is built on every call.

A training-mode forward caches one array per hidden block: its output
(ReLU and dropout applied), which the next layer reads anyway. Each branch's
last output is copied into its half of the fusion head's input as soon as
the branch finishes, so the two are never joined by a concatenation. The
backward recovers each activation's gradient mask from the cached output,
so no pre-activation or dropout mask is kept.

The backward runs within that cache. Each layer's backward
(:func:`g2sf.nn.linear_backward`) reads its weight gradient from its cached
input and then writes its masked input gradient over that input, a block of
rows at a time; the fusion head's first layer does this on the fusion input,
masking each half with its own branch's rate. It runs the fusion head, then
both branch stacks down to their first pre-activations, and only then the two
factored first layers, one after the other, whose sums read float64 copies of
column blocks of about 8 MB. So a training step holds no row-sized array
beyond its forward cache, and the cache shrinks as the backward frees each
array it has consumed.
"""
from __future__ import annotations

import threading
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
    "model_from_parameters",
    "rank_rows",
    "forward_batch",
    "backward_batch",
    "metric_values",
    "parameters",
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
        for name in ("dim_pc", "dim_rgb"):
            if getattr(self, name) < 1:
                raise ConfigError(f"lspn.{name} must be positive")
        for name in ("branch_widths", "fusion_widths"):
            widths = getattr(self, name)
            if not widths or min(widths) < 1:
                raise ConfigError(f"lspn.{name} must be non-empty and positive")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("lspn.dropout must lie in [0, 1)")


@dataclass
class LspnModel:
    """Blocks of each stack, as :func:`_layout` lists them; build one with
    :func:`init_model` or :func:`model_from_parameters`."""

    cfg: LspnConfig
    proto_branch: list
    dir_branch: list
    fusion_head: list
    log_sigma: np.ndarray  # (2,): log sigma_pc, log sigma_rgb
    # First-layer prototype tables of frozen weights, (branch, modality) ->
    # _Tables; see _prototype_tables. Copies start with an empty cache.
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        return model_from_parameters(self.cfg, [p.astype(dtype) for p in parameters(self)])

    def copy(self) -> "LspnModel":
        return self.astype(self.log_sigma.dtype)


def _layout(cfg: LspnConfig):
    """(name, fan_in, fan_out, dropout) of each linear block, in parameter
    order: the prototype branch, the direction branch, then the fusion head,
    whose last block emits the two scaling factors and has no dropout."""
    cfg.validate()
    stacks = (("proto", cfg.joint_dim, cfg.branch_widths),
              ("dir", cfg.joint_dim, cfg.branch_widths),
              ("fusion", 2 * cfg.branch_widths[-1], tuple(cfg.fusion_widths) + (2,)))
    table = []
    for prefix, fan_in, widths in stacks:
        for i, fan_out in enumerate(widths):
            table.append((f"{prefix}_{i}", fan_in, fan_out, cfg.dropout))
            fan_in = fan_out
    table[-1] = table[-1][:3] + (0.0,)
    return table


def model_from_parameters(cfg: LspnConfig, params) -> LspnModel:
    """The model of ``cfg`` whose parameters, aligned with :func:`parameters`,
    are the arrays ``params``; it wraps them without copying.

    An array whose shape is not the one :func:`_layout` gives its block
    raises :class:`~g2sf.errors.ShapeError` naming the block.
    """
    table = _layout(cfg)
    if len(params) != 2 * len(table) + 1:
        raise ShapeError(f"{len(params)} parameter arrays for a network of {2 * len(table) + 1}")
    blocks = []
    for (name, fan_in, fan_out, dropout), weight, bias in zip(table, params[0::2], params[1::2]):
        if np.shape(weight) != (fan_out, fan_in) or np.shape(bias) != (fan_out,):
            raise ShapeError(f"block {name} has weight {np.shape(weight)} and bias "
                             f"{np.shape(bias)}, not ({fan_out}, {fan_in}) and ({fan_out},)")
        blocks.append(nn.LinearBlock(weight, bias, dropout))
    if np.shape(params[-1]) != (2,):
        raise ShapeError(f"log_sigma has shape {np.shape(params[-1])}, not (2,)")
    n = len(cfg.branch_widths)
    return LspnModel(cfg, blocks[:n], blocks[n:2 * n], blocks[2 * n:], params[-1])


def init_model(cfg: LspnConfig, seed: int) -> LspnModel:
    """Fan-in scaled random init; sigma starts at 0.5 per modality.

    Each block's weight and then its bias are drawn from Uniform(-1/sqrt(fan_in),
    1/sqrt(fan_in)), a start that keeps pre-activations small enough for w ~ 1.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x157]))
    params = []
    for _, fan_in, fan_out, _ in _layout(cfg):
        bound = 1.0 / np.sqrt(fan_in)
        params.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(np.float32))
        params.append(rng.uniform(-bound, bound, size=fan_out).astype(np.float32))
    params.append(np.full(2, np.log(0.5), dtype=np.float32))
    return model_from_parameters(cfg, params)


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
    """Inputs of a training-mode forward plus each hidden block's output.

    ``proto``, ``direc`` and ``fusion`` list the outputs of the hidden
    blocks of each stack. The branches' last outputs are the two halves of
    ``head_input``, the fusion head's input, and are cached as views of it.
    ``final_pre`` is the last linear layer's pre-activation (R, 2).

    :func:`backward_batch` consumes the cache: it pops each output from its
    list and sets every other field to None once read, so the memory goes as
    the backward proceeds and a consumed cache holds nothing."""

    protos: np.ndarray
    dirs: Directions
    sources: Sources
    proto: list
    direc: list
    head_input: np.ndarray
    fusion: list
    final_pre: np.ndarray

    def take(self, name: str):
        """The field ``name``, which the cache then releases (sets to None)."""
        value = getattr(self, name)
        setattr(self, name, None)
        return value


# Elements of one float64 scratch block in the direction branch's first
# layer: rows are processed a block at a time so the gathered table rows stay
# in cache (256 KB), which runs the layer about three times faster than
# whole-batch temporaries.
_SCRATCH = 1 << 15


def _columns(cfg: LspnConfig):
    return slice(0, cfg.dim_pc), slice(cfg.dim_pc, cfg.joint_dim)


def _table_dtype(dtype):
    return np.promote_types(dtype, np.float64)


# Elements of one float64 column block of the first layers' row gradients:
# each sparse product reads about 8 MB, not a float64 copy of every column.
_SUM_BLOCK = 1 << 20


def _segment_sums(values: np.ndarray, groups) -> list:
    """Segment sums of the rows of ``values`` (R, H), one (size, H) float64
    array per ``(ids, size, scale)`` group: row i adds ``values[i]``, times
    ``scale[i]`` when the group has a scale, onto row ``ids[i]`` of its sum.

    All groups share one transposed (R, total size) sparse matrix: row i
    holds one entry per group, in that group's block of columns. Its product
    runs on float64 copies of column blocks of ``values`` of at most
    ``_SUM_BLOCK`` elements (or one column), so ``values`` is copied to
    float64 whole only when it is that small. The CSC product walks the R
    rows in order, so each sum adds its rows in row order (the order of a
    per-group CSR one-hot product, and of :func:`numpy.bincount`) and is
    deterministic; each output column reads only its own input column, so
    the blocks change no bit. The sums are views of one (total size, H)
    array.
    """
    # Imported here, where training needs it: in a process that has loaded
    # no other part of scipy, the import costs about 0.2 s and 16 MB of RSS,
    # which every other process (each other CLI stage, scoring) is spared.
    import scipy.sparse

    rows, width = values.shape[0], len(groups)
    bounds = np.cumsum([0] + [size for _, size, _ in groups])
    indices = np.empty((rows, width), np.int64)
    data = np.empty((rows, width))
    for j, (ids, _, scale) in enumerate(groups):
        np.add(ids, bounds[j], out=indices[:, j])
        data[:, j] = 1.0 if scale is None else scale
    indptr = np.arange(0, rows * width + 1, width)
    matrix = scipy.sparse.csc_matrix((data.reshape(-1), indices.reshape(-1), indptr),
                                     shape=(int(bounds[-1]), rows))
    step = max(1, _SUM_BLOCK // max(1, rows))
    if step >= values.shape[1]:  # one block, whose product is the sums
        sums = matrix @ np.ascontiguousarray(values, dtype=np.float64)
    else:
        sums = np.empty((int(bounds[-1]), values.shape[1]))
        for lo in range(0, values.shape[1], step):
            cols = slice(lo, lo + step)
            sums[:, cols] = matrix @ np.ascontiguousarray(values[:, cols], dtype=np.float64)
    return [sums[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


class _Tables(NamedTuple):
    """Cached tables of one (branch, modality) and the two arrays they were
    built from; held so that neither array's id can be reused while cached."""

    weight: np.ndarray
    prototypes: np.ndarray
    value: tuple


_TABLES_LOCK = threading.Lock()  # serializes fills from scoring's thread pool


def _frozen(array: np.ndarray) -> bool:
    """True when neither ``array`` nor any array whose memory it views is writable."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    return array is None or isinstance(array, bytes)


def _build_tables(model, branch: str, m: int, prototypes):
    cols = _columns(model.cfg)[m]
    if branch == "proto":
        weight = model.proto_branch[0].weight
        return (prototypes.astype(weight.dtype, copy=False) @ weight[:, cols].T,)
    weight = model.dir_branch[0].weight
    weight = weight[:, cols].astype(_table_dtype(weight.dtype))
    return weight, prototypes.astype(weight.dtype) @ weight.T


def _prototype_tables(model, branch: str, m: int, prototypes):
    """First-layer tables of modality ``m`` in ``branch``: (T_m,) for the
    prototype branch, (W_m as float64 (H, D_m), B_m) for the direction branch.

    Built on every call unless the branch's first-layer weight and
    ``prototypes`` are both frozen; then the tables are cached on ``model``
    and rebuilt only when either array is replaced.
    """
    weight = (model.proto_branch if branch == "proto" else model.dir_branch)[0].weight
    if not (_frozen(weight) and _frozen(prototypes)):
        return _build_tables(model, branch, m, prototypes)
    with _TABLES_LOCK:
        hit = model._tables.get((branch, m))
        if hit is None or hit.weight is not weight or hit.prototypes is not prototypes:
            hit = _Tables(weight, prototypes, _build_tables(model, branch, m, prototypes))
            model._tables[(branch, m)] = hit
        return hit.value


def _proto_pre(model, protos, sources):
    block = model.proto_branch[0]
    pre = None
    for m in range(2):
        (table,) = _prototype_tables(model, "proto", m, sources.prototypes[m])
        part = np.take(table, protos[:, m], axis=0)
        pre = part if pre is None else np.add(pre, part, out=pre)
    pre += block.bias
    return pre


def _direction_pre(model, dirs: Directions, sources):
    block = model.dir_branch[0]
    tables = []  # (A_m, B_m, 1/r) per modality
    for m in range(2):
        weight, b = _prototype_tables(model, "dir", m, sources.prototypes[m])
        tables.append((sources.features[m].astype(weight.dtype) @ weight.T, b,
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


def _proto_first_backward(model, protos, sources: Sources, g):
    block = model.proto_branch[0]
    acc = _table_dtype(block.weight.dtype)
    prototypes = sources.prototypes
    g_proto = _segment_sums(g, [(protos[:, m], prototypes[m].shape[0], None) for m in range(2)])
    grad_w = np.empty_like(block.weight)
    for m, cols in enumerate(_columns(model.cfg)):
        grad_w[:, cols] = g_proto[m].T @ prototypes[m].astype(acc)
    return grad_w, g.sum(axis=0)


def _direction_first_backward(model, dirs: Directions, sources: Sources, g):
    block = model.dir_branch[0]
    acc = _table_dtype(block.weight.dtype)
    groups = []  # per modality: cells, then anchors, each weighted by 1/r
    for m in range(2):
        inv_r = dirs.inv_r[:, m]
        groups += [(dirs.cells[:, m], sources.features[m].shape[0], inv_r),
                   (dirs.anchors[:, m], sources.prototypes[m].shape[0], inv_r)]
    sums = _segment_sums(g, groups)
    grad_w = np.empty_like(block.weight)
    for m, cols in enumerate(_columns(model.cfg)):
        g_cell, g_proto = sums[2 * m], sums[2 * m + 1]
        grad_w[:, cols] = (g_cell.T @ sources.features[m].astype(acc)
                           - g_proto.T @ sources.prototypes[m].astype(acc))
    return grad_w, g.sum(axis=0)


def _stack_forward(blocks, x, training, rng, pre=None):
    """Run ``blocks`` on input ``x``. A factored branch passes its first
    pre-activation as ``pre`` instead (and ``x`` None). When training,
    returns each block's output as its cache; otherwise the list is empty."""
    outputs = []
    h = x
    for i, block in enumerate(blocks):
        if i or pre is None:
            pre = nn.linear_forward(block, h)
        h = nn.relu_dropout(pre, block.dropout_rate, rng, training)
        if training:
            outputs.append(h)
    return h, outputs


def _stack_backward(blocks, outputs, g):
    """Backpropagate from the last block's pre-activation gradient ``g`` down
    to the first block's.

    ``outputs`` lists the cached outputs of blocks[:-1]; each is popped and
    overwritten with its block's pre-activation gradient, so the list is
    empty on return and the gradients live in the cache's memory. Returns
    (gradient of the first pre-activation, [(grad_w, grad_b)] of blocks[1:])."""
    grads = []
    for i in range(len(blocks) - 1, 0, -1):
        g, gw, gb = nn.linear_backward(blocks[i], outputs.pop(), g,
                                       (blocks[i - 1].dropout_rate,))
        grads.append((gw, gb))
    return g, grads[::-1]


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
    # Each branch's last output goes into its half of the fusion input as the
    # branch ends, and a training cache holds that half in its place.
    split = p_out.shape[1]
    h = np.empty((p_out.shape[0], 2 * split), p_out.dtype)
    h[:, :split] = p_out
    if training:
        p_cache[-1] = h[:, :split]
    del p_out
    d_out, d_cache = _stack_forward(model.dir_branch, None, training, rng,
                                    pre=_direction_pre(model, dirs, sources))
    h[:, split:] = d_out
    if training:
        d_cache[-1] = h[:, split:]
    del d_out
    f_out, f_cache = _stack_forward(model.fusion_head[:-1], h, training, rng)
    pre = nn.linear_forward(model.fusion_head[-1], f_out)
    w = nn.exp_tanh(pre)
    if not training:
        return w, None
    return w, _Cache(protos, dirs, sources, p_cache, d_cache, h, f_cache, pre)


def backward_batch(model: LspnModel, cache: _Cache, grad_w: np.ndarray):
    """Backpropagate dLoss/dw; returns gradients aligned with :func:`parameters`
    (network parameters only; sigma gradients are chained by the caller).

    Consumes ``cache`` (see :class:`_Cache`): a second call on it raises
    :class:`~g2sf.errors.ConfigError`.
    """
    if cache is None:
        raise ConfigError("backward_batch needs the cache of a training-mode forward")
    final_pre = cache.take("final_pre")
    if final_pre is None:
        raise ConfigError("backward_batch was already run on this cache, which it releases "
                          "as it reads; run a new training-mode forward")
    g = nn.exp_tanh_backward(final_pre, grad_w)
    g, fusion_grads = _stack_backward(model.fusion_head, cache.fusion, g)
    rates = (model.proto_branch[-1].dropout_rate, model.dir_branch[-1].dropout_rate)
    _, gw, gb = nn.linear_backward(model.fusion_head[0], cache.take("head_input"), g, rates)
    del g
    fusion_grads.insert(0, (gw, gb))
    # The fusion input now holds both branches' last pre-activation
    # gradients, in the halves the caches view.
    g_proto, proto_grads = _stack_backward(model.proto_branch, cache.proto, cache.proto.pop())
    g_dir, dir_grads = _stack_backward(model.dir_branch, cache.direc, cache.direc.pop())
    # Only the two first-layer gradients are left, in the memory of the
    # branches' first outputs.
    protos, dirs, sources = cache.take("protos"), cache.take("dirs"), cache.take("sources")
    proto_grads.insert(0, _proto_first_backward(model, protos, sources, g_proto))
    del g_proto
    dir_grads.insert(0, _direction_first_backward(model, dirs, sources, g_dir))
    out = []
    for gw, gb in proto_grads + dir_grads + fusion_grads:
        out.extend((gw, gb))
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
