"""Training loop for the scale network.

One optimizer drives every parameter, with the network weights at the base
learning rate (decoupled weight decay on weight matrices only) and the two
log-sigma globals at their own higher rate. Banks, the distance normalizer
and the m0 threshold are frozen preprocessing: no optimizer step touches
them. The loop is single-threaded and fully deterministic under a fixed
seed.

A batch is a set of pooled cells. :func:`batch_rows` turns it into the
network's factored inputs (every neighbor rank of each cell, then the
cross-modal negatives, which swap the rgb (cell, prototype) pair rather than
copying feature rows), and :func:`batch_objective` is the one objective:
forward, one pass of :mod:`g2sf.losses` (every term's value and gradient,
the L1 term's included), and the chain rule from the metric down to every
parameter. The training step, validation and the gradient check in
:mod:`g2sf.selftest` all call it. Each epoch's log sums the terms the loss
pass names. A step's cache and gradients are released before validation, and
validation keeps no training state.

Validation runs the network in chunks: cells in near-equal chunks of at most
``batch_size``, then the negatives in near-equal chunks of at most
``batch_size`` (2k+1) rows, the rank rows of a full batch. Only the
(cells, 2k+1, 2) metric arrays, 176 bytes a cell each at k = 5, span the
whole validation half, for the margin bounds and the losses. So
validation's memory is a bounded multiple of one training batch, whatever
the size of the half, and its bits are those of one forward over the half.
"""
from __future__ import annotations

import math
import typing
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import losses as losses_mod
from . import lspn as lspn_mod
from .errors import ConfigError, DivergenceError, FormatError, check_keys
from .geometry import DistanceNormalizer, inverse_distances
from .nn import Adam
from .synthesis import TrainingPool
from .tensorio import read_tensor, write_tensor

__all__ = [
    "TrainConfig",
    "Checkpoint",
    "NegativeBatch",
    "make_negatives",
    "batch_rows",
    "batch_objective",
    "scale_factors",
    "train",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "g2sf-checkpoint-v6"


@dataclass
class TrainConfig:
    epochs: int = 80
    batch_size: int = 8192
    lr: float = 1.5e-4
    weight_decay: float = 1.5e-4
    sigma_lr: float = 5e-3
    seed: int = 0

    def validate(self):
        for name, low in (("epochs", 0), ("batch_size", 2)):
            if getattr(self, name) < low:
                raise ConfigError(f"train.{name} must be >= {low}")
        if self.lr <= 0:
            raise ConfigError("train.lr must be positive")
        # sigma_lr == 0 freezes the global scales (collapse experiments).
        for name in ("sigma_lr", "weight_decay"):
            if getattr(self, name) < 0:
                raise ConfigError(f"train.{name} must be nonnegative")


@dataclass
class Checkpoint:
    model: lspn_mod.LspnModel
    normalizer: DistanceNormalizer
    loss_cfg: losses_mod.LossConfig  # the frozen m0 and the k of pooling and scoring
    banks: dict | None = None  # attached at load time, never persisted here

    @property
    def m0(self) -> float:
        return self.loss_cfg.m0


@dataclass
class NegativeBatch:
    """Cross-modal negatives: for each listed batch row, the rgb prototype
    (kind 0) or rgb direction (kind 1) is taken from a deranged partner row."""

    rows: np.ndarray
    partners: np.ndarray
    kinds: np.ndarray

    def __len__(self):
        return len(self.rows)


def _sattolo(n: int, rng) -> np.ndarray:
    """Uniform random cyclic permutation: a derangement for every n >= 2.

    The swap indices j_i < i, for i = n-1 down to 1, come from one vector
    draw, which consumes the generator as one scalar draw per i would.
    """
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), rng.integers(0, np.arange(n - 1, 0, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


def make_negatives(y: np.ndarray, rng) -> NegativeBatch:
    """Build negative pairings from the normal (y == 0) rows of a batch.

    Partners come from a derangement, so a row is never paired with itself;
    the permuted component (prototype vs direction) is a fair coin per row.
    Fewer than two normal rows yields an empty batch with a warning.
    """
    normal_rows = np.flatnonzero(np.asarray(y) == 0)
    if normal_rows.size < 2:
        warnings.warn("batch has fewer than two normal items; skipping negatives", stacklevel=2)
        empty = np.empty(0, dtype=np.int64)
        return NegativeBatch(empty, empty, empty)
    perm = _sattolo(normal_rows.size, rng)
    kinds = rng.integers(0, 2, size=normal_rows.size)
    return NegativeBatch(normal_rows, normal_rows[perm], kinds)


def batch_rows(pool: TrainingPool, banks, rows, neg: NegativeBatch | None = None,
               ranked: bool = True):
    """Network inputs of pooled cells ``rows``: every neighbor rank of each
    cell (none when not ``ranked``), then one rank-0 row per negative with its
    rgb half taken from the partner cell (the prototype for kind 0, the
    direction for kind 1). Negatives name cells by position in ``rows``.

    Returns (protos (R, 2), :class:`~g2sf.lspn.Directions`,
    :class:`~g2sf.lspn.Sources`, number of ranked rows). Each modality
    gathers the features of the cells its directions read, once each in
    position order, and directions name cells by position in that gather.
    With ``ranked`` that is every cell of ``rows``, so cell ids are positions
    in ``rows``; without, it is only the negatives' cells.
    """
    rows = np.asarray(rows)
    empty = np.empty(0, dtype=np.int64)
    neg = NegativeBatch(empty, empty, empty) if neg is None else neg
    own, partner = neg.rows, neg.partners
    proto_swap = neg.kinds == 0
    rgb = np.where(proto_swap, own, partner)  # whose rgb direction the row reads
    ranked_rows = rows if ranked else rows[:0]
    ranks = np.arange(ranked_rows.size)
    gathered = [np.unique(np.concatenate([ranks, cells])) for cells in (own, rgb)]
    ids = np.stack([pool.idx_pc[ranked_rows], pool.idx_rgb[ranked_rows]], axis=2)
    inv_r = np.stack([inverse_distances(pool.r_pc[ranked_rows]),
                      inverse_distances(pool.r_rgb[ranked_rows])], axis=2)
    protos, dirs = lspn_mod.rank_rows(ids, inv_r)
    if len(neg):
        own_rows, rgb_rows = rows[own], rows[rgb]
        rgb_proto = np.where(proto_swap, partner, own)  # whose rgb prototype it reads
        neg_protos = np.stack([pool.idx_pc[own_rows, 0], pool.idx_rgb[rows[rgb_proto], 0]],
                              axis=1)
        neg_dirs = (np.stack([np.searchsorted(gathered[0], own),
                              np.searchsorted(gathered[1], rgb)], axis=1),
                    np.stack([pool.idx_pc[own_rows, 0], pool.idx_rgb[rgb_rows, 0]], axis=1),
                    np.stack([inverse_distances(pool.r_pc[own_rows, 0]),
                              inverse_distances(pool.r_rgb[rgb_rows, 0])], axis=1))
        protos = np.concatenate([protos, neg_protos])
        dirs = lspn_mod.Directions(*map(np.concatenate, zip(dirs, neg_dirs)))
    sources = lspn_mod.Sources((banks["pc"].prototypes, banks["rgb"].prototypes),
                               (pool.feat_pc[rows[gathered[0]]],
                                pool.feat_rgb[rows[gathered[1]]]))
    return protos, dirs, sources, ranks.size * pool.n_neighbors


def _forward_plan(rows, neg: NegativeBatch, chunk, n_neighbors):
    """The :func:`batch_rows` arguments of each forward over ``rows`` and
    ``neg``: one forward for at most ``chunk`` cells (None: any number),
    otherwise near-equal chunks of at most ``chunk`` cells, then the
    negatives in near-equal chunks of at most ``chunk * n_neighbors`` rows.

    A negative chunk is as many rows as a cell chunk, not ``chunk`` rows:
    OpenBLAS has reproduced a GEMM's rows bit for bit on slices of 1,000 rows
    and more, but not on slices of a few hundred rows with two output
    columns, the shape of the scale network's last layer.
    """
    if chunk is None or rows.size <= chunk:
        return [(rows, neg, True)]
    plan = [(part, None, True) for part in np.array_split(rows, -(-rows.size // chunk))]
    if neg is not None and len(neg):
        for part in np.array_split(np.arange(len(neg)), -(-len(neg) // (chunk * n_neighbors))):
            plan.append((rows, NegativeBatch(neg.rows[part], neg.partners[part],
                                             neg.kinds[part]), False))
    return plan


def batch_objective(model, pool: TrainingPool, banks, rows, neg, loss_cfg,
                    margin=None, grads=False, rng=None, chunk=None):
    """The training objective on pooled cells ``rows`` plus negatives ``neg``.

    Returns (value, parts, margin, gradients). With ``grads`` the forward runs
    in training mode (dropout from ``rng`` when the model has any) and the
    gradients are aligned with :func:`g2sf.lspn.parameters`: the loss
    gradients chained through the metric and the network, plus the loss's
    own parameter gradients (L1), and dLoss/dlog sigma last. Without
    ``grads`` the last item is None. The loss runs in float64 or wider;
    ``margin`` None takes the batch's own bounds.

    ``chunk`` caps the cells of one network forward (see
    :func:`_forward_plan`); rows of at most ``chunk`` cells run as one
    forward, and a gradient objective must. The margin bounds and the losses
    always see every cell at once, so chunking changes no bit.
    """
    rows = np.asarray(rows)
    plan = _forward_plan(rows, neg, chunk, pool.n_neighbors)
    if grads and len(plan) > 1:
        raise ConfigError(f"a gradient batch of {rows.size} cells exceeds chunk {chunk}")
    w_pos, w_neg = [], []
    for args in plan:
        protos, dirs, sources, n_pos = batch_rows(pool, banks, *args)
        w_all, cache = lspn_mod.forward_batch(model, protos, dirs, sources, training=grads,
                                              rng=rng)
        w_pos.append(w_all[:n_pos])
        w_neg.append(w_all[n_pos:])
        del protos, dirs, sources, w_all
    dtype = model.log_sigma.dtype
    acc = np.promote_types(dtype, np.float64)
    w = np.concatenate(w_pos).astype(acc).reshape(len(rows), pool.n_neighbors, 2)
    w_neg = np.concatenate(w_neg).astype(acc)
    sigma = np.exp(model.log_sigma).astype(acc)
    s = np.stack([pool.s_pc[rows], pool.s_rgb[rows]], axis=2).astype(acc)
    batch = losses_mod.LossBatch(y=pool.y[rows], l=lspn_mod.metric_values(w, s, sigma),
                                 s=s, w0=w[:, 0, :])
    if margin is None:
        margin = losses_mod.margin_bounds(batch)
    if not grads:
        value, parts = losses_mod.total_loss(batch, w_neg, loss_cfg, model, margin)
        return value, parts, margin, None
    value, parts, dl, dw0, dneg, dparams = losses_mod.total_loss_with_grads(
        batch, w_neg, loss_cfg, model, margin)
    grad_w = dl[:, :, None] * s * sigma
    grad_w[:, 0, :] += dw0
    grad_rows = np.concatenate([grad_w.reshape(n_pos, 2), dneg], axis=0)
    out = lspn_mod.backward_batch(model, cache, grad_rows.astype(dtype))
    for i, grad in dparams:
        out[i] += grad
    d_log_sigma = (dl[:, :, None] * w * s).sum(axis=(0, 1)) * sigma
    out.append(d_log_sigma.astype(dtype))
    return value, parts, margin, out


def scale_factors(model, pool: TrainingPool, banks, rows) -> np.ndarray:
    """Inference scaling factors (len(rows), 2k+1, 2) of pooled cells ``rows``."""
    protos, dirs, sources, _ = batch_rows(pool, banks, rows)
    w, _ = lspn_mod.forward_batch(model, protos, dirs, sources)
    return w.reshape(len(rows), pool.n_neighbors, 2)


def train(pool: TrainingPool, banks, normalizer, lspn_cfg, train_cfg: TrainConfig,
          loss_cfg: losses_mod.LossConfig):
    """Train the scale network on a precomputed pool.

    Returns (Checkpoint, log_rows, None): the final model is the only one
    kept, and the checkpoint carries ``banks``, so it scores as it is; a
    non-finite loss raises :class:`DivergenceError` naming the epoch. The
    third slot is always None; the benchmark harness (``perfbench/``) still
    unpacks three items, and the slot goes with its next change. m0 is
    computed from the full pool before the first epoch when the loss config
    leaves it unset, then frozen. Each epoch ends with a validation pass
    whose network forwards run in chunks of at most ``train_cfg.batch_size``
    cells, so however large the validation half, a forward never spans more
    rows than a training step's. A validation half of fewer than two cells
    is skipped, with a warning, and logs ``val_total`` None. Dropout is
    ``lspn_cfg.dropout``. The :class:`TrainConfig` defaults (batch 8192,
    80 epochs) are the full-scale schedule; ``configs/desk.cfg`` shortens it.
    """
    train_cfg.validate()
    loss_cfg.validate()
    if pool.size == 0:
        raise ConfigError("training pool is empty")
    if pool.k != loss_cfg.k:
        raise ConfigError(f"pool was encoded for k={pool.k}, loss config has k={loss_cfg.k}")
    if loss_cfg.m0 is None:
        loss_cfg = replace(loss_cfg, m0=losses_mod.compute_m0(pool.s0()))
    skip_val = pool.val_indices.size < 2
    if skip_val:
        warnings.warn(f"the pool's validation half has {pool.val_indices.size} cells; "
                      "validation needs two, so every epoch logs val_total null",
                      stacklevel=2)

    model = lspn_mod.init_model(lspn_cfg, train_cfg.seed)
    # Decay on weight matrices only; the log-sigma group has its own rate.
    adam = Adam([(train_cfg.lr, train_cfg.weight_decay if p.ndim == 2 else 0.0)
                 for p in lspn_mod.parameters(model)[:-1]] + [(train_cfg.sigma_lr, 0.0)])

    rng = np.random.default_rng(np.random.SeedSequence([int(train_cfg.seed), 0xB0]))
    log_rows = []

    for epoch in range(train_cfg.epochs):
        order = rng.permutation(pool.train_indices)
        sums = {}
        n_batches = 0
        for start in range(0, order.size, train_cfg.batch_size):
            rows = order[start : start + train_cfg.batch_size]
            if rows.size < 2:
                continue
            neg = make_negatives(pool.y[rows], rng)
            try:
                value, parts, _, grads = batch_objective(
                    model, pool, banks, rows, neg, loss_cfg, grads=True, rng=rng)
                adam.step(lspn_mod.parameters(model), grads)
            except DivergenceError as exc:
                raise DivergenceError(f"training diverged at epoch {epoch + 1}: {exc}") from exc
            del grads  # the step's gradients are not kept through validation

            for name, term in (("total", value), *parts.items()):
                sums[name] = sums.get(name, 0.0) + term
            n_batches += 1

        val_total = None
        if not skip_val:
            val_rng = np.random.default_rng(
                np.random.SeedSequence([int(train_cfg.seed), 0xA1, epoch]))
            neg = make_negatives(pool.y[pool.val_indices], val_rng)
            val_total, _, _, _ = batch_objective(model, pool, banks, pool.val_indices, neg,
                                                 loss_cfg, chunk=train_cfg.batch_size)
            val_total /= pool.val_indices.size

        denom = max(1, n_batches)
        row = {"epoch": epoch + 1,
               "val_total": None if val_total is None else float(val_total),
               "sigma_pc": model.sigma_pc, "sigma_rgb": model.sigma_rgb}
        row.update({f"train_{k}": float(v) / denom for k, v in sums.items()})
        log_rows.append(row)

    return Checkpoint(model, normalizer, loss_cfg, banks), log_rows, None


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, path):
    """Persist a checkpoint as one tensor container at ``path``, as a bank is.

    The payload is :func:`g2sf.lspn.parameters` flattened in order, log sigma
    last. The header holds ``kind`` ``"checkpoint"``, ``format``, and what
    scoring reads besides the banks: the ``lspn``, ``loss`` and
    ``normalizer`` sections.
    """
    model = ckpt.model
    write_tensor(path, np.concatenate([p.ravel() for p in lspn_mod.parameters(model)]),
                 {"kind": "checkpoint", "format": CHECKPOINT_FORMAT, "lspn": asdict(model.cfg),
                  "loss": asdict(ckpt.loss_cfg), "normalizer": ckpt.normalizer.to_dict()})


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint container written by :func:`save_checkpoint`.

    The payload is split by the block shapes of the header's lspn section.
    The model's parameters are read-only views of it, so scoring builds its
    first-layer tables once (:mod:`g2sf.lspn`); ``model.copy()`` is
    writable. A path that is not a file (a directory is a checkpoint format
    before v6), a container that is malformed or of another kind or format, a
    header section with an unknown or missing key, a value not of its field's
    type or one its section's ``validate`` refuses, a normalizer that is not
    two finite positive means, or a payload whose size is not that network's
    raises :class:`ConfigError` naming ``path``.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path} is not a checkpoint file (checkpoints before "
                          f"{CHECKPOINT_FORMAT} are directories, checkpoints/final in a run); "
                          "retrain it")
    try:
        return _checkpoint_from_container(*read_tensor(path))
    except KeyError as exc:
        raise ConfigError(f"{path} has a checkpoint header without key {exc}; "
                          "retrain it") from exc
    except (ConfigError, FormatError) as exc:
        raise ConfigError(f"{path}: {exc}; retrain it") from exc


def _typed(value, hint) -> bool:
    """True when the JSON ``value`` is of the declared type ``hint``: a tuple
    is a list of ints, an int no bool, and a float (an int will do) finite."""
    kinds = typing.get_args(hint) or (hint,)
    if tuple in kinds:
        return isinstance(value, list) and all(_typed(v, int) for v in value)
    if type(value) is int:
        return int in kinds or float in kinds
    if type(value) is float:
        return float in kinds and math.isfinite(value)
    return value is None and type(None) in kinds


def _section(header: dict, name: str, cls):
    """``cls`` from the header's ``name`` section: exactly its fields, each of
    its declared type (lists as tuples), validated."""
    what = f"the header's {name} section"
    part = check_keys(what, header[name], [f.name for f in fields(cls)])
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if not _typed(part[f.name], hints[f.name]):
            raise ConfigError(f"{what} has {f.name} {part[f.name]!r}, not {f.type}")
    section = cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in part.items()})
    section.validate()
    return section


def _checkpoint_from_container(flat: np.ndarray, header: dict) -> Checkpoint:
    kind, fmt = header.get("kind"), header.get("format")
    if kind != "checkpoint" or fmt != CHECKPOINT_FORMAT:
        raise ConfigError(f"the container has kind {kind!r} and format {fmt!r}, "
                          f"not a {CHECKPOINT_FORMAT} checkpoint")
    means = check_keys("the header's normalizer", header["normalizer"], ("mean_pc", "mean_rgb"))
    if not all(_typed(v, float) and v > 0 for v in means.values()):
        raise ConfigError(f"the header's normalizer is {means!r}, not two finite positive means")
    cfg = _section(header, "lspn", lspn_mod.LspnConfig)
    shapes = [shape for _, fan_in, fan_out, _ in lspn_mod._layout(cfg)
              for shape in ((fan_out, fan_in), (fan_out,))] + [(2,)]
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    if flat.shape != (ends[-1],):
        raise ConfigError(f"the payload has shape {flat.shape}; the header's lspn section "
                          f"gives a network of {ends[-1]} values")
    # Read-only before slicing, so every parameter view is frozen (g2sf.lspn).
    flat.setflags(write=False)
    params = [part.reshape(shape) for part, shape in zip(np.split(flat, ends[:-1]), shapes)]
    return Checkpoint(lspn_mod.model_from_parameters(cfg, params),
                      DistanceNormalizer.from_dict(means),
                      _section(header, "loss", losses_mod.LossConfig))
