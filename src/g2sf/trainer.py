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
forward, the five losses, and the chain rule down to every parameter. The
training step, validation and the gradient check in :mod:`g2sf.selftest` all
call it. A step's cache and gradients are released before validation, and
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

import json
import warnings
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import losses as losses_mod
from . import lspn as lspn_mod
from .errors import ConfigError, DivergenceError, FormatError, ShapeError, check_keys
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

CHECKPOINT_FORMAT = "g2sf-checkpoint-v5"


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
    train_cfg: TrainConfig
    epoch: int
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
    gradients are aligned with :func:`g2sf.lspn.parameters`: network
    gradients from the loss, the L1 sign term on weight matrices, and
    dLoss/dlog sigma last. Without ``grads`` the last item is None. The loss
    runs in float64 or wider; ``margin`` None takes the batch's own bounds.

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
    value, parts, dl, dw0, dneg = losses_mod.total_loss_with_grads(
        batch, w_neg, loss_cfg, model, margin)
    grad_w = dl[:, :, None] * s * sigma
    grad_w[:, 0, :] += dw0
    grad_rows = np.concatenate([grad_w.reshape(n_pos, 2), dneg], axis=0)
    out = lspn_mod.backward_batch(model, cache, grad_rows.astype(dtype))
    if loss_cfg.l1_weight > 0:
        for g, p in zip(out, lspn_mod.parameters(model)):
            if p.ndim == 2:  # weight matrices only
                g += loss_cfg.l1_weight * np.sign(p)
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
        sums = {name: 0.0 for name in ("total", "sep", "mar", "cns", "sc", "cma", "l1")}
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

            sums["total"] += value
            for name in ("sep", "mar", "cns", "sc", "cma", "l1"):
                sums[name] += parts[name]
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

    final = Checkpoint(model, normalizer, loss_cfg, train_cfg, train_cfg.epochs, banks)
    return final, log_rows, None


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, out_dir) -> list:
    """Persist a checkpoint as a JSON manifest plus one container per tensor.

    Returns the paths written, the manifest first.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = ckpt.model
    names = lspn_mod.parameter_names(model.cfg)[:-1]
    params = lspn_mod.parameters(model)[:-1]
    written = [out_dir / "manifest.json"]
    for name, param in zip(names, params):
        written.append(out_dir / "weights" / f"{name}.g2t")
        write_tensor(written[-1], param, {"kind": "weights"})
    doc = {
        "format": CHECKPOINT_FORMAT,
        "epoch": ckpt.epoch,
        "normalizer": ckpt.normalizer.to_dict(),
        "log_sigma": [float(v) for v in model.log_sigma],
        "loss": asdict(ckpt.loss_cfg),
        "train": asdict(ckpt.train_cfg),
        "lspn": asdict(model.cfg),
        "weights": names,
    }
    written[0].write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return written


def load_checkpoint(in_dir) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The model's parameter arrays are read-only; ``model.copy()`` is writable.
    A manifest that is missing, not a JSON object of this format, lacks a
    key, has a mistyped epoch, normalizer or log_sigma, or has a config
    section with an unknown or missing key or an lspn section that is
    invalid or disagrees with the weights raises :class:`ConfigError`
    naming ``in_dir`` (and key).
    """
    in_dir = Path(in_dir)
    try:
        doc = json.loads((in_dir / "manifest.json").read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{in_dir} holds no checkpoint manifest") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{in_dir} has a checkpoint manifest that is not JSON: {exc}") from exc
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != CHECKPOINT_FORMAT:
        raise ConfigError(f"{in_dir} has checkpoint format {fmt!r}, "
                          f"not {CHECKPOINT_FORMAT}; retrain it")
    try:
        return _checkpoint_from_manifest(in_dir, doc)
    except KeyError as exc:
        raise ConfigError(f"{in_dir} has a checkpoint manifest without key {exc}; "
                          "retrain it") from exc
    except (ConfigError, FormatError, ShapeError) as exc:
        raise ConfigError(f"{in_dir}: {exc}; retrain it") from exc


def _section(doc: dict, name: str, cls):
    """``cls`` from the manifest's ``name`` section: exactly its fields, lists as tuples."""
    part = check_keys(f"the manifest's {name} section", doc[name], [f.name for f in fields(cls)])
    return cls(**{key: tuple(v) if isinstance(v, list) else v for key, v in part.items()})


def _finite_numbers(value, count) -> bool:
    return isinstance(value, list) and len(value) == count and all(
        type(v) in (int, float) and np.isfinite(v) for v in value)


def _checkpoint_from_manifest(in_dir: Path, doc: dict) -> Checkpoint:
    means = check_keys("the manifest's normalizer", doc["normalizer"], ("mean_pc", "mean_rgb"))
    for key, ok, expected in (
            ("epoch", type(doc["epoch"]) is int and doc["epoch"] >= 0, "a nonnegative integer"),
            ("normalizer", all(type(v) in (int, float) and v > 0 for v in means.values()),
             "two positive means"),
            ("log_sigma", _finite_numbers(doc["log_sigma"], 2), "two finite numbers")):
        if not ok:
            raise ConfigError(f"the manifest's {key} is {doc[key]!r}, not {expected}")
    cfg = _section(doc, "lspn", lspn_mod.LspnConfig)
    names = lspn_mod.parameter_names(cfg)[:-1]
    if doc["weights"] != names:
        raise ConfigError(f"the manifest lists weights {doc['weights']}, but its lspn "
                          f"section gives {names}")
    params = []
    for name in names:
        array, header = read_tensor(in_dir / "weights" / f"{name}.g2t")
        if header.get("kind") != "weights":
            raise ConfigError(f"checkpoint tensor {name} has kind {header.get('kind')!r}")
        params.append(array)
    params.append(np.asarray(doc["log_sigma"], dtype=np.float32))
    model = lspn_mod.model_from_parameters(cfg, params)
    # Frozen as banks are, so scoring builds its first-layer tables once (g2sf.lspn).
    for param in params:
        param.setflags(write=False)
    return Checkpoint(model, DistanceNormalizer.from_dict(doc["normalizer"]),
                      _section(doc, "loss", losses_mod.LossConfig),
                      _section(doc, "train", TrainConfig), int(doc["epoch"]))
