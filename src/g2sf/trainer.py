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
"""
from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import losses as losses_mod
from . import lspn as lspn_mod
from .errors import ConfigError, DivergenceError
from .geometry import DistanceNormalizer, inverse_distances
from .nn import Adam, LinearBlock
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
    "learning_curve",
]


@dataclass
class TrainConfig:
    epochs: int = 80
    batch_size: int = 8192
    lr: float = 1.5e-4
    weight_decay: float = 1.5e-4
    sigma_lr: float = 5e-3
    dropout: float = 0.5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    eval_every: int = 0  # snapshot cadence in epochs; 0 keeps only the final model

    def validate(self):
        if self.epochs < 0 or self.batch_size < 2:
            raise ConfigError("epochs must be >= 0 and batch_size >= 2")
        if self.lr <= 0 or self.sigma_lr < 0 or self.weight_decay < 0:
            # sigma_lr == 0 freezes the global scales (collapse experiments).
            raise ConfigError("lr must be positive, sigma_lr/weight_decay nonnegative")
        if not (0.0 <= self.dropout < 1.0):
            raise ConfigError("dropout must lie in [0, 1)")


@dataclass
class Checkpoint:
    model: lspn_mod.LspnModel
    normalizer: DistanceNormalizer
    m0: float
    epoch: int
    rng_state: dict | None = None
    config_hash: str = ""
    loss_cfg: losses_mod.LossConfig | None = None
    train_cfg: TrainConfig | None = None
    banks: dict | None = None  # attached at load time, never persisted here


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
    """Uniform random cyclic permutation: a derangement for every n >= 2."""
    perm = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i))
        perm[i], perm[j] = perm[j], perm[i]
    return perm


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


def batch_rows(pool: TrainingPool, banks, rows, neg: NegativeBatch | None = None):
    """Network inputs of pooled cells ``rows``: every neighbor rank of each
    cell, then one rank-0 row per negative with its rgb half taken from the
    partner cell (the prototype for kind 0, the direction for kind 1).

    Returns (protos (R, 2), :class:`~g2sf.lspn.Directions`,
    :class:`~g2sf.lspn.Sources`, number of positive rows). Cell ids are
    positions in ``rows``, whose features are the only ones gathered.
    """
    rows = np.asarray(rows)
    b, n = rows.size, pool.n_neighbors
    ids = np.stack([pool.idx_pc[rows], pool.idx_rgb[rows]], axis=2)
    inv_r = np.stack([inverse_distances(pool.r_pc[rows]),
                      inverse_distances(pool.r_rgb[rows])], axis=2)
    protos, dirs = lspn_mod.rank_rows(ids, inv_r)
    if neg is not None and len(neg):
        own, partner = neg.rows, neg.partners
        proto_swap = neg.kinds == 0
        neg_protos = ids[own, 0].copy()
        neg_protos[proto_swap, 1] = ids[partner[proto_swap], 0, 1]
        rgb = np.where(proto_swap, own, partner)  # whose rgb direction the row reads
        neg_dirs = (np.stack([own, rgb], axis=1),
                    np.stack([ids[own, 0, 0], ids[rgb, 0, 1]], axis=1),
                    np.stack([inv_r[own, 0, 0], inv_r[rgb, 0, 1]], axis=1))
        protos = np.concatenate([protos, neg_protos])
        dirs = lspn_mod.Directions(*map(np.concatenate, zip(dirs, neg_dirs)))
    sources = lspn_mod.Sources((banks["pc"].prototypes, banks["rgb"].prototypes),
                               (pool.feat_pc[rows], pool.feat_rgb[rows]))
    return protos, dirs, sources, b * n


def batch_objective(model, pool: TrainingPool, banks, rows, neg, loss_cfg,
                    margin=None, grads=False, rng=None):
    """The training objective on pooled cells ``rows`` plus negatives ``neg``.

    Returns (value, parts, margin, gradients). With ``grads`` the forward runs
    in training mode (dropout from ``rng`` when the model has any) and the
    gradients are aligned with :func:`g2sf.lspn.parameters`: network
    gradients from the loss, the L1 sign term on weight matrices, and
    dLoss/dlog sigma last. Without ``grads`` the last item is None. The loss
    runs in float64 or wider; ``margin`` None takes the batch's own bounds.
    """
    protos, dirs, sources, n_pos = batch_rows(pool, banks, rows, neg)
    w_all, cache = lspn_mod.forward_batch(model, protos, dirs, sources, training=grads, rng=rng)
    dtype = model.log_sigma.dtype
    acc = np.promote_types(dtype, np.float64)
    w = w_all[:n_pos].astype(acc).reshape(len(rows), pool.n_neighbors, 2)
    w_neg = w_all[n_pos:].astype(acc)
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
        for g, p, is_weight in zip(out, lspn_mod.parameters(model),
                                   lspn_mod.weight_flags(model)):
            if is_weight:
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
          loss_cfg: losses_mod.LossConfig, config_hash: str = ""):
    """Train the scale network on a precomputed pool.

    Returns (Checkpoint, log_rows, snapshots) where snapshots holds
    (epoch, Checkpoint) pairs taken every ``eval_every`` epochs. m0 is
    computed from the full pool before the first epoch when the loss config
    leaves it unset, then frozen.
    """
    train_cfg.validate()
    loss_cfg.validate()
    if pool.size == 0:
        raise ConfigError("training pool is empty")
    if pool.k != loss_cfg.k:
        raise ConfigError(f"pool was encoded for k={pool.k}, loss config has k={loss_cfg.k}")
    if loss_cfg.m0 is None:
        loss_cfg = replace(loss_cfg, m0=losses_mod.compute_m0(pool.s0()))

    lspn_cfg = replace(lspn_cfg, dropout=train_cfg.dropout)
    model = lspn_mod.init_model(lspn_cfg, train_cfg.seed)
    specs = []
    for is_weight in lspn_mod.weight_flags(model)[:-1]:
        specs.append((train_cfg.lr, train_cfg.weight_decay if is_weight else 0.0))
    specs.append((train_cfg.sigma_lr, 0.0))  # log-sigma group, no decay
    adam = Adam(specs, train_cfg.beta1, train_cfg.beta2, train_cfg.eps)

    rng = np.random.default_rng(np.random.SeedSequence([int(train_cfg.seed), 0xB0]))
    log_rows = []
    snapshots = []
    last_good = Checkpoint(model.copy(), normalizer, loss_cfg.m0, 0, None, config_hash,
                           loss_cfg, train_cfg, banks)

    for epoch in range(train_cfg.epochs):
        t0 = time.perf_counter()
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
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: {exc}", checkpoint=last_good
                ) from exc
            del grads  # the step's gradients are not kept through validation

            sums["total"] += value
            for name in ("sep", "mar", "cns", "sc", "cma", "l1"):
                sums[name] += parts[name]
            n_batches += 1

        val_total = None
        if pool.val_indices.size >= 2:
            val_rng = np.random.default_rng(
                np.random.SeedSequence([int(train_cfg.seed), 0xA1, epoch]))
            neg = make_negatives(pool.y[pool.val_indices], val_rng)
            val_total, _, _, _ = batch_objective(model, pool, banks, pool.val_indices, neg,
                                                 loss_cfg)
            val_total /= pool.val_indices.size

        denom = max(1, n_batches)
        row = {"epoch": epoch + 1,
               "val_total": None if val_total is None else float(val_total),
               "sigma_pc": model.sigma_pc, "sigma_rgb": model.sigma_rgb,
               "wall_time": time.perf_counter() - t0}
        row.update({f"train_{k}": float(v) / denom for k, v in sums.items()})
        log_rows.append(row)
        last_good = Checkpoint(model.copy(), normalizer, loss_cfg.m0, epoch + 1, None,
                               config_hash, loss_cfg, train_cfg, banks)
        if train_cfg.eval_every and (epoch + 1) % train_cfg.eval_every == 0:
            snapshots.append((epoch + 1, last_good))

    final = Checkpoint(
        model=model,
        normalizer=normalizer,
        m0=loss_cfg.m0,
        epoch=train_cfg.epochs,
        rng_state=rng.bit_generator.state,
        config_hash=config_hash,
        loss_cfg=loss_cfg,
        train_cfg=train_cfg,
        banks=banks,
    )
    return final, log_rows, snapshots


# ---------------------------------------------------------------------------
# Checkpoint persistence
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, out_dir):
    """Persist a checkpoint as a JSON manifest plus one container per tensor."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    model = ckpt.model
    names = lspn_mod.parameter_names(model)[:-1]
    params = lspn_mod.parameters(model)[:-1]
    for name, param in zip(names, params):
        write_tensor(out_dir / "weights" / f"{name}.g2t", param, {"kind": "weights"})
    doc = {
        "format": "g2sf-checkpoint-v1",
        "epoch": ckpt.epoch,
        "m0": ckpt.m0,
        "normalizer": ckpt.normalizer.to_dict(),
        "log_sigma": [float(v) for v in model.log_sigma],
        "config_hash": ckpt.config_hash,
        "rng_state": _jsonable_rng_state(ckpt.rng_state),
        "loss": asdict(ckpt.loss_cfg) if ckpt.loss_cfg else None,
        "train": asdict(ckpt.train_cfg) if ckpt.train_cfg else None,
        "lspn": {
            "dim_pc": model.cfg.dim_pc,
            "dim_rgb": model.cfg.dim_rgb,
            "branch_widths": list(model.cfg.branch_widths),
            "fusion_widths": list(model.cfg.fusion_widths),
            "dropout": model.cfg.dropout,
        },
        "weights": names,
    }
    (out_dir / "manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _jsonable_rng_state(state):
    if state is None:
        return None
    return json.loads(json.dumps(state, default=str))


def load_checkpoint(in_dir) -> Checkpoint:
    in_dir = Path(in_dir)
    try:
        doc = json.loads((in_dir / "manifest.json").read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{in_dir} holds no checkpoint manifest") from exc
    if doc.get("format") != "g2sf-checkpoint-v1":
        raise ConfigError(f"unknown checkpoint format {doc.get('format')!r}")
    cfg = lspn_mod.LspnConfig(
        dim_pc=doc["lspn"]["dim_pc"],
        dim_rgb=doc["lspn"]["dim_rgb"],
        branch_widths=tuple(doc["lspn"]["branch_widths"]),
        fusion_widths=tuple(doc["lspn"]["fusion_widths"]),
        dropout=doc["lspn"]["dropout"],
    )
    tensors = {}
    for name in doc["weights"]:
        array, header = read_tensor(in_dir / "weights" / f"{name}.g2t")
        if header.get("kind") != "weights":
            raise ConfigError(f"checkpoint tensor {name} has kind {header.get('kind')!r}")
        tensors[name] = array
    model = lspn_mod.LspnModel(cfg, [], [], [],
                               np.asarray(doc["log_sigma"], dtype=np.float32))
    layout = (("proto", model.proto_branch, len(cfg.branch_widths)),
              ("dir", model.dir_branch, len(cfg.branch_widths)),
              ("fusion", model.fusion_head, len(cfg.fusion_widths) + 1))
    for prefix, blocks, count in layout:
        for i in range(count):
            weight = tensors[f"{prefix}_{i}_w"]
            bias = tensors[f"{prefix}_{i}_b"]
            final = prefix == "fusion" and i == count - 1
            blocks.append(LinearBlock(weight, bias, 0.0 if final else cfg.dropout))
    loss_cfg = losses_mod.LossConfig(**doc["loss"]) if doc.get("loss") else None
    train_cfg = TrainConfig(**doc["train"]) if doc.get("train") else None
    return Checkpoint(
        model=model,
        normalizer=DistanceNormalizer.from_dict(doc["normalizer"]),
        m0=float(doc["m0"]),
        epoch=int(doc["epoch"]),
        rng_state=doc.get("rng_state"),
        config_hash=doc.get("config_hash", ""),
        loss_cfg=loss_cfg,
        train_cfg=train_cfg,
    )


def learning_curve(checkpoints, test_manifest, eval_cfg, banks=None):
    """Evaluate each checkpoint; returns one metrics row per epoch, sorted."""
    from .evaluation import eval_dataset

    rows = []
    for ckpt in checkpoints:
        if not isinstance(ckpt, Checkpoint):
            ckpt = load_checkpoint(ckpt)
        if ckpt.banks is None and banks is not None:
            ckpt.banks = banks
        report = eval_dataset(ckpt, test_manifest, eval_cfg)
        row = {"epoch": ckpt.epoch, "i_auroc": report.i_auroc, "p_auroc": report.p_auroc}
        row.update({f"aupro@{limit}": v for limit, v in report.aupro.items()})
        rows.append(row)
    rows.sort(key=lambda r: r["epoch"])
    return rows
