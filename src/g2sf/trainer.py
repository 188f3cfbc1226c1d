"""Training loop for the scale network.

One optimizer drives every parameter, with the network weights at the base
learning rate (decoupled weight decay on weight matrices only) and the two
log-sigma globals at their own higher rate. Banks, the distance normalizer
and the m0 threshold are frozen preprocessing: no optimizer step touches
them. The loop is single-threaded and fully deterministic under a fixed
seed.
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
from .geometry import DistanceNormalizer
from .nn import Adam, LinearBlock
from .synthesis import TrainingPool
from .tensorio import read_tensor, write_tensor

__all__ = [
    "TrainConfig",
    "Checkpoint",
    "NegativeBatch",
    "make_negatives",
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


def _batch_inputs(pool: TrainingPool, banks, rows):
    """Gather concatenated prototype and direction inputs for batch rows."""
    m_pc = banks["pc"].prototypes[pool.idx_pc[rows]]
    m_rgb = banks["rgb"].prototypes[pool.idx_rgb[rows]]
    protos = np.concatenate([m_pc, m_rgb], axis=2)
    dirs = np.concatenate([pool.dir_pc[rows], pool.dir_rgb[rows]], axis=2)
    n = pool.n_neighbors
    joint = protos.shape[2]
    return protos.reshape(-1, joint), dirs.reshape(-1, joint), n


def _negative_inputs(pool: TrainingPool, banks, rows, neg: NegativeBatch):
    """Rank-0 inputs with the rgb half swapped in from the partner rows."""
    own = rows[neg.rows]
    partner = rows[neg.partners]
    m_pc = banks["pc"].prototypes[pool.idx_pc[own, 0]]
    d_pc = pool.dir_pc[own, 0]
    m_rgb_own = banks["rgb"].prototypes[pool.idx_rgb[own, 0]]
    d_rgb_own = pool.dir_rgb[own, 0]
    m_rgb_alt = banks["rgb"].prototypes[pool.idx_rgb[partner, 0]]
    d_rgb_alt = pool.dir_rgb[partner, 0]
    proto_swap = (neg.kinds == 0)[:, None]
    m_rgb = np.where(proto_swap, m_rgb_alt, m_rgb_own)
    d_rgb = np.where(~proto_swap, d_rgb_alt, d_rgb_own)
    return np.concatenate([m_pc, m_rgb], axis=1), np.concatenate([d_pc, d_rgb], axis=1)


def _forward_rows(model, pool, banks, rows, neg, training, rng):
    """Joint forward over batch positives (all ranks) and negatives (rank 0)."""
    protos, dirs, n = _batch_inputs(pool, banks, rows)
    n_pos = protos.shape[0]
    if neg is not None and len(neg):
        neg_p, neg_d = _negative_inputs(pool, banks, rows, neg)
        protos = np.concatenate([protos, neg_p.astype(protos.dtype)], axis=0)
        dirs = np.concatenate([dirs, neg_d.astype(dirs.dtype)], axis=0)
    w_all, cache = lspn_mod.forward_batch(model, protos, dirs, training=training, rng=rng)
    w = w_all[:n_pos].astype(np.float64).reshape(len(rows), n, 2)
    w_neg = w_all[n_pos:].astype(np.float64)
    return w, w_neg, cache, n_pos


def _metric_batch(pool, rows, w, sigma):
    s = np.stack([pool.s_pc[rows], pool.s_rgb[rows]], axis=2)
    l = lspn_mod.metric_values(w, s, sigma)
    return s, l


def _loss_on_rows(model, pool, banks, rows, neg, loss_cfg, training, rng):
    w, w_neg, cache, n_pos = _forward_rows(model, pool, banks, rows, neg, training, rng)
    sigma = model.sigma.astype(np.float64)
    s, l = _metric_batch(pool, rows, w, sigma)
    batch = losses_mod.LossBatch(y=pool.y[rows], l=l, s=s, w0=w[:, 0, :])
    return batch, w, w_neg, cache, n_pos, sigma


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
    weight_flags = lspn_mod.weight_flags(model)
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
                batch, w, w_neg, cache, n_pos, sigma = _loss_on_rows(
                    model, pool, banks, rows, neg, loss_cfg, True, rng
                )
                value, parts, dl, dw0, dneg = losses_mod.total_loss_with_grads(
                    batch, w_neg, loss_cfg, model
                )
                grad_w = dl[:, :, None] * batch.s * sigma
                grad_w[:, 0, :] += dw0
                grad_rows = np.concatenate([grad_w.reshape(n_pos, 2), dneg], axis=0)
                grads = lspn_mod.backward_batch(model, cache,
                                                grad_rows.astype(np.float32))
                if loss_cfg.l1_weight > 0:
                    for g, p, is_weight in zip(grads, lspn_mod.parameters(model),
                                               weight_flags):
                        if is_weight:
                            g += loss_cfg.l1_weight * np.sign(p)
                d_log_sigma = (dl[:, :, None] * w * batch.s).sum(axis=(0, 1)) * sigma
                grads.append(d_log_sigma.astype(np.float32))
                adam.step(lspn_mod.parameters(model), grads)
            except DivergenceError as exc:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: {exc}", checkpoint=last_good
                ) from exc

            sums["total"] += value
            for name in ("sep", "mar", "cns", "sc", "cma", "l1"):
                sums[name] += parts[name]
            n_batches += 1

        val_total = None
        if pool.val_indices.size >= 2:
            val_rng = np.random.default_rng(
                np.random.SeedSequence([int(train_cfg.seed), 0xA1, epoch]))
            neg = make_negatives(pool.y[pool.val_indices], val_rng)
            batch, _, w_neg, _, _, _ = _loss_on_rows(
                model, pool, banks, pool.val_indices, neg, loss_cfg, False, None
            )
            val_total, _ = losses_mod.total_loss(batch, w_neg, loss_cfg, model)
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
