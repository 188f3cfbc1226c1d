"""Training losses for the fused metric.

Five terms supervise the scale network: a separation term pulling normal
metric values down and anomalous ones up, a batch-wise margin term against
class overlap, a neighborhood consistency term bounding the metric across
the 2k+1 local spaces, an asymmetric scaling term anchoring the factors
themselves, and a cross-modal alignment term driving permuted (mismatched)
modality pairings toward the anomalous limit e.

All sums run over batch items, not means; hinges (x)_+ take subgradient 0 on
the inactive side and at the kink. The batch-wise margin bounds m_l / m_u
are treated as constants (no gradient through the min/max selection).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError

E = math.e
_SAFE_INV = 1e-8  # lower clamp for 1/l and the eta denominator

__all__ = [
    "LossConfig",
    "LossBatch",
    "sep_loss",
    "margin_loss",
    "margin_bounds",
    "consistency_loss",
    "eta_coefficients",
    "scaling_loss",
    "cma_loss",
    "l1_penalty",
    "compute_m0",
    "total_loss",
    "total_loss_with_grads",
]


@dataclass
class LossConfig:
    """Loss weights and shape parameters.

    ``m0`` is the stability threshold for the anomalous separation term; it
    is computed once from the training pool (see :func:`compute_m0`) and
    frozen before the first epoch.
    """

    alpha: float = 10.0
    beta: float = 60.0
    gamma: float = 8.0
    mu: float = 20.0
    k: int = 5
    eta0: float = 1.2
    m0: float | None = None
    l1_weight: float = 1e-4

    def validate(self):
        for name in ("alpha", "beta", "gamma", "mu", "eta0", "l1_weight"):
            if getattr(self, name) < 0:
                raise ConfigError(f"loss.{name} must be nonnegative")
        if self.k < 1:
            raise ConfigError("loss.k must be >= 1")
        if self.m0 is not None and self.m0 <= 0:
            raise ConfigError("loss.m0 must be positive")


@dataclass
class LossBatch:
    """Inputs the losses consume, already in normalized metric units.

    y: (B,) labels in {0,1}; l: (B, 2k+1) metric values ordered by neighbor
    rank; s: (B, 2k+1, 2) normalized distances (pc, rgb); w0: (B, 2) scaling
    factors at rank 0.
    """

    y: np.ndarray
    l: np.ndarray
    s: np.ndarray
    w0: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64)
        self.l = np.atleast_2d(np.asarray(self.l))
        self.s = np.asarray(self.s)
        self.w0 = np.atleast_2d(np.asarray(self.w0))
        b = self.y.shape[0]
        if self.l.shape[0] != b or self.s.shape[:2] != self.l.shape or self.w0.shape != (b, 2):
            raise ShapeError(
                f"inconsistent batch shapes: y {self.y.shape}, l {self.l.shape}, "
                f"s {self.s.shape}, w0 {self.w0.shape}"
            )


def _hinge(x):
    return np.maximum(x, 0.0)


def sep_loss(batch: LossBatch, m0: float) -> float:
    """Normal items pay l_0; anomalous items pay (1/l_0 - 1/m0)_+ (l clamped)."""
    if m0 <= 0:
        raise ShapeError("m0 must be positive")
    l0 = batch.l[:, 0]
    safe = np.maximum(l0, _SAFE_INV)
    terms = (1.0 - batch.y) * l0 + batch.y * _hinge(1.0 / safe - 1.0 / m0)
    return terms.sum()


def _sep_grad(batch: LossBatch, m0: float) -> np.ndarray:
    l0 = batch.l[:, 0]
    safe = np.maximum(l0, _SAFE_INV)
    active = (1.0 / safe - 1.0 / m0) > 0
    grad = (1.0 - batch.y).astype(np.float64)
    grad += batch.y * np.where(active & (l0 > _SAFE_INV), -1.0 / (safe * safe), 0.0)
    return grad


def margin_bounds(batch: LossBatch):
    """Batch-wise (m_l, m_u): min anomalous and max normal rank-0 metric.

    Returns None when the batch lacks one of the classes or m_u <= 0; the
    margin term is then skipped.
    """
    anom = batch.y > 0.5
    if not anom.any() or anom.all():
        return None
    m_l = float(batch.l[anom, 0].min())
    m_u = float(batch.l[~anom, 0].max())
    if m_u <= 0.0:
        return None
    return m_l, m_u


def margin_loss(batch: LossBatch, bounds=None):
    """Overlap penalty scaled by 1/m_u; returns (value, skipped)."""
    if bounds is None:
        bounds = margin_bounds(batch)
    if bounds is None:
        return 0.0, True
    m_l, m_u = bounds
    l0 = batch.l[:, 0]
    terms = (1.0 - batch.y) * _hinge(l0 - m_l) + batch.y * _hinge(m_u - l0)
    return terms.sum() / m_u, False


def _margin_grad(batch: LossBatch, bounds) -> np.ndarray:
    grad = np.zeros(batch.y.shape[0])
    if bounds is None:
        return grad
    m_l, m_u = bounds
    l0 = batch.l[:, 0]
    grad += (1.0 - batch.y) * (l0 > m_l) / m_u
    grad -= batch.y * (m_u > l0) / m_u
    return grad


def eta_coefficients(batch: LossBatch, eta0: float) -> np.ndarray:
    """Per-rank slack eta_j = eta0 * (s_pc_j + s_rgb_j) / (s_pc_0 + s_rgb_0)."""
    s_total = batch.s.sum(axis=-1)
    denom = np.maximum(s_total[:, :1], _SAFE_INV)
    return eta0 * s_total / denom


def consistency_loss(batch: LossBatch, eta0: float, k: int) -> float:
    """Proximal ranks bounded above by eta_j * l_0, distal ranks below by l_0."""
    if batch.l.shape[1] != 2 * k + 1:
        raise ShapeError(f"consistency loss needs 2k+1={2 * k + 1} ranks, got {batch.l.shape[1]}")
    eta = eta_coefficients(batch, eta0)
    l0 = batch.l[:, :1]
    proximal = _hinge(batch.l[:, 1 : k + 1] - eta[:, 1 : k + 1] * l0)
    distal = _hinge(l0 - batch.l[:, k + 1 :])
    return (proximal.sum() + distal.sum()) / k


def _consistency_grad(batch: LossBatch, eta0: float, k: int) -> np.ndarray:
    eta = eta_coefficients(batch, eta0)
    l0 = batch.l[:, :1]
    grad = np.zeros_like(batch.l, dtype=np.float64)
    prox_active = ((batch.l[:, 1 : k + 1] - eta[:, 1 : k + 1] * l0) > 0).astype(np.float64)
    dist_active = ((l0 - batch.l[:, k + 1 :]) > 0).astype(np.float64)
    grad[:, 1 : k + 1] += prox_active / k
    grad[:, :1] += -(prox_active * eta[:, 1 : k + 1] / k).sum(axis=1, keepdims=True)
    grad[:, k + 1 :] += -dist_active / k
    grad[:, :1] += dist_active.sum(axis=1, keepdims=True) / k
    return grad


def scaling_loss(batch: LossBatch) -> float:
    """Normals pay (w - 1)_+ per modality; anomalies pay (e - w)."""
    y = batch.y[:, None]
    terms = (1.0 - y) * _hinge(batch.w0 - 1.0) + y * (E - batch.w0)
    return terms.sum()


def _scaling_grad(batch: LossBatch) -> np.ndarray:
    y = batch.y[:, None]
    return (1.0 - y) * (batch.w0 > 1.0) - y


def cma_loss(neg_w: np.ndarray | None) -> float:
    """Sum of (e - w) over permuted-pair scaling factors; 0 for an empty batch."""
    if neg_w is None or len(neg_w) == 0:
        return 0.0
    neg_w = np.atleast_2d(neg_w)
    return (E - neg_w).sum()


def l1_penalty(model) -> float:
    from .lspn import parameters, weight_flags

    total = 0.0
    for param, is_weight in zip(parameters(model), weight_flags(model)):
        if is_weight:
            acc = np.float64 if param.dtype == np.float32 else param.dtype
            total = total + np.abs(param).sum(dtype=acc)
    return total


def compute_m0(s0: np.ndarray) -> float:
    """Stability threshold 2 * max rank-0 normalized distance over (N, 2)."""
    s0 = np.atleast_2d(np.asarray(s0))
    if s0.size == 0:
        raise ShapeError("cannot compute m0 from an empty pool")
    return float(2.0 * s0.max())


_TERMS = ("sep", "mar", "cns", "sc", "cma", "l1")


def combine_terms(parts: dict, cfg: LossConfig):
    """sep + alpha*mar + beta*cns + gamma*sc + mu*cma + l1_weight*l1."""
    return (
        parts["sep"]
        + cfg.alpha * parts["mar"]
        + cfg.beta * parts["cns"]
        + cfg.gamma * parts["sc"]
        + cfg.mu * parts["cma"]
        + cfg.l1_weight * parts["l1"]
    )


def total_loss(batch: LossBatch, neg_w, cfg: LossConfig, model=None, margin=None):
    """Weighted sum of all terms; returns (value, per-term breakdown).

    The breakdown holds the *unweighted* term values. ``model`` may be None
    when ``cfg.l1_weight`` is 0.
    """
    if cfg.m0 is None:
        raise ShapeError("LossConfig.m0 must be set before computing losses")
    mar, _ = margin_loss(batch, margin)
    parts = {
        "sep": sep_loss(batch, cfg.m0),
        "mar": mar,
        "cns": consistency_loss(batch, cfg.eta0, cfg.k),
        "sc": scaling_loss(batch),
        "cma": cma_loss(neg_w),
        "l1": l1_penalty(model) if (model is not None and cfg.l1_weight > 0) else 0.0,
    }
    for name in _TERMS:
        if not np.isfinite(parts[name]):
            raise DivergenceError(f"loss term {name!r} is non-finite")
    return combine_terms(parts, cfg), parts


def total_loss_with_grads(batch: LossBatch, neg_w, cfg: LossConfig, model=None, margin=None):
    """Loss value, breakdown, and gradients w.r.t. the network outputs.

    Returns (value, parts, dl, dw0, dneg) where dl is dLoss/dl (B, 2k+1),
    dw0 is the direct dLoss/dw0 (B, 2) from the scaling term, and dneg is
    dLoss/dw~ (Bn, 2). All three already carry the loss weights. Gradients
    of the L1 term are applied by the optimizer wiring, not here.
    """
    if margin is None:
        margin = margin_bounds(batch)
    value, parts = total_loss(batch, neg_w, cfg, model, margin)
    dl = np.zeros_like(batch.l, dtype=np.float64)
    dl[:, 0] += _sep_grad(batch, cfg.m0)
    dl[:, 0] += cfg.alpha * _margin_grad(batch, margin)
    dl += cfg.beta * _consistency_grad(batch, cfg.eta0, cfg.k)
    dw0 = cfg.gamma * _scaling_grad(batch)
    if neg_w is None or len(neg_w) == 0:
        dneg = np.zeros((0, 2))
    else:
        dneg = np.full(np.atleast_2d(neg_w).shape, -cfg.mu)
    return value, parts, dl, dw0, dneg
