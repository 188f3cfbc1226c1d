"""Training losses for the fused metric.

Five terms supervise the scale network: a separation term pulling normal
metric values down and anomalous ones up, a batch-wise margin term against
class overlap, a neighborhood consistency term bounding the metric across
the 2k+1 local spaces, an asymmetric scaling term anchoring the factors
themselves, and a cross-modal alignment term driving permuted (mismatched)
modality pairings toward the anomalous limit e. L1 on the network's weight
matrices rides along.

Each term function evaluates its term once and returns (value, subgradient
with respect to its input: l_0, l, w0, the negatives' w, or the weights). A
hinge (x)_+ forms x once, sums max(x, 0) into the value and reads the mask
x > 0 for the subgradient, which is 0 on the inactive side and at the kink.
:func:`total_loss_with_grads` is the one pass that weighs and collects every
term; :func:`total_loss` reads the same pass. All sums run over batch items,
not means. The batch-wise margin bounds m_l / m_u are treated as constants
(no gradient through the min/max selection).
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


def sep_loss(batch: LossBatch, m0: float):
    """Normal items pay l_0; anomalous items pay (1/l_0 - 1/m0)_+ (l clamped)."""
    if m0 <= 0:
        raise ShapeError("m0 must be positive")
    l0 = batch.l[:, 0]
    safe = np.maximum(l0, _SAFE_INV)
    excess = 1.0 / safe - 1.0 / m0
    value = ((1.0 - batch.y) * l0 + batch.y * _hinge(excess)).sum()
    grad = (1.0 - batch.y).astype(np.float64)
    grad += batch.y * np.where((excess > 0) & (l0 > _SAFE_INV), -1.0 / (safe * safe), 0.0)
    return value, grad


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
    """Overlap penalty scaled by 1/m_u; skipped (0.0, zeros) without bounds."""
    if bounds is None:
        bounds = margin_bounds(batch)
    grad = np.zeros(batch.y.shape[0])
    if bounds is None:
        return 0.0, grad
    m_l, m_u = bounds
    l0 = batch.l[:, 0]
    over, under = l0 - m_l, m_u - l0
    value = ((1.0 - batch.y) * _hinge(over) + batch.y * _hinge(under)).sum() / m_u
    grad += (1.0 - batch.y) * (over > 0) / m_u
    grad -= batch.y * (under > 0) / m_u
    return value, grad


def eta_coefficients(batch: LossBatch, eta0: float) -> np.ndarray:
    """Per-rank slack eta_j = eta0 * (s_pc_j + s_rgb_j) / (s_pc_0 + s_rgb_0)."""
    s_total = batch.s.sum(axis=-1)
    denom = np.maximum(s_total[:, :1], _SAFE_INV)
    return eta0 * s_total / denom


def consistency_loss(batch: LossBatch, eta0: float, k: int):
    """Proximal ranks bounded above by eta_j * l_0, distal ranks below by l_0."""
    if batch.l.shape[1] != 2 * k + 1:
        raise ShapeError(f"consistency loss needs 2k+1={2 * k + 1} ranks, got {batch.l.shape[1]}")
    eta = eta_coefficients(batch, eta0)
    l0 = batch.l[:, :1]
    proximal = batch.l[:, 1 : k + 1] - eta[:, 1 : k + 1] * l0
    distal = l0 - batch.l[:, k + 1 :]
    value = (_hinge(proximal).sum() + _hinge(distal).sum()) / k
    prox_active = (proximal > 0).astype(np.float64)
    dist_active = (distal > 0).astype(np.float64)
    grad = np.zeros_like(batch.l, dtype=np.float64)
    grad[:, 1 : k + 1] += prox_active / k
    grad[:, :1] += -(prox_active * eta[:, 1 : k + 1] / k).sum(axis=1, keepdims=True)
    grad[:, k + 1 :] += -dist_active / k
    grad[:, :1] += dist_active.sum(axis=1, keepdims=True) / k
    return value, grad


def scaling_loss(batch: LossBatch):
    """Normals pay (w - 1)_+ per modality; anomalies pay (e - w)."""
    y = batch.y[:, None]
    over = batch.w0 - 1.0
    value = ((1.0 - y) * _hinge(over) + y * (E - batch.w0)).sum()
    return value, (1.0 - y) * (over > 0) - y


def cma_loss(neg_w: np.ndarray | None):
    """Sum of (e - w) over permuted-pair scaling factors; 0 for an empty batch."""
    if neg_w is None or len(neg_w) == 0:
        return 0.0, np.zeros((0, 2))
    neg_w = np.atleast_2d(neg_w)
    return (E - neg_w).sum(), np.full(neg_w.shape, -1.0)


def l1_penalty(model):
    """Sum of |w| over the weight matrices. The subgradient yields (index in
    :func:`g2sf.lspn.parameters`, sign(w)) per weight matrix, lazily, so no
    more than one matrix's sign is held beside the network's gradients."""
    from .lspn import parameters

    weights = [(i, p) for i, p in enumerate(parameters(model)) if p.ndim == 2]  # matrices only
    total = 0.0
    for _, param in weights:
        acc = np.float64 if param.dtype == np.float32 else param.dtype
        total = total + np.abs(param).sum(dtype=acc)
    return total, ((i, np.sign(param)) for i, param in weights)


def compute_m0(s0: np.ndarray) -> float:
    """Stability threshold 2 * max rank-0 normalized distance over (N, 2)."""
    s0 = np.atleast_2d(np.asarray(s0))
    if s0.size == 0:
        raise ShapeError("cannot compute m0 from an empty pool")
    return float(2.0 * s0.max())


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


def _evaluate(batch: LossBatch, neg_w, cfg: LossConfig, model, margin):
    """The one pass: every term evaluated once, weighed and collected. Both
    public views call it, not each other, so a traced run (``perfbench``)
    never nests one view's span in the other's."""
    if cfg.m0 is None:
        raise ShapeError("LossConfig.m0 must be set before computing losses")
    terms = {
        "sep": sep_loss(batch, cfg.m0),
        "mar": margin_loss(batch, margin),
        "cns": consistency_loss(batch, cfg.eta0, cfg.k),
        "sc": scaling_loss(batch),
        "cma": cma_loss(neg_w),
        "l1": l1_penalty(model) if (model is not None and cfg.l1_weight > 0) else (0.0, ()),
    }
    parts = {name: value for name, (value, _) in terms.items()}
    for name, value in parts.items():
        if not np.isfinite(value):
            raise DivergenceError(f"loss term {name!r} is non-finite")
    dl = np.zeros_like(batch.l, dtype=np.float64)
    dl[:, 0] += terms["sep"][1]
    dl[:, 0] += cfg.alpha * terms["mar"][1]
    dl += cfg.beta * terms["cns"][1]
    dparams = ((i, cfg.l1_weight * sign) for i, sign in terms["l1"][1])
    return (combine_terms(parts, cfg), parts, dl, cfg.gamma * terms["sc"][1],
            cfg.mu * terms["cma"][1], dparams)


def total_loss(batch: LossBatch, neg_w, cfg: LossConfig, model=None, margin=None):
    """Weighted sum of all terms; returns (value, per-term breakdown), the
    first two items of :func:`total_loss_with_grads`'s pass.

    The breakdown holds the *unweighted* term values. ``model`` may be None
    when ``cfg.l1_weight`` is 0.
    """
    return _evaluate(batch, neg_w, cfg, model, margin)[:2]


def total_loss_with_grads(batch: LossBatch, neg_w, cfg: LossConfig, model=None, margin=None):
    """Loss value, breakdown, and gradients, each term evaluated once.

    Returns (value, parts, dl, dw0, dneg, dparams): dl is dLoss/dl (B, 2k+1),
    dw0 the direct dLoss/dw0 (B, 2) of the scaling term, dneg dLoss/dw~
    (Bn, 2), and dparams the L1 term's (parameter index, dLoss/dW) pairs
    (none when it is off). All carry the loss weights.
    """
    return _evaluate(batch, neg_w, cfg, model, margin)
