"""Local scale prediction network and the fused anisotropic metric.

The network maps the concatenated prototypes of both modalities and the
concatenated unit directions through two parallel MLP branches, fuses them,
and emits a pair of scaling factors (w_pc, w_rgb) through exp(tanh(.)), so
every factor lies in [1/e, e] and is symmetric around the Euclidean
baseline w = 1. The metric for one (feature, neighbor-rank) pair is

    l = w_pc * s_pc * sigma_pc + w_rgb * s_rgb * sigma_rgb

with trainable positive global scales sigma (stored as log sigma).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import nn
from .errors import ConfigError, ShapeError
from .geometry import GeometricEncoding

__all__ = [
    "LspnConfig",
    "LspnModel",
    "MetricValue",
    "init_model",
    "lspn_forward",
    "forward_batch",
    "backward_batch",
    "fused_metric",
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


@dataclass
class _Cache:
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
        act = nn.relu(pre)
        out, mask = nn.dropout_forward(act, block.dropout_rate, rng, training)
        caches.append((h, pre, mask))
        h = out
    return h, caches


def _stack_backward(blocks, caches, grad):
    grads = [None] * len(blocks)
    for i in range(len(blocks) - 1, -1, -1):
        x, pre, mask = caches[i]
        g = nn.dropout_backward(mask, grad)
        g = nn.relu_backward(pre, g)
        grad, gw, gb = nn.linear_backward(blocks[i], x, g)
        grads[i] = (gw, gb)
    return grad, grads


def forward_batch(model: LspnModel, protos: np.ndarray, dirs: np.ndarray,
                  training: bool = False, rng=None):
    """Scaling factors for a batch: returns (w (B, 2), cache).

    ``protos`` rows are concat(m_pc, m_rgb), ``dirs`` rows concat(d_pc, d_rgb).
    """
    protos = np.atleast_2d(protos)
    dirs = np.atleast_2d(dirs)
    if protos.shape[1] != model.cfg.joint_dim or dirs.shape[1] != model.cfg.joint_dim:
        raise ShapeError(
            f"expected joint width {model.cfg.joint_dim}, got "
            f"{protos.shape[1]} (protos) / {dirs.shape[1]} (dirs)"
        )
    if protos.shape[0] != dirs.shape[0]:
        raise ShapeError("protos and dirs must have matching batch sizes")
    p_out, p_cache = _stack_forward(model.proto_branch, protos, training, rng)
    d_out, d_cache = _stack_forward(model.dir_branch, dirs, training, rng)
    h = np.concatenate([p_out, d_out], axis=1)
    f_out, f_cache = _stack_forward(model.fusion_head[:-1], h, training, rng)
    final = model.fusion_head[-1]
    pre = nn.linear_forward(final, f_out)
    w = nn.exp_tanh(pre)
    return w, _Cache(p_cache, d_cache, f_cache, f_out, pre)


def backward_batch(model: LspnModel, cache: _Cache, grad_w: np.ndarray):
    """Backpropagate dLoss/dw; returns gradients aligned with :func:`parameters`
    (network parameters only; sigma gradients are chained by the caller)."""
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


def lspn_forward(model: LspnModel, m_pc, m_rgb, d_pc, d_rgb, training=False, rng=None):
    """Single-pair convenience wrapper; returns (w_pc, w_rgb) floats."""
    protos = np.concatenate([np.asarray(m_pc), np.asarray(m_rgb)])[None, :]
    dirs = np.concatenate([np.asarray(d_pc), np.asarray(d_rgb)])[None, :]
    w, _ = forward_batch(model, protos, dirs, training=training, rng=rng)
    return float(w[0, 0]), float(w[0, 1])


# ---------------------------------------------------------------------------
# Fused metric
# ---------------------------------------------------------------------------


@dataclass
class MetricValue:
    l: float
    w_pc: float
    w_rgb: float
    s_pc: float
    s_rgb: float


def metric_values(w: np.ndarray, s: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Batched metric: (w * s * sigma).sum over the modality axis (last)."""
    return (w * s * sigma).sum(axis=-1)


def fused_metric(model: LspnModel, enc_pc: GeometricEncoding, enc_rgb: GeometricEncoding,
                 banks: dict) -> MetricValue:
    m_pc = banks["pc"].prototypes[enc_pc.prototype_idx]
    m_rgb = banks["rgb"].prototypes[enc_rgb.prototype_idx]
    w_pc, w_rgb = lspn_forward(model, m_pc, m_rgb, enc_pc.direction, enc_rgb.direction)
    l = w_pc * enc_pc.distance * model.sigma_pc + w_rgb * enc_rgb.distance * model.sigma_rgb
    return MetricValue(float(l), w_pc, w_rgb, enc_pc.distance, enc_rgb.distance)


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

