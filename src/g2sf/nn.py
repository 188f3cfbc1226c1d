"""Dense linear-algebra and neural-network primitives.

Everything here operates on plain numpy arrays. Parameters live in float32
for the production path; every forward/backward function is dtype-polymorphic
so gradient checks can run the same code in float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError

__all__ = [
    "LinearBlock",
    "linear_forward",
    "linear_backward",
    "relu",
    "relu_backward",
    "exp_tanh",
    "exp_tanh_backward",
    "dropout_forward",
    "dropout_backward",
    "AdamState",
    "Adam",
    "adam_step",
    "backprop_check",
]


@dataclass
class LinearBlock:
    """An affine layer ``y = W x + b`` with an optional dropout rate.

    ``weight`` has shape (out, in) and ``bias`` shape (out,), both row-major
    float arrays. ``dropout_rate`` applies to the block's *output* after the
    activation, in [0, 1].
    """

    weight: np.ndarray
    bias: np.ndarray
    dropout_rate: float = 0.0

    def __post_init__(self):
        self.weight = np.atleast_2d(np.asarray(self.weight))
        self.bias = np.asarray(self.bias)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError("weight must be 2-D and bias 1-D")
        if self.weight.shape[0] != self.bias.shape[0]:
            raise ShapeError(
                f"weight rows {self.weight.shape[0]} != bias length {self.bias.shape[0]}"
            )
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise ConfigError("layer parameters must be finite")
        if not (0.0 <= self.dropout_rate <= 1.0):
            raise ConfigError(f"dropout_rate {self.dropout_rate} outside [0, 1]")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    def astype(self, dtype) -> "LinearBlock":
        return LinearBlock(self.weight.astype(dtype), self.bias.astype(dtype), self.dropout_rate)


def linear_forward(block: LinearBlock, x: np.ndarray) -> np.ndarray:
    """Apply ``W x + b``. ``x`` is a vector (in,) or a batch (B, in)."""
    x = np.asarray(x)
    if x.shape[-1] != block.in_dim:
        raise ShapeError(f"input width {x.shape[-1]} != layer width {block.in_dim}")
    return x @ block.weight.T + block.bias


def linear_backward(block: LinearBlock, x: np.ndarray, grad_out: np.ndarray):
    """Gradients of a linear layer.

    Returns (grad_x, grad_weight, grad_bias) for upstream gradient
    ``grad_out`` of the same shape as the layer output.
    """
    x = np.atleast_2d(np.asarray(x))
    g = np.atleast_2d(np.asarray(grad_out))
    grad_x = g @ block.weight
    grad_w = g.T @ x
    grad_b = g.sum(axis=0)
    return grad_x, grad_w, grad_b


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    # Subgradient at 0 is taken as 0.
    return np.where(x > 0, grad_out, 0)


def exp_tanh(x: np.ndarray) -> np.ndarray:
    """``exp(tanh(x))``, bounded to [1/e, e] and equal to 1 at x = 0."""
    return np.exp(np.tanh(x))


def exp_tanh_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    t = np.tanh(x)
    return grad_out * np.exp(t) * (1.0 - t * t)


def dropout_forward(x, rate, rng=None, training=False):
    """Inverted dropout: zero entries w.p. ``rate``, scale survivors by 1/(1-rate).

    At inference (``training=False``) and at rate 0 this is the identity and
    the mask is None: nothing is drawn and nothing is allocated, so deployed
    forwards need no rescaling.
    """
    x = np.asarray(x)
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"dropout rate {rate} outside [0, 1]")
    if not training or rate == 0.0:
        return x, None
    if rate >= 1.0:
        raise ConfigError("dropout rate 1.0 would zero every activation")
    if rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    keep = rng.random(x.shape) >= rate
    mask = keep.astype(x.dtype) / np.asarray(1.0 - rate, dtype=x.dtype)
    return x * mask, mask


def dropout_backward(mask, grad_out: np.ndarray) -> np.ndarray:
    return grad_out if mask is None else grad_out * mask


@dataclass
class AdamState:
    """Per-parameter Adam buffers (first/second moment) plus the step count."""

    step: int = 0
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)


def adam_step(param, grad, m, v, step, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """One in-place Adam update of a single parameter array.

    Weight decay is decoupled: it shrinks the parameter directly and never
    enters the moment estimates. ``step`` is the 1-based update index.
    """
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient passed to adam_step")
    one = param.dtype.type(1.0)
    b1 = param.dtype.type(beta1)
    b2 = param.dtype.type(beta2)
    m *= b1
    m += (one - b1) * grad
    v *= b2
    v += (one - b2) * grad * grad
    m_hat = m / (one - b1**step)
    v_hat = v / (one - b2**step)
    if weight_decay:
        param -= param.dtype.type(lr * weight_decay) * param
    param -= param.dtype.type(lr) * m_hat / (np.sqrt(v_hat) + param.dtype.type(eps))


class Adam(object):
    """Adam over a list of parameter arrays with per-parameter lr/decay.

    ``specs`` is a list of (lr, weight_decay) pairs aligned with the
    parameter list handed to :meth:`step`. Decay should be zero for biases
    and global scale parameters.
    """

    def __init__(self, specs, beta1=0.9, beta2=0.999, eps=1e-8):
        self.specs = list(specs)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = AdamState()

    def step(self, params, grads):
        if len(params) != len(self.specs) or len(grads) != len(self.specs):
            raise ShapeError("params/grads do not match optimizer specs")
        if not self.state.m:
            self.state.m = [np.zeros_like(p) for p in params]
            self.state.v = [np.zeros_like(p) for p in params]
        self.state.step += 1
        for p, g, m, v, (lr, wd) in zip(params, grads, self.state.m, self.state.v, self.specs):
            if p.shape != g.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            adam_step(p, g, m, v, self.state.step, lr, self.beta1, self.beta2, self.eps, wd)


def backprop_check(loss_fn, params, analytic_grads, h=None, fd_dtype=np.float64):
    """Max relative error between analytic gradients and central differences.

    ``loss_fn(params) -> float`` must be deterministic (dropout off) and is
    evaluated on ``fd_dtype`` copies of ``params``, so the finite-difference
    reference can run above the precision of the gradients under test (pass
    ``np.longdouble`` when checking float64 gradients). The error for each
    scalar parameter is ``|analytic - fd| / max(|analytic|, |fd|, 1e-8)``.
    """
    params_hp = [np.asarray(p, dtype=fd_dtype).copy() for p in params]
    worst = 0.0
    for pi, p in enumerate(params_hp):
        flat = p.reshape(-1)
        ana = np.asarray(analytic_grads[pi], dtype=np.float64).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            step = fd_dtype(h) if h is not None else fd_dtype(max(1e-5, 1e-5 * abs(orig)))
            flat[j] = orig + step
            f_plus = loss_fn(params_hp)
            flat[j] = orig - step
            f_minus = loss_fn(params_hp)
            flat[j] = orig
            fd = float((f_plus - f_minus) / (2.0 * step))
            denom = max(abs(ana[j]), abs(fd), 1e-8)
            worst = max(worst, abs(ana[j] - fd) / denom)
    return worst
