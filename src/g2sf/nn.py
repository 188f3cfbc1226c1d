"""Dense linear-algebra and neural-network primitives.

Everything here operates on plain numpy arrays. Parameters live in float32
for the production path; every forward/backward function is dtype-polymorphic
so gradient checks can run the same code in float64.

A hidden block's activation is ReLU followed by inverted dropout, run as one
in-place pass (:func:`relu_dropout`). Its backward reads only the block's
output: a kept, positive pre-activation is exactly a positive output, so
training needs to keep neither the pre-activation nor the dropout mask. The
next layer's backward (:func:`linear_backward`) applies that mask as it
forms its input gradient, and writes the masked gradient over the input it
has just read, a block of rows at a time, so a step allocates no gradient
the size of a layer's input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DivergenceError, ShapeError

__all__ = [
    "LinearBlock",
    "linear_forward",
    "linear_backward",
    "relu_dropout",
    "exp_tanh",
    "exp_tanh_backward",
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


def linear_forward(block: LinearBlock, x: np.ndarray) -> np.ndarray:
    """Apply ``W x + b``. ``x`` is a vector (in,) or a batch (B, in)."""
    x = np.asarray(x)
    if x.shape[-1] != block.in_dim:
        raise ShapeError(f"input width {x.shape[-1]} != layer width {block.in_dim}")
    out = x @ block.weight.T
    out += block.bias
    return out


# Row blocks of linear_backward's input gradient: each block's GEMM writes
# straight into the rows of the input it replaces, and its mask stays in
# cache. A block has at least _GRAD_ROWS rows and _GRAD_MACS multiply-adds.
# OpenBLAS (0.3.31, AVX-512 kernels) runs products of up to 100**3
# multiply-adds through small-matrix kernels whose sums round differently at
# some widths (17, 33 and 50 among those tried), so blocks above that run the
# kernel the whole product runs and give its bits; a product below the floor
# runs whole, as one block.
_GRAD_ROWS = 256
_GRAD_MACS = 1 << 20


def linear_backward(block: LinearBlock, x: np.ndarray, grad_out: np.ndarray, rates):
    """Gradients of a linear layer whose input ``x`` (B, in) is the output of
    ReLU-dropout blocks (:func:`relu_dropout`) with dropout ``rates``; x's
    columns split into ``len(rates)`` equal parts, one per block, in order.

    Returns (grad_x, grad_weight, grad_bias) for upstream gradient
    ``grad_out`` (B, out). The weight and bias gradients are read from ``x``
    first. grad_x is then the gradient of the blocks' pre-activations:
    ``grad_out @ W`` where x is positive, times 1/(1-rate), and 0 elsewhere
    (the ReLU subgradient at 0 is taken as 0). It is computed a block of
    rows at a time and written over ``x``, which must be C-contiguous and
    which grad_x is.
    """
    g = np.asarray(grad_out)
    if not x.flags.c_contiguous or x.ndim != 2:
        raise ShapeError("linear_backward writes over a C-contiguous (rows, in) input")
    if x.shape[1] % len(rates):
        raise ShapeError(f"input width {x.shape[1]} does not split into {len(rates)} rates")
    grad_w = g.T @ x
    grad_b = g.sum(axis=0)
    scale = None
    if any(rates):
        scale = np.repeat(np.array([_dropout_scale(r, x.dtype) for r in rates], x.dtype),
                          x.shape[1] // len(rates))
    # The last block takes the remainder, so none is shorter than ``step``
    # unless it is the whole (a one-row product, for one, runs as a
    # matrix-vector product).
    step = max(_GRAD_ROWS, -(-_GRAD_MACS // max(1, g.shape[1] * x.shape[1])))
    bounds = [i * step for i in range(max(1, len(x) // step))] + [len(x)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        keep = x[lo:hi] > 0
        np.matmul(g[lo:hi], block.weight, out=x[lo:hi])
        x[lo:hi] *= keep
        if scale is not None:
            x[lo:hi] *= scale
    return x, grad_w, grad_b


def exp_tanh(x: np.ndarray) -> np.ndarray:
    """``exp(tanh(x))``, bounded to [1/e, e] and equal to 1 at x = 0."""
    return np.exp(np.tanh(x))


def exp_tanh_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    t = np.tanh(x)
    return grad_out * np.exp(t) * (1.0 - t * t)


# Entries per block of dropout draws: the float64 draws and the mask of a
# block stay in cache (256 KB), where whole-array temporaries would cost a
# fresh allocation of up to 8 bytes per activation.
_DRAW_BLOCK = 1 << 15


def _dropout_scale(rate, dtype):
    return dtype.type(1) / dtype.type(1.0 - rate)


def relu_dropout(pre: np.ndarray, rate: float, rng=None, training: bool = False) -> np.ndarray:
    """ReLU then inverted dropout, in place on ``pre``; returns the activation.

    When training at a nonzero rate, entries are dropped where
    ``rng.random(pre.shape) < rate`` (one float64 draw per entry, drawn a
    block at a time in C order, which is the same stream) and survivors are
    scaled by 1/(1-rate). At inference and at rate 0 nothing is drawn and the
    result is the ReLU alone, so deployed forwards need no rescaling. ``pre``
    must be C-contiguous and is overwritten: pass a pre-activation nothing
    else reads.
    """
    if not (0.0 <= rate <= 1.0):
        raise ConfigError(f"dropout rate {rate} outside [0, 1]")
    if not pre.flags.c_contiguous:
        raise ShapeError("relu_dropout works in place on a C-contiguous array")
    drop = training and rate != 0.0
    if drop and rate >= 1.0:
        raise ConfigError("dropout rate 1.0 would zero every activation")
    if drop and rng is None:
        raise ConfigError("training-mode dropout needs an rng")
    out = np.maximum(pre, 0, out=pre)
    if not drop:
        return out
    scale = _dropout_scale(rate, out.dtype)
    flat = out.reshape(-1)
    draws = np.empty(min(_DRAW_BLOCK, flat.size))
    keep = np.empty(draws.shape, bool)
    for start in range(0, flat.size, _DRAW_BLOCK):
        part = flat[start:start + _DRAW_BLOCK]
        n = part.size
        rng.random(out=draws[:n])
        np.greater_equal(draws[:n], rate, out=keep[:n])
        part *= scale
        part *= keep[:n]
    return out


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(param, grad, m, v, step, lr, weight_decay=0.0):
    """One in-place Adam update of a single parameter array.

    Weight decay is decoupled: it shrinks the parameter directly and never
    enters the moment estimates. ``step`` is the 1-based update index.
    """
    if not np.all(np.isfinite(grad)):
        raise DivergenceError("non-finite gradient passed to adam_step")
    one = param.dtype.type(1.0)
    b1 = param.dtype.type(ADAM_BETA1)
    b2 = param.dtype.type(ADAM_BETA2)
    m *= b1
    m += (one - b1) * grad
    v *= b2
    v += (one - b2) * grad * grad
    m_hat = m / (one - b1**step)
    v_hat = v / (one - b2**step)
    if weight_decay:
        param -= param.dtype.type(lr * weight_decay) * param
    param -= param.dtype.type(lr) * m_hat / (np.sqrt(v_hat) + param.dtype.type(ADAM_EPS))


class Adam(object):
    """Adam over a list of parameter arrays with per-parameter lr/decay.

    ``specs`` is a list of (lr, weight_decay) pairs aligned with the
    parameter list handed to :meth:`step`. Decay should be zero for biases
    and global scale parameters. ``m`` and ``v`` are the moment buffers,
    allocated at the first step, and ``steps`` counts the steps taken.
    """

    def __init__(self, specs):
        self.specs = list(specs)
        self.steps = 0
        self.m, self.v = [], []

    def step(self, params, grads):
        if len(params) != len(self.specs) or len(grads) != len(self.specs):
            raise ShapeError("params/grads do not match optimizer specs")
        if not self.m:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.steps += 1
        for p, g, m, v, (lr, wd) in zip(params, grads, self.m, self.v, self.specs):
            if p.shape != g.shape:
                raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
            adam_step(p, g, m, v, self.steps, lr, wd)


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
