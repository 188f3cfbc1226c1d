"""Embedded invariant suite: independent oracles for the core guarantees.

Each check returns (name, passed, detail). The oracles here deliberately
avoid the production code paths they validate: AUPRO is recomputed per
threshold from scratch with a hand-rolled component labeler, the coreset
bound is verified against exhaustive subset enumeration, and the gradients
of the trainer's own objective (:func:`g2sf.trainer.batch_objective`, so the
factored production path) are compared against central finite differences
evaluated above the precision of the gradients under test.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import losses as losses_mod
from . import lspn as lspn_mod
from .bank import MemoryBank, build_bank, covering_radius
from .features import FeatureMap, SamplePair
from .geometry import fit_normalizer
from .losses import LossBatch, LossConfig
from .nn import backprop_check
from .synthesis import TrainingPool, pool_from_samples
from .trainer import NegativeBatch, batch_objective, load_checkpoint, make_negatives, scale_factors

__all__ = [
    "aupro_bruteforce",
    "label_components_bfs",
    "GradCheckProblem",
    "build_gradcheck_problem",
    "objective_value",
    "objective_gradients",
    "full_gradient_check",
    "run_all",
]


# ---------------------------------------------------------------------------
# Brute-force AUPRO oracle
# ---------------------------------------------------------------------------


def label_components_bfs(mask):
    """8-connected component labeling by breadth-first search (no scipy)."""
    mask = np.asarray(mask, dtype=bool)
    labels = np.zeros(mask.shape, dtype=np.int64)
    current = 0
    h, w = mask.shape
    for sr in range(h):
        for sc in range(w):
            if not mask[sr, sc] or labels[sr, sc]:
                continue
            current += 1
            queue = [(sr, sc)]
            labels[sr, sc] = current
            while queue:
                r, c = queue.pop()
                for dr in (-1, 0, 1):
                    for dc in (-1, 0, 1):
                        rr, cc = r + dr, c + dc
                        if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] \
                                and not labels[rr, cc]:
                            labels[rr, cc] = current
                            queue.append((rr, cc))
    return labels, current


def aupro_bruteforce(score_maps, gt_masks, limit):
    """Per-threshold full recomputation of the PRO/FPR curve and its area."""
    regions = []  # (sample_idx, boolean mask) per component
    for si, gt in enumerate(gt_masks):
        labels, count = label_components_bfs(gt)
        for c in range(1, count + 1):
            regions.append((si, labels == c))
    if not regions:
        raise ValueError("oracle needs at least one anomalous region")
    normal_masks = [~np.asarray(g, dtype=bool) for g in gt_masks]
    n_normal = sum(int(m.sum()) for m in normal_masks)
    thresholds = np.unique(np.concatenate([np.asarray(s).reshape(-1)
                                           for s in score_maps]))[::-1]
    xs, ys = [0.0], [0.0]
    for t in thresholds:
        preds = [np.asarray(s) >= t for s in score_maps]
        fp = sum(int((p & nm).sum()) for p, nm in zip(preds, normal_masks))
        overlaps = [ (preds[si] & region).sum() / region.sum()
                     for si, region in regions ]
        xs.append(fp / n_normal)
        ys.append(float(np.mean(overlaps)))
    area = 0.0
    for i in range(1, len(xs)):
        x0, x1, y0, y1 = xs[i - 1], xs[i], ys[i - 1], ys[i]
        if x0 >= limit:
            break
        if x1 <= limit:
            area += (x1 - x0) * (y0 + y1) / 2.0
        else:
            y_at = y0 + (y1 - y0) * (limit - x0) / (x1 - x0)
            area += (limit - x0) * (y0 + y_at) / 2.0
            break
    return area / limit


# ---------------------------------------------------------------------------
# Full-objective gradient check
# ---------------------------------------------------------------------------


@dataclass
class GradCheckProblem:
    """A frozen batch in the trainer's own form: random banks, a one-sample
    pool of cell features with their neighbor ids and raw distances, fixed
    negatives, and margin bounds once frozen."""

    lspn_cfg: lspn_mod.LspnConfig
    loss_cfg: LossConfig
    seed: int
    banks: dict
    pool: TrainingPool
    neg: NegativeBatch
    margin: tuple | None = None


def build_gradcheck_problem(batch=8, k=5, dims=(8, 8), widths=((8, 8), (8,)),
                            seed=0) -> GradCheckProblem:
    """Cells alternate normal / anomalous; cell 0's pc feature is a bank
    member, so one rank-0 direction is degenerate (zero)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C]))
    n_protos = 2 * k + 5
    banks, maps = {}, {}
    for modality, dim in zip(("pc", "rgb"), dims):
        banks[modality] = MemoryBank(
            modality, rng.standard_normal((n_protos, dim)).astype(np.float32))
        maps[modality] = FeatureMap(
            modality, rng.standard_normal((1, batch, dim)).astype(np.float32))
    maps["pc"].data[0, 0] = banks["pc"].prototypes[0]
    pair = SamplePair("gradcheck", maps["pc"], maps["rgb"])
    y = np.arange(batch) % 2
    pool = pool_from_samples([(pair, y.reshape(1, batch).astype(bool))], banks,
                             fit_normalizer([pair], banks), k)
    neg = make_negatives(y, rng)
    lspn_cfg = lspn_mod.LspnConfig(dim_pc=dims[0], dim_rgb=dims[1], branch_widths=widths[0],
                                   fusion_widths=widths[1], dropout=0.0)
    loss_cfg = LossConfig(k=k, m0=losses_mod.compute_m0(pool.s0()))
    return GradCheckProblem(lspn_cfg, loss_cfg, seed, banks, pool, neg)


def _objective(model, problem: GradCheckProblem, want_grads: bool):
    value, _, margin, grads = batch_objective(
        model, problem.pool, problem.banks, problem.pool.train_indices, problem.neg,
        problem.loss_cfg, margin=problem.margin, grads=want_grads)
    return (value, grads, margin) if want_grads else value


def objective_value(problem: GradCheckProblem, values):
    return _objective(lspn_mod.model_from_parameters(problem.lspn_cfg, values), problem, False)


def objective_gradients(problem: GradCheckProblem, dtype):
    model = lspn_mod.init_model(problem.lspn_cfg, problem.seed).astype(dtype)
    value, grads, margin = _objective(model, problem, True)
    return model, value, grads, margin


def full_gradient_check(dtype=np.float32, batch=8, seed=0, h=1e-6,
                        widths=((8, 8), (8,)), k=5):
    """Max relative error of the full-objective gradients at ``dtype``.

    The margin bounds are frozen at the base parameters (they carry no
    gradient by design), and the finite differences run one precision level
    above ``dtype``: float64 against float32 gradients, extended precision
    against float64 gradients.
    """
    problem = build_gradcheck_problem(batch=batch, seed=seed, widths=widths, k=k)
    model, _, grads, margin = objective_gradients(problem, dtype)
    problem = replace(problem, margin=margin)
    fd_dtype = np.float64 if dtype == np.float32 else np.longdouble
    return backprop_check(lambda vals: objective_value(problem, vals),
                          lspn_mod.parameters(model), grads, h=h, fd_dtype=fd_dtype)


# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------


def _check_gradients_f32():
    err = full_gradient_check(np.float32)
    return err < 1e-3, f"max rel err {err:.2e} (bound 1e-3)"


def _check_gradients_f64():
    err = full_gradient_check(np.float64)
    return err < 1e-6, f"max rel err {err:.2e} (bound 1e-6)"


def _check_loss_oracles():
    details = []
    ok = True

    def expect(name, got, want, tol=1e-6):
        nonlocal ok
        good = abs(got - want) <= tol * max(1.0, abs(want))
        ok = ok and good
        if not good:
            details.append(f"{name}: got {got!r}, want {want!r}")

    def batch(y, l0):
        y = np.asarray(y, dtype=float)
        l = np.tile(np.asarray(l0, float)[:, None], (1, 3))
        return LossBatch(y=y, l=l, s=np.ones((y.size, 3, 2)), w0=np.ones((y.size, 2)))

    expect("sep normal", losses_mod.sep_loss(batch([0], [0.3]), 2.0), 0.3)
    expect("sep anomalous half-threshold",
           losses_mod.sep_loss(batch([1], [1.0]), 2.0), 0.5)
    expect("margin interleaved",
           losses_mod.margin_loss(batch([0, 0, 1, 1], [1.0, 3.0, 2.0, 4.0]))[0], 2 / 3)
    cns_batch = LossBatch(y=[0], l=np.array([[1.0, 1.5, 0.8]]), s=np.ones((1, 3, 2)),
                          w0=np.ones((1, 2)))
    expect("consistency", losses_mod.consistency_loss(cns_batch, 1.2, 1), 0.5)
    expect("cma at unity", losses_mod.cma_loss(np.array([[1.0, 1.0]])),
           2 * (math.e - 1))
    cfg = LossConfig(m0=1.0, l1_weight=0.0)
    expect("weighted sum", losses_mod.combine_terms(
        {"sep": 0.5, "mar": 0.1, "cns": 0.2, "sc": 0.3, "cma": 0.4, "l1": 0.0}, cfg),
        23.9)
    return ok, "; ".join(details) if details else "all hand values reproduced"


def _check_aupro_oracle(instances=25, seed=0):
    from .evaluation import aupro

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        maps, gts = [], []
        for _ in range(2):
            maps.append(rng.random((8, 8)))
            gts.append(rng.random((8, 8)) < 0.2)
        if not any(g.any() for g in gts):
            gts[0][4, 4] = True
        for limit in (0.30, 0.01):
            worst = max(worst, abs(aupro(maps, gts, limit)
                                   - aupro_bruteforce(maps, gts, limit)))
    exact = aupro([gts[0].astype(float)], [gts[0]], 0.3)
    return worst < 1e-9 and exact == 1.0, \
        f"max |fast - bruteforce| {worst:.2e}; perfect detector -> {exact}"


def _check_coreset(seed=0):
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for _ in range(15):
        n = int(rng.integers(4, 13))
        points = rng.uniform(-1, 1, size=(n, 2)).astype(np.float32)
        bank = build_bank(points, "pc", 3 / n)
        greedy = covering_radius(bank, points)
        best = min(
            max(
                min(np.linalg.norm(p - points[c]) for c in combo)
                for p in points
            )
            for combo in itertools.combinations(range(n), bank.size)
        )
        worst_ratio = max(worst_ratio, greedy / max(best, 1e-12))
    return worst_ratio <= 2.0 + 1e-6, f"worst greedy/optimal ratio {worst_ratio:.3f}"


def _check_checkpoint(path):
    ckpt = load_checkpoint(path)
    cfg = ckpt.model.cfg
    probe = build_gradcheck_problem(batch=32, dims=(cfg.dim_pc, cfg.dim_rgb))
    a = scale_factors(ckpt.model, probe.pool, probe.banks, probe.pool.train_indices)
    b = scale_factors(ckpt.model, probe.pool, probe.banks, probe.pool.train_indices)
    if a.tobytes() != b.tobytes():
        return False, "forward pass not deterministic"
    if a.min() < np.exp(-1) - 1e-6 or a.max() > math.e + 1e-6:
        return False, "scale outputs escape [1/e, e]"
    if not (ckpt.m0 > 0 and ckpt.normalizer.mean_pc > 0 and ckpt.normalizer.mean_rgb > 0):
        return False, "non-positive m0 or normalizer means"
    return True, f"epoch {ckpt.epoch}, sigma ({ckpt.model.sigma_pc:.3f}, " \
                 f"{ckpt.model.sigma_rgb:.3f})"


def run_all(checkpoint=None):
    """Run every embedded check; returns a list of (name, passed, detail)."""
    checks = [
        ("gradient_check_f32", _check_gradients_f32),
        ("gradient_check_f64", _check_gradients_f64),
        ("loss_oracles", _check_loss_oracles),
        ("aupro_bruteforce_agreement", _check_aupro_oracle),
        ("coreset_two_approximation", _check_coreset),
    ]
    if checkpoint is not None:
        checks.append(("checkpoint_integrity", lambda: _check_checkpoint(checkpoint)))
    results = []
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
