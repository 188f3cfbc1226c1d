"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured value against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from g2sf.bank import build_bank, covering_radius
from g2sf.cli import main as cli_main
from g2sf.evaluation import ablation_scores, aupro, score_split
from g2sf.features import SynthConfig, gen_synthetic_dataset, load_sample
from g2sf.geometry import fit_banks
from g2sf.losses import (
    LossBatch,
    LossConfig,
    cma_loss,
    combine_terms,
    consistency_loss,
    margin_loss,
    sep_loss,
)
from g2sf.lspn import LspnConfig, forward_batch, init_model, parameters
from g2sf.scoring import sample_maps
from g2sf.selftest import aupro_bruteforce, full_gradient_check, run_all
from g2sf.synthesis import SynthesisConfig, build_training_pool
from g2sf.trainer import TrainConfig, scale_factors, train
from tests.oracles import random_inputs

E = math.e
BENCH_SEEDS = (11, 22, 33)
BENCH_WIDTHS = ((32, 32), (32,))
DESK_CFG = "configs/desk.cfg"

RESULT_LINES = []  # echoed by the terminal-summary hook in conftest


def report(criterion, ok, detail):
    line = f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}: {detail}"
    RESULT_LINES.append(line)
    print(line)
    assert ok, f"criterion {criterion}: {detail}"


def desk_pipeline(seed, epochs, n_aug=32, loss_cfg=None, train_overrides=None):
    """gen -> banks -> pool -> train on the 16x16 / D=8 benchmark config."""
    import tempfile
    from pathlib import Path

    out = Path(tempfile.mkdtemp(prefix=f"g2sf_accept_{seed}_"))
    train_manifest, test_manifest = gen_synthetic_dataset(SynthConfig(), seed, out)
    banks, normalizer = fit_banks(train_manifest, 0.10)
    loss_cfg = loss_cfg or LossConfig(k=5)
    pool = build_training_pool(train_manifest, banks, normalizer,
                               SynthesisConfig(n_aug=n_aug, k=loss_cfg.k), seed)
    lspn_cfg = LspnConfig(dim_pc=8, dim_rgb=8, branch_widths=BENCH_WIDTHS[0],
                          fusion_widths=BENCH_WIDTHS[1])
    train_cfg = TrainConfig(epochs=epochs, batch_size=512, seed=seed)
    if train_overrides:
        train_cfg = dataclasses.replace(train_cfg, **train_overrides)
    checkpoint, log_rows, _ = train(pool, banks, normalizer, lspn_cfg, train_cfg, loss_cfg)
    return checkpoint, pool, train_manifest, test_manifest


@pytest.fixture(scope="module")
def benchmark_runs():
    """Three fixed-seed 40-epoch runs with their ablation tables (shared by
    criteria 7 and 9); the wall clock is asserted in criterion 7."""
    runs = []
    t0 = time.perf_counter()
    for seed in BENCH_SEEDS:
        checkpoint, _, _, test_manifest = desk_pipeline(seed, epochs=40)
        scored = score_split(checkpoint, test_manifest)
        variants, aggregations = ablation_scores(scored, test_manifest.gt_upscale)
        runs.append({
            "seed": seed,
            "checkpoint": checkpoint,
            "test_manifest": test_manifest,
            "variants": {r["variant"]: r for r in variants},
            "aggregations": {r["variant"]: r for r in aggregations},
        })
    return runs, time.perf_counter() - t0


class TestCriterion1Gradients:
    def test_full_objective_gradients(self):
        t0 = time.perf_counter()
        err32 = full_gradient_check(np.float32, batch=8, k=5)
        err64 = full_gradient_check(np.float64, batch=8, k=5)
        elapsed = time.perf_counter() - t0
        ok = err32 < 1e-3 and err64 < 1e-6 and elapsed < 30.0
        report(1, ok, f"max rel err f32 {err32:.2e} (<1e-3), f64 {err64:.2e} (<1e-6), "
                      f"runtime {elapsed:.1f}s (<30s)")


class TestCriterion2LossOracles:
    def test_hand_derived_values(self):
        def batch(y, l0):
            y = np.asarray(y, dtype=float)
            l = np.tile(np.asarray(l0, float)[:, None], (1, 3))
            return LossBatch(y=y, l=l, s=np.ones((y.size, 3, 2)),
                             w0=np.ones((y.size, 2)))

        checks = [
            ("margin 2/3", margin_loss(batch([0, 0, 1, 1], [1.0, 3.0, 2.0, 4.0]))[0],
             2.0 / 3.0),
            ("consistency 0.5",
             consistency_loss(LossBatch(y=[0], l=np.array([[1.0, 1.5, 0.8]]),
                                        s=np.ones((1, 3, 2)), w0=np.ones((1, 2))),
                              1.2, 1), 0.5),
            ("cma 2(e-1)", cma_loss(np.array([[1.0, 1.0]])), 2 * (E - 1)),
            ("sep normal", sep_loss(batch([0], [0.3]), 2.0), 0.3),
            ("sep anomalous", sep_loss(batch([1], [1.0]), 2.0), 0.5),
            ("weighted sum 23.9",
             combine_terms({"sep": 0.5, "mar": 0.1, "cns": 0.2, "sc": 0.3,
                            "cma": 0.4, "l1": 0.0}, LossConfig(m0=1.0, l1_weight=0.0)),
             23.9),
        ]
        worst = max(abs(got - want) / max(1.0, abs(want)) for _, got, want in checks)
        report(2, worst <= 1e-6, f"{len(checks)} hand values, worst rel err {worst:.2e} "
                                 f"(<=1e-6)")


class TestCriterion3InitializationIdentity:
    def test_unit_scales_reduce_to_euclidean(self, benchmark_runs):
        runs, _ = benchmark_runs
        run = runs[0]
        ckpt = run["checkpoint"]
        forced = ckpt.model.copy()
        for p in parameters(forced)[:-1]:
            p[...] = 0.0
        forced.log_sigma[...] = np.log(0.5)

        # Random encodings: fused metric must equal 0.5 * (s_pc + s_rgb).
        rng = np.random.default_rng(0)
        s = rng.uniform(0.1, 3.0, size=(4096, 2))
        w = np.ones((4096, 2))
        fused = (w * s * 0.5).sum(axis=1)
        direct = 0.5 * (s[:, 0] + s[:, 1])
        metric_err = float(np.abs(fused - direct).max())

        # Every aggregation strategy coincides with the same aggregation of
        # the sigma-weighted Euclidean sums, recomputed from raw encodings.
        from g2sf.geometry import encode_map

        pair = load_sample(run["test_manifest"], run["test_manifest"].samples[0])
        maps = sample_maps(forced, pair, ckpt.banks, ckpt.normalizer, 5)
        enc_pc = encode_map(pair.pc, ckpt.banks["pc"], 5, ckpt.normalizer)
        enc_rgb = encode_map(pair.rgb, ckpt.banks["rgb"], 5, ckpt.normalizer)
        base = 0.5 * (enc_pc.distances[..., :6].astype(np.float64)
                      + enc_rgb.distances[..., :6].astype(np.float64))
        agg_fn = {"min": lambda a: a.min(-1), "max": lambda a: a.max(-1),
                  "mean": lambda a: a.mean(-1), "first": lambda a: a[..., 0]}
        agg_err = max(
            float(np.abs(maps[name].grid - fn(base)).max() / np.abs(fn(base)).max())
            for name, fn in agg_fn.items()
        )
        min_first = float(np.abs(maps["min"].grid - maps["first"].grid).max())
        ok = metric_err < 1e-6 and agg_err < 1e-6 and min_first < 1e-9
        report(3, ok, f"fused==0.5(s_pc+s_rgb) err {metric_err:.2e}, aggregation vs "
                      f"Euclidean baseline rel err {agg_err:.2e} (<1e-6), "
                      f"min==rank0 diff {min_first:.2e}")


class TestCriterion4ActivationRange:
    def test_range_and_background(self, benchmark_runs):
        cfg = LspnConfig(dim_pc=8, dim_rgb=8, branch_widths=(16, 8), fusion_widths=(8,))
        model = init_model(cfg, seed=3)
        rng = np.random.default_rng(1)
        lo, hi = np.inf, -np.inf
        total = 0
        for scale in (1.0, 10.0, 1000.0):
            for _ in range(4):
                inputs = random_inputs(rng, cfg, 100_000, scale=scale, n_protos=256)
                w, _ = forward_batch(model, *inputs)
                lo, hi = min(lo, float(w.min())), max(hi, float(w.max()))
                total += w.size
        # At float32 the bound is the activation's own saturation values,
        # which sit within one ulp of the exact interval [1/e, e].
        sat_lo = float(np.exp(np.tanh(np.float32(-50.0))))
        sat_hi = float(np.exp(np.tanh(np.float32(50.0))))
        sat_tight = abs(sat_lo - np.exp(-1)) < 2e-7 and abs(sat_hi - E) < 2e-7
        runs, _ = benchmark_runs
        run = runs[0]
        pair = load_sample(run["test_manifest"], run["test_manifest"].samples[0])
        maps = sample_maps(run["checkpoint"].model, pair, run["checkpoint"].banks,
                           run["checkpoint"].normalizer, 5)
        bg = ~pair.foreground
        bg_unit = bool(np.all(maps["w_pc"].grid[bg] == 1.0)
                       and np.all(maps["w_rgb"].grid[bg] == 1.0))
        ok = lo >= sat_lo and hi <= sat_hi and sat_tight and bg_unit \
            and total >= 1_000_000
        report(4, ok, f"{total} scale outputs in [{lo:.8f}, {hi:.8f}] within the "
                      f"f32 saturation closure of [1/e, e] (off by <2e-7); "
                      f"background cells all exactly (1, 1): {bg_unit}")


class TestCriterion5AuproExactness:
    def test_against_bruteforce(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            maps = [rng.random((8, 8)) for _ in range(2)]
            gts = [rng.random((8, 8)) < 0.25 for _ in range(2)]
            if not any(g.any() for g in gts):
                gts[0][3, 3] = True
            for limit in (0.30, 0.01):
                worst = max(worst, abs(aupro(maps, gts, limit)
                                       - aupro_bruteforce(maps, gts, limit)))
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:5, 2:5] = True
        gt[7, 0] = True
        perfect = [float(aupro([gt.astype(float)], [gt], limit))
                   for limit in (0.30, 0.01)]
        ok = worst <= 1e-9 and all(p == 1.0 for p in perfect)
        report(5, ok, f"100 random 8x8 instances, max |fast-bruteforce| {worst:.2e} "
                      f"(<=1e-9); perfect detector AUPRO {perfect} == 1.0 exactly")


class TestCriterion6CoresetQuality:
    def test_two_approximation(self):
        rng = np.random.default_rng(6)
        import itertools

        worst = 0.0
        count = 0
        for n in range(4, 13):
            for budget in (1, 2, 3):
                points = rng.uniform(-1, 1, size=(n, 3)).astype(np.float32)
                bank = build_bank(points, "pc", budget / n)
                greedy = covering_radius(bank, points)
                best = min(
                    max(min(float(np.linalg.norm(p - points[c])) for c in combo)
                        for p in points)
                    for combo in itertools.combinations(range(n), bank.size)
                )
                worst = max(worst, greedy / max(best, 1e-12))
                count += 1
        report(6, worst <= 2.0 + 1e-9,
               f"{count} exhaustive instances (N<=12, budget<=3), worst "
               f"greedy/optimal ratio {worst:.3f} (<=2)")


class TestCriterion7EndToEnd:
    def test_fused_dominates_unimodal(self, benchmark_runs):
        runs, elapsed = benchmark_runs
        wins = 0
        lines = []
        for run in runs:
            fused = run["variants"]["fused"]["i_auroc"]
            s_pc = run["variants"]["s_pc"]["i_auroc"]
            s_rgb = run["variants"]["s_rgb"]["i_auroc"]
            good = fused >= 0.95 and fused >= max(s_pc, s_rgb) + 0.05
            wins += good
            lines.append(f"seed {run['seed']}: fused {fused:.4f} vs uni "
                         f"({s_pc:.4f}, {s_rgb:.4f}) {'ok' if good else 'MISS'}")
        ok = wins >= 2 and elapsed < 300.0
        report(7, ok, f"{'; '.join(lines)}; {wins}/3 seeds, "
                      f"3-seed runtime {elapsed:.0f}s (<300s)")


class TestCriterion8Collapse:
    def test_scales_collapse_without_synthesis(self):
        loss_cfg = dataclasses.replace(LossConfig(k=5), mu=0.0, alpha=0.0)
        checkpoint, pool, _, _ = desk_pipeline(
            BENCH_SEEDS[0], epochs=40, n_aug=0, loss_cfg=loss_cfg,
            train_overrides={"batch_size": 32, "sigma_lr": 0.0},
        )
        rows = pool.train_indices[:2048]
        w = scale_factors(checkpoint.model, pool, checkpoint.banks, rows)[:, 0]
        mean_w = float(w.mean())
        report(8, mean_w < 0.6, f"mean scale after 40 all-normal epochs {mean_w:.4f} "
                                f"(<0.6; limit 1/e={np.exp(-1):.4f})")


class TestCriterion9Aggregation:
    def test_elementwise_order_and_aupro_direction(self, benchmark_runs):
        runs, _ = benchmark_runs
        run = runs[0]
        ckpt = run["checkpoint"]
        violations = 0
        for ref in run["test_manifest"].samples:
            pair = load_sample(run["test_manifest"], ref)
            maps = sample_maps(ckpt.model, pair, ckpt.banks, ckpt.normalizer, 5)
            if not (np.all(maps["min"].grid <= maps["first"].grid + 1e-12)
                    and np.all(maps["first"].grid <= maps["max"].grid + 1e-12)):
                violations += 1
        wins = sum(run["aggregations"]["min"]["aupro@0.01"]
                   >= run["aggregations"]["mean"]["aupro@0.01"] for run in runs)
        pairs = [(round(run["aggregations"]["min"]["aupro@0.01"], 4),
                  round(run["aggregations"]["mean"]["aupro@0.01"], 4)) for run in runs]
        ok = violations == 0 and wins >= 2
        report(9, ok, f"min<=rank0<=max on all {len(run['test_manifest'].samples)} "
                      f"samples ({violations} violations); AUPRO@1% min vs mean "
                      f"{pairs}, min wins {wins}/3 seeds")


class TestCriterion10Determinism:
    def test_byte_identical_pipelines(self, tmp_path):
        from tests.test_cli import MINI_CFG, run_chain, tree_bytes

        cfg_path = tmp_path / "mini.cfg"
        cfg_path.write_text(MINI_CFG)
        _, data_a, run_a = run_chain(tmp_path / "a", cfg_path)
        _, data_b, run_b = run_chain(tmp_path / "b", cfg_path)
        same = tree_bytes(data_a) == tree_bytes(data_b) \
            and tree_bytes(run_a) == tree_bytes(run_b)
        n_files = len(tree_bytes(data_a)) + len(tree_bytes(run_a))
        report(10, same, f"two deterministic gen->eval runs byte-identical "
                         f"across {n_files} artifact files")


class TestCriterion11SmokeBudget:
    def test_cli_chain_under_budget(self, tmp_path):
        data, run = tmp_path / "data", tmp_path / "run"
        t0 = time.perf_counter()
        codes = [cli_main(["gen", "--config", DESK_CFG, "--out", str(data)])]
        for stage in ("bank", "synth", "train", "score", "eval", "ablate"):
            codes.append(cli_main([stage, "--config", DESK_CFG,
                                   "--data", str(data), "--run", str(run)]))
        chain_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        selftest_ok = all(ok for _, ok, _ in run_all())
        selftest_time = time.perf_counter() - t0
        ok = all(c == 0 for c in codes) and chain_time < 60.0 \
            and selftest_ok and selftest_time < 120.0
        report(11, ok, f"desk CLI chain {chain_time:.1f}s (<60s), selftest "
                       f"{selftest_time:.1f}s (<120s), exit codes {codes}")
