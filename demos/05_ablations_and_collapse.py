"""Two analyses: score-variant / aggregation ablations, and the collapse
that motivates the cross-modal and synthesis machinery.

The ablation compares five score definitions (unimodal distances, raw scale
factors, fused metric) and four aggregation strategies, all read from one
scoring pass over the test split. The min aggregation is the G2SF score; the
others exist only as rows of this table. The collapse run
trains on normal-only data with the alignment term off: with nothing
anchoring the upper end, the predicted scales sink toward the lower bound
1/e and the metric degenerates.
"""
import dataclasses
import tempfile

import numpy as np

from g2sf.evaluation import ablation_scores, score_split
from g2sf.features import SynthConfig, gen_synthetic_dataset
from g2sf.geometry import fit_banks
from g2sf.losses import LossConfig
from g2sf.lspn import LspnConfig
from g2sf.synthesis import SynthesisConfig, build_training_pool
from g2sf.trainer import TrainConfig, scale_factors, train

# The dataset lives in a temporary directory that is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="g2sf_demo_") as out:
    train_manifest, test_manifest = gen_synthetic_dataset(SynthConfig(), seed=7, out_dir=out)
    banks, normalizer = fit_banks(train_manifest, 0.10)
    lspn_cfg = LspnConfig(dim_pc=8, dim_rgb=8, branch_widths=(32, 32), fusion_widths=(32,))

    pool = build_training_pool(train_manifest, banks, normalizer,
                               SynthesisConfig(n_aug=32, k=5), seed=7)
    checkpoint, _, _ = train(pool, banks, normalizer, lspn_cfg,
                             TrainConfig(epochs=20, batch_size=512, seed=7), LossConfig(k=5))

    # One network pass per test sample scores every variant; the tables are views
    # of those grid maps, each upsampled to the ground truth as it is reported.
    scored = score_split(checkpoint, test_manifest)
    variants, aggregations = ablation_scores(scored, test_manifest.gt_upscale)
    print("score variants:")
    print(f"{'variant':8s} {'I-AUROC':>8s} {'P-AUROC':>8s} {'AUPRO@30%':>10s} {'AUPRO@1%':>9s}")
    for row in variants:
        print(f"{row['variant']:8s} {row['i_auroc']:8.4f} {row['p_auroc']:8.4f} "
              f"{row['aupro@0.3']:10.4f} {row['aupro@0.01']:9.4f}")
    print("\naggregation strategies over the fused metric:")
    for row in aggregations:
        print(f"{row['variant']:8s} {row['i_auroc']:8.4f} {row['p_auroc']:8.4f} "
              f"{row['aupro@0.3']:10.4f} {row['aupro@0.01']:9.4f}")

    # Collapse: all-normal pool, alignment term off, global scales frozen so the
    # degeneration shows up in the predicted scales themselves.
    print("\ncollapse experiment (no synthetic anomalies, no alignment term):")
    plain_pool = build_training_pool(train_manifest, banks, normalizer,
                                     SynthesisConfig(n_aug=0, k=5), seed=7)
    loss_cfg = dataclasses.replace(LossConfig(k=5), mu=0.0, alpha=0.0)
    collapsed, _, _ = train(plain_pool, banks, normalizer, lspn_cfg,
                            TrainConfig(epochs=40, batch_size=32, seed=7, sigma_lr=0.0),
                            loss_cfg)
    rows = plain_pool.train_indices[:2048]
    w = scale_factors(collapsed.model, plain_pool, banks, rows)[:, 0]
    print(f"  mean predicted scale after 40 epochs: {w.mean():.4f} "
          f"(lower bound 1/e = {np.exp(-1):.4f})")
    print("  -> without negatives the metric degenerates; the synthesis and "
          "alignment losses exist to prevent exactly this")
