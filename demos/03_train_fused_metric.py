"""Train the scale-prediction network on synthetically corrupted samples.

Perlin-noise masks pick regions of training samples to overwrite with
perturbed donor features (cell labels follow the mask); every foreground
cell is encoded against both banks and pooled. The metric starts as a near
Euclidean measure (scales ~ 1, sigma = 0.5 each) and deforms from there
under the five losses.
"""
import tempfile

import numpy as np

from g2sf.features import SynthConfig, gen_synthetic_dataset
from g2sf.geometry import fit_banks
from g2sf.losses import LossConfig
from g2sf.lspn import LspnConfig
from g2sf.synthesis import SynthesisConfig, build_training_pool
from g2sf.trainer import TrainConfig, scale_factors, train

# The dataset lives in a temporary directory that is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="g2sf_demo_") as out:
    train_manifest, _ = gen_synthetic_dataset(SynthConfig(), seed=7, out_dir=out)

    banks, normalizer, _ = fit_banks(train_manifest, 0.10)

    pool = build_training_pool(train_manifest, banks, normalizer,
                               SynthesisConfig(n_aug=32, k=5), seed=7)
    print(f"training pool: {pool.size} cells ({pool.y.mean():.1%} anomalous), "
          f"{pool.train_indices.size} train / {pool.val_indices.size} validation")

    lspn_cfg = LspnConfig(dim_pc=8, dim_rgb=8, branch_widths=(32, 32), fusion_widths=(32,))
    loss_cfg = LossConfig(k=5)  # alpha=10, beta=60, gamma=8, mu=20, eta0=1.2
    train_cfg = TrainConfig(epochs=12, batch_size=512, seed=7)
    checkpoint, log_rows, _ = train(pool, banks, normalizer, lspn_cfg, train_cfg, loss_cfg)

    print(f"\nm0 threshold frozen before training: {checkpoint.m0:.3f}")
    print("epoch  train_total  val_total  sigma_pc  sigma_rgb")
    for row in log_rows[:: max(1, len(log_rows) // 6)]:
        print(f"{row['epoch']:5d}  {row['train_total']:11.3f}  {row['val_total']:9.3f}"
              f"  {row['sigma_pc']:8.4f}  {row['sigma_rgb']:9.4f}")

    # Class-wise scale statistics. The synthetic corruptions point in random
    # directions, so most of the anomaly signal lives in the distances here and
    # the scales stay close to uniform; on real extractor features with
    # systematic defect directions the scales themselves become discriminative.
    rows = pool.train_indices
    w = scale_factors(checkpoint.model, pool, banks, rows)[:, 0]
    y = pool.y[rows]
    print(f"\nmean predicted scale on normal cells:    {w[y == 0].mean():.3f}")
    print(f"mean predicted scale on corrupted cells:  {w[y == 1].mean():.3f} "
          f"(bounds are [1/e, e] = [{np.exp(-1):.3f}, {np.e:.3f}])")
