"""Score the test split with the fused metric and evaluate detection quality.

Per cell, the score is the minimum fused metric over the k+1 nearest local
spaces, k being the one the checkpoint was trained at; per sample, the max
over foreground cells. The protocol is fixed: pixel-level maps are bilinearly
upsampled and smoothed with a Gaussian of sigma 4 before P-AUROC, and AUPRO is
reported at 30% and 1% FPR.
"""
import tempfile

from g2sf.evaluation import SMOOTH_SIGMA, eval_dataset
from g2sf.features import SynthConfig, gen_synthetic_dataset, load_sample
from g2sf.geometry import fit_banks
from g2sf.losses import LossConfig
from g2sf.lspn import LspnConfig
from g2sf.scoring import score_sample, upsample_smooth
from g2sf.synthesis import SynthesisConfig, build_training_pool
from g2sf.trainer import TrainConfig, train

# The dataset lives in a temporary directory that is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="g2sf_demo_") as out:
    train_manifest, test_manifest = gen_synthetic_dataset(SynthConfig(), seed=7, out_dir=out)

    banks, normalizer = fit_banks(train_manifest, 0.10)
    pool = build_training_pool(train_manifest, banks, normalizer,
                               SynthesisConfig(n_aug=32, k=5), seed=7)
    checkpoint, _, _ = train(
        pool, banks, normalizer,
        LspnConfig(dim_pc=8, dim_rgb=8, branch_widths=(32, 32), fusion_widths=(32,)),
        TrainConfig(epochs=20, batch_size=512, seed=7), LossConfig(k=5))

    # One anomalous sample in detail.
    pair = load_sample(test_manifest, test_manifest.samples[0])
    smap = score_sample(checkpoint.model, pair, banks, normalizer, k=checkpoint.loss_cfg.k)
    smap = upsample_smooth(smap, factor=test_manifest.gt_upscale, sigma=SMOOTH_SIGMA)
    inside = smap.grid[pair.pixel_gt[:: test_manifest.gt_upscale,
                                     :: test_manifest.gt_upscale]]
    outside = smap.grid[pair.foreground & ~pair.pixel_gt[:: test_manifest.gt_upscale,
                                                         :: test_manifest.gt_upscale]]
    print(f"sample {pair.sample_id} (label {pair.image_label}):")
    print(f"  sample score {smap.sample_score:.3f}; mean cell score inside the "
          f"defect {inside.mean():.3f} vs outside {outside.mean():.3f}")
    print(f"  pixel map {smap.upsampled.shape} after x{test_manifest.gt_upscale} "
          f"bilinear upsampling + sigma={SMOOTH_SIGMA:g} smoothing")

    # Whole-split metrics.
    report = eval_dataset(checkpoint, test_manifest)
    print("\ntest-split metrics:")
    print(f"  I-AUROC   {report.i_auroc:.4f}")
    print(f"  P-AUROC   {report.p_auroc:.4f}")
    for limit, value in sorted(report.aupro.items(), reverse=True):
        print(f"  AUPRO@{limit:<4} {value:.4f}")
