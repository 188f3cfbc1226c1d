"""Geometric encoding: features as (prototype, direction, distance) triplets.

Every feature is rewritten relative to each of its nearest prototypes as a
unit direction plus a normalized distance. The encoding is lossless, so the
downstream metric learner sees everything the raw feature contained, unlike
feature-adaptation pipelines that compress before scoring. ``encode_map``
stores each cell's prototype ids and distances; a direction is
d = (f - m) / r, so f = m + r * d comes back from any one rank.
"""
import tempfile

import numpy as np

from g2sf.features import SynthConfig, gen_synthetic_dataset, iter_samples, load_sample
from g2sf.geometry import encode_map, fit_banks, inverse_distances

# The dataset lives in a temporary directory that is removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="g2sf_demo_") as out:
    train_manifest, test_manifest = gen_synthetic_dataset(
        SynthConfig(n_train=24, n_test=8), seed=3, out_dir=out)

    # One coreset bank per modality over the training foreground. Distances
    # are normalized per modality by the mean nearest-prototype distance over
    # that foreground, so both modalities score in the same units (training
    # mean becomes 1.0).
    banks, normalizer = fit_banks(train_manifest, 0.10)
    print(f"distance normalizer: mean_pc={normalizer.mean_pc:.4f}, "
          f"mean_rgb={normalizer.mean_rgb:.4f}")

    pair = load_sample(test_manifest, test_manifest.samples[0])
    enc = encode_map(pair.pc, banks["pc"], k=2, normalizer=normalizer)
    f = pair.pc.data[5, 5].astype(np.float64)
    m = banks["pc"].prototypes[enc.indices[5, 5]].astype(np.float64)  # (2k+1, D)
    r = enc.raw_distances[5, 5]
    d = (f - m) * inverse_distances(r)[:, None]  # unit directions, nearest first
    print(f"\nfeature at (5,5), first {enc.n_neighbors} local spaces:")
    for j in range(enc.n_neighbors):
        print(f"  rank {j}: prototype {enc.indices[5, 5, j]}, normalized distance "
              f"{enc.distances[5, 5, j]:.4f}, |direction|={np.linalg.norm(d[j]):.6f}")

    # Losslessness: the feature reconstructs from any one triplet.
    worst = np.abs(m + r[:, None] * d - f).max()
    print(f"\nmax reconstruction error over all ranks: {worst:.2e} "
          "(encoding is seamless)")

    # The normalized training distances average to one by construction.
    dists = []
    for pair in iter_samples(train_manifest):
        enc = encode_map(pair.pc, banks["pc"], 0, normalizer)
        dists.append(enc.distances[pair.foreground][:, 0])
    print(f"mean normalized training distance: {np.concatenate(dists).mean():.6f}")
