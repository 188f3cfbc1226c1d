"""Geometry-guided score fusion for multimodal anomaly detection.

The pipeline scores aligned point-cloud / image feature grids by learning an
anisotropic local distance metric on top of memory-bank prototype retrieval:
features are rewritten as (prototype, direction, distance) triplets, a small
network predicts per-modality scaling factors in [1/e, e], and the fused
metric replaces the isotropic Euclidean anomaly score of each modality.
"""

from .bank import MemoryBank, build_bank
from .errors import (
    ConfigError,
    DivergenceError,
    EmptyBankError,
    FormatError,
    G2sfError,
    ShapeError,
    StaleArtifactError,
    UndefinedMetricError,
)
from .evaluation import EvalReport, ablation_scores, aupro, auroc, eval_dataset
from .features import (
    DatasetManifest,
    FeatureMap,
    SamplePair,
    SynthConfig,
    gen_synthetic_dataset,
    load_manifest,
    read_feature_map,
    write_feature_map,
)
from .geometry import DistanceNormalizer, encode_map, fit_banks, fit_normalizer
from .losses import LossBatch, LossConfig, total_loss
from .lspn import LspnConfig, LspnModel, init_model
from .scoring import ScoreMap, score_sample, upsample_smooth
from .synthesis import (
    SynthesisConfig,
    TrainingPool,
    build_training_pool,
    gen_perlin_mask,
    inject_anomaly,
)
from .trainer import Checkpoint, TrainConfig, load_checkpoint, make_negatives
from .trainer import save_checkpoint, train

__version__ = "0.1.0"
