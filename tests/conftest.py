"""Shared desk-scale fixtures: dataset, banks, pool, and a short-trained model."""

import pytest


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion after the run."""
    import sys

    lines = []
    for name in ("test_acceptance", "tests.test_acceptance"):
        module = sys.modules.get(name)
        if module is not None:
            lines = getattr(module, "RESULT_LINES", [])
            if lines:
                break
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)

from g2sf.features import SynthConfig, gen_synthetic_dataset
from g2sf.geometry import fit_banks
from g2sf.losses import LossConfig
from g2sf.lspn import LspnConfig
from g2sf.synthesis import SynthesisConfig, build_training_pool
from g2sf.trainer import TrainConfig, train

DESK_SEED = 123
DESK_K = 2


@pytest.fixture(scope="session")
def desk_dataset(tmp_path_factory):
    cfg = SynthConfig(grid=(12, 12), dims=(6, 6), n_train=16, n_test=16, gt_upscale=2)
    out = tmp_path_factory.mktemp("desk_data")
    train_manifest, test_manifest = gen_synthetic_dataset(cfg, DESK_SEED, out)
    return cfg, train_manifest, test_manifest


@pytest.fixture(scope="session")
def desk_banks(desk_dataset):
    _, train_manifest, _ = desk_dataset
    banks, normalizer = fit_banks(train_manifest, 0.10)
    return banks, normalizer


@pytest.fixture(scope="session")
def desk_pool(desk_dataset, desk_banks):
    _, train_manifest, _ = desk_dataset
    banks, normalizer = desk_banks
    cfg = SynthesisConfig(n_aug=12, k=DESK_K)
    return build_training_pool(train_manifest, banks, normalizer, cfg, DESK_SEED)


@pytest.fixture(scope="session")
def desk_lspn_cfg(desk_dataset):
    cfg, _, _ = desk_dataset
    return LspnConfig(dim_pc=cfg.dims[0], dim_rgb=cfg.dims[1],
                      branch_widths=(16, 8), fusion_widths=(8,))


@pytest.fixture(scope="session")
def desk_loss_cfg():
    return LossConfig(k=DESK_K)


@pytest.fixture(scope="session")
def desk_checkpoint(desk_pool, desk_banks, desk_lspn_cfg, desk_loss_cfg):
    banks, normalizer = desk_banks
    train_cfg = TrainConfig(epochs=6, batch_size=512, seed=DESK_SEED)
    checkpoint, log_rows, _ = train(desk_pool, banks, normalizer, desk_lspn_cfg,
                                    train_cfg, desk_loss_cfg)
    return checkpoint, log_rows
