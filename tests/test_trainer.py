"""Negative construction, training loop, and checkpoint tests."""

import dataclasses

import numpy as np
import pytest

from g2sf.losses import LossConfig
from g2sf.lspn import forward_batch, init_model, parameters
from g2sf.synthesis import SynthesisConfig, build_training_pool
from g2sf.trainer import (
    TrainConfig,
    _sattolo,
    batch_rows,
    load_checkpoint,
    make_negatives,
    save_checkpoint,
    scale_factors,
    train,
)
from tests.conftest import DESK_K, DESK_SEED
from tests.oracles import dense_forward, dense_pool_rows, sattolo_scalar


class TestMakeNegatives:
    def test_pair_batch_is_swap(self):
        neg = make_negatives(np.array([0, 0]), np.random.default_rng(0))
        assert sorted(neg.rows.tolist()) == [0, 1]
        assert neg.partners.tolist() == neg.rows[::-1].tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000])
    def test_sattolo_matches_scalar_draws(self, n):
        # One vector draw of the swap indices: the same permutation as one
        # scalar draw per swap, and the generator left in the same state.
        for seed in range(5):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            perm = _sattolo(n, fast)
            assert perm.dtype == np.int64
            assert perm.tolist() == sattolo_scalar(n, slow).tolist()
            assert fast.random() == slow.random()

    def test_no_fixed_points_over_seeds(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            y = (rng.random(17) < 0.3).astype(int)
            neg = make_negatives(y, rng)
            assert not np.any(neg.rows == neg.partners)
            assert np.all(y[neg.rows] == 0)

    def test_kind_ratio_fair(self):
        rng = np.random.default_rng(3)
        kinds = []
        remaining = 10_000
        while remaining > 0:
            n = min(500, remaining)
            neg = make_negatives(np.zeros(n, dtype=int), rng)
            kinds.append(neg.kinds)
            remaining -= n
        ratio = np.concatenate(kinds).mean()
        assert 0.48 <= ratio <= 0.52

    def test_single_normal_item_warns_empty(self):
        with pytest.warns(UserWarning):
            neg = make_negatives(np.array([0, 1, 1]), np.random.default_rng(0))
        assert len(neg) == 0


class TestBatchRows:
    def test_negatives_match_dense_assembly(self, desk_pool, desk_banks, desk_checkpoint):
        # Factored rows (every rank, then rank-0 negatives with the rgb
        # prototype or direction swapped in) against dense rows built the
        # way the trainer assembled them before its inputs were factored.
        banks, _ = desk_banks
        ckpt, _ = desk_checkpoint
        rows = desk_pool.train_indices[:96]
        neg = make_negatives(desk_pool.y[rows], np.random.default_rng(3))
        assert set(neg.kinds.tolist()) == {0, 1}
        protos, dirs, sources, n_pos = batch_rows(desk_pool, banks, rows, neg)
        assert n_pos == rows.size * desk_pool.n_neighbors
        assert protos.shape[0] == n_pos + len(neg)
        w, _ = forward_batch(ckpt.model, protos, dirs, sources)
        w_dense, _ = dense_forward(ckpt.model, *dense_pool_rows(desk_pool, banks, rows, neg))
        assert np.abs(w - w_dense).max() <= 1e-6 * np.abs(w_dense).max()


@pytest.fixture(scope="module")
def quick_cfgs(desk_lspn_cfg, desk_loss_cfg):
    return desk_lspn_cfg, desk_loss_cfg


class TestTrain:
    def test_zero_epochs_equals_init(self, desk_pool, desk_banks, quick_cfgs):
        from g2sf.lspn import init_model

        banks, normalizer = desk_banks
        lspn_cfg, loss_cfg = quick_cfgs
        cfg = TrainConfig(epochs=0, batch_size=512, seed=4)
        ckpt, log_rows, _ = train(desk_pool, banks, normalizer, lspn_cfg, cfg, loss_cfg)
        reference = init_model(lspn_cfg, 4)
        for a, b in zip(parameters(ckpt.model), parameters(reference)):
            np.testing.assert_array_equal(a, b)
        assert log_rows == []

    def test_lspn_dropout_is_used(self, desk_pool, desk_banks, quick_cfgs):
        # Dropout has one source, the scale network's config.
        banks, normalizer = desk_banks
        lspn_cfg, loss_cfg = quick_cfgs
        cfg = dataclasses.replace(lspn_cfg, dropout=0.0)
        ckpt, _, _ = train(desk_pool, banks, normalizer, cfg,
                           TrainConfig(epochs=1, batch_size=512, seed=4), loss_cfg)
        model = ckpt.model
        blocks = model.proto_branch + model.dir_branch + model.fusion_head
        assert [b.dropout_rate for b in blocks] == [0.0] * len(blocks)

    def test_skipped_validation_warns(self, desk_pool, desk_banks, quick_cfgs):
        # Below two validation cells train skips validation, says so, and
        # logs val_total None; two cells validate without the warning.
        import warnings

        banks, normalizer = desk_banks
        lspn_cfg, loss_cfg = quick_cfgs
        cfg = TrainConfig(epochs=1, batch_size=512, seed=4)
        few = dataclasses.replace(desk_pool, train_indices=desk_pool.train_indices[:512])
        with pytest.warns(UserWarning, match="validation half has 1 cells"):
            _, log_rows, _ = train(dataclasses.replace(few, val_indices=few.val_indices[:1]),
                                   banks, normalizer, lspn_cfg, cfg, loss_cfg)
        assert [row["val_total"] for row in log_rows] == [None]
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*validation half")
            _, log_rows, _ = train(dataclasses.replace(few, val_indices=few.val_indices[:2]),
                                   banks, normalizer, lspn_cfg, cfg, loss_cfg)
        assert log_rows[0]["val_total"] is not None

    def test_loss_decreases(self, desk_pool, desk_banks, quick_cfgs):
        # Monotone-trend oracle with a 3-seed majority vote.
        banks, normalizer = desk_banks
        lspn_cfg, loss_cfg = quick_cfgs
        wins = 0
        for seed in (1, 2, 3):
            cfg = TrainConfig(epochs=10, batch_size=512, seed=seed)
            _, log_rows, _ = train(desk_pool, banks, normalizer, lspn_cfg, cfg, loss_cfg)
            if log_rows[-1]["train_total"] < log_rows[0]["train_total"]:
                wins += 1
        assert wins >= 2

    def test_deterministic_same_seed(self, desk_pool, desk_banks, quick_cfgs):
        banks, normalizer = desk_banks
        lspn_cfg, loss_cfg = quick_cfgs
        cfg = TrainConfig(epochs=3, batch_size=512, seed=11)
        a, _, _ = train(desk_pool, banks, normalizer, lspn_cfg, cfg, loss_cfg)
        b, _, _ = train(desk_pool, banks, normalizer, lspn_cfg, cfg, loss_cfg)
        for pa, pb in zip(parameters(a.model), parameters(b.model)):
            assert pa.tobytes() == pb.tobytes()

    def test_preprocessing_frozen(self, desk_checkpoint, desk_banks, desk_pool):
        banks, normalizer = desk_banks
        ckpt, _ = desk_checkpoint
        assert ckpt.normalizer is normalizer
        assert ckpt.m0 == 2.0 * desk_pool.s0().max()
        for bank in banks.values():
            assert not bank.prototypes.flags.writeable

    def test_sigma_stays_positive(self, desk_checkpoint):
        ckpt, log_rows = desk_checkpoint
        assert ckpt.model.sigma_pc > 0 and ckpt.model.sigma_rgb > 0
        assert all(row["sigma_pc"] > 0 and row["sigma_rgb"] > 0 for row in log_rows)

    def test_divergence_aborts_naming_the_epoch(self, desk_pool, desk_banks, quick_cfgs,
                                                monkeypatch):
        import g2sf.trainer as trainer_mod
        from g2sf.errors import DivergenceError

        banks, normalizer = desk_banks
        lspn_cfg, loss_cfg = quick_cfgs
        calls = {"n": 0}
        real = trainer_mod.losses_mod.total_loss_with_grads

        def poisoned(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # diverge partway through the first epoch
                raise DivergenceError("loss term 'cns' is non-finite")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod.losses_mod, "total_loss_with_grads", poisoned)
        cfg = TrainConfig(epochs=4, batch_size=256, seed=9)
        with pytest.raises(DivergenceError, match="diverged at epoch 1: loss term 'cns'"):
            train(desk_pool, banks, normalizer, lspn_cfg, cfg, loss_cfg)

    def test_collapse_without_synthesis_and_cma(self, desk_dataset, desk_banks,
                                                quick_cfgs):
        # With no anomalies, no alignment term, and the global scales frozen,
        # the predicted factors drift toward 1/e. This pool only supports
        # ~2000 steps; the full < 0.6 bound runs in the acceptance suite.
        _, train_manifest, _ = desk_dataset
        banks, normalizer = desk_banks
        lspn_cfg, loss_cfg = quick_cfgs
        pool = build_training_pool(train_manifest, banks, normalizer,
                                   SynthesisConfig(n_aug=0, k=DESK_K), DESK_SEED)
        loss_cfg = dataclasses.replace(loss_cfg, mu=0.0, alpha=0.0)
        cfg = TrainConfig(epochs=40, batch_size=16, seed=1, sigma_lr=0.0)
        ckpt, _, _ = train(pool, banks, normalizer, lspn_cfg, cfg, loss_cfg)
        rows = np.arange(min(512, pool.size))
        init = init_model(lspn_cfg, cfg.seed)
        w_init = scale_factors(init, pool, banks, rows)[:, 0]
        w = scale_factors(ckpt.model, pool, banks, rows)[:, 0]
        assert w.mean() < 0.9
        assert w.mean() < w_init.mean() - 0.05


class TestStepPeak:
    def test_traced_peak_within_cache_and_first_layers(self, desk_pool, desk_banks):
        # One training step at branch widths 256-128 over a few thousand
        # rows. The backward releases the cache as it reads it and runs both
        # branch stacks before either first layer, so the step never holds
        # more than the training cache (the forward's own end state) plus
        # the two first-layer gradients and one float64 copy of either.
        # The slack covers the row inputs and loss arrays (under 100 bytes
        # per row) and one bool mask per first-layer entry. A backward that
        # keeps its cache and the fusion input's gradient until it returns
        # peaks about 6 MB above the bound here, three times the slack.
        import tracemalloc

        from g2sf.losses import compute_m0
        from g2sf.lspn import LspnConfig
        from g2sf.trainer import batch_objective

        banks, _ = desk_banks
        cfg = LspnConfig(dim_pc=desk_pool.feat_pc.shape[1], dim_rgb=desk_pool.feat_rgb.shape[1],
                         branch_widths=(256, 128), fusion_widths=(128,), dropout=0.5)
        model = init_model(cfg, seed=0)
        loss_cfg = LossConfig(k=DESK_K, m0=compute_m0(desk_pool.s0()))
        rows = np.arange(800)
        neg = make_negatives(desk_pool.y[rows], np.random.default_rng(0))
        n_rows = batch_rows(desk_pool, banks, rows, neg)[0].shape[0]
        assert n_rows > 3000
        itemsize = np.dtype(np.float32).itemsize
        cached = sum(cfg.branch_widths) * 2 + sum(cfg.fusion_widths) + 2
        first = cfg.branch_widths[0]
        bound = n_rows * (cached * itemsize + 2 * first * itemsize + first * 8)
        slack = (1 << 20) + n_rows * first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch_objective(model, desk_pool, banks, rows, neg, loss_cfg, grads=True,
                            rng=np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < bound + slack, (peak, bound, slack)


class TestChunkedObjective:
    """Without gradients the objective runs its network forward in chunks of
    at most ``chunk`` cells and the negatives in chunks of ``chunk`` (2k+1)
    rows; the margin bounds and the losses still see the whole half."""

    CHUNK = 70

    def _count_forwards(self, monkeypatch):
        import g2sf.trainer as trainer_mod

        calls = []
        real = trainer_mod.lspn_mod.forward_batch

        def counted(model, protos, *args, **kwargs):
            calls.append(protos.shape[0])
            return real(model, protos, *args, **kwargs)

        monkeypatch.setattr(trainer_mod.lspn_mod, "forward_batch", counted)
        return calls

    def test_chunked_equals_one_chunk(self, desk_pool, desk_banks, desk_checkpoint,
                                      monkeypatch):
        from g2sf.trainer import batch_objective

        banks, _ = desk_banks
        ckpt, _ = desk_checkpoint
        rows, n = desk_pool.val_indices, desk_pool.n_neighbors
        n_chunks = -(-rows.size // self.CHUNK)
        assert n_chunks >= 3 and rows.size % self.CHUNK  # the last chunk is partial
        neg = make_negatives(desk_pool.y[rows], np.random.default_rng(5))
        n_neg_chunks = -(-len(neg) // (self.CHUNK * n))
        assert n_neg_chunks >= 2
        # Some negatives pair cells of different cell chunks.
        chunk_of = np.repeat(np.arange(n_chunks),
                             [part.size for part in np.array_split(rows, n_chunks)])
        assert np.any(chunk_of[neg.rows] != chunk_of[neg.partners])

        calls = self._count_forwards(monkeypatch)
        want = batch_objective(ckpt.model, desk_pool, banks, rows, neg, ckpt.loss_cfg)
        assert len(calls) == 1
        got = batch_objective(ckpt.model, desk_pool, banks, rows, neg, ckpt.loss_cfg,
                              chunk=self.CHUNK)
        assert len(calls) == 1 + n_chunks + n_neg_chunks
        assert max(calls[1:]) <= self.CHUNK * n
        assert got[0] == want[0]
        assert got[1] == want[1]  # every unweighted part
        assert got[2] == want[2] and got[2] is not None  # the whole half's margin bounds

    def test_one_chunk_is_one_forward(self, desk_pool, desk_banks, desk_checkpoint,
                                      monkeypatch):
        # A batch of at most ``chunk`` cells runs as a training step does:
        # one forward over every rank row and then the negatives.
        from g2sf.trainer import batch_objective

        banks, _ = desk_banks
        ckpt, _ = desk_checkpoint
        rows = desk_pool.val_indices[: self.CHUNK]
        neg = make_negatives(desk_pool.y[rows], np.random.default_rng(5))
        calls = self._count_forwards(monkeypatch)
        got = batch_objective(ckpt.model, desk_pool, banks, rows, neg, ckpt.loss_cfg,
                              chunk=self.CHUNK)
        want = batch_objective(ckpt.model, desk_pool, banks, rows, neg, ckpt.loss_cfg)
        assert calls == [rows.size * desk_pool.n_neighbors + len(neg)] * 2
        assert got[:3] == want[:3]

    def test_gradient_batch_is_one_chunk(self, desk_pool, desk_banks, desk_checkpoint):
        from g2sf.errors import ConfigError
        from g2sf.trainer import batch_objective

        banks, _ = desk_banks
        ckpt, _ = desk_checkpoint
        rows = desk_pool.train_indices[: 2 * self.CHUNK]
        neg = make_negatives(desk_pool.y[rows], np.random.default_rng(5))
        with pytest.raises(ConfigError, match="exceeds chunk"):
            batch_objective(ckpt.model.copy(), desk_pool, banks, rows, neg, ckpt.loss_cfg,
                            grads=True, rng=np.random.default_rng(0), chunk=self.CHUNK)

    def test_validation_peak_does_not_grow_with_the_half(self, desk_pool, desk_banks):
        # A validation pass over eight batches' worth of cells peaks within
        # 1.5x of a pass over one batch: only the (cells, 2k+1, 2) metric
        # arrays, 176 bytes a cell, span the whole half. A pass that runs the
        # whole half as one forward peaks about eight times as high.
        import tracemalloc

        from g2sf.losses import compute_m0
        from g2sf.lspn import LspnConfig
        from g2sf.trainer import batch_objective

        banks, _ = desk_banks
        cfg = LspnConfig(dim_pc=desk_pool.feat_pc.shape[1], dim_rgb=desk_pool.feat_rgb.shape[1],
                         branch_widths=(256, 128), fusion_widths=(128,), dropout=0.5)
        model = init_model(cfg, seed=0)
        loss_cfg = LossConfig(k=DESK_K, m0=compute_m0(desk_pool.s0()))
        batch = 100
        peaks = []
        for rows in (np.arange(batch), np.arange(8 * batch)):
            neg = make_negatives(desk_pool.y[rows], np.random.default_rng(0))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                batch_objective(model, desk_pool, banks, rows, neg, loss_cfg, chunk=batch)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks


class TestCheckpoint:
    def test_roundtrip_bitexact_forward(self, desk_checkpoint, desk_banks, tmp_path,
                                        desk_pool):
        banks, _ = desk_banks
        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "ck")
        back = load_checkpoint(tmp_path / "ck")
        assert back.epoch == ckpt.epoch
        assert back.m0 == ckpt.m0
        assert back.normalizer.to_dict() == ckpt.normalizer.to_dict()
        rows = np.arange(64)
        w_a = scale_factors(ckpt.model, desk_pool, banks, rows)
        w_b = scale_factors(back.model, desk_pool, banks, rows)
        assert w_a.tobytes() == w_b.tobytes()

    def test_old_format_rejected(self, desk_checkpoint, tmp_path):
        # A checkpoint in an earlier format is refused by name: v1 with its
        # top-level m0, its rng_state and its train.dropout, v2 with its
        # train.eval_every, the cadence of the retired epoch snapshots, v3
        # with its train.beta1/beta2/eps, now Adam's fixed constants, v4
        # with the config hash only the stage manifests now record. Every
        # earlier format carried that hash.
        import json

        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        old = {"g2sf-checkpoint-v1": ({"m0": ckpt.m0, "rng_state": None}, {"dropout": 0.5}),
               "g2sf-checkpoint-v2": ({}, {"eval_every": 0}),
               "g2sf-checkpoint-v3": ({}, {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}),
               "g2sf-checkpoint-v4": ({}, {})}
        for fmt, (top, train_fields) in old.items():
            save_checkpoint(ckpt, tmp_path / fmt)
            path = tmp_path / fmt / "manifest.json"
            doc = json.loads(path.read_text())
            doc.update(format=fmt, config_hash="0" * 64, **top)
            doc["train"].update(train_fields)
            path.write_text(json.dumps(doc))
            with pytest.raises(ConfigError, match=fmt):
                load_checkpoint(tmp_path / fmt)

    def test_malformed_manifest_names_directory(self, desk_checkpoint, tmp_path):
        # A truncated manifest, one that is not a JSON object and one that
        # lacks a key are each refused as ConfigError naming the directory
        # (and the key), not as a bare JSONDecodeError or KeyError.
        import json

        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "good")
        text = (tmp_path / "good" / "manifest.json").read_text()
        no_normalizer = json.loads(text)
        del no_normalizer["normalizer"]
        no_dim = json.loads(text)
        del no_dim["lspn"]["dim_pc"]
        cases = {"truncated": (text[: len(text) // 2], "not JSON"),
                 "listed": ("[]", "checkpoint format None"),
                 "no_normalizer": (json.dumps(no_normalizer), "without key 'normalizer'"),
                 "no_dim": (json.dumps(no_dim), "without key 'dim_pc'")}
        for name, (body, what) in cases.items():
            save_checkpoint(ckpt, tmp_path / name)
            (tmp_path / name / "manifest.json").write_text(body)
            with pytest.raises(ConfigError) as err:
                load_checkpoint(tmp_path / name)
            assert str(tmp_path / name) in str(err.value) and what in str(err.value)

    @pytest.mark.parametrize("key, value, what", [
        ("normalizer", [1, 2], "the manifest's normalizer is not a JSON object"),
        ("normalizer", {"mean_pc": "x", "mean_rgb": 1.0}, "normalizer is {'mean_pc': 'x'"),
        ("epoch", "x", "the manifest's epoch is 'x', not a nonnegative integer"),
        ("epoch", 2.5, "the manifest's epoch is 2.5, not a nonnegative integer"),
        ("log_sigma", "x", "the manifest's log_sigma is 'x', not two finite numbers"),
        ("log_sigma", ["a", "b"], "log_sigma is ['a', 'b'], not two finite numbers"),
        ("log_sigma", [0.0], "log_sigma is [0.0], not two finite numbers"),
        ("log_sigma", [0.0, float("nan")], "log_sigma is [0.0, nan], not two finite numbers"),
    ], ids=["normalizer_list", "normalizer_text", "epoch_text", "epoch_float", "log_sigma_text",
            "log_sigma_texts", "log_sigma_one", "log_sigma_nan"])
    def test_value_types_named(self, desk_checkpoint, tmp_path, key, value, what):
        # A list normalizer escaped as a TypeError, a text epoch or log_sigma
        # as a ValueError; a text mean or a fractional epoch loaded as it was.
        import json

        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(tmp_path / "ck")
        assert str(err.value).startswith(f"{tmp_path / 'ck'}: ") and what in str(err.value)

    @pytest.mark.parametrize("section, edit, what", [
        ("train", lambda part: part.update(extra=1), "has unknown key 'extra'"),
        ("train", lambda part: part.pop("epochs"), "is without key 'epochs'"),
        ("loss", lambda part: part.update(extra=1), "has unknown key 'extra'"),
        ("loss", lambda part: part.pop("eta0"), "is without key 'eta0'"),
        ("lspn", lambda part: part.update(extra=1), "has unknown key 'extra'"),
    ], ids=["train_extra", "train_missing", "loss_extra", "loss_missing", "lspn_extra"])
    def test_config_section_keys_named(self, desk_checkpoint, tmp_path, section, edit, what):
        # An unknown key escaped as a TypeError (train, loss) or was ignored
        # (lspn); a missing train or loss key silently took its default.
        import json

        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        doc = json.loads(path.read_text())
        edit(doc[section])
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(tmp_path / "ck")
        assert str(err.value).startswith(f"{tmp_path / 'ck'}: ")
        assert f"the manifest's {section} section {what}" in str(err.value)

    @pytest.mark.parametrize("field, value, what", [
        ("branch_widths", [16], "lists weights"),
        ("dim_pc", 9, "block proto_0"),
        ("branch_widths", [], "must be non-empty"),
    ], ids=["cut_branch", "wider_pc", "empty_branch"])
    def test_lspn_section_must_match_weights(self, desk_checkpoint, tmp_path, field, value,
                                             what):
        # An lspn section edited away from the weights (a branch layer cut,
        # a wider pc input) or out of range is refused by directory, never
        # loaded as some other network.
        import json

        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        doc = json.loads(path.read_text())
        doc["lspn"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(tmp_path / "ck")
        assert str(tmp_path / "ck") in str(err.value) and what in str(err.value)

    def test_double_save_identical_bytes(self, desk_checkpoint, tmp_path):
        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "a")
        save_checkpoint(ckpt, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                         if p.is_file())
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
