"""Negative construction, training loop, and checkpoint tests."""

import dataclasses
import math

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


def _rewrite(path, edit):
    """Rewrite the container at ``path`` with the header and payload that
    ``edit(header, payload)`` leaves: the header as edited in place, the
    payload as returned when it returns an array. Nothing is checked, so the
    payload may hold what ``write_tensor`` refuses."""
    import json
    import struct

    from g2sf.tensorio import MAGIC, read_tensor

    payload, header = read_tensor(path)
    edited = edit(header, payload)
    payload = edited if isinstance(edited, np.ndarray) else payload
    header["shape"] = list(payload.shape)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(blob)) + blob
                     + np.ascontiguousarray(payload, dtype="<f4").tobytes())


class TestCheckpoint:
    def test_roundtrip_bitexact_forward(self, desk_checkpoint, desk_banks, tmp_path,
                                        desk_pool):
        banks, _ = desk_banks
        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "ck.g2t")
        back = load_checkpoint(tmp_path / "ck.g2t")
        assert back.loss_cfg == ckpt.loss_cfg and back.model.cfg == ckpt.model.cfg
        assert back.normalizer.to_dict() == ckpt.normalizer.to_dict()
        rows = np.arange(64)
        w_a = scale_factors(ckpt.model, desk_pool, banks, rows)
        w_b = scale_factors(back.model, desk_pool, banks, rows)
        assert w_a.tobytes() == w_b.tobytes()

    def test_one_container(self, desk_checkpoint, tmp_path):
        # The payload is every parameter in order, log sigma last; the header
        # holds what scoring reads, and nothing of training's schedule.
        from g2sf.tensorio import read_tensor

        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "ck.g2t")
        assert [p.name for p in tmp_path.iterdir()] == ["ck.g2t"]
        flat, header = read_tensor(tmp_path / "ck.g2t")
        want = np.concatenate([p.ravel() for p in parameters(ckpt.model)])
        assert flat.tobytes() == want.astype(np.float32).tobytes()
        assert set(header) == {"shape", "dtype", "order", "kind", "format", "lspn", "loss",
                               "normalizer"}
        assert header["kind"] == "checkpoint" and header["format"] == "g2sf-checkpoint-v6"
        assert header["lspn"]["branch_widths"] == list(ckpt.model.cfg.branch_widths)
        assert header["loss"]["m0"] == ckpt.m0
        assert header["normalizer"] == ckpt.normalizer.to_dict()

    def test_old_format_rejected(self, desk_checkpoint, tmp_path):
        # Formats v1 to v5 were directories: a JSON manifest (v1 with its
        # top-level m0 and rng_state, v2 with the snapshot cadence, v3 with
        # Adam's constants, v4 with the config hash) beside one container per
        # weight. Each is refused by path, with the advice to retrain, and so
        # is a container that names an earlier format.
        import json

        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        for version in range(1, 6):
            old = tmp_path / f"v{version}"
            (old / "weights").mkdir(parents=True)
            (old / "manifest.json").write_text(
                json.dumps({"format": f"g2sf-checkpoint-v{version}"}))
            with pytest.raises(ConfigError) as err:
                load_checkpoint(old)
            assert str(err.value).startswith(f"{old} is not a checkpoint file")
            assert str(err.value).endswith("retrain it")
        path = tmp_path / "v5.g2t"
        save_checkpoint(ckpt, path)
        _rewrite(path, lambda header, _: header.update(format="g2sf-checkpoint-v5"))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ") and "'g2sf-checkpoint-v5'" in str(err.value)

    def test_malformed_manifest_names_directory(self, desk_checkpoint, tmp_path):
        # The manifest is now the container's header. One that is not a JSON
        # object, or lacks a key, is refused as ConfigError naming the
        # checkpoint's path (and the key), not as a bare TypeError or
        # KeyError.
        import struct

        from g2sf.errors import ConfigError
        from g2sf.tensorio import MAGIC

        ckpt, _ = desk_checkpoint
        listed = tmp_path / "listed.g2t"
        listed.write_bytes(MAGIC + struct.pack("<I", 2) + b"[]")
        no_normalizer, no_dim = tmp_path / "no_normalizer.g2t", tmp_path / "no_dim.g2t"
        for path in (no_normalizer, no_dim):
            save_checkpoint(ckpt, path)
        _rewrite(no_normalizer, lambda header, _: header.pop("normalizer"))
        _rewrite(no_dim, lambda header, _: header["lspn"].pop("dim_pc"))
        for path, what in ((listed, "is not a JSON object"),
                           (no_normalizer, "without key 'normalizer'"),
                           (no_dim, "without key 'dim_pc'")):
            with pytest.raises(ConfigError) as err:
                load_checkpoint(path)
            assert str(path) in str(err.value) and what in str(err.value)

    @pytest.mark.parametrize("edit, what", [
        (lambda header, _: header.update(normalizer=[1, 2]),
         "the header's normalizer is not a JSON object"),
        (lambda header, _: header.update(normalizer={"mean_pc": "x", "mean_rgb": 1.0}),
         "normalizer is {'mean_pc': 'x'"),
        (lambda header, _: header.update(normalizer={"mean_pc": math.inf, "mean_rgb": 1.0}),
         "normalizer is {'mean_pc': inf"),
        (lambda _, flat: flat[:-1], "the payload has shape"),
        (lambda _, flat: np.append(flat[:-1], np.nan), "non-finite payload value"),
        (lambda header, _: header["lspn"].update(dim_pc="4"),
         "the header's lspn section has dim_pc '4', not int"),
        (lambda header, _: header["lspn"].update(branch_widths=["8"]),
         "the header's lspn section has branch_widths ['8'], not tuple"),
        (lambda header, _: header["loss"].update(k="2"),
         "the header's loss section has k '2', not int"),
        (lambda header, _: header["loss"].update(alpha=math.inf),
         "the header's loss section has alpha inf, not float"),
        (lambda header, _: header["loss"].update(k=0), "loss.k must be >= 1"),
        (lambda header, _: header["loss"].update(m0=-1), "loss.m0 must be positive"),
    ], ids=["normalizer_list", "normalizer_text", "normalizer_inf", "log_sigma_one",
            "log_sigma_nan", "lspn_dim_text", "lspn_width_text", "loss_k_text", "loss_alpha_inf",
            "loss_k_zero", "loss_m0_negative"])
    def test_value_types_named(self, desk_checkpoint, tmp_path, edit, what):
        # A list normalizer escaped as a TypeError, a text mean loaded as it
        # was, an infinite one (JSON's Infinity) loaded too. Log sigma is the
        # payload's last two values: a payload one value short, so without a
        # second log sigma, or one whose last value is NaN is refused by path
        # like any other bad payload. A section value of another type than
        # its field's escaped as a TypeError (lspn) or loaded (loss), and the
        # loss section loaded values its validate refuses.
        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        path = tmp_path / "ck.g2t"
        save_checkpoint(ckpt, path)
        _rewrite(path, edit)
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ") and what in str(err.value)

    @pytest.mark.parametrize("section, edit, what", [
        ("loss", lambda part: part.update(extra=1), "has unknown key 'extra'"),
        ("loss", lambda part: part.pop("eta0"), "is without key 'eta0'"),
        ("lspn", lambda part: part.update(extra=1), "has unknown key 'extra'"),
    ], ids=["loss_extra", "loss_missing", "lspn_extra"])
    def test_config_section_keys_named(self, desk_checkpoint, tmp_path, section, edit, what):
        # An unknown key escaped as a TypeError (loss) or was ignored (lspn);
        # a missing loss key silently took its default.
        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        path = tmp_path / "ck.g2t"
        save_checkpoint(ckpt, path)
        _rewrite(path, lambda header, _: edit(header[section]))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ")
        assert f"the header's {section} section {what}" in str(err.value)

    @pytest.mark.parametrize("field, value, what", [
        ("branch_widths", [16], "gives a network of"),
        ("dim_pc", 9, "gives a network of"),
        ("branch_widths", [], "must be non-empty"),
    ], ids=["cut_branch", "wider_pc", "empty_branch"])
    def test_lspn_section_must_match_weights(self, desk_checkpoint, tmp_path, field, value,
                                             what):
        # An lspn section edited away from the payload (a branch layer cut,
        # a wider pc input) or out of range is refused by path, never loaded
        # as some other network.
        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        path = tmp_path / "ck.g2t"
        save_checkpoint(ckpt, path)
        _rewrite(path, lambda header, _: header["lspn"].update({field: value}))
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(path) in str(err.value) and what in str(err.value)

    @pytest.mark.parametrize("case", ["truncated", "wrong_kind", "bank"])
    def test_refused_naming_the_path(self, desk_checkpoint, desk_banks, tmp_path, case):
        # A truncated container, a checkpoint whose header names another
        # kind, and a bank's container are each a ConfigError that names the
        # checkpoint's path.
        from g2sf.bank import save_bank
        from g2sf.errors import ConfigError

        ckpt, _ = desk_checkpoint
        path = tmp_path / "ck.g2t"
        save_checkpoint(ckpt, path)
        if case == "truncated":
            path.write_bytes(path.read_bytes()[:-3])
            what = "payload is"
        elif case == "wrong_kind":
            _rewrite(path, lambda header, _: header.update(kind="weights"))
            what = "kind 'weights'"
        else:
            save_bank(desk_banks[0]["pc"], path)
            what = "kind 'memory_bank'"
        with pytest.raises(ConfigError) as err:
            load_checkpoint(path)
        assert str(err.value).startswith(f"{path}: ") and what in str(err.value)

    def test_double_save_identical_bytes(self, desk_checkpoint, tmp_path):
        # Two saves write the same bytes, and so does a save of what a load
        # of them reads.
        ckpt, _ = desk_checkpoint
        save_checkpoint(ckpt, tmp_path / "a.g2t")
        save_checkpoint(ckpt, tmp_path / "b.g2t")
        save_checkpoint(load_checkpoint(tmp_path / "a.g2t"), tmp_path / "c.g2t")
        first = (tmp_path / "a.g2t").read_bytes()
        assert (tmp_path / "b.g2t").read_bytes() == first
        assert (tmp_path / "c.g2t").read_bytes() == first
