"""End-to-end CLI tests: stage wiring, exit codes, hash chain, determinism."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from g2sf.cli import main

MINI_CFG = """
seed = 5
gen.grid = 12, 12
gen.dims = 6, 6
gen.n_train = 12
gen.n_test = 8
gen.gt_upscale = 2
synth.n_aug = 6
lspn.branch_widths = 16, 8
lspn.fusion_widths = 8,
train.epochs = 1
train.batch_size = 256
loss.k = 2
eval.smooth_sigma = 2.0
"""

STAGES = ("gen", "bank", "synth", "train", "score", "eval", "ablate")


def run_chain(root, cfg_path, stages=STAGES, force=False):
    data = root / "data"
    run = root / "run"
    codes = {}
    for stage in stages:
        argv = [stage, "--config", str(cfg_path)]
        argv += ["--out", str(data)] if stage == "gen" else \
            ["--data", str(data), "--run", str(run)]
        if force:
            argv.append("--force")
        codes[stage] = main(argv)
    return codes, data, run


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(MINI_CFG)
    return path


@pytest.fixture(scope="module")
def chain(tmp_path_factory, cfg_path):
    root = tmp_path_factory.mktemp("chain")
    codes, data, run = run_chain(root, cfg_path)
    return codes, data, run


class TestChain:
    def test_all_stages_succeed(self, chain):
        codes, _, _ = chain
        assert all(code == 0 for code in codes.values()), codes

    def test_artifact_layout(self, chain):
        _, data, run = chain
        assert (data / "train_manifest.json").exists()
        assert (run / "banks" / "pc.g2t").exists()
        assert (run / "pool").is_dir()
        assert (run / "checkpoints" / "final" / "manifest.json").exists()
        assert (run / "scores").is_dir()
        assert (run / "reports" / "eval.json").exists()
        assert (run / "reports" / "ablation_scores.csv").exists()
        assert (run / "reports" / "ablation_aggregation.csv").exists()

    def test_manifests_carry_config_hash_and_seed(self, chain):
        _, data, run = chain
        hashes = set()
        for root, stage in [(data, "gen")] + [(run, s) for s in STAGES[1:]]:
            doc = json.loads((root / f"{stage}_manifest.json").read_text())
            assert doc["seed"] == 5
            hashes.add(doc["config_hash"])
        assert len(hashes) == 1

    def test_eval_report_parses(self, chain):
        _, _, run = chain
        doc = json.loads((run / "reports" / "eval.json").read_text())
        assert 0.0 <= doc["i_auroc"] <= 1.0
        assert set(doc["aupro"]) == {"0.3", "0.01"}

    def test_rerun_without_force_refuses(self, chain, cfg_path):
        _, data, run = chain
        code = main(["bank", "--config", str(cfg_path),
                     "--data", str(data), "--run", str(run)])
        assert code == 1

    def test_rerun_with_force_succeeds(self, chain, cfg_path, tmp_path):
        _, data, _ = chain
        run2 = tmp_path / "run2"
        for stage in ("bank", "synth"):
            code = main([stage, "--config", str(cfg_path),
                         "--data", str(data), "--run", str(run2), "--force"])
            assert code == 0

    def test_training_log_jsonl(self, chain):
        _, _, run = chain
        rows = [json.loads(line) for line in
                (run / "train_log.jsonl").read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["epoch"] == 1
        assert rows[0]["wall_time"] is None  # deterministic default
        assert {"train_sep", "train_mar", "train_cns", "train_sc",
                "train_cma", "train_l1"} <= set(rows[0])


class TestExitCodes:
    def test_missing_out_is_config_error(self):
        assert main(["gen"]) == 2

    def test_bad_config_value(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"),
                     "--set", "gen.n_train=zero"]) == 2

    def test_unknown_config_key(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"),
                     "--set", "gen.bogus=1"]) == 2

    def test_missing_upstream_is_config_error(self, tmp_path, cfg_path):
        assert main(["bank", "--config", str(cfg_path), "--data", str(tmp_path / "no"),
                     "--run", str(tmp_path / "r")]) == 2

    def test_stale_chain_exits_3(self, tmp_path, cfg_path):
        codes, data, run = run_chain(tmp_path, cfg_path, stages=("gen", "bank"))
        assert all(c == 0 for c in codes.values())
        # Regenerate the dataset with another seed: bank now points at a
        # stale gen manifest, so synth must refuse.
        assert main(["gen", "--config", str(cfg_path), "--out", str(data),
                     "--seed", "99", "--force"]) == 0
        assert main(["synth", "--config", str(cfg_path), "--data", str(data),
                     "--run", str(run)]) == 3

    def test_stale_gen_reaches_score_and_eval(self, tmp_path, cfg_path, capsys):
        codes, data, run = run_chain(tmp_path, cfg_path, stages=STAGES[:5])
        assert all(c == 0 for c in codes.values())
        # Regenerate the dataset after scoring: the score maps belong to the
        # old test split, so eval must not pair them with the new ground
        # truth, and neither score nor ablate may mix old banks with new data.
        assert main(["gen", "--config", str(cfg_path), "--out", str(data),
                     "--seed", "99", "--force"]) == 0
        capsys.readouterr()
        for stage, stale in (("eval", "score"), ("score", "bank"), ("ablate", "bank")):
            assert main([stage, "--config", str(cfg_path), "--data", str(data),
                         "--run", str(run), "--force"]) == 3
            err = capsys.readouterr().err
            assert f"{stale} was built against gen" in err, err
            assert "gen_manifest.json" in err, err
        assert not (run / "reports" / "eval.json").exists()

    def test_selftest_clean_run(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "invariants hold" in out

    def test_selftest_corrupted_checkpoint_named_failure(self, tmp_path, capsys):
        ckpt_dir = tmp_path / "ck"
        ckpt_dir.mkdir()
        (ckpt_dir / "manifest.json").write_text("{notjson")
        assert main(["selftest", "--checkpoint", str(ckpt_dir)]) == 1
        out = capsys.readouterr().out
        assert "checkpoint_integrity" in out and "FAIL" in out


class TestSpecialModes:
    def test_train_zero_epochs_checkpoint_is_init(self, tmp_path, cfg_path):
        import dataclasses

        from g2sf.config import build_config
        from g2sf.lspn import init_model, parameters
        from g2sf.trainer import load_checkpoint

        codes, data, run = run_chain(tmp_path, cfg_path, stages=("gen", "bank", "synth"))
        assert all(c == 0 for c in codes.values())
        assert main(["train", "--config", str(cfg_path), "--data", str(data),
                     "--run", str(run), "--epochs", "0"]) == 0
        ckpt = load_checkpoint(run / "checkpoints" / "final")
        cfg = build_config(cfg_path)
        reference = init_model(
            dataclasses.replace(cfg.lspn, dim_pc=6, dim_rgb=6,
                                dropout=cfg.train.dropout), cfg.seed)
        for a, b in zip(parameters(ckpt.model), parameters(reference)):
            np.testing.assert_array_equal(a, b)

    def test_eval_without_gt_flags_and_succeeds(self, chain, cfg_path, tmp_path):
        _, data, run = chain
        data2 = tmp_path / "data"
        run2 = tmp_path / "run"
        shutil.copytree(data, data2)
        shutil.copytree(run, run2)
        doc = json.loads((data2 / "test_manifest.json").read_text())
        for entry in doc["samples"]:
            entry["pixel_gt"] = None
        (data2 / "test_manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1))
        (run2 / "eval_manifest.json").unlink()
        assert main(["eval", "--config", str(cfg_path), "--data", str(data2),
                     "--run", str(run2), "--force"]) == 0
        report = json.loads((run2 / "reports" / "eval.json").read_text())
        assert report["p_auroc"] is None
        assert any(f.startswith("pixel_metrics_omitted") for f in report["flags"])

    def test_deterministic_chain_byte_identical(self, tmp_path, cfg_path):
        codes_a, data_a, run_a = run_chain(tmp_path / "a", cfg_path)
        codes_b, data_b, run_b = run_chain(tmp_path / "b", cfg_path)
        assert all(c == 0 for c in codes_a.values())
        assert all(c == 0 for c in codes_b.values())
        assert tree_bytes(data_a) == tree_bytes(data_b)
        assert tree_bytes(run_a) == tree_bytes(run_b)

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "g2sf.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "selftest" in proc.stdout
