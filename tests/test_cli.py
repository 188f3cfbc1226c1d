"""End-to-end CLI tests: stage wiring, exit codes, hash chain, determinism."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from g2sf.bank import covering_radius, load_bank
from g2sf.cli import STAGE_FORMAT, _digest, main
from g2sf.features import iter_samples, load_manifest
from g2sf.geometry import fit_normalizer

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


def assert_bank_manifest_matches_knn(data, run):
    """The bank stage's normalizer and coverage radii, taken from the coreset
    build, equal what a k-NN pass over the training foreground gives."""
    doc = json.loads((run / "bank_manifest.json").read_text())
    banks = {m: load_bank(run / "banks" / f"{m}.g2t") for m in ("pc", "rgb")}
    train = load_manifest(data / "train_manifest.json")
    normalizer = fit_normalizer(iter_samples(train), banks)
    assert doc["normalizer"] == normalizer.to_dict()
    pairs = list(iter_samples(train))
    feats = {m: np.concatenate([getattr(p, m).data[p.foreground] for p in pairs])
             for m in ("pc", "rgb")}
    for m in ("pc", "rgb"):
        assert doc["coverage"][m] == {"radius": covering_radius(banks[m], feats[m])}
    return doc


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_stage(stage, cfg_path, data, run, *extra):
    return main([stage, "--config", str(cfg_path), "--data", str(data),
                 "--run", str(run), *extra])


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
        assert sorted(p.name for p in (run / "banks").iterdir()) == ["pc.g2t", "rgb.g2t"]
        bank_doc = json.loads((run / "bank_manifest.json").read_text())
        assert sorted(bank_doc["outputs"]) == ["banks/pc.g2t", "banks/rgb.g2t"]
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
        assert set(doc) == {"i_auroc", "p_auroc", "aupro", "per_sample", "flags"}

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

    def test_bank_manifest_from_coverage(self, chain):
        _, data, run = chain
        doc = assert_bank_manifest_matches_knn(data, run)
        assert set(doc["coverage"]) == {"pc", "rgb"}

    def test_score_manifest_records_each_score_once(self, chain):
        from g2sf.scoring import G2SF_SCORE

        _, _, run = chain
        doc = json.loads((run / "score_manifest.json").read_text())
        assert "agg" not in doc
        for entry in doc["samples"]:
            assert set(entry) == {"sample_id", "scores", "grid", "pixel"}
            assert set(entry["scores"]) == {"min", "max", "mean", "first",
                                            "s_pc", "s_rgb", "w_pc", "w_rgb"}
        # eval reports the G2SF score of each sample.
        report = json.loads((run / "reports" / "eval.json").read_text())
        assert [r["score"] for r in report["per_sample"]] == \
            [entry["scores"][G2SF_SCORE] for entry in doc["samples"]]

    def test_training_log_jsonl(self, chain):
        _, _, run = chain
        rows = [json.loads(line) for line in
                (run / "train_log.jsonl").read_text().splitlines()]
        assert len(rows) == 1
        assert rows[0]["epoch"] == 1
        assert "wall_time" not in rows[0]  # wall-clock fields break reruns
        assert {"train_sep", "train_mar", "train_cns", "train_sc",
                "train_cma", "train_l1"} <= set(rows[0])


class TestExitCodes:
    def test_missing_out_is_config_error(self):
        assert main(["gen"]) == 2

    def test_bad_config_value(self, tmp_path, capsys):
        assert main(["gen", "--out", str(tmp_path / "d"),
                     "--set", "gen.n_train=zero"]) == 2
        # Out of range is refused before any stage runs.
        assert main(["gen", "--out", str(tmp_path / "d"),
                     "--set", "lspn.dropout=1.5"]) == 2
        for key in ("loss.alpha=-1", "loss.k=0", "loss.m0=-1"):
            capsys.readouterr()
            assert main(["gen", "--out", str(tmp_path / "d"), "--set", key]) == 2
            assert key.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("setting", [
        "bank.projection_dim=-3", "bank.projection_dim=0", "synth.perlin.max_resample=-1",
        "gen.grid=16", "gen.dims=8", "synth.perlin.min_coverage=0.9",
        "synth.perlin.frequency=0", "synth.perlin.octaves=0", "gen.anomaly_frac=1.5",
        "gen.bg_border=-1", "train.epochs=none", "lspn.dropout=null", "loss.m0=abc",
        "bank.projection_dim=abc", "seed=-1", "bank.projection_dim=2.5", "train.lr=nan",
        "synth.strength=inf", "gen.anomaly_coverage=0.1,inf",
        "train.beta1=1", "train.beta2=1.5", "train.eps=0", "train.beta1=-0.1",
        "gen.grid=2,2", "gen.grid=0,5", "gen.dims=1,8", "gen.n_train=0", "gen.n_test=0",
        "gen.gt_upscale=0", "gen.anomaly_modes=both", "gen.anomaly_modes=",
        "bank.fraction=0", "bank.fraction=1.5", "synth.n_aug=-1", "synth.strength=-1",
        "loss.k=-1", "lspn.branch_widths=0,8", "lspn.fusion_widths=0", "lspn.branch_widths=",
        "lspn.dropout=1.5", "lspn.dropout=-0.1", "train.epochs=-1", "train.batch_size=1",
        "train.lr=0", "train.sigma_lr=-1", "train.weight_decay=-1"])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, setting):
        # Each of these used to crash a stage with a traceback, run it on a
        # silently wrong setting, or refuse it without naming the key.
        # Values are parsed by the key's declared type: none only where the
        # key may be empty, finite numbers only. bank.projection_dim, the
        # synth.perlin keys, gen.anomaly_frac, gen.bg_border,
        # gen.anomaly_coverage and train.beta1/beta2/eps are retired: whatever
        # the value, each is now refused as an unknown key, still by name and
        # before any stage runs.
        assert main(["gen", "--out", str(tmp_path / "d"), "--set", setting]) == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("setting", ["eval.agg=min", "eval.smooth_sigma=4.0",
                                         "eval.aupro_limits=0.3,1.5", "eval.threads=2"])
    def test_eval_section_is_gone(self, tmp_path, capsys, setting):
        # The evaluation protocol is fixed: no eval key, from --set or a file.
        path = tmp_path / "c.cfg"
        path.write_text(setting.replace("=", " = ") + "\n")
        for argv in (["--set", setting], ["--config", str(path)]):
            capsys.readouterr()
            assert main(["gen", "--out", str(tmp_path / "d"), *argv]) == 2
            assert "unknown config section 'eval'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_agg_flag_is_gone(self, capsys):
        assert main(["score", "--data", "d", "--run", "r", "--agg", "min"]) == 2
        assert "unrecognized arguments: --agg" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path):
        assert main(["gen", "--out", str(tmp_path / "d"),
                     "--set", "gen.bogus=1"]) == 2

    def test_missing_upstream_is_config_error(self, tmp_path, cfg_path):
        assert main(["bank", "--config", str(cfg_path), "--data", str(tmp_path / "no"),
                     "--run", str(tmp_path / "r")]) == 2

    def test_stale_chain_exits_3(self, tmp_path, cfg_path, capsys):
        codes, data, run = run_chain(tmp_path, cfg_path, stages=("gen", "bank"))
        assert all(c == 0 for c in codes.values())
        # Regenerate the dataset with another seed: synth reads only the
        # dataset, so it runs on the new one, but the bank now points at a
        # stale gen manifest, so train must refuse and name it.
        assert main(["gen", "--config", str(cfg_path), "--out", str(data),
                     "--seed", "99", "--force"]) == 0
        assert run_stage("synth", cfg_path, data, run) == 0
        capsys.readouterr()
        assert run_stage("train", cfg_path, data, run) == 3
        err = capsys.readouterr().err
        assert "bank was built against gen" in err, err
        assert "gen_manifest.json" in err, err
        assert not (run / "train_log.jsonl").exists()

    def test_stale_gen_reaches_score_and_eval(self, tmp_path, cfg_path, capsys):
        codes, data, run = run_chain(tmp_path, cfg_path, stages=STAGES[:5])
        assert all(c == 0 for c in codes.values())
        # Regenerate the dataset after scoring: the score maps belong to the
        # old test split, so eval must not pair them with the new ground
        # truth, and neither score nor ablate may mix an old model with new
        # data (train reads gen through bank, so bank is score's nearest stale
        # link).
        assert main(["gen", "--config", str(cfg_path), "--out", str(data),
                     "--seed", "99", "--force"]) == 0
        capsys.readouterr()
        for stage, stale in (("eval", "score"), ("score", "bank"), ("ablate", "score")):
            assert main([stage, "--config", str(cfg_path), "--data", str(data),
                         "--run", str(run), "--force"]) == 3
            err = capsys.readouterr().err
            assert f"{stale} was built against gen" in err, err
            assert "gen_manifest.json" in err, err
        assert not (run / "reports" / "eval.json").exists()

    def test_rebuilt_bank_reaches_ablate(self, tmp_path, cfg_path, capsys):
        codes, data, run = run_chain(tmp_path, cfg_path, stages=STAGES[:5])
        assert all(c == 0 for c in codes.values())
        # A rebuilt bank leaves the trained model and its score maps behind:
        # ablate must not tabulate maps scored against the old prototypes.
        assert main(["bank", "--config", str(cfg_path), "--data", str(data),
                     "--run", str(run), "--force", "--fraction", "0.3"]) == 0
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg_path), "--data", str(data),
                     "--run", str(run)]) == 3
        err = capsys.readouterr().err
        assert "train was built against bank" in err, err
        assert "bank_manifest.json" in err, err
        assert not (run / "reports").exists()

    def test_derived_k_is_config_error(self, tmp_path, capsys):
        for key, source in (("synth.k", "loss.k"), ("train.seed", "seed"),
                            ("lspn.dim_pc", "the dataset's pc"),
                            ("lspn.dim_rgb", "the dataset's rgb")):
            assert main(["gen", "--out", str(tmp_path / "d"), "--set", f"{key}=3"]) == 2
            assert f"follows {source}" in capsys.readouterr().err

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
        assert f"{ckpt_dir} has a checkpoint manifest that is not JSON" in out

    @pytest.mark.parametrize("argv", [["--seed", "3"], ["--threads", "2"], ["--force"],
                                      ["--set", "train.epochs=5"], ["--config", "CFG"]],
                             ids=["seed", "threads", "force", "set", "config"])
    def test_selftest_takes_only_checkpoint(self, cfg_path, capsys, argv):
        # selftest reads no config: each of these used to build and validate
        # one, never read it, and exit 0.
        argv = [str(cfg_path) if arg == "CFG" else arg for arg in argv]
        assert main(["selftest", *argv]) == 2
        assert f"unrecognized arguments: {argv[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("gen.anomaly_modes", "pc_only"),
                                            ("synth.strength", "0.5")])
    def test_retired_key_names_itself(self, tmp_path, capsys, key, value):
        # The generator's mode cycle and the augmentation strength are fixed.
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = {value}\n")
        for argv in (["--set", f"{key}={value}"], ["--config", str(path)]):
            capsys.readouterr()
            assert main(["gen", "--out", str(tmp_path / "d"), *argv]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("command, flag", [("gen", "--anomaly-modes"),
                                               ("synth", "--strength")])
    def test_retired_flag_is_unrecognized(self, tmp_path, capsys, command, flag):
        where = ["--out", str(tmp_path / "d")] if command == "gen" else \
            ["--data", str(tmp_path / "d"), "--run", str(tmp_path / "r")]
        assert main([command, *where, flag, "1"]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


@pytest.fixture
def chain_copy(chain, tmp_path):
    """A private copy of the module chain, safe to edit."""
    _, data, run = chain
    shutil.copytree(data, tmp_path / "data")
    shutil.copytree(run, tmp_path / "run")
    return tmp_path / "data", tmp_path / "run"


class TestEditedArtifacts:
    """Every stage re-hashes the whole chain above it, outputs included."""

    def assert_stale(self, capsys, stage, cfg_path, data, run, *names):
        capsys.readouterr()
        assert run_stage(stage, cfg_path, data, run, "--force") == 3
        err = capsys.readouterr().err
        for name in names:
            assert name in err, err

    def test_edited_test_manifest_reaches_eval(self, chain_copy, cfg_path, capsys):
        data, run = chain_copy
        report = (run / "reports" / "eval.json").read_bytes()
        doc = json.loads((data / "test_manifest.json").read_text())
        for entry in doc["samples"]:
            entry["image_label"] = 1 - entry["image_label"]
        (data / "test_manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1))
        self.assert_stale(capsys, "eval", cfg_path, data, run,
                          "gen recorded its output", "test_manifest.json", "rerun gen")
        assert (run / "reports" / "eval.json").read_bytes() == report

    def test_edited_score_map_reaches_eval(self, chain_copy, cfg_path, capsys):
        from g2sf.tensorio import read_tensor, write_tensor

        data, run = chain_copy
        path = run / "scores" / "test_0000_pixel.g2t"
        pixel, header = read_tensor(path)
        write_tensor(path, np.zeros_like(pixel), {"kind": header["kind"]})
        self.assert_stale(capsys, "eval", cfg_path, data, run,
                          "score recorded its output", "test_0000_pixel.g2t")

    def test_edited_score_grid_reaches_ablate(self, chain_copy, cfg_path, capsys):
        from g2sf.tensorio import read_tensor, write_tensor

        data, run = chain_copy
        reports = tree_bytes(run / "reports")
        path = run / "scores" / "test_0000_grid.g2t"
        grids, header = read_tensor(path)
        write_tensor(path, np.zeros_like(grids), {k: header[k] for k in ("kind", "maps")})
        self.assert_stale(capsys, "ablate", cfg_path, data, run,
                          "score recorded its output", "test_0000_grid.g2t")
        assert tree_bytes(run / "reports") == reports

    def test_rebuilt_bank_after_score_reaches_eval(self, chain_copy, cfg_path, capsys):
        data, run = chain_copy
        assert run_stage("bank", cfg_path, data, run, "--force", "--fraction", "0.3") == 0
        self.assert_stale(capsys, "eval", cfg_path, data, run,
                          "train was built against bank", "bank_manifest.json")

    def test_edited_pool_tensor_reaches_train(self, chain_copy, cfg_path, capsys):
        data, run = chain_copy
        path = run / "pool" / "aug_0000_pc.g2t"
        path.write_bytes(path.read_bytes()[:-4] + b"\0\0\0\0")
        self.assert_stale(capsys, "train", cfg_path, data, run,
                          "synth recorded its output", "aug_0000_pc.g2t")

    def test_edited_pool_manifest_reaches_train(self, chain_copy, cfg_path, capsys):
        data, run = chain_copy
        path = run / "pool_manifest.json"
        doc = json.loads(path.read_text())
        doc["samples"] = doc["samples"][1:]
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        self.assert_stale(capsys, "train", cfg_path, data, run,
                          "synth recorded its output", "pool_manifest.json")

    def test_edited_weights_reach_score(self, chain_copy, cfg_path, capsys):
        data, run = chain_copy
        path = next((run / "checkpoints" / "final" / "weights").iterdir())
        path.write_bytes(path.read_bytes()[:-4] + b"\0\0\0\0")
        self.assert_stale(capsys, "score", cfg_path, data, run,
                          "train recorded its output", path.name)

    def test_old_checkpoint_format_exits_2(self, chain_copy, cfg_path, capsys):
        # A checkpoint of an earlier format whose train manifest records it:
        # the chain is consistent, and the checkpoint itself is refused by
        # its format's name. A real v2 manifest still holds train.eval_every,
        # a v3 one train.beta1/beta2/eps, and every one up to v4 the config
        # hash.
        import hashlib

        data, run = chain_copy
        ckpt = run / "checkpoints" / "final" / "manifest.json"
        original = ckpt.read_text()
        for fmt, train_fields in (("g2sf-checkpoint-v1", {}),
                                  ("g2sf-checkpoint-v2", {"eval_every": 0}),
                                  ("g2sf-checkpoint-v3",
                                   {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}),
                                  ("g2sf-checkpoint-v4", {})):
            doc = json.loads(original)
            doc.update(format=fmt, config_hash="0" * 64)
            doc["train"].update(train_fields)
            ckpt.write_text(json.dumps(doc))
            train_doc = json.loads((run / "train_manifest.json").read_text())
            train_doc["outputs"]["checkpoints/final/manifest.json"] = \
                hashlib.sha256(ckpt.read_bytes()).hexdigest()
            train_doc["digest"] = _digest(train_doc)
            (run / "train_manifest.json").write_text(json.dumps(train_doc))
            capsys.readouterr()
            assert run_stage("score", cfg_path, data, run, "--force") == 2
            assert fmt in capsys.readouterr().err

    def test_old_format_manifest_exits_3(self, chain_copy, cfg_path, capsys):
        data, run = chain_copy
        doc = json.loads((run / "score_manifest.json").read_text())
        doc.update(format="g2sf-stage-v1", outputs=sorted(doc["outputs"]))
        (run / "score_manifest.json").write_text(json.dumps(doc))
        self.assert_stale(capsys, "eval", cfg_path, data, run,
                          "score_manifest.json", "rerun score")

    def test_malformed_upstream_manifest_exits_3(self, chain_copy, cfg_path, capsys):
        # Truncated JSON, a manifest without its upstream and outputs
        # mappings, and a JSON list are each a stale bank stage, named, not
        # a traceback. The bank stage's own rerun check reads it the same way.
        data, run = chain_copy
        path = run / "bank_manifest.json"
        text = path.read_text()
        for body in (text[: len(text) // 2],
                     json.dumps({"format": STAGE_FORMAT, "stage": "bank"}),
                     "[]"):
            path.write_text(body)
            self.assert_stale(capsys, "train", cfg_path, data, run,
                              "bank_manifest.json", "rerun bank")
        capsys.readouterr()
        assert run_stage("bank", cfg_path, data, run) == 3
        err = capsys.readouterr().err
        assert "bank_manifest.json is not a JSON object" in err, err

    def test_edited_normalizer_exits_3(self, chain_copy, cfg_path, capsys):
        # The normalizer train reads lives in the bank manifest itself: the
        # manifest's digest catches the edit at train and at every stage
        # after it, and no report is rewritten.
        data, run = chain_copy
        report = (run / "reports" / "eval.json").read_bytes()
        path = run / "bank_manifest.json"
        doc = json.loads(path.read_text())
        doc["normalizer"]["mean_pc"] *= 3
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))
        self.assert_stale(capsys, "train", cfg_path, data, run,
                          "bank_manifest.json", "does not match its digest", "rerun bank")
        for stage in ("score", "eval"):
            self.assert_stale(capsys, stage, cfg_path, data, run, "bank_manifest.json")
        assert (run / "reports" / "eval.json").read_bytes() == report

    @pytest.mark.parametrize("stage, upstream, key", [("train", "bank", "normalizer"),
                                                       ("eval", "score", "samples")])
    def test_manifest_without_a_key_exits_3(self, chain_copy, cfg_path, capsys, stage,
                                            upstream, key):
        data, run = chain_copy
        path = run / f"{upstream}_manifest.json"
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc, sort_keys=True, indent=1))
        self.assert_stale(capsys, stage, cfg_path, data, run, f"{upstream}_manifest.json",
                          "does not match its digest", f"rerun {upstream}")


class TestEveryArtifactHashed:
    def test_desk_chain_lists_every_file(self, tmp_path):
        # Every file the desk chain leaves but the stage manifests is an
        # output some stage manifest records, so the stale check re-hashes
        # it; each stage manifest is hashed as an upstream link instead.
        from pathlib import Path

        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
        codes, data, run = run_chain(tmp_path, desk)
        assert all(c == 0 for c in codes.values()), codes
        manifests, listed = set(), set()
        for root, stage in [(data, "gen")] + [(run, s) for s in STAGES[1:]]:
            manifests.add(root / f"{stage}_manifest.json")
            listed |= {root / rel for rel in
                       json.loads((root / f"{stage}_manifest.json").read_text())["outputs"]}
        on_disk = {p for root in (data, run) for p in root.rglob("*") if p.is_file()}
        assert on_disk - manifests == listed
        assert run / "pool_manifest.json" in listed and len(listed) == 630


class TestAblateReadsScores:
    """``ablate`` tabulates the maps ``score`` wrote and runs no network."""

    def test_ablate_without_checkpoint_or_network(self, chain_copy, cfg_path,
                                                  monkeypatch):
        import csv

        from g2sf import cli, evaluation, lspn, trainer

        data, run = chain_copy
        checkpoint = trainer.load_checkpoint(run / "checkpoints" / "final")
        checkpoint.banks = cli._load_banks(run)
        test_manifest = load_manifest(data / "test_manifest.json")
        scored = evaluation.score_split(checkpoint, test_manifest)
        want = evaluation.ablation_scores(scored, test_manifest.gt_upscale)

        def refuse(*args, **kwargs):
            raise AssertionError("ablate must not load a checkpoint or run the network")

        for module, name in ((trainer, "load_checkpoint"), (cli, "load_checkpoint"),
                             (lspn, "forward_batch"), (cli, "load_bank")):
            monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError):  # the patches bite: score needs them
            run_stage("score", cfg_path, data, run, "--force")
        assert run_stage("ablate", cfg_path, data, run, "--force") == 0
        for rows, name in zip(want, ("ablation_scores.csv", "ablation_aggregation.csv")):
            with open(run / "reports" / name, newline="") as fh:
                got = list(csv.reader(fh))[1:]
            assert [r[0] for r in got] == [r["variant"] for r in rows]
            for line, row in zip(got, rows):
                # Sample scores are the same float64 values; pixel maps went
                # through float32 storage.
                assert line[1] == evaluation._fmt(row["i_auroc"])
                pixel = [row["p_auroc"]] + [row[f"aupro@{l}"]
                                            for l in evaluation.AUPRO_LIMITS]
                np.testing.assert_allclose([float(v) for v in line[2:]], pixel, atol=1e-5)


class TestImportFootprint:
    def test_score_eval_ablate_never_import_scipy(self, chain_copy, cfg_path):
        # Only gen (its latent fields) and train (the backward's sparse
        # product) use scipy; a fresh process that scores, evaluates and
        # ablates never loads it.
        data, run = chain_copy
        code = ("import sys\n"
                "from g2sf.cli import main\n"
                "cfg, data, run = sys.argv[1:]\n"
                "argv = ['--config', cfg, '--data', data, '--run', run, '--force']\n"
                "codes = [main([stage, *argv]) for stage in ('score', 'eval', 'ablate')]\n"
                "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code, str(cfg_path), str(data), str(run)],
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0] []"


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
        reference = init_model(dataclasses.replace(cfg.lspn, dim_pc=6, dim_rgb=6), cfg.seed)
        for a, b in zip(parameters(ckpt.model), parameters(reference)):
            np.testing.assert_array_equal(a, b)

    def test_train_warns_when_validation_is_skipped(self, tmp_path, cfg_path):
        # One augmented sample pools into the training half alone, so the
        # train stage warns that it skips validation and logs val_total null.
        data, run = tmp_path / "data", tmp_path / "run"
        assert main(["gen", "--config", str(cfg_path), "--out", str(data),
                     "--n-train", "8", "--n-test", "6"]) == 0
        common = ["--config", str(cfg_path), "--data", str(data), "--run", str(run),
                  "--set", "synth.n_aug=1"]
        assert main(["bank", *common]) == 0 and main(["synth", *common]) == 0
        with pytest.warns(UserWarning, match="validation half has 0 cells"):
            assert main(["train", *common]) == 0
        rows = [json.loads(line) for line in (run / "train_log.jsonl").read_text().splitlines()]
        assert rows and all(row["val_total"] is None for row in rows)

    def test_eval_without_gt_flags_and_succeeds(self, chain, cfg_path, tmp_path):
        from g2sf.cli import _write_manifest
        from g2sf.config import build_config

        _, data, _ = chain
        data2 = tmp_path / "data"
        shutil.copytree(data, data2)
        doc = json.loads((data2 / "test_manifest.json").read_text())
        for entry in doc["samples"]:
            entry["pixel_gt"] = None
        (data2 / "test_manifest.json").write_text(json.dumps(doc, sort_keys=True, indent=1))
        # Re-stamp the edited dataset as gen would, then rebuild on top of it.
        gen_doc = json.loads((data2 / "gen_manifest.json").read_text())
        _write_manifest("gen", build_config(cfg_path), data2, None,
                        list(gen_doc["outputs"]), {})
        codes, _, run2 = run_chain(tmp_path, cfg_path, stages=STAGES[1:])
        assert all(c == 0 for c in codes.values()), codes
        report = json.loads((run2 / "reports" / "eval.json").read_text())
        assert report["p_auroc"] is None
        assert any(f.startswith("pixel_metrics_omitted") for f in report["flags"])
        # The ablation tables keep their image column and leave the pixel ones blank.
        for name in ("ablation_scores.csv", "ablation_aggregation.csv"):
            rows = [line.split(",") for line in
                    (run2 / "reports" / name).read_text().splitlines()[1:]]
            assert rows and all(float(r[1]) >= 0.0 and r[2:] == ["", "", ""] for r in rows)

    def test_deterministic_chain_byte_identical(self, tmp_path, cfg_path):
        codes_a, data_a, run_a = run_chain(tmp_path / "a", cfg_path)
        codes_b, data_b, run_b = run_chain(tmp_path / "b", cfg_path)
        assert all(c == 0 for c in codes_a.values())
        assert all(c == 0 for c in codes_b.values())
        assert tree_bytes(data_a) == tree_bytes(data_b)
        assert tree_bytes(run_a) == tree_bytes(run_b)

    def test_checkpoint_bytes_ignore_settings_training_ignores(self, tmp_path):
        # Two desk chains that differ only in gen.n_test train the same
        # model from the same training split: their checkpoint trees are
        # byte-identical, and only the stage manifests record the config.
        from pathlib import Path

        desk = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"
        trees = []
        for name, extra in (("a", []), ("b", ["--set", "gen.n_test=24"])):
            data, run = tmp_path / name / "data", tmp_path / name / "run"
            assert main(["gen", "--config", str(desk), "--out", str(data), *extra]) == 0
            for stage in ("bank", "synth", "train"):
                assert main([stage, "--config", str(desk), "--data", str(data),
                             "--run", str(run), *extra]) == 0
            trees.append(tree_bytes(run / "checkpoints" / "final"))
        assert trees[0] == trees[1]
        manifest = json.loads(trees[0]["manifest.json"])
        assert manifest["format"] == "g2sf-checkpoint-v5" and "config_hash" not in manifest
        hashes = [json.loads((tmp_path / name / "run" / "train_manifest.json").read_text())
                  ["config_hash"] for name in ("a", "b")]
        assert hashes[0] != hashes[1]

    def test_threads_flag_is_a_run_argument(self, chain_copy, cfg_path):
        from g2sf.cli import _config_from_args, build_parser

        base = ["score", "--data", "d", "--run", "r"]
        parse = build_parser().parse_args
        assert parse(base).threads == 1
        assert parse(base + ["--threads", "2"]).threads == 2
        # Outside the config: the same settings with or without the flag.
        assert _config_from_args(parse(base + ["--threads", "2"])) == \
            _config_from_args(parse(base))
        for bad in ("0", "-1", "two"):
            assert main(base + ["--threads", bad]) == 2
        # Threads spread the scoring loop and change no score map, the
        # stacked grid files included.
        from g2sf.scoring import AGGREGATIONS
        from g2sf.tensorio import read_tensor

        data, run = chain_copy
        before = tree_bytes(run / "scores")
        grids = sorted(p for p in before if p.endswith("_grid.g2t"))
        assert len(grids) == 8  # one per test sample
        stacked, header = read_tensor(run / "scores" / grids[0])
        assert header["maps"] == [*AGGREGATIONS, "s_pc", "s_rgb", "w_pc", "w_rgb"]
        assert stacked.shape == (8, 12, 12)
        assert run_stage("score", cfg_path, data, run, "--threads", "2", "--force") == 0
        assert tree_bytes(run / "scores") == before

    def test_dedicated_flags_set_their_keys(self, capsys):
        from g2sf.cli import _config_from_args, build_parser

        parse = build_parser().parse_args
        cfg = _config_from_args(parse(["gen", "--out", "d", "--grid", "12x10", "--n-test", "4",
                                       "--set", "gen.n_test=9", "--seed", "3"]))
        assert cfg.gen.grid == (12, 10) and cfg.gen.n_test == 4  # flags beat --set
        assert cfg.seed == 3 and cfg.train.seed == 3
        cfg = _config_from_args(parse(["train", "--data", "d", "--run", "r", "--epochs", "2"]))
        assert cfg.train.epochs == 2
        assert main(["train", "--data", "d", "--run", "r", "--epochs", "two"]) == 2
        # Training keeps one checkpoint, so there is no snapshot cadence to
        # set, and the coreset is selected on the features, so there is no
        # projection to set.
        for command, argv, err in (
                ("train", ["--eval-every", "2"], "unrecognized arguments: --eval-every"),
                ("train", ["--set", "train.eval_every=2"], "unknown config key"),
                ("bank", ["--projection-dim", "4"], "unrecognized arguments: --projection-dim"),
                ("bank", ["--set", "bank.projection_dim=4"], "unknown config key")):
            capsys.readouterr()
            assert main([command, "--data", "d", "--run", "r", *argv]) == 2
            assert err in capsys.readouterr().err

    def test_every_flag_sets_a_key(self):
        # A retired key takes its flag with it: every dedicated flag names a
        # settable key of a fresh config, not a section or a derived key.
        import dataclasses

        from g2sf.cli import _COMMON_FLAGS, _FLAGS
        from g2sf.config import DERIVED, RunConfig, _resolve

        for flags in (*_FLAGS.values(), _COMMON_FLAGS):
            for flag, key in flags.items():
                value = getattr(*_resolve(RunConfig(), key))
                assert not dataclasses.is_dataclass(value) and key not in DERIVED, flag

    def test_train_frees_the_augmented_samples(self, chain_copy, cfg_path, monkeypatch):
        # Once the pool holds their cells, no augmented sample may stay alive
        # while the network trains: at paper shape they are about 1.2 GB.
        import gc
        import weakref

        from g2sf import cli

        data, run = chain_copy
        loaded, alive = [], []
        load, train = cli.iter_samples, cli.train

        def spy_load(manifest):
            for pair in load(manifest):
                loaded.append(weakref.ref(pair))
                yield pair

        def spy_train(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in loaded))
            return train(*args, **kwargs)

        monkeypatch.setattr(cli, "iter_samples", spy_load)
        monkeypatch.setattr(cli, "train", spy_train)
        assert run_stage("train", cfg_path, data, run, "--force") == 0
        assert len(loaded) == 6  # synth.n_aug
        assert alive == [0]

    def test_threads_rerun_needs_force(self, chain_copy, cfg_path, capsys):
        # The thread count is not part of the config hash: a rerun at another
        # count is a rerun of the same configuration.
        data, run = chain_copy
        before = tree_bytes(run)
        assert run_stage("score", cfg_path, data, run, "--threads", "2") == 1
        assert "pass --force" in capsys.readouterr().err
        assert tree_bytes(run) == before

    def test_console_entry_point(self):
        proc = subprocess.run([sys.executable, "-m", "g2sf.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "selftest" in proc.stdout
