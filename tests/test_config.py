"""Config parsing, precedence, and hashing tests."""

from pathlib import Path

import pytest

from g2sf.config import RunConfig, apply_setting, build_config, config_hash
from g2sf.errors import ConfigError

# Retired keys, each with its old default.
RETIRED = {
    "gen.clusters": "4", "gen.rho": "0.7", "gen.noise_sigma": "0.15",
    "gen.field_smoothness": "2.0", "gen.mix_sharpness": "3.0", "gen.anomaly_frac": "0.5",
    "gen.anomaly_offset": "6.0", "gen.anomaly_coverage": "0.06, 0.22", "gen.bg_border": "1",
    "synth.modes": "pc_only, rgb_only, joint", "synth.perlin.octaves": "2",
    "synth.perlin.frequency": "4", "synth.perlin.threshold": "0.2",
    "synth.perlin.min_coverage": "0.02", "synth.perlin.max_coverage": "0.35",
    "synth.perlin.max_resample": "16",
    "train.beta1": "0.9", "train.beta2": "0.999", "train.eps": "1e-8",
    "gen.anomaly_modes": "pc_only, rgb_only, joint", "synth.strength": "1.0",
}


class TestParsing:
    def test_defaults_validate(self):
        cfg = build_config()
        assert cfg.loss.alpha == 10.0 and cfg.loss.beta == 60.0
        assert cfg.loss.gamma == 8.0 and cfg.loss.mu == 20.0
        assert cfg.loss.k == 5 and cfg.loss.eta0 == 1.2
        assert cfg.bank.fraction == 0.10
        assert cfg.train.lr == 1.5e-4 and cfg.train.weight_decay == 1.5e-4
        assert cfg.train.sigma_lr == 5e-3 and cfg.train.batch_size == 8192
        assert cfg.train.epochs == 80
        assert cfg.lspn.dim_pc == 1152 and cfg.lspn.dim_rgb == 768

    def test_paper_config_builds(self):
        # Paper shapes: the M3DM feature dims on a 56x56 grid, with the
        # full-scale widths, batch, coreset fraction and augmentation count.
        cfg = build_config(Path(__file__).resolve().parents[1] / "configs" / "paper.cfg")
        full = RunConfig()
        assert cfg.gen.grid == (56, 56) and cfg.gen.dims == (1152, 768)
        assert cfg.lspn.branch_widths == full.lspn.branch_widths
        assert cfg.lspn.fusion_widths == full.lspn.fusion_widths
        assert cfg.train.batch_size == full.train.batch_size
        assert cfg.bank.fraction == full.bank.fraction
        assert cfg.synth.n_aug == full.synth.n_aug

    def test_file_and_overrides_precedence(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("train.epochs = 12  # from file\nseed = 3\n")
        cfg = build_config(path, overrides=["train.epochs=9"])
        assert cfg.train.epochs == 9  # flag beats file
        assert cfg.seed == 3

    def test_tuple_and_none_values(self):
        cfg = RunConfig()
        apply_setting(cfg, "gen.grid", "24, 20")
        assert cfg.gen.grid == (24, 20)
        apply_setting(cfg, "loss.m0", "0.5")
        assert cfg.loss.m0 == 0.5
        apply_setting(cfg, "loss.m0", "none")
        assert cfg.loss.m0 is None
        apply_setting(cfg, "lspn.branch_widths", "32, 16")
        assert cfg.lspn.branch_widths == (32, 16)

    def test_unknown_key_rejected(self, tmp_path):
        # Retired keys: dropout is lspn.dropout; eval_every went with the
        # epoch snapshots; projection_dim went with the projected coreset
        # selection, whatever its value; the eval section is gone, since k is
        # the checkpoint's, the upsampling factor the dataset's and the rest
        # of the protocol fixed.
        for key in ("train.warp_speed", "train.dropout", "train.eval_every"):
            with pytest.raises(ConfigError, match="unknown config key"):
                apply_setting(RunConfig(), key, "2")
        # The generator's recipe and mode cycle, the augmentation's modes,
        # Perlin masks and strength and Adam's moment constants are fixed:
        # each key is refused by name, from an override and from a config
        # file, at its old default too.
        path = tmp_path / "c.cfg"
        # Keys resolve against dataclass fields: a method, a property or an
        # attribute of a value (which crashed with a KeyError) is no key.
        attributes = {key: "2" for key in ("train.validate", "lspn.joint_dim", "seed.real",
                                           "loss.k.numerator")}
        for key, value in {**RETIRED, **attributes}.items():
            path.write_text(f"{key} = {value}\n")
            for source in ({"overrides": [f"{key}={value}"]}, {"config_file": path}):
                with pytest.raises(ConfigError, match=f"unknown config (key|section).*'{key}'"):
                    build_config(**source)
        for value in ("-3", "0", "abc", "2.5", "4", "none"):
            with pytest.raises(ConfigError, match="unknown config key 'bank.projection_dim'"):
                apply_setting(RunConfig(), "bank.projection_dim", value)
        for key in ("eval.k", "eval.upsample_factor"):
            with pytest.raises(ConfigError, match="unknown config section 'eval'"):
                apply_setting(RunConfig(), key, "2")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            apply_setting(RunConfig(), "train.epochs", "eleven")

    def test_k_propagates(self):
        cfg = build_config(overrides=["loss.k=3", "seed=9"])
        assert cfg.synth.k == 3 and cfg.train.seed == 9

    def test_derived_k_rejected(self, tmp_path):
        # Derived keys follow their source; setting them must not be ignored.
        path = tmp_path / "c.cfg"
        for key, source in (("synth.k", "loss.k"), ("train.seed", "seed"),
                            ("lspn.dim_pc", "the dataset's pc feature dim"),
                            ("lspn.dim_rgb", "the dataset's rgb feature dim")):
            with pytest.raises(ConfigError, match=f"follows {source}$"):
                build_config(overrides=[f"{key}=3"])
            path.write_text(f"{key} = 3\n")
            with pytest.raises(ConfigError, match=f"follows {source}$"):
                build_config(path)


class TestHash:
    def test_stable_and_sensitive(self):
        a = build_config()
        b = build_config()
        assert config_hash(a) == config_hash(b)
        c = build_config(overrides=["train.epochs=81"])
        assert config_hash(c) != config_hash(a)

    def test_threads_not_hashed(self):
        # The thread count is an argument of the CLI run, never a config key.
        from g2sf.cli import _config_from_args, build_parser

        parse = build_parser().parse_args
        base = ["score", "--data", "d", "--run", "r"]
        a = _config_from_args(parse(base))
        b = _config_from_args(parse(base + ["--threads", "2"]))
        assert config_hash(b) == config_hash(a)

    def test_no_eval_section(self):
        # The evaluation protocol is fixed, so no key belongs to it, and
        # training keeps one checkpoint, so no snapshot cadence, and the
        # coreset has one selection space, so no projection, and the data
        # recipe and mode cycle, the augmentation strength and Adam's
        # constants are fixed: 28 keys, the four derived ones included.
        def leaves(node, prefix=""):
            for name, value in node.items():
                if isinstance(value, dict):
                    yield from leaves(value, f"{prefix}{name}.")
                else:
                    yield f"{prefix}{name}"

        keys = list(leaves(RunConfig().to_dict()))
        assert not [k for k in keys if k.startswith("eval.")]
        assert len(keys) == 28
        assert not set(keys) & set(RETIRED)
