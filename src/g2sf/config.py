"""Run configuration: defaults, key=value config files, overrides, hashing.

One RunConfig drives every pipeline stage. Settings come from three layers
with increasing precedence: built-in defaults, a config file of
``section.key = value`` lines, then command-line ``--set`` overrides and
dedicated flags. Each setting has one source: the keys in ``DERIVED`` follow
another key or the dataset and cannot be set. The SHA-256 hash of the
canonical merged configuration is stamped into every stage manifest so
downstream stages can detect drift. The evaluation protocol is fixed (see
:mod:`g2sf.evaluation`), and the CLI's ``--threads`` is not a setting.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .features import SynthConfig
from .losses import LossConfig
from .lspn import LspnConfig
from .synthesis import SynthesisConfig
from .trainer import TrainConfig

__all__ = ["BankConfig", "RunConfig", "DERIVED", "derive", "load_config_file",
           "build_config", "config_hash"]

# Keys whose value comes from one source elsewhere: a config key, or a
# feature dim of the dataset (``dims:<modality>``). ``apply_setting`` rejects
# them, naming the source, and ``derive`` sets them from it.
DERIVED = {
    "synth.k": "loss.k",
    "train.seed": "seed",
    "lspn.dim_pc": "dims:pc",
    "lspn.dim_rgb": "dims:rgb",
}


@dataclass
class BankConfig:
    fraction: float = 0.10
    projection_dim: int | None = None

    def validate(self):
        if not (0.0 < self.fraction <= 1.0):
            raise ConfigError(f"coreset fraction {self.fraction} outside (0, 1]")
        if self.projection_dim is not None and self.projection_dim < 1:
            raise ConfigError("bank.projection_dim must be >= 1 or none")


@dataclass
class RunConfig:
    seed: int = 0
    gen: SynthConfig = field(default_factory=SynthConfig)
    bank: BankConfig = field(default_factory=BankConfig)
    synth: SynthesisConfig = field(default_factory=SynthesisConfig)
    lspn: LspnConfig = field(default_factory=LspnConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    loss: LossConfig = field(default_factory=LossConfig)

    def validate(self):
        self.gen.validate()
        self.bank.validate()
        self.synth.validate()
        self.lspn.validate()
        self.train.validate()
        self.loss.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 of the canonical configuration."""
    doc = json.dumps(cfg.to_dict(), sort_keys=True, default=_jsonable, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"unhashable config value {value!r}")


def load_config_file(path) -> dict:
    """Parse ``section.key = value`` lines; ``#`` starts a comment."""
    settings = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        settings[key] = value
    return settings


def _coerce(key, text, current):
    text = text.strip()
    if text.lower() in ("none", "null"):
        return None
    if isinstance(current, tuple):
        items = [t for t in (s.strip() for s in text.split(",")) if t]
        elem = current[0] if current else items[0]
        if isinstance(elem, str) and not isinstance(elem, (int, float)):
            return tuple(items)
        caster = int if isinstance(elem, int) else float
        try:
            return tuple(caster(t) for t in items)
        except ValueError as exc:
            raise ConfigError(f"{key}: bad tuple element in {text!r}") from exc
    for caster in (int, float):
        if isinstance(current, caster) or current is None:
            try:
                return caster(text)
            except ValueError:
                if current is not None:
                    raise ConfigError(f"{key}: expected {caster.__name__}, got {text!r}")
    if current is None or isinstance(current, str):
        return text
    raise ConfigError(f"{key}: unsupported override target {type(current).__name__}")


def _resolve(cfg: RunConfig, key: str):
    """(owning section, leaf name) of a dotted key."""
    *sections, leaf = key.split(".")
    target = cfg
    for attr in sections:
        if not hasattr(target, attr):
            raise ConfigError(f"unknown config section {attr!r} in {key!r}")
        target = getattr(target, attr)
    if not hasattr(target, leaf):
        raise ConfigError(f"unknown config key {key!r}")
    return target, leaf


def apply_setting(cfg: RunConfig, key: str, value: str):
    """Apply one dotted override like ``train.epochs = 40`` in place."""
    if key in DERIVED:
        source = DERIVED[key]
        if source.startswith("dims:"):
            source = f"the dataset's {source.removeprefix('dims:')} feature dim"
        raise ConfigError(f"{key} cannot be set: it follows {source}")
    target, leaf = _resolve(cfg, key)
    setattr(target, leaf, _coerce(key, value, getattr(target, leaf)))


def derive(cfg: RunConfig, dims=None):
    """Set every derived key from its source, in place. The lspn dims follow
    ``dims`` (modality -> feature dim, as in a dataset manifest) when given."""
    for key, source in DERIVED.items():
        if source.startswith("dims:"):
            if dims is None:
                continue
            value = dims[source.removeprefix("dims:")]
        else:
            value = getattr(*_resolve(cfg, source))
        setattr(*_resolve(cfg, key), value)


def build_config(config_file=None, overrides=()) -> RunConfig:
    """defaults <- config file <- --set overrides, validated."""
    cfg = RunConfig()
    if config_file:
        for key, value in load_config_file(config_file).items():
            apply_setting(cfg, key, value)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        apply_setting(cfg, key.strip(), value)
    derive(cfg)
    cfg.validate()
    return cfg
