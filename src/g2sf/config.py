"""Run configuration: defaults, key=value config files, overrides, hashing.

One RunConfig drives every pipeline stage. Settings come from three layers
with increasing precedence: built-in defaults, a config file of
``section.key = value`` lines, then command-line ``--set`` overrides and
dedicated flags. Each setting has one source: the keys in ``DERIVED`` follow
another key or the dataset and cannot be set. A value is read as its key's
declared type: ``none`` only where the key may be empty, numbers only when
finite. The SHA-256 hash of the canonical merged configuration is stamped
into every stage manifest so downstream stages can detect drift. Fixed, so
not settings: the evaluation protocol (:mod:`g2sf.evaluation`), the data
generator's recipe and anomaly-mode cycle (:mod:`g2sf.features` constants),
augmentation's modes, Perlin masks and strength (:mod:`g2sf.synthesis`),
Adam's constants (:mod:`g2sf.nn`) and the CLI's ``--threads``.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing
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

    def validate(self):
        if not (0.0 < self.fraction <= 1.0):
            raise ConfigError(f"bank.fraction {self.fraction} outside (0, 1]")


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
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.gen.validate()
        self.bank.validate()
        self.loss.validate()  # before synth, whose k follows loss.k
        self.synth.validate()
        self.lspn.validate()
        self.train.validate()

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_hash(cfg: RunConfig) -> str:
    """SHA-256 of the canonical configuration."""
    doc = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


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


def _coerce(key, text, section, leaf):
    """``text`` as the declared type of ``section.leaf``; tuple elements take
    the element type of the field's default."""
    hint = typing.get_type_hints(type(section))[leaf]
    args = typing.get_args(hint)
    kind = next((t for t in args if t is not type(None)), hint)
    text = text.strip()
    if text.lower() in ("none", "null"):
        if type(None) not in args:
            raise ConfigError(f"{key} cannot be none")
        return None
    if kind is tuple:
        elem = type(next(f.default for f in dataclasses.fields(section) if f.name == leaf)[0])
        return tuple(_scalar(key, elem, t) for t in (s.strip() for s in text.split(",")) if t)
    if kind not in (int, float):
        raise ConfigError(f"{key} is a config section, not a key")
    return _scalar(key, kind, text)


def _scalar(key, kind, text):
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite value, got {text!r}")
    return value


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
    setattr(target, leaf, _coerce(key, value, target, leaf))


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
