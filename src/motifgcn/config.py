"""Run configuration: a flat key-value file with CLI overrides.

The file format is one ``key = value`` assignment per line; ``#`` starts
a comment. Every key is validated against the schema below and unknown
keys are rejected, so typos fail fast instead of silently using a
default.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import EXPECTED_EDGES, SplitSpec
from .motifs import MixRecipe
from .model import ModelConfig

__all__ = ["RunConfig", "ConfigError", "DATA_ROOT_ENV"]

DATA_ROOT_ENV = "MOTIFGCN_DATA"


# The library defaults every model, optimizer and split key takes.
_MODEL = ModelConfig()
_SPLIT = SplitSpec()


class ConfigError(ValueError):
    pass


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass
class RunConfig:
    """Everything a CLI command needs, fully validated before any work."""

    dataset: str = ""            # "planetoid:cora", "ego:414", or "generic"
    data_root: str = ""          # falls back to $MOTIFGCN_DATA
    edges_file: str = ""         # generic-format paths, resolved against
    features_file: str = ""      # the config file's directory
    labels_file: str = ""
    recipe: str = str(_MODEL.recipe)
    h1: int = _MODEL.h1
    h2: int = _MODEL.h2
    hidden_dim: int = _MODEL.hidden_dim
    learning_rate: float = _MODEL.learning_rate
    dropout: float = _MODEL.dropout
    weight_decay: float = _MODEL.weight_decay
    max_epochs: int = _MODEL.max_epochs
    patience: int = _MODEL.patience
    seed: int = _MODEL.seed
    runs: int = 1
    threads: int = 1
    per_class_train: int = _SPLIT.per_class_train
    val_fraction: float = _SPLIT.val_fraction
    test_fraction: float = _SPLIT.test_fraction
    allow_small_classes: bool = _SPLIT.allow_small_classes
    out: str = ""

    _config_dir: Path = field(default_factory=Path, repr=False)

    @classmethod
    def schema(cls):
        casts = {int: int, float: float, bool: _bool, str: str}
        return {
            f.name: casts[type(f.default)]
            for f in fields(cls)
            if not f.name.startswith("_")
        }

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg = cls()
        cfg._config_dir = Path(path).parent
        schema = cls.schema()
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
        for ln, raw in enumerate(text.split("\n"), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in schema:
                raise ConfigError(f"{path} line {ln}: unknown key {key!r}")
            try:
                setattr(cfg, key, schema[key](value))
            except ValueError as exc:
                raise ConfigError(f"{path} line {ln}: bad value for {key}: {exc}")
        cfg.validate()
        return cfg

    def apply_overrides(self, overrides: dict) -> None:
        schema = self.schema()
        for key, value in overrides.items():
            if value is None:
                continue
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r}")
            setattr(self, key, schema[key](value))
        self.validate()

    def validate(self) -> None:
        kind, arg = self.dataset_kind(), self.dataset_arg()
        if self.dataset and kind not in ("planetoid", "ego", "generic"):
            raise ConfigError(f"unknown dataset spec {self.dataset!r}")
        if kind == "ego" and not arg.isdecimal():
            raise ConfigError(f"ego dataset needs a numeric id, got {self.dataset!r}")
        if kind == "planetoid":
            if arg.lower() not in EXPECTED_EDGES:
                raise ConfigError(f"unknown planetoid dataset {self.dataset!r}; "
                                  f"expected one of {', '.join(EXPECTED_EDGES)}")
            for f in fields(SplitSpec):
                if getattr(self, f.name) != getattr(_SPLIT, f.name):
                    raise ConfigError(f"{f.name} does not apply to planetoid datasets, "
                                      "which always use the published split")
        for name in ("runs", "threads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        try:
            self.model_config()  # also parses the recipe
            self.split_spec()
        except ValueError as exc:
            raise ConfigError(str(exc))

    # -- derived views -------------------------------------------------

    def dataset_kind(self) -> str:
        return self.dataset.split(":", 1)[0] if self.dataset else ""

    def dataset_arg(self) -> str:
        parts = self.dataset.split(":", 1)
        return parts[1] if len(parts) > 1 else ""

    def resolved_data_root(self) -> Path:
        root = self.data_root or os.environ.get(DATA_ROOT_ENV, "")
        if not root:
            raise ConfigError(
                f"no dataset root: set data_root or the {DATA_ROOT_ENV} env var"
            )
        return Path(root)

    def resolve_path(self, value: str) -> Path:
        p = Path(value)
        return p if p.is_absolute() else self._config_dir / p

    def _build(self, cls, **parsed):
        """A ``cls`` from the fields of the same names; ``parsed`` replaces
        those held here as text."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)} | parsed)

    def model_config(self) -> ModelConfig:
        return self._build(ModelConfig, recipe=MixRecipe.parse(self.recipe))

    def split_spec(self) -> SplitSpec:
        return self._build(SplitSpec)

    def echo(self) -> dict:
        # 'out' is where the report lands, not part of the experiment;
        # keeping it would break byte-identical reruns.
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not f.name.startswith("_") and f.name != "out"
        }
