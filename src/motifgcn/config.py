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

from .data import SplitSpec
from .motifs import MixRecipe
from .model import ModelConfig
from .nn import OptimizerConfig

__all__ = ["RunConfig", "ConfigError", "DATA_ROOT_ENV"]

DATA_ROOT_ENV = "MOTIFGCN_DATA"


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
    recipe: str = "edge:1"
    h1: int = 2
    h2: int = 1
    hidden_dim: int = 16
    learning_rate: float = 0.01
    dropout: float = 0.5
    weight_decay: float = 5e-4
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    runs: int = 1
    threads: int = 1
    per_class_train: int = 20
    val_fraction: float = 0.15
    test_fraction: float = 0.30
    allow_small_classes: bool = False
    label_rule: str = "lowest"
    normalize_features: str = "auto"  # auto / true / false
    out: str = ""

    _config_dir: Path = field(default_factory=Path, repr=False)

    @classmethod
    def schema(cls):
        casts = {int: int, float: float, bool: _bool, str: str}
        return {
            f.name: casts[f.type if isinstance(f.type, type) else eval(f.type)]
            for f in fields(cls)
            if not f.name.startswith("_")
        }

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        cfg = cls()
        cfg._config_dir = Path(path).parent
        schema = cls.schema()
        for ln, raw in enumerate(Path(path).read_text().split("\n"), start=1):
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
        if self.dataset and self.dataset_kind() not in ("planetoid", "ego", "generic"):
            raise ConfigError(f"unknown dataset spec {self.dataset!r}")
        if self.dataset_kind() == "planetoid":
            for name in ("per_class_train", "val_fraction", "test_fraction",
                         "allow_small_classes"):
                # A dataclass keeps each field's default as a class attribute.
                if getattr(self, name) != getattr(RunConfig, name):
                    raise ConfigError(f"{name} does not apply to planetoid datasets, "
                                      "which always use the published split")
        if self.normalize_features not in ("auto", "true", "false"):
            raise ConfigError("normalize_features must be auto/true/false")
        if self.label_rule not in ("lowest", "largest"):
            raise ConfigError(f"unknown label_rule {self.label_rule!r}")
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

    def normalize_flag(self) -> bool:
        if self.normalize_features == "auto":
            return self.dataset_kind() == "planetoid"
        return self.normalize_features == "true"

    def model_config(self) -> ModelConfig:
        return ModelConfig(
            h1=self.h1,
            h2=self.h2,
            hidden_dim=self.hidden_dim,
            recipe=MixRecipe.parse(self.recipe),
            optimizer=OptimizerConfig(
                learning_rate=self.learning_rate,
                dropout_rate=self.dropout,
                weight_decay=self.weight_decay,
            ),
            max_epochs=self.max_epochs,
            patience=self.patience,
            seed=self.seed,
        )

    def split_spec(self) -> SplitSpec:
        return SplitSpec(
            per_class_train=self.per_class_train,
            val_fraction=self.val_fraction,
            test_fraction=self.test_fraction,
            allow_small_classes=self.allow_small_classes,
        )

    def echo(self) -> dict:
        # 'out' is where the report lands, not part of the experiment;
        # keeping it would break byte-identical reruns.
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if not f.name.startswith("_") and f.name != "out"
        }
