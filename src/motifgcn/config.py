"""Run configuration: a flat key-value file with CLI overrides.

The file format is one ``key = value`` assignment per line of UTF-8
text; ``#`` starts a comment. Every key is a field of ``RunConfig``,
cast to the type of its default, and unknown keys are rejected, so typos
fail fast instead of silently using a default. File lines and CLI
overrides go through the same cast, ``RunConfig._set``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .data import EXPECTED_EDGES, SplitSpec, _lines
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
    def from_file(cls, path) -> "RunConfig":
        cfg = cls(_config_dir=Path(path).parent)
        for ln, line in _lines(path, ConfigError):
            if "=" not in line:
                raise ConfigError(f"{path} line {ln}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            cfg._set(key, value, f"{path} line {ln}: ")
        cfg.validate()
        return cfg

    def apply_overrides(self, overrides: dict) -> None:
        for key, value in overrides.items():
            if value is not None:
                self._set(key, value, "")
        self.validate()

    def _set(self, key: str, text, where: str) -> None:
        """Cast ``text`` to the type of ``key``'s default and store it; a
        ConfigError names an unknown key or a bad value after ``where``."""
        defaults = {f.name: f.default for f in fields(self) if not f.name.startswith("_")}
        if key not in defaults:
            raise ConfigError(f"{where}unknown key {key!r}")
        cast = _bool if isinstance(defaults[key], bool) else type(defaults[key])
        try:
            setattr(self, key, cast(text))
        except ValueError as exc:
            raise ConfigError(f"{where}bad value for {key}: {exc}") from exc

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
