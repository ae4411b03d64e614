"""Run configuration: flat `key = value` files with dotted keys, strict
validation, and builders for the per-module config objects."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .convnet import TASK_LAYER_COUNTS, ConvConfig
from .graph import EdgeScaling
from .tasks import EmbedConfig, MatcherConfig, TrainProtocol


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


def _validated(section: str, obj):
    """obj after its own validate(); a failure is re-raised as a
    ConfigError whose message names config keys in place of fields.
    Quoted values are left as they are."""
    try:
        obj.validate()
    except ValueError as exc:
        msg = re.sub(r"'[^']*'|\w+", lambda m: _FIELD_KEYS.get(m[0], m[0]),
                     str(exc))
        raise ConfigError(f"{section}: {msg}") from exc
    return obj


@dataclass
class RunConfig:
    """Every knob of every pipeline, with conservative defaults. The conv,
    train, match and embed keys set fields of the objects they configure;
    conv's n_layers of None means the task's default (4 / 3 / 2)."""

    task: str = ""
    data: str = ""
    out: str = ""
    conv: ConvConfig = field(
        default_factory=lambda: ConvConfig(n_layers=None))
    gene_sets: str = ""
    train: TrainProtocol = field(default_factory=TrainProtocol)
    match: MatcherConfig = field(default_factory=MatcherConfig)
    embed: EmbedConfig = field(default_factory=EmbedConfig)
    # metrics.*
    knn_k: int = 15
    # synth.*
    cells: int = 300
    dim1: int = 60
    dim2: int = 45
    types: int = 4
    batches: int = 2
    noise: float = 0.1
    synth_dropout: float = 0.3

    def validate(self):
        """Check every setting; the conv and train settings are checked by
        the objects they build. A task that builds no network checks
        conv.alpha, conv.dropout and conv.residual, not the network's
        shape."""
        if not 0.0 <= self.match.percentile < 100.0:
            raise ConfigError("match.percentile must be in [0, 100)")
        if not 0.0 <= self.synth_dropout < 1.0:
            raise ConfigError("synth.dropout must be in [0, 1)")
        for key, value, low in (
                ("match.reduce_rank", self.match.reduce_rank, 1),
                ("match.aux_weight", self.match.aux_weight, 0),
                ("embed.lsi_rank", self.embed.lsi_rank, 1),
                ("embed.beta", self.embed.beta, 0),
                ("metrics.knn_k", self.knn_k, 1),
                ("synth.cells", self.cells, 2),
                ("synth.dim1", self.dim1, 1), ("synth.dim2", self.dim2, 1),
                ("synth.types", self.types, 2),
                ("synth.batches", self.batches, 1),
                ("synth.noise", self.noise, 0)):
            if not value >= low:
                raise ConfigError(f"{key} must be >= {low}")
        if (self.task in ("match", "embed")
                and self.conv.aggregation_norm is EdgeScaling.SYMMETRIC):
            raise ConfigError(
                f"conv.norm=symmetric is undefined for {self.task}: its graph "
                "carries signed SVD/LSI coordinates as edge weights")
        if self.task in TASK_LAYER_COUNTS:
            self.conv_config(self.task)
        else:
            _validated("conv", ConvConfig(
                residual_mode=self.conv.residual_mode, alpha=self.conv.alpha,
                dropout_rate=self.conv.dropout_rate))
        self.protocol()

    # -- builders ----------------------------------------------------------

    def conv_config(self, task: str) -> ConvConfig:
        layers = (TASK_LAYER_COUNTS[task] if self.conv.n_layers is None
                  else self.conv.n_layers)
        if task == "predict" and layers < 1:
            raise ConfigError("conv: conv.n_layers must be >= 1 for predict, "
                              "whose readout mixes the per-layer cell states")
        return _validated("conv", replace(self.conv, n_layers=layers))

    def protocol(self) -> TrainProtocol:
        return _validated("train", replace(self.train))


def _parse_alpha(text: str):
    return text if text == "learnable" else float(text)


def _parse_optional_int(text: str):
    return None if text == "default" else int(text)


def _parse_optional_float(text: str):
    return None if text == "default" else float(text)


# dotted config key -> (RunConfig attribute path, parser)
CONFIG_KEYS: dict[str, tuple[str, object]] = {
    "task": ("task", str),
    "data": ("data", str),
    "out": ("out", str),
    "seed": ("train.seed", int),
    "conv.n_layers": ("conv.n_layers", _parse_optional_int),
    "conv.hidden_dim": ("conv.hidden_dim", int),
    "conv.dropout": ("conv.dropout_rate", float),
    "conv.alpha": ("conv.alpha", _parse_alpha),
    "conv.residual": ("conv.residual_mode", str),
    "conv.norm": ("conv.aggregation_norm", EdgeScaling),
    "conv.groups": ("conv.n_groups", int),
    "predict.gene_sets": ("gene_sets", str),
    "train.split_fraction": ("train.split_fraction", float),
    "train.patience": ("train.patience_epochs", int),
    "train.max_epochs": ("train.max_epochs", int),
    "train.lr": ("train.lr", _parse_optional_float),
    "train.weight_decay": ("train.weight_decay", float),
    "train.lr_decay_rate": ("train.lr_decay_rate", float),
    "train.lr_decay_every": ("train.lr_decay_every", int),
    "match.percentile": ("match.percentile", float),
    "match.aux_weight": ("match.aux_weight", float),
    "match.reduce_rank": ("match.reduce_rank", int),
    "embed.beta": ("embed.beta", float),
    "embed.lsi_rank": ("embed.lsi_rank", int),
    "metrics.knn_k": ("knn_k", int),
    "synth.cells": ("cells", int),
    "synth.dim1": ("dim1", int),
    "synth.dim2": ("dim2", int),
    "synth.types": ("types", int),
    "synth.batches": ("batches", int),
    "synth.noise": ("noise", float),
    "synth.dropout": ("synth_dropout", float),
}

# ConvConfig and TrainProtocol fields -> the config keys that set them
_FIELD_KEYS = {path.rpartition(".")[2]: key
               for key, (path, _) in CONFIG_KEYS.items()
               if key.startswith(("conv.", "train."))}


def apply_setting(cfg: RunConfig, key: str, raw: str):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    path, parser = CONFIG_KEYS[key]
    owner, _, attr = path.rpartition(".")
    try:
        setattr(getattr(cfg, owner) if owner else cfg, attr, parser(raw))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def load_config_file(path, cfg: RunConfig | None = None) -> RunConfig:
    """Parse `key = value` lines; `#` starts a comment; unknown keys fail."""
    cfg = cfg or RunConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            key, sep, value = text.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            try:
                apply_setting(cfg, key.strip(), value.strip())
            except ConfigError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    return cfg
