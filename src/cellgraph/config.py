"""Run configuration: flat `key = value` files with dotted keys, strict
validation, and builders for the per-module config objects."""

from __future__ import annotations

import re
from dataclasses import dataclass

from .convnet import TASK_LAYER_COUNTS, ConvConfig, default_layer_count
from .graph import EdgeScaling
from .tasks import EmbedConfig, MatcherConfig, TrainProtocol


class ConfigError(ValueError):
    """Invalid or unknown configuration input."""


_NORM_NAMES = {
    "symmetric": EdgeScaling.SYMMETRIC,
    "min_max": EdgeScaling.MIN_MAX,
    "post_norm": EdgeScaling.POST_NORM,
}


# ConvConfig and TrainProtocol fields -> the config keys that set them
_FIELD_KEYS = {
    "n_layers": "conv.n_layers",
    "hidden_dim": "conv.hidden_dim",
    "residual_mode": "conv.residual",
    "alpha": "conv.alpha",
    "dropout_rate": "conv.dropout",
    "n_groups": "conv.groups",
    "split_fraction": "train.split_fraction",
    "patience_epochs": "train.patience",
    "max_epochs": "train.max_epochs",
    "lr_decay_every": "train.lr_decay_every",
}


def _validated(section: str, obj):
    """obj after its own validate(); a failure is re-raised as a
    ConfigError whose message names config keys in place of fields."""
    try:
        obj.validate()
    except ValueError as exc:
        msg = re.sub(r"\w+", lambda m: _FIELD_KEYS.get(m[0], m[0]),
                     str(exc))
        raise ConfigError(f"{section}: {msg}") from exc
    return obj


@dataclass
class RunConfig:
    """Every knob of every pipeline, with conservative defaults."""

    task: str = ""
    data: str = ""
    out: str = ""
    seed: int = 0
    # conv.*
    n_layers: int | None = None  # None: task default (4 / 3 / 2)
    hidden_dim: int = 48
    dropout: float = 0.2
    alpha: float | str = 0.5
    residual: str = "initial"
    norm: str = "post_norm"
    groups: int = 1
    gene_sets: str = ""
    # train.*
    split_fraction: float = 0.85
    patience: int = 300
    max_epochs: int = 2000
    lr: float | None = None
    weight_decay: float = 0.0
    lr_decay_rate: float = 1.0
    lr_decay_every: int = 100
    # match.*
    percentile: float = 95.0
    aux_weight: float = 1.0
    use_aux: bool = True
    reduce_rank: int = 32
    # embed.*
    beta: float = 0.01
    lsi_rank: int = 32
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
        if not 0.0 <= self.percentile < 100.0:
            raise ConfigError("match.percentile must be in [0, 100)")
        if self.norm not in _NORM_NAMES:
            raise ConfigError(f"conv.norm must be one of {sorted(_NORM_NAMES)}")
        if self.knn_k < 1:
            raise ConfigError("metrics.knn_k must be >= 1")
        if self.task in ("match", "embed") and self.norm == "symmetric":
            raise ConfigError(
                f"conv.norm=symmetric is undefined for {self.task}: its graph "
                "carries signed SVD/LSI coordinates as edge weights")
        if self.task in TASK_LAYER_COUNTS:
            self.conv_config(self.task)
        else:
            _validated("conv", ConvConfig(residual_mode=self.residual,
                                          alpha=self.alpha,
                                          dropout_rate=self.dropout))
        self.protocol()

    # -- builders ----------------------------------------------------------

    def conv_config(self, task: str) -> ConvConfig:
        layers = (default_layer_count(task) if self.n_layers is None
                  else self.n_layers)
        if task == "predict" and layers < 1:
            raise ConfigError("conv: conv.n_layers must be >= 1 for predict, "
                              "whose readout mixes the per-layer cell states")
        return _validated("conv", ConvConfig(
            n_layers=layers,
            hidden_dim=self.hidden_dim,
            residual_mode=self.residual,
            aggregation_norm=_NORM_NAMES[self.norm],
            alpha=self.alpha,
            dropout_rate=self.dropout,
            n_groups=self.groups,
        ))

    def protocol(self) -> TrainProtocol:
        return _validated("train", TrainProtocol(
            split_fraction=self.split_fraction,
            patience_epochs=self.patience,
            max_epochs=self.max_epochs,
            seed=self.seed,
            lr=self.lr,
            weight_decay=self.weight_decay,
            lr_decay_rate=self.lr_decay_rate,
            lr_decay_every=self.lr_decay_every,
        ))

    def matcher_config(self) -> MatcherConfig:
        return MatcherConfig(
            conv=self.conv_config("match"),
            reduce_rank=self.reduce_rank,
            aux_weight=self.aux_weight,
            use_aux=self.use_aux,
            percentile=self.percentile,
        )

    def embed_config(self) -> EmbedConfig:
        return EmbedConfig(
            conv=self.conv_config("embed"),
            lsi_rank=self.lsi_rank,
            beta=self.beta,
        )


# dotted config key -> (attribute, parser)
def _parse_bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_alpha(text: str):
    return text if text == "learnable" else float(text)


def _parse_optional_int(text: str):
    return None if text == "default" else int(text)


def _parse_optional_float(text: str):
    return None if text == "default" else float(text)


CONFIG_KEYS: dict[str, tuple[str, object]] = {
    "task": ("task", str),
    "data": ("data", str),
    "out": ("out", str),
    "seed": ("seed", int),
    "conv.n_layers": ("n_layers", _parse_optional_int),
    "conv.hidden_dim": ("hidden_dim", int),
    "conv.dropout": ("dropout", float),
    "conv.alpha": ("alpha", _parse_alpha),
    "conv.residual": ("residual", str),
    "conv.norm": ("norm", str),
    "conv.groups": ("groups", int),
    "predict.gene_sets": ("gene_sets", str),
    "train.split_fraction": ("split_fraction", float),
    "train.patience": ("patience", int),
    "train.max_epochs": ("max_epochs", int),
    "train.lr": ("lr", _parse_optional_float),
    "train.weight_decay": ("weight_decay", float),
    "train.lr_decay_rate": ("lr_decay_rate", float),
    "train.lr_decay_every": ("lr_decay_every", int),
    "match.percentile": ("percentile", float),
    "match.aux_weight": ("aux_weight", float),
    "match.use_aux": ("use_aux", _parse_bool),
    "match.reduce_rank": ("reduce_rank", int),
    "embed.beta": ("beta", float),
    "embed.lsi_rank": ("lsi_rank", int),
    "metrics.knn_k": ("knn_k", int),
    "synth.cells": ("cells", int),
    "synth.dim1": ("dim1", int),
    "synth.dim2": ("dim2", int),
    "synth.types": ("types", int),
    "synth.batches": ("batches", int),
    "synth.noise": ("noise", float),
    "synth.dropout": ("synth_dropout", float),
}


def apply_setting(cfg: RunConfig, key: str, raw: str):
    if key not in CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    attr, parser = CONFIG_KEYS[key]
    try:
        setattr(cfg, attr, parser(raw))
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
