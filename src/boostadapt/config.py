"""Experiment configuration: dataclass, strict JSON schema, variant presets.

The JSON schema mirrors the dataclass fields. Unknown keys are rejected so a
typo cannot silently fall back to a default. The model's image dimensions and
class count are taken from the ``shift`` section (single source of truth);
the ``model`` section carries only the architectural knobs.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from typing import Any

from .data import ShiftConfig
from .errors import ConfigError, check_finite_fields, is_finite
from .model import ModelConfig
from .regularizers import KINDS
from .uncertainty import max_score

SAMPLERS = ("kl-variance", "entropy", "uniform")
AGGREGATIONS = ("running-mean", "momentum", "ema", "oracle-alpha", "none")
REGULARIZERS = ("none", *KINDS)

# Ablation presets: the five-row table plus baseline aggregation variants.
VARIANT_PRESETS: dict[str, dict[str, Any]] = {
    "baseline": {"sampler": "uniform", "aggregation": "none"},
    "sampler-only": {"sampler": "kl-variance", "aggregation": "none"},
    "aggregation-only": {"sampler": "uniform", "aggregation": "running-mean"},
    "full-variance": {"sampler": "kl-variance", "aggregation": "running-mean"},
    "full-entropy": {"sampler": "entropy", "aggregation": "running-mean"},
    "momentum-0.9": {"sampler": "kl-variance", "aggregation": "momentum", "momentum": 0.9},
    "momentum-0.5": {"sampler": "kl-variance", "aggregation": "momentum", "momentum": 0.5},
    "ema": {"sampler": "kl-variance", "aggregation": "ema"},
    "oracle-alpha": {"sampler": "kl-variance", "aggregation": "oracle-alpha"},
}
ABLATION_VARIANTS = (
    "baseline",
    "sampler-only",
    "aggregation-only",
    "full-variance",
    "full-entropy",
)


@dataclass(frozen=True)
class ExperimentConfig:
    epochs: int = 20
    iters_per_epoch: int = 25
    batch_size: int = 2
    lr0: float = 0.2
    aux_loss_weight: float = 0.5
    dropout_rate: float = 0.2
    warmup_epochs: int = 10
    # Poly-decay horizon as a multiple of the run length. Values > 1 leave the
    # step size finite at the last iteration, so late snapshots stay stochastic
    # and the running mean has noise left to cancel.
    lr_horizon_scale: float = 4.0
    sampler: str = "kl-variance"
    aggregation: str = "running-mean"
    momentum: float = 0.9
    ema_decay: float = 0.99
    softmax_temperature: float = 1.0
    eval_last_k: int = 5
    horizontal_flip: bool = False
    dump_distributions: bool = False
    regularizer: str = "self-training"
    regularizer_weight: float = 0.5
    hidden1: int = 8
    hidden2: int = 8
    r_aux: int = 0
    r_primary: int = 1
    shift: ShiftConfig = field(default_factory=ShiftConfig)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self) -> None:
        check_finite_fields(self, ConfigError)
        if self.epochs < 1 or self.iters_per_epoch < 1:
            raise ConfigError("epochs and iters_per_epoch must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr0 <= 0.0:
            raise ConfigError("lr0 must be positive")
        if self.warmup_epochs < 0:
            raise ConfigError("warmup_epochs must be >= 0")
        if self.lr_horizon_scale < 1.0:
            raise ConfigError("lr_horizon_scale must be >= 1")
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}; known: {SAMPLERS}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"unknown aggregation {self.aggregation!r}; known: {AGGREGATIONS}"
            )
        if not 0.0 < self.momentum < 1.0:
            raise ConfigError("momentum must be in (0, 1)")
        if not 0.0 < self.ema_decay < 1.0:
            raise ConfigError("ema_decay must be in (0, 1)")
        if self.softmax_temperature <= 0.0:
            raise ConfigError("softmax_temperature must be positive")
        # twice the largest score, so the rounding of a score's sums cannot
        # overflow the division in normalize_scores either
        if not math.isfinite(2.0 * max_score(self.shift.classes) / self.softmax_temperature):
            raise ConfigError(
                f"softmax_temperature {self.softmax_temperature!r} is too small: "
                "the largest score divided by it overflows"
            )
        if self.eval_last_k < 1 or self.eval_last_k > self.epochs:
            raise ConfigError("eval_last_k must be in [1, epochs]")
        if self.regularizer not in REGULARIZERS:
            raise ConfigError(
                f"unknown regularizer {self.regularizer!r}; known: {REGULARIZERS}"
            )
        if self.regularizer_weight < 0.0:
            raise ConfigError("regularizer_weight must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            self.model_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def model_config(self) -> ModelConfig:
        """Full architecture config, dimensions pulled from the shift section."""
        return ModelConfig(
            height=self.shift.height,
            width=self.shift.width,
            features=self.shift.features,
            classes=self.shift.classes,
            hidden1=self.hidden1,
            hidden2=self.hidden2,
            dropout_rate=self.dropout_rate,
            aux_loss_weight=self.aux_loss_weight,
            r_aux=self.r_aux,
            r_primary=self.r_primary,
        )


_SECTIONS = ("model", "shift")
_MODEL_KEYS = ("hidden1", "hidden2", "r_aux", "r_primary")
_SHIFT_KEYS = tuple(f.name for f in dataclasses.fields(ShiftConfig))
_TOP_KEYS = tuple(
    f.name
    for f in dataclasses.fields(ExperimentConfig)
    if f.name not in _MODEL_KEYS and f.name != "shift"
) + _SECTIONS


def _is_a(value: Any, hint: Any) -> bool:
    """Whether the JSON ``value`` fits a field annotated ``hint``: a bool is
    no number, and an int is also a float."""
    if typing.get_origin(hint) is tuple:  # tuple[float, ...], a JSON list
        return isinstance(value, list) and all(_is_a(v, float) for v in value)
    # a union's members, or the one type
    kinds = (int, float) if hint is float else typing.get_args(hint) or (hint,)
    return isinstance(value, kinds) and (hint is bool or not isinstance(value, bool))


def _check_section(given: Any, allowed: tuple[str, ...], cls: type, where: str) -> dict:
    """``given``, checked to be a JSON object with keys in ``allowed`` whose
    values (other than the nested sections) have JSON types that fit their
    fields of ``cls`` and are finite: ``json.load`` reads ``NaN``,
    ``Infinity`` and ``-Infinity``."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} config must be a JSON object")
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {unknown}")
    hints = typing.get_type_hints(cls)
    for name, value in given.items():
        if name not in _SECTIONS and not _is_a(value, hints[name]):
            kind = hints[name].__name__ if isinstance(hints[name], type) else hints[name]
            raise ConfigError(f"{where} config value {name}={value!r} is not of type {kind}")
        if not is_finite(value):
            raise ConfigError(f"{where} config value {name}={value!r} is not finite")
    return given


def experiment_config_from_dict(raw: dict) -> ExperimentConfig:
    _check_section(raw, _TOP_KEYS, ExperimentConfig, "top-level")
    model = _check_section(raw.get("model", {}), _MODEL_KEYS, ExperimentConfig, "model")
    shift = _check_section(raw.get("shift", {}), _SHIFT_KEYS, ShiftConfig, "shift")
    top = {k: v for k, v in raw.items() if k not in _SECTIONS}
    try:
        return ExperimentConfig(**top, **model, shift=ShiftConfig(**shift))
    except ValueError as exc:
        raise ConfigError(f"bad config value: {exc}") from exc


def load_experiment_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return experiment_config_from_dict(raw)


def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved config in the same shape the loader accepts (echo round-trips)."""
    out: dict[str, Any] = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name in _MODEL_KEYS or f.name == "shift":
            continue
        out[f.name] = getattr(cfg, f.name)
    out["model"] = {k: getattr(cfg, k) for k in _MODEL_KEYS}
    shift = dataclasses.asdict(cfg.shift)
    shift["feature_mean_shift"] = list(cfg.shift.feature_mean_shift)
    out["shift"] = shift
    return out


def apply_variant(cfg: ExperimentConfig, variant: str) -> ExperimentConfig:
    if variant not in VARIANT_PRESETS:
        raise ConfigError(
            f"unknown variant {variant!r}; known: {sorted(VARIANT_PRESETS)}"
        )
    return dataclasses.replace(cfg, **VARIANT_PRESETS[variant])
