"""Shared test utilities: small configs and gradient-comparison helpers."""

import numpy as np

from boostadapt.config import ExperimentConfig
from boostadapt.data import ShiftConfig
from boostadapt.model import ModelConfig, TwoHeadModel


def max_rel_error(got: np.ndarray, want: np.ndarray, floor: float = 1e-3) -> float:
    """Componentwise |got-want| / max(|got|, |want|, floor).

    The floor keeps near-zero coordinates from dominating: for them the
    check degenerates to an absolute bound of tol * floor.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), floor)
    return float(np.max(np.abs(got - want) / denom))


# A run config whose one epoch-1 step leaves finite parameters (max |p|
# 6.4e307) whose logits overflow in the epoch-end evaluation.
LOGIT_OVERFLOW = {
    "seed": 4,
    "lr0": 1.7e308,
    "epochs": 3,
    "iters_per_epoch": 1,
    "warmup_epochs": 0,
    "eval_last_k": 2,
    "sampler": "uniform",
    "aggregation": "none",
}


def small_model_config(**overrides) -> ModelConfig:
    base = dict(
        height=6,
        width=5,
        features=3,
        classes=3,
        hidden1=4,
        hidden2=4,
        dropout_rate=0.2,
        aux_loss_weight=0.5,
        r_aux=0,
        r_primary=1,
    )
    base.update(overrides)
    return ModelConfig(**base)


def small_shift_config(**overrides) -> ShiftConfig:
    base = dict(
        height=8,
        width=8,
        features=3,
        classes=3,
        source_count=8,
        target_count=8,
        feature_mean_shift=(0.3, 0.0, 0.0),
        seed=0,
    )
    base.update(overrides)
    return ShiftConfig(**base)


def small_experiment_config(**overrides) -> ExperimentConfig:
    base = dict(
        epochs=3,
        iters_per_epoch=6,
        batch_size=2,
        warmup_epochs=1,
        eval_last_k=2,
        shift=small_shift_config(),
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def random_image(rng: np.random.Generator, cfg: ModelConfig) -> np.ndarray:
    return rng.normal(0.0, 1.0, (cfg.height, cfg.width, cfg.features))


def random_labels(rng: np.random.Generator, cfg: ModelConfig) -> np.ndarray:
    return rng.integers(0, cfg.classes, (cfg.height, cfg.width))


def random_batch(rng: np.random.Generator, cfg: ModelConfig, n: int = 1) -> tuple:
    """An (n, H, W, F) image stack and its (n, H, W) label stack, drawn
    image then label map, position by position."""
    pairs = [(random_image(rng, cfg), random_labels(rng, cfg)) for _ in range(n)]
    return tuple(np.stack(column) for column in zip(*pairs))


def per_position(monkeypatch) -> None:
    """Make ``TwoHeadModel.value_and_grad`` run one call per batch position
    and sum the calls in order, so no two positions are ever merged: the
    reference loop whose bits a call that merges equal inputs must give."""
    value_and_grad = TwoHeadModel.value_and_grad

    def every_position(model, params, images, head_terms, dropout_seed=None, targets=None):
        total, grad = 0.0, np.zeros(model.param_count)
        for i in range(len(images)):
            rows = None if targets is None else targets[i : i + 1]
            term, row = value_and_grad(
                model, params, images[i : i + 1], head_terms, dropout_seed, rows
            )
            total += term
            grad += row
        return total, grad

    monkeypatch.setattr(TwoHeadModel, "value_and_grad", every_position)


def forwarded_images(monkeypatch) -> list:
    """Patch ``TwoHeadModel._forward_cache`` to append every image it forwards
    to the returned list."""
    seen = []
    forward_cache = TwoHeadModel._forward_cache

    def counting(model, params, image, masks):
        seen.extend(image.reshape(-1, *image.shape[-3:]))
        return forward_cache(model, params, image, masks)

    monkeypatch.setattr(TwoHeadModel, "_forward_cache", counting)
    return seen
