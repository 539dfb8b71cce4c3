"""Unlabeled-target regularizer hooks.

The training loop treats the regularizer as an opaque term: given the current
parameters and the drawn target batch it returns (loss, gradient) and the
gradient is added to the labeled-source gradient. The default hook returns an
exact zero so the base method trains on source supervision alone. The
entropy-minimization and self-training hooks are each a ``head_terms``
callback on ``TwoHeadModel.value_and_grad``, the model's one forward/backward
loop: for each stack of images they give the per-image loss terms and the
primary head's dloss/dlogits from an eval-mode forward (the aux head gets
none), and like that loop they raise ``DivergenceError`` on non-finite
parameters.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .model import TwoHeadModel
from .numerics import entropy

RegularizerHook = Callable[[np.ndarray, Sequence[np.ndarray]], tuple[float, np.ndarray]]


def zero_regularizer(model: TwoHeadModel) -> RegularizerHook:
    """No-op target term: loss 0, gradient exactly zero."""

    def hook(params: np.ndarray, images: Sequence[np.ndarray]) -> tuple[float, np.ndarray]:
        return 0.0, np.zeros(model.param_count)

    return hook


def entropy_min_regularizer(model: TwoHeadModel, weight: float) -> RegularizerHook:
    """Minimize the primary head's mean prediction entropy on the target batch.

    Eval-mode forward (no dropout); d(entropy)/d(logit_k) = -p_k (log p_k + H).
    """
    if weight < 0.0:
        raise ValueError("weight must be >= 0")
    n_pix = model.config.height * model.config.width

    def hook(params: np.ndarray, images: Sequence[np.ndarray]) -> tuple[float, np.ndarray]:
        n = len(images)

        def head_terms(span: slice, cache) -> tuple[np.ndarray, np.ndarray, None]:
            h = entropy(cache.probs_p)  # (m, H*W)
            logp = np.log(np.maximum(cache.probs_p, 1e-12))
            dlogits_p = -weight * cache.probs_p * (logp + h[..., None]) / (n_pix * n)
            return weight * np.mean(h, axis=-1) / n, dlogits_p, None

        return model.value_and_grad(params, images, head_terms)

    return hook


def self_training_regularizer(model: TwoHeadModel, weight: float) -> RegularizerHook:
    """Cross-entropy of the primary head against the model's own fused argmax.

    The pseudo-label is recomputed from the current parameters at every call,
    so confident mistakes keep attracting gradient; unlike entropy descent the
    pull does not vanish as predictions saturate.
    """
    if weight < 0.0:
        raise ValueError("weight must be >= 0")
    n_pix = model.config.height * model.config.width

    def hook(params: np.ndarray, images: Sequence[np.ndarray]) -> tuple[float, np.ndarray]:
        n = len(images)

        def head_terms(span: slice, cache) -> tuple[np.ndarray, np.ndarray, None]:
            fused = cache.probs_p + cache.probs_a
            labels = np.argmax(fused, axis=-1)[..., None]  # (m, H*W, 1)
            picked = np.take_along_axis(cache.probs_p, labels, -1)[..., 0]
            term = -weight * np.mean(np.log(np.maximum(picked, 1e-12)), axis=-1) / n
            onehot = np.zeros_like(cache.probs_p)
            np.put_along_axis(onehot, labels, 1.0, -1)
            dlogits_p = weight * (cache.probs_p - onehot) / (n_pix * n)
            return term, dlogits_p, None

        return model.value_and_grad(params, images, head_terms)

    return hook


def make_regularizer(model: TwoHeadModel, kind: str, weight: float) -> RegularizerHook:
    if kind == "none":
        return zero_regularizer(model)
    if kind == "entropy-min":
        return entropy_min_regularizer(model, weight)
    if kind == "self-training":
        return self_training_regularizer(model, weight)
    raise ValueError(f"unknown regularizer {kind!r}")
