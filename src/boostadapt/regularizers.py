"""Unlabeled-target regularizer hooks.

The training loop treats the regularizer as an opaque term: given the current
parameters and the drawn (N, H, W, F) target image stack it returns (loss,
gradient), and the gradient is added to the labeled-source gradient. Under
``regularizer: none`` there is no hook: the step trains on source
supervision alone, as a warm-up step does. The entropy-minimization and
self-training hooks are each a ``head_terms`` callback on
``TwoHeadModel.value_and_grad``, the model's one forward/backward loop: for
each stack of images they give the per-image loss terms and the primary
head's dloss/dlogits from an eval-mode forward (the aux head gets none), and
like that loop they raise ``DivergenceError`` on non-finite parameters.
Their terms read only the cache, so they pass no ``targets``: an image the
sampler drew twice into one batch is forwarded once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import TwoHeadModel
from .numerics import entropy

RegularizerHook = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


def entropy_min_regularizer(model: TwoHeadModel, weight: float) -> RegularizerHook:
    """Minimize the primary head's mean prediction entropy on the target batch.

    Eval-mode forward (no dropout); d(entropy)/d(logit_k) = -p_k (log p_k + H).
    """
    if weight < 0.0:
        raise ValueError("weight must be >= 0")
    n_pix = model.config.height * model.config.width

    def hook(params: np.ndarray, images: np.ndarray) -> tuple[float, np.ndarray]:
        n = len(images)

        def head_terms(_, cache) -> tuple[np.ndarray, np.ndarray, None]:
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

    def hook(params: np.ndarray, images: np.ndarray) -> tuple[float, np.ndarray]:
        n = len(images)

        def head_terms(_, cache) -> tuple[np.ndarray, np.ndarray, None]:
            fused = cache.probs_p + cache.probs_a
            labels = np.argmax(fused, axis=-1)  # (m, H*W)
            onehot = labels[..., None] == np.arange(fused.shape[-1])
            picked = cache.probs_p[onehot].reshape(len(labels), -1)
            term = -weight * np.mean(np.log(np.maximum(picked, 1e-12)), axis=-1) / n
            dlogits_p = weight * (cache.probs_p - onehot) / (n_pix * n)
            return term, dlogits_p, None

        return model.value_and_grad(params, images, head_terms)

    return hook


def make_regularizer(model: TwoHeadModel, kind: str, weight: float) -> RegularizerHook:
    if kind == "entropy-min":
        return entropy_min_regularizer(model, weight)
    if kind == "self-training":
        return self_training_regularizer(model, weight)
    raise ValueError(f"unknown regularizer {kind!r}")
