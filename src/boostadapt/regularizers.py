"""Unlabeled-target regularizer hooks.

The training loop treats the regularizer as an opaque term: given the current
parameters and the drawn (N, H, W, F) target image stack it returns (loss,
gradient), and the gradient is added to the labeled-source gradient. Under
``regularizer: none`` there is no hook: the step trains on source
supervision alone, as a warm-up step does. Each kind in ``KINDS`` is a
per-image terms function ``(weight, n_pix, n, cache) -> (terms, dlogits_p,
None)``, and ``make_regularizer`` makes every hook the same way: a
``head_terms`` callback on ``TwoHeadModel.value_and_grad``, the model's one
forward/backward loop. For each stack of images it gives the per-image loss
terms and the primary head's dloss/dlogits from an eval-mode forward (the
aux head gets none), and like that loop the hook raises ``DivergenceError``
on non-finite parameters. The terms read only the cache, so the hook passes
no ``targets``: an image the sampler drew twice into one batch is forwarded
once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .model import TwoHeadModel
from .numerics import entropy

RegularizerHook = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]


def _entropy_min_terms(weight: float, n_pix: int, n: int, cache) -> tuple:
    """Minimize the primary head's mean prediction entropy on the target batch.

    d(entropy)/d(logit_k) = -p_k (log p_k + H).
    """
    h = entropy(cache.probs_p)  # (m, H*W)
    logp = np.log(np.maximum(cache.probs_p, 1e-12))
    dlogits_p = -weight * cache.probs_p * (logp + h[..., None]) / (n_pix * n)
    return weight * np.mean(h, axis=-1) / n, dlogits_p, None


def _self_training_terms(weight: float, n_pix: int, n: int, cache) -> tuple:
    """Cross-entropy of the primary head against the model's own fused argmax.

    The pseudo-label is recomputed from the current parameters at every call,
    so confident mistakes keep attracting gradient; unlike entropy descent the
    pull does not vanish as predictions saturate.
    """
    fused = cache.probs_p + cache.probs_a
    labels = np.argmax(fused, axis=-1)  # (m, H*W)
    onehot = labels[..., None] == np.arange(fused.shape[-1])
    picked = cache.probs_p[onehot].reshape(len(labels), -1)
    term = -weight * np.mean(np.log(np.maximum(picked, 1e-12)), axis=-1) / n
    dlogits_p = weight * (cache.probs_p - onehot) / (n_pix * n)
    return term, dlogits_p, None


KINDS = {"entropy-min": _entropy_min_terms, "self-training": _self_training_terms}


def make_regularizer(model: TwoHeadModel, kind: str, weight: float) -> RegularizerHook:
    """The hook of regularizer ``kind`` at ``weight``, its per-image terms
    divided by the batch size so the loss is a batch mean."""
    if kind not in KINDS:
        raise ValueError(f"unknown regularizer {kind!r}")
    if weight < 0.0:
        raise ValueError("weight must be >= 0")
    terms = KINDS[kind]
    n_pix = model.config.height * model.config.width

    def hook(params: np.ndarray, images: np.ndarray) -> tuple[float, np.ndarray]:
        n = len(images)
        return model.value_and_grad(params, images, lambda _, cache: terms(weight, n_pix, n, cache))

    return hook
