"""Prediction-uncertainty scoring of unlabeled images.

The variance score of an image is the pixel-mean KL divergence from the
primary head's distribution to the auxiliary head's: pixels where the two
classifiers disagree score high. The entropy alternative uses the primary
head's pixel-mean Shannon entropy instead. Scores are softmax-normalized
into a probability vector over the dataset before updating the sampling
distribution.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import TwoHeadModel, fuse_predictions
from .numerics import EPS, entropy, kl_pointwise, softmax

CRITERIA = ("kl-variance", "entropy")


def kl_variance_image(primary: np.ndarray, aux: np.ndarray) -> float:
    """Pixel-mean KL(primary || aux) over a pair of probability maps."""
    if primary.shape != aux.shape:
        raise ValueError(f"shape mismatch: {primary.shape} vs {aux.shape}")
    per_pixel = kl_pointwise(primary, aux)
    return float(np.mean(per_pixel))


def entropy_image(primary: np.ndarray) -> float:
    """Pixel-mean Shannon entropy of a probability map."""
    return float(np.mean(entropy(primary)))


def score_dataset(
    model: TwoHeadModel,
    params: np.ndarray,
    images: Sequence[np.ndarray],
    criterion: str = "kl-variance",
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode (scores, predictions) of every image, one
    ``model.forward_chunks`` chunk at a time: the (N,) scores, and the
    (N, H, W) argmax of the fused prediction, so evaluating ``params`` on
    the same images needs no second pass."""
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}; known: {CRITERIA}")
    if len(images) == 0:
        raise ValueError("empty image list")
    c = model.config
    values = np.empty(len(images))
    predicted = np.empty((len(images), c.height, c.width), dtype=np.int64)
    for span, primary, aux in model.forward_chunks(params, images):
        per_pixel = kl_pointwise(primary, aux) if criterion == "kl-variance" else entropy(primary)
        values[span] = per_pixel.reshape(len(primary), -1).mean(axis=1)
        predicted[span] = np.argmax(fuse_predictions(primary, aux), axis=-1)
    return values, predicted


def max_score(classes: int) -> float:
    """The largest score either criterion can give: the pixel-mean KL is at
    most log(1/EPS), because ``kl_pointwise`` clamps q at EPS, and the
    pixel-mean entropy at most log(classes)."""
    return max(-math.log(EPS), math.log(classes))


def normalize_scores(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Softmax over the dataset's scores; temperature 1 is the plain rule."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    values = np.asarray(scores)
    if values.ndim != 1:
        raise ValueError("scores must be a 1-d vector")
    return softmax(values / temperature)
