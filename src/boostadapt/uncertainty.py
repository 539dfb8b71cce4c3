"""Prediction-uncertainty scoring of unlabeled images.

The variance score of an image is the pixel-mean KL divergence from the
primary head's distribution to the auxiliary head's: pixels where the two
classifiers disagree score high. The entropy alternative uses the primary
head's pixel-mean Shannon entropy instead. Scores are softmax-normalized
into a probability vector over the dataset before updating the sampling
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import TwoHeadModel, fuse_predictions
from .numerics import entropy, kl_pointwise, softmax

CRITERIA = ("kl-variance", "entropy")


@dataclass(frozen=True)
class ScoreVector:
    values: np.ndarray
    criterion: str
    # (N, H, W) argmax of the fused prediction the scoring pass computed, so
    # evaluating the scored params on the same images needs no second pass
    predicted: np.ndarray

    def __post_init__(self) -> None:
        if self.criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {self.criterion!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("scores must be finite")
        if np.any(self.values < 0.0):
            raise ValueError("scores must be non-negative")

    def __len__(self) -> int:
        return int(self.values.size)


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
) -> ScoreVector:
    """Eval-mode score and fused per-pixel prediction of every image, one
    ``model.forward_chunks`` chunk at a time."""
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
    return ScoreVector(values=values, criterion=criterion, predicted=predicted)


def normalize_scores(
    scores: ScoreVector | np.ndarray, temperature: float = 1.0
) -> np.ndarray:
    """Softmax over the dataset's scores; temperature 1 is the plain rule."""
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    values = scores.values if isinstance(scores, ScoreVector) else np.asarray(scores)
    if values.ndim != 1:
        raise ValueError("scores must be a 1-d vector")
    return softmax(values / temperature)
