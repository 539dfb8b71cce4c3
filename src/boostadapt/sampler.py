"""Adaptive sampling distribution over the unlabeled target dataset.

Starts uniform; after each epoch the new distribution is the halfway blend
of the old one with the normalized uncertainty scores,

    D[j] <- (D[j] + s[j]) / 2,

renormalized after every update so float drift can never accumulate.
Draws are with replacement via inverse-CDF lookup on the prefix sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SUM_TOL = 1e-6


@dataclass(frozen=True)
class SampleDistribution:
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.weights.ndim != 1 or self.weights.size < 1:
            raise ValueError("weights must be a non-empty 1-d vector")
        if np.any(self.weights < 0.0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and non-negative")
        if abs(self.weights.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"weights sum to {self.weights.sum()!r}, not 1")

    def __len__(self) -> int:
        return int(self.weights.size)

    @cached_property
    def _prefix(self) -> np.ndarray:
        # Computed lazily once per distribution, i.e. once per epoch.
        return np.cumsum(self.weights)


def init_uniform(count: int) -> SampleDistribution:
    """Epoch-1 distribution: exactly 1/count everywhere."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return SampleDistribution(weights=np.full(count, 1.0 / count))


def update(dist: SampleDistribution, normalized_scores: np.ndarray) -> SampleDistribution:
    """Blend the current weights with a normalized score vector."""
    scores = np.asarray(normalized_scores, dtype=np.float64)
    if scores.shape != dist.weights.shape:
        raise ValueError(
            f"score length {scores.shape} does not match distribution {dist.weights.shape}"
        )
    if np.any(scores < 0.0) or not np.all(np.isfinite(scores)):
        raise ValueError("normalized scores must be finite and non-negative")
    if abs(scores.sum() - 1.0) > SUM_TOL:
        raise ValueError(f"normalized scores sum to {scores.sum()!r}, not 1")
    blended = 0.5 * (dist.weights + scores)
    blended = blended / blended.sum()
    return SampleDistribution(weights=blended)


def draw(dist: SampleDistribution, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` indices with replacement, inverse-CDF on the prefix sums."""
    if count < 1:
        raise ValueError("count must be >= 1")
    u = rng.random(count)
    idx = np.searchsorted(dist._prefix, u, side="right")
    # float prefix can top out a hair under 1.0
    return np.minimum(idx, len(dist) - 1).astype(np.int64)
