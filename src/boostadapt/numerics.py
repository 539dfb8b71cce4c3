"""Shared numeric kernels: softmax, cross-entropy, pointwise KL, finite differences.

All logs are natural. Probabilities are clamped at ``EPS`` before any log so
inference-path losses stay finite; the training path goes through the fused
log-softmax form instead of composing softmax with a log.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

EPS = 1e-12

# numpy's pairwise sum adds a last axis shorter than this left to right from
# +0.0, so folding it column by column gives the same bits without numpy's
# slow per-row reduce over a handful of entries (the class axis).
_FOLD_BELOW = 8


def _fold_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)``, as an ``np.maximum`` fold over short last axes."""
    if a.ndim == 0 or not 0 < a.shape[-1] < _FOLD_BELOW:
        return a.max(axis=-1)
    out = a[..., 0]
    for k in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., k])
    return out


def _fold_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` bit for bit, as a column fold over short last axes."""
    if a.ndim == 0 or not 0 < a.shape[-1] < _FOLD_BELOW:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0  # numpy's sum starts from +0.0: a row of -0.0 gives +0.0
    for k in range(1, a.shape[-1]):
        out += a[..., k]
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis.

    Rejects non-finite inputs and vectors with fewer than two entries.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] < 2:
        raise ValueError("softmax needs at least two entries along the last axis")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax: non-finite logits")
    z = z - _fold_max(z)[..., None]
    e = np.exp(z)
    return e / _fold_sum(e)[..., None]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Fused log softmax along the last axis; numerically safe for use
    inside training losses."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] < 2:
        raise ValueError("log_softmax needs at least two entries along the last axis")
    if not np.all(np.isfinite(z)):
        raise ValueError("log_softmax: non-finite logits")
    z = z - _fold_max(z)[..., None]
    return z - np.log(_fold_sum(np.exp(z))[..., None])


def cross_entropy(pred: np.ndarray, label: int) -> float:
    """-log p[label] with the probability clamped at EPS."""
    p = np.asarray(pred, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError("cross_entropy expects a 1-d probability vector")
    label = int(label)
    if not 0 <= label < p.shape[0]:
        raise IndexError(f"label {label} out of range for {p.shape[0]} classes")
    return float(-np.log(max(p[label], EPS)))


def kl_pointwise(p: np.ndarray, q: np.ndarray) -> np.ndarray | float:
    """KL(p || q) summed along the last axis, with 0*log(0) = 0 and q clamped at EPS.

    Scalar for a pair of vectors; an array of the leading shape for maps.
    Clamping q can push the sum a hair below zero, so the result is floored
    at exact 0.
    """
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape:
        raise ValueError(f"shape mismatch: {pa.shape} vs {qa.shape}")
    qc = np.maximum(qa, EPS)
    ratio = np.maximum(pa, EPS) / qc
    terms = np.where(pa > 0.0, pa * np.log(ratio), 0.0)
    out = np.maximum(_fold_sum(terms), 0.0)
    return float(out) if np.ndim(out) == 0 else out


def entropy(p: np.ndarray) -> np.ndarray | float:
    """Shannon entropy -sum p log p along the last axis, with 0*log(0) = 0."""
    pa = np.asarray(p, dtype=np.float64)
    terms = np.where(pa > 0.0, pa * np.log(np.maximum(pa, EPS)), 0.0)
    out = -_fold_sum(terms)
    return float(out) if np.ndim(out) == 0 else out


def finite_difference_gradient(
    f: Callable[[np.ndarray], float],
    at: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of a scalar function, one coordinate at a time."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    x = np.array(at, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + eps
        hi = float(f(x))
        x.flat[i] = orig - eps
        lo = float(f(x))
        x.flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise ValueError(f"non-finite evaluation at coordinate {i}")
        grad.flat[i] = (hi - lo) / (2.0 * eps)
    return grad
