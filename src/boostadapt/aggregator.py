"""Aggregation of per-epoch model snapshots into one averaged model.

The default aggregate after T snapshots is their plain mean, maintained
online:

    mean_T = ((T - 1) * mean_{T-1} + theta_T) / T,    mean_1 = theta_1,

so no snapshot history is kept. Momentum and per-iteration EMA variants are
provided as baselines, plus a classic boosting-style weighted combination for
the labeled-oracle ablation (weights log((1-e)/e)/2, normalized to sum 1).
``Aggregator`` owns the choice between them for one run.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

AGGREGATIONS = ("running-mean", "momentum", "ema", "oracle-alpha", "none")


def update_running_mean(mean: np.ndarray, params: np.ndarray, t: int) -> np.ndarray:
    """The mean of ``t`` snapshots from ``mean``, that of the first t - 1,
    and ``params``, the t-th."""
    return ((t - 1) * mean + params) / t


def update_momentum(mean: np.ndarray, params: np.ndarray, momentum: float) -> np.ndarray:
    """Fixed-coefficient blend: mean <- m * mean + (1 - m) * theta."""
    if not 0.0 < momentum < 1.0:
        raise ValueError("momentum must be in (0, 1)")
    return momentum * mean + (1.0 - momentum) * params


def update_ema(mean: np.ndarray, params: np.ndarray, decay: float) -> np.ndarray:
    """Per-iteration exponential moving average (teacher-style baseline)."""
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must be in (0, 1)")
    return decay * mean + (1.0 - decay) * params


def adaboost_alpha(error: float) -> float:
    """Classic boosting weight log((1 - e) / e) / 2 for weighted error e."""
    if not 0.0 < error < 1.0:
        raise ValueError("error must be strictly inside (0, 1)")
    return float(0.5 * np.log((1.0 - error) / error))


def weighted_combine(snapshots: Sequence[np.ndarray], alphas: Sequence[float]) -> np.ndarray:
    """Alpha-weighted parameter combination, alphas normalized to sum 1."""
    if len(snapshots) == 0:
        raise ValueError("no snapshots to combine")
    if len(snapshots) != len(alphas):
        raise ValueError(
            f"{len(snapshots)} snapshots but {len(alphas)} alphas"
        )
    a = np.asarray(alphas, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("alphas must be finite")
    total = a.sum()
    if total <= 0.0:
        raise ValueError("alphas must sum to a positive value")
    a = a / total
    out = np.zeros_like(snapshots[0])
    for weight, snap in zip(a, snapshots):
        out = out + weight * snap
    return out


class Aggregator:
    """One run's aggregation policy, one of ``AGGREGATIONS``: the
    training loop calls ``after_step`` after every adaptation iteration and
    ``after_epoch`` at every epoch end. ``params`` is the aggregate, which
    starts as a copy of the student entering adaptation (the EMA teacher's
    start), and ``count`` the number of models folded into it, the
    aggregate file's sequence field; ``snapshots`` holds every epoch's
    student."""

    def __init__(self, policy: str, start_params: np.ndarray, momentum: float, ema_decay: float):
        if policy not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {policy!r}; known: {AGGREGATIONS}")
        self.policy = policy
        self.momentum = momentum
        self.ema_decay = ema_decay
        self.params = start_params.copy()
        self.count = 1
        self.snapshots: list[np.ndarray] = []
        self._errors: list[float] = []

    def after_step(self, params: np.ndarray) -> None:
        if self.policy == "ema":
            self.params = update_ema(self.params, params, self.ema_decay)
            self.count += 1

    def after_epoch(self, params: np.ndarray, heldout_error: Callable[[], float]) -> np.ndarray:
        """Fold in the student's epoch-end snapshot ``params``; return the
        aggregate parameters. ``heldout_error()`` is the student's labeled
        target error, asked for under ``oracle-alpha`` only."""
        self.snapshots.append(params)
        t = len(self.snapshots)
        if self.policy == "ema":
            return self.params
        if self.policy == "oracle-alpha":
            self._errors.append(float(np.clip(heldout_error(), 1e-6, 1.0 - 1e-6)))
        if self.policy == "none" or t == 1:
            self.params = params
        elif self.policy == "running-mean":
            self.params = update_running_mean(self.params, params, t)
        elif self.policy == "momentum":
            self.params = update_momentum(self.params, params, self.momentum)
        elif self.policy == "oracle-alpha":
            alphas = [adaboost_alpha(e) for e in self._errors]
            if min(alphas) <= 0.0:
                # boosting weights degenerate when a snapshot is no better
                # than chance; fall back to the plain mean
                alphas = [1.0] * t
            self.params = weighted_combine(self.snapshots, alphas)
        self.count = t
        return self.params
