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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import paramio
from .config import AGGREGATIONS


@dataclass(frozen=True)
class Snapshot:
    """Student parameters captured at the end of epoch ``epoch`` (1-based)."""

    params: np.ndarray
    epoch: int

    def __post_init__(self) -> None:
        if self.params.ndim != 1:
            raise ValueError("snapshot params must be a 1-d vector")
        if self.epoch < 1:
            raise ValueError("epoch index starts at 1")


@dataclass(frozen=True)
class AggregateState:
    mean_params: np.ndarray
    count: int

    def __post_init__(self) -> None:
        if self.mean_params.ndim != 1:
            raise ValueError("aggregate params must be a 1-d vector")
        if self.count < 1:
            raise ValueError("count must be >= 1")


def init(first: Snapshot) -> AggregateState:
    """Aggregate of a single snapshot, holding its very array; must be the
    epoch-1 snapshot."""
    if first.epoch != 1:
        raise ValueError(f"aggregation starts at epoch 1, got epoch {first.epoch}")
    return AggregateState(mean_params=first.params, count=1)


def _check_next(state: AggregateState, snap: Snapshot) -> None:
    if snap.params.shape != state.mean_params.shape:
        raise ValueError(
            f"snapshot length {snap.params.shape} does not match aggregate "
            f"{state.mean_params.shape}"
        )
    if snap.epoch != state.count + 1:
        raise ValueError(
            f"snapshots must arrive in epoch order: have {state.count}, "
            f"got epoch {snap.epoch}"
        )


def update_running_mean(state: AggregateState, snap: Snapshot) -> AggregateState:
    """Online running mean over all snapshots so far."""
    _check_next(state, snap)
    t = state.count + 1
    mean = ((t - 1) * state.mean_params + snap.params) / t
    return AggregateState(mean_params=mean, count=t)


def update_momentum(state: AggregateState, snap: Snapshot, momentum: float) -> AggregateState:
    """Fixed-coefficient blend: mean <- m * mean + (1 - m) * theta."""
    if not 0.0 < momentum < 1.0:
        raise ValueError("momentum must be in (0, 1)")
    _check_next(state, snap)
    mean = momentum * state.mean_params + (1.0 - momentum) * snap.params
    return AggregateState(mean_params=mean, count=state.count + 1)


def update_ema(state: AggregateState, params: np.ndarray, decay: float) -> AggregateState:
    """Per-iteration exponential moving average (teacher-style baseline)."""
    if not 0.0 < decay < 1.0:
        raise ValueError("decay must be in (0, 1)")
    if params.shape != state.mean_params.shape:
        raise ValueError("parameter length does not match aggregate")
    mean = decay * state.mean_params + (1.0 - decay) * params
    return AggregateState(mean_params=mean, count=state.count + 1)


def adaboost_alpha(error: float) -> float:
    """Classic boosting weight log((1 - e) / e) / 2 for weighted error e."""
    if not 0.0 < error < 1.0:
        raise ValueError("error must be strictly inside (0, 1)")
    return float(0.5 * np.log((1.0 - error) / error))


def weighted_combine(snapshots: Sequence[Snapshot], alphas: Sequence[float]) -> np.ndarray:
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
    out = np.zeros_like(snapshots[0].params)
    for weight, snap in zip(a, snapshots):
        out = out + weight * snap.params
    return out


class Aggregator:
    """One run's aggregation policy, one of ``config.AGGREGATIONS``: the
    training loop calls ``after_step`` after every adaptation iteration and
    ``after_epoch`` at every epoch end. ``state`` starts as a copy of the
    student entering adaptation (the EMA teacher's start); ``snapshots``
    holds every epoch's."""

    def __init__(self, policy: str, start_params: np.ndarray, momentum: float, ema_decay: float):
        if policy not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {policy!r}; known: {AGGREGATIONS}")
        self.policy = policy
        self.momentum = momentum
        self.ema_decay = ema_decay
        self.state = AggregateState(mean_params=start_params.copy(), count=1)
        self.snapshots: list[Snapshot] = []
        self._errors: list[float] = []

    def after_step(self, params: np.ndarray) -> None:
        if self.policy == "ema":
            self.state = update_ema(self.state, params, self.ema_decay)

    def after_epoch(self, snap: Snapshot, heldout_error: Callable[[], float]) -> np.ndarray:
        """Fold in the epoch's snapshot; return the aggregate parameters,
        the snapshot's own array when the aggregate is that snapshot.
        ``heldout_error()`` is the student's labeled target error, asked for
        under ``oracle-alpha`` only."""
        self.snapshots.append(snap)
        if self.policy == "running-mean":
            self.state = init(snap) if snap.epoch == 1 else update_running_mean(self.state, snap)
        elif self.policy == "momentum":
            self.state = (
                init(snap) if snap.epoch == 1 else update_momentum(self.state, snap, self.momentum)
            )
        elif self.policy == "oracle-alpha":
            self._errors.append(float(np.clip(heldout_error(), 1e-6, 1.0 - 1e-6)))
            alphas = [adaboost_alpha(e) for e in self._errors]
            if min(alphas) <= 0.0:
                # boosting weights degenerate when a snapshot is no better
                # than chance; fall back to the plain mean
                alphas = [1.0] * len(self.snapshots)
            # one snapshot's normalized weight is 1, so the epoch-1 aggregate
            # is the snapshot itself and keeps the student's lineage
            self.state = (
                init(snap)
                if snap.epoch == 1
                else AggregateState(weighted_combine(self.snapshots, alphas), snap.epoch)
            )
        elif self.policy == "none":
            self.state = AggregateState(snap.params, snap.epoch)
        return self.state.mean_params


def save_aggregate(path: str, state: AggregateState) -> None:
    paramio.save_snapshot(path, state.mean_params, paramio.ROLE_AGGREGATE, state.count)
