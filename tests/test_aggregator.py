"""Snapshot aggregation: online mean vs batch oracle, baselines, boosting weights."""

import re
from pathlib import Path

import numpy as np
import pytest

import boostadapt
from boostadapt.aggregator import (
    Aggregator,
    adaboost_alpha,
    update_ema,
    update_momentum,
    update_running_mean,
    weighted_combine,
)
from boostadapt.config import AGGREGATIONS


def make_snapshots(rng, count, dim):
    return [rng.normal(0, 1, dim) for _ in range(count)]


class TestRunningMean:
    def test_matches_batch_mean_every_prefix(self):
        # oracle: direct summation mean over the first t snapshots
        rng = np.random.default_rng(0)
        for trial in range(20):
            dim = int(rng.integers(3, 50))
            snaps = make_snapshots(rng, int(rng.integers(2, 30)), dim)
            mean = snaps[0]
            for t, snap in enumerate(snaps[1:], start=2):
                mean = update_running_mean(mean, snap, t)
                batch = np.sum(snaps[:t], axis=0) / t
                err = np.abs(mean - batch) / np.maximum(np.abs(batch), 1e-12)
                assert err.max() < 1e-12

    def test_single_snapshot_is_identity(self):
        rng = np.random.default_rng(1)
        snap = rng.normal(0, 1, 7)
        agg = Aggregator("running-mean", np.zeros(7), momentum=0.5, ema_decay=0.5)
        assert agg.after_epoch(snap, lambda: 0.5) is snap
        assert agg.params is snap and agg.count == 1


class TestBaselines:
    def test_momentum_blend(self):
        rng = np.random.default_rng(3)
        snaps = make_snapshots(rng, 5, 6)
        for m in (0.9, 0.5):
            mean = snaps[0]
            expected = snaps[0].copy()
            for snap in snaps[1:]:
                mean = update_momentum(mean, snap, m)
                expected = m * expected + (1 - m) * snap
                np.testing.assert_allclose(mean, expected, atol=1e-12)

    def test_momentum_range(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                update_momentum(np.zeros(3), np.ones(3), bad)

    def test_ema_range(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                update_ema(np.zeros(3), np.ones(3), bad)

    def test_ema_recurrence(self):
        rng = np.random.default_rng(4)
        mean = rng.normal(0, 1, 5)
        expected = mean.copy()
        for _ in range(20):
            p = rng.normal(0, 1, 5)
            mean = update_ema(mean, p, 0.99)
            expected = 0.99 * expected + 0.01 * p
            np.testing.assert_allclose(mean, expected, atol=1e-12)

    def test_ema_constant_stream_converges(self):
        target = np.full(4, 2.5)
        mean = np.zeros(4)
        for _ in range(2000):
            mean = update_ema(mean, target, 0.99)
        np.testing.assert_allclose(mean, target, atol=1e-6)


class TestBoostingWeights:
    def test_known_values(self):
        assert adaboost_alpha(0.5) == 0.0
        # log(3)/2 frozen from an independent evaluation
        np.testing.assert_allclose(adaboost_alpha(0.25), 0.5493061443340549, atol=1e-15)

    def test_monotone_decreasing_in_error(self):
        errors = np.linspace(0.01, 0.99, 60)
        alphas = [adaboost_alpha(e) for e in errors]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                adaboost_alpha(bad)

    def test_weighted_combine_normalizes(self):
        rng = np.random.default_rng(5)
        snaps = make_snapshots(rng, 3, 8)
        # scaling all alphas by a constant changes nothing
        a = [2.0, 1.0, 1.0]
        out1 = weighted_combine(snaps, a)
        out2 = weighted_combine(snaps, [x * 7.5 for x in a])
        np.testing.assert_allclose(out1, out2, atol=1e-12)
        expected = (2 * snaps[0] + snaps[1] + snaps[2]) / 4
        np.testing.assert_allclose(out1, expected, atol=1e-12)

    def test_equal_alphas_give_plain_mean(self):
        rng = np.random.default_rng(6)
        snaps = make_snapshots(rng, 4, 5)
        out = weighted_combine(snaps, [1.0] * 4)
        np.testing.assert_allclose(out, np.mean(snaps, axis=0), atol=1e-12)

    def test_degenerate_alphas_rejected(self):
        rng = np.random.default_rng(7)
        snaps = make_snapshots(rng, 2, 3)
        with pytest.raises(ValueError):
            weighted_combine(snaps, [1.0])
        with pytest.raises(ValueError):
            weighted_combine(snaps, [0.0, 0.0])
        with pytest.raises(ValueError):
            weighted_combine([], [])


def reference_states(policy, start, epochs, errors, momentum, decay):
    """The per-epoch (aggregate, count) the module functions give, chained
    by hand: the oracle for ``Aggregator``."""
    mean, count = start.copy(), 1
    snaps, out = [], []
    for t, steps in enumerate(epochs, start=1):
        for p in steps:
            if policy == "ema":
                mean, count = update_ema(mean, p, decay), count + 1
        snap = steps[-1].copy()
        snaps.append(snap)
        if policy == "running-mean":
            mean, count = (snap if t == 1 else update_running_mean(mean, snap, t)), t
        elif policy == "momentum":
            mean, count = (snap if t == 1 else update_momentum(mean, snap, momentum)), t
        elif policy == "oracle-alpha":
            alphas = [adaboost_alpha(e) for e in errors[:t]]
            if min(alphas) <= 0.0:
                alphas = [1.0] * t
            mean, count = weighted_combine(snaps, alphas), t
        elif policy == "none":
            mean, count = snap, t
        out.append((mean, count))
    return out


class TestAggregator:
    # epochs 1-2 get boosting weights; epoch 3's error is worse than chance,
    # so its combination falls back to the plain mean
    ERRORS = (0.3, 0.2, 0.7)

    def _run(self, policy, rng):
        start = rng.normal(0, 1, 6)
        epochs = [[rng.normal(0, 1, 6) for _ in range(4)] for _ in self.ERRORS]
        agg = Aggregator(policy, start, momentum=0.7, ema_decay=0.9)
        asked, states = [], []
        for t, steps in enumerate(epochs, start=1):
            for p in steps:
                agg.after_step(p)

            def heldout_error(t=t):
                asked.append(t)
                return self.ERRORS[t - 1]

            params = agg.after_epoch(steps[-1].copy(), heldout_error)
            assert params is agg.params
            states.append((agg.params, agg.count))
        want = reference_states(policy, start, epochs, self.ERRORS, 0.7, 0.9)
        return agg, states, want, asked

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_matches_the_module_function_chain(self, policy):
        agg, states, want, _ = self._run(policy, np.random.default_rng(9))
        for (got, count), (ref, ref_count) in zip(states, want, strict=True):
            assert np.array_equal(got, ref)
            assert count == ref_count
        assert len(agg.snapshots) == 3

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_heldout_error_asked_once_per_epoch_under_oracle_alpha_only(self, policy):
        _, _, _, asked = self._run(policy, np.random.default_rng(10))
        assert asked == ([1, 2, 3] if policy == "oracle-alpha" else [])

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_starts_as_a_copy_of_the_student(self, policy):
        start = np.random.default_rng(11).normal(0, 1, 5)
        agg = Aggregator(policy, start, momentum=0.5, ema_decay=0.5)
        assert np.array_equal(agg.params, start) and agg.count == 1
        assert agg.params is not start
        assert agg.snapshots == []

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_hands_back_the_snapshot_itself_only_when_it_is_the_aggregate(self, policy):
        # an aggregate that is the snapshot is held without a copy
        rng = np.random.default_rng(12)
        agg = Aggregator(policy, rng.normal(0, 1, 6), momentum=0.7, ema_decay=0.9)
        held = []
        for error in self.ERRORS:
            snap = rng.normal(0, 1, 6)
            agg.after_step(snap)
            params = agg.after_epoch(snap, lambda error=error: error)
            held.append(params is snap)
        expected = {"none": [True] * 3, "running-mean": [True, False, False]}
        expected["momentum"] = expected["oracle-alpha"] = expected["running-mean"]
        assert held == expected.get(policy, [False] * 3)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            Aggregator("median", np.zeros(3), momentum=0.5, ema_decay=0.5)

    def test_harness_leaves_the_policy_to_aggregator(self):
        # run_experiment hands cfg.aggregation to Aggregator and never
        # branches on it or calls an update rule itself
        source = (Path(boostadapt.__file__).parent / "harness.py").read_text()
        pattern = (
            r"cfg\.aggregation\s*(==|!=|in\b|not\b)"
            r"|update_ema|update_momentum|update_running_mean|adaboost_alpha|weighted_combine"
        )
        assert re.findall(pattern, source) == []
