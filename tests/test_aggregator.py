"""Snapshot aggregation: online mean vs batch oracle, baselines, boosting weights."""

import re
from pathlib import Path

import numpy as np
import pytest

import boostadapt
from boostadapt import paramio
from boostadapt.aggregator import (
    AggregateState,
    Aggregator,
    adaboost_alpha,
    save_aggregate,
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
            state = AggregateState(snaps[0], 1)
            for t, snap in enumerate(snaps[1:], start=2):
                state = update_running_mean(state, snap)
                batch = np.sum(snaps[:t], axis=0) / t
                err = np.abs(state.mean_params - batch) / np.maximum(np.abs(batch), 1e-12)
                assert err.max() < 1e-12
                assert state.count == t

    def test_single_snapshot_is_identity(self):
        rng = np.random.default_rng(1)
        snap = rng.normal(0, 1, 7)
        agg = Aggregator("running-mean", np.zeros(7), momentum=0.5, ema_decay=0.5)
        assert agg.after_epoch(snap, lambda: 0.5) is snap
        assert agg.state.count == 1

    def test_length_mismatch(self):
        state = AggregateState(np.zeros(3), 1)
        updates = (
            lambda p: update_running_mean(state, p),
            lambda p: update_momentum(state, p, 0.5),
            lambda p: update_ema(state, p, 0.5),
        )
        for update in updates:
            for bad in (np.zeros(4), np.zeros((3, 1))):
                with pytest.raises(ValueError, match="does not match"):
                    update(bad)

    def test_aggregate_is_a_vector_of_at_least_one_snapshot(self):
        # with the epoch gone from a snapshot, these checks and the shape
        # check are what an aggregate still enforces on its inputs
        with pytest.raises(ValueError, match="1-d vector"):
            AggregateState(np.zeros((3, 1)), 1)
        with pytest.raises(ValueError, match="count must be"):
            AggregateState(np.zeros(3), 0)


class TestBaselines:
    def test_momentum_blend(self):
        rng = np.random.default_rng(3)
        snaps = make_snapshots(rng, 5, 6)
        for m in (0.9, 0.5):
            state = AggregateState(snaps[0], 1)
            expected = snaps[0].copy()
            for snap in snaps[1:]:
                state = update_momentum(state, snap, m)
                expected = m * expected + (1 - m) * snap
                np.testing.assert_allclose(state.mean_params, expected, atol=1e-12)

    def test_momentum_range(self):
        state = AggregateState(np.zeros(3), 1)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                update_momentum(state, np.ones(3), bad)

    def test_ema_recurrence(self):
        rng = np.random.default_rng(4)
        state = AggregateState(mean_params=rng.normal(0, 1, 5), count=1)
        expected = state.mean_params.copy()
        for _ in range(20):
            p = rng.normal(0, 1, 5)
            state = update_ema(state, p, 0.99)
            expected = 0.99 * expected + 0.01 * p
            np.testing.assert_allclose(state.mean_params, expected, atol=1e-12)

    def test_ema_constant_stream_converges(self):
        target = np.full(4, 2.5)
        state = AggregateState(mean_params=np.zeros(4), count=1)
        for _ in range(2000):
            state = update_ema(state, target, 0.99)
        np.testing.assert_allclose(state.mean_params, target, atol=1e-6)


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


class TestSerialization:
    def test_aggregate_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        state = AggregateState(rng.normal(0, 1, 33), 1)
        path = str(tmp_path / "agg.abst")
        save_aggregate(path, state)
        loaded = paramio.load_file(path)
        assert loaded.role == paramio.ROLE_AGGREGATE
        assert loaded.seq == state.count
        np.testing.assert_array_equal(
            loaded.params.view(np.uint64), state.mean_params.view(np.uint64)
        )


def reference_states(policy, start, epochs, errors, momentum, decay):
    """The per-epoch aggregate states the module functions give, chained by
    hand: the oracle for ``Aggregator``."""
    state = AggregateState(mean_params=start.copy(), count=1)
    snaps, out = [], []
    for t, steps in enumerate(epochs, start=1):
        for p in steps:
            if policy == "ema":
                state = update_ema(state, p, decay)
        snap = steps[-1].copy()
        snaps.append(snap)
        if policy == "running-mean":
            state = AggregateState(snap, 1) if t == 1 else update_running_mean(state, snap)
        elif policy == "momentum":
            state = AggregateState(snap, 1) if t == 1 else update_momentum(state, snap, momentum)
        elif policy == "oracle-alpha":
            alphas = [adaboost_alpha(e) for e in errors[:t]]
            if min(alphas) <= 0.0:
                alphas = [1.0] * t
            state = AggregateState(weighted_combine(snaps, alphas), t)
        elif policy == "none":
            state = AggregateState(snap, t)
        out.append(state)
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
            assert params is agg.state.mean_params
            states.append(agg.state)
        want = reference_states(policy, start, epochs, self.ERRORS, 0.7, 0.9)
        return agg, states, want, asked

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_matches_the_module_function_chain(self, policy):
        agg, states, want, _ = self._run(policy, np.random.default_rng(9))
        for got, ref in zip(states, want, strict=True):
            assert np.array_equal(got.mean_params, ref.mean_params)
            assert got.count == ref.count
        assert len(agg.snapshots) == 3

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_heldout_error_asked_once_per_epoch_under_oracle_alpha_only(self, policy):
        _, _, _, asked = self._run(policy, np.random.default_rng(10))
        assert asked == ([1, 2, 3] if policy == "oracle-alpha" else [])

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_starts_as_a_copy_of_the_student(self, policy):
        start = np.random.default_rng(11).normal(0, 1, 5)
        agg = Aggregator(policy, start, momentum=0.5, ema_decay=0.5)
        assert np.array_equal(agg.state.mean_params, start) and agg.state.count == 1
        assert agg.state.mean_params is not start
        assert agg.snapshots == []

    @pytest.mark.parametrize("policy", AGGREGATIONS)
    def test_hands_back_the_snapshot_itself_only_when_it_is_the_aggregate(self, policy):
        # the harness gives the aggregate the student's id on this identity
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
