"""Snapshot aggregation: online mean vs batch oracle, baselines, boosting weights."""

import numpy as np
import pytest

from boostadapt import paramio
from boostadapt.aggregator import (
    AggregateState,
    Snapshot,
    adaboost_alpha,
    init,
    save_aggregate,
    update_ema,
    update_momentum,
    update_running_mean,
    weighted_combine,
)


def make_snapshots(rng, count, dim):
    return [Snapshot(params=rng.normal(0, 1, dim), epoch=t) for t in range(1, count + 1)]


class TestRunningMean:
    def test_matches_batch_mean_every_prefix(self):
        # oracle: direct summation mean over the first t snapshots
        rng = np.random.default_rng(0)
        for trial in range(20):
            dim = int(rng.integers(3, 50))
            snaps = make_snapshots(rng, int(rng.integers(2, 30)), dim)
            state = init(snaps[0])
            for t, snap in enumerate(snaps[1:], start=2):
                state = update_running_mean(state, snap)
                batch = np.sum([s.params for s in snaps[:t]], axis=0) / t
                err = np.abs(state.mean_params - batch) / np.maximum(np.abs(batch), 1e-12)
                assert err.max() < 1e-12
                assert state.count == t

    def test_single_snapshot_is_identity(self):
        rng = np.random.default_rng(1)
        snap = Snapshot(params=rng.normal(0, 1, 7), epoch=1)
        state = init(snap)
        np.testing.assert_array_equal(state.mean_params, snap.params)
        assert state.count == 1

    def test_init_requires_first_epoch(self):
        with pytest.raises(ValueError):
            init(Snapshot(params=np.zeros(3), epoch=2))

    def test_epoch_order_enforced(self):
        rng = np.random.default_rng(2)
        snaps = make_snapshots(rng, 3, 4)
        state = init(snaps[0])
        with pytest.raises(ValueError):
            update_running_mean(state, snaps[2])  # skipped epoch 2

    def test_length_mismatch(self):
        state = init(Snapshot(params=np.zeros(3), epoch=1))
        with pytest.raises(ValueError):
            update_running_mean(state, Snapshot(params=np.zeros(4), epoch=2))


class TestBaselines:
    def test_momentum_blend(self):
        rng = np.random.default_rng(3)
        snaps = make_snapshots(rng, 5, 6)
        for m in (0.9, 0.5):
            state = init(snaps[0])
            expected = snaps[0].params.copy()
            for snap in snaps[1:]:
                state = update_momentum(state, snap, m)
                expected = m * expected + (1 - m) * snap.params
                np.testing.assert_allclose(state.mean_params, expected, atol=1e-12)

    def test_momentum_range(self):
        state = init(Snapshot(params=np.zeros(3), epoch=1))
        snap = Snapshot(params=np.ones(3), epoch=2)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                update_momentum(state, snap, bad)

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
        expected = (2 * snaps[0].params + snaps[1].params + snaps[2].params) / 4
        np.testing.assert_allclose(out1, expected, atol=1e-12)

    def test_equal_alphas_give_plain_mean(self):
        rng = np.random.default_rng(6)
        snaps = make_snapshots(rng, 4, 5)
        out = weighted_combine(snaps, [1.0] * 4)
        np.testing.assert_allclose(out, np.mean([s.params for s in snaps], axis=0), atol=1e-12)

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
        state = init(Snapshot(params=rng.normal(0, 1, 33), epoch=1))
        path = str(tmp_path / "agg.abst")
        save_aggregate(path, state)
        loaded = paramio.load_file(path)
        assert loaded.role == paramio.ROLE_AGGREGATE
        assert loaded.seq == state.count
        np.testing.assert_array_equal(
            loaded.params.view(np.uint64), state.mean_params.view(np.uint64)
        )
