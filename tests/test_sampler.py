"""Sampling distribution: invariants, closed-form blending, draw statistics."""

import numpy as np
import pytest

from boostadapt.sampler import SampleDistribution, draw, init_uniform, update


class TestInit:
    def test_uniform_exact(self):
        d = init_uniform(10)
        np.testing.assert_array_equal(d.weights, np.full(10, 0.1))
        assert len(d) == 10

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            init_uniform(0)


class TestUpdate:
    def test_halfway_blend(self):
        d = init_uniform(4)
        scores = np.array([0.7, 0.1, 0.1, 0.1])
        d2 = update(d, scores)
        np.testing.assert_allclose(d2.weights, 0.5 * (d.weights + scores), atol=1e-12)

    def test_sum_preserved_over_many_updates(self):
        # renormalization after every update keeps the simplex invariant
        rng = np.random.default_rng(0)
        d = init_uniform(64)
        for _ in range(1000):
            d = update(d, rng.dirichlet(np.ones(64)))
            np.testing.assert_allclose(d.weights.sum(), 1.0, atol=1e-12)
            assert np.all(d.weights >= 0.0)

    def test_repeated_scores_converge_geometrically(self):
        # after k blends with a fixed score vector s:
        #   D_k = (1/2)^k * D_1 + (1 - (1/2)^k) * s
        rng = np.random.default_rng(1)
        s = rng.dirichlet(np.ones(12))
        d = init_uniform(12)
        for k in range(1, 30):
            d = update(d, s)
            expected = 0.5**k * np.full(12, 1 / 12) + (1 - 0.5**k) * s
            np.testing.assert_allclose(d.weights, expected, rtol=0, atol=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            update(init_uniform(4), np.full(5, 0.2))

    def test_rejects_unnormalized_scores(self):
        with pytest.raises(ValueError):
            update(init_uniform(4), np.full(4, 0.3))
        with pytest.raises(ValueError):
            update(init_uniform(4), np.array([1.2, -0.2, 0.0, 0.0]))

    def test_accepts_scores_within_tolerance(self):
        scores = np.full(4, 0.25)
        scores[0] += 5e-7  # inside the 1e-6 budget
        d = update(init_uniform(4), scores)
        np.testing.assert_allclose(d.weights.sum(), 1.0, atol=1e-12)


class TestDistributionValidation:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            SampleDistribution(weights=np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SampleDistribution(weights=np.array([0.6, 0.6]))


class TestDraw:
    def test_in_range_and_deterministic(self):
        d = init_uniform(17)
        idx1 = draw(d, np.random.default_rng(42), 1000)
        idx2 = draw(d, np.random.default_rng(42), 1000)
        np.testing.assert_array_equal(idx1, idx2)
        assert idx1.min() >= 0 and idx1.max() < 17

    def test_degenerate_distribution(self):
        w = np.zeros(6)
        w[3] = 1.0
        d = SampleDistribution(weights=w)
        idx = draw(d, np.random.default_rng(0), 200)
        assert np.all(idx == 3)

    def test_zero_weight_never_drawn(self):
        w = np.array([0.5, 0.0, 0.5, 0.0])
        d = SampleDistribution(weights=w)
        idx = draw(d, np.random.default_rng(1), 2000)
        assert not np.any(idx == 1)
        assert not np.any(idx == 3)

    def test_empirical_frequency_tracks_weights(self):
        rng = np.random.default_rng(2)
        w = np.array([0.5, 0.25, 0.125, 0.125])
        d = SampleDistribution(weights=w)
        idx = draw(d, rng, 200_000)
        freq = np.bincount(idx, minlength=4) / idx.size
        np.testing.assert_allclose(freq, w, atol=5e-3)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            draw(init_uniform(3), np.random.default_rng(0), 0)
