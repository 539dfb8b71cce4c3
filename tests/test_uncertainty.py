"""Uncertainty scoring against brute-force double-loop oracles."""

import numpy as np
import pytest

from boostadapt.model import ModelConfig, TwoHeadModel, fuse_predictions
from boostadapt.numerics import kl_pointwise, softmax
from boostadapt.uncertainty import (
    ScoreVector,
    entropy_image,
    kl_variance_image,
    normalize_scores,
    score_dataset,
)

from helpers import random_image, small_model_config


def brute_force_kl_image(primary, aux):
    """Independent oracle: explicit loops over pixels and classes."""
    h, w, c = primary.shape
    total = 0.0
    for y in range(h):
        for x in range(w):
            for k in range(c):
                p = primary[y, x, k]
                q = max(aux[y, x, k], 1e-12)
                if p > 0.0:
                    total += p * np.log(p / q)
    return total / (h * w)


def brute_force_entropy_image(primary):
    h, w, c = primary.shape
    total = 0.0
    for y in range(h):
        for x in range(w):
            for k in range(c):
                p = primary[y, x, k]
                if p > 0.0:
                    total -= p * np.log(p)
    return total / (h * w)


class TestImageScores:
    def test_kl_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            primary = rng.dirichlet(np.ones(4), size=(5, 6))
            aux = rng.dirichlet(np.ones(4), size=(5, 6))
            np.testing.assert_allclose(
                kl_variance_image(primary, aux),
                brute_force_kl_image(primary, aux),
                rtol=0,
                atol=1e-10,
            )

    def test_entropy_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            primary = rng.dirichlet(np.ones(5), size=(4, 4))
            np.testing.assert_allclose(
                entropy_image(primary),
                brute_force_entropy_image(primary),
                rtol=0,
                atol=1e-10,
            )

    def test_agreeing_heads_score_zero(self):
        rng = np.random.default_rng(2)
        p = rng.dirichlet(np.ones(3), size=(4, 4))
        assert kl_variance_image(p, p) == 0.0

    def test_kl_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(4), size=(3, 3))
            q = rng.dirichlet(np.ones(4), size=(3, 3))
            assert kl_variance_image(p, q) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_variance_image(np.ones((2, 2, 3)) / 3, np.ones((2, 3, 3)) / 3)


class TestScoreVector:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScoreVector(values=np.array([0.1, -0.2]), criterion="kl-variance")
        with pytest.raises(ValueError):
            ScoreVector(values=np.array([0.1, np.nan]), criterion="kl-variance")
        with pytest.raises(ValueError):
            ScoreVector(values=np.array([0.1]), criterion="bogus")


class TestScoreDataset:
    def test_matches_per_image_calls(self):
        cfg = ModelConfig(classes=3)
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(4)
        params = model.init_params(0)
        images = [random_image(rng, cfg) for _ in range(model.chunk + 3)]
        for criterion in ("kl-variance", "entropy"):
            sv = score_dataset(model, params, images, criterion)
            assert sv.criterion == criterion
            for i, image in enumerate(images):
                primary, aux = model.forward(params, image)
                want = (
                    kl_variance_image(primary, aux)
                    if criterion == "kl-variance"
                    else entropy_image(primary)
                )
                assert sv.values[i] == want
                assert np.array_equal(
                    sv.predicted[i], np.argmax(fuse_predictions(primary, aux), axis=-1)
                )

    def test_rejects_unknown_criterion_and_empty(self):
        model = TwoHeadModel(small_model_config())
        params = model.init_params(0)
        with pytest.raises(ValueError):
            score_dataset(model, params, [], "kl-variance")
        with pytest.raises(ValueError):
            score_dataset(model, params, [np.zeros((6, 5, 3))], "variance")


class TestNormalizeScores:
    def test_plain_softmax_at_unit_temperature(self):
        rng = np.random.default_rng(6)
        scores = rng.uniform(0, 2, 10)
        np.testing.assert_allclose(normalize_scores(scores), softmax(scores), atol=1e-15)

    def test_valid_distribution(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            out = normalize_scores(rng.uniform(0, 5, int(rng.integers(2, 30))))
            assert np.all(out > 0)
            np.testing.assert_allclose(out.sum(), 1.0, atol=1e-12)

    def test_equal_scores_give_uniform(self):
        out = normalize_scores(np.full(8, 0.37))
        np.testing.assert_allclose(out, np.full(8, 1 / 8), atol=1e-15)

    def test_temperature_flattens(self):
        scores = np.array([0.0, 1.0, 2.0])
        hot = normalize_scores(scores, temperature=10.0)
        cold = normalize_scores(scores, temperature=0.1)
        assert hot.max() - hot.min() < cold.max() - cold.min()
        with pytest.raises(ValueError):
            normalize_scores(scores, temperature=0.0)

    def test_accepts_score_vector(self):
        sv = ScoreVector(values=np.array([0.1, 0.4]), criterion="entropy")
        np.testing.assert_allclose(normalize_scores(sv), softmax(sv.values), atol=1e-15)
