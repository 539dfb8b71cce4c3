"""Regularizer hooks: contract shape, the one builder, gradient checks."""

import numpy as np
import pytest

from boostadapt.config import REGULARIZERS
from boostadapt.errors import DivergenceError
from boostadapt.model import TwoHeadModel, fuse_predictions
from boostadapt.numerics import entropy, finite_difference_gradient
from boostadapt.regularizers import KINDS, make_regularizer

from helpers import max_rel_error, random_image, small_model_config


def empty_stack(model):
    c = model.config
    return np.empty((0, c.height, c.width, c.features))


class TestEntropyMinHook:
    def test_loss_matches_direct_entropy(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(1)
        params = model.init_params(1)
        images = np.stack([random_image(rng, cfg) for _ in range(3)])
        weight = 0.7
        hook = make_regularizer(model, "entropy-min", weight)
        loss, _ = hook(params, images)
        expected = 0.0
        for i in range(len(images)):
            primary, _ = model.forward(params, images[i : i + 1])
            expected += weight * float(np.mean(entropy(primary))) / len(images)
        np.testing.assert_allclose(loss, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        cfg = small_model_config(height=4, width=4)
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(2)
        hook = make_regularizer(model, "entropy-min", 0.5)
        for trial in range(3):
            params = model.init_params(trial)
            images = np.stack([random_image(rng, cfg) for _ in range(2)])
            _, grad = hook(params, images)
            fd = finite_difference_gradient(
                lambda p: hook(p, images)[0], params, eps=1e-5
            )
            assert max_rel_error(grad, fd) < 1e-4


class TestSelfTrainingHook:
    def test_loss_is_ce_against_fused_argmax(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(3)
        params = model.init_params(3)
        images = np.stack([random_image(rng, cfg) for _ in range(3)])
        weight = 0.6
        hook = make_regularizer(model, "self-training", weight)
        loss, _ = hook(params, images)
        expected = 0.0
        for i in range(len(images)):
            primary, aux = model.forward(params, images[i : i + 1])
            labels = np.argmax(fuse_predictions(primary, aux), axis=-1)
            flat_p = primary.reshape(-1, cfg.classes)
            picked = flat_p[np.arange(flat_p.shape[0]), labels.ravel()]
            expected += -weight * float(np.mean(np.log(picked))) / len(images)
        np.testing.assert_allclose(loss, expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        # pseudo-labels are recomputed per call; at generic parameters the
        # fused argmax is stable under the 1e-5 probe so the piecewise-constant
        # label term does not disturb the finite-difference comparison
        cfg = small_model_config(height=4, width=4)
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(4)
        hook = make_regularizer(model, "self-training", 0.8)
        for trial in range(3):
            params = model.init_params(10 + trial)
            images = np.stack([random_image(rng, cfg) for _ in range(2)])
            _, grad = hook(params, images)
            fd = finite_difference_gradient(
                lambda p: hook(p, images)[0], params, eps=1e-5
            )
            assert max_rel_error(grad, fd) < 1e-4

    def test_loss_bounded_below_by_primary_confidence(self):
        # picked prob <= max prob per pixel, so the term can never undercut
        # the confidence bound; it is also non-negative
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(5)
        image = random_image(rng, cfg)
        hook = make_regularizer(model, "self-training", 1.0)
        params = model.init_params(0)
        loss, _ = hook(params, image[None])
        primary, aux = model.forward(params, image[None])
        labels = np.argmax(fuse_predictions(primary, aux), axis=-1)
        flat_p = primary.reshape(-1, cfg.classes)
        picked = flat_p[np.arange(flat_p.shape[0]), labels.ravel()]
        assert loss >= -float(np.mean(np.log(np.max(flat_p, axis=1))))  # argmax of fused <= max of primary
        assert loss >= 0.0


@pytest.mark.parametrize("kind", KINDS)
def test_empty_batch_is_zero(kind):
    model = TwoHeadModel(small_model_config())
    hook = make_regularizer(model, kind, 1.0)
    loss, grad = hook(model.init_params(0), empty_stack(model))
    assert loss == 0.0 and np.all(grad == 0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("weight", [-0.1, -0.5])
def test_negative_weight_rejected(kind, weight):
    model = TwoHeadModel(small_model_config())
    with pytest.raises(ValueError):
        make_regularizer(model, kind, weight)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_params_diverge(kind, bad):
    model = TwoHeadModel(small_model_config())
    hook = make_regularizer(model, kind, 0.5)
    params = model.init_params(0)
    params[0] = bad  # a stage-1 weight
    with pytest.raises(DivergenceError):
        hook(params, random_image(np.random.default_rng(6), model.config)[None])


class TestFactory:
    def test_known_kinds(self):
        model = TwoHeadModel(small_model_config())
        for kind in KINDS:
            assert callable(make_regularizer(model, kind, 0.1))
        # "none" makes no hook: the harness gives its steps no target term
        for kind in ("none", "l2"):
            with pytest.raises(ValueError):
                make_regularizer(model, kind, 0.1)

    def test_config_regularizers_are_none_and_the_kinds(self):
        assert REGULARIZERS == ("none", *KINDS)
        assert tuple(KINDS) == ("entropy-min", "self-training")
