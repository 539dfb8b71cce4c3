"""Model math against finite-difference and composed-path oracles."""

import re
from pathlib import Path

import numpy as np
import pytest

import boostadapt
from boostadapt.errors import DivergenceError
from boostadapt.model import (
    ModelConfig,
    TwoHeadModel,
    _col2im,
    _im2col,
    fuse_predictions,
    poly_lr,
    source_loss,
)
from boostadapt.numerics import cross_entropy, finite_difference_gradient
from boostadapt.regularizers import entropy_min_regularizer, self_training_regularizer

from helpers import max_rel_error, random_image, random_labels, small_model_config


class TestConfig:
    def test_defaults_valid(self):
        cfg = ModelConfig()
        assert cfg.r_aux < cfg.r_primary

    def test_receptive_field_ordering_enforced(self):
        with pytest.raises(ValueError):
            ModelConfig(r_aux=1, r_primary=1)
        with pytest.raises(ValueError):
            ModelConfig(r_aux=2, r_primary=1)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            ModelConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            ModelConfig(dropout_rate=-0.1)

    def test_param_count_matches_layout(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        in1 = 1 * 1 * cfg.features
        in2 = 9 * cfg.hidden1
        expected = (
            in1 * cfg.hidden1 + cfg.hidden1
            + in2 * cfg.hidden2 + cfg.hidden2
            + cfg.hidden1 * cfg.classes + cfg.classes
            + cfg.hidden2 * cfg.classes + cfg.classes
        )
        assert model.param_count == expected


class TestPatches:
    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> for random x, y: the scatter-add
        # backward is exactly the transpose of the gather forward
        rng = np.random.default_rng(0)
        for radius in (0, 1, 2):
            h, w, d = 5, 4, 3
            k = 2 * radius + 1
            x = rng.normal(0, 1, (h, w, d))
            y = rng.normal(0, 1, (h * w, k * k * d))
            lhs = float((_im2col(x, radius) * y).sum())
            rhs = float((x * _col2im(y, h, w, d, radius)).sum())
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_zero_padding_at_border(self):
        x = np.ones((2, 2, 1))
        cols = _im2col(x, 1).reshape(2, 2, 3, 3, 1)
        # top-left pixel: the out-of-grid neighbors must be zero
        assert cols[0, 0, 0, 0, 0] == 0.0
        assert cols[0, 0, 1, 1, 0] == 1.0


class TestInit:
    def test_deterministic(self):
        model = TwoHeadModel(small_model_config())
        np.testing.assert_array_equal(model.init_params(7), model.init_params(7))

    def test_seeds_differ(self):
        model = TwoHeadModel(small_model_config())
        assert np.any(model.init_params(1) != model.init_params(2))

    def test_bound_respected(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        params = model.init_params(3)
        # loosest layer bound is 1/sqrt(min fan_in) = 1/sqrt(features)
        assert np.max(np.abs(params)) <= 1.0 / np.sqrt(cfg.features)


class TestForward:
    def test_probability_maps_valid(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(1)
        params = model.init_params(0)
        primary, aux = model.forward(params, random_image(rng, cfg))
        for maps in (primary, aux):
            assert maps.shape == (cfg.height, cfg.width, cfg.classes)
            assert np.all(maps >= 0)
            np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-12)

    def test_eval_mode_deterministic(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(2)
        params = model.init_params(0)
        image = random_image(rng, cfg)
        p1, a1 = model.forward(params, image)
        p2, a2 = model.forward(params, image)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(a1, a2)

    def test_dropout_seed_reproducible_and_varying(self):
        cfg = small_model_config(dropout_rate=0.5)
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(3)
        params = model.init_params(0)
        image = random_image(rng, cfg)
        p1, _ = model.forward(params, image, dropout_seed=11)
        p2, _ = model.forward(params, image, dropout_seed=11)
        np.testing.assert_array_equal(p1, p2)
        outs = {model.forward(params, image, dropout_seed=s)[0].tobytes() for s in range(8)}
        assert len(outs) > 1

    def test_shape_mismatch_rejected(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        params = model.init_params(0)
        with pytest.raises(ValueError):
            model.forward(params, np.zeros((cfg.height + 1, cfg.width, cfg.features)))
        with pytest.raises(ValueError):
            model.forward(params[:-1], np.zeros((cfg.height, cfg.width, cfg.features)))
        with pytest.raises(ValueError):
            model.forward(params, np.zeros((1, 1, cfg.height, cfg.width, cfg.features)))

    @pytest.mark.parametrize(
        "cfg, chunk", [(ModelConfig(), 7), (ModelConfig(height=32, width=32), 1)]
    )
    def test_stack_and_chunks_equal_per_image_loop(self, cfg, chunk):
        model = TwoHeadModel(cfg)
        assert model.chunk == chunk
        n = 2 * chunk + 1  # the last chunk is short
        rng = np.random.default_rng(12)
        params = model.init_params(5)
        images = rng.normal(0.0, 2.0, (n, cfg.height, cfg.width, cfg.features))
        loop = [model.forward(params, image) for image in images]
        want_p = np.stack([p for p, _ in loop])
        want_a = np.stack([a for _, a in loop])
        primary, aux = model.forward(params, images)
        assert np.array_equal(primary, want_p) and np.array_equal(aux, want_a)
        covered = []
        for span, primary, aux in model.forward_chunks(params, images):
            assert np.array_equal(primary, want_p[span]) and np.array_equal(aux, want_a[span])
            covered.extend(range(n)[span])
        assert covered == list(range(n))


class TestLoss:
    def test_matches_composed_source_loss_in_eval_mode(self):
        # fused log-softmax training loss vs probabilities -> clamp -> -log
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(4)
        for _ in range(10):
            params = model.init_params(int(rng.integers(1000)))
            image = random_image(rng, cfg)
            labels = random_labels(rng, cfg)
            primary, aux = model.forward(params, image)
            composed = source_loss(primary, aux, labels, cfg.aux_loss_weight)
            fused = model.loss_and_grad(params, [(image, labels)])[0]
            np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-9)

    def test_source_loss_matches_per_pixel_summation(self):
        # independent oracle: loop over pixels with the scalar cross-entropy
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(5)
        params = model.init_params(1)
        image = random_image(rng, cfg)
        labels = random_labels(rng, cfg)
        primary, aux = model.forward(params, image)
        total = 0.0
        for y in range(cfg.height):
            for x in range(cfg.width):
                total += cross_entropy(primary[y, x], labels[y, x])
                total += cfg.aux_loss_weight * cross_entropy(aux[y, x], labels[y, x])
        total /= cfg.height * cfg.width
        np.testing.assert_allclose(
            source_loss(primary, aux, labels, cfg.aux_loss_weight), total, atol=1e-12
        )

    def test_identical_pair_equals_single(self):
        # dropout masks are shared across the batch, so duplicating a datum
        # changes nothing
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(6)
        params = model.init_params(2)
        image, labels = random_image(rng, cfg), random_labels(rng, cfg)
        single = model.loss_and_grad(params, [(image, labels)], dropout_seed=5)
        double = model.loss_and_grad(params, [(image, labels)] * 2, dropout_seed=5)
        np.testing.assert_allclose(single[0], double[0], atol=1e-12)
        np.testing.assert_allclose(single[1], double[1], atol=1e-12)

    def test_label_out_of_range(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(7)
        image = random_image(rng, cfg)
        labels = np.full((cfg.height, cfg.width), cfg.classes)
        with pytest.raises(IndexError):
            model.loss_and_grad(model.init_params(0), [(image, labels)])

    def test_empty_batch(self):
        model = TwoHeadModel(small_model_config())
        with pytest.raises(ValueError):
            model.loss_and_grad(model.init_params(0), [])


class TestGradient:
    def _check(self, cfg, rng, dropout_seed):
        model = TwoHeadModel(cfg)
        params = model.init_params(int(rng.integers(10_000)))
        batch = [(random_image(rng, cfg), random_labels(rng, cfg))]
        _, grad = model.loss_and_grad(params, batch, dropout_seed=dropout_seed)
        fd = finite_difference_gradient(
            lambda p: model.loss_and_grad(p, batch, dropout_seed=dropout_seed)[0], params, eps=1e-5
        )
        assert max_rel_error(grad, fd) < 1e-4

    def test_matches_finite_differences_eval_masks(self):
        rng = np.random.default_rng(8)
        cfg = small_model_config(dropout_rate=0.0)
        for _ in range(5):
            self._check(cfg, rng, dropout_seed=None)

    def test_matches_finite_differences_frozen_dropout(self):
        rng = np.random.default_rng(9)
        cfg = small_model_config(dropout_rate=0.3)
        for trial in range(5):
            self._check(cfg, rng, dropout_seed=trial)

    def test_single_pixel_single_datum(self):
        rng = np.random.default_rng(10)
        cfg = small_model_config(height=1, width=1, classes=2)
        for _ in range(3):
            self._check(cfg, rng, dropout_seed=None)

    def test_value_and_grad_of_linear_head_terms(self):
        # a fixed random linear function of both heads' logits per image:
        # its dlogits are the coefficients, so value_and_grad's backward
        # pass is checked on its own, apart from any loss formula
        rng = np.random.default_rng(17)
        cfg = small_model_config(dropout_rate=0.3)
        model = TwoHeadModel(cfg)
        n_pix = cfg.height * cfg.width
        images = [random_image(rng, cfg) for _ in range(2)]
        coef = rng.normal(size=(len(images), 2, n_pix, cfg.classes))

        def head_terms(span, cache):
            c = coef[span]
            terms = np.sum(c[:, 0] * cache.logits_p, axis=(1, 2)) + np.sum(
                c[:, 1] * cache.logits_a, axis=(1, 2)
            )
            return terms, c[:, 0], c[:, 1]

        for dropout_seed in (None, 3):
            params = model.init_params(int(rng.integers(10_000)))
            _, grad = model.value_and_grad(params, images, head_terms, dropout_seed)
            fd = finite_difference_gradient(
                lambda p: model.value_and_grad(p, images, head_terms, dropout_seed)[0],
                params,
                eps=1e-5,
            )
            assert max_rel_error(grad, fd) < 1e-4

    def test_stacks_equal_in_order_sum_of_single_images(self):
        # N = 2*chunk+1 images cross two chunk boundaries; the stacked pass
        # must give the bits of a one-image-at-a-time loop summed in order,
        # signs of zeros included
        cfg = ModelConfig()
        model = TwoHeadModel(cfg)
        single = TwoHeadModel(cfg)
        single.chunk = 1
        n = 2 * model.chunk + 1
        rng = np.random.default_rng(23)
        params = model.init_params(8)
        images = list(rng.normal(0.0, 1.5, (n, cfg.height, cfg.width, cfg.features)))
        labels = list(rng.integers(0, cfg.classes, (n, cfg.height, cfg.width)))
        coef = rng.normal(size=(n, 2, cfg.height * cfg.width, cfg.classes))

        def same_bits(got, want):
            return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

        def linear(span, cache):
            c = coef[span]
            terms = np.sum(c[:, 0] * cache.logits_p, axis=(1, 2))
            return terms, c[:, 0], c[:, 1]

        for dropout_seed in (None, 4):
            total, grad = model.value_and_grad(params, images, linear, dropout_seed)
            want_total, want_grad = 0.0, np.zeros(model.param_count)
            for i, image in enumerate(images):
                term, g = model.value_and_grad(
                    params, [image], lambda _, cache: linear(slice(i, i + 1), cache), dropout_seed
                )
                want_total += term
                want_grad += g
            assert total == want_total and same_bits(grad, want_grad)

            batch = list(zip(images, labels))
            got = model.loss_and_grad(params, batch, dropout_seed=dropout_seed)
            want = single.loss_and_grad(params, batch, dropout_seed=dropout_seed)
            assert got[0] == want[0] and same_bits(got[1], want[1])

        for make in (entropy_min_regularizer, self_training_regularizer):
            got = make(model, 0.5)(params, images)
            want = make(single, 0.5)(params, images)
            assert got[0] == want[0] and same_bits(got[1], want[1])

        # an aux dlogits of None skips the aux head's backward, bit for bit
        def no_aux(span, cache):
            terms, dlogits_p, _ = linear(span, cache)
            return terms, dlogits_p, None

        def zero_aux(span, cache):
            terms, dlogits_p, dlogits_a = linear(span, cache)
            return terms, dlogits_p, np.zeros_like(dlogits_a)

        skipped = model.value_and_grad(params, images, no_aux)
        zeros = model.value_and_grad(params, images, zero_aux)
        assert skipped[0] == zeros[0] and same_bits(skipped[1], zeros[1])

    def test_only_model_runs_the_forward_backward_loop(self):
        # every loss, regularizers included, goes through value_and_grad
        src = Path(boostadapt.__file__).parent
        offenders = [
            path.name
            for path in sorted(src.glob("*.py"))
            if path.name != "model.py"
            and re.search(r"_forward_cache|_backward", path.read_text())
        ]
        assert offenders == []

    def test_batch_gradient_is_mean(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(11)
        params = model.init_params(4)
        data = [(random_image(rng, cfg), random_labels(rng, cfg)) for _ in range(3)]
        _, g_all = model.loss_and_grad(params, data, dropout_seed=1)
        singles = [model.loss_and_grad(params, [d], dropout_seed=1)[1] for d in data]
        np.testing.assert_allclose(g_all, np.mean(singles, axis=0), atol=1e-12)


class TestGradStep:
    def test_zero_lr_is_identity(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(12)
        params = model.init_params(5)
        batch = [(random_image(rng, cfg), random_labels(rng, cfg))]
        new, _ = model.grad_step(params, batch, lr=0.0, dropout_seed=1)
        np.testing.assert_array_equal(new, params)

    def test_small_step_decreases_loss(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(13)
        for trial in range(10):
            params = model.init_params(int(rng.integers(10_000)))
            batch = [
                (random_image(rng, cfg), random_labels(rng, cfg))
                for _ in range(2)
            ]
            before = model.loss_and_grad(params, batch, dropout_seed=trial)[0]
            for lr in (1e-4, 1e-5):
                new, _ = model.grad_step(params, batch, lr=lr, dropout_seed=trial)
                after = model.loss_and_grad(new, batch, dropout_seed=trial)[0]
                if after < before:
                    break
            assert after < before

    def test_negative_lr_rejected(self):
        model = TwoHeadModel(small_model_config())
        with pytest.raises(ValueError):
            model.grad_step(model.init_params(0), [], lr=-1.0)

    def test_non_finite_params_diverge(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(14)
        params = model.init_params(0)
        params[3] = np.inf
        batch = [(random_image(rng, cfg), random_labels(rng, cfg))]
        with pytest.raises(DivergenceError):
            model.grad_step(params, batch, lr=0.1)


class TestFusion:
    def test_fused_is_valid_and_symmetric(self):
        rng = np.random.default_rng(15)
        p = rng.dirichlet(np.ones(4), size=(3, 3))
        q = rng.dirichlet(np.ones(4), size=(3, 3))
        fused = fuse_predictions(p, q)
        np.testing.assert_allclose(fused.sum(axis=-1), 1.0, atol=1e-12)
        np.testing.assert_allclose(fused, fuse_predictions(q, p), atol=1e-15)

    def test_agreeing_heads_unchanged(self):
        rng = np.random.default_rng(16)
        p = rng.dirichlet(np.ones(5), size=(2, 2))
        np.testing.assert_allclose(fuse_predictions(p, p), p, atol=1e-12)


class TestPolyLR:
    def test_endpoints_and_halfway(self):
        assert poly_lr(0, 100, 2e-4) == 2e-4
        assert poly_lr(100, 100, 2e-4) == 0.0
        # 2e-4 * 0.5 ** 0.9, frozen from an independent evaluation
        np.testing.assert_allclose(poly_lr(50, 100, 2e-4), 0.00010717734625362932, atol=1e-18)

    def test_monotone_non_increasing(self):
        values = [poly_lr(i, 57, 0.03) for i in range(58)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            poly_lr(-1, 10, 0.1)
        with pytest.raises(ValueError):
            poly_lr(11, 10, 0.1)
        with pytest.raises(ValueError):
            poly_lr(0, 10, 0.0)
