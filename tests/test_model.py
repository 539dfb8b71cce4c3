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
    _bias_grad,
    _conv_input_grad,
    _im2col,
    fuse_predictions,
    poly_lr,
    source_loss,
)
from boostadapt.numerics import cross_entropy, finite_difference_gradient, log_softmax, softmax
from boostadapt.regularizers import KINDS, make_regularizer

from helpers import (
    forwarded_images,
    max_rel_error,
    per_position,
    random_image,
    random_batch,
    random_labels,
    small_model_config,
)


def loop_im2col(grid, radius):
    """Reference gather: one strided copy per (dy, dx) offset."""
    *lead, h, w, d = grid.shape
    if radius == 0:
        return grid.reshape(*lead, h * w, d)
    k = 2 * radius + 1
    padded = np.zeros((*lead, h + 2 * radius, w + 2 * radius, d))
    padded[..., radius : radius + h, radius : radius + w, :] = grid
    cols = np.empty((*lead, h, w, k, k, d))
    for dy in range(k):
        for dx in range(k):
            cols[..., dy, dx, :] = padded[..., dy : dy + h, dx : dx + w, :]
    return cols.reshape(*lead, h * w, k * k * d)


def loop_col2im(cols, h, w, d, radius):
    """Reference scatter-add, straight from the strided (..., H, W, k, k, D) view."""
    lead = cols.shape[:-2]
    if radius == 0:
        return cols.reshape(*lead, h, w, d)
    k = 2 * radius + 1
    cols = cols.reshape(*lead, h, w, k, k, d)
    padded = np.zeros((*lead, h + 2 * radius, w + 2 * radius, d))
    for dy in range(k):
        for dx in range(k):
            padded[..., dy : dy + h, dx : dx + w, :] += cols[..., dy, dx, :]
    return padded[..., radius : radius + h, radius : radius + w, :]


def reference_forward(model, params, image, masks):
    """The forward as plain out-of-place expressions over ``loop_im2col``
    and numpy's own reductions: the bits every ``_ForwardCache`` array of
    the in-place kernel must have."""
    c = model.config
    w1, b1, w2, b2, wa, ba, wp, bp = model._unpack(params)
    mask_a, mask_p = masks
    patches1 = loop_im2col(image, c.r_aux)
    act1 = np.tanh(patches1 @ w1 + b1)
    lead = image.shape[:-3]
    patches2 = loop_im2col(act1.reshape(*lead, c.height, c.width, c.hidden1), c.r_primary)
    act2 = np.tanh(patches2 @ w2 + b2)
    head_in_a = act1 if mask_a is None else act1 * mask_a
    head_in_p = act2 if mask_p is None else act2 * mask_p
    out = dict(
        patches1=patches1,
        act1=act1,
        patches2=patches2,
        act2=act2,
        head_in_a=head_in_a,
        head_in_p=head_in_p,
    )
    for head, logits in (("a", head_in_a @ wa + ba), ("p", head_in_p @ wp + bp)):
        shifted = logits - logits.max(axis=-1)[..., None]
        e = np.exp(shifted)
        norm = e.sum(axis=-1)
        out.update({f"probs_{head}": e / norm[..., None], f"shifted_{head}": shifted})
        out[f"norm_{head}"] = norm
    return out


def reference_backward(model, params, ref, masks, dlogits_p, dlogits_a):
    """``_backward``'s gradient rows as plain out-of-place expressions over
    a ``reference_forward`` result ``ref``, with numpy's own row sums."""
    c = model.config
    w1, b1, w2, b2, wa, ba, wp, bp = model._unpack(params)
    mask_a, mask_p = masks
    m = dlogits_p.shape[0]
    g_wp = np.swapaxes(ref["head_in_p"], -1, -2) @ dlogits_p
    g_bp = dlogits_p.sum(axis=-2)
    d_head_p = dlogits_p @ wp.T
    d_act2 = d_head_p if mask_p is None else d_head_p * mask_p
    d_pre2 = d_act2 * (1.0 - ref["act2"] ** 2)
    g_w2 = np.swapaxes(ref["patches2"], -1, -2) @ d_pre2
    g_b2 = d_pre2.sum(axis=-2)
    k = 2 * c.r_primary + 1
    rotated = w2.reshape(k, k, c.hidden1, c.hidden2)[::-1, ::-1].transpose(0, 1, 3, 2)
    d_pre2_grid = d_pre2.reshape(m, c.height, c.width, c.hidden2)
    d_act1 = loop_im2col(d_pre2_grid, c.r_primary) @ rotated.reshape(-1, c.hidden1)
    if dlogits_a is None:
        g_wa = np.zeros((m, *wa.shape))
        g_ba = np.zeros((m, *ba.shape))
    else:
        g_wa = np.swapaxes(ref["head_in_a"], -1, -2) @ dlogits_a
        g_ba = dlogits_a.sum(axis=-2)
        d_head_a = dlogits_a @ wa.T
        d_act1 = d_act1 + (d_head_a if mask_a is None else d_head_a * mask_a)
    d_pre1 = d_act1 * (1.0 - ref["act1"] ** 2)
    g_w1 = np.swapaxes(ref["patches1"], -1, -2) @ d_pre1
    g_b1 = d_pre1.sum(axis=-2)
    return np.concatenate(
        [g.reshape(m, -1) for g in (g_w1, g_b1, g_w2, g_b2, g_wa, g_ba, g_wp, g_bp)],
        axis=1,
    )


def head_logits(cache):
    """(primary, aux) logits of a cached stack, from its head inputs and the
    weights it was forwarded with, as the forward computes them."""
    wa, ba, wp, bp = cache.weights[4:]
    return cache.head_in_p @ wp + bp, cache.head_in_a @ wa + ba


def same_bits(got, want):
    """Equal shapes and values, signs of zeros included."""
    return (
        got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


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
    def test_conv_input_grad_is_adjoint_of_the_stage_map(self):
        # <im2col(x) @ W, g> == <x, conv_input_grad(g, W)> for random x, W, g:
        # the rotated-kernel backward is exactly the transpose of the
        # gather-then-gemm forward
        rng = np.random.default_rng(0)
        for lead in ((), (2, 3)):
            for radius in (1, 2):
                h, w, d1, d2 = 5, 4, 3, 2
                k = 2 * radius + 1
                x = rng.normal(0, 1, (*lead, h, w, d1))
                weight = rng.normal(0, 1, (k * k * d1, d2))
                g = rng.normal(0, 1, (*lead, h, w, d2))
                lhs = float(((_im2col(x, radius) @ weight) * g.reshape(*lead, h * w, d2)).sum())
                dx = _conv_input_grad(g, weight, radius)
                rhs = float((x.reshape(*lead, h * w, d1) * dx).sum())
                np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("radius", [0, 1, 2])
    def test_kernels_equal_loop_reference(self, lead, radius):
        # the strided-view gather gives the loop's bits, signs of zeros
        # included, on non-square grids; the input gradient sums in another
        # order than the scatter-add of g @ W.T, so it agrees to a tolerance
        rng = np.random.default_rng(31 + radius)
        k = 2 * radius + 1
        for h, w, d in ((5, 7, 3), (4, 3, 8), (1, 1, 2)):
            x = rng.normal(0, 1, (*lead, h, w, d))
            x[x < -0.5] = -0.0
            assert same_bits(_im2col(x, radius), loop_im2col(x, radius))
            weight = rng.normal(0, 1, (k * k * d, d + 2))
            g = rng.normal(0, 1, (*lead, h, w, d + 2))
            want = loop_col2im(g.reshape(*lead, h * w, d + 2) @ weight.T, h, w, d, radius)
            got = _conv_input_grad(g, weight, radius).reshape(*lead, h, w, d)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_zero_padding_at_border(self):
        x = np.ones((2, 2, 1))
        cols = _im2col(x, 1).reshape(2, 2, 3, 3, 1)
        # top-left pixel: the out-of-grid neighbors must be zero
        assert cols[0, 0, 0, 0, 0] == 0.0
        assert cols[0, 0, 1, 1, 0] == 1.0


class TestKernelBits:
    """The in-place forward and backward against their out-of-place
    expressions, bit for bit, signs of zeros included."""

    @pytest.mark.parametrize(
        "cfg, m",
        [
            (ModelConfig(), 7),
            (ModelConfig(height=32, width=32), 1),
            (small_model_config(height=5, width=7, hidden1=5, hidden2=3, r_aux=1, r_primary=2), 3),
        ],
        ids=["16x16-stack-of-7", "32x32-stack-of-1", "5x7-r_primary-2"],
    )
    @pytest.mark.parametrize("dropout_seed", [None, 9])
    @pytest.mark.parametrize("aux", [True, False])
    def test_cache_and_gradient_rows_equal_the_reference(self, cfg, m, dropout_seed, aux):
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(m + cfg.height)
        params = model.init_params(4)
        images = rng.normal(0.0, 2.0, (m, cfg.height, cfg.width, cfg.features))
        masks = model._head_masks(dropout_seed)
        assert (masks[0] is None) == (dropout_seed is None)
        shape = (m, cfg.height * cfg.width, cfg.classes)
        # magnitudes over several orders, so a change of summation order shows
        scale = 10.0 ** rng.integers(-6, 7, shape)
        dlogits_p = rng.normal(size=shape) * scale
        dlogits_a = rng.normal(size=shape) * scale[:, ::-1] if aux else None

        cache = model._forward_cache(params, images, masks)
        ref = reference_forward(model, params, images, masks)
        for name, want in ref.items():
            assert same_bits(getattr(cache, name), want), name
        cached = {name: getattr(cache, name).copy() for name in ref}
        given = [d.copy() for d in (dlogits_p, dlogits_a) if d is not None]

        rows = model._backward(cache, dlogits_p, dlogits_a)
        want = reference_backward(model, params, ref, masks, dlogits_p, dlogits_a)
        assert rows.shape == (m, model.param_count)
        for got_row, want_row in zip(rows, want, strict=True):
            assert same_bits(got_row, want_row)
        # the backward writes into none of its inputs
        for name, before in cached.items():
            assert same_bits(getattr(cache, name), before), name
        for before, after in zip(given, (dlogits_p, dlogits_a)):
            assert same_bits(after, before)

    @pytest.mark.parametrize("shape", [(1, 1024, 8), (7, 256, 8), (7, 256, 4), (3, 35, 3), (2, 1, 2)])
    def test_bias_grad_einsum_adds_rows_in_sum_order(self, shape):
        # einsum("mij->mj") adds the rows one after another, as
        # x.sum(axis=-2) does; over magnitudes that span many orders any
        # other order of addition would round differently
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, shape)
            x[rng.random(shape) < 0.05] = -0.0
            assert same_bits(np.einsum("mij->mj", x), x.sum(axis=-2))
            assert same_bits(_bias_grad(x), x.sum(axis=-2))
        negative_zeros = np.full(shape, -0.0)
        assert same_bits(_bias_grad(negative_zeros), negative_zeros.sum(axis=-2))

    def test_gather_hands_out_no_writeable_view(self):
        # the columns of a 1x1 grid are a view of the padded grid and must
        # be read-only; every larger grid's are a fresh, writeable copy
        for shape in ((1, 1, 2), (2, 1, 1, 2)):
            assert not _im2col(np.ones(shape), 1).flags.writeable
        assert _im2col(np.ones((3, 2, 2)), 1).flags.writeable


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
        primary, aux = model.forward(params, random_image(rng, cfg)[None])
        for maps in (primary, aux):
            assert maps.shape == (1, cfg.height, cfg.width, cfg.classes)
            assert np.all(maps >= 0)
            np.testing.assert_allclose(maps.sum(axis=-1), 1.0, atol=1e-12)

    def test_eval_mode_deterministic(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(2)
        params = model.init_params(0)
        image = random_image(rng, cfg)[None]
        p1, a1 = model.forward(params, image)
        p2, a2 = model.forward(params, image)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(a1, a2)

    def test_dropout_seed_reproducible_and_varying(self):
        # train mode runs only through value_and_grad: a seed's head masks
        # repeat, and other seeds draw other masks
        cfg = small_model_config(dropout_rate=0.5)
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(3)
        params = model.init_params(0)
        images, labels = random_batch(rng, cfg)
        loss1, grad1 = model.loss_and_grad(params, images, labels, dropout_seed=11)
        loss2, grad2 = model.loss_and_grad(params, images, labels, dropout_seed=11)
        assert loss1 == loss2 and same_bits(grad1, grad2)
        losses = {model.loss_and_grad(params, images, labels, s)[0] for s in range(8)}
        assert len(losses) > 1
        assert model.loss_and_grad(params, images, labels)[0] not in losses

    def test_shape_mismatch_rejected(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        params = model.init_params(0)
        shape = (cfg.height, cfg.width, cfg.features)
        with pytest.raises(ValueError):
            model.forward(params[:-1], np.zeros((1, *shape)))

        def head_terms(rows, cache):
            raise AssertionError("a rejected stack was forwarded")

        for images in (
            np.zeros((1, cfg.height + 1, cfg.width, cfg.features)),
            np.zeros((1, 1, *shape)),
            np.zeros(shape),  # one image, not a stack
            np.zeros((1, *shape), dtype=np.float32),
        ):
            with pytest.raises(ValueError):
                model.forward(params, images)
            with pytest.raises(ValueError):
                model.value_and_grad(params, images, head_terms)

    @pytest.mark.parametrize("head", [4, 6])
    def test_finite_params_whose_logits_overflow_diverge(self, head):
        # saturated trunks times head weights of 1e307 overflow the logits
        # of the aux head (section 4) or the primary head (section 6)
        cfg = small_model_config(hidden1=32, hidden2=32)
        model = TwoHeadModel(cfg)
        params = model.init_params(0)
        sections = model._unpack(params)
        for weight, bias in (sections[0:2], sections[2:4]):
            weight[...] = 0.0
            bias[...] = 10.0
        sections[head][...] = 1e307
        assert np.all(np.isfinite(params))
        images = np.zeros((1, cfg.height, cfg.width, cfg.features))

        def head_terms(rows, cache):
            raise AssertionError("the loss of non-finite logits was reached")

        # the harness runs every pass under this errstate
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="non-finite logits"):
                model.forward(params, images)
            with pytest.raises(DivergenceError, match="non-finite logits"):
                model.value_and_grad(params, images, head_terms, dropout_seed=1)

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
        loop = [model.forward(params, images[i : i + 1]) for i in range(n)]
        want_p = np.concatenate([p for p, _ in loop])
        want_a = np.concatenate([a for _, a in loop])
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
            images = random_image(rng, cfg)[None]
            labels = random_labels(rng, cfg)[None]
            primary, aux = model.forward(params, images)
            composed = source_loss(primary[0], aux[0], labels[0], cfg.aux_loss_weight)
            fused = model.loss_and_grad(params, images, labels)[0]
            np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("size, classes", [(16, 3), (16, 5), (32, 3), (32, 5)])
    def test_loss_bits_equal_log_softmax_oracle(self, size, classes):
        # the loss read off the forward's shifted logits and normalizer has
        # the bits of -log_softmax(logits)[label] summed in the same order,
        # and the cached probabilities are softmax(logits) exactly
        cfg = ModelConfig(height=size, width=size, classes=classes)
        model = TwoHeadModel(cfg)
        lam = cfg.aux_loss_weight
        rng = np.random.default_rng(size + classes)
        params = model.init_params(classes)
        for n in (1, 2, 7, 15):
            images = rng.normal(0.0, 2.0, (n, size, size, cfg.features))
            labels = rng.integers(0, classes, (n, size * size))

            def oracle_terms(rows, cache):
                logits_p, logits_a = head_logits(cache)
                assert same_bits(cache.probs_p, softmax(logits_p))
                assert same_bits(cache.probs_a, softmax(logits_a))
                picks = rows[..., None]
                ce_p, ce_a = (
                    -np.take_along_axis(log_softmax(logits), picks, -1)[..., 0].mean(axis=-1)
                    for logits in (logits_p, logits_a)
                )
                return (ce_p + lam * ce_a) / n, np.zeros_like(logits_p), None

            for dropout_seed in (None, 6):
                want, _ = model.value_and_grad(params, images, oracle_terms, dropout_seed, labels)
                maps = labels.reshape(n, size, size)
                assert model.loss_and_grad(params, images, maps, dropout_seed)[0] == want

    def test_source_loss_matches_per_pixel_summation(self):
        # independent oracle: loop over pixels with the scalar cross-entropy
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(5)
        params = model.init_params(1)
        image = random_image(rng, cfg)
        labels = random_labels(rng, cfg)
        primary, aux = (maps[0] for maps in model.forward(params, image[None]))
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
        images, labels = random_batch(rng, cfg)
        single = model.loss_and_grad(params, images, labels, dropout_seed=5)
        double = model.loss_and_grad(params, images[[0, 0]], labels[[0, 0]], dropout_seed=5)
        np.testing.assert_allclose(single[0], double[0], atol=1e-12)
        np.testing.assert_allclose(single[1], double[1], atol=1e-12)

    def test_label_out_of_range(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(7)
        images = random_image(rng, cfg)[None]
        labels = np.full((1, cfg.height, cfg.width), cfg.classes)
        with pytest.raises(IndexError):
            model.loss_and_grad(model.init_params(0), images, labels)

    def test_empty_batch(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        images = np.empty((0, cfg.height, cfg.width, cfg.features))
        labels = np.empty((0, cfg.height, cfg.width), dtype=np.int64)
        with pytest.raises(ValueError, match="empty batch"):
            model.loss_and_grad(model.init_params(0), images, labels)

    def test_label_stack_must_match_the_image_stack(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(18)
        images, labels = random_batch(rng, cfg, 3)
        params = model.init_params(0)
        for got_images, got_labels in ((images[:2], labels), (images, labels[:2])):
            with pytest.raises(ValueError, match="targets rows for"):
                model.loss_and_grad(params, got_images, got_labels)
            with pytest.raises(ValueError, match="targets rows for"):
                model.grad_step(params, got_images, got_labels, lr=0.1)
        for bad in (labels[0], labels[:, None]):  # one map, or a 4-d stack
            with pytest.raises(ValueError, match="label maps"):
                model.loss_and_grad(params, images, bad)


class TestGradient:
    def _check(self, cfg, rng, dropout_seed):
        model = TwoHeadModel(cfg)
        params = model.init_params(int(rng.integers(10_000)))
        images, labels = random_batch(rng, cfg)
        _, grad = model.loss_and_grad(params, images, labels, dropout_seed)
        fd = finite_difference_gradient(
            lambda p: model.loss_and_grad(p, images, labels, dropout_seed)[0], params, eps=1e-5
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

    def test_matches_finite_differences_at_primary_radius_2(self):
        # a 5x5 stage-2 kernel with hidden1 != hidden2 on a non-square grid:
        # a wrong rotation or channel swap of the stage-2 kernel in the
        # backward shows in the training loss and in both hooks
        rng = np.random.default_rng(12)
        cfg = small_model_config(height=5, width=7, hidden1=5, hidden2=3, r_aux=1, r_primary=2)
        self._check(cfg, rng, dropout_seed=3)
        model = TwoHeadModel(cfg)
        params = model.init_params(13)
        images = np.stack([random_image(rng, cfg) for _ in range(2)])
        for kind in KINDS:
            hook = make_regularizer(model, kind, 0.5)
            _, grad = hook(params, images)
            fd = finite_difference_gradient(lambda p: hook(p, images)[0], params, eps=1e-5)
            assert max_rel_error(grad, fd) < 1e-4

    def test_value_and_grad_of_linear_head_terms(self):
        # a fixed random linear function of both heads' logits per image:
        # its dlogits are the coefficients, so value_and_grad's backward
        # pass is checked on its own, apart from any loss formula
        rng = np.random.default_rng(17)
        cfg = small_model_config(dropout_rate=0.3)
        model = TwoHeadModel(cfg)
        n_pix = cfg.height * cfg.width
        images = np.stack([random_image(rng, cfg) for _ in range(2)])
        coef = rng.normal(size=(len(images), 2, n_pix, cfg.classes))

        def head_terms(c, cache):
            logits_p, logits_a = head_logits(cache)
            terms = np.sum(c[:, 0] * logits_p, axis=(1, 2)) + np.sum(
                c[:, 1] * logits_a, axis=(1, 2)
            )
            return terms, c[:, 0], c[:, 1]

        for dropout_seed in (None, 3):
            params = model.init_params(int(rng.integers(10_000)))
            _, grad = model.value_and_grad(params, images, head_terms, dropout_seed, coef)
            fd = finite_difference_gradient(
                lambda p: model.value_and_grad(p, images, head_terms, dropout_seed, coef)[0],
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
        images = rng.normal(0.0, 1.5, (n, cfg.height, cfg.width, cfg.features))
        labels = rng.integers(0, cfg.classes, (n, cfg.height, cfg.width))
        coef = rng.normal(size=(n, 2, cfg.height * cfg.width, cfg.classes))

        def linear(c, cache):
            terms = np.sum(c[:, 0] * head_logits(cache)[0], axis=(1, 2))
            return terms, c[:, 0], c[:, 1]

        for dropout_seed in (None, 4):
            total, grad = model.value_and_grad(params, images, linear, dropout_seed, coef)
            want_total, want_grad = 0.0, np.zeros(model.param_count)
            for i in range(n):
                term, g = model.value_and_grad(
                    params, images[i : i + 1], linear, dropout_seed, coef[i : i + 1]
                )
                want_total += term
                want_grad += g
            assert total == want_total and same_bits(grad, want_grad)

            got = model.loss_and_grad(params, images, labels, dropout_seed)
            want = single.loss_and_grad(params, images, labels, dropout_seed)
            assert got[0] == want[0] and same_bits(got[1], want[1])

        for kind in KINDS:
            got = make_regularizer(model, kind, 0.5)(params, images)
            want = make_regularizer(single, kind, 0.5)(params, images)
            assert got[0] == want[0] and same_bits(got[1], want[1])

        # an aux dlogits of None skips the aux head's backward, bit for bit
        def no_aux(c, cache):
            terms, dlogits_p, _ = linear(c, cache)
            return terms, dlogits_p, None

        def zero_aux(c, cache):
            terms, dlogits_p, dlogits_a = linear(c, cache)
            return terms, dlogits_p, np.zeros_like(dlogits_a)

        skipped = model.value_and_grad(params, images, no_aux, targets=coef)
        zeros = model.value_and_grad(params, images, zero_aux, targets=coef)
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
        images, labels = random_batch(rng, cfg, 3)
        _, g_all = model.loss_and_grad(params, images, labels, dropout_seed=1)
        singles = [
            model.loss_and_grad(params, images[i : i + 1], labels[i : i + 1], 1)[1]
            for i in range(3)
        ]
        np.testing.assert_allclose(g_all, np.mean(singles, axis=0), atol=1e-12)


class TestRepeatedInputs:
    """A sampler that draws with replacement repeats images within a batch;
    each distinct input is computed once and counted at every position."""

    @staticmethod
    def _draws(cfg, rng, n):
        # image and label stacks of 3 images drawn into n positions with
        # replacement, a third of them flipped as the harness flips a draw:
        # a flipped image is another input
        images = rng.normal(0.0, 1.5, (3, cfg.height, cfg.width, cfg.features))
        labels = rng.integers(0, cfg.classes, (3, cfg.height, cfg.width))
        drawn = rng.integers(0, 3, n)
        flips = rng.random(n) < 1 / 3
        images, labels = images[drawn], labels[drawn]
        images[flips] = images[flips, :, ::-1]
        labels[flips] = labels[flips, :, ::-1]
        return images, labels

    def test_repeats_give_the_bits_of_the_per_position_loop(self, monkeypatch):
        cfg = ModelConfig()
        model = TwoHeadModel(cfg)
        single = TwoHeadModel(cfg)
        single.chunk = 1
        rng = np.random.default_rng(31)
        params = model.init_params(3)
        n = 2 * model.chunk + 3
        images, labels = self._draws(cfg, rng, n)
        forwarded = forwarded_images(monkeypatch)
        got = [model.loss_and_grad(params, images, labels, seed) for seed in (None, 4)]
        got += [make_regularizer(model, kind, 0.5)(params, images) for kind in KINDS]
        merged = len(forwarded)
        forwarded.clear()
        per_position(monkeypatch)
        want = [single.loss_and_grad(params, images, labels, seed) for seed in (None, 4)]
        want += [make_regularizer(single, kind, 0.5)(params, images) for kind in KINDS]
        assert merged < len(forwarded) == 4 * n
        for (total, grad), (want_total, want_grad) in zip(got, want, strict=True):
            assert total == want_total and same_bits(grad, want_grad)

    def test_each_distinct_input_is_forwarded_once(self, monkeypatch):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(32)
        params = model.init_params(5)
        images, labels = self._draws(cfg, rng, 12)
        distinct = {(x.tobytes(), y.tobytes()): x for x, y in zip(images, labels)}
        assert len(distinct) < len(images)
        forwarded = forwarded_images(monkeypatch)
        model.loss_and_grad(params, images, labels, dropout_seed=2)
        assert [image.tobytes() for image in forwarded] == [
            image.tobytes() for image in distinct.values()
        ]
        forwarded.clear()
        make_regularizer(model, "self-training", 0.5)(params, images)
        assert len(forwarded) == len({image.tobytes() for image in forwarded}) == len(distinct)

    def test_same_image_with_other_labels_is_computed_twice(self, monkeypatch):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(33)
        params = model.init_params(6)
        images = np.stack([random_image(rng, cfg)] * 3)
        labels = np.stack([random_labels(rng, cfg), random_labels(rng, cfg)])[[0, 1, 0]]
        forwarded = forwarded_images(monkeypatch)
        got = model.loss_and_grad(params, images, labels)
        assert len(forwarded) == 2
        per_position(monkeypatch)
        want = model.loss_and_grad(params, images, labels)
        assert got[0] == want[0] and same_bits(got[1], want[1])

    def test_equal_images_with_other_targets_rows_are_not_merged(self, monkeypatch):
        # head terms read per-position data only through their targets
        # rows, so equal images under different rows are separate inputs,
        # while equal images under equal rows merge
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(34)
        params = model.init_params(7)
        images = np.stack([random_image(rng, cfg)] * 5)
        coef = rng.normal(size=(3, cfg.height * cfg.width, cfg.classes))[[0, 1, 0, 2, 1]]
        seen_rows = []

        def linear(c, cache):
            seen_rows.extend(row.tobytes() for row in c)
            return np.sum(c * head_logits(cache)[0], axis=(1, 2)), c, None

        forwarded = forwarded_images(monkeypatch)
        total, grad = model.value_and_grad(params, images, linear, targets=coef)
        assert seen_rows == [coef[i].tobytes() for i in (0, 1, 3)] and len(forwarded) == 3
        per_position(monkeypatch)
        want = model.value_and_grad(params, images, linear, targets=coef)
        assert total == want[0] and same_bits(grad, want[1])

    def test_targets_must_match_images(self):
        model = TwoHeadModel(small_model_config())
        images = np.stack([random_image(np.random.default_rng(35), model.config)] * 2)
        with pytest.raises(ValueError, match="1 targets rows for 2 images"):
            model.value_and_grad(model.init_params(0), images, None, targets=np.zeros((1, 3)))


class TestGradStep:
    def test_zero_lr_is_identity(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(12)
        params = model.init_params(5)
        images, labels = random_batch(rng, cfg)
        new, _ = model.grad_step(params, images, labels, lr=0.0, dropout_seed=1)
        np.testing.assert_array_equal(new, params)

    def test_small_step_decreases_loss(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(13)
        for trial in range(10):
            params = model.init_params(int(rng.integers(10_000)))
            images, labels = random_batch(rng, cfg, 2)
            before = model.loss_and_grad(params, images, labels, trial)[0]
            for lr in (1e-4, 1e-5):
                new, _ = model.grad_step(params, images, labels, lr=lr, dropout_seed=trial)
                after = model.loss_and_grad(new, images, labels, trial)[0]
                if after < before:
                    break
            assert after < before

    def test_term_joins_the_loss_and_the_step(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(16)
        params = model.init_params(6)
        images, labels = random_batch(rng, cfg)
        term = (0.25, rng.normal(size=model.param_count))
        loss, grad = model.loss_and_grad(params, images, labels, dropout_seed=2)
        new, total = model.grad_step(params, images, labels, lr=0.1, dropout_seed=2, term=term)
        assert total == loss + 0.25
        assert new.tobytes() == (params - 0.1 * (grad + term[1])).tobytes()

    def test_negative_lr_rejected(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        images, labels = random_batch(np.random.default_rng(15), cfg)
        with pytest.raises(ValueError, match="lr must be"):
            model.grad_step(model.init_params(0), images, labels, lr=-1.0)

    def test_non_finite_params_diverge(self):
        cfg = small_model_config()
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(14)
        params = model.init_params(0)
        params[3] = np.inf
        images, labels = random_batch(rng, cfg)
        with pytest.raises(DivergenceError):
            model.grad_step(params, images, labels, lr=0.1)


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
