"""Numeric kernels against hand-computed and brute-force oracles."""

import numpy as np
import pytest

from boostadapt.model import fuse_predictions
from boostadapt.numerics import (
    EPS,
    _fold_sum,
    cross_entropy,
    entropy,
    finite_difference_gradient,
    kl_pointwise,
    log_softmax,
    softmax,
    softmax_parts,
)


class TestSoftmax:
    def test_sums_to_one_and_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.normal(0, 10, size=rng.integers(2, 9))
            p = softmax(z)
            np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
            assert np.all(p > 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.normal(0, 5, 6)
            c = rng.uniform(-50, 50)
            np.testing.assert_allclose(softmax(z + c), softmax(z), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)
        np.testing.assert_allclose(p[0], 1.0, atol=1e-12)
        assert p[1] >= p[2] >= 0.0

    def test_uniform_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(4)), np.full(4, 0.25), atol=1e-15)

    def test_rejects_non_finite(self):
        for fn in (softmax, softmax_parts):
            with pytest.raises(ValueError, match="non-finite logits"):
                fn(np.array([np.nan, 0.0]))
            with pytest.raises(ValueError, match="non-finite logits"):
                fn(np.array([np.inf, 0.0]))

    def test_rejects_single_entry(self):
        with pytest.raises(ValueError):
            softmax(np.array([3.0]))

    def test_parts_leave_their_input_alone(self):
        # softmax_parts copies and then runs the in-place core that the
        # model's forward runs on its own logits
        z = np.random.default_rng(3).normal(0, 4, (5, 6, 4))
        before = z.copy()
        probs, shifted, norm = softmax_parts(z)
        assert np.array_equal(z, before) and not np.shares_memory(shifted, z)
        np.testing.assert_array_equal(shifted, before - before.max(axis=-1)[..., None])
        z.flags.writeable = False
        assert np.array_equal(softmax_parts(z)[0], probs)

    def test_rowwise_matches_per_row(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0, 3, (10, 5))
        batched = softmax(z)
        for i in range(10):
            np.testing.assert_allclose(batched[i], softmax(z[i]), atol=1e-15)


class TestCrossEntropy:
    def test_known_values(self):
        # -log 1 = 0; -log 0.5; -log 0.2 (frozen from an independent evaluation)
        assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0
        np.testing.assert_allclose(
            cross_entropy(np.array([0.5, 0.5]), 1), 0.6931471805599453, atol=1e-15
        )
        np.testing.assert_allclose(
            cross_entropy(np.array([0.2, 0.3, 0.5]), 0), 1.6094379124341003, atol=1e-15
        )

    def test_zero_probability_is_clamped(self):
        val = cross_entropy(np.array([0.0, 1.0]), 0)
        np.testing.assert_allclose(val, -np.log(EPS))
        assert np.isfinite(val)

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), -1)

    def test_fused_matches_composed(self):
        # composed softmax -> clamp -> -log vs fused log-softmax, 1e-9; the
        # paths only agree while no probability hits the inference clamp
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(200):
            z = rng.normal(0, 3, rng.integers(2, 7))
            label = int(rng.integers(0, z.size))
            if softmax(z).min() <= 1e-10:
                continue
            composed = cross_entropy(softmax(z), label)
            fused = -log_softmax(z)[label]
            np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-9)
            checked += 1
        assert checked > 100

    def test_fused_and_composed_diverge_only_past_the_clamp(self):
        # below the clamp the composed path saturates at -log(EPS) while the
        # fused path keeps growing
        z = np.array([40.0, 0.0])
        composed = cross_entropy(softmax(z), 1)
        fused = -log_softmax(z)[1]
        np.testing.assert_allclose(composed, -np.log(EPS), atol=1e-9)
        np.testing.assert_allclose(fused, 40.0, atol=1e-9)

    def test_log_softmax_is_log_of_softmax(self):
        rng = np.random.default_rng(4)
        z = rng.normal(0, 5, (20, 4))
        np.testing.assert_allclose(log_softmax(z), np.log(softmax(z)), atol=1e-9)


class TestKLPointwise:
    def test_known_values(self):
        # 0.5 log 2 + 0.5 log(2/3) and the degenerate-p case with 0 log 0 = 0
        np.testing.assert_allclose(
            kl_pointwise(np.array([0.5, 0.5]), np.array([0.25, 0.75])),
            0.14384103622589042,
            atol=1e-15,
        )
        np.testing.assert_allclose(
            kl_pointwise(np.array([1.0, 0.0]), np.array([0.5, 0.5])),
            0.6931471805599453,
            atol=1e-15,
        )

    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert kl_pointwise(p, p) == 0.0

    def test_non_negative_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(c))
            q = rng.dirichlet(np.ones(c))
            assert kl_pointwise(p, q) >= 0.0

    def test_zero_q_is_clamped_finite(self):
        val = kl_pointwise(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert np.isfinite(val)
        np.testing.assert_allclose(val, 0.5 * np.log(0.5 / 1.0) + 0.5 * np.log(0.5 / EPS))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            kl_pointwise(np.ones(3) / 3, np.ones(4) / 4)

    def test_map_level_matches_loop(self):
        rng = np.random.default_rng(7)
        p = rng.dirichlet(np.ones(5), size=(4, 6))
        q = rng.dirichlet(np.ones(5), size=(4, 6))
        vec = kl_pointwise(p, q)
        assert vec.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                np.testing.assert_allclose(vec[i, j], kl_pointwise(p[i, j], q[i, j]), atol=1e-12)


class TestEntropy:
    def test_uniform_is_log_c(self):
        np.testing.assert_allclose(entropy(np.full(4, 0.25)), 1.3862943611198906, atol=1e-12)

    def test_onehot_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0

    def test_non_negative(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = rng.dirichlet(np.ones(int(rng.integers(2, 9))))
            assert entropy(p) >= 0.0


class TestFoldedReductions:
    # the inline numpy-reduce formulas the folded class-axis reductions replace
    @staticmethod
    def softmax_ref(z):
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=-1, keepdims=True)

    @staticmethod
    def log_softmax_ref(z):
        z = z - z.max(axis=-1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))

    @staticmethod
    def kl_ref(p, q):
        ratio = np.maximum(p, EPS) / np.maximum(q, EPS)
        out = np.maximum(np.where(p > 0.0, p * np.log(ratio), 0.0).sum(axis=-1), 0.0)
        return float(out) if np.ndim(out) == 0 else out

    @staticmethod
    def entropy_ref(p):
        out = -np.where(p > 0.0, p * np.log(np.maximum(p, EPS)), 0.0).sum(axis=-1)
        return float(out) if np.ndim(out) == 0 else out

    @staticmethod
    def fuse_ref(p, a):
        fused = 0.5 * (p + a)
        return fused / fused.sum(axis=-1, keepdims=True)

    @pytest.mark.parametrize("length", [2, 3, 4, 5, 6, 7, 8, 9, 64])
    @pytest.mark.parametrize("lead", [(), (5,), (3, 11)])
    def test_bit_identical_to_numpy_reduce(self, length, lead):
        rng = np.random.default_rng(length * 10 + len(lead))
        shape = (*lead, length)
        z = rng.normal(0.0, 4.0, shape)
        p = rng.dirichlet(np.ones(length), size=lead)
        q = rng.dirichlet(np.ones(length), size=lead)
        p[..., 0] = 0.0  # the 0 log 0 = 0 branch
        pairs = [
            (softmax(z), self.softmax_ref(z)),
            (log_softmax(z), self.log_softmax_ref(z)),
            (kl_pointwise(p, q), self.kl_ref(p, q)),
            (entropy(p), self.entropy_ref(p)),
            (entropy(q), self.entropy_ref(q)),
            (fuse_predictions(p, q), self.fuse_ref(p, q)),
        ]
        for got, want in pairs:
            assert type(got) is type(want)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_sum_of_negative_zeros_is_positive_zero(self):
        rows = np.array([[-0.0, -0.0, -0.0], [-0.0, 1.0, -1.0]])
        assert np.array_equal(np.signbit(_fold_sum(rows)), np.signbit(rows.sum(axis=-1)))


class TestFiniteDifference:
    def test_quadratic_gradient(self):
        # f(x) = x.Ax/2 + b.x has gradient (A+A.T)x/2 + b
        rng = np.random.default_rng(9)
        a = rng.normal(0, 1, (5, 5))
        b = rng.normal(0, 1, 5)
        x = rng.normal(0, 1, 5)

        def f(v):
            return 0.5 * v @ a @ v + b @ v

        expected = 0.5 * (a + a.T) @ x + b
        got = finite_difference_gradient(f, x, eps=1e-5)
        np.testing.assert_allclose(got, expected, rtol=1e-6, atol=1e-8)

    def test_does_not_mutate_input(self):
        x = np.ones(3)
        finite_difference_gradient(lambda v: float(v.sum() ** 2), x)
        np.testing.assert_array_equal(x, np.ones(3))

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda v: 0.0, np.ones(2), eps=0.0)

    def test_non_finite_evaluation(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda v: float("nan"), np.ones(2))
