"""Toy two-headed per-pixel classifier with hand-written gradients.

The network is a stand-in for a large segmentation backbone, small enough to
finite-difference. Stage 1 maps the zero-padded (2*r_aux+1)^2 neighborhood of
input features at each pixel through a dense layer + tanh; stage 2 does the
same over the (2*r_primary+1)^2 neighborhood of stage-1 activations. An
auxiliary classifier head reads stage 1, the primary head reads stage 2, and
dropout (inverted scaling) is applied to head inputs only in train mode.

Parameters live in one flat float64 vector so snapshots can be averaged and
serialized as plain arrays. Layout, in order: trunk stage-1 weights and bias,
trunk stage-2 weights and bias, aux-head weights and bias, primary-head
weights and bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import DivergenceError, check_finite_fields
from .numerics import EPS, _fold_sum, _softmax_parts_in_place


@dataclass(frozen=True)
class ModelConfig:
    height: int = 16
    width: int = 16
    features: int = 3
    classes: int = 4
    hidden1: int = 8
    hidden2: int = 8
    dropout_rate: float = 0.2
    aux_loss_weight: float = 0.5
    r_aux: int = 0
    r_primary: int = 1

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if min(self.height, self.width, self.features) < 1:
            raise ValueError("height, width, features must be >= 1")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if min(self.hidden1, self.hidden2) < 1:
            raise ValueError("hidden widths must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.aux_loss_weight < 0.0:
            raise ValueError("aux_loss_weight must be >= 0")
        if self.r_aux < 0 or self.r_primary <= self.r_aux:
            # the aux head must see a strictly smaller receptive field
            raise ValueError("need 0 <= r_aux < r_primary")


def _im2col(grid: np.ndarray, radius: int) -> np.ndarray:
    """(..., H, W, D) -> (..., H*W, k*k*D) zero-padded square neighborhoods,
    k = 2r+1; leading axes (an image stack) are carried through."""
    *lead, h, w, d = grid.shape
    if radius == 0:
        return grid.reshape(*lead, h * w, d)
    k = 2 * radius + 1
    padded = np.zeros((*lead, h + 2 * radius, w + 2 * radius, d))
    padded[..., radius : radius + h, radius : radius + w, :] = grid
    # (..., H, W, k, k*D) read-only view: the k pixels of one neighborhood
    # row are adjacent in the padded grid, so each row is one run of k*D
    # floats
    *lead_strides, row, pixel, _ = padded.strides
    view = np.ndarray(
        (*lead, h, w, k, k * d),
        padded.dtype,
        buffer=padded,
        strides=(*lead_strides, row, pixel, row, padded.itemsize),
    )
    view.flags.writeable = False
    return view.reshape(*lead, h * w, k * k * d)


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``x @ weight + bias``, the bias added in place."""
    out = x @ weight
    out += bias
    return out


def _tanh_layer(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """``np.tanh(x @ weight + bias)`` in one array."""
    out = _affine(x, weight, bias)
    return np.tanh(out, out=out)


def _finite(logits: np.ndarray) -> np.ndarray:
    """``logits``, checked: finite parameters whose logits overflow diverge."""
    if not np.all(np.isfinite(logits)):
        raise DivergenceError("non-finite logits")
    return logits


def _bias_grad(d: np.ndarray) -> np.ndarray:
    """``d.sum(axis=-2)`` of an (m, rows, D) stack, bit for bit: einsum
    adds the rows in the same order, without numpy's per-row reduce loop."""
    return np.einsum("mij->mj", d)


def _tanh_backward(d_act: np.ndarray, act: np.ndarray) -> np.ndarray:
    """``d_act * (1 - act**2)``, written into ``d_act``."""
    slope = np.square(act)
    np.subtract(1.0, slope, out=slope)
    d_act *= slope
    return d_act


def _conv_input_grad(dout: np.ndarray, weight: np.ndarray, radius: int) -> np.ndarray:
    """Gradient with respect to ``grid`` of ``_im2col(grid, radius) @ weight``,
    given its gradient ``dout``: (..., H, W, D_out) -> (..., H*W, D). It is
    the convolution of ``dout`` with ``weight`` rotated 180 degrees, its
    channels swapped, so the forward's gather and one gemm per image; each
    entry is one k*k*D_out-term dot product."""
    k = 2 * radius + 1
    d_out = weight.shape[-1]
    rotated = weight.reshape(k, k, -1, d_out)[::-1, ::-1].transpose(0, 1, 3, 2)
    return _im2col(dout, radius) @ rotated.reshape(k * k * d_out, -1)


# Budget for the stage-2 im2col columns of one chunk of images, in training
# and in eval mode: with the chunk's other activations it stays inside a
# 2 MiB L2 cache. A training backward holds a second column buffer, the
# gather of the stage-2 gradient, beside the cached columns; at 16x16 stacks
# of 7 to 14 images that showed no cache cliff.
CHUNK_BYTES = 1 << 20


@dataclass
class _ForwardCache:
    patches1: np.ndarray
    act1: np.ndarray
    patches2: np.ndarray
    act2: np.ndarray
    head_in_a: np.ndarray
    head_in_p: np.ndarray
    probs_a: np.ndarray
    probs_p: np.ndarray
    # each head's softmax intermediates: the max-shifted logits and the
    # per-pixel normalizer, from which the training loss takes log-softmax
    shifted_a: np.ndarray
    shifted_p: np.ndarray
    norm_a: np.ndarray
    norm_p: np.ndarray
    # what the stack was forwarded with, for its backward
    weights: list[np.ndarray]
    masks: tuple[np.ndarray | None, np.ndarray | None]


class TwoHeadModel:
    """Architecture object: owns the flat parameter layout and all math."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        c = config
        in1 = (2 * c.r_aux + 1) ** 2 * c.features
        in2 = (2 * c.r_primary + 1) ** 2 * c.hidden1
        # (name, shape, fan_in) in flat-layout order
        self._sections = [
            ("w1", (in1, c.hidden1), in1),
            ("b1", (c.hidden1,), in1),
            ("w2", (in2, c.hidden2), in2),
            ("b2", (c.hidden2,), in2),
            ("wa", (c.hidden1, c.classes), c.hidden1),
            ("ba", (c.classes,), c.hidden1),
            ("wp", (c.hidden2, c.classes), c.hidden2),
            ("bp", (c.classes,), c.hidden2),
        ]
        offsets = np.cumsum([0] + [int(np.prod(s)) for _, s, _ in self._sections])
        self._offsets = offsets
        self.param_count = int(offsets[-1])
        # images per stack of ``forward_chunks`` and ``value_and_grad``:
        # 7 at 16x16, 1 at 32x32 with the default widths
        col_bytes = c.height * c.width * in2 * np.dtype(np.float64).itemsize
        self.chunk = max(1, CHUNK_BYTES // col_bytes)

    def init_params(self, seed: int) -> np.ndarray:
        """Scaled-uniform init, bound 1/sqrt(fan_in) per layer. Deterministic."""
        rng = np.random.default_rng(seed)
        out = np.empty(self.param_count)
        for (name, shape, fan_in), lo, hi in zip(
            self._sections, self._offsets[:-1], self._offsets[1:]
        ):
            bound = 1.0 / np.sqrt(fan_in)
            out[lo:hi] = rng.uniform(-bound, bound, hi - lo)
        return out

    def _unpack(self, params: np.ndarray) -> list[np.ndarray]:
        if params.shape != (self.param_count,):
            raise ValueError(
                f"expected parameter vector of length {self.param_count}, "
                f"got shape {params.shape}"
            )
        return [
            params[lo:hi].reshape(shape)
            for (name, shape, fan), lo, hi in zip(
                self._sections, self._offsets[:-1], self._offsets[1:]
            )
        ]

    def _head_masks(self, dropout_seed: int | None) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Inverted-dropout masks, one per head, shared across pixels and batch."""
        rate = self.config.dropout_rate
        if dropout_seed is None or rate == 0.0:
            return None, None
        rng = np.random.default_rng(dropout_seed)
        keep = 1.0 - rate
        mask_a = (rng.random(self.config.hidden1) < keep).astype(np.float64) / keep
        mask_p = (rng.random(self.config.hidden2) < keep).astype(np.float64) / keep
        return mask_a, mask_p

    def _check_images(self, images: np.ndarray) -> np.ndarray:
        """An (N, H, W, F) float64 image stack."""
        c = self.config
        images = np.asarray(images)
        shape = (c.height, c.width, c.features)
        if images.ndim != 4 or images.shape[1:] != shape or images.dtype != np.float64:
            raise ValueError(
                f"expected a float64 stack of images of shape {shape}, "
                f"got {images.dtype} {images.shape}"
            )
        return images

    def _forward_cache(
        self,
        params: np.ndarray,
        image: np.ndarray,
        masks: tuple[np.ndarray | None, np.ndarray | None],
    ) -> _ForwardCache:
        c = self.config
        weights = self._unpack(params)
        w1, b1, w2, b2, wa, ba, wp, bp = weights
        mask_a, mask_p = masks
        patches1 = _im2col(image, c.r_aux)
        act1 = _tanh_layer(patches1, w1, b1)
        lead = image.shape[:-3]
        patches2 = _im2col(act1.reshape(*lead, c.height, c.width, c.hidden1), c.r_primary)
        act2 = _tanh_layer(patches2, w2, b2)
        head_in_a = act1 if mask_a is None else act1 * mask_a
        head_in_p = act2 if mask_p is None else act2 * mask_p
        # each softmax overwrites its logits with the shifted logits
        probs_a, shifted_a, norm_a = _softmax_parts_in_place(_finite(_affine(head_in_a, wa, ba)))
        probs_p, shifted_p, norm_p = _softmax_parts_in_place(_finite(_affine(head_in_p, wp, bp)))
        return _ForwardCache(
            patches1=patches1,
            act1=act1,
            patches2=patches2,
            act2=act2,
            head_in_a=head_in_a,
            head_in_p=head_in_p,
            probs_a=probs_a,
            probs_p=probs_p,
            shifted_a=shifted_a,
            shifted_p=shifted_p,
            norm_a=norm_a,
            norm_p=norm_p,
            weights=weights,
            masks=masks,
        )

    def _backward(
        self, cache: _ForwardCache, dlogits_p: np.ndarray, dlogits_a: np.ndarray | None
    ) -> np.ndarray:
        """Gradient rows, one per image of the cached (m, ...) stack, of a
        loss given dloss/dlogits of both heads, each (m, H*W, C), at the
        weights and head masks the stack was forwarded with.

        Stacked matmuls run one gemm per image, so each row equals the
        single-image gradient bit for bit. ``dlogits_a=None`` means the aux
        head gets no gradient: its matmuls are skipped and its rows are zero.
        """
        c = self.config
        w1, b1, w2, b2, wa, ba, wp, bp = cache.weights
        mask_a, mask_p = cache.masks
        m = dlogits_p.shape[0]

        g_wp = np.swapaxes(cache.head_in_p, -1, -2) @ dlogits_p
        g_bp = _bias_grad(dlogits_p)
        d_act2 = dlogits_p @ wp.T
        if mask_p is not None:
            d_act2 *= mask_p
        d_pre2 = _tanh_backward(d_act2, cache.act2)
        g_w2 = np.swapaxes(cache.patches2, -1, -2) @ d_pre2
        g_b2 = _bias_grad(d_pre2)
        d_act1 = _conv_input_grad(
            d_pre2.reshape(m, c.height, c.width, c.hidden2), w2, c.r_primary
        )
        if dlogits_a is None:
            g_wa = np.zeros((m, *wa.shape))
            g_ba = np.zeros((m, *ba.shape))
        else:
            g_wa = np.swapaxes(cache.head_in_a, -1, -2) @ dlogits_a
            g_ba = _bias_grad(dlogits_a)
            d_head_a = dlogits_a @ wa.T
            if mask_a is not None:
                d_head_a *= mask_a
            d_act1 += d_head_a
        d_pre1 = _tanh_backward(d_act1, cache.act1)
        g_w1 = np.swapaxes(cache.patches1, -1, -2) @ d_pre1
        g_b1 = _bias_grad(d_pre1)

        return np.concatenate(
            [g.reshape(m, -1) for g in (g_w1, g_b1, g_w2, g_b2, g_wa, g_ba, g_wp, g_bp)],
            axis=1,
        )

    def forward(self, params: np.ndarray, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eval-mode per-pixel class probabilities of an (N, H, W, F) image
        stack, (primary, aux), each (N, H, W, C), equal bit for bit to N
        one-image calls. Train mode, with head masks, runs only inside
        ``value_and_grad``.
        """
        c = self.config
        images = self._check_images(images)
        cache = self._forward_cache(params, images, (None, None))
        shape = (len(images), c.height, c.width, c.classes)
        return cache.probs_p.reshape(shape), cache.probs_a.reshape(shape)

    def forward_chunks(
        self, params: np.ndarray, images: np.ndarray
    ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """Eval-mode ``forward`` over a dataset, ``chunk`` images at a
        time: yields (slice of ``images``, primary, aux) per chunk, so the
        caller reduces each chunk before the next one is computed."""
        for lo in range(0, len(images), self.chunk):
            span = slice(lo, lo + self.chunk)
            primary, aux = self.forward(params, images[span])
            yield span, primary, aux

    def value_and_grad(
        self,
        params: np.ndarray,
        images: np.ndarray,
        head_terms: Callable[
            [np.ndarray, _ForwardCache], tuple[np.ndarray, np.ndarray, np.ndarray | None]
        ],
        dropout_seed: int | None = None,
        targets: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Sum of per-image loss terms over an (N, H, W, F) image stack and
        its gradient.

        The one training forward/backward loop, and the one place that
        decides which inputs are equal. ``targets``, if given, is an array
        with one row per image of the per-image data the loss reads (e.g.
        one-hot labels). Two positions hold one input when their image
        bytes and their ``targets`` rows are equal; each input is forwarded
        and back-propagated once, at its first position. Inputs go
        ``chunk`` at a time as stacks; for each stack,
        ``head_terms(rows, cache)`` gets the stack's ``targets`` rows (empty
        rows without ``targets``) and the stacked cache, and returns their
        per-image loss terms, (m,), and dloss/dlogits of the primary and aux
        heads, each (m, H*W, C); an aux ``None`` skips the aux head's
        backward. The term and gradient row of each input are then added at
        every position that holds it, in position order, so the result
        equals a one-image-at-a-time loop over all positions bit for bit.
        The head masks of ``dropout_seed`` (None: eval mode) are drawn once
        per call, so equal inputs compute alike.
        """
        if not np.all(np.isfinite(params)):
            raise DivergenceError("non-finite parameters")
        images = self._check_images(images)
        n = len(images)
        targets = np.empty((n, 0)) if targets is None else targets
        if len(targets) != n:
            raise ValueError(f"{len(targets)} targets rows for {n} images")
        # the first position that holds each position's input
        seen: dict[tuple[bytes, bytes], int] = {}
        first = [
            seen.setdefault((x.tobytes(), row.tobytes()), i)
            for i, (x, row) in enumerate(zip(images, targets))
        ]
        distinct = np.array(list(seen.values()), dtype=np.intp)
        masks = self._head_masks(dropout_seed)
        terms = np.zeros(n)
        grads = np.zeros((n, self.param_count))
        for lo in range(0, len(distinct), self.chunk):
            at = distinct[lo : lo + self.chunk]
            cache = self._forward_cache(params, images[at], masks)
            at_terms, dlogits_p, dlogits_a = head_terms(targets[at], cache)
            terms[at] = at_terms
            grads[at] = self._backward(cache, dlogits_p, dlogits_a)
        total = 0.0
        grad = np.zeros(self.param_count)
        for i in first:
            total += terms[i]
            grad += grads[i]
        return float(total), grad

    def loss_and_grad(
        self,
        params: np.ndarray,
        images: np.ndarray,
        labels: np.ndarray,
        dropout_seed: int | None = None,
    ) -> tuple[float, np.ndarray]:
        """Mean over an (N, H, W, F) image stack and its (N, H, W) label
        stack of (pixel-mean primary CE + aux_loss_weight * aux CE), and its
        gradient. The CE is log-softmax at the label, read off the forward's
        shifted logits and normalizer: the bits of ``log_softmax`` without a
        second pass over the logits."""
        c = self.config
        labels = np.asarray(labels)
        if labels.ndim != 3 or labels.shape[1:] != (c.height, c.width):
            raise ValueError(
                f"expected a stack of label maps of shape {(c.height, c.width)}, "
                f"got {labels.shape}"
            )
        n = len(labels)
        if n == 0:
            raise ValueError("empty batch")
        if labels.min() < 0 or labels.max() >= c.classes:
            raise IndexError("label out of class range")
        lam = c.aux_loss_weight
        n_pix = c.height * c.width
        # (n, H*W, C) one-hot; value_and_grad checks one row per image
        hot = labels.reshape(n, n_pix, 1) == np.arange(c.classes)

        def head_terms(onehot: np.ndarray, cache: _ForwardCache) -> tuple[np.ndarray, ...]:
            m = len(onehot)
            ce_p, ce_a = (
                -(shifted[onehot].reshape(m, -1) - np.log(norm)).mean(axis=-1)
                for shifted, norm in (
                    (cache.shifted_p, cache.norm_p),
                    (cache.shifted_a, cache.norm_a),
                )
            )
            dlogits_p = (cache.probs_p - onehot) / (n_pix * n)
            dlogits_a = lam * (cache.probs_a - onehot) / (n_pix * n)
            return (ce_p + lam * ce_a) / n, dlogits_p, dlogits_a

        return self.value_and_grad(params, images, head_terms, dropout_seed, hot)

    def grad_step(
        self,
        params: np.ndarray,
        images: np.ndarray,
        labels: np.ndarray,
        lr: float,
        dropout_seed: int | None = None,
        term: tuple[float, np.ndarray] | None = None,
    ) -> tuple[np.ndarray, float]:
        """One SGD step on a labeled image stack plus an optional (loss,
        gradient) ``term``, e.g. a regularizer's. Returns (new params, total
        loss)."""
        if lr < 0.0:
            raise ValueError("lr must be >= 0")
        loss, grad = self.loss_and_grad(params, images, labels, dropout_seed)
        if term is not None:
            term_loss, term_grad = term
            if term_grad.shape != (self.param_count,):
                raise ValueError(f"term gradient shape {term_grad.shape} != ({self.param_count},)")
            loss, grad = loss + term_loss, grad + term_grad
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss!r}")
        return params - lr * grad, loss


def source_loss(
    primary: np.ndarray, aux: np.ndarray, labels: np.ndarray, aux_weight: float
) -> float:
    """Pixel-mean cross-entropy on both probability maps, aux scaled by ``aux_weight``.

    Inference-path form composed from probabilities (clamped at EPS); the
    training loop uses the fused logits path inside ``TwoHeadModel``.
    """
    primary = np.asarray(primary, dtype=np.float64)
    aux = np.asarray(aux, dtype=np.float64)
    labels = np.asarray(labels)
    if primary.shape != aux.shape or primary.shape[:2] != labels.shape:
        raise ValueError("probability maps and label map shapes disagree")
    if labels.min() < 0 or labels.max() >= primary.shape[-1]:
        raise IndexError("label out of class range")
    flat = labels.reshape(-1).astype(np.int64)
    rows = np.arange(flat.size)
    c = primary.shape[-1]
    ce_p = -np.log(np.maximum(primary.reshape(-1, c)[rows, flat], EPS)).mean()
    ce_a = -np.log(np.maximum(aux.reshape(-1, c)[rows, flat], EPS)).mean()
    return float(ce_p + aux_weight * ce_a)


def fuse_predictions(primary: np.ndarray, aux: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the two probability maps, renormalized per pixel."""
    primary = np.asarray(primary, dtype=np.float64)
    aux = np.asarray(aux, dtype=np.float64)
    if primary.shape != aux.shape:
        raise ValueError(f"shape mismatch: {primary.shape} vs {aux.shape}")
    fused = 0.5 * (primary + aux)
    return fused / _fold_sum(fused)[..., None]


def poly_lr(iteration: int, total_iterations: int, lr0: float, power: float = 0.9) -> float:
    """Polynomial decay lr0 * (1 - iteration/total)**power."""
    if lr0 <= 0.0:
        raise ValueError("lr0 must be positive")
    if total_iterations < 1:
        raise ValueError("total_iterations must be >= 1")
    if not 0 <= iteration <= total_iterations:
        raise ValueError(
            f"iteration {iteration} outside [0, {total_iterations}]"
        )
    return float(lr0 * (1.0 - iteration / total_iterations) ** power)
