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
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DivergenceError
from .numerics import EPS, _fold_sum, log_softmax, softmax


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
    cols = np.empty((*lead, h, w, k, k, d))
    for dy in range(k):
        for dx in range(k):
            cols[..., dy, dx, :] = padded[..., dy : dy + h, dx : dx + w, :]
    return cols.reshape(*lead, h * w, k * k * d)


def _col2im(cols: np.ndarray, h: int, w: int, d: int, radius: int) -> np.ndarray:
    """Scatter-add adjoint of ``_im2col``: (..., H*W, k*k*D) -> (..., H, W, D);
    leading axes are carried through."""
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


# Budget for the stage-2 im2col columns of one chunk of images, in training
# and in eval mode: with the chunk's other activations it stays inside a
# 2 MiB L2 cache.
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
    logits_a: np.ndarray
    logits_p: np.ndarray


class TwoHeadModel:
    """Architecture object: owns the flat parameter layout and all math."""

    def __init__(self, config: ModelConfig) -> None:
        self.config = config
        c = config
        self.k1 = 2 * c.r_aux + 1
        self.k2 = 2 * c.r_primary + 1
        in1 = self.k1 * self.k1 * c.features
        in2 = self.k2 * self.k2 * c.hidden1
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

    def _check_image(self, image: np.ndarray, stack: bool = False) -> np.ndarray:
        """One (H, W, F) image, or with ``stack`` also an (N, H, W, F) stack."""
        c = self.config
        image = np.asarray(image, dtype=np.float64)
        shape = (c.height, c.width, c.features)
        if image.shape[-3:] != shape or image.ndim not in ((3, 4) if stack else (3,)):
            raise ValueError(f"expected image of shape {shape}, got {image.shape}")
        return image

    def _forward_cache(
        self,
        params: np.ndarray,
        image: np.ndarray,
        masks: tuple[np.ndarray | None, np.ndarray | None],
    ) -> _ForwardCache:
        c = self.config
        w1, b1, w2, b2, wa, ba, wp, bp = self._unpack(params)
        mask_a, mask_p = masks
        patches1 = _im2col(image, c.r_aux)
        act1 = np.tanh(patches1 @ w1 + b1)
        lead = image.shape[:-3]
        patches2 = _im2col(act1.reshape(*lead, c.height, c.width, c.hidden1), c.r_primary)
        act2 = np.tanh(patches2 @ w2 + b2)
        head_in_a = act1 if mask_a is None else act1 * mask_a
        head_in_p = act2 if mask_p is None else act2 * mask_p
        logits_a = head_in_a @ wa + ba
        logits_p = head_in_p @ wp + bp
        return _ForwardCache(
            patches1=patches1,
            act1=act1,
            patches2=patches2,
            act2=act2,
            head_in_a=head_in_a,
            head_in_p=head_in_p,
            probs_a=softmax(logits_a),
            probs_p=softmax(logits_p),
            logits_a=logits_a,
            logits_p=logits_p,
        )

    def _backward(
        self,
        params: np.ndarray,
        cache: _ForwardCache,
        dlogits_p: np.ndarray,
        dlogits_a: np.ndarray | None,
        masks: tuple[np.ndarray | None, np.ndarray | None],
    ) -> np.ndarray:
        """Gradient rows, one per image of the cached (m, ...) stack, of a
        loss given dloss/dlogits of both heads, each (m, H*W, C).

        Stacked matmuls run one gemm per image, so each row equals the
        single-image gradient bit for bit. ``dlogits_a=None`` means the aux
        head gets no gradient: its matmuls are skipped and its rows are zero.
        """
        c = self.config
        w1, b1, w2, b2, wa, ba, wp, bp = self._unpack(params)
        mask_a, mask_p = masks
        m = dlogits_p.shape[0]

        g_wp = np.swapaxes(cache.head_in_p, -1, -2) @ dlogits_p
        g_bp = dlogits_p.sum(axis=-2)
        d_head_p = dlogits_p @ wp.T

        d_act2 = d_head_p if mask_p is None else d_head_p * mask_p
        d_pre2 = d_act2 * (1.0 - cache.act2**2)
        g_w2 = np.swapaxes(cache.patches2, -1, -2) @ d_pre2
        g_b2 = d_pre2.sum(axis=-2)
        d_patches2 = d_pre2 @ w2.T

        d_act1 = _col2im(
            d_patches2, c.height, c.width, c.hidden1, c.r_primary
        ).reshape(m, -1, c.hidden1)
        if dlogits_a is None:
            g_wa = np.zeros((m, *wa.shape))
            g_ba = np.zeros((m, *ba.shape))
        else:
            g_wa = np.swapaxes(cache.head_in_a, -1, -2) @ dlogits_a
            g_ba = dlogits_a.sum(axis=-2)
            d_head_a = dlogits_a @ wa.T
            d_act1 = d_act1 + (d_head_a if mask_a is None else d_head_a * mask_a)
        d_pre1 = d_act1 * (1.0 - cache.act1**2)
        g_w1 = np.swapaxes(cache.patches1, -1, -2) @ d_pre1
        g_b1 = d_pre1.sum(axis=-2)

        return np.concatenate(
            [g.reshape(m, -1) for g in (g_w1, g_b1, g_w2, g_b2, g_wa, g_ba, g_wp, g_bp)],
            axis=1,
        )

    def forward(
        self, params: np.ndarray, image: np.ndarray, dropout_seed: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-pixel class probabilities, (primary, aux), each (H, W, C).

        ``image`` may also be an (N, H, W, F) stack, giving (N, H, W, C) maps
        equal bit for bit to N single-image calls. ``dropout_seed=None`` is
        eval mode (dropout off); an integer seed draws the train-mode head
        masks deterministically, shared by every image of a stack.
        """
        c = self.config
        image = self._check_image(image, stack=True)
        cache = self._forward_cache(params, image, self._head_masks(dropout_seed))
        shape = (*image.shape[:-3], c.height, c.width, c.classes)
        return cache.probs_p.reshape(shape), cache.probs_a.reshape(shape)

    def forward_chunks(
        self, params: np.ndarray, images: Sequence[np.ndarray]
    ) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
        """Eval-mode ``forward`` over a dataset, ``chunk`` images at a
        time: yields (slice of ``images``, primary, aux) per chunk, so the
        caller reduces each chunk before the next one is computed."""
        for lo in range(0, len(images), self.chunk):
            span = slice(lo, lo + self.chunk)
            primary, aux = self.forward(params, images[span])
            yield span, primary, aux

    def _check_labels(self, labels: np.ndarray) -> np.ndarray:
        c = self.config
        labels = np.asarray(labels)
        if labels.shape != (c.height, c.width):
            raise ValueError(
                f"expected label map of shape {(c.height, c.width)}, got {labels.shape}"
            )
        if labels.min() < 0 or labels.max() >= c.classes:
            raise IndexError("label out of class range")
        return labels.astype(np.int64)

    def value_and_grad(
        self,
        params: np.ndarray,
        images: Sequence[np.ndarray],
        head_terms: Callable[
            [slice, _ForwardCache], tuple[np.ndarray, np.ndarray, np.ndarray | None]
        ],
        dropout_seed: int | None = None,
    ) -> tuple[float, np.ndarray]:
        """Sum of per-image loss terms over ``images`` and its gradient.

        The one training forward/backward loop. ``images`` are forwarded
        ``chunk`` at a time as stacks; for each ``span`` of ``images``,
        ``head_terms(span, cache)`` gets the stacked cache and returns the
        span's per-image loss terms, (m,), and dloss/dlogits of the primary
        and aux heads, each (m, H*W, C); an aux ``None`` skips the aux head's
        backward. Terms and per-image gradients are summed in image order,
        so the result equals a one-image-at-a-time loop bit for bit. The head
        masks of ``dropout_seed`` (None: eval mode) are drawn once per call.
        """
        if not np.all(np.isfinite(params)):
            raise DivergenceError("non-finite parameters")
        masks = self._head_masks(dropout_seed)
        total = 0.0
        grad = np.zeros(self.param_count)
        for lo in range(0, len(images), self.chunk):
            span = slice(lo, lo + self.chunk)
            stack = np.stack([self._check_image(image) for image in images[span]])
            cache = self._forward_cache(params, stack, masks)
            terms, dlogits_p, dlogits_a = head_terms(span, cache)
            rows = self._backward(params, cache, dlogits_p, dlogits_a, masks)
            for term, row in zip(terms, rows):
                total += term
                grad += row
        return float(total), grad

    def loss_and_grad(
        self,
        params: np.ndarray,
        batch: Sequence[tuple[np.ndarray, np.ndarray]],
        aux_weight: float | None = None,
        dropout_seed: int | None = None,
    ) -> tuple[float, np.ndarray]:
        """Mean over batch of (pixel-mean primary CE + aux_weight * aux CE),
        through the fused log-softmax path, and its gradient."""
        if len(batch) == 0:
            raise ValueError("empty batch")
        lam = self.config.aux_loss_weight if aux_weight is None else aux_weight
        n_pix = self.config.height * self.config.width
        n = len(batch)
        flats = np.stack([self._check_labels(labels).reshape(-1) for _, labels in batch])

        def head_terms(span: slice, cache: _ForwardCache) -> tuple[np.ndarray, ...]:
            picks = flats[span][..., None]  # (m, H*W, 1)
            ce_p, ce_a = (
                -np.take_along_axis(log_softmax(logits), picks, -1)[..., 0].mean(axis=-1)
                for logits in (cache.logits_p, cache.logits_a)
            )
            onehot = np.zeros_like(cache.probs_p)
            np.put_along_axis(onehot, picks, 1.0, -1)
            dlogits_p = (cache.probs_p - onehot) / (n_pix * n)
            dlogits_a = lam * (cache.probs_a - onehot) / (n_pix * n)
            return (ce_p + lam * ce_a) / n, dlogits_p, dlogits_a

        images = [image for image, _ in batch]
        return self.value_and_grad(params, images, head_terms, dropout_seed)

    def grad_step(
        self,
        params: np.ndarray,
        batch: Sequence[tuple[np.ndarray, np.ndarray]],
        lr: float,
        aux_weight: float | None = None,
        dropout_seed: int | None = None,
    ) -> tuple[np.ndarray, float]:
        """One SGD step on a labeled batch. Returns (new params, loss)."""
        if lr < 0.0:
            raise ValueError("lr must be >= 0")
        loss, grad = self.loss_and_grad(params, batch, aux_weight, dropout_seed)
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss!r} in grad_step")
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
