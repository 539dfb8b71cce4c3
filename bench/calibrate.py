"""Reference kernel that measures how fast this machine runs right now.

The box the benchmark runs on is shared, and its speed drifts: the same
sweep execution measured 2.5 s and 3.9 s within two minutes, with CPU time
moving as much as wall time, so it is not waiting but slower execution.
Times are therefore reported at a reference speed: each measured time is
multiplied by ``REFERENCE_S / k``, where ``k`` is the time this kernel took
right before and after the measurement.

The kernel is plain numpy written here, independent of boostadapt, so a
change to the program leaves it alone. It is shaped like the program's
per-image work so that drift slows both alike: unpacking a flat parameter
vector, the two-stage per-pixel network's forward (3x3 im2col, matmuls,
tanh, two softmax heads), a fused-argmax confusion count, the backward
(col2im scatter-add) and an SGD step, one image at a time over a dataset.
The match is not perfect: under heavy load the program still slows a little
more than the kernel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

REFERENCE_S = 0.25  # kernel time that defines the reference speed
KERNEL_PIXELS = 500 * 16 * 16  # work per measurement, in image-pixel passes
FEATURES, HIDDEN, CLASSES, IMAGES = 3, 8, 4, 64


def _softmax(logits: np.ndarray) -> np.ndarray:
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class _Cache:
    cols: np.ndarray
    act1: np.ndarray
    act2: np.ndarray
    probs_a: np.ndarray
    probs_p: np.ndarray


SHAPES = ((FEATURES, HIDDEN), (HIDDEN,), (9 * HIDDEN, HIDDEN), (HIDDEN,),
          (HIDDEN, CLASSES), (CLASSES,), (HIDDEN, CLASSES), (CLASSES,))


def kernel_seconds(height: int, width: int) -> float:
    """Wall time of a fixed amount of model-like work on (height, width) images."""
    rng = np.random.default_rng(0)
    images = rng.standard_normal((IMAGES, height, width, FEATURES))
    labels = rng.integers(0, CLASSES, (IMAGES, height * width))
    offsets = np.cumsum([0] + [int(np.prod(shape)) for shape in SHAPES])
    params = rng.uniform(-0.3, 0.3, offsets[-1])
    rows = np.arange(height * width)
    iterations = max(1, round(KERNEL_PIXELS / (height * width)))
    start = time.perf_counter()
    for i in range(iterations):
        if not np.all(np.isfinite(params)):
            raise FloatingPointError("calibration kernel diverged")
        w1, b1, w2, b2, wa, ba, wp, bp = (
            params[lo:hi].reshape(shape) for shape, lo, hi in zip(SHAPES, offsets[:-1], offsets[1:])
        )
        image = np.asarray(images[i % IMAGES], dtype=np.float64)
        label = labels[i % IMAGES]
        act1 = np.tanh(image.reshape(-1, FEATURES) @ w1 + b1)
        padded = np.zeros((height + 2, width + 2, HIDDEN))
        padded[1:-1, 1:-1] = act1.reshape(height, width, HIDDEN)
        cols = np.empty((height, width, 3, 3, HIDDEN))
        for dy in range(3):
            for dx in range(3):
                cols[:, :, dy, dx, :] = padded[dy : dy + height, dx : dx + width]
        cols = cols.reshape(height * width, -1)
        act2 = np.tanh(cols @ w2 + b2)
        cache = _Cache(cols, act1, act2, _softmax(act1 @ wa + ba), _softmax(act2 @ wp + bp))
        pred = np.argmax(0.5 * (cache.probs_a + cache.probs_p), axis=-1)
        np.bincount(label * CLASSES + pred, minlength=CLASSES * CLASSES)
        dlogits = cache.probs_p.copy()
        dlogits[rows, label] -= 1.0
        d_pre2 = (dlogits @ wp.T) * (1.0 - cache.act2**2)
        d_cols = (d_pre2 @ w2.T).reshape(height, width, 3, 3, HIDDEN)
        d_padded = np.zeros((height + 2, width + 2, HIDDEN))
        for dy in range(3):
            for dx in range(3):
                d_padded[dy : dy + height, dx : dx + width] += d_cols[:, :, dy, dx, :]
        d_pre1 = d_padded[1:-1, 1:-1].reshape(-1, HIDDEN) * (1.0 - cache.act1**2)
        grads = (
            image.reshape(-1, FEATURES).T @ d_pre1, d_pre1.sum(axis=0),
            cache.cols.T @ d_pre2, d_pre2.sum(axis=0),
            np.zeros_like(wa), np.zeros_like(ba),
            cache.act2.T @ dlogits, dlogits.sum(axis=0),
        )
        params = params - 1e-6 * np.concatenate([g.ravel() for g in grads])
    return time.perf_counter() - start
