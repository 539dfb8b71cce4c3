"""Synthetic source/target domain pair with a controllable feature shift.

Each image is a label geometry (voronoi blobs, oriented stripes, or a
checkerboard) rendered to features: pixel features = class signature vector
plus isotropic Gaussian noise. Target images use the same signatures scaled
by a contrast factor, shifted per channel, and re-noised, so the two domains
share semantics but not feature statistics. Target labels are generated for
evaluation only.

Determinism: signatures, label geometries, and noise come from three fixed
substreams of ``ShiftConfig.seed``; draw order is all source label maps,
all target label maps, then source noise, then target noise.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, FormatError, check_finite_fields
from .paramio import write_atomic
from .rng import substream

GEOMETRIES = ("blobs", "stripes", "checker")

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = "domain-pair"
_MANIFEST_VERSION = 2
# the array file dtypes ``export_domain_pair`` writes
_DTYPES = ("<f8", "<i8")


@dataclass(frozen=True)
class ShiftConfig:
    height: int = 16
    width: int = 16
    features: int = 3
    classes: int = 4
    source_count: int = 64
    target_count: int = 64
    geometry: str = "blobs"
    # default shift: 1.5 * noise_std on channel 0 plus 0.5x contrast
    feature_mean_shift: tuple[float, ...] = (0.375, 0.0, 0.0)
    feature_noise_std: float = 0.25
    contrast_scale: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        check_finite_fields(self)
        if min(self.height, self.width, self.features) < 1:
            raise ValueError("height, width, features must be >= 1")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if min(self.source_count, self.target_count) < 1:
            raise ValueError("dataset sizes must be >= 1")
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}; known: {GEOMETRIES}")
        if len(self.feature_mean_shift) != self.features:
            raise ValueError(
                f"feature_mean_shift has {len(self.feature_mean_shift)} entries "
                f"for {self.features} features"
            )
        if self.feature_noise_std < 0.0:
            raise ValueError("feature_noise_std must be >= 0")
        if self.contrast_scale <= 0.0:
            raise ValueError("contrast_scale must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        # tolerate lists from JSON
        object.__setattr__(
            self, "feature_mean_shift", tuple(float(v) for v in self.feature_mean_shift)
        )


_ARRAY_FIELDS = (
    "source_images",
    "source_labels",
    "target_images",
    "target_labels_heldout",
)


@dataclass(frozen=True)
class DomainPair:
    """Both domains; the arrays are read-only, so runs can share one pair
    and a write into it raises instead of leaking into the next run."""

    source_images: np.ndarray  # (M, H, W, F)
    source_labels: np.ndarray  # (M, H, W) int64
    target_images: np.ndarray  # (N, H, W, F)
    target_labels_heldout: np.ndarray  # (N, H, W) int64, evaluation only
    config: ShiftConfig

    def __post_init__(self) -> None:
        for name in _ARRAY_FIELDS:
            getattr(self, name).flags.writeable = False


def _label_map(rng: np.random.Generator, cfg: ShiftConfig) -> np.ndarray:
    h, w, c = cfg.height, cfg.width, cfg.classes
    ys, xs = np.mgrid[0:h, 0:w]
    if cfg.geometry == "blobs":
        k = int(rng.integers(3, 7))
        centers = rng.random((k, 2)) * np.array([h, w])
        classes = rng.integers(0, c, k)
        d2 = (ys[..., None] - centers[:, 0]) ** 2 + (xs[..., None] - centers[:, 1]) ** 2
        return classes[np.argmin(d2, axis=-1)].astype(np.int64)
    if cfg.geometry == "stripes":
        theta = rng.uniform(0.0, np.pi)
        period = rng.uniform(4.0, 9.0)
        phase = rng.uniform(0.0, period)
        proj = xs * np.cos(theta) + ys * np.sin(theta) + phase
        return np.mod(np.floor(proj / period), c).astype(np.int64)
    tile = int(rng.integers(2, 6))
    ox, oy = rng.integers(0, tile, 2)
    return np.mod((xs + ox) // tile + (ys + oy) // tile, c).astype(np.int64)


def class_signatures(cfg: ShiftConfig) -> np.ndarray:
    """(C, F) unit-norm feature signatures, deterministic in cfg.seed."""
    rng = substream(cfg.seed, "signatures")
    sig = rng.normal(size=(cfg.classes, cfg.features))
    return sig / np.linalg.norm(sig, axis=1, keepdims=True)


def generate_domain_pair(cfg: ShiftConfig) -> DomainPair:
    """Render both domains. Bit-identical for identical configs. Images
    that overflow to non-finite values raise ``ConfigError``."""
    signatures = class_signatures(cfg)
    geom_rng = substream(cfg.seed, "geometry")
    noise_rng = substream(cfg.seed, "shift-noise")

    source_labels = np.stack(
        [_label_map(geom_rng, cfg) for _ in range(cfg.source_count)]
    )
    target_labels = np.stack(
        [_label_map(geom_rng, cfg) for _ in range(cfg.target_count)]
    )
    shift = np.asarray(cfg.feature_mean_shift)
    std = cfg.feature_noise_std
    source_images = signatures[source_labels] + noise_rng.normal(
        0.0, std, (*source_labels.shape, cfg.features)
    )
    target_images = (
        cfg.contrast_scale * signatures[target_labels]
        + shift
        + noise_rng.normal(0.0, std, (*target_labels.shape, cfg.features))
    )
    if not (np.all(np.isfinite(source_images)) and np.all(np.isfinite(target_images))):
        raise ConfigError(
            f"generated images are not finite: feature_noise_std {std!r}, contrast_scale "
            f"{cfg.contrast_scale!r} or feature_mean_shift {cfg.feature_mean_shift!r} overflows"
        )
    return DomainPair(
        source_images=source_images,
        source_labels=source_labels,
        target_images=target_images,
        target_labels_heldout=target_labels,
        config=cfg,
    )


def export_domain_pair(pair: DomainPair, out_dir: str) -> None:
    """Write one raw little-endian array file per field, then a manifest
    holding each file's sha256. The manifest goes last, so an export torn
    between the two leaves array files the manifest does not match."""
    os.makedirs(out_dir, exist_ok=True)
    arrays = {}
    for name in _ARRAY_FIELDS:
        arr = getattr(pair, name)
        dtype = "<i8" if arr.dtype.kind == "i" else "<f8"
        fname = f"{name}.bin"
        blob = arr.astype(dtype).tobytes()
        write_atomic(os.path.join(out_dir, fname), blob)
        arrays[name] = {
            "file": fname,
            "dtype": dtype,
            "shape": list(arr.shape),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
    manifest = {
        "format": _MANIFEST_FORMAT,
        "version": _MANIFEST_VERSION,
        "config": asdict(pair.config),
        "arrays": arrays,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    write_atomic(os.path.join(out_dir, MANIFEST_NAME), text.encode())


def import_domain_pair(in_dir: str) -> DomainPair:
    """Inverse of ``export_domain_pair``; round-trips bit-exactly. An array
    file that is not ``<field>.bin`` or whose sha256 differs from its
    manifest entry, a manifest dtype the exporter does not write, a
    manifest shape that is not the list of integers its config makes, or
    labels that are not whole numbers in range raise ``FormatError``."""
    path = os.path.join(in_dir, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read dataset manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed dataset manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise FormatError(f"{path} is not a domain-pair manifest")
    if manifest.get("version") != _MANIFEST_VERSION:
        raise FormatError(f"unsupported manifest version {manifest.get('version')}")
    try:
        cfg = ShiftConfig(**manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad config in {path}: {exc}") from exc
    loaded = {}
    for name in _ARRAY_FIELDS:
        count = cfg.source_count if name.startswith("source") else cfg.target_count
        want = (count, cfg.height, cfg.width) + ((cfg.features,) if "images" in name else ())
        try:
            entry = manifest["arrays"][name]
            if entry["file"] != f"{name}.bin":
                raise ValueError(f"file {entry['file']!r} is not '{name}.bin'")
            fpath = os.path.join(in_dir, entry["file"])
            shape, dtype, digest = entry["shape"], entry["dtype"], entry["sha256"]
            if not isinstance(shape, list) or not all(type(v) is int for v in shape):
                raise ValueError(f"shape {shape!r} is not a list of integers")
            if dtype not in _DTYPES:
                raise ValueError(f"dtype {dtype!r} is not one of {_DTYPES}")
            with open(fpath, "rb") as fh:
                blob = fh.read()
            arr = np.frombuffer(blob, dtype=dtype)
            shape = tuple(shape)
        except (KeyError, TypeError, OSError, ValueError) as exc:
            raise FormatError(f"bad array entry {name!r} in {path}: {exc}") from exc
        if hashlib.sha256(blob).hexdigest() != digest:
            raise FormatError(f"array file {fpath} does not match the sha256 in {path}")
        if shape != want:
            raise FormatError(f"array {name!r} has shape {shape}, its config makes {want}")
        if arr.size != int(np.prod(shape)):
            raise FormatError(
                f"array {name!r} has {arr.size} values, expected shape {shape}"
            )
        # labels are checked before the int64 cast, which would truncate them
        if "labels" in name and not np.all(
            (arr == np.floor(arr)) & (arr >= 0) & (arr < cfg.classes)
        ):
            raise FormatError(
                f"array {name!r} has labels that are not whole numbers in [0, {cfg.classes})"
            )
        # each field's dtype whatever the file's: the model takes float64 images
        kind = np.float64 if "images" in name else np.int64
        loaded[name] = arr.astype(kind).reshape(shape)
    for name in ("source_images", "target_images"):
        if not np.all(np.isfinite(loaded[name])):
            raise FormatError(f"array {name!r} contains non-finite values")
    return DomainPair(config=cfg, **loaded)
