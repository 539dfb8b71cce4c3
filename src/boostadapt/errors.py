"""Exception types shared across the package, and the finiteness check
that every config dataclass runs before its range checks."""

from __future__ import annotations

import dataclasses
import math
from typing import Any


class ConfigError(Exception):
    """Invalid, inconsistent, or unreadable experiment configuration."""


class DivergenceError(Exception):
    """Training produced a non-finite loss."""


class FormatError(Exception):
    """Malformed on-disk artifact (snapshot, dataset manifest, report)."""


class SnapshotFormatError(FormatError):
    """Malformed or truncated parameter snapshot file."""


def is_finite(value: Any) -> bool:
    """False for a NaN or infinite float, also inside a list or tuple."""
    if isinstance(value, (list, tuple)):
        return all(map(is_finite, value))
    return not isinstance(value, float) or math.isfinite(value)


def check_finite_fields(cfg: Any, error: type[Exception] = ValueError) -> None:
    """Raise ``error`` naming the first field of the dataclass instance
    ``cfg`` that holds a NaN or infinite float. Range checks written as
    ``x <= 0.0`` let NaN through, so a config runs this before them."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if not is_finite(value):
            raise error(f"{f.name}={value!r} is not finite")
