"""Binary parameter-vector files ("ABST" format).

Layout, all little-endian:

    bytes 0..4    magic b"ABST"
    u32           format version (currently 1)
    u64           parameter count P >= 1
    [u8, u32]     only in role-tagged snapshot files: role (0 = student,
                  1 = aggregate) and a sequence field (epoch for students,
                  snapshot count for aggregates; needed to resume the
                  running mean)
    P * f64       parameter payload

Plain files and role-tagged files share the header; the reader tells them
apart by the byte length after the header (8P vs 5 + 8P). Round-trips are
bit-exact. Every artifact the package writes (snapshots, CSVs) goes through
``write_atomic``.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import SnapshotFormatError

MAGIC = b"ABST"
VERSION = 1
ROLE_STUDENT = 0
ROLE_AGGREGATE = 1

_HEADER = struct.Struct("<4sIQ")
_ROLE_FIELDS = struct.Struct("<BI")


@dataclass(frozen=True)
class SnapshotInfo:
    """Decoded file: params always present, role/seq only for tagged files."""

    params: np.ndarray
    role: int | None
    seq: int | None


def _payload(params: np.ndarray) -> tuple[np.ndarray, bytes]:
    vec = np.ascontiguousarray(np.asarray(params, dtype=np.float64))
    if vec.ndim != 1:
        raise ValueError("parameter vector must be 1-d")
    if vec.size == 0:
        raise ValueError("parameter vector is empty")
    return vec, _HEADER.pack(MAGIC, VERSION, vec.size)


def write_atomic(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file in the same directory and
    ``os.replace``: readers see the old file or the new one, never a torn
    write, and a failed write leaves the old file and no temp file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_params(path: str, params: np.ndarray) -> None:
    """Write a plain parameter vector."""
    vec, header = _payload(params)
    write_atomic(path, header + vec.astype("<f8").tobytes())


def save_snapshot(path: str, params: np.ndarray, role: int, seq: int) -> None:
    """Write a role-tagged snapshot (role 0 = student, 1 = aggregate)."""
    if role not in (ROLE_STUDENT, ROLE_AGGREGATE):
        raise ValueError(f"unknown role {role}")
    if seq < 0:
        raise ValueError("seq must be >= 0")
    vec, header = _payload(params)
    write_atomic(path, header + _ROLE_FIELDS.pack(role, seq) + vec.astype("<f8").tobytes())


def load_file(path: str) -> SnapshotInfo:
    """Read either file flavor; raise SnapshotFormatError on any malformation."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise SnapshotFormatError(f"cannot read snapshot file {path}: {exc}") from exc
    if len(blob) < _HEADER.size:
        raise SnapshotFormatError(f"corrupt snapshot file {path}: shorter than header")
    magic, version, count = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise SnapshotFormatError(f"corrupt snapshot file {path}: bad magic {magic!r}")
    if version != VERSION:
        raise SnapshotFormatError(
            f"corrupt snapshot file {path}: unsupported version {version}"
        )
    if count == 0:
        raise SnapshotFormatError(f"corrupt snapshot file {path}: no parameters")
    rest = blob[_HEADER.size :]
    plain_size = 8 * count
    tagged_size = _ROLE_FIELDS.size + plain_size
    if len(rest) == plain_size:
        role: int | None = None
        seq: int | None = None
        raw = rest
    elif len(rest) == tagged_size:
        role, seq = _ROLE_FIELDS.unpack_from(rest, 0)
        if role not in (ROLE_STUDENT, ROLE_AGGREGATE):
            raise SnapshotFormatError(
                f"corrupt snapshot file {path}: unknown role {role}"
            )
        raw = rest[_ROLE_FIELDS.size :]
    else:
        raise SnapshotFormatError(
            f"corrupt snapshot file {path}: expected {plain_size} or "
            f"{tagged_size} payload bytes for {count} params, got {len(rest)}"
        )
    params = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return SnapshotInfo(params=params, role=role, seq=seq)
