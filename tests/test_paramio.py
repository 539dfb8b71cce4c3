"""Binary snapshot format: bit-exact round-trips and malformation handling."""

import struct
from pathlib import Path

import numpy as np
import pytest

from boostadapt import paramio
from boostadapt.errors import SnapshotFormatError
from boostadapt.harness import _write_distributions
from boostadapt.paramio import (
    MAGIC,
    ROLE_AGGREGATE,
    ROLE_STUDENT,
    VERSION,
    load_file,
    load_params,
    save_params,
    save_snapshot,
)
from boostadapt.report import MetricsReport, SummaryRow, write_report, write_summary


@pytest.fixture
def vec():
    rng = np.random.default_rng(0)
    v = rng.normal(0, 1, 97)
    # exercise non-round values and signed zeros
    v[0] = -0.0
    v[1] = 1e-300
    v[2] = np.pi
    return v


class TestRoundTrip:
    def test_plain_bit_exact(self, tmp_path, vec):
        path = str(tmp_path / "p.abst")
        save_params(path, vec)
        loaded = load_params(path)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(
            loaded.view(np.uint64), vec.view(np.uint64)
        )

    def test_tagged_bit_exact(self, tmp_path, vec):
        path = str(tmp_path / "s.abst")
        save_snapshot(path, vec, ROLE_STUDENT, 7)
        info = load_file(path)
        assert info.role == ROLE_STUDENT
        assert info.seq == 7
        np.testing.assert_array_equal(info.params.view(np.uint64), vec.view(np.uint64))

    def test_plain_has_no_role(self, tmp_path, vec):
        path = str(tmp_path / "p.abst")
        save_params(path, vec)
        info = load_file(path)
        assert info.role is None and info.seq is None

    def test_header_layout(self, tmp_path):
        # magic, u32 version, u64 count, then little-endian f64 payload
        path = str(tmp_path / "h.abst")
        save_params(path, np.array([1.5, -2.0]))
        blob = Path(path).read_bytes()
        assert blob[:4] == MAGIC
        assert struct.unpack_from("<I", blob, 4)[0] == VERSION
        assert struct.unpack_from("<Q", blob, 8)[0] == 2
        assert struct.unpack_from("<2d", blob, 16) == (1.5, -2.0)
        assert len(blob) == 16 + 16

    def test_tagged_layout(self, tmp_path):
        path = str(tmp_path / "t.abst")
        save_snapshot(path, np.array([0.5]), ROLE_AGGREGATE, 12)
        blob = Path(path).read_bytes()
        role, seq = struct.unpack_from("<BI", blob, 16)
        assert (role, seq) == (ROLE_AGGREGATE, 12)
        assert len(blob) == 16 + 5 + 8


class TestMalformed:
    def test_truncated_payload(self, tmp_path, vec):
        path = str(tmp_path / "x.abst")
        save_params(path, vec)
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])
        with pytest.raises(SnapshotFormatError):
            load_file(path)

    def test_truncated_header(self, tmp_path):
        path = str(tmp_path / "x.abst")
        with open(path, "wb") as fh:
            fh.write(b"ABST\x01")
        with pytest.raises(SnapshotFormatError):
            load_file(path)

    def test_bad_magic(self, tmp_path, vec):
        path = str(tmp_path / "x.abst")
        save_params(path, vec)
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(b"TSBA" + blob[4:])
        with pytest.raises(SnapshotFormatError):
            load_file(path)

    def test_unsupported_version(self, tmp_path, vec):
        path = str(tmp_path / "x.abst")
        save_params(path, vec)
        blob = bytearray(Path(path).read_bytes())
        struct.pack_into("<I", blob, 4, 99)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(SnapshotFormatError):
            load_file(path)

    def test_trailing_garbage(self, tmp_path, vec):
        path = str(tmp_path / "x.abst")
        save_params(path, vec)
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 11)
        with pytest.raises(SnapshotFormatError):
            load_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotFormatError):
            load_file(str(tmp_path / "nope.abst"))

    def test_bad_role_byte(self, tmp_path, vec):
        path = str(tmp_path / "x.abst")
        save_snapshot(path, vec, ROLE_STUDENT, 1)
        blob = bytearray(Path(path).read_bytes())
        blob[16] = 9
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(SnapshotFormatError):
            load_file(path)


def _write_report(path, k):
    write_report(path, MetricsReport(rows=(), config_echo={"version": k}))


def _write_summary(path, k):
    write_summary(path, [SummaryRow("baseline", k, 0.5, 0.5, 0.0, 0.0)])


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path, k: save_params(path, np.full(3, float(k))),
            lambda path, k: save_snapshot(path, np.full(3, float(k)), ROLE_AGGREGATE, k),
            _write_report,
            _write_summary,
            lambda path, k: _write_distributions(path, [np.full(4, 0.25 * k)]),
        ],
        ids=["params", "snapshot", "report", "summary", "distributions"],
    )
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write):
        path = str(tmp_path / "artifact")
        write(path, 1)
        before = Path(path).read_bytes()

        class TornFile:
            # writes half of what it is given, then fails like a full disk
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(
            paramio, "open", lambda *a: TornFile(open(*a)), raising=False
        )
        with pytest.raises(OSError):
            write(path, 2)
        assert Path(path).read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
        monkeypatch.undo()
        write(path, 2)
        assert Path(path).read_bytes() != before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
