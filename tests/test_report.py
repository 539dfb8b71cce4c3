"""Report CSV: exact columns, lossless float round-trip, summaries."""

import re
from pathlib import Path

import numpy as np
import pytest

from boostadapt.errors import FormatError
from boostadapt.report import (
    COLUMNS,
    SUMMARY_COLUMNS,
    EpochRow,
    MetricsReport,
    SummaryRow,
    read_report,
    read_summary,
    write_report,
    write_summary,
)


def make_report(epochs=4):
    rng = np.random.default_rng(0)
    rows = []
    for t in range(1, epochs + 1):
        rows.append(
            EpochRow(
                epoch=t,
                iter=t * 50,
                variant="full-variance",
                lr=float(0.01 * (1 - t / 10) ** 0.9),
                student_src_miou=float(rng.random()),
                student_tgt_miou=float(rng.random()),
                aggregate_tgt_miou=float(rng.random()),
                dist_entropy=float(rng.random() * 4),
                mean_vkl=float(rng.random() * 0.1),
            )
        )
    return MetricsReport(rows=tuple(rows), config_echo={"seed": 0, "epochs": epochs})


class TestReportFile:
    def test_column_order_is_pinned(self, tmp_path):
        path = str(tmp_path / "report.csv")
        write_report(path, make_report())
        lines = Path(path).read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == (
            "epoch,iter,variant,lr,student_src_miou,student_tgt_miou,"
            "aggregate_tgt_miou,dist_entropy,mean_vkl"
        )

    def test_round_trip_is_lossless(self, tmp_path):
        # repr-formatted floats parse back to the identical bits
        path = str(tmp_path / "report.csv")
        report = make_report(6)
        write_report(path, report)
        loaded = read_report(path)
        assert loaded.rows == report.rows
        assert loaded.config_echo == report.config_echo

    def test_rows_append_ordered(self, tmp_path):
        path = str(tmp_path / "report.csv")
        write_report(path, make_report(5))
        loaded = read_report(path)
        epochs = [r.epoch for r in loaded.rows]
        assert epochs == sorted(epochs)
        iters = [r.iter for r in loaded.rows]
        assert iters == sorted(iters)

    def test_duplicate_epochs_rejected(self):
        row = make_report(1).rows[0]
        with pytest.raises(ValueError):
            MetricsReport(rows=(row, row), config_echo={})

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("epoch,iter\n1,2\n")
        with pytest.raises(FormatError):
            read_report(str(path))

    def test_wrong_columns_rejected(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text('# config: {}\nepoch,iter\n')
        with pytest.raises(FormatError):
            read_report(str(path))

    @pytest.mark.parametrize("column", ["epoch", "lr"])
    def test_malformed_number_is_format_error(self, tmp_path, column):
        # an int cell and a float cell that do not parse
        path = tmp_path / "report.csv"
        write_report(str(path), make_report(3))
        lines = path.read_text().splitlines()
        cells = lines[3].split(",")
        cells[COLUMNS.index(column)] = "x"
        lines[3] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path} line 4")) as info:
            read_report(str(path))
        assert isinstance(info.value.__cause__, ValueError)


class TestSummary:
    def test_last_k_stats(self):
        report = make_report(6)
        summary = report.summary(3)
        assert isinstance(summary, SummaryRow)
        last = report.rows[-1]
        assert (summary.variant, summary.seed) == (last.variant, report.config_echo["seed"])
        assert summary.final_student_miou == last.student_tgt_miou
        assert summary.final_aggregate_miou == last.aggregate_tgt_miou
        tail = [r.student_tgt_miou for r in report.rows[-3:]]
        np.testing.assert_allclose(summary.lastk_student_std, np.std(tail))
        tail = [r.aggregate_tgt_miou for r in report.rows[-3:]]
        np.testing.assert_allclose(summary.lastk_aggregate_std, np.std(tail))

    def test_empty_report_has_no_summary(self):
        with pytest.raises(ValueError):
            MetricsReport(rows=(), config_echo={"seed": 0}).summary(1)

    def test_summary_csv_round_trip(self, tmp_path):
        rows = [
            SummaryRow("baseline", 1, 0.5, 0.5, 0.01, 0.01),
            SummaryRow("full-variance", 1, 0.625, 0.65, 0.02, 0.005),
        ]
        path = str(tmp_path / "summary.csv")
        write_summary(path, rows)
        header = Path(path).read_text().splitlines()[0]
        assert header == (
            "variant,seed,final_student_miou,final_aggregate_miou,"
            "lastk_student_std,lastk_aggregate_std"
        )
        assert read_summary(path) == rows
        assert tuple(SUMMARY_COLUMNS) == tuple(header.split(","))

    @pytest.mark.parametrize("column", ["seed", "final_student_miou"])
    def test_malformed_number_is_format_error(self, tmp_path, column):
        path = tmp_path / "summary.csv"
        write_summary(str(path), [SummaryRow("baseline", 1, 0.5, 0.5, 0.01, 0.01)])
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[SUMMARY_COLUMNS.index(column)] = "1.5.2"
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=re.escape(f"{path} line 2")) as info:
            read_summary(str(path))
        assert isinstance(info.value.__cause__, ValueError)

    def test_columns_tuple_matches_rows(self):
        assert len(COLUMNS) == 9
