"""Per-epoch metrics report: CSV with a reproducibility header.

The first line is ``# config: <canonical JSON>`` echoing the resolved
experiment config; then the column header; then one row per epoch, append
ordered. Floats are written with ``repr`` so parsing them back is exact and
two runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence, get_type_hints

from .errors import FormatError
from .metrics import trajectory_stats
from .paramio import write_atomic


@dataclass(frozen=True)
class EpochRow:
    epoch: int
    iter: int
    variant: str
    lr: float
    student_src_miou: float
    student_tgt_miou: float
    aggregate_tgt_miou: float
    dist_entropy: float
    mean_vkl: float


@dataclass(frozen=True)
class SummaryRow:
    variant: str
    seed: int
    final_student_miou: float
    final_aggregate_miou: float
    lastk_student_std: float
    lastk_aggregate_std: float


# the row dataclasses are the CSV schema: field order is column order
COLUMNS = tuple(f.name for f in fields(EpochRow))
SUMMARY_COLUMNS = tuple(f.name for f in fields(SummaryRow))


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[EpochRow, ...]
    config_echo: dict

    def __post_init__(self) -> None:
        epochs = [r.epoch for r in self.rows]
        if epochs != sorted(set(epochs)):
            raise ValueError("rows must be unique and epoch-ordered")

    def summary(self, last_k: int) -> SummaryRow:
        """The run's summary row: the last row's variant and target mIoUs,
        the echoed seed, and the std of each mIoU over the last ``last_k``
        rows. An empty report raises ``ValueError``."""
        _, student_std = trajectory_stats([r.student_tgt_miou for r in self.rows], last_k)
        _, aggregate_std = trajectory_stats([r.aggregate_tgt_miou for r in self.rows], last_k)
        last = self.rows[-1]
        return SummaryRow(
            variant=last.variant,
            seed=self.config_echo["seed"],
            final_student_miou=last.student_tgt_miou,
            final_aggregate_miou=last.aggregate_tgt_miou,
            lastk_student_std=student_std,
            lastk_aggregate_std=aggregate_std,
        )


def _cell(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(path: str, preamble: list[str], columns: tuple[str, ...], rows: Sequence) -> None:
    lines = preamble + [",".join(columns)]
    lines += [",".join(_cell(getattr(row, c)) for c in columns) for row in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _read_lines(path: str, what: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc


def _parse_rows(path: str, row_type: type, lines: Sequence[str], skip: int) -> list:
    """One ``row_type`` per non-empty line after the first ``skip`` lines,
    each cell converted by the type its field is annotated with."""
    types = tuple(get_type_hints(row_type).values())
    rows = []
    for lineno, ln in enumerate(lines[skip:], start=skip + 1):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(types):
            raise FormatError(f"bad row in {path}: {ln!r}")
        try:
            cells = [typ(cell) for typ, cell in zip(types, parts)]
        except ValueError as exc:
            raise FormatError(f"bad cell in {path} line {lineno}: {exc}") from exc
        rows.append(row_type(*cells))
    return rows


def write_report(path: str, report: MetricsReport) -> None:
    header = "# config: " + json.dumps(report.config_echo, sort_keys=True)
    _write_table(path, [header], COLUMNS, report.rows)


def read_report(path: str) -> MetricsReport:
    lines = _read_lines(path, "report")
    if len(lines) < 2 or not lines[0].startswith("# config: "):
        raise FormatError(f"{path} is missing the config header line")
    try:
        config_echo = json.loads(lines[0][len("# config: ") :])
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad config header in {path}: {exc}") from exc
    if lines[1] != ",".join(COLUMNS):
        raise FormatError(f"{path} has unexpected columns: {lines[1]!r}")
    rows = _parse_rows(path, EpochRow, lines, skip=2)
    return MetricsReport(rows=tuple(rows), config_echo=config_echo)


def write_summary(path: str, rows: Sequence[SummaryRow]) -> None:
    _write_table(path, [], SUMMARY_COLUMNS, rows)


def read_summary(path: str) -> list[SummaryRow]:
    lines = _read_lines(path, "summary")
    if not lines or lines[0] != ",".join(SUMMARY_COLUMNS):
        raise FormatError(f"{path} has unexpected summary columns")
    return _parse_rows(path, SummaryRow, lines, skip=1)
