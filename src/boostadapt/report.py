"""Per-epoch metrics report: CSV with a reproducibility header.

The first line is ``# config: <canonical JSON>`` echoing the resolved
experiment config; then the column header; then one row per epoch, append
ordered. Floats are written with ``repr`` so parsing them back is exact and
two runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Sequence

from .errors import FormatError
from .metrics import trajectory_stats
from .paramio import write_atomic

COLUMNS = (
    "epoch",
    "iter",
    "variant",
    "lr",
    "student_src_miou",
    "student_tgt_miou",
    "aggregate_tgt_miou",
    "dist_entropy",
    "mean_vkl",
)

SUMMARY_COLUMNS = (
    "variant",
    "seed",
    "final_student_miou",
    "final_aggregate_miou",
    "lastk_student_std",
    "lastk_aggregate_std",
)


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
class RunSummary:
    lastk_student_mean: float
    lastk_student_std: float
    lastk_aggregate_mean: float
    lastk_aggregate_std: float


@dataclass(frozen=True)
class MetricsReport:
    rows: tuple[EpochRow, ...]
    config_echo: dict

    def __post_init__(self) -> None:
        epochs = [r.epoch for r in self.rows]
        if epochs != sorted(set(epochs)):
            raise ValueError("rows must be unique and epoch-ordered")

    def summary(self, last_k: int) -> RunSummary:
        student = [r.student_tgt_miou for r in self.rows]
        aggregate = [r.aggregate_tgt_miou for r in self.rows]
        s_mean, s_std = trajectory_stats(student, last_k)
        a_mean, a_std = trajectory_stats(aggregate, last_k)
        return RunSummary(
            lastk_student_mean=s_mean,
            lastk_student_std=s_std,
            lastk_aggregate_mean=a_mean,
            lastk_aggregate_std=a_std,
        )


def _cell(value: object) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_report(path: str, report: MetricsReport) -> None:
    lines = ["# config: " + json.dumps(report.config_echo, sort_keys=True)]
    lines.append(",".join(COLUMNS))
    for row in report.rows:
        d = asdict(row)
        lines.append(",".join(_cell(d[c]) for c in COLUMNS))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_report(path: str) -> MetricsReport:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read report {path}: {exc}") from exc
    if len(lines) < 2 or not lines[0].startswith("# config: "):
        raise FormatError(f"{path} is missing the config header line")
    try:
        config_echo = json.loads(lines[0][len("# config: ") :])
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad config header in {path}: {exc}") from exc
    if lines[1] != ",".join(COLUMNS):
        raise FormatError(f"{path} has unexpected columns: {lines[1]!r}")
    rows = []
    for ln in lines[2:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(COLUMNS):
            raise FormatError(f"bad row in {path}: {ln!r}")
        rows.append(
            EpochRow(
                epoch=int(parts[0]),
                iter=int(parts[1]),
                variant=parts[2],
                lr=float(parts[3]),
                student_src_miou=float(parts[4]),
                student_tgt_miou=float(parts[5]),
                aggregate_tgt_miou=float(parts[6]),
                dist_entropy=float(parts[7]),
                mean_vkl=float(parts[8]),
            )
        )
    return MetricsReport(rows=tuple(rows), config_echo=config_echo)


@dataclass(frozen=True)
class SummaryRow:
    variant: str
    seed: int
    final_student_miou: float
    final_aggregate_miou: float
    lastk_student_std: float
    lastk_aggregate_std: float


def write_summary(path: str, rows: Sequence[SummaryRow]) -> None:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        d = asdict(row)
        lines.append(",".join(_cell(d[c]) for c in SUMMARY_COLUMNS))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def read_summary(path: str) -> list[SummaryRow]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise FormatError(f"cannot read summary {path}: {exc}") from exc
    if not lines or lines[0] != ",".join(SUMMARY_COLUMNS):
        raise FormatError(f"{path} has unexpected summary columns")
    out = []
    for ln in lines[1:]:
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != len(SUMMARY_COLUMNS):
            raise FormatError(f"bad row in {path}: {ln!r}")
        out.append(
            SummaryRow(
                variant=parts[0],
                seed=int(parts[1]),
                final_student_miou=float(parts[2]),
                final_aggregate_miou=float(parts[3]),
                lastk_student_std=float(parts[4]),
                lastk_aggregate_std=float(parts[5]),
            )
        )
    return out
