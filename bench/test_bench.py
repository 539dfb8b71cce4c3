"""Self-checks of the benchmark's tracer: exact counts on default-run seed 1.

    python3 -m pytest bench/test_bench.py

The counts are those of the default config (7,620 single-image forwards and
2,500 backwards per run): 5,120 eval-mode forwards for scoring and
evaluation, of which 1,344 repeat an earlier (params, image) pair; 750
``loss_and_grad`` calls over 1,500 source images; 500 regularizer calls over
1,000 target images.
"""

from __future__ import annotations

import math
import os

import pytest

import workloads
from tracer import COUNT_SUFFIXES, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


@pytest.fixture(scope="module")
def pkg():
    return workloads.load_package(ROOT)


@pytest.fixture(scope="module")
def default_run(pkg, tmp_path_factory):
    """Two traced executions and one untraced of default-run, seed 1."""
    workload = workloads.WORKLOADS["default-run"]
    work = tmp_path_factory.mktemp("bench")
    config = str(work / "config.json")
    workloads.write_config(workload, config)

    def report_bytes(name: str) -> bytes:
        with open(workloads.execute(pkg, workload, SEED, config, str(work / name)), "rb") as fh:
            return fh.read()

    traced = []
    for i in range(2):
        with Tracer().install() as tracer:
            data = report_bytes(f"traced-{i}")
        traced.append((tracer.layer_metrics(wall=1.0), data))
    return pkg, workload, traced, report_bytes("untraced")


def test_exact_counts(default_run):
    _, _, traced, _ = default_run
    layers = traced[0][0]
    assert layers["model.forward.calls"] == 5120
    assert layers["model.forward.repeats"] == 1344
    assert layers["model.forward.repeat_share"] == pytest.approx(0.2625)
    assert layers["model.loss_and_grad.calls"] == 750
    assert layers["model.loss_and_grad.images"] == 1500
    assert layers["regularizers.hook.calls"] == 500
    assert layers["regularizers.hook.images"] == 1000


def test_counts_repeat_exactly(default_run):
    _, _, traced, _ = default_run
    (first, _), (second, _) = traced
    counted = [k for k in first if k.endswith(COUNT_SUFFIXES)]
    assert counted
    assert {k: first[k] for k in counted} == {k: second[k] for k in counted}


def test_tracing_leaves_report_bytes_unchanged(default_run):
    _, _, traced, untraced = default_run
    assert all(data == untraced for _, data in traced)


def test_image_passes_match_traced_counts(default_run):
    pkg, workload, traced, _ = default_run
    (cfg,) = workloads.experiment_configs(pkg, workload, SEED)
    layers = traced[0][0]
    forwards = layers["model.forward.calls"]
    trained = layers["model.loss_and_grad.images"] + layers["regularizers.hook.images"]
    assert workloads.image_passes(cfg) == forwards + trained == 7620


def test_nan_and_missing_summary_rows_are_failed_cells(pkg, tmp_path):
    sweep = workloads.WORKLOADS["variant-sweep"]
    cfgs = workloads.experiment_configs(pkg, sweep, SEED)
    rows = [pkg.SummaryRow(v, SEED, 0.5, 0.5, 0.01, 0.01) for v in workloads.SWEEP_VARIANTS]
    rows[3] = pkg.SummaryRow(rows[3].variant, SEED, math.nan, math.nan, math.nan, math.nan)
    path = str(tmp_path / "summary.csv")
    pkg.write_summary(path, rows)
    assert workloads.failed_cells(pkg, sweep, cfgs, path) == 1
    pkg.write_summary(path, rows[:-2])
    assert workloads.failed_cells(pkg, sweep, cfgs, path) == 3
