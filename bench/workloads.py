"""The benchmark's workloads and how one execution of each is run and checked.

Every workload is a fixed experiment configuration; the benchmark seed is its
master seed and the only thing that varies between runs. Single runs go
through the CLI exactly as a user types ``boostadapt run``; the sweep goes
through ``harness.run_ablation_suite``. Configs are written out in full rather
than taken from the package defaults, so a later change of a default does not
silently change a workload.

Nothing here imports boostadapt at module level: ``load_package`` puts the
checkout's ``src`` first on ``sys.path`` after the caller has pinned the BLAS
thread count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from types import ModuleType

REPORT_NAME = "report.csv"
SUMMARY_NAME = "summary.csv"

# The nine presets of config.VARIANT_PRESETS, pinned so that a preset added
# later does not change this workload.
SWEEP_VARIANTS = (
    "baseline",
    "sampler-only",
    "aggregation-only",
    "full-variance",
    "full-entropy",
    "momentum-0.9",
    "momentum-0.5",
    "ema",
    "oracle-alpha",
)


@dataclass(frozen=True)
class Workload:
    config: dict  # experiment config JSON, in the shape the CLI reads
    sweep: bool  # run_ablation_suite over SWEEP_VARIANTS instead of `run`


WORKLOADS = {
    # The configuration users run and the acceptance gate runs 8 times:
    # about half of the wall time trains, the rest scores and evaluates.
    "default-run": Workload(
        {
            "epochs": 20,
            "iters_per_epoch": 25,
            "batch_size": 2,
            "warmup_epochs": 10,
            "sampler": "kl-variance",
            "aggregation": "running-mean",
            "regularizer": "self-training",
            "shift": {"height": 16, "width": 16, "source_count": 64, "target_count": 64},
        },
        sweep=False,
    ),
    # Few epochs of many large-batch iterations over small 32x32 sets: the
    # training path does almost all the work, per-epoch scoring and
    # evaluation is bypassed in effect, and a batched stage-2 column buffer
    # (8 x 1024 px x 72 x 8 B) would not fit a 2 MiB L2.
    "train-heavy": Workload(
        {
            "epochs": 2,
            "iters_per_epoch": 30,
            "batch_size": 8,
            "warmup_epochs": 1,
            "eval_last_k": 2,
            "sampler": "kl-variance",
            "aggregation": "running-mean",
            "regularizer": "self-training",
            "shift": {"height": 32, "width": 32, "source_count": 16, "target_count": 16},
        },
        sweep=False,
    ),
    # Every variant preset on one seed with short epochs: per-epoch scoring
    # and evaluation does most of the work, and every aggregator and sampler
    # branch runs, so a gain for one variant that costs another shows here.
    "variant-sweep": Workload(
        {
            "epochs": 4,
            "iters_per_epoch": 5,
            "batch_size": 2,
            "warmup_epochs": 1,
            "eval_last_k": 3,
            "regularizer": "self-training",
            "shift": {"height": 16, "width": 16, "source_count": 64, "target_count": 64},
        },
        sweep=True,
    ),
}


def load_package(root: str) -> ModuleType:
    """Import boostadapt from ``<root>/src`` and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    if not os.path.isfile(os.path.join(src, "boostadapt", "__init__.py")):
        raise FileNotFoundError(f"no boostadapt package under {src}")
    sys.path.insert(0, src)
    import boostadapt
    import boostadapt.cli  # not imported by the package itself

    if not os.path.abspath(boostadapt.__file__).startswith(src + os.sep):
        raise ImportError(f"boostadapt imported from {boostadapt.__file__}, not {src}")
    return boostadapt


def experiment_configs(pkg: ModuleType, workload: Workload, seed: int) -> list:
    """The ExperimentConfig of every run one execution makes."""
    base = dataclasses.replace(pkg.experiment_config_from_dict(workload.config), seed=seed)
    if not workload.sweep:
        return [base]
    return [pkg.apply_variant(base, v) for v in SWEEP_VARIANTS]


def image_passes(cfg) -> int:
    """Image passes a run's config asks for: training images forward+backward
    (source batches, plus target batches when a regularizer is on), scored
    target images, and evaluated images. Counted from the config, so a
    change that skips redundant passes reads as faster."""
    batches = (cfg.warmup_epochs + cfg.epochs) * cfg.iters_per_epoch
    trained = batches * cfg.batch_size
    if cfg.regularizer != "none":
        trained += cfg.epochs * cfg.iters_per_epoch * cfg.batch_size
    n_src, n_tgt = cfg.shift.source_count, cfg.shift.target_count
    evaluated = n_src + n_tgt  # student on source and on target
    if cfg.aggregation != "none":
        evaluated += n_tgt  # aggregate on target
    if cfg.aggregation == "oracle-alpha":
        evaluated += n_tgt  # held-out error of each snapshot
    return trained + cfg.epochs * (n_tgt + evaluated)


def generate_data(pkg: ModuleType, workload: Workload, seed: int) -> list:
    """The domain pair(s) one execution trains on, generated as the harness
    does (all variants of the sweep share one pair)."""
    cfg = experiment_configs(pkg, workload, seed)[0]
    data_seed = pkg.rng.substream_seed(seed, "data")
    return [pkg.generate_domain_pair(dataclasses.replace(cfg.shift, seed=data_seed))]


def execute(pkg: ModuleType, workload: Workload, seed: int, config_path: str, out_dir: str) -> str:
    """Run one execution into ``out_dir``; return the path of its output file
    (``report.csv`` for a run, ``summary.csv`` for the sweep)."""
    if workload.sweep:
        base = dataclasses.replace(pkg.load_experiment_config(config_path), seed=seed)
        pkg.run_ablation_suite(base, [seed], variants=SWEEP_VARIANTS, out_dir=out_dir)
        return os.path.join(out_dir, SUMMARY_NAME)
    argv = ["run", "--config", config_path, "--seed", str(seed), "--out", out_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        code = pkg.cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"boostadapt run exited {code}")
    return os.path.join(out_dir, REPORT_NAME)


def write_config(workload: Workload, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(workload.config, fh, sort_keys=True)


SUMMARY_FIELDS = ("final_student_miou", "final_aggregate_miou", "lastk_student_std", "lastk_aggregate_std")
REPORT_FIELDS = ("lr", "student_src_miou", "student_tgt_miou", "aggregate_tgt_miou", "dist_entropy", "mean_vkl")


def _finite(row, fields: tuple[str, ...]) -> bool:
    return all(math.isfinite(getattr(row, f)) for f in fields)


def failed_cells(pkg: ModuleType, workload: Workload, cfgs: list, output: str) -> int:
    """Cells of one execution whose output is missing, short or NaN.

    ``run_ablation_suite`` turns any exception into a NaN row, so its return
    value alone proves nothing; the written summary is read back instead."""
    if workload.sweep:
        rows = pkg.read_summary(output)
        return sum(not _finite(r, SUMMARY_FIELDS) for r in rows) + max(0, len(cfgs) - len(rows))
    rows = pkg.read_report(output).rows
    return 0 if len(rows) == cfgs[0].epochs and all(_finite(r, REPORT_FIELDS) for r in rows) else 1


def quality(pkg: ModuleType, workload: Workload, cfgs: list, output: str) -> dict:
    """Mean last-epoch aggregate target mIoU over the execution's runs, and
    summed last-k aggregate std over summed last-k student std over its runs
    with aggregation on (the paper's stability claim)."""
    if workload.sweep:
        rows = pkg.read_summary(output)
        finals = [r.final_aggregate_miou for r in rows]
        stds = [
            (r.lastk_aggregate_std, r.lastk_student_std)
            for r, cfg in zip(rows, cfgs)
            if cfg.aggregation != "none"
        ]
    else:
        report = pkg.read_report(output)
        summary = report.summary(cfgs[0].eval_last_k)
        finals = [report.rows[-1].aggregate_tgt_miou]
        stds = [(summary.lastk_aggregate_std, summary.lastk_student_std)]
    student = sum(s for _, s in stds)
    return {
        "final_aggregate_tgt_miou": sum(finals) / len(finals),
        "lastk_std_ratio": sum(a for a, _ in stds) / student if student > 0 else float("nan"),
    }
