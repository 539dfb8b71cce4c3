"""Experiment harness: the per-epoch alternation loop and the ablation suite.

One run, after an optional source-only warm-up:

    for epoch t = 1..T1:
        hold the sampling distribution D_t fixed;
        run T2 SGD iterations, each on a uniformly drawn labeled source batch
        plus a D_t-drawn unlabeled target batch fed to the regularizer hook;
        snapshot the student, fold it into the aggregate;
        hold the aggregate fixed; score every target image with it and blend
        the normalized scores into D_{t+1};
        evaluate student and aggregate, append a report row.

The two "hold fixed" phases are the alternation contract: scores never come
from a mid-epoch model and draws inside an epoch never see a mid-epoch
distribution. Scoring uses the aggregate (the student when aggregation is
off). All randomness flows through named substreams of the master seed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from . import aggregator, paramio, sampler
from .config import ABLATION_VARIANTS, ExperimentConfig, apply_variant, experiment_config_to_dict
from .data import DomainPair, TrainView, generate_domain_pair
from .errors import DivergenceError
from .metrics import confusion_matrix, miou, pixel_accuracy
from .model import TwoHeadModel, fuse_predictions, poly_lr
from .numerics import entropy
from .regularizers import RegularizerHook, make_regularizer
from .report import EpochRow, MetricsReport, SummaryRow, write_report, write_summary
from .rng import substream, substream_seed
from .uncertainty import ScoreVector, normalize_scores, score_dataset

ScoreFn = Callable[[TwoHeadModel, np.ndarray, Sequence[np.ndarray], str], ScoreVector]

REPORT_NAME = "report.csv"
STUDENT_NAME = "student.abst"
AGGREGATE_NAME = "aggregate.abst"
DISTRIBUTIONS_NAME = "distributions.csv"
SUMMARY_NAME = "summary.csv"


@dataclass(frozen=True)
class RunResult:
    report: MetricsReport
    student: np.ndarray
    aggregate: np.ndarray
    distribution: sampler.SampleDistribution
    distributions: tuple[np.ndarray, ...]  # D_t used in epoch t, t = 1..T1
    snapshots: tuple[aggregator.Snapshot, ...]  # student at the end of epoch t, t = 1..T1
    model: TwoHeadModel


def dataset_confusion(
    model: TwoHeadModel,
    params: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
) -> np.ndarray:
    """Summed confusion matrix of fused eval-mode predictions over a dataset,
    reduced one ``model.forward_chunks`` chunk at a time."""
    classes = model.config.classes
    cm = np.zeros((classes, classes), dtype=np.int64)
    for span, primary, aux in model.forward_chunks(params, images):
        pred = np.argmax(fuse_predictions(primary, aux), axis=-1)
        cm += confusion_matrix(pred, labels[span], classes)
    return cm


def evaluate_miou(
    model: TwoHeadModel,
    params: np.ndarray,
    images: np.ndarray,
    labels: np.ndarray,
) -> float:
    return miou(dataset_confusion(model, params, images, labels))


def _persist(
    out_dir: str,
    model: TwoHeadModel,
    student: np.ndarray,
    aggregate_state: aggregator.AggregateState | None,
    epoch: int,
    rows: Sequence[EpochRow],
    config_echo: dict,
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    paramio.save_snapshot(
        os.path.join(out_dir, STUDENT_NAME), student, paramio.ROLE_STUDENT, epoch
    )
    if aggregate_state is not None:
        aggregator.save_aggregate(os.path.join(out_dir, AGGREGATE_NAME), aggregate_state)
    else:
        # without aggregation the aggregate file mirrors the student
        paramio.save_snapshot(
            os.path.join(out_dir, AGGREGATE_NAME), student, paramio.ROLE_AGGREGATE,
            max(epoch, 1),
        )
    write_report(
        os.path.join(out_dir, REPORT_NAME),
        MetricsReport(rows=tuple(rows), config_echo=config_echo),
    )


def _write_distributions(path: str, dists: Sequence[np.ndarray]) -> None:
    lines = ["epoch,index,weight"]
    for t, weights in enumerate(dists, start=1):
        for j, w in enumerate(weights):
            lines.append(f"{t},{j},{w!r}")
    paramio.write_atomic(path, ("\n".join(lines) + "\n").encode())


def run_experiment(
    cfg: ExperimentConfig,
    *,
    variant_label: str | None = None,
    data: DomainPair | None = None,
    scorer: ScoreFn | None = None,
    regularizer: RegularizerHook | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Run one experiment. Writes report + snapshots when an out dir is given
    (argument wins over ``cfg.out_dir``); on divergence the last epoch-end
    state is persisted before the error propagates."""
    out_dir = out_dir or cfg.out_dir
    variant = variant_label or f"{cfg.sampler}+{cfg.aggregation}"
    model = TwoHeadModel(cfg.model_config())

    if data is None:
        data_seed = substream_seed(cfg.seed, "data")
        data = generate_domain_pair(replace(cfg.shift, seed=data_seed))
    view = data.trainer_view()
    n_source = len(view.source_images)
    n_target = len(view.target_images)

    params = model.init_params(substream_seed(cfg.seed, "init"))
    dropout_rng = substream(cfg.seed, "dropout")
    sampling_rng = substream(cfg.seed, "sampling")
    reg = regularizer if regularizer is not None else make_regularizer(
        model, cfg.regularizer, cfg.regularizer_weight
    )
    score_fn = scorer if scorer is not None else score_dataset
    # the entropy criterion drives sampling only when selected; the report's
    # score column always reflects the criterion used for the update, with
    # kl-variance as the diagnostic default under uniform sampling
    criterion = cfg.sampler if cfg.sampler != "uniform" else "kl-variance"

    run_iter = (cfg.warmup_epochs + cfg.epochs) * cfg.iters_per_epoch
    # the decay horizon may extend past the run so the last epochs still move
    total_iter = int(round(cfg.lr_horizon_scale * run_iter))
    step = 0
    config_echo = experiment_config_to_dict(cfg)
    config_echo["variant"] = variant

    def source_batch() -> list[tuple[np.ndarray, np.ndarray]]:
        idx = sampling_rng.integers(0, n_source, cfg.batch_size)
        batch = []
        for i in idx:
            image = view.source_images[i]
            labels = view.source_labels[i]
            if cfg.horizontal_flip and sampling_rng.random() < 0.5:
                image = image[:, ::-1]
                labels = labels[:, ::-1]
            batch.append((image, labels))
        return batch

    rows: list[EpochRow] = []
    aggregate_state: aggregator.AggregateState | None = None

    # source-only warm-up; shares the global poly schedule
    for w_step in range(cfg.warmup_epochs * cfg.iters_per_epoch):
        lr = poly_lr(step, total_iter, cfg.lr0)
        seed = int(dropout_rng.integers(0, 2**62))
        try:
            params, _ = model.grad_step(params, source_batch(), lr, dropout_seed=seed)
        except DivergenceError as exc:
            if out_dir:
                _persist(out_dir, model, params, None, 0, rows, config_echo)
            raise DivergenceError(f"warm-up iteration {w_step + 1}: {exc}") from exc
        step += 1

    dist = sampler.init_uniform(n_target)
    dist_trace: list[np.ndarray] = []
    snapshots: list[aggregator.Snapshot] = []
    oracle_errors: list[float] = []
    aggregate_params = params
    last_good = params.copy()
    lr = poly_lr(step, total_iter, cfg.lr0)
    if cfg.aggregation == "ema":
        # teacher starts as a copy of the student entering adaptation
        aggregate_state = aggregator.AggregateState(mean_params=params.copy(), count=1)

    for t in range(1, cfg.epochs + 1):
        dist_trace.append(dist.weights.copy())
        for i in range(cfg.iters_per_epoch):
            lr = poly_lr(step, total_iter, cfg.lr0)
            batch = source_batch()
            target_idx = sampler.draw(dist, sampling_rng, cfg.batch_size)
            target_batch = [view.target_images[j] for j in target_idx]
            seed = int(dropout_rng.integers(0, 2**62))
            try:
                loss, grad = model.loss_and_grad(params, batch, dropout_seed=seed)
                reg_loss, reg_grad = reg(params, target_batch)
                if reg_grad.shape != (model.param_count,):
                    raise ValueError(
                        f"regularizer gradient has shape {reg_grad.shape}, "
                        f"expected ({model.param_count},)"
                    )
                if not np.isfinite(loss + reg_loss):
                    raise DivergenceError(f"non-finite loss {loss + reg_loss!r}")
                params = params - lr * (grad + reg_grad)
            except DivergenceError as exc:
                if out_dir:
                    _persist(out_dir, model, last_good, aggregate_state, t - 1, rows, config_echo)
                raise DivergenceError(f"epoch {t} iteration {i + 1}: {exc}") from exc
            if cfg.aggregation == "ema":
                aggregate_state = aggregator.update_ema(aggregate_state, params, cfg.ema_decay)
            step += 1
        last_good = params.copy()

        snap = aggregator.Snapshot(params=params.copy(), epoch=t)
        snapshots.append(snap)
        student_tgt_cm = None
        if cfg.aggregation == "running-mean":
            aggregate_state = (
                aggregator.init(snap)
                if aggregate_state is None
                else aggregator.update_running_mean(aggregate_state, snap)
            )
            aggregate_params = aggregate_state.mean_params
        elif cfg.aggregation == "momentum":
            aggregate_state = (
                aggregator.init(snap)
                if aggregate_state is None
                else aggregator.update_momentum(aggregate_state, snap, cfg.momentum)
            )
            aggregate_params = aggregate_state.mean_params
        elif cfg.aggregation == "ema":
            aggregate_params = aggregate_state.mean_params
        elif cfg.aggregation == "oracle-alpha":
            student_tgt_cm = dataset_confusion(
                model, params, data.target_images, data.target_labels_heldout
            )
            err = float(np.clip(1.0 - pixel_accuracy(student_tgt_cm), 1e-6, 1.0 - 1e-6))
            oracle_errors.append(err)
            alphas = [aggregator.adaboost_alpha(e) for e in oracle_errors]
            if min(alphas) <= 0.0 or sum(alphas) <= 0.0:
                # boosting weights degenerate when a snapshot is no better
                # than chance; fall back to the plain mean
                alphas = [1.0] * len(snapshots)
            combined = aggregator.weighted_combine(snapshots, alphas)
            aggregate_state = aggregator.AggregateState(mean_params=combined, count=t)
            aggregate_params = combined
        else:  # "none"
            aggregate_params = params

        # distribution phase: aggregate held fixed while D is refreshed
        scores = score_fn(model, aggregate_params, view.target_images, criterion)
        used_entropy = float(entropy(dist.weights))
        mean_score = float(np.mean(scores.values))
        if cfg.sampler != "uniform":
            dist = sampler.update(dist, normalize_scores(scores, cfg.softmax_temperature))

        # each distinct (params, image set) is forwarded once per epoch: the
        # scoring pass's predictions give the aggregate's target confusion
        if scores.predicted is None:
            raise ValueError("scorer returned no fused predictions")
        aggregate_tgt_cm = confusion_matrix(
            scores.predicted, data.target_labels_heldout, model.config.classes
        )
        if student_tgt_cm is None:
            student_tgt_cm = (
                aggregate_tgt_cm
                if np.array_equal(aggregate_params, params)
                else dataset_confusion(
                    model, params, data.target_images, data.target_labels_heldout
                )
            )
        student_src = evaluate_miou(model, params, data.source_images, data.source_labels)
        student_tgt = miou(student_tgt_cm)
        aggregate_tgt = miou(aggregate_tgt_cm)
        rows.append(
            EpochRow(
                epoch=t,
                iter=step,
                variant=variant,
                lr=lr,
                student_src_miou=student_src,
                student_tgt_miou=student_tgt,
                aggregate_tgt_miou=aggregate_tgt,
                dist_entropy=used_entropy,
                mean_vkl=mean_score,
            )
        )

    report = MetricsReport(rows=tuple(rows), config_echo=config_echo)
    if out_dir:
        _persist(out_dir, model, params, aggregate_state, cfg.epochs, rows, config_echo)
        if cfg.dump_distributions:
            _write_distributions(os.path.join(out_dir, DISTRIBUTIONS_NAME), dist_trace)
    return RunResult(
        report=report,
        student=params,
        aggregate=aggregate_params,
        distribution=dist,
        distributions=tuple(dist_trace),
        snapshots=tuple(snapshots),
        model=model,
    )


def run_ablation_suite(
    base_cfg: ExperimentConfig,
    seeds: Sequence[int],
    variants: Sequence[str] = ABLATION_VARIANTS,
    out_dir: str | None = None,
) -> list[SummaryRow]:
    """Run every (variant, seed) cell; a diverged cell is recorded as NaN and
    the suite continues, any other error propagates. Within one seed all
    variants share the same dataset."""
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    rows: list[SummaryRow] = []
    for variant in variants:
        for seed in seeds:
            cfg = replace(apply_variant(base_cfg, variant), seed=seed, out_dir=None)
            run_dir = os.path.join(out_dir, "runs", f"{variant}-seed{seed}") if out_dir else None
            try:
                result = run_experiment(cfg, variant_label=variant, out_dir=run_dir)
                summary = result.report.summary(cfg.eval_last_k)
                rows.append(
                    SummaryRow(
                        variant=variant,
                        seed=seed,
                        final_student_miou=result.report.rows[-1].student_tgt_miou,
                        final_aggregate_miou=result.report.rows[-1].aggregate_tgt_miou,
                        lastk_student_std=summary.lastk_student_std,
                        lastk_aggregate_std=summary.lastk_aggregate_std,
                    )
                )
            except DivergenceError:
                rows.append(
                    SummaryRow(
                        variant=variant,
                        seed=seed,
                        final_student_miou=float("nan"),
                        final_aggregate_miou=float("nan"),
                        lastk_student_std=float("nan"),
                        lastk_aggregate_std=float("nan"),
                    )
                )
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_summary(os.path.join(out_dir, SUMMARY_NAME), rows)
    return rows
