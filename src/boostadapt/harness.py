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

The cells of one ablation-suite seed share one ``SharedWork``: the seed's
domain pair, and a memo of training steps and eval passes keyed by what they
read. A step or pass that several cells reach on the same inputs is computed
once, and every cell reads the same array.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from . import aggregator, paramio, sampler
from .config import ABLATION_VARIANTS, ExperimentConfig, apply_variant, experiment_config_to_dict
from .data import DomainPair, ShiftConfig, generate_domain_pair
from .errors import ConfigError, DivergenceError
from .metrics import confusion_matrix, miou, pixel_accuracy
from .model import TwoHeadModel, fuse_predictions, poly_lr
from .numerics import entropy
from .regularizers import make_regularizer
from .report import EpochRow, MetricsReport, SummaryRow, write_report, write_summary
from .rng import substream, substream_seed
from .uncertainty import normalize_scores, score_dataset

REPORT_NAME = "report.csv"
STUDENT_NAME = "student.abst"
AGGREGATE_NAME = "aggregate.abst"
DISTRIBUTIONS_NAME = "distributions.csv"
SUMMARY_NAME = "summary.csv"

# The fields that reach a training step or an eval pass only through its memo
# key (the sampling distribution's weights, the params' bytes or the score
# criterion) or not at all.
_PER_CELL_FIELDS = (
    "sampler",
    "aggregation",
    "momentum",
    "ema_decay",
    "softmax_temperature",
    "eval_last_k",
    "dump_distributions",
    "out_dir",
)


@dataclass(frozen=True)
class RunResult:
    report: MetricsReport
    aggregate: np.ndarray
    distribution: sampler.SampleDistribution
    distributions: tuple[np.ndarray, ...]  # D_t used in epoch t, t = 1..T1
    snapshots: tuple[np.ndarray, ...]  # student at the end of epoch t, t = 1..T1


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


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def data_shift(cfg: ExperimentConfig) -> ShiftConfig:
    """The shift config of the domain pair a run of ``cfg`` trains on:
    ``cfg.shift`` seeded from the master seed's ``data`` substream."""
    return replace(cfg.shift, seed=substream_seed(cfg.seed, "data"))


def work_scope(cfg: ExperimentConfig) -> tuple:
    """The scope within which runs may share a ``SharedWork``: the (name,
    value) of every ``cfg`` field except those that reach a step or an eval
    pass only through its memo key, so a field added later keeps runs that
    differ in it apart."""
    return tuple(
        (f.name, getattr(cfg, f.name)) for f in fields(cfg) if f.name not in _PER_CELL_FIELDS
    )


class SharedWork:
    """The domain pair of one ``work_scope`` and the training steps and eval
    passes of its runs, memoized by what they read. ``lineage`` gives each
    student the id of the step that made it (``step_how``), naming the
    whole chain of steps from the scope's init. An eval pass is keyed by
    the id of the epoch-end student whose chain made its params, the
    params' bytes, and the split or criterion. A hit returns the read-only
    array the first run to reach the key computed, so sharing changes no
    output bit. Steps drawn from unequal distributions, and bit-equal
    params of two chains, stay apart, so the work a suite does never
    hinges on near-uniform draws agreeing. With ``keep_steps`` off, as it
    starts, steps are still looked up but no new one is stored: a lone
    run, and a suite's last cell, can never repeat one. ``data``, when
    given, must be the pair ``cfg`` makes."""

    def __init__(self, cfg: ExperimentConfig, data: DomainPair | None = None) -> None:
        shift = data_shift(cfg)
        if data is not None and data.config != shift:
            got, want = asdict(data.config), asdict(shift)
            differ = [f"{k} {got[k]!r} (config: {want[k]!r})" for k in want if got[k] != want[k]]
            raise ConfigError(f"domain pair of another config: {', '.join(differ)}")
        self.scope = work_scope(cfg)
        self.data = data if data is not None else generate_domain_pair(shift)
        self.keep_steps = False
        self._ids: dict[tuple, int] = {}
        self.values: dict[tuple, np.ndarray] = {}

    def lineage(self, *how: object) -> int:
        """The id of the student made ``how``: equal exactly for equal ``how``."""
        return self._ids.setdefault(how, len(self._ids))

    def get(self, how: tuple, compute: Callable[[], np.ndarray], keep: bool = True) -> np.ndarray:
        """The read-only array made ``how``, computed on a miss and stored
        when ``keep``. A compute that raises stores nothing."""
        if how in self.values:
            return self.values[how]
        # overflow surfaces as the typed non-finite check alone, no warning
        with np.errstate(over="ignore", invalid="ignore"):
            value = _frozen(compute())
        if keep:
            self.values[how] = value
        return value


def step_how(
    student: int,
    lr: float,
    dropout_seed: int,
    source: np.ndarray,
    flips: tuple[bool, ...],
    target: bytes | None,
) -> tuple:
    """The ``SharedWork`` key of one step from the params of id ``student``:
    what it reads, the learning rate, the dropout seed, the source draw and
    what the target draw reads. ``target`` is the bytes of the sampling
    distribution's weights, or None for a step with no target term
    (warm-up, or no regularizer hook). The weights and the sampling
    stream's position, which the student's chain fixes, make the draw, so
    equal weights make one step and equal draws from unequal weights two."""
    return ("step", student, lr, dropout_seed, source.tobytes(), flips, target)


def _persist(
    out_dir: str,
    student: np.ndarray,
    aggregate: np.ndarray,
    count: int,
    rows: Sequence[EpochRow],
    config_echo: dict,
) -> None:
    """Student seq is the number of completed epochs, ``len(rows)``;
    aggregate seq the ``count`` of models folded into it."""
    os.makedirs(out_dir, exist_ok=True)
    paramio.save_snapshot(
        os.path.join(out_dir, STUDENT_NAME), student, paramio.ROLE_STUDENT, len(rows)
    )
    paramio.save_snapshot(
        os.path.join(out_dir, AGGREGATE_NAME), aggregate, paramio.ROLE_AGGREGATE, count
    )
    write_report(
        os.path.join(out_dir, REPORT_NAME),
        MetricsReport(rows=tuple(rows), config_echo=config_echo),
    )


def _write_distributions(path: str, dists: Sequence[np.ndarray]) -> None:
    lines = ["epoch,index,weight"]
    for t, weights in enumerate(dists, start=1):
        for j, w in enumerate(weights):
            lines.append(f"{t},{j},{float(w)!r}")
    paramio.write_atomic(path, ("\n".join(lines) + "\n").encode())


def run_experiment(
    cfg: ExperimentConfig,
    *,
    variant_label: str | None = None,
    shared: SharedWork | None = None,
    out_dir: str | None = None,
) -> RunResult:
    """Run one experiment. Writes report + snapshots when an out dir is given
    (argument wins over ``cfg.out_dir``). On divergence it first persists
    the student entering the failing warm-up step (seq 0, aggregate = it,
    seq 1) or the student, aggregate and rows of the last completed epoch.

    ``shared`` is a ``SharedWork`` of ``work_scope(cfg)``: the run trains on
    its domain pair and fills and reads its memo. A run given none is a
    one-cell suite, with a ``SharedWork(cfg)`` of its own."""
    out_dir = out_dir or cfg.out_dir
    variant = variant_label or f"{cfg.sampler}+{cfg.aggregation}"
    model = TwoHeadModel(cfg.model_config())
    work = shared if shared is not None else SharedWork(cfg)
    if work.scope != work_scope(cfg):
        raise ValueError("shared work of another scope")
    data = work.data
    n_source = len(data.source_images)

    params = model.init_params(substream_seed(cfg.seed, "init"))
    dropout_rng = substream(cfg.seed, "dropout")
    sampling_rng = substream(cfg.seed, "sampling")
    reg = None  # under "none" every step trains as a warm-up step does
    if cfg.regularizer != "none":
        reg = make_regularizer(model, cfg.regularizer, cfg.regularizer_weight)
    # the entropy criterion drives sampling only when selected; the report's
    # score column always reflects the criterion used for the update, with
    # kl-variance as the diagnostic default under uniform sampling
    criterion = cfg.sampler if cfg.sampler != "uniform" else "kl-variance"

    # the decay horizon may extend past the run so the last epochs still move
    total_iter = cfg.decay_horizon()
    step = 0
    config_echo = experiment_config_to_dict(cfg)
    config_echo["variant"] = variant

    def sgd_step(
        student: int,
        params: np.ndarray,
        lr: float,
        dist: sampler.SampleDistribution | None,
        weights: bytes | None = None,
    ) -> tuple[int, np.ndarray]:
        """The id and params of one step from ``params`` (id ``student``) on
        a uniformly drawn source batch, plus the regularizer term of a target
        batch drawn from ``dist``, of weights' bytes ``weights`` (none in
        warm-up, ``dist`` None, or without a hook, ``reg`` None). The draws
        are made even when the step is shared or has no target term, so
        both RNG streams advance as if it were computed here."""
        source = sampling_rng.integers(0, n_source, cfg.batch_size)
        flips = tuple(cfg.horizontal_flip and sampling_rng.random() < 0.5 for _ in source)
        target = None if dist is None else sampler.draw(dist, sampling_rng, cfg.batch_size)
        if reg is None:
            target = None  # no hook reads the draw
        seed = int(dropout_rng.integers(0, 2**62))

        def compute() -> np.ndarray:
            images = data.source_images[source]
            labels = data.source_labels[source]
            flipped = np.array(flips, dtype=bool)
            images[flipped] = images[flipped, :, ::-1]
            labels[flipped] = labels[flipped, :, ::-1]
            term = None if target is None else reg(params, data.target_images[target])
            return model.grad_step(params, images, labels, lr, dropout_seed=seed, term=term)[0]

        how = step_how(student, lr, seed, source, flips, None if target is None else weights)
        return work.lineage(*how), work.get(how, compute, keep=work.keep_steps)

    def confusion(params: np.ndarray, made: bytes, split: str) -> np.ndarray:
        """The confusion matrix of ``params``, of bytes ``made``, on
        ``split``: "source", or "target" against the held-out labels."""
        images, labels = (
            (data.source_images, data.source_labels)
            if split == "source"
            else (data.target_images, data.target_labels_heldout)
        )
        how = ("confusion", student, made, split)
        return work.get(how, lambda: dataset_confusion(model, params, images, labels))

    def score(params: np.ndarray, made: bytes) -> np.ndarray:
        """The score values on the target images of ``params``, of bytes
        ``made``. A scoring pass also files their target confusion, from its
        fused predictions."""

        def compute() -> np.ndarray:
            values, predicted = score_dataset(model, params, data.target_images, criterion)
            work.get(
                ("confusion", student, made, "target"),
                lambda: confusion_matrix(
                    predicted, data.target_labels_heldout, model.config.classes
                ),
            )
            return values

        return work.get(("score", student, made, criterion), compute)

    rows: list[EpochRow] = []
    # what a divergence persists, (student, aggregate, its count): kept after
    # each warm-up step and epoch end
    kept = (params, params, 1)
    student = work.lineage("init")
    try:
        # source-only warm-up; shares the global poly schedule
        for w_step in range(cfg.warmup_epochs * cfg.iters_per_epoch):
            where = f"warm-up iteration {w_step + 1}"
            student, params = sgd_step(student, params, poly_lr(step, total_iter, cfg.lr0), None)
            kept = (params, params, 1)
            step += 1

        dist = sampler.init_uniform(len(data.target_images))
        dist_trace: list[np.ndarray] = []
        agg = aggregator.Aggregator(cfg.aggregation, params, cfg.momentum, cfg.ema_decay)

        for t in range(1, cfg.epochs + 1):
            dist_trace.append(dist.weights)
            # one copy of the weights' bytes for every step key of the epoch
            weights = dist.weights.tobytes()
            for i in range(cfg.iters_per_epoch):
                where = f"epoch {t} iteration {i + 1}"
                lr = poly_lr(step, total_iter, cfg.lr0)
                student, params = sgd_step(student, params, lr, dist, weights)
                agg.after_step(params)
                step += 1

            where = f"epoch {t} evaluation"
            # each params' bytes are taken once per epoch, for every pass's key
            student_made = params.tobytes()
            aggregate_params = agg.after_epoch(
                params,
                lambda: 1.0 - pixel_accuracy(confusion(params, student_made, "target")),
            )
            aggregate_made = aggregate_params.tobytes()

            # distribution phase: aggregate held fixed while D is refreshed
            scores = score(aggregate_params, aggregate_made)
            used_entropy = float(entropy(dist.weights))
            mean_score = float(np.mean(scores))
            if cfg.sampler != "uniform":
                dist = sampler.update(dist, normalize_scores(scores, cfg.softmax_temperature))

            rows.append(
                EpochRow(
                    epoch=t,
                    iter=step,
                    variant=variant,
                    lr=lr,
                    student_src_miou=miou(confusion(params, student_made, "source")),
                    student_tgt_miou=miou(confusion(params, student_made, "target")),
                    aggregate_tgt_miou=miou(confusion(aggregate_params, aggregate_made, "target")),
                    dist_entropy=used_entropy,
                    mean_vkl=mean_score,
                )
            )
            kept = (params, agg.params, agg.count)
    except DivergenceError as exc:
        if out_dir:
            _persist(out_dir, *kept, rows, config_echo)
        raise DivergenceError(f"{where}: {exc}") from exc

    report = MetricsReport(rows=tuple(rows), config_echo=config_echo)
    if out_dir:
        _persist(out_dir, params, agg.params, agg.count, rows, config_echo)
        if cfg.dump_distributions:
            _write_distributions(os.path.join(out_dir, DISTRIBUTIONS_NAME), dist_trace)
    return RunResult(
        report=report,
        aggregate=agg.params,
        distribution=dist,
        distributions=tuple(dist_trace),
        snapshots=tuple(agg.snapshots),
    )


def run_ablation_suite(
    base_cfg: ExperimentConfig,
    seeds: Sequence[int],
    variants: Sequence[str] = ABLATION_VARIANTS,
    out_dir: str | None = None,
) -> list[SummaryRow]:
    """Run every (variant, seed) cell; a diverged cell is recorded as NaN and
    the suite continues, any other error propagates. Cells run seed by seed:
    a variant preset sets per-cell fields only, so the cells of one seed
    share one ``SharedWork``, its domain pair and memo, dropped when the
    seed is done. A seed named twice raises ``ConfigError`` before any cell
    runs. Rows come back variant-major."""
    if len(seeds) == 0:
        raise ValueError("need at least one seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        raise ConfigError(f"seeds named more than once: {', '.join(map(str, repeated))}")
    cells: dict[tuple[int, int], SummaryRow] = {}
    for k, seed in enumerate(seeds):
        seed_cfg = replace(base_cfg, seed=seed, out_dir=None)
        work = SharedWork(seed_cfg)
        for v, variant in enumerate(variants):
            cfg = apply_variant(seed_cfg, variant)
            # no later cell reads the steps the last cell would store
            work.keep_steps = v + 1 < len(variants)
            run_dir = os.path.join(out_dir, "runs", f"{variant}-seed{seed}") if out_dir else None
            try:
                cells[v, k] = run_experiment(
                    cfg, variant_label=variant, shared=work, out_dir=run_dir
                ).report.summary(cfg.eval_last_k)
            except DivergenceError:
                cells[v, k] = SummaryRow(variant, seed, *(float("nan"),) * 4)
    rows = [cells[v, k] for v in range(len(variants)) for k in range(len(seeds))]
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_summary(os.path.join(out_dir, SUMMARY_NAME), rows)
    return rows
