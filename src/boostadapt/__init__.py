"""Variance-driven adaptive sampling with online snapshot weight averaging.

A desk-scale, fully deterministic implementation of an adaptive training
strategy for unsupervised domain adaptation: unlabeled target images are
sampled in proportion to the disagreement between two classifier heads, and
per-epoch model snapshots are folded into an online weight average whose
predictions are markedly more stable than any single snapshot's.
"""

from .aggregator import (
    adaboost_alpha,
    update_ema,
    update_momentum,
    update_running_mean,
    weighted_combine,
)
from .config import (
    ABLATION_VARIANTS,
    VARIANT_PRESETS,
    ExperimentConfig,
    apply_variant,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_experiment_config,
)
from .data import (
    DomainPair,
    ShiftConfig,
    export_domain_pair,
    generate_domain_pair,
    import_domain_pair,
)
from .errors import ConfigError, DivergenceError, FormatError, SnapshotFormatError
from .harness import RunResult, run_ablation_suite, run_experiment
from .metrics import confusion_matrix, iou_per_class, miou, pixel_accuracy, trajectory_stats
from .model import ModelConfig, TwoHeadModel, fuse_predictions, poly_lr, source_loss
from .numerics import (
    cross_entropy,
    entropy,
    finite_difference_gradient,
    kl_pointwise,
    log_softmax,
    softmax,
)
from .paramio import SnapshotInfo, load_file, load_params, save_params, save_snapshot
from .regularizers import RegularizerHook, make_regularizer
from .report import EpochRow, MetricsReport, SummaryRow, read_report, read_summary, write_report, write_summary
from .sampler import SampleDistribution, draw, init_uniform, update
from .uncertainty import (
    entropy_image,
    kl_variance_image,
    normalize_scores,
    score_dataset,
)

__version__ = "0.1.0"
