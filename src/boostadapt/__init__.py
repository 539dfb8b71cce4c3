"""Variance-driven adaptive sampling with online snapshot weight averaging.

A desk-scale, fully deterministic implementation of an adaptive training
strategy for unsupervised domain adaptation: unlabeled target images are
sampled in proportion to the disagreement between two classifier heads, and
per-epoch model snapshots are folded into an online weight average whose
predictions are markedly more stable than any single snapshot's.

Import a name from its module. The package namespace holds only what the
benchmark reads through it.
"""

from .config import apply_variant, experiment_config_from_dict, load_experiment_config
from .data import generate_domain_pair
from .harness import run_ablation_suite
from .report import SummaryRow, read_report, read_summary, write_summary

__version__ = "0.1.0"
