"""Command-line entry points.

Subcommands:
    run       one experiment -> report.csv, student.abst, aggregate.abst
    ablate    the variant grid over a list of seeds -> summary.csv
    inspect   print header and summary statistics of a snapshot file
    gen-data  render the synthetic domain pair a config's run trains on to disk

Exit codes: 0 success, 2 configuration error, 3 training divergence,
4 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from . import paramio
from .config import VARIANT_PRESETS, ExperimentConfig, apply_variant, load_experiment_config
from .data import export_domain_pair, generate_domain_pair, import_domain_pair
from .errors import ConfigError, DivergenceError, FormatError
from .harness import SharedWork, data_shift, run_ablation_suite, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostadapt",
        description="Adaptive target sampling with snapshot weight averaging, desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument(
        "--variant",
        default=None,
        choices=sorted(VARIANT_PRESETS),
        help="apply a named variant preset",
    )
    run_p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    run_p.add_argument(
        "--data", default=None, help="read the domain pair from this exported directory"
    )
    run_p.set_defaults(func=_cmd_run)

    ablate_p = sub.add_parser("ablate", help="run the ablation grid")
    ablate_p.add_argument("--config", required=True, help="experiment config JSON")
    ablate_p.add_argument(
        "--seeds", required=True, help="comma-separated master seeds, e.g. 1,2,3"
    )
    ablate_p.add_argument("--out", required=True, help="output directory")
    ablate_p.set_defaults(func=_cmd_ablate)

    inspect_p = sub.add_parser("inspect", help="describe a snapshot file")
    inspect_p.add_argument("--snapshot", required=True, help="path to an .abst file")
    inspect_p.set_defaults(func=_cmd_inspect)

    gen_p = sub.add_parser("gen-data", help="export the synthetic domain pair")
    gen_p.add_argument("--config", required=True, help="experiment config JSON")
    gen_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    gen_p.add_argument("--out", required=True, help="output directory")
    gen_p.set_defaults(func=_cmd_gen_data)
    return parser


def _seeded_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config file of ``args``, its master seed replaced by ``--seed``."""
    cfg = load_experiment_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _seeded_config(args)
    if args.variant is not None:
        cfg = apply_variant(cfg, args.variant)
    out_dir = args.out or cfg.out_dir
    if out_dir is None:
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    work = SharedWork(cfg, import_domain_pair(args.data)) if args.data else None
    result = run_experiment(cfg, variant_label=args.variant, shared=work, out_dir=out_dir)
    last = result.report.rows[-1]
    print(
        f"run complete: {len(result.report.rows)} epochs, "
        f"final student target mIoU {last.student_tgt_miou:.4f}, "
        f"aggregate {last.aggregate_tgt_miou:.4f} -> {out_dir}"
    )
    return EXIT_OK


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = load_experiment_config(args.config)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --seeds value {args.seeds!r}: {exc}") from exc
    if not seeds:
        raise ConfigError("--seeds must name at least one seed")
    if any(s < 0 for s in seeds):
        raise ConfigError("seeds must be non-negative")
    rows = run_ablation_suite(cfg, seeds, out_dir=args.out)
    failed = sum(1 for r in rows if np.isnan(r.final_student_miou))
    print(f"ablation complete: {len(rows)} runs, {failed} failed -> {args.out}")
    return EXIT_OK


def _cmd_inspect(args: argparse.Namespace) -> int:
    info = paramio.load_file(args.snapshot)
    role = {None: "plain", paramio.ROLE_STUDENT: "student", paramio.ROLE_AGGREGATE: "aggregate"}[
        info.role
    ]
    print(f"file: {args.snapshot}")
    print(f"format: ABST v{paramio.VERSION}")
    print(f"role: {role}")
    if info.seq is not None:
        label = "epoch" if info.role == paramio.ROLE_STUDENT else "snapshots"
        print(f"{label}: {info.seq}")
    p = info.params
    print(f"params: {p.size}")
    print(f"min: {float(p.min())!r}")
    print(f"max: {float(p.max())!r}")
    print(f"mean: {float(p.mean())!r}")
    # hypot scales as it goes, so a finite norm never overflows to inf
    print(f"l2: {math.hypot(*p)!r}")
    return EXIT_OK


def _cmd_gen_data(args: argparse.Namespace) -> int:
    cfg = _seeded_config(args)
    # the pair `run` trains on: its seed comes from the master seed
    pair = generate_domain_pair(data_shift(cfg))
    export_domain_pair(pair, args.out)
    print(
        f"wrote {len(pair.source_images)} source / {len(pair.target_images)} target "
        f"images to {args.out}"
    )
    print(json.dumps(asdict(pair.config), sort_keys=True))
    return EXIT_OK


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except (FormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
