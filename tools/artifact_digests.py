"""Print the sha256 of every file the variant presets write.

Runs each of the 9 presets in ``VARIANT_PRESETS`` under each of the 3
regularizers on the default config, with ``dump_distributions`` on, into a
temporary directory, and prints one ``<sha256>  <relative path>`` line per
file written, sorted by path. Two checkouts that must write the same bytes
give the same output, so a byte-identity check is one ``diff``:

    PYTHONPATH=src python3 tools/artifact_digests.py --seed 1 > digests.txt

A run that diverges still writes its last good state; its files are hashed
like any other and the divergence is noted on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from dataclasses import replace

from boostadapt.config import REGULARIZERS, VARIANT_PRESETS, ExperimentConfig, apply_variant
from boostadapt.errors import DivergenceError
from boostadapt.harness import run_experiment


def digests(root: str) -> list[str]:
    """``<sha256>  <path relative to root>`` for every file under ``root``, sorted by path."""
    lines = []
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, root), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(lines)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="master seed of every run")
    args = parser.parse_args(argv)
    base = replace(ExperimentConfig(seed=args.seed), dump_distributions=True)
    with tempfile.TemporaryDirectory() as tmp:
        for variant in sorted(VARIANT_PRESETS):
            for regularizer in REGULARIZERS:
                cfg = replace(apply_variant(base, variant), regularizer=regularizer)
                out_dir = os.path.join(tmp, variant, regularizer)
                try:
                    run_experiment(cfg, variant_label=variant, out_dir=out_dir)
                except DivergenceError as exc:
                    print(f"{variant}/{regularizer} diverged: {exc}", file=sys.stderr)
        print("\n".join(digests(tmp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
