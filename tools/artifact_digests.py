"""Print the sha256 of every file the variant presets write.

Runs each of the 9 presets in ``VARIANT_PRESETS`` under each of the 3
regularizers on the default config, with ``dump_distributions`` on, into a
temporary directory, and prints one ``<sha256>  <relative path>`` line per
file written, sorted by path. Two checkouts that must write the same bytes
give the same output, so a byte-identity check is one ``diff``:

    PYTHONPATH=src python3 tools/artifact_digests.py --seed 1 > digests.txt

Each preset also runs as ``repeats-<regularizer>`` under each hook kind in
``regularizers.KINDS`` (``entropy-min`` and ``self-training``): batches
of 8 drawn from 16 source and 16 target images at 16x16 with
``horizontal_flip`` on, 4 epochs of 5 iterations, so batches hold repeated
and flipped draws, which training computes once per distinct input.

Each preset also runs as ``32x32-<regularizer>`` under each regularizer:
32x32 images, where a training stack holds one image (``chunk`` 1), in
batches of 4 drawn from 8 source and 8 target images, 2 epochs of 5
iterations, so the one-image stacks that 16x16 runs never make are hashed
too.

Each preset also runs five forced divergences, so the state a diverging
run persists is hashed too. The first three put a hook in place of
``harness.make_regularizer``, which the harness calls once per run under
every regularizer but ``none``; they run the default config, so the
injected hook stands in for its ``self-training`` hook. A hook returning a
NaN loss at epoch 1 iteration 3 (``diverge-e1i3``) and at epoch 2
iteration 3 (``diverge-e2i3``); a hook whose gradient is -1e308 at the last
iteration of epoch 1, which leaves finite params whose logits overflow in
epoch 2's first training forward (``diverge-logits``); ``lr0=1e308``,
whose loss overflows at warm-up iteration 2 (``diverge-warmup``); and
``lr0=1e308`` with one iteration per epoch and no warm-up, whose epoch-1
step overflows the params that the epoch-end eval passes then read, before
epoch 2's loss is non-finite (``diverge-epoch-end``). Every divergence is
noted on stderr, and no numpy ``RuntimeWarning`` should be.

The ``full-variance`` preset also goes through the CLI's import path:
``gen-data`` exports its pair to ``full-variance/export/`` and ``run --data``
trains on that export into ``full-variance/from-export/``, whose files must
hash as ``full-variance/self-training/``'s do. The CLI's messages go to
stderr.

Last, ``run_ablation_suite`` runs all 9 presets on seeds N and N+1 under
each regularizer into ``ablation/<regularizer>/``, so what the suite's cells
share (a domain pair and the steps and eval passes they reach alike) is
hashed under every hook: its ``summary.csv`` and every
``runs/<variant>-seed<seed>/`` file.

The first line printed names the seed and the build (python, numpy and the
BLAS library), because another build may round differently. ``DIGESTS.txt``
at the repository root holds the seed-1 output, and

    PYTHONPATH=src python3 tools/artifact_digests.py --check DIGESTS.txt

reruns the tool at that file's seed and exits 1, naming every path whose
hash moved, appeared or went missing. On another build it says so and
exits 1 without running anything: the file proves nothing there. A change
that moves bytes on purpose regenerates the file in the same commit.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace

import numpy as np

from boostadapt import harness, regularizers
from boostadapt.cli import cli_main
from boostadapt.config import (
    REGULARIZERS,
    VARIANT_PRESETS,
    ExperimentConfig,
    apply_variant,
    experiment_config_to_dict,
)
from boostadapt.errors import DivergenceError


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


def term_at(call: int, loss: float, grad: float):
    """Regularizer hook with a zero term, except a term of ``loss`` and a
    gradient of ``grad`` everywhere on call ``call``."""
    calls = [0]

    def hook(params, images):
        calls[0] += 1
        if calls[0] == call:
            return loss, np.full(params.size, grad)
        return 0.0, np.zeros(params.size)

    return hook


@contextlib.contextmanager
def regularized_by(hook):
    """Make ``hook`` the regularizer of every run inside the block."""
    make_regularizer = harness.make_regularizer
    harness.make_regularizer = lambda model, kind, weight: hook
    try:
        yield
    finally:
        harness.make_regularizer = make_regularizer


def run(cfg: ExperimentConfig, root: str, variant: str, name: str) -> None:
    """Run ``cfg`` into ``root/variant/name``, noting a divergence on stderr."""
    out_dir = os.path.join(root, variant, name)
    try:
        harness.run_experiment(cfg, variant_label=variant, out_dir=out_dir)
    except DivergenceError as exc:
        print(f"{variant}/{name} diverged: {exc}", file=sys.stderr)


def repeats(cfg: ExperimentConfig, regularizer: str) -> ExperimentConfig:
    """``cfg`` under ``regularizer`` with batches of 8 from 16 + 16 images,
    some drawn flipped, so most batches repeat an input."""
    return replace(
        cfg,
        regularizer=regularizer,
        epochs=4,
        iters_per_epoch=5,
        warmup_epochs=1,
        eval_last_k=2,
        batch_size=8,
        horizontal_flip=True,
        shift=replace(cfg.shift, height=16, width=16, source_count=16, target_count=16),
    )


def wide(cfg: ExperimentConfig, regularizer: str) -> ExperimentConfig:
    """``cfg`` under ``regularizer`` on 32x32 images, which train one image
    per stack, shortened to 2 epochs of 5 iterations on 8 + 8 images."""
    return replace(
        cfg,
        regularizer=regularizer,
        epochs=2,
        iters_per_epoch=5,
        warmup_epochs=1,
        eval_last_k=2,
        batch_size=4,
        shift=replace(cfg.shift, height=32, width=32, source_count=8, target_count=8),
    )


def from_export(cfg: ExperimentConfig, root: str, variant: str) -> None:
    """``gen-data`` of ``cfg`` into ``root/variant/export``, then ``run
    --data`` on that export into ``root/variant/from-export``, through the
    CLI with its stdout sent to stderr."""
    with tempfile.TemporaryDirectory() as conf_dir:
        config = os.path.join(conf_dir, "config.json")
        with open(config, "w") as fh:
            json.dump(experiment_config_to_dict(cfg), fh)
        export, out = (os.path.join(root, variant, name) for name in ("export", "from-export"))
        with contextlib.redirect_stdout(sys.stderr):
            for argv in (
                ["gen-data", "--config", config, "--out", export],
                ["run", "--config", config, "--variant", variant, "--data", export, "--out", out],
            ):
                if cli_main(argv) != 0:
                    raise RuntimeError(f"boostadapt {' '.join(argv)} failed")


def all_digests(seed: int) -> list[str]:
    """The digest lines of every file the runs at ``seed`` write."""
    base = replace(ExperimentConfig(seed=seed), dump_distributions=True)
    with tempfile.TemporaryDirectory() as tmp:
        for variant in sorted(VARIANT_PRESETS):
            cfg = apply_variant(base, variant)
            for regularizer in REGULARIZERS:
                run(replace(cfg, regularizer=regularizer), tmp, variant, regularizer)
            for regularizer in regularizers.KINDS:
                run(repeats(cfg, regularizer), tmp, variant, f"repeats-{regularizer}")
            for regularizer in REGULARIZERS:
                run(wide(cfg, regularizer), tmp, variant, f"32x32-{regularizer}")
            for epoch in (1, 2):
                call = (epoch - 1) * cfg.iters_per_epoch + 3
                with regularized_by(term_at(call, float("nan"), 0.0)):
                    run(cfg, tmp, variant, f"diverge-e{epoch}i3")
            with regularized_by(term_at(cfg.iters_per_epoch, 0.0, -1e308)):
                run(cfg, tmp, variant, "diverge-logits")
            run(replace(cfg, lr0=1e308), tmp, variant, "diverge-warmup")
            epoch_end = replace(cfg, iters_per_epoch=1, warmup_epochs=0, lr0=1e308)
            run(epoch_end, tmp, variant, "diverge-epoch-end")
        from_export(apply_variant(base, "full-variance"), tmp, "full-variance")
        for regularizer in REGULARIZERS:
            harness.run_ablation_suite(
                replace(base, regularizer=regularizer),
                [seed, seed + 1],
                variants=sorted(VARIANT_PRESETS),
                out_dir=os.path.join(tmp, "ablation", regularizer),
            )
        return digests(tmp)


def header(seed: int) -> str:
    """The first output line: the seed, and the python, numpy and BLAS build
    the digests were made with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"# seed {seed}; python {platform.python_version()}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}"
    )


def check(path: str) -> int:
    """Rerun at the seed of the digest file ``path`` and compare: 0 when
    every line is equal, 1 naming each path that differs, or when ``path``
    was made on another build."""
    with open(path) as fh:
        first, *lines = fh.read().splitlines()
    seed = int(first.removeprefix("# seed ").split(";")[0])
    if first != header(seed):
        print(f"build differs, nothing checked: {path} has {first!r}, here {header(seed)!r}")
        return 1
    want, got = (
        {rel: digest for digest, rel in (line.split("  ", 1) for line in found)}
        for found in (lines, all_digests(seed))
    )
    moved = [
        f"{'moved' if rel in got else 'missing'}: {rel}"
        for rel in sorted(want)
        if got.get(rel) != want[rel]
    ] + [f"new: {rel}" for rel in sorted(set(got) - set(want))]
    print("\n".join(moved) if moved else f"{len(want)} digests unchanged at seed {seed}")
    return 1 if moved else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seed", type=int, help="master seed of every run")
    mode.add_argument("--check", metavar="FILE", help="rerun at FILE's seed and compare")
    args = parser.parse_args(argv)
    if args.check:
        return check(args.check)
    print("\n".join([header(args.seed), *all_digests(args.seed)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
