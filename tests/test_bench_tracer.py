"""The benchmark still finds every package name it reads.

``bench/tracer.py`` wraps package callables by name with ``getattr``, so a
name that the package renames or deletes breaks ``bench/run.py --trace 1``.
This runs the tracer over a tiny suite of every preset and checks that it
reports every per-layer metric ``BENCHMARK.json`` declares, and that its
image counts read the image stacks the model and the hooks are given. The
other ``bench/`` files read names through the package namespace, which
holds only those; a second test resolves each of them.
"""

import json
import re
import time
from pathlib import Path

from boostadapt.config import VARIANT_PRESETS
from boostadapt.harness import run_ablation_suite

from helpers import small_experiment_config

ROOT = Path(__file__).resolve().parents[1]

# added by the benchmark worker, not by the tracer
WORKER_METRICS = ("quality.", "trace.overhead_s")


def test_tracer_reports_every_declared_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from tracer import Tracer

    cfg = small_experiment_config(epochs=2, iters_per_epoch=2, eval_last_k=1)
    start = time.perf_counter()
    with Tracer().install() as tracer:
        run_ablation_suite(cfg, [1], variants=sorted(VARIANT_PRESETS), out_dir=str(tmp_path))
    metrics = tracer.layer_metrics(time.perf_counter() - start)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    wanted = {m["name"] for m in declared if not m["name"].startswith(WORKER_METRICS)}
    assert wanted and wanted - metrics.keys() == set()
    # the tracer counts a call's images as the length of its image argument,
    # so every training call and every hook call counts one full batch
    for name in ("model.loss_and_grad", "regularizers.hook"):
        assert metrics[f"{name}.calls"] > 0
        assert metrics[f"{name}.images"] == metrics[f"{name}.calls"] * cfg.batch_size, name


def test_every_package_name_bench_reads_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import load_package

    pkg = load_package(str(ROOT))
    reads = {
        match
        for path in sorted((ROOT / "bench").glob("*.py"))
        for match in re.findall(r"\bpkg((?:\.\w+)+)", path.read_text())
    }
    assert reads
    for read in sorted(reads):
        owner = pkg
        for attr in read.split(".")[1:]:
            assert hasattr(owner, attr), f"bench reads pkg{read}"
            owner = getattr(owner, attr)
