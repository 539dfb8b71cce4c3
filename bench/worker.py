"""One benchmark process: runs a workload's executions back to back and writes
their measurements as JSON.

``bench/run.py`` starts it with the BLAS thread count already pinned in the
environment, so that numpy sees the pin when it is first imported here.
With ``--setup-started`` it only imports boostadapt, generates the
workload's domain pair and prints how long that took since the parent
spawned it (CLOCK_MONOTONIC is shared by all processes on Linux).

Executions run one at a time (a closed loop with one client). Every
execution of a workload repeats the same config, so every output file must
match the first one byte for byte. With ``--trace 1`` untraced and traced
executions alternate; the traced ones give the per-layer metrics and must
write the same bytes as the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import workloads
from calibrate import REFERENCE_S, kernel_seconds
from tracer import COUNT_SUFFIXES, Tracer


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help="scratch directory for this process")
    parser.add_argument("--result", help="where to write the measurements")
    parser.add_argument("--setup-started", type=float,
                        help="set-up only: CLOCK_MONOTONIC time the parent spawned this process")
    args = parser.parse_args()

    pkg = workloads.load_package(args.root)
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_started is not None:
        workloads.generate_data(pkg, workload, args.seed)
        raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.setup_started
        shift = workloads.experiment_configs(pkg, workload, args.seed)[0].shift
        kernel = kernel_seconds(shift.height, shift.width)
        print(json.dumps({"setup_s": raw * REFERENCE_S / kernel, "raw_s": raw}))
        return 0
    result = measure(pkg, workload, args.seed, args.seconds, bool(args.trace), args.work)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def measure(pkg, workload, seed: int, seconds: float, trace: bool, work: str) -> dict:
    cfgs = workloads.experiment_configs(pkg, workload, seed)
    passes = sum(workloads.image_passes(c) for c in cfgs)
    shape = (cfgs[0].shift.height, cfgs[0].shift.width)
    config_path = os.path.join(work, "config.json")
    workloads.write_config(workload, config_path)

    samples: dict[bool, list[tuple[float, float, float]]] = {False: [], True: []}
    layers: list[dict] = []
    problems: list[str] = []
    attempted = failed = 0
    reference = quality = None
    start = time.perf_counter()
    kernel_before = kernel_seconds(*shape)
    execution = 0
    # Untraced executions only, or untraced and traced in turn; at least two.
    while execution < 2 or time.perf_counter() - start < seconds:
        traced = trace and execution % 2 == 1
        out_dir = os.path.join(work, f"exec-{execution}")
        tracer = Tracer().install() if traced else None
        gc.collect()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            output = workloads.execute(pkg, workload, seed, config_path, out_dir)
            error = None
        except Exception:
            error = traceback.format_exc(limit=3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if tracer is not None:
            tracer.uninstall()
        kernel_after = kernel_seconds(*shape)
        samples[traced].append((wall, cpu, (kernel_before + kernel_after) / 2))
        kernel_before = kernel_after
        attempted += len(cfgs)
        if error is None:
            digest = _file_digest(output)
            reference = reference or digest
            if digest != reference:
                failed += len(cfgs)
                problems.append(f"execution {execution}: {os.path.basename(output)} differs from the first")
            else:
                bad = workloads.failed_cells(pkg, workload, cfgs, output)
                failed += bad
                if bad:
                    problems.append(f"execution {execution}: {bad} failed cells")
                elif quality is None:
                    quality = workloads.quality(pkg, workload, cfgs, output)
        else:
            failed += len(cfgs)
            problems.append(f"execution {execution} raised:\n{error}")
        if tracer is not None:
            layers.append(tracer.layer_metrics(wall))
            if len(layers) == 1:
                tracer.dump(os.path.join(work, "spans.jsonl"), execution)
        shutil.rmtree(out_dir, ignore_errors=True)
        execution += 1

    untraced = samples[False]
    run_s = statistics.median(w * REFERENCE_S / k for w, _, k in untraced)
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "executions": execution,
        "env": _environment(),
        "raw": {
            "run_s": statistics.median(w for w, _, _ in untraced),
            "run_cpu_s": statistics.median(c for _, c, _ in untraced),
            "kernel_s": statistics.median(k for _, _, k in untraced),
        },
        "metrics": {
            "run_s": run_s,
            "run_cpu_s": statistics.median(c * REFERENCE_S / k for _, c, k in untraced),
            "images_per_s": passes / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": 1.0 - failed / attempted,
        },
    }
    if trace:
        result["layers"] = _combine_layers(layers, problems)
        traced_s = statistics.median(w for w, _, _ in samples[True])
        result["layers"]["trace.overhead_s"] = traced_s - result["raw"]["run_s"]
        for key, value in (quality or {}).items():
            result["layers"][f"quality.{key}"] = value
    return result


def _combine_layers(layers: list[dict], problems: list[str]) -> dict:
    """Counts from the first traced execution (checked equal in the others),
    medians of everything else."""
    first = layers[0]
    for i, other in enumerate(layers[1:], start=1):
        for key in set(first) | set(other):
            if key.endswith(COUNT_SUFFIXES) and first.get(key) != other.get(key):
                problems.append(f"traced execution {i}: {key} {other.get(key)} != {first.get(key)}")
    return {
        key: first[key] if key.endswith(COUNT_SUFFIXES) else statistics.median(m[key] for m in layers)
        for key in first
    }


if __name__ == "__main__":
    sys.exit(main())
