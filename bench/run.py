"""boostadapt benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``. The line before it records the
machine (python, numpy, BLAS build, nproc, CPU model).

Every timed process runs with BLAS/OpenMP pinned to one thread: the package
promises one core, and unpinned OpenBLAS threads change CPU time without
changing the output. ``setup_s`` is the median wall time of several fresh
processes that import boostadapt and generate the workload's domain pair.
The workload itself runs in one further process (see ``worker.py``), whose
peak RSS is reported. Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole run, set-up included, must end well within 180 s
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _worker(args: argparse.Namespace, env: dict, started: float, *extra: str) -> str:
    """Run worker.py to completion within the run's deadline; return its stdout."""
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    timeout = DEADLINE_S - (time.monotonic() - started)
    done = subprocess.run(cmd, env=env, check=True, timeout=timeout, stdout=subprocess.PIPE, text=True)
    return done.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "boostadapt", "__init__.py")):
        print(f"no boostadapt source under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("seed must be non-negative", file=sys.stderr)
        return 2

    env = dict(os.environ, **THREAD_PINS, PYTHONDONTWRITEBYTECODE="1")
    work = os.path.join(WORK_ROOT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
                out = _worker(args, env, started, "--setup-started", repr(spawned))
                setup.append(json.loads(out.splitlines()[-1]))
        result_path = os.path.join(work, "result.json")
        _worker(args, env, started, "--seconds", str(args.seconds), "--trace",
                str(args.trace), "--work", work, "--result", result_path)
        with open(result_path) as fh:
            result = json.load(fh)
        if args.trace:
            spans = os.path.join(work, "spans.jsonl")
            shutil.copyfile(spans, os.path.join(WORK_ROOT, f"spans-{args.workload}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in result["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["layers"]
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(result["metrics"], setup_s=statistics.median(s["setup_s"] for s in setup))
        result["raw"]["setup_s"] = statistics.median(s["raw_s"] for s in setup)
    missing = sorted(set(wanted) - set(values))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("env " + json.dumps(dict(result["env"], executions=result["executions"]), sort_keys=True))
    print("raw " + json.dumps(result["raw"], sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
