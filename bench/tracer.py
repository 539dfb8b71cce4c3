"""In-memory span tracer wrapped around boostadapt's public callables.

The wrapping is done from the benchmark's side only, on the names the
harness looks up at call time: ``TwoHeadModel`` methods, names bound in the
``harness`` and ``cli`` module namespaces, and module attributes of
``sampler``, ``aggregator`` and ``paramio``. The package itself is not
edited. Spans (name, start, end, parent) stay in memory until ``dump``.

Counting work (hashing forward inputs, reading file sizes) is timed per span
and left out of every self time and phase time, so it shows only as
tracing overhead.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import Counter, defaultdict
from typing import Callable

import numpy as np

# Spans whose inclusive time is one phase; nested spans of the same phase
# (loss_and_grad inside grad_step) are not counted twice.
TRAINING = frozenset({"model.grad_step", "model.loss_and_grad", "regularizers.hook", "sampler.draw"})
SCORING_EVAL = frozenset({"uncertainty.score_dataset", "harness.dataset_confusion"})

NAME, PARENT, START, END, BOOKKEEPING = range(5)

# Metrics ending so are counts, which must repeat exactly between executions.
COUNT_SUFFIXES = (".calls", ".images", ".bytes", ".repeats")


def _digest(array) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(array), digest_size=16).digest()


class Tracer:
    """Spans and counts of the executions run while it is installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.runs: list = []  # RunResult of every run_experiment call
        self._stack: list[int] = []
        self._forwarded: set[tuple[bytes, bytes]] = set()
        self._patches: list[tuple[object, str, object]] = []

    def traced(self, fn: Callable, name: str, account: Callable | None = None) -> Callable:
        """``fn`` recording a span per call; ``account(args, kwargs, result)``
        updates counts and is timed as bookkeeping."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else None, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if account is not None:
                    t = time.perf_counter()
                    account(args, kwargs, result)
                    span[BOOKKEEPING] = time.perf_counter() - t
                return result
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str, account: Callable | None = None) -> None:
        self._patch(owner, attr, self.traced(getattr(owner, attr), name, account))

    def install(self) -> "Tracer":
        """Wrap the package's callables; ``uninstall`` puts the originals back."""
        from boostadapt import aggregator, cli, harness, model, paramio, sampler

        counts = self.counts

        def forward(args, kwargs, result):
            key = (_digest(args[1]), _digest(args[2]))
            counts["model.forward.repeats"] += key in self._forwarded
            self._forwarded.add(key)

        def batch_images(metric: str, index: int):
            def account(args, kwargs, result):
                counts[metric] += len(args[index])

            return account

        def file_bytes(metric: str):
            def account(args, kwargs, result):
                counts[metric] += os.path.getsize(args[0])

            return account

        def run_done(args, kwargs, result):
            self.runs.append(result)

        model_cls = model.TwoHeadModel
        self.wrap(model_cls, "forward", "model.forward", forward)
        self.wrap(model_cls, "loss_and_grad", "model.loss_and_grad",
                  batch_images("model.loss_and_grad.images", 2))
        self.wrap(model_cls, "grad_step", "model.grad_step")
        self.wrap(harness, "score_dataset", "uncertainty.score_dataset")
        self.wrap(harness, "dataset_confusion", "harness.dataset_confusion")
        self.wrap(harness, "confusion_matrix", "metrics.confusion_matrix")
        self.wrap(harness, "generate_domain_pair", "data.generate_domain_pair")
        self.wrap(harness, "write_report", "report.write", file_bytes("report.write.bytes"))
        self.wrap(harness, "write_summary", "report.write", file_bytes("report.write.bytes"))
        # cli binds its own reference to run_experiment at import
        self.wrap(harness, "run_experiment", "harness.run_experiment", run_done)
        self.wrap(cli, "run_experiment", "harness.run_experiment", run_done)
        make_regularizer = harness.make_regularizer
        hook_images = batch_images("regularizers.hook.images", 1)
        self._patch(
            harness,
            "make_regularizer",
            lambda *a, **k: self.traced(make_regularizer(*a, **k), "regularizers.hook", hook_images),
        )
        self.wrap(sampler, "draw", "sampler.draw")
        self.wrap(sampler, "update", "sampler.update")
        for attr in ("update_running_mean", "update_momentum", "update_ema", "weighted_combine"):
            self.wrap(aggregator, attr, "aggregator.update")
        self.wrap(paramio, "save_snapshot", "paramio.save_snapshot",
                  file_bytes("paramio.save_snapshot.bytes"))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: str, execution: int) -> None:
        """Append the spans as JSON lines; ``execution`` tags them."""
        with open(path, "a") as fh:
            for i, (name, parent, start, end, _) in enumerate(self.spans):
                fh.write(json.dumps({"execution": execution, "id": i, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Per-layer counts and self times, and the time of each phase within
        the execution's ``wall`` seconds, all without bookkeeping time."""
        n = len(self.spans)
        child = [0.0] * n
        hidden = [s[BOOKKEEPING] for s in self.spans]  # bookkeeping in each subtree
        for i in range(n - 1, -1, -1):  # children always follow their parent
            parent = self.spans[i][PARENT]
            if parent is not None:
                child[parent] += self.spans[i][END] - self.spans[i][START]
                hidden[parent] += hidden[i]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        phase = {"training": 0.0, "scoring_eval": 0.0}
        for i, (name, parent, start, end, bookkeeping) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i] - bookkeeping
            parent_name = None if parent is None else self.spans[parent][NAME]
            for key, names in (("training", TRAINING), ("scoring_eval", SCORING_EVAL)):
                if name in names and parent_name not in names:
                    phase[key] += end - start - hidden[i]
        untraced_wall = wall - sum(s[BOOKKEEPING] for s in self.spans)
        out = {f"{name}.calls": float(c) for name, c in calls.items()}
        out.update({f"{name}.self_s": t for name, t in self_s.items()})
        out.update({k: float(v) for k, v in self.counts.items()})
        out["model.forward.repeat_share"] = (
            self.counts["model.forward.repeats"] / calls["model.forward"]
            if calls["model.forward"] else 0.0
        )
        out["phase.training_s"] = phase["training"]
        out["phase.scoring_eval_s"] = phase["scoring_eval"]
        out["phase.wall_s"] = untraced_wall
        out.update(self._sampler_state())
        return out

    def _sampler_state(self) -> dict[str, float]:
        """ESS/N and max weight x N of the final sampling distribution, averaged
        over runs that update it (1.0 each when no run does)."""
        dists = [
            r.distribution.weights
            for r in self.runs
            if r.report.config_echo.get("sampler") != "uniform"
        ]
        if not dists:
            return {"sampler.ess_ratio": 1.0, "sampler.max_weight_ratio": 1.0}
        ess = [1.0 / float(np.sum(w * w)) / w.size for w in dists]
        peak = [float(np.max(w)) * w.size for w in dists]
        return {"sampler.ess_ratio": sum(ess) / len(ess), "sampler.max_weight_ratio": sum(peak) / len(peak)}
