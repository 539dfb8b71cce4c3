"""End-to-end acceptance gate.

Each test measures one advertised property of the package at its stated
tolerance and prints a single verdict line; the asserts carry the same
condition so a FAIL line is always followed by the test failing. The heavy
multi-seed training runs are shared through module-scoped fixtures.
"""

import dataclasses
import os

import numpy as np
import pytest

from boostadapt.aggregator import update_running_mean
from boostadapt.cli import EXIT_IO, cli_main
from boostadapt.config import ABLATION_VARIANTS, ExperimentConfig, apply_variant
from boostadapt.harness import run_ablation_suite, run_experiment
from boostadapt.metrics import trajectory_stats
from boostadapt.model import ModelConfig, TwoHeadModel
from boostadapt.numerics import finite_difference_gradient, kl_pointwise, softmax
from boostadapt.paramio import (
    ROLE_AGGREGATE,
    ROLE_STUDENT,
    load_file,
    save_params,
    save_snapshot,
)
from boostadapt.report import read_report
from boostadapt.sampler import SampleDistribution, init_uniform, update
from boostadapt.uncertainty import kl_variance_image

from helpers import max_rel_error

ACCEPT_SEEDS = tuple(range(1, 9))
ABLATION_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture
def announce(capsys):
    def _announce(num: int, name: str, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\n[acceptance] criterion {num:02d} {name}: {verdict} ({detail})")

    return _announce


@pytest.fixture(scope="module")
def ablation_table(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablation")
    rows = run_ablation_suite(ExperimentConfig(), list(ABLATION_SEEDS), out_dir=str(out))
    return rows, out


@pytest.fixture(scope="module")
def default_runs(ablation_table):
    """The report rows of one full default-config run per seed; shared by
    the stability checks. The default config is the full-variance preset,
    so the ablation suite's reports hold seeds 1-5, read back exactly; only
    the other seeds are trained here."""
    assert apply_variant(ExperimentConfig(), "full-variance") == ExperimentConfig()
    _, out = ablation_table
    runs = {}
    for seed in ACCEPT_SEEDS:
        if seed in ABLATION_SEEDS:
            report = read_report(str(out / "runs" / f"full-variance-seed{seed}" / "report.csv"))
        else:
            report = run_experiment(dataclasses.replace(ExperimentConfig(), seed=seed)).report
        runs[seed] = report.rows
    return runs


def test_criterion_01_distribution_invariants(announce):
    rng = np.random.default_rng(101)
    updates_done = 0
    worst_sum = 0.0
    min_weight = np.inf
    while updates_done < 1000:
        n = int(rng.integers(2, 513))
        dist = init_uniform(n)
        chain = int(rng.integers(5, 30))
        for _ in range(chain):
            scores = softmax(rng.normal(size=n) * rng.uniform(0.1, 5.0))
            dist = update(dist, scores)
            worst_sum = max(worst_sum, abs(float(dist.weights.sum()) - 1.0))
            min_weight = min(min_weight, float(dist.weights.min()))
            updates_done += 1
            if updates_done >= 1000:
                break
    ok = worst_sum <= 1e-6 and min_weight > 0.0
    announce(1, "distribution-invariants", ok,
             f"1000 updates, max |sum-1| = {worst_sum:.3e}, min weight = {min_weight:.3e}")
    assert ok


def test_criterion_02_online_mean_equals_batch_mean(announce):
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        t_len = int(rng.integers(1, 51))
        p_len = int(rng.integers(1, 2001))
        seq = rng.normal(scale=rng.uniform(0.01, 100.0), size=(t_len, p_len))
        mean = seq[0]
        scale = float(np.sqrt(np.mean(seq**2)))  # rel error is against data scale
        for t in range(1, t_len + 1):
            if t > 1:
                mean = update_running_mean(mean, seq[t - 1], t)
            batch = seq[:t].mean(axis=0)
            err = np.max(np.abs(mean - batch) / np.maximum(np.abs(batch), scale))
            worst = max(worst, float(err))
    ok = worst < 1e-12
    announce(2, "online-mean-equivalence", ok,
             f"100 sequences, every prefix, max rel err = {worst:.3e}")
    assert ok


def test_criterion_03_kl_score_matches_brute_force(announce):
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(50):
        h, w, c = int(rng.integers(2, 9)), int(rng.integers(2, 9)), int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(c), size=(h, w))
        q = rng.dirichlet(np.ones(c), size=(h, w))
        brute = 0.0
        for i in range(h):
            for j in range(w):
                brute += float(kl_pointwise(p[i, j], q[i, j]))
        brute /= h * w
        got = kl_variance_image(p, q)
        worst = max(worst, abs(got - brute))
    ok = worst < 1e-10
    announce(3, "kl-score-brute-force", ok, f"50 map pairs, max abs err = {worst:.3e}")
    assert ok


def test_criterion_04_gradients_match_finite_differences(announce):
    rng = np.random.default_rng(404)
    worst = 0.0
    cases = 0
    for trial in range(20):
        cfg = ModelConfig(
            height=int(rng.integers(2, 5)),
            width=int(rng.integers(2, 5)),
            features=int(rng.integers(1, 4)),
            classes=int(rng.integers(2, 5)),
            hidden1=int(rng.integers(2, 5)),
            hidden2=int(rng.integers(2, 5)),
            dropout_rate=0.2,
            aux_loss_weight=float(rng.uniform(0.1, 1.0)),
        )
        model = TwoHeadModel(cfg)
        params = model.init_params(trial) + rng.normal(scale=0.05, size=model.param_count)
        image = rng.normal(size=(cfg.height, cfg.width, cfg.features))
        labels = rng.integers(0, cfg.classes, size=(cfg.height, cfg.width))
        # even trials exercise eval mode, odd trials a frozen dropout draw
        dropout_seed = None if trial % 2 == 0 else 1000 + trial
        images, label_maps = image[None], labels[None]
        _, grad = model.loss_and_grad(params, images, label_maps, dropout_seed=dropout_seed)
        fd = finite_difference_gradient(
            lambda p: model.loss_and_grad(p, images, label_maps, dropout_seed=dropout_seed)[0],
            params,
            eps=1e-5,
        )
        worst = max(worst, max_rel_error(grad, fd))
        cases += 1
    ok = cases >= 20 and worst < 1e-4
    announce(4, "gradient-correctness", ok,
             f"{cases} cases, eps 1e-5, max rel err = {worst:.3e}")
    assert ok


def test_criterion_05_aggregate_stability(default_runs, announce):
    stu_stds, agg_stds = [], []
    for seed in ACCEPT_SEEDS:
        rows = default_runs[seed]
        stu = [r.student_tgt_miou for r in rows]
        agg = [r.aggregate_tgt_miou for r in rows]
        stu_stds.append(trajectory_stats(stu, 5)[1])
        agg_stds.append(trajectory_stats(agg, 5)[1])
    ratio = float(np.mean(agg_stds) / np.mean(stu_stds))
    ok = ratio <= 0.5
    announce(5, "aggregate-stability", ok,
             f"{len(ACCEPT_SEEDS)} seeds, last-5 std ratio = {ratio:.3f}, need <= 0.5")
    assert ok


def test_criterion_06_aggregation_helps_final_miou(default_runs, announce):
    stu = [default_runs[s][-1].student_tgt_miou for s in ACCEPT_SEEDS]
    agg = [default_runs[s][-1].aggregate_tgt_miou for s in ACCEPT_SEEDS]
    gap = float(np.mean(agg) - np.mean(stu))
    ok = gap >= 0.0
    announce(6, "aggregation-helps", ok,
             f"{len(ACCEPT_SEEDS)} seeds, mean final aggregate {np.mean(agg):.4f} "
             f"vs student {np.mean(stu):.4f}, gap = {gap:+.4f}")
    assert ok


def test_criterion_07_ablation_structure_and_direction(ablation_table, announce, capsys):
    rows, out = ablation_table
    by_variant: dict[str, list[float]] = {v: [] for v in ABLATION_VARIANTS}
    for row in rows:
        by_variant[row.variant].append(row.final_aggregate_miou)
    complete = (
        len(rows) == len(ABLATION_VARIANTS) * len(ABLATION_SEEDS)
        and all(len(v) == len(ABLATION_SEEDS) for v in by_variant.values())
        and all(np.isfinite(v).all() for v in by_variant.values())
        and (out / "summary.csv").exists()
    )
    means = {v: float(np.mean(vals)) for v, vals in by_variant.items()}
    with capsys.disabled():
        print("\n[acceptance] ablation table (mean final aggregate target mIoU over "
              f"{len(ABLATION_SEEDS)} seeds):")
        for v in ABLATION_VARIANTS:
            print(f"[acceptance]   {v:18s} {means[v]:.4f}")
    primary = means["full-variance"] >= means["aggregation-only"]
    fallback = means["sampler-only"] <= means["full-variance"]
    ok = complete and (primary or fallback)
    detail = (
        f"all {len(ABLATION_VARIANTS)} variants complete; "
        f"full-variance {means['full-variance']:.4f} vs aggregation-only "
        f"{means['aggregation-only']:.4f} "
        + ("(soft direction holds)" if primary else "(flat; fallback sampler-only <= full holds)"
           if fallback else "(soft direction and fallback both fail)")
    )
    announce(7, "ablation-structure", ok, detail)
    assert complete
    assert primary or fallback


def test_criterion_08_sampler_geometric_closed_form(announce):
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 129))
        scores = softmax(rng.normal(size=n))
        dist = init_uniform(n)
        d1 = dist.weights.copy()
        for k in range(1, 41):
            dist = update(dist, scores)
            closed = (0.5 ** k) * d1 + (1.0 - 0.5 ** k) * scores
            worst = max(worst, float(np.max(np.abs(dist.weights - closed))))
    ok = worst < 1e-9
    announce(8, "sampler-closed-form", ok,
             f"40 repeated updates x 10 score vectors, max abs err = {worst:.3e}")
    assert ok


def test_criterion_09_byte_identical_reports(tmp_path, announce):
    cfg = dataclasses.replace(ExperimentConfig(), seed=1)
    run_experiment(cfg, out_dir=str(tmp_path / "a"))
    run_experiment(cfg, out_dir=str(tmp_path / "b"))
    blob_a = (tmp_path / "a" / "report.csv").read_bytes()
    blob_b = (tmp_path / "b" / "report.csv").read_bytes()
    ok = blob_a == blob_b and len(blob_a) > 0
    announce(9, "determinism", ok,
             f"two identical default runs, report.csv {len(blob_a)} bytes, "
             f"byte-identical = {blob_a == blob_b}")
    assert ok


def test_criterion_10_serialization_roundtrip_and_inspect_rejection(tmp_path, announce, capsys):
    rng = np.random.default_rng(1010)
    params = rng.normal(size=257)
    plain = tmp_path / "plain.abst"
    save_params(str(plain), params)
    plain_ok = np.array_equal(
        load_file(str(plain)).params.view(np.uint64), params.view(np.uint64)
    )
    student = tmp_path / "student.abst"
    save_snapshot(str(student), params, role=ROLE_STUDENT, seq=7)
    info = load_file(str(student))
    student_ok = (
        info.role == ROLE_STUDENT
        and info.seq == 7
        and np.array_equal(info.params.view(np.uint64), params.view(np.uint64))
    )
    aggregate = tmp_path / "aggregate.abst"
    save_snapshot(str(aggregate), params, role=ROLE_AGGREGATE, seq=3)
    agg_info = load_file(str(aggregate))
    aggregate_ok = agg_info.role == ROLE_AGGREGATE and agg_info.seq == 3

    truncated = tmp_path / "truncated.abst"
    truncated.write_bytes(student.read_bytes()[:-11])
    code = cli_main(["inspect", "--snapshot", str(truncated)])
    reject_ok = code == EXIT_IO

    ok = plain_ok and student_ok and aggregate_ok and reject_ok
    announce(10, "serialization", ok,
             f"bit-exact round-trips = {plain_ok and student_ok and aggregate_ok}, "
             f"inspect(truncated) exit = {code} (want {EXIT_IO})")
    assert ok
