"""Training-loop invariants: alternation order, aggregation wiring, determinism."""

import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from boostadapt.aggregator import adaboost_alpha, weighted_combine
from boostadapt.config import VARIANT_PRESETS, apply_variant
from boostadapt.data import generate_domain_pair
from boostadapt.errors import DivergenceError
from boostadapt.harness import (
    dataset_confusion,
    evaluate_miou,
    run_ablation_suite,
    run_experiment,
)
from boostadapt.metrics import confusion_matrix, pixel_accuracy
from boostadapt.model import ModelConfig, TwoHeadModel, fuse_predictions
from boostadapt.paramio import ROLE_AGGREGATE, ROLE_STUDENT, load_file
from boostadapt.report import read_report
from boostadapt.rng import substream_seed
from boostadapt.sampler import update as sampler_update
from boostadapt.uncertainty import normalize_scores, score_dataset

from helpers import small_experiment_config


class RecordingScorer:
    """Wraps the real scorer, recording the params and criterion of each call."""

    def __init__(self):
        self.params = []
        self.criteria = []
        self.scores = []

    def __call__(self, model, params, images, criterion):
        self.params.append(np.array(params))
        self.criteria.append(criterion)
        sv = score_dataset(model, params, images, criterion)
        self.scores.append(sv.values.copy())
        return sv


class TestLoopStructure:
    def test_one_row_per_epoch_monotone(self):
        cfg = small_experiment_config(epochs=4, eval_last_k=2)
        res = run_experiment(cfg)
        assert len(res.report.rows) == 4
        assert [r.epoch for r in res.report.rows] == [1, 2, 3, 4]
        iters = [r.iter for r in res.report.rows]
        assert iters == sorted(iters)
        # global counter includes the warm-up epoch
        assert iters[-1] == (cfg.warmup_epochs + cfg.epochs) * cfg.iters_per_epoch

    def test_lr_trace_non_increasing_and_positive(self):
        res = run_experiment(small_experiment_config(epochs=5, eval_last_k=3))
        lrs = [r.lr for r in res.report.rows]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        assert all(lr > 0 for lr in lrs)

    def test_lr_decays_toward_the_configured_horizon(self):
        from boostadapt.model import poly_lr

        for scale in (1.0, 4.0):
            cfg = small_experiment_config(epochs=4, eval_last_k=2, lr_horizon_scale=scale)
            res = run_experiment(cfg)
            run_iter = (cfg.warmup_epochs + cfg.epochs) * cfg.iters_per_epoch
            expected = poly_lr(run_iter - 1, int(round(scale * run_iter)), cfg.lr0)
            np.testing.assert_allclose(res.report.rows[-1].lr, expected, rtol=1e-12)
        # a stretched horizon keeps the final step well above the collapsed one
        assert poly_lr(run_iter - 1, 4 * run_iter, cfg.lr0) > 10 * poly_lr(
            run_iter - 1, run_iter, cfg.lr0
        )

    def test_first_epoch_uses_uniform_distribution(self):
        cfg = small_experiment_config()
        res = run_experiment(cfg)
        n = cfg.shift.target_count
        np.testing.assert_array_equal(res.distributions[0], np.full(n, 1.0 / n))
        np.testing.assert_allclose(
            res.report.rows[0].dist_entropy, np.log(n), atol=1e-12
        )

    def test_distribution_follows_post_epoch_update_rule(self):
        # the distribution used in epoch t+1 must be exactly
        # update(distribution used in epoch t, normalized scores after epoch t)
        spy = RecordingScorer()
        cfg = small_experiment_config(epochs=4, eval_last_k=2)
        res = run_experiment(cfg, scorer=spy)
        from boostadapt.sampler import SampleDistribution

        for t in range(len(res.distributions) - 1):
            d_t = SampleDistribution(weights=res.distributions[t], epoch=t + 1)
            expected = sampler_update(
                d_t, normalize_scores(spy.scores[t], cfg.softmax_temperature)
            )
            np.testing.assert_allclose(
                res.distributions[t + 1], expected.weights, atol=1e-12
            )

    def test_uniform_sampler_keeps_distribution_fixed(self):
        cfg = small_experiment_config(sampler="uniform", aggregation="none")
        res = run_experiment(cfg)
        n = cfg.shift.target_count
        for weights in res.distributions:
            np.testing.assert_array_equal(weights, np.full(n, 1.0 / n))

    def test_scorer_sees_the_aggregate_not_the_student(self):
        spy = RecordingScorer()
        cfg = small_experiment_config(epochs=3, aggregation="running-mean")
        res = run_experiment(cfg, scorer=spy)
        snaps = [s.params for s in res.snapshots]
        for t in range(1, len(snaps) + 1):
            expected = np.mean(snaps[:t], axis=0)
            np.testing.assert_allclose(spy.params[t - 1], expected, atol=1e-12)
        # the student itself moved past the mean, so the two differ
        assert np.any(spy.params[-1] != snaps[-1])

    def test_scorer_sees_the_student_without_aggregation(self):
        spy = RecordingScorer()
        cfg = small_experiment_config(epochs=2, aggregation="none")
        res = run_experiment(cfg, scorer=spy)
        np.testing.assert_array_equal(spy.params[-1], res.snapshots[-1].params)

    def test_scoring_criterion_follows_sampler(self):
        for sampler, expected in (
            ("kl-variance", "kl-variance"),
            ("entropy", "entropy"),
            ("uniform", "kl-variance"),  # diagnostic column only
        ):
            spy = RecordingScorer()
            cfg = small_experiment_config(epochs=2, sampler=sampler)
            run_experiment(cfg, scorer=spy)
            assert set(spy.criteria) == {expected}


class TestAggregationVariants:
    def test_running_mean_aggregate_is_snapshot_mean(self):
        cfg = small_experiment_config(epochs=4, aggregation="running-mean")
        res = run_experiment(cfg)
        snaps = [s.params for s in res.snapshots]
        np.testing.assert_allclose(res.aggregate, np.mean(snaps, axis=0), atol=1e-12)

    def test_none_aggregate_equals_student(self):
        res = run_experiment(small_experiment_config(aggregation="none"))
        np.testing.assert_array_equal(res.aggregate, res.student)
        for row in res.report.rows:
            assert row.aggregate_tgt_miou == row.student_tgt_miou

    def test_momentum_aggregate_matches_shadow(self):
        cfg = small_experiment_config(epochs=4, aggregation="momentum", momentum=0.5)
        res = run_experiment(cfg)
        shadow = res.snapshots[0].params.copy()
        for snap in res.snapshots[1:]:
            shadow = 0.5 * shadow + 0.5 * snap.params
        np.testing.assert_allclose(res.aggregate, shadow, atol=1e-12)

    def test_ema_with_tiny_decay_tracks_student(self):
        # decay near zero makes the per-iteration EMA follow the student
        cfg = small_experiment_config(aggregation="ema", ema_decay=1e-9)
        res = run_experiment(cfg)
        np.testing.assert_allclose(res.aggregate, res.student, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize(
        "aggregation", ["running-mean", "momentum", "ema", "oracle-alpha", "none"]
    )
    def test_reported_miou_matches_recomputed_evaluation(self, aggregation):
        # scoring doubles as the aggregate's target evaluation; the report
        # must still read as if student and aggregate were evaluated afresh
        cfg = small_experiment_config(epochs=3, aggregation=aggregation)
        res = run_experiment(cfg)
        data_seed = substream_seed(cfg.seed, "data")
        pair = generate_domain_pair(dataclasses.replace(cfg.shift, seed=data_seed))
        last = res.report.rows[-1]
        images, labels = pair.target_images, pair.target_labels_heldout
        assert last.student_tgt_miou == evaluate_miou(res.model, res.student, images, labels)
        assert last.aggregate_tgt_miou == evaluate_miou(res.model, res.aggregate, images, labels)

    def test_oracle_alpha_matches_recomputation(self):
        cfg = small_experiment_config(epochs=3, aggregation="oracle-alpha")
        res = run_experiment(cfg)
        assert len(res.snapshots) == 3
        data_seed = substream_seed(cfg.seed, "data")
        pair = generate_domain_pair(dataclasses.replace(cfg.shift, seed=data_seed))
        errors = []
        for snap in res.snapshots:
            cm = dataset_confusion(
                res.model, snap.params, pair.target_images, pair.target_labels_heldout
            )
            errors.append(float(np.clip(1.0 - pixel_accuracy(cm), 1e-6, 1 - 1e-6)))
        alphas = [adaboost_alpha(e) for e in errors]
        if min(alphas) <= 0 or sum(alphas) <= 0:
            alphas = [1.0] * len(alphas)
        expected = weighted_combine(res.snapshots, alphas)
        np.testing.assert_allclose(res.aggregate, expected, atol=1e-12)


class TestDeterminism:
    def test_same_config_same_bytes(self, tmp_path):
        for variant in VARIANT_PRESETS:
            cfg = apply_variant(small_experiment_config(epochs=3, seed=11), variant)
            out1, out2 = str(tmp_path / variant / "a"), str(tmp_path / variant / "b")
            run_experiment(cfg, out_dir=out1)
            run_experiment(cfg, out_dir=out2)
            for name in ("report.csv", "student.abst", "aggregate.abst"):
                b1 = Path(out1, name).read_bytes()
                b2 = Path(out2, name).read_bytes()
                assert b1 == b2, (variant, name)

    def test_different_seed_different_trajectory(self):
        cfg = small_experiment_config(epochs=2)
        r1 = run_experiment(dataclasses.replace(cfg, seed=1))
        r2 = run_experiment(dataclasses.replace(cfg, seed=2))
        assert np.any(r1.student != r2.student)

    def test_explicit_data_matches_derived_data(self):
        # the harness derives the dataset seed from the master seed's data
        # substream; handing it the same pair explicitly changes nothing
        cfg = small_experiment_config(epochs=2, seed=9)
        pair = generate_domain_pair(
            dataclasses.replace(cfg.shift, seed=substream_seed(cfg.seed, "data"))
        )
        r_implicit = run_experiment(cfg)
        r_explicit = run_experiment(cfg, data=pair)
        assert r_implicit.report.rows == r_explicit.report.rows


class TestDivergenceHandling:
    @staticmethod
    def _nan_after(n_calls):
        state = {"calls": 0}

        def hook(params, images):
            state["calls"] += 1
            if state["calls"] > n_calls:
                return float("nan"), np.zeros(params.size)
            return 0.0, np.zeros(params.size)

        return hook

    def test_error_carries_iteration_context(self):
        cfg = small_experiment_config(epochs=3, iters_per_epoch=4)
        with pytest.raises(DivergenceError) as exc:
            run_experiment(cfg, regularizer=self._nan_after(4))
        assert "epoch 2" in str(exc.value)
        assert "iteration 1" in str(exc.value)

    def test_last_good_state_persisted(self, tmp_path):
        cfg = small_experiment_config(epochs=3, iters_per_epoch=4)
        out = str(tmp_path / "diverged")
        with pytest.raises(DivergenceError):
            run_experiment(cfg, regularizer=self._nan_after(4), out_dir=out)
        student = load_file(os.path.join(out, "student.abst"))
        assert student.role == ROLE_STUDENT
        assert student.seq == 1  # epoch 1 completed, epoch 2 diverged
        assert np.all(np.isfinite(student.params))
        report = read_report(os.path.join(out, "report.csv"))
        assert len(report.rows) == 1


class TestArtifacts:
    def test_output_files_written(self, tmp_path):
        cfg = small_experiment_config(epochs=2, dump_distributions=True)
        out = str(tmp_path / "run")
        res = run_experiment(cfg, out_dir=out)
        report = read_report(os.path.join(out, "report.csv"))
        assert report.rows == res.report.rows
        student = load_file(os.path.join(out, "student.abst"))
        assert student.role == ROLE_STUDENT and student.seq == 2
        np.testing.assert_array_equal(student.params, res.student)
        aggregate = load_file(os.path.join(out, "aggregate.abst"))
        assert aggregate.role == ROLE_AGGREGATE
        np.testing.assert_array_equal(aggregate.params, res.aggregate)
        dist_lines = Path(out, "distributions.csv").read_text().splitlines()
        assert dist_lines[0] == "epoch,index,weight"
        assert len(dist_lines) == 1 + cfg.epochs * cfg.shift.target_count

    def test_config_echo_in_report(self, tmp_path):
        cfg = small_experiment_config(epochs=2, seed=3)
        out = str(tmp_path / "run")
        run_experiment(cfg, out_dir=out, variant_label="full-variance")
        report = read_report(os.path.join(out, "report.csv"))
        assert report.config_echo["seed"] == 3
        assert report.config_echo["variant"] == "full-variance"
        assert report.config_echo["epochs"] == 2

    def test_variant_label_defaults_to_mode_pair(self):
        res = run_experiment(small_experiment_config(epochs=2))
        assert res.report.rows[0].variant == "kl-variance+running-mean"


class TestEvaluation:
    def test_dataset_confusion_equals_sum_of_per_image_matrices(self):
        cfg = ModelConfig(classes=3)
        model = TwoHeadModel(cfg)
        rng = np.random.default_rng(8)
        n = model.chunk + 2  # the last chunk is short
        images = rng.normal(0.0, 1.0, (n, cfg.height, cfg.width, cfg.features))
        labels = rng.integers(0, cfg.classes, (n, cfg.height, cfg.width))
        params = model.init_params(2)
        want = np.zeros((cfg.classes, cfg.classes), dtype=np.int64)
        for image, gt in zip(images, labels):
            pred = np.argmax(fuse_predictions(*model.forward(params, image)), axis=-1)
            want += confusion_matrix(pred, gt, cfg.classes)
        assert np.array_equal(dataset_confusion(model, params, images, labels), want)

    def test_evaluate_miou_perfect_on_trivial_labels(self):
        # sanity: evaluating ground-truth-as-prediction is impossible here,
        # but a constant-label dataset pins the confusion matrix shape
        cfg = small_experiment_config()
        res = run_experiment(dataclasses.replace(cfg, epochs=1, eval_last_k=1))
        data_seed = substream_seed(cfg.seed, "data")
        pair = generate_domain_pair(dataclasses.replace(cfg.shift, seed=data_seed))
        val = evaluate_miou(
            res.model, res.student, pair.source_images, pair.source_labels
        )
        assert 0.0 <= val <= 1.0
        np.testing.assert_allclose(val, res.report.rows[-1].student_src_miou, atol=1e-12)


class TestAblationSuite:
    def test_grid_shape_and_order(self, tmp_path):
        cfg = small_experiment_config(epochs=2, iters_per_epoch=3, eval_last_k=2)
        rows = run_ablation_suite(cfg, seeds=[1, 2], out_dir=str(tmp_path / "grid"))
        assert len(rows) == 10
        variants = [r.variant for r in rows]
        assert variants == [
            "baseline", "baseline",
            "sampler-only", "sampler-only",
            "aggregation-only", "aggregation-only",
            "full-variance", "full-variance",
            "full-entropy", "full-entropy",
        ]
        for row in rows:
            assert np.isfinite(row.final_student_miou)
            assert np.isfinite(row.final_aggregate_miou)
        summary_path = tmp_path / "grid" / "summary.csv"
        assert summary_path.exists()
        per_run = tmp_path / "grid" / "runs" / "full-variance-seed2" / "report.csv"
        assert per_run.exists()

    def test_single_seed_suite(self):
        cfg = small_experiment_config(epochs=2, iters_per_epoch=2, eval_last_k=1)
        rows = run_ablation_suite(cfg, seeds=[7])
        assert len(rows) == 5
        assert all(np.isfinite(r.final_student_miou) for r in rows)

    def test_failed_cell_recorded_suite_continues(self, monkeypatch):
        import boostadapt.harness as harness_mod

        real = harness_mod.run_experiment
        calls = {"n": 0}

        def flaky(cfg, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise DivergenceError("injected")
            return real(cfg, **kwargs)

        monkeypatch.setattr(harness_mod, "run_experiment", flaky)
        cfg = small_experiment_config(epochs=2, iters_per_epoch=2, eval_last_k=1)
        rows = harness_mod.run_ablation_suite(cfg, seeds=[1, 2])
        assert len(rows) == 10
        assert np.isnan(rows[1].final_student_miou)
        assert np.isfinite(rows[0].final_student_miou)
        assert np.isfinite(rows[2].final_student_miou)

    def test_programming_error_propagates(self, monkeypatch):
        import boostadapt.harness as harness_mod

        real = harness_mod.run_experiment
        calls = {"n": 0}

        def buggy(cfg, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ValueError("injected bug")
            return real(cfg, **kwargs)

        monkeypatch.setattr(harness_mod, "run_experiment", buggy)
        cfg = small_experiment_config(epochs=2, iters_per_epoch=2, eval_last_k=1)
        with pytest.raises(ValueError, match="injected bug"):
            harness_mod.run_ablation_suite(cfg, seeds=[1, 2])

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_ablation_suite(small_experiment_config(), seeds=[])
