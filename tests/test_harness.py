"""Training-loop invariants: alternation order, aggregation wiring, determinism."""

import dataclasses
import hashlib
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import boostadapt.harness as harness_mod
from boostadapt.aggregator import adaboost_alpha, weighted_combine
from boostadapt import sampler as sampler_mod
from boostadapt.config import (
    ABLATION_VARIANTS,
    AGGREGATIONS,
    REGULARIZERS,
    VARIANT_PRESETS,
    ExperimentConfig,
    apply_variant,
    experiment_config_from_dict,
)
from boostadapt.data import generate_domain_pair
from boostadapt.errors import ConfigError, DivergenceError
from boostadapt.harness import (
    SharedWork,
    data_shift,
    dataset_confusion,
    run_ablation_suite,
    run_experiment,
    step_how,
    work_scope,
)
from boostadapt.metrics import confusion_matrix, miou, pixel_accuracy
from boostadapt.model import ModelConfig, TwoHeadModel, fuse_predictions
from boostadapt.paramio import ROLE_AGGREGATE, ROLE_STUDENT, load_file
from boostadapt.report import read_report, read_summary
from boostadapt.rng import substream_seed
from boostadapt.sampler import update as sampler_update
from boostadapt.uncertainty import normalize_scores, score_dataset

from helpers import (
    LOGIT_OVERFLOW,
    forwarded_images,
    per_position,
    small_experiment_config,
    small_shift_config,
)


class RecordingScorer:
    """Wraps the real scorer, recording the params and criterion of each call;
    ``RecordingScorer.every_run(monkeypatch)`` makes it every run's scorer."""

    def __init__(self):
        self.params = []
        self.criteria = []
        self.scores = []

    def __call__(self, model, params, images, criterion):
        self.params.append(np.array(params))
        self.criteria.append(criterion)
        values, predicted = score_dataset(model, params, images, criterion)
        self.scores.append(values.copy())
        return values, predicted

    @classmethod
    def every_run(cls, monkeypatch):
        spy = cls()
        monkeypatch.setattr(harness_mod, "score_dataset", spy)
        return spy


def every_run_regularizes_with(monkeypatch, hook):
    """Make ``hook`` the regularizer of every run from here on."""
    monkeypatch.setattr(harness_mod, "make_regularizer", lambda model, kind, weight: hook)


def recording_works(monkeypatch):
    """Patch ``SharedWork`` to record every instance the harness makes into
    the returned list."""
    works = []

    class Recording(SharedWork):
        def __init__(self, cfg, data=None):
            super().__init__(cfg, data)
            works.append(self)

    monkeypatch.setattr(harness_mod, "SharedWork", Recording)
    return works


def counting_steps(monkeypatch):
    """Patch ``TwoHeadModel.grad_step`` to count its calls into the returned
    list's last entry."""
    computed = [0]
    grad_step = TwoHeadModel.grad_step

    def counting(model, params, images, labels, lr, dropout_seed=None, term=None):
        computed[-1] += 1
        return grad_step(model, params, images, labels, lr, dropout_seed, term)

    monkeypatch.setattr(TwoHeadModel, "grad_step", counting)
    return computed


def lone_step_inputs(monkeypatch, cfg):
    """What each step of a lone run of ``cfg`` reads, in order, as
    ``sampler.draw``, the regularizer hook and ``grad_step`` see it: (lr,
    dropout seed, source batch bytes, what the target draw read, target
    batch bytes). The draw reads the sampling distribution's weights. Both
    target entries are None when ``grad_step`` gets no target term: in
    warm-up, and in every step of a run without a hook."""
    steps, target = [], [None, None]
    grad_step, make_regularizer, draw = (
        TwoHeadModel.grad_step,
        harness_mod.make_regularizer,
        sampler_mod.draw,
    )

    def spy_draw(dist, rng, count):
        target[0] = dist.weights.tobytes()
        return draw(dist, rng, count)

    def spy_step(model, params, images, labels, lr, dropout_seed=None, term=None):
        source = b"".join(x.tobytes() + y.tobytes() for x, y in zip(images, labels))
        read = target if term is not None else [None, None]
        steps.append((lr, dropout_seed, source, *read))
        target[:] = [None, None]
        return grad_step(model, params, images, labels, lr, dropout_seed, term)

    def spy_regularizer(model, kind, weight):
        hook = make_regularizer(model, kind, weight)

        def spy(params, images):
            target[1] = b"".join(i.tobytes() for i in images)
            return hook(params, images)

        return spy

    with monkeypatch.context() as patched:
        patched.setattr(sampler_mod, "draw", spy_draw)
        patched.setattr(TwoHeadModel, "grad_step", spy_step)
        patched.setattr(harness_mod, "make_regularizer", spy_regularizer)
        run_experiment(cfg)
    return steps


def suite_digests(tmp_path, monkeypatch, cfg, variants):
    """sha256 of every file a seeds-1-2 suite writes, by path: as run, and
    with every cell given no shared work, so that it makes its own pair."""

    def digests(root):
        return {
            str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*")
            if p.is_file()
        }

    harness_mod.run_ablation_suite(cfg, [1, 2], variants, out_dir=str(tmp_path / "shared"))
    real = harness_mod.run_experiment

    def on_its_own(cfg, *, shared, **kwargs):
        # each cell generates its own pair and keeps its work, as a lone run does
        return real(cfg, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(harness_mod, "run_experiment", on_its_own)
        harness_mod.run_ablation_suite(cfg, [1, 2], variants, out_dir=str(tmp_path / "separate"))
    return digests(tmp_path / "shared"), digests(tmp_path / "separate")


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

    def test_distribution_follows_post_epoch_update_rule(self, monkeypatch):
        # the distribution used in epoch t+1 must be exactly
        # update(distribution used in epoch t, normalized scores after epoch t)
        spy = RecordingScorer.every_run(monkeypatch)
        cfg = small_experiment_config(epochs=4, eval_last_k=2)
        res = run_experiment(cfg)
        from boostadapt.sampler import SampleDistribution

        for t in range(len(res.distributions) - 1):
            d_t = SampleDistribution(weights=res.distributions[t])
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

    def test_scorer_sees_the_aggregate_not_the_student(self, monkeypatch):
        spy = RecordingScorer.every_run(monkeypatch)
        cfg = small_experiment_config(epochs=3, aggregation="running-mean")
        res = run_experiment(cfg)
        snaps = res.snapshots
        for t in range(1, len(snaps) + 1):
            expected = np.mean(snaps[:t], axis=0)
            np.testing.assert_allclose(spy.params[t - 1], expected, atol=1e-12)
        # the student itself moved past the mean, so the two differ
        assert np.any(spy.params[-1] != snaps[-1])

    def test_scorer_sees_the_student_without_aggregation(self, monkeypatch):
        spy = RecordingScorer.every_run(monkeypatch)
        cfg = small_experiment_config(epochs=2, aggregation="none")
        res = run_experiment(cfg)
        np.testing.assert_array_equal(spy.params[-1], res.snapshots[-1])

    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_only_a_hook_gives_a_step_a_target_term(self, monkeypatch, regularizer):
        # under "none" no hook is made or called and every step trains as a
        # warm-up step does, yet every adaptation step still draws its
        # target batch, so the sampling stream advances as under a hook
        made, hooked, drawn, terms = [], [], [], []
        make_regularizer, draw, grad_step = (
            harness_mod.make_regularizer,
            sampler_mod.draw,
            TwoHeadModel.grad_step,
        )

        def spy_regularizer(model, kind, weight):
            made.append(kind)
            hook = make_regularizer(model, kind, weight)

            def spy(params, images):
                hooked.append(len(images))
                return hook(params, images)

            return spy

        def spy_draw(dist, rng, count):
            drawn.append(count)
            return draw(dist, rng, count)

        def spy_step(model, params, images, labels, lr, dropout_seed=None, term=None):
            terms.append(term)
            return grad_step(model, params, images, labels, lr, dropout_seed, term)

        monkeypatch.setattr(harness_mod, "make_regularizer", spy_regularizer)
        monkeypatch.setattr(sampler_mod, "draw", spy_draw)
        monkeypatch.setattr(TwoHeadModel, "grad_step", spy_step)
        cfg = small_experiment_config(epochs=2, regularizer=regularizer)
        run_experiment(cfg)
        warmup = cfg.warmup_epochs * cfg.iters_per_epoch
        adaptation = cfg.epochs * cfg.iters_per_epoch
        assert drawn == [cfg.batch_size] * adaptation
        assert len(terms) == warmup + adaptation
        assert all(term is None for term in terms[:warmup])
        if regularizer == "none":
            assert made == [] and hooked == []
            assert all(term is None for term in terms)
        else:
            assert made == [regularizer]
            assert hooked == [cfg.batch_size] * adaptation
            assert all(term is not None for term in terms[warmup:])

    def test_scoring_criterion_follows_sampler(self, monkeypatch):
        for sampler, expected in (
            ("kl-variance", "kl-variance"),
            ("entropy", "entropy"),
            ("uniform", "kl-variance"),  # diagnostic column only
        ):
            spy = RecordingScorer.every_run(monkeypatch)
            cfg = small_experiment_config(epochs=2, sampler=sampler)
            run_experiment(cfg)
            assert set(spy.criteria) == {expected}


class TestAggregationVariants:
    def test_running_mean_aggregate_is_snapshot_mean(self):
        cfg = small_experiment_config(epochs=4, aggregation="running-mean")
        res = run_experiment(cfg)
        np.testing.assert_allclose(res.aggregate, np.mean(res.snapshots, axis=0), atol=1e-12)

    def test_none_aggregate_equals_student(self):
        res = run_experiment(small_experiment_config(aggregation="none"))
        np.testing.assert_array_equal(res.aggregate, res.snapshots[-1])
        for row in res.report.rows:
            assert row.aggregate_tgt_miou == row.student_tgt_miou

    def test_momentum_aggregate_matches_shadow(self):
        cfg = small_experiment_config(epochs=4, aggregation="momentum", momentum=0.5)
        res = run_experiment(cfg)
        shadow = res.snapshots[0].copy()
        for snap in res.snapshots[1:]:
            shadow = 0.5 * shadow + 0.5 * snap
        np.testing.assert_allclose(res.aggregate, shadow, atol=1e-12)

    def test_ema_with_tiny_decay_tracks_student(self):
        # decay near zero makes the per-iteration EMA follow the student
        cfg = small_experiment_config(aggregation="ema", ema_decay=1e-9)
        res = run_experiment(cfg)
        np.testing.assert_allclose(res.aggregate, res.snapshots[-1], rtol=1e-6, atol=1e-9)

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
        model = TwoHeadModel(cfg.model_config())
        for params, reported in (
            (res.snapshots[-1], last.student_tgt_miou),
            (res.aggregate, last.aggregate_tgt_miou),
        ):
            assert reported == miou(dataset_confusion(model, params, images, labels))

    def test_oracle_alpha_matches_recomputation(self):
        cfg = small_experiment_config(epochs=3, aggregation="oracle-alpha")
        res = run_experiment(cfg)
        assert len(res.snapshots) == 3
        data_seed = substream_seed(cfg.seed, "data")
        pair = generate_domain_pair(dataclasses.replace(cfg.shift, seed=data_seed))
        model = TwoHeadModel(cfg.model_config())
        errors = []
        for snap in res.snapshots:
            cm = dataset_confusion(model, snap, pair.target_images, pair.target_labels_heldout)
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
        assert np.any(r1.snapshots[-1] != r2.snapshots[-1])

    def test_explicit_data_matches_derived_data(self):
        # the harness derives the dataset seed from the master seed's data
        # substream; handing it the same pair explicitly changes nothing
        cfg = small_experiment_config(epochs=2, seed=9)
        pair = generate_domain_pair(
            dataclasses.replace(cfg.shift, seed=substream_seed(cfg.seed, "data"))
        )
        r_implicit = run_experiment(cfg)
        r_explicit = run_experiment(cfg, shared=SharedWork(cfg, pair))
        assert r_implicit.report.rows == r_explicit.report.rows


    @pytest.mark.parametrize("regularizer", ["entropy-min", "self-training"])
    def test_repeated_draws_write_the_bytes_of_the_per_position_loop(
        self, tmp_path, monkeypatch, regularizer
    ):
        # batches of 8 drawn from 16 + 16 images, some flipped, repeat
        # inputs; computing each once changes no output byte
        cfg = small_experiment_config(
            epochs=2,
            iters_per_epoch=4,
            batch_size=8,
            eval_last_k=1,
            sampler="kl-variance",
            horizontal_flip=True,
            dump_distributions=True,
            regularizer=regularizer,
            shift=small_shift_config(source_count=16, target_count=16),
        )
        forwarded = forwarded_images(monkeypatch)
        run_experiment(cfg, out_dir=str(tmp_path / "merged"))
        merged = len(forwarded)
        forwarded.clear()
        per_position(monkeypatch)
        run_experiment(cfg, out_dir=str(tmp_path / "per-position"))
        assert merged < len(forwarded)
        names = sorted(p.name for p in (tmp_path / "merged").iterdir())
        assert len(names) == 4
        for name in names:
            got = (tmp_path / "merged" / name).read_bytes()
            assert got == (tmp_path / "per-position" / name).read_bytes(), name

    def test_each_training_call_forwards_each_distinct_draw_once(self, monkeypatch):
        # batches of 8 drawn unflipped from 4 source and 4 target images
        # hold at most 4 distinct inputs, and a training call forwards no more
        cfg = small_experiment_config(
            epochs=2,
            iters_per_epoch=3,
            batch_size=8,
            eval_last_k=1,
            horizontal_flip=False,
            shift=small_shift_config(source_count=4, target_count=4),
        )
        forwarded = forwarded_images(monkeypatch)
        calls = []
        value_and_grad = TwoHeadModel.value_and_grad

        def counting(model, params, images, *args, **kwargs):
            before = len(forwarded)
            result = value_and_grad(model, params, images, *args, **kwargs)
            calls.append((len(images), len(forwarded) - before))
            return result

        monkeypatch.setattr(TwoHeadModel, "value_and_grad", counting)
        run_experiment(cfg)
        # warm-up: 3 source steps; each of 2 epochs: 3 source steps, 3 hooks
        assert len(calls) == 15
        assert all(positions == 8 and 1 <= images <= 4 for positions, images in calls)


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

    def test_error_carries_iteration_context(self, monkeypatch):
        cfg = small_experiment_config(epochs=3, iters_per_epoch=4)
        every_run_regularizes_with(monkeypatch, self._nan_after(4))
        with pytest.raises(DivergenceError) as exc:
            run_experiment(cfg)
        assert "epoch 2" in str(exc.value)
        assert "iteration 1" in str(exc.value)

    def test_last_good_state_persisted(self, tmp_path, monkeypatch):
        cfg = small_experiment_config(epochs=3, iters_per_epoch=4)
        out = str(tmp_path / "diverged")
        every_run_regularizes_with(monkeypatch, self._nan_after(4))
        with pytest.raises(DivergenceError):
            run_experiment(cfg, out_dir=out)
        student = load_file(os.path.join(out, "student.abst"))
        assert student.role == ROLE_STUDENT
        assert student.seq == 1  # epoch 1 completed, epoch 2 diverged
        assert np.all(np.isfinite(student.params))
        report = read_report(os.path.join(out, "report.csv"))
        assert len(report.rows) == 1

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_epoch_one_divergence_keeps_the_student_entering_adaptation(
        self, tmp_path, monkeypatch, aggregation
    ):
        cfg = small_experiment_config(aggregation=aggregation)
        out = str(tmp_path / "diverged")
        every_run_regularizes_with(monkeypatch, self._nan_after(0))
        with pytest.raises(DivergenceError):
            run_experiment(cfg, out_dir=out)
        student = load_file(os.path.join(out, "student.abst"))
        aggregate = load_file(os.path.join(out, "aggregate.abst"))
        assert (student.seq, aggregate.seq) == (0, 1)
        assert np.array_equal(aggregate.params, student.params)

    def test_ema_divergence_keeps_the_epoch_end_aggregate(self, tmp_path, monkeypatch):
        cfg = small_experiment_config(epochs=3, iters_per_epoch=4, aggregation="ema")
        out = str(tmp_path / "diverged")
        every_run_regularizes_with(monkeypatch, self._nan_after(5))
        with pytest.raises(DivergenceError, match="epoch 2 iteration 2"):
            run_experiment(cfg, out_dir=out)
        student = load_file(os.path.join(out, "student.abst"))
        aggregate = load_file(os.path.join(out, "aggregate.abst"))
        # the EMA folds in every step of epoch 1 and none of epoch 2
        assert (student.seq, aggregate.seq) == (1, 1 + cfg.iters_per_epoch)
        assert len(read_report(os.path.join(out, "report.csv")).rows) == 1
        every_run_regularizes_with(monkeypatch, self._nan_after(10**9))
        finished = run_experiment(cfg)
        np.testing.assert_array_equal(student.params, finished.snapshots[0])

    def test_warmup_divergence_keeps_the_student_before_the_failing_step(
        self, tmp_path, monkeypatch
    ):
        seen = []
        loss_and_grad = TwoHeadModel.loss_and_grad

        def nan_on_second_call(model, params, images, labels, dropout_seed=None):
            seen.append(params)
            loss, grad = loss_and_grad(model, params, images, labels, dropout_seed)
            return (float("nan") if len(seen) == 2 else loss), grad

        monkeypatch.setattr(TwoHeadModel, "loss_and_grad", nan_on_second_call)
        out = str(tmp_path / "diverged")
        with pytest.raises(DivergenceError, match="warm-up iteration 2: non-finite loss"):
            run_experiment(small_experiment_config(), out_dir=out)
        student = load_file(os.path.join(out, "student.abst"))
        aggregate = load_file(os.path.join(out, "aggregate.abst"))
        assert (student.seq, aggregate.seq) == (0, 1)
        np.testing.assert_array_equal(student.params, seen[1])
        np.testing.assert_array_equal(aggregate.params, student.params)
        assert read_report(os.path.join(out, "report.csv")).rows == ()

    def test_wrong_length_regularizer_gradient_rejected(self, monkeypatch):
        def short_hook(params, images):
            return 0.0, np.zeros(params.size - 1)

        every_run_regularizes_with(monkeypatch, short_hook)
        with pytest.raises(ValueError, match="term gradient shape"):
            run_experiment(small_experiment_config())


class TestArtifacts:
    def test_output_files_written(self, tmp_path):
        cfg = small_experiment_config(epochs=2, dump_distributions=True)
        out = str(tmp_path / "run")
        res = run_experiment(cfg, out_dir=out)
        report = read_report(os.path.join(out, "report.csv"))
        assert report.rows == res.report.rows
        student = load_file(os.path.join(out, "student.abst"))
        assert student.role == ROLE_STUDENT and student.seq == 2
        np.testing.assert_array_equal(student.params, res.snapshots[-1])
        aggregate = load_file(os.path.join(out, "aggregate.abst"))
        assert aggregate.role == ROLE_AGGREGATE
        np.testing.assert_array_equal(aggregate.params, res.aggregate)
        dist_lines = Path(out, "distributions.csv").read_text().splitlines()
        assert dist_lines[0] == "epoch,index,weight"
        assert len(dist_lines) == 1 + cfg.epochs * cfg.shift.target_count

    @pytest.mark.parametrize("aggregation", AGGREGATIONS)
    def test_aggregate_file_holds_the_aggregate_and_its_count(self, tmp_path, aggregation):
        # the sequence field counts the models folded in: the student
        # entering adaptation and every step's under ema, every epoch's
        # snapshot otherwise
        cfg = small_experiment_config(epochs=2, aggregation=aggregation)
        out = str(tmp_path / "run")
        res = run_experiment(cfg, out_dir=out)
        aggregate = load_file(os.path.join(out, "aggregate.abst"))
        count = 1 + cfg.epochs * cfg.iters_per_epoch if aggregation == "ema" else cfg.epochs
        assert aggregate.role == ROLE_AGGREGATE and aggregate.seq == count
        assert aggregate.params.tobytes() == res.aggregate.tobytes()

    def test_distribution_weights_round_trip_bit_exact(self, tmp_path):
        cfg = small_experiment_config(epochs=2, dump_distributions=True)
        out = str(tmp_path / "run")
        res = run_experiment(cfg, out_dir=out)
        cells = [line.split(",") for line in Path(out, "distributions.csv").read_text().split()]
        written = np.array([float(w) for _, _, w in cells[1:]])
        assert written.tobytes() == np.concatenate(res.distributions).tobytes()

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
        for i in range(n):
            pred = np.argmax(fuse_predictions(*model.forward(params, images[i : i + 1])), axis=-1)
            want += confusion_matrix(pred[0], labels[i], cfg.classes)
        assert np.array_equal(dataset_confusion(model, params, images, labels), want)

    def test_evaluate_miou_perfect_on_trivial_labels(self):
        # sanity: evaluating ground-truth-as-prediction is impossible here,
        # but a constant-label dataset pins the confusion matrix shape
        cfg = small_experiment_config()
        res = run_experiment(dataclasses.replace(cfg, epochs=1, eval_last_k=1))
        data_seed = substream_seed(cfg.seed, "data")
        pair = generate_domain_pair(dataclasses.replace(cfg.shift, seed=data_seed))
        model = TwoHeadModel(cfg.model_config())
        val = miou(
            dataset_confusion(model, res.snapshots[-1], pair.source_images, pair.source_labels)
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
        real = harness_mod.run_experiment

        def flaky(cfg, **kwargs):
            if (kwargs["variant_label"], cfg.seed) == ("baseline", 2):
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

    def test_one_domain_pair_per_seed(self, monkeypatch):
        shifts = []

        def counting(shift):
            shifts.append(shift)
            return generate_domain_pair(shift)

        monkeypatch.setattr(harness_mod, "generate_domain_pair", counting)
        cfg = small_experiment_config(epochs=2, iters_per_epoch=2, eval_last_k=1)
        harness_mod.run_ablation_suite(cfg, seeds=[1, 2])
        assert [s.seed for s in shifts] == [substream_seed(1, "data"), substream_seed(2, "data")]

    def test_shared_pair_writes_the_bytes_of_separate_runs(self, tmp_path, monkeypatch):
        cfg = small_experiment_config(epochs=2, iters_per_epoch=2, eval_last_k=1)
        got, separate = suite_digests(tmp_path, monkeypatch, cfg, ABLATION_VARIANTS)
        assert "summary.csv" in got
        assert len([name for name in got if name.startswith("runs")]) == 30
        assert got == separate

    def test_flipping_suite_writes_the_bytes_of_separate_runs(self, tmp_path, monkeypatch):
        cfg = small_experiment_config(epochs=2, iters_per_epoch=2, eval_last_k=1)
        cfg = dataclasses.replace(cfg, horizontal_flip=True)
        got, separate = suite_digests(tmp_path, monkeypatch, cfg, sorted(VARIANT_PRESETS))
        assert len([name for name in got if name.startswith("runs")]) == 3 * 9 * 2
        assert got == separate

    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_every_preset_writes_the_bytes_of_separate_runs(
        self, tmp_path, monkeypatch, regularizer
    ):
        cfg = small_experiment_config(
            epochs=3, iters_per_epoch=3, eval_last_k=1, regularizer=regularizer
        )
        got, separate = suite_digests(tmp_path, monkeypatch, cfg, sorted(VARIANT_PRESETS))
        assert len([name for name in got if name.startswith("runs")]) == 3 * 9 * 2
        assert got == separate

    def test_each_seed_warms_up_once(self, monkeypatch):
        warmup_steps = []
        grad_step = TwoHeadModel.grad_step

        def counting(model, params, images, labels, lr, dropout_seed=None, term=None):
            warmup_steps.append(term is None)
            return grad_step(model, params, images, labels, lr, dropout_seed, term)

        monkeypatch.setattr(TwoHeadModel, "grad_step", counting)
        cfg = small_experiment_config(epochs=2, iters_per_epoch=3, eval_last_k=1)
        run_ablation_suite(cfg, seeds=[1, 2], variants=sorted(VARIANT_PRESETS))
        assert sum(warmup_steps) == 2 * cfg.warmup_epochs * cfg.iters_per_epoch
        cell_steps = (cfg.warmup_epochs + cfg.epochs) * cfg.iters_per_epoch
        assert len(warmup_steps) < 2 * 9 * cell_steps

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            run_ablation_suite(small_experiment_config(), seeds=[])

    def test_summary_rows_are_the_run_reports_summaries(self, tmp_path):
        # the suite's row of a cell and the cell's own report.csv must
        # summarize to the same bits, field for field
        cfg = small_experiment_config(epochs=3, iters_per_epoch=2, eval_last_k=2)
        out = tmp_path / "grid"
        rows = run_ablation_suite(
            cfg, seeds=[1, 2], variants=sorted(VARIANT_PRESETS), out_dir=str(out)
        )
        assert len(rows) == 2 * 9 and read_summary(str(out / "summary.csv")) == rows
        for row in rows:
            run_dir = out / "runs" / f"{row.variant}-seed{row.seed}"
            assert read_report(str(run_dir / "report.csv")).summary(cfg.eval_last_k) == row


class TestSharedWork:
    # the fields a cell may change and still share a step or an eval pass
    PER_CELL = {
        "sampler",
        "aggregation",
        "momentum",
        "ema_decay",
        "softmax_temperature",
        "eval_last_k",
        "dump_distributions",
        "out_dir",
    }

    def test_scope_changes_with_every_other_field(self):
        base = small_experiment_config(r_primary=2)
        changed = {
            "epochs": 4,
            "iters_per_epoch": 7,
            "batch_size": 3,
            "lr0": 0.1,
            "aux_loss_weight": 0.25,
            "dropout_rate": 0.1,
            "warmup_epochs": 2,
            "lr_horizon_scale": 2.0,
            "sampler": "entropy",
            "aggregation": "ema",
            "momentum": 0.5,
            "ema_decay": 0.9,
            "softmax_temperature": 0.5,
            "eval_last_k": 1,
            "horizontal_flip": True,
            "dump_distributions": True,
            "regularizer": "none",
            "regularizer_weight": 0.25,
            "hidden1": 5,
            "hidden2": 5,
            "r_aux": 1,
            "r_primary": 3,
            "shift": dataclasses.replace(base.shift, seed=1),
            "seed": 1,
            "out_dir": "elsewhere",
        }
        # a field added later must be listed here, so it is judged too
        assert set(changed) == {f.name for f in dataclasses.fields(ExperimentConfig)}
        for name, value in changed.items():
            cfg = dataclasses.replace(base, **{name: value})
            assert cfg != base, name
            assert (work_scope(cfg) == work_scope(base)) == (name in self.PER_CELL), name

    def test_cells_share_read_only_results(self, monkeypatch):
        computed = counting_steps(monkeypatch)
        cfg = small_experiment_config(epochs=2, sampler="uniform", aggregation="none")
        work = SharedWork(cfg)
        work.keep_steps = True
        first = run_experiment(cfg, shared=work)
        steps = (cfg.warmup_epochs + cfg.epochs) * cfg.iters_per_epoch
        assert computed == [steps]
        # every step, score and confusion of the run, all read-only
        assert len(work.values) == steps + cfg.epochs * 3
        assert not any(value.flags.writeable for value in work.values.values())
        with pytest.raises(ValueError, match="read-only"):
            first.snapshots[-1][0] = 0.0
        # under uniform sampling the aggregation never reaches the student
        second = run_experiment(dataclasses.replace(cfg, aggregation="running-mean"), shared=work)
        assert computed == [steps]
        assert second.snapshots[-1] is first.snapshots[-1]
        assert second.report.rows != first.report.rows  # its aggregate is its own

    def test_every_step_input_is_in_the_key(self):
        work = SharedWork(small_experiment_config())
        computed = []

        def compute():
            computed.append(np.ones(3))
            return computed[-1]

        uniform = sampler_mod.init_uniform(8)
        tilted = sampler_update(uniform, normalize_scores(np.linspace(0.0, 0.1, 8)))
        assert not np.array_equal(uniform.weights, tilted.weights)
        base = dict(
            student=0,
            lr=0.1,
            dropout_seed=7,
            source=np.array([0, 1]),
            flips=(False, False),
            target=work.weights_id(uniform.weights),
        )
        changes = [
            {},
            {"student": 2},
            {"lr": 0.2},
            {"dropout_seed": 8},
            {"source": np.array([1, 0])},
            {"flips": (True, False)},
            {"target": work.weights_id(tilted.weights)},
            {"target": None},
        ]
        for change in changes:
            work.get(step_how(**{**base, **change}), compute)
        assert len(computed) == len(changes)
        made, params = work.get(step_how(**base), compute)
        assert params is computed[0]
        assert len(computed) == len(changes)
        # every distinct step makes a distinct id
        ids = {work.get(step_how(**{**base, **c}), compute)[0] for c in changes}
        assert len(ids) == len(changes)

        # equal weights are one distribution, bit for bit, whatever array
        # holds them; equal draws from the two distributions stay two steps
        assert work.weights_id(uniform.weights.copy()) == base["target"]
        draws = [sampler_mod.draw(d, np.random.default_rng(3), 2) for d in (uniform, tilted)]
        assert np.array_equal(*draws)
        assert work.weights_id(tilted.weights) != base["target"]

    def test_failed_step_stores_nothing(self):
        work = SharedWork(small_experiment_config())

        def diverge():
            raise DivergenceError("injected")

        how = step_how(0, 0.1, 7, np.array([0, 1]), (False, False), None)
        with pytest.raises(DivergenceError):
            work.get(how, diverge)
        assert work.values == {}
        made, params = work.get(how, lambda: np.ones(3))
        assert work.values == {made: params}

    @pytest.mark.parametrize(
        "first, second",
        [
            ({}, {"sampler": "entropy"}),
            ({}, {"aggregation": "ema"}),
            ({"aggregation": "momentum"}, {"aggregation": "momentum", "momentum": 0.5}),
            ({"aggregation": "ema"}, {"aggregation": "ema", "ema_decay": 0.9}),
            ({}, {"softmax_temperature": 0.5}),
        ],
    )
    def test_every_per_cell_field_reaches_the_lineage(self, first, second):
        cfg = small_experiment_config(epochs=3)
        work = SharedWork(cfg)
        work.keep_steps = True
        run_experiment(dataclasses.replace(cfg, **first), shared=work)
        shared = run_experiment(dataclasses.replace(cfg, **second), shared=work)
        alone = run_experiment(dataclasses.replace(cfg, **second))
        assert shared.report.rows == alone.report.rows
        assert np.array_equal(shared.snapshots[-1], alone.snapshots[-1])
        assert np.array_equal(shared.aggregate, alone.aggregate)

    @pytest.mark.parametrize("regularizer", REGULARIZERS)
    def test_a_step_is_computed_once_per_distinct_inputs(self, monkeypatch, regularizer):
        # Oracle: a step's params are a function of what every step up to it
        # read, its target draw read through the distribution's weights, so
        # a seed's suite computes one step per distinct prefix of its cells'
        # lone-run step inputs.
        cfg = small_experiment_config(
            epochs=3, iters_per_epoch=3, eval_last_k=1, regularizer=regularizer
        )
        presets = sorted(VARIANT_PRESETS)
        epoch_1_end = (cfg.warmup_epochs + 1) * cfg.iters_per_epoch
        alike_draws = False
        for seed in range(1, 7):
            seed_cfg = dataclasses.replace(cfg, seed=seed)
            cells = {
                name: lone_step_inputs(monkeypatch, apply_variant(seed_cfg, name))
                for name in presets
            }
            prefixes = {
                tuple(step[:4] for step in steps[: k + 1])
                for steps in cells.values()
                for k in range(len(steps))
            }
            computed = counting_steps(monkeypatch)
            run_ablation_suite(seed_cfg, seeds=[seed], variants=presets)
            assert computed == [len(prefixes)], seed

            def drawn(steps, k):
                return tuple(step[:3] + step[4:] for step in steps[: k + 1])

            uniform = {
                drawn(steps, k)
                for name, steps in cells.items()
                if VARIANT_PRESETS[name]["sampler"] == "uniform"
                for k in range(len(steps))
            }
            alike_draws |= any(
                drawn(steps, k) in uniform
                for name, steps in cells.items()
                if VARIANT_PRESETS[name]["sampler"] != "uniform"
                for k in range(epoch_1_end, len(steps))
            )
        # a sampler cell drew past epoch 1 just what the uniform cells drew,
        # and those steps were counted apart: what a suite computes does not
        # hinge on near-uniform draws happening to agree
        assert alike_draws

    def test_a_none_seed_computes_one_runs_steps(self, monkeypatch):
        # no step has a target term, and every cell draws its source
        # batches and dropout seeds alike, so all 9 cells share steps
        cfg = small_experiment_config(epochs=3, iters_per_epoch=3, eval_last_k=1)
        cfg = dataclasses.replace(cfg, regularizer="none")
        computed = counting_steps(monkeypatch)
        computed.clear()
        for seed in (1, 2):
            computed.append(0)
            run_ablation_suite(cfg, seeds=[seed], variants=sorted(VARIANT_PRESETS))
        assert computed == [(cfg.warmup_epochs + cfg.epochs) * cfg.iters_per_epoch] * 2

    def test_a_scopes_last_cell_stores_no_steps(self, monkeypatch):
        works = recording_works(monkeypatch)
        cfg = small_experiment_config(epochs=2)
        run_ablation_suite(cfg, seeds=[1], variants=["baseline", "sampler-only"])
        assert len(works) == 1 and not works[0].keep_steps
        n = cfg.iters_per_epoch
        # the baseline's steps, none of the sampler cell's own epoch-2 steps:
        # the sampler cell again finds the warm-up and epoch 1 and computes
        # epoch 2
        computed = counting_steps(monkeypatch)
        cell = dataclasses.replace(apply_variant(cfg, "sampler-only"), seed=1)
        run_experiment(cell, shared=works[0])
        assert computed == [n]
        work = SharedWork(cfg)
        how = step_how(0, 0.1, 7, np.array([0, 1]), (False, False), None)
        made = work.get(how, lambda: np.ones(3), keep=work.keep_steps)
        assert work.values == {} and not made[1].flags.writeable

    def test_scope_mismatch_rejected(self):
        cfg = small_experiment_config(epochs=2)
        work = SharedWork(cfg)
        with pytest.raises(ValueError, match="another scope"):
            run_experiment(dataclasses.replace(cfg, seed=1), shared=work)

    def test_a_pair_the_config_does_not_make_is_rejected(self):
        cfg = small_experiment_config()
        for change, named in (
            ({"seed": 5}, "seed"),
            ({"shift": dataclasses.replace(cfg.shift, height=12)}, "height 12 (config: 8)"),
            ({"shift": dataclasses.replace(cfg.shift, geometry="stripes")}, "geometry 'stripes'"),
        ):
            other = dataclasses.replace(cfg, **change)
            with pytest.raises(ConfigError, match="domain pair of another config") as exc:
                SharedWork(cfg, generate_domain_pair(data_shift(other)))
            assert named in str(exc.value)
        pair = generate_domain_pair(data_shift(cfg))
        assert SharedWork(cfg, pair).data is pair

    def test_a_lone_runs_memo_holds_eval_passes_only(self, monkeypatch):
        works = recording_works(monkeypatch)
        cfg = small_experiment_config(epochs=2)
        run_experiment(cfg)
        [work] = works
        assert not work.keep_steps
        kept = {how[0] for how, made in work._ids.items() if made in work.values}
        assert kept == {"score", "confusion"}

    def test_every_preset_keeps_the_scope(self):
        # the suite gives all the cells of one seed one pair and one SharedWork
        cfg = small_experiment_config()
        for name in VARIANT_PRESETS:
            assert work_scope(apply_variant(cfg, name)) == work_scope(cfg), name
            assert data_shift(apply_variant(cfg, name)) == data_shift(cfg), name


class TestHorizontalFlip:
    def test_flips_mirror_image_and_labels_and_draw_from_the_sampling_stream(
        self, monkeypatch
    ):
        batches, draws = [], []
        grad_step, draw = TwoHeadModel.grad_step, sampler_mod.draw

        def spy_step(model, params, images, labels, lr, dropout_seed=None, term=None):
            batches.append((images, labels))
            return grad_step(model, params, images, labels, lr, dropout_seed, term)

        def spy_draw(dist, rng, count):
            draws.append(draw(dist, rng, count))
            return draws[-1]

        monkeypatch.setattr(TwoHeadModel, "grad_step", spy_step)
        monkeypatch.setattr(sampler_mod, "draw", spy_draw)
        cfg = small_experiment_config(epochs=2)
        pair = generate_domain_pair(data_shift(cfg))

        def mirrored(batch):
            """Per position of an (images, labels) batch: True if mirrored,
            False if as stored."""
            out = []
            for image, labels in zip(*batch):
                for src, lab in zip(pair.source_images, pair.source_labels):
                    if np.array_equal(image, src) and np.array_equal(labels, lab):
                        out.append(False)
                        break
                    if np.array_equal(image, src[:, ::-1]) and np.array_equal(labels, lab[:, ::-1]):
                        out.append(True)
                        break
                else:
                    raise AssertionError("batch item is no source image, mirrored or not")
            return out

        off = run_experiment(cfg)
        off_batches, off_draws = batches[:], draws[:]
        batches.clear()
        draws.clear()
        on = run_experiment(dataclasses.replace(cfg, horizontal_flip=True))
        assert not any(m for batch in off_batches for m in mirrored(batch))
        assert any(m for batch in batches for m in mirrored(batch))
        assert np.any(on.snapshots[-1] != off.snapshots[-1])
        # the flip coins come from the sampling stream, so the target draws move
        assert any(not np.array_equal(a, b) for a, b in zip(draws, off_draws))


class TestOverflow:
    def test_overflow_raises_the_typed_error_without_a_warning(self):
        # lr0=1e308 overflows the forward of warm-up iteration 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="warm-up iteration 2: non-finite loss"):
                run_experiment(small_experiment_config(lr0=1e308))

    def test_eval_passes_after_an_overflowing_step_raise_no_warning(self):
        # the one step of epoch 1 overflows the params; the epoch-end eval
        # passes run on them before epoch 2's step meets the non-finite loss
        cfg = small_experiment_config(
            epochs=2, iters_per_epoch=1, warmup_epochs=0, lr0=1e308, seed=1
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="epoch 2 iteration 1: non-finite loss"):
                run_experiment(cfg)

    def test_a_suite_records_logit_overflow_as_nan_rows(self, tmp_path):
        # finite params whose logits overflow are a divergence: every cell
        # is a NaN row and the suite goes on
        cfg = experiment_config_from_dict(LOGIT_OVERFLOW)
        rows = run_ablation_suite(cfg, [cfg.seed], out_dir=str(tmp_path))
        assert [r.variant for r in rows] == list(ABLATION_VARIANTS)
        for row in rows:
            assert all(np.isnan(v) for v in dataclasses.astuple(row)[2:])
        assert (tmp_path / "summary.csv").exists()

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_a_huge_finite_step_is_no_divergence(self, seed):
        # no parameter-magnitude guard: a run diverges on a non-finite loss
        # alone, so lr0=1e10 saturates the model but completes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_experiment(small_experiment_config(lr0=1e10, seed=seed))
        assert len(res.report.rows) == 3
        for row in res.report.rows:
            assert all(np.isfinite(v) for v in dataclasses.astuple(row) if isinstance(v, float))
        assert np.all(np.isfinite(res.snapshots[-1])) and np.all(np.isfinite(res.aggregate))
