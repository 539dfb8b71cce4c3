"""CLI surface: subcommands, exit codes, file artifacts."""

import json
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import boostadapt.cli as cli
from boostadapt.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, cli_main
from boostadapt.config import experiment_config_from_dict
from boostadapt.errors import ConfigError, DivergenceError
from boostadapt.model import TwoHeadModel
from boostadapt.paramio import MAGIC, ROLE_AGGREGATE, VERSION, load_file
from boostadapt.report import read_report, read_summary
from boostadapt.uncertainty import max_score

from helpers import LOGIT_OVERFLOW


def reshaped(name, shape):
    """A manifest edit that sets array ``name``'s shape entry to ``shape``."""

    def edit(manifest):
        manifest["arrays"][name]["shape"] = shape
        return manifest

    return edit


def retyped(name, dtype):
    """A manifest edit that sets array ``name``'s dtype entry to ``dtype``."""

    def edit(manifest):
        manifest["arrays"][name]["dtype"] = dtype
        return manifest

    return edit


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "epochs": 2,
        "iters_per_epoch": 3,
        "eval_last_k": 2,
        "seed": 1,
        "shift": {
            "height": 8,
            "width": 8,
            "classes": 3,
            "source_count": 6,
            "target_count": 6,
            "feature_mean_shift": [0.3, 0.0, 0.0],
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def overflowing_noise_path(tmp_path, config_path):
    """An 8x8 config of 4+4 images whose noise overflows the images."""
    cfg = json.loads(Path(config_path).read_text())
    shift = {**cfg["shift"], "source_count": 4, "target_count": 4, "feature_noise_std": 1e308}
    path = tmp_path / "noise.json"
    path.write_text(json.dumps({**cfg, "shift": shift}))
    return str(path)


class TestRun:
    def test_writes_artifacts(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "results")
        assert cli_main(["run", "--config", config_path, "--out", out]) == EXIT_OK
        for name in ("report.csv", "student.abst", "aggregate.abst"):
            assert os.path.exists(os.path.join(out, name))
        report = read_report(os.path.join(out, "report.csv"))
        assert len(report.rows) == 2
        assert "run complete" in capsys.readouterr().out

    def test_seed_override_changes_run(self, tmp_path, config_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli_main(["run", "--config", config_path, "--seed", "5", "--out", out1]) == EXIT_OK
        assert cli_main(["run", "--config", config_path, "--seed", "6", "--out", out2]) == EXIT_OK
        r1 = read_report(os.path.join(out1, "report.csv"))
        r2 = read_report(os.path.join(out2, "report.csv"))
        assert r1.config_echo["seed"] == 5
        assert r2.config_echo["seed"] == 6
        assert r1.rows != r2.rows

    def test_byte_identical_reruns(self, tmp_path, config_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (out1, out2):
            assert cli_main(["run", "--config", config_path, "--seed", "7", "--out", out]) == EXIT_OK
        for name in ("report.csv", "student.abst", "aggregate.abst"):
            a = Path(out1, name).read_bytes()
            b = Path(out2, name).read_bytes()
            assert a == b, name

    def test_variant_preset_applies(self, tmp_path, config_path):
        out = str(tmp_path / "results")
        rc = cli_main(
            ["run", "--config", config_path, "--variant", "baseline", "--out", out]
        )
        assert rc == EXIT_OK
        report = read_report(os.path.join(out, "report.csv"))
        assert report.rows[0].variant == "baseline"
        assert report.config_echo["sampler"] == "uniform"
        assert report.config_echo["aggregation"] == "none"

    def test_missing_out_dir_is_config_error(self, config_path, capsys):
        assert cli_main(["run", "--config", config_path]) == EXIT_CONFIG
        assert "output directory" in capsys.readouterr().err

    def test_unreadable_config(self, tmp_path, capsys):
        rc = cli_main(["run", "--config", str(tmp_path / "nope.json"), "--out", "o"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err != ""

    def test_malformed_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"epochs": "ten"}')
        assert cli_main(["run", "--config", str(path), "--out", "o"]) == EXIT_CONFIG

    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"epochz": 10}')
        assert cli_main(["run", "--config", str(path), "--out", "o"]) == EXIT_CONFIG

    def test_unknown_flag_exits_2(self, config_path, capsys):
        assert cli_main(["run", "--config", config_path, "--frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_divergence_maps_to_exit_3(self, tmp_path, config_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise DivergenceError("epoch 1 iteration 2: non-finite loss")

        monkeypatch.setattr(cli, "run_experiment", boom)
        rc = cli_main(["run", "--config", config_path, "--out", str(tmp_path / "o")])
        assert rc == EXIT_DIVERGENCE
        assert "diverged" in capsys.readouterr().err

    def test_warmup_divergence_exits_3_with_state_persisted(
        self, tmp_path, config_path, monkeypatch, capsys
    ):
        calls = []
        loss_and_grad = TwoHeadModel.loss_and_grad

        def nan_on_second_call(model, params, images, labels, dropout_seed=None):
            calls.append(None)
            loss, grad = loss_and_grad(model, params, images, labels, dropout_seed)
            return (float("nan") if len(calls) == 2 else loss), grad

        monkeypatch.setattr(TwoHeadModel, "loss_and_grad", nan_on_second_call)
        out = str(tmp_path / "o")
        assert cli_main(["run", "--config", config_path, "--out", out]) == EXIT_DIVERGENCE
        assert "warm-up iteration 2" in capsys.readouterr().err
        assert read_report(os.path.join(out, "report.csv")).rows == ()

    def test_logit_overflow_exits_3_with_state_persisted(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(LOGIT_OVERFLOW))
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == EXIT_DIVERGENCE
        err = capsys.readouterr().err
        assert "training diverged: epoch 1 evaluation: non-finite logits" in err
        assert sorted(p.name for p in out.iterdir()) == [
            "aggregate.abst",
            "report.csv",
            "student.abst",
        ]
        student = load_file(str(out / "student.abst"))
        aggregate = load_file(str(out / "aggregate.abst"))
        # the student entering adaptation, which is also the aggregate
        assert (student.seq, aggregate.seq) == (0, 1)
        assert np.array_equal(aggregate.params, student.params)
        assert read_report(str(out / "report.csv")).rows == ()

    def test_run_from_exported_data(self, tmp_path, config_path):
        data_dir = str(tmp_path / "data")
        assert cli_main(["gen-data", "--config", config_path, "--out", data_dir]) == EXIT_OK
        out = str(tmp_path / "results")
        rc = cli_main(["run", "--config", config_path, "--data", data_dir, "--out", out])
        assert rc == EXIT_OK
        # the export is the pair a plain run trains on
        plain = str(tmp_path / "plain")
        assert cli_main(["run", "--config", config_path, "--out", plain]) == EXIT_OK
        for name in ("report.csv", "student.abst", "aggregate.abst"):
            assert Path(plain, name).read_bytes() == Path(out, name).read_bytes(), name

    @pytest.mark.parametrize(
        "shift_change, run_args, named",
        [
            ({"height": 12, "width": 12}, [], "height 12 (config: 8), width 12 (config: 8)"),
            ({"geometry": "stripes"}, [], "geometry 'stripes' (config: 'blobs')"),
            ({}, ["--seed", "5"], "seed"),
        ],
        ids=["dims", "geometry", "seed"],
    )
    def test_data_of_another_config_exits_2(
        self, tmp_path, config_path, capsys, shift_change, run_args, named
    ):
        cfg = json.loads(Path(config_path).read_text())
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**cfg, "shift": {**cfg["shift"], **shift_change}}))
        data_dir = str(tmp_path / "data")
        assert cli_main(["gen-data", "--config", str(other), "--out", data_dir]) == EXIT_OK
        capsys.readouterr()
        out = tmp_path / "results"
        argv = ["run", "--config", config_path, *run_args, "--data", data_dir, "--out", str(out)]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: domain pair of another config: ")
        assert named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "change",
        [
            {"epochs": 2.5},
            {"batch_size": 2.0},
            {"shift": {"height": 8.0}},
            {"horizontal_flip": "no"},
            {"epochs": True},
        ],
        ids=["non-integer", "integral-float", "shift-section", "string-for-bool", "bool-for-int"],
    )
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, config_path, capsys, change):
        cfg = json.loads(Path(config_path).read_text())
        shift = {**cfg["shift"], **change.pop("shift", {})}
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({**cfg, **change, "shift": shift}))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        assert "is not of type" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["NaN", "Infinity"])
    def test_non_finite_value_exits_2(self, tmp_path, config_path, capsys, text):
        cfg = json.loads(Path(config_path).read_text())
        path = tmp_path / "non-finite.json"
        path.write_text(json.dumps(cfg)[:-1] + f', "softmax_temperature": {text}}}')
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "softmax_temperature=" in err and "is not finite" in err
        assert not out.exists()

    def test_overflowing_temperature_exits_2(self, tmp_path, config_path, capsys):
        # 1e-310 used to overflow the first score normalization: exit 1
        cfg = json.loads(Path(config_path).read_text())
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({**cfg, "softmax_temperature": 1e-310}))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: softmax_temperature 1e-310 is too small" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "ablate"])
    @pytest.mark.parametrize("change", [{"lr_horizon_scale": 1e308}, {"iters_per_epoch": 10**400}])
    def test_overflowing_decay_horizon_exits_2(
        self, tmp_path, config_path, capsys, command, change
    ):
        # both used to exit 1 with an OverflowError traceback
        cfg = json.loads(Path(config_path).read_text())
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps({**cfg, **change}))
        out = tmp_path / "results"
        seeds = ["--seeds", "1"] if command == "ablate" else []
        argv = [command, "--config", str(path), *seeds, "--out", str(out)]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: decay horizon")
        assert not out.exists()

    def test_overflowing_noise_exits_2(self, tmp_path, overflowing_noise_path, capsys):
        # used to train on non-finite images and exit 3 as a divergence,
        # persisting a student, an aggregate and a report
        out = tmp_path / "results"
        argv = ["run", "--config", overflowing_noise_path, "--out", str(out)]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: generated images are not finite")
        assert not out.exists()

    def test_smallest_accepted_temperature_completes(self, tmp_path, config_path):
        cfg = json.loads(Path(config_path).read_text())

        def accepted(temperature):
            try:
                experiment_config_from_dict({**cfg, "softmax_temperature": temperature})
            except ConfigError:
                return False
            return True

        # the floats around twice the largest score over the largest float
        near = [2.0 * max_score(cfg["shift"]["classes"]) / np.finfo(float).max]
        for _ in range(8):
            near = [float(np.nextafter(near[0], 0.0)), *near, float(np.nextafter(near[-1], 1.0))]
        verdicts = [accepted(t) for t in near]
        assert not verdicts[0] and verdicts == sorted(verdicts) and verdicts[-1]
        smallest = near[verdicts.index(True)]
        path = tmp_path / "smallest.json"
        path.write_text(json.dumps({**cfg, "softmax_temperature": smallest}))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = read_report(str(out / "report.csv"))
        assert len(report.rows) == cfg["epochs"]

    def test_negative_seed_is_config_error(self, tmp_path, config_path, capsys):
        rc = cli_main(["run", "--config", config_path, "--seed", "-1", "--out", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "config error: seed must be non-negative" in capsys.readouterr().err

    def test_poisoned_data_exits_4(self, tmp_path, config_path):
        data_dir = tmp_path / "data"
        assert cli_main(["gen-data", "--config", config_path, "--out", str(data_dir)]) == EXIT_OK
        blob = np.fromfile(data_dir / "source_images.bin", dtype="<f8")
        blob[0] = np.nan
        blob.tofile(data_dir / "source_images.bin")
        rc = cli_main(
            ["run", "--config", config_path, "--data", str(data_dir), "--out", "o"]
        )
        assert rc == EXIT_IO

    @pytest.mark.parametrize(
        "edit, message",
        [
            # the fixture's 6 source images of 8 x 8 x 3 have the size of 6 x 8 x 24 x 1
            (
                reshaped("source_images", [6, 8, 24, 1]),
                "has shape (6, 8, 24, 1), its config makes (6, 8, 8, 3)",
            ),
            # json.load reads Infinity, which no int holds
            (reshaped("source_labels", [6, 8, math.inf]), "bad array entry 'source_labels'"),
            # valid JSON, but not an object
            (lambda manifest: [], "is not a domain-pair manifest"),
            # int() would truncate 8.9 to the config's 8
            (
                reshaped("source_images", [6, 8.9, 8, 3]),
                "shape [6, 8.9, 8, 3] is not a list of integers",
            ),
            # a dtype the exporter never writes, whose values no float holds
            (retyped("source_images", "S8"), "dtype 'S8' is not one of"),
            # the int64 labels read as float64 are denormals, not class ids
            (retyped("source_labels", "<f8"), "'source_labels' has labels that are not whole"),
            # the target images, sha256 and all, read as labeled source images
            (
                lambda manifest: {
                    **manifest,
                    "arrays": {
                        **manifest["arrays"],
                        "source_images": manifest["arrays"]["target_images"],
                    },
                },
                "file 'target_images.bin' is not 'source_images.bin'",
            ),
        ],
        ids=[
            "shape-of-another-config",
            "infinite-shape",
            "not-an-object",
            "fractional-shape",
            "string-dtype",
            "float-labels",
            "another-arrays-file",
        ],
    )
    def test_bad_manifest_exits_4(self, tmp_path, config_path, capsys, edit, message):
        data_dir = tmp_path / "data"
        assert cli_main(["gen-data", "--config", config_path, "--out", str(data_dir)]) == EXIT_OK
        manifest = json.loads((data_dir / "manifest.json").read_text())
        (data_dir / "manifest.json").write_text(json.dumps(edit(manifest)))
        out = tmp_path / "results"
        capsys.readouterr()
        argv = ["run", "--config", config_path, "--data", str(data_dir), "--out", str(out)]
        assert cli_main(argv) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and message in err and err.count("\n") == 1
        assert not out.exists()


class TestInspect:
    def test_describes_snapshot(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "results")
        cli_main(["run", "--config", config_path, "--out", out])
        capsys.readouterr()
        rc = cli_main(["inspect", "--snapshot", os.path.join(out, "student.abst")])
        assert rc == EXIT_OK
        text = capsys.readouterr().out
        assert "role: student" in text
        assert "epoch: 2" in text
        assert "params:" in text

    def test_describes_aggregate(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "results")
        cli_main(["run", "--config", config_path, "--out", out])
        capsys.readouterr()
        rc = cli_main(["inspect", "--snapshot", os.path.join(out, "aggregate.abst")])
        assert rc == EXIT_OK
        assert "role: aggregate" in capsys.readouterr().out

    def test_l2_of_a_near_overflow_student_is_finite(self, tmp_path, config_path, capsys):
        cfg = json.loads(Path(config_path).read_text())
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({**cfg, "lr0": 1e308}))
        out = str(tmp_path / "results")
        assert cli_main(["run", "--config", str(path), "--out", out]) == EXIT_DIVERGENCE
        student = os.path.join(out, "student.abst")
        params = load_file(student).params
        assert np.abs(params).max() > 1e307  # the squares overflow a plain dot product
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["inspect", "--snapshot", student]) == EXIT_OK
        text = capsys.readouterr().out
        l2 = float(text.split("l2: ")[1].splitlines()[0])
        assert math.isfinite(l2) and l2 == math.hypot(*params)

    def test_truncated_file_exits_4(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "results")
        cli_main(["run", "--config", config_path, "--out", out])
        path = os.path.join(out, "student.abst")
        blob = Path(path).read_bytes()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        capsys.readouterr()
        assert cli_main(["inspect", "--snapshot", path]) == EXIT_IO
        assert "corrupt" in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["plain", "aggregate"])
    def test_zero_parameter_file_exits_4(self, tmp_path, capsys, role):
        # a header that counts no parameters, with or without role fields
        tag = b"" if role == "plain" else struct.pack("<BI", ROLE_AGGREGATE, 1)
        path = tmp_path / "empty.abst"
        path.write_bytes(struct.pack("<4sIQ", MAGIC, VERSION, 0) + tag)
        assert cli_main(["inspect", "--snapshot", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"i/o error: corrupt snapshot file {path}: no parameters\n"

    def test_missing_file_exits_4(self, tmp_path):
        assert cli_main(["inspect", "--snapshot", str(tmp_path / "no.abst")]) == EXIT_IO


class TestGenData:
    def test_exports_importable_pair(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "data")
        assert cli_main(["gen-data", "--config", config_path, "--out", out]) == EXIT_OK
        assert os.path.exists(os.path.join(out, "manifest.json"))
        from boostadapt.data import import_domain_pair

        pair = import_domain_pair(out)
        assert pair.source_images.shape[0] == 6
        assert "wrote 6 source / 6 target" in capsys.readouterr().out

    def test_seed_override_exports_the_pair_run_trains_on(self, tmp_path, config_path):
        data_dir = str(tmp_path / "data")
        argv = ["gen-data", "--config", config_path, "--seed", "5", "--out", data_dir]
        assert cli_main(argv) == EXIT_OK
        seeded = ["run", "--config", config_path, "--seed", "5"]
        out, plain = str(tmp_path / "from-data"), str(tmp_path / "plain")
        assert cli_main([*seeded, "--data", data_dir, "--out", out]) == EXIT_OK
        assert cli_main([*seeded, "--out", plain]) == EXIT_OK
        for name in ("report.csv", "student.abst", "aggregate.abst"):
            assert Path(plain, name).read_bytes() == Path(out, name).read_bytes(), name

    def test_negative_seed_is_config_error(self, tmp_path, config_path, capsys):
        out = tmp_path / "data"
        argv = ["gen-data", "--config", config_path, "--seed", "-1", "--out", str(out)]
        assert cli_main(argv) == EXIT_CONFIG
        assert "config error: seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_noise_exits_2(self, tmp_path, overflowing_noise_path, capsys):
        # used to exit 0 and export non-finite images that `run --data` refuses
        out = tmp_path / "data"
        argv = ["gen-data", "--config", overflowing_noise_path, "--out", str(out)]
        assert cli_main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: generated images are not finite")
        assert not out.exists()


class TestAblate:
    def test_grid_summary(self, tmp_path, config_path, capsys):
        out = str(tmp_path / "grid")
        rc = cli_main(["ablate", "--config", config_path, "--seeds", "1,2", "--out", out])
        assert rc == EXIT_OK
        rows = read_summary(os.path.join(out, "summary.csv"))
        assert len(rows) == 10
        assert {r.variant for r in rows} == {
            "baseline",
            "sampler-only",
            "aggregation-only",
            "full-variance",
            "full-entropy",
        }
        assert {r.seed for r in rows} == {1, 2}
        assert "10 runs, 0 failed" in capsys.readouterr().out

    def test_bad_seed_list(self, tmp_path, config_path, capsys):
        # a repeated seed would run its cells twice and count twice in a mean
        out = tmp_path / "out"
        for seeds in ("a,b", "", "1,1", "2,1,2"):
            argv = ["ablate", "--config", config_path, "--seeds", seeds, "--out", str(out)]
            assert cli_main(argv) == EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:")
            assert not out.exists()

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "boostadapt" in capsys.readouterr().out


class TestModuleInvocation:
    def test_module_invocation_runs_the_cli(self):
        # `python -m boostadapt.cli` must reach main(), not import and exit 0
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "boostadapt.cli", "--help"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: boostadapt")
