"""CLI surface: subcommands, exit codes, file artifacts."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import boostadapt.cli as cli
from boostadapt.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, cli_main
from boostadapt.errors import DivergenceError
from boostadapt.report import read_report, read_summary


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

    def test_run_from_exported_data(self, tmp_path, config_path):
        data_dir = str(tmp_path / "data")
        assert cli_main(["gen-data", "--config", config_path, "--out", data_dir]) == EXIT_OK
        out = str(tmp_path / "results")
        rc = cli_main(["run", "--config", config_path, "--data", data_dir, "--out", out])
        assert rc == EXIT_OK

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

    def test_bad_seed_list(self, config_path):
        assert cli_main(["ablate", "--config", config_path, "--seeds", "a,b", "--out", "o"]) == EXIT_CONFIG
        assert cli_main(["ablate", "--config", config_path, "--seeds", "", "--out", "o"]) == EXIT_CONFIG

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0
        assert "boostadapt" in capsys.readouterr().out
