"""The byte-identity tool still works where it hooks into the package.

``tools/artifact_digests.py`` forces divergences by putting its own hook in
place of ``harness.make_regularizer``, and its ``--check`` refuses a digest
file made on another build. Its full run takes over a minute, so this checks
only those two points, on one tiny run and on no run at all.
"""

from pathlib import Path

import pytest

from helpers import small_experiment_config

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import artifact_digests

    return artifact_digests


def test_a_digest_file_of_another_build_is_not_checked(tool, tmp_path, monkeypatch, capsys):
    def no_run(seed):
        raise AssertionError("ran the presets")

    monkeypatch.setattr(tool, "all_digests", no_run)
    path = tmp_path / "digests.txt"
    path.write_text(f"{tool.header(1)} elsewhere\n{'0' * 64}  a/report.csv\n")
    assert tool.check(str(path)) == 1
    assert "build differs" in capsys.readouterr().out


def test_an_injected_hook_diverges_the_run(tool, tmp_path, capsys):
    cfg = small_experiment_config(seed=1)
    with tool.regularized_by(tool.term_at(3, float("nan"), 0.0)):
        tool.run(cfg, str(tmp_path), "variant", "name")
    err = capsys.readouterr().err
    assert "variant/name diverged: epoch 1 iteration 3: non-finite loss nan" in err
