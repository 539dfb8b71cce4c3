"""Synthetic domain pair: determinism, shift semantics, label hygiene, export."""

import hashlib
import json
import re

import numpy as np
import pytest

from boostadapt import data
from boostadapt.data import (
    GEOMETRIES,
    DomainPair,
    ShiftConfig,
    class_signatures,
    export_domain_pair,
    generate_domain_pair,
    import_domain_pair,
)
from boostadapt.errors import FormatError

from helpers import small_shift_config


class TestConfig:
    def test_shift_length_must_match_features(self):
        with pytest.raises(ValueError):
            ShiftConfig(features=2, feature_mean_shift=(0.1, 0.2, 0.3))

    def test_unknown_geometry(self):
        with pytest.raises(ValueError):
            small_shift_config(geometry="spiral")

    def test_accepts_list_shift(self):
        cfg = ShiftConfig(features=2, feature_mean_shift=[0.1, 0.2])
        assert cfg.feature_mean_shift == (0.1, 0.2)


class TestGeneration:
    def test_bit_identical_for_same_config(self):
        cfg = small_shift_config(seed=5)
        a = generate_domain_pair(cfg)
        b = generate_domain_pair(cfg)
        for field in ("source_images", "source_labels", "target_images", "target_labels_heldout"):
            np.testing.assert_array_equal(getattr(a, field), getattr(b, field))

    def test_seeds_differ(self):
        a = generate_domain_pair(small_shift_config(seed=1))
        b = generate_domain_pair(small_shift_config(seed=2))
        assert np.any(a.source_images != b.source_images)

    def test_shapes_and_label_range(self):
        cfg = small_shift_config(source_count=5, target_count=7)
        pair = generate_domain_pair(cfg)
        assert pair.source_images.shape == (5, cfg.height, cfg.width, cfg.features)
        assert pair.target_images.shape == (7, cfg.height, cfg.width, cfg.features)
        assert pair.source_labels.shape == (5, cfg.height, cfg.width)
        for labels in (pair.source_labels, pair.target_labels_heldout):
            assert labels.dtype == np.int64
            assert labels.min() >= 0 and labels.max() < cfg.classes

    def test_all_geometries_render(self):
        for geometry in GEOMETRIES:
            pair = generate_domain_pair(small_shift_config(geometry=geometry, seed=3))
            # at least two classes appear somewhere in the corpus
            assert len(np.unique(pair.source_labels)) >= 2

    def test_no_shift_no_noise_pins_features_to_signatures(self):
        cfg = small_shift_config(
            feature_mean_shift=(0.0, 0.0, 0.0),
            feature_noise_std=0.0,
            contrast_scale=1.0,
            seed=4,
        )
        pair = generate_domain_pair(cfg)
        sig = class_signatures(cfg)
        np.testing.assert_allclose(pair.source_images, sig[pair.source_labels], atol=1e-15)
        np.testing.assert_allclose(pair.target_images, sig[pair.target_labels_heldout], atol=1e-15)

    def test_mean_shift_recovered_empirically(self):
        # with unit contrast the per-channel target-source mean gap is the
        # configured shift, up to noise shrinking as 1/sqrt(pixel count)
        shift = (0.4, -0.2, 0.1)
        cfg = small_shift_config(
            height=16,
            width=16,
            source_count=48,
            target_count=48,
            feature_mean_shift=shift,
            contrast_scale=1.0,
            geometry="checker",
            seed=6,
        )
        pair = generate_domain_pair(cfg)
        # checker tiles every class equally, so signature means cancel
        gap = pair.target_images.mean(axis=(0, 1, 2)) - pair.source_images.mean(axis=(0, 1, 2))
        n_pix = 48 * 16 * 16
        tol = 3.0 * cfg.feature_noise_std / np.sqrt(n_pix) + 0.02
        np.testing.assert_allclose(gap, shift, atol=tol)

    def test_noise_scale_sets_residual_spread(self):
        cfg = small_shift_config(
            feature_mean_shift=(0.0, 0.0, 0.0),
            feature_noise_std=0.3,
            contrast_scale=1.0,
            source_count=64,
            seed=7,
        )
        pair = generate_domain_pair(cfg)
        residual = pair.source_images - class_signatures(cfg)[pair.source_labels]
        np.testing.assert_allclose(residual.std(), 0.3, atol=0.02)


class TestReadOnly:
    @staticmethod
    def assert_read_only(pair):
        for field in ("source_images", "source_labels", "target_images", "target_labels_heldout"):
            arr = getattr(pair, field)
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr.flat[0] = 1

    def test_generated_pair_is_read_only(self):
        self.assert_read_only(generate_domain_pair(small_shift_config()))

    def test_imported_pair_is_read_only(self, tmp_path):
        out = str(tmp_path / "data")
        export_domain_pair(generate_domain_pair(small_shift_config(seed=3)), out)
        self.assert_read_only(import_domain_pair(out))


class TestExportImport:
    def test_round_trip_bit_exact(self, tmp_path):
        pair = generate_domain_pair(small_shift_config(seed=9))
        out = str(tmp_path / "data")
        export_domain_pair(pair, out)
        loaded = import_domain_pair(out)
        assert loaded.config == pair.config
        for field in ("source_images", "source_labels", "target_images", "target_labels_heldout"):
            a, b = getattr(pair, field), getattr(loaded, field)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_imported_arrays_take_their_fields_dtypes(self, tmp_path):
        # an export whose image file holds integers still loads float64
        # images, and its labels stay int64
        pair = generate_domain_pair(small_shift_config(seed=11))
        out = tmp_path / "data"
        export_domain_pair(pair, str(out))
        ints = np.rint(pair.source_images * 4).astype("<i8")
        (out / "source_images.bin").write_bytes(ints.tobytes())
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["arrays"]["source_images"].update(
            dtype="<i8", sha256=hashlib.sha256(ints.tobytes()).hexdigest()
        )
        (out / "manifest.json").write_text(json.dumps(manifest))
        loaded = import_domain_pair(str(out))
        assert loaded.source_images.dtype == np.float64
        assert np.array_equal(loaded.source_images, ints)
        assert loaded.source_labels.dtype == np.int64

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            import_domain_pair(str(tmp_path))

    def test_malformed_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(FormatError):
            import_domain_pair(str(tmp_path))

    def test_torn_export_rejected(self, tmp_path, monkeypatch):
        out = str(tmp_path / "data")
        export_domain_pair(generate_domain_pair(small_shift_config(seed=1)), out)
        write_atomic = data.write_atomic

        def fail_manifest(path, blob):
            if path.endswith(data.MANIFEST_NAME):
                raise OSError("disk full")
            write_atomic(path, blob)

        monkeypatch.setattr(data, "write_atomic", fail_manifest)
        with pytest.raises(OSError):
            export_domain_pair(generate_domain_pair(small_shift_config(seed=2)), out)
        with pytest.raises(FormatError, match="sha256"):
            import_domain_pair(out)

    def test_version_1_manifest_rejected(self, tmp_path):
        out = tmp_path / "data"
        export_domain_pair(generate_domain_pair(small_shift_config(seed=3)), str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["version"] = 1
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="version 1"):
            import_domain_pair(str(out))

    def test_non_finite_values_rejected_under_a_matching_digest(self, tmp_path):
        out = tmp_path / "data"
        export_domain_pair(generate_domain_pair(small_shift_config(seed=4)), str(out))
        blob = np.fromfile(out / "target_images.bin", dtype="<f8")
        blob[0] = np.nan
        blob.tofile(out / "target_images.bin")
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["arrays"]["target_images"]["sha256"] = hashlib.sha256(blob.tobytes()).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="non-finite"):
            import_domain_pair(str(out))

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("source_images", [4, 8, 24, 1]),
            ("source_labels", [4, 64]),
            ("target_images", [5, 8, 3, 8]),
            ("target_labels_heldout", [5, 8, 8, 1]),
        ],
    )
    def test_manifest_shape_of_another_config_rejected(self, tmp_path, name, shape):
        # each edited shape holds as many values as the file, and the file
        # still matches its sha256
        cfg = small_shift_config(source_count=4, target_count=5)
        out = tmp_path / "data"
        export_domain_pair(generate_domain_pair(cfg), str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert np.prod(manifest["arrays"][name]["shape"]) == np.prod(shape)
        manifest["arrays"][name]["shape"] = shape
        (out / "manifest.json").write_text(json.dumps(manifest))
        named = re.escape(f"array {name!r} has shape {tuple(shape)}")
        with pytest.raises(FormatError, match=named):
            import_domain_pair(str(out))

    def test_truncated_array_file(self, tmp_path):
        pair = generate_domain_pair(small_shift_config(seed=10))
        out = tmp_path / "data"
        export_domain_pair(pair, str(out))
        blob = (out / "source_images.bin").read_bytes()
        (out / "source_images.bin").write_bytes(blob[:-16])
        with pytest.raises(FormatError):
            import_domain_pair(str(out))
