"""Config schema: strict keys, validation, presets, echo round-trip."""

import dataclasses
import json
import math
import re
import typing

import pytest

from boostadapt import aggregator, regularizers, uncertainty
from boostadapt.config import (
    ABLATION_VARIANTS,
    AGGREGATIONS,
    REGULARIZERS,
    SAMPLERS,
    VARIANT_PRESETS,
    ExperimentConfig,
    apply_variant,
    experiment_config_from_dict,
    experiment_config_to_dict,
    load_experiment_config,
)
from boostadapt.data import ShiftConfig
from boostadapt.errors import ConfigError
from boostadapt.model import ModelConfig

from helpers import small_experiment_config

# every float field of the three config dataclasses, and a non-finite value
# for it; a tuple field gets a tuple with one non-finite entry
NON_FINITE_FIELDS = [
    (ExperimentConfig, ConfigError, "lr0", math.inf),
    (ExperimentConfig, ConfigError, "aux_loss_weight", math.nan),
    (ExperimentConfig, ConfigError, "dropout_rate", math.nan),
    (ExperimentConfig, ConfigError, "lr_horizon_scale", math.inf),
    (ExperimentConfig, ConfigError, "momentum", math.nan),
    (ExperimentConfig, ConfigError, "ema_decay", -math.inf),
    (ExperimentConfig, ConfigError, "softmax_temperature", math.nan),
    (ExperimentConfig, ConfigError, "regularizer_weight", math.nan),
    (ShiftConfig, ValueError, "feature_mean_shift", (0.375, math.nan, 0.0)),
    (ShiftConfig, ValueError, "feature_noise_std", math.nan),
    (ShiftConfig, ValueError, "contrast_scale", math.inf),
    (ModelConfig, ValueError, "dropout_rate", math.nan),
    (ModelConfig, ValueError, "aux_loss_weight", math.inf),
]


class TestValidation:
    def test_defaults_are_valid(self):
        cfg = ExperimentConfig()
        assert cfg.sampler == "kl-variance"
        assert cfg.aggregation == "running-mean"
        assert cfg.model_config().classes == cfg.shift.classes

    def test_name_lists_are_their_implementations(self):
        assert AGGREGATIONS is aggregator.AGGREGATIONS
        assert SAMPLERS == (*uncertainty.CRITERIA, "uniform")
        assert SAMPLERS == ("kl-variance", "entropy", "uniform")
        assert REGULARIZERS == ("none", *regularizers.KINDS)

    def test_bad_values_rejected(self):
        for kwargs in (
            dict(epochs=0),
            dict(batch_size=0),
            dict(lr0=0.0),
            dict(warmup_epochs=-1),
            dict(sampler="random"),
            dict(aggregation="median"),
            dict(momentum=1.0),
            dict(ema_decay=0.0),
            dict(softmax_temperature=0.0),
            dict(eval_last_k=0),
            dict(regularizer="l2"),
            dict(lr_horizon_scale=0.5),
            dict(lr_horizon_scale=float("inf")),
            # the horizon, lr_horizon_scale times the run length, overflows
            dict(lr_horizon_scale=1e308),
            dict(iters_per_epoch=10**400),
            dict(seed=-1),
        ):
            with pytest.raises(ConfigError):
                small_experiment_config(**kwargs)

    def test_eval_window_cannot_exceed_epochs(self):
        with pytest.raises(ConfigError):
            small_experiment_config(epochs=3, eval_last_k=4)

    def test_model_dims_follow_shift(self):
        cfg = small_experiment_config()
        mc = cfg.model_config()
        assert (mc.height, mc.width) == (cfg.shift.height, cfg.shift.width)
        assert mc.classes == cfg.shift.classes
        assert mc.dropout_rate == cfg.dropout_rate
        assert mc.aux_loss_weight == cfg.aux_loss_weight

    def test_bad_architecture_surfaces_as_config_error(self):
        with pytest.raises(ConfigError):
            small_experiment_config(r_aux=1, r_primary=1)


class TestNonFiniteFields:
    """Configs built in Python, not read from a file, reject NaN and
    infinities too: a range check like ``x <= 0.0`` lets NaN through."""

    @pytest.mark.parametrize(
        "cls, error, name, value",
        NON_FINITE_FIELDS,
        ids=[f"{cls.__name__}.{name}" for cls, _, name, _ in NON_FINITE_FIELDS],
    )
    def test_rejected(self, cls, error, name, value):
        with pytest.raises(error, match=re.escape(f"{name}={value!r} is not finite")):
            cls(**{name: value})
        with pytest.raises(error, match=re.escape(f"{name}={value!r} is not finite")):
            dataclasses.replace(cls(), **{name: value})

    @pytest.mark.parametrize("cls", [ExperimentConfig, ShiftConfig, ModelConfig])
    def test_every_float_field_is_covered(self, cls):
        floats = {
            name
            for name, hint in typing.get_type_hints(cls).items()
            if hint is float or typing.get_origin(hint) is tuple
        }
        assert floats == {name for c, _, name, _ in NON_FINITE_FIELDS if c is cls}


class TestJSON:
    def test_load_minimal_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"epochs": 2, "iters_per_epoch": 3, "eval_last_k": 2}))
        cfg = load_experiment_config(str(path))
        assert cfg.epochs == 2 and cfg.iters_per_epoch == 3

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as exc:
            experiment_config_from_dict({"epochz": 3})
        assert "epochz" in str(exc.value)

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"model": {"hidden3": 4}})
        with pytest.raises(ConfigError):
            experiment_config_from_dict({"shift": {"widht": 8}})

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(str(tmp_path / "missing.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{")
        with pytest.raises(ConfigError):
            load_experiment_config(str(path))

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1,2]")
        with pytest.raises(ConfigError):
            load_experiment_config(str(path))

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"epochs": 2.5}, "epochs=2.5 is not of type int"),
            ({"batch_size": 2.0}, "batch_size=2.0 is not of type int"),
            ({"epochs": True}, "epochs=True is not of type int"),
            ({"lr0": False}, "lr0=False is not of type float"),
            ({"lr0": "0.2"}, "lr0='0.2' is not of type float"),
            ({"horizontal_flip": "no"}, "horizontal_flip='no' is not of type bool"),
            ({"horizontal_flip": 1}, "horizontal_flip=1 is not of type bool"),
            ({"sampler": None}, "sampler=None is not of type str"),
            ({"out_dir": 3}, "out_dir=3 is not of type str | None"),
            ({"model": {"hidden1": 4.0}}, "model config value hidden1=4.0"),
            ({"shift": {"height": 8.0}}, "shift config value height=8.0 is not of type int"),
            ({"shift": {"feature_mean_shift": [0.3, "0", 0.0]}}, "feature_mean_shift="),
            ({"shift": {"feature_mean_shift": 0.3}}, "feature_mean_shift=0.3"),
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, raw, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            experiment_config_from_dict(raw)

    @pytest.mark.parametrize(
        "raw, named",
        [
            ({"softmax_temperature": math.nan}, "top-level config value softmax_temperature=nan"),
            ({"lr0": math.inf}, "top-level config value lr0=inf"),
            ({"model": {"hidden1": math.nan}}, "model config value hidden1=nan"),
            ({"shift": {"feature_noise_std": math.nan}}, "shift config value feature_noise_std=nan"),
            ({"shift": {"feature_mean_shift": [0.3, math.inf, 0.0]}}, "feature_mean_shift=[0.3, inf"),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, raw, named):
        # json.load reads NaN, Infinity and -Infinity; a config file holding
        # one is a config error, not a failed or diverged run
        path = tmp_path / "c.json"
        path.write_text(json.dumps(raw))
        for load in (lambda: experiment_config_from_dict(raw), lambda: load_experiment_config(path)):
            with pytest.raises(ConfigError, match=re.escape(named)):
                load()

    def test_int_for_a_float_field_kept_as_given(self):
        # so a config that writes 1 for a float keeps its echo bytes
        cfg = experiment_config_from_dict({"lr0": 1, "regularizer_weight": 0, "out_dir": None})
        assert type(cfg.lr0) is int and cfg.lr0 == 1
        assert json.dumps(experiment_config_to_dict(cfg)["lr0"]) == "1"

    def test_echo_round_trips(self):
        cfg = small_experiment_config(hidden1=5, dropout_rate=0.1)
        echo = experiment_config_to_dict(cfg)
        again = experiment_config_from_dict(json.loads(json.dumps(echo)))
        assert again == cfg

    def test_nested_sections_accepted(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(
            json.dumps(
                {
                    "model": {"hidden1": 6, "r_primary": 2},
                    "shift": {"height": 10, "width": 12, "classes": 3},
                }
            )
        )
        cfg = load_experiment_config(str(path))
        assert cfg.hidden1 == 6
        assert cfg.model_config().height == 10
        assert cfg.model_config().classes == 3


class TestVariants:
    def test_ablation_set_is_the_five_table_rows(self):
        assert tuple(ABLATION_VARIANTS) == (
            "baseline",
            "sampler-only",
            "aggregation-only",
            "full-variance",
            "full-entropy",
        )

    def test_presets_resolve(self):
        cfg = small_experiment_config()
        for name in VARIANT_PRESETS:
            out = apply_variant(cfg, name)
            assert out.sampler in ("kl-variance", "entropy", "uniform")

    def test_baseline_disables_both(self):
        cfg = apply_variant(small_experiment_config(), "baseline")
        assert cfg.sampler == "uniform" and cfg.aggregation == "none"

    def test_full_variance_enables_both(self):
        cfg = apply_variant(small_experiment_config(), "full-variance")
        assert cfg.sampler == "kl-variance" and cfg.aggregation == "running-mean"

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            apply_variant(small_experiment_config(), "turbo")
