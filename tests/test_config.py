import re
from functools import partial
from pathlib import Path

import pytest

from fpsynth.config import (
    _SCHEMA,
    ExperimentConfig,
    SyntheticSpec,
    apply_overrides,
    build_experiment_config,
    parse_flat_config,
    resolve_config,
)
from fpsynth.dataset import Coordinate, NormalizationParams, SyntheticEnvironment
from fpsynth.diffusion import DiffusionTrainConfig, VicinityKernel
from fpsynth.errors import ConfigError, ParseError
from fpsynth.localizer import LocalizerHyperparams
from fpsynth.synthesizer import AugmentationConfig


def _parsed_or_none(parser, text):
    try:
        return parser(text)
    except ValueError:
        return None


class TestParser:
    def test_basic_parse(self):
        flat = parse_flat_config("a.b = 3\n# comment\nc = hello  # trailing\n\n")
        assert flat == {"a.b": "3", "c": "hello"}

    def test_missing_equals(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_flat_config("a = 1\nnonsense\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_flat_config("seed = 1\nseed = 2\n")


class TestSchema:
    def test_defaults(self):
        cfg = build_experiment_config({})
        assert cfg.source == "synthetic"
        assert cfg.unseen_fraction == 0.5
        assert cfg.diffusion.T == 200
        assert cfg.localizer.k == 5

    # diffusion.optimizer and diffusion.activation are no longer keys: Adam is
    # the only optimizer and SiLU the only hidden activation
    @pytest.mark.parametrize(
        "key", ["frobnicate.level", "diffusion.optimizer", "diffusion.activation"]
    )
    def test_unknown_key_named(self, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_experiment_config({key: "adam"})

    def test_bad_value_named(self):
        with pytest.raises(ConfigError, match="diffusion.T"):
            build_experiment_config({"diffusion.T": "many"})

    def test_nested_assembly(self):
        cfg = build_experiment_config(
            {
                "split.strategy": "random",
                "split.k_neighbors": "2",
                "diffusion.hidden": "32,16,32",
                "diffusion.sigma_w": "auto",
                "norm.detect_floor": "0.2",
                "augmenter.kind": "interpolator",
            }
        )
        assert cfg.split_strategy == "random"
        assert cfg.density.k_neighbors == 2
        assert cfg.diffusion.hidden == (32, 16, 32)
        assert cfg.diffusion.sigma_w is None
        assert cfg.norm.detect_floor == 0.2
        assert cfg.augmenter == "interpolator"

    def test_validation_catches_bad_combos(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"data.source": "file"})  # missing path
        with pytest.raises(ConfigError):
            build_experiment_config({"split.unseen_fraction": "1.0"})
        with pytest.raises(ConfigError):
            build_experiment_config({"localizer.variant": "oracle"})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_every_float_key_rejects_non_finite(self, value):
        float_keys = [
            key for key, (parser, _) in _SCHEMA.items()
            if isinstance(_parsed_or_none(parser, "0.5"), float)
        ]
        assert len(float_keys) == 22  # diffusion.sigma_w among them
        for key in float_keys:
            with pytest.raises(ConfigError, match=rf"^config key '{key}': bad value '{value}'"):
                build_experiment_config({key: value})


    def test_shipped_default_cfg_names_every_key(self):
        # the keys are derived from the dataclasses; configs/default.cfg lists
        # each once, the optional data.file.* keys as commented-out lines
        text = (Path(__file__).parent.parent / "configs" / "default.cfg").read_text()
        keys = re.findall(r"^#?\s*([a-z][\w.]*)\s*=", text, flags=re.MULTILINE)
        assert len(keys) == len(set(keys)) == 47
        assert set(keys) == set(_SCHEMA)


class TestOverrides:
    def test_apply(self):
        flat = apply_overrides({"seed": "1"}, ["seed=2", "diffusion.T = 50"])
        assert flat["seed"] == "2"
        assert flat["diffusion.T"] == "50"

    def test_malformed(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["seed"])

    def test_resolve_with_seed_flag(self, tiny_config_file):
        cfg = resolve_config(tiny_config_file, ["synth.ap_count=4"], seed=77)
        assert cfg.seed == 77
        assert cfg.synth.ap_count == 4
        assert cfg.synth.grid_nx == 5  # from file


_ENVIRONMENT = partial(SyntheticEnvironment, (Coordinate(0.0, 0.0),))
# every float field of the Python API whose check rejects negative values
_SIGNED_FLOAT_FIELDS = [
    (AugmentationConfig, "noise_sigma"),
    (AugmentationConfig, "drop_threshold"),
    (LocalizerHyperparams, "learning_rate"),
    (DiffusionTrainConfig, "learning_rate"),
    (DiffusionTrainConfig, "lr_decay"),
    (DiffusionTrainConfig, "sigma_w"),
    (VicinityKernel, "sigma_w"),
    (_ENVIRONMENT, "path_loss_exponent"),
    (_ENVIRONMENT, "shadowing_sigma_db"),
    (_ENVIRONMENT, "reference_distance_m"),
    (NormalizationParams, "detect_floor"),
    (SyntheticSpec, "width_m"),
    (SyntheticSpec, "height_m"),
    (ExperimentConfig, "file_test_fraction"),
    (ExperimentConfig, "unseen_fraction"),
    (ExperimentConfig, "minutes_per_location"),
]


@pytest.mark.parametrize(
    "make, name",
    _SIGNED_FLOAT_FIELDS,
    ids=[f"{getattr(m, 'func', m).__name__}.{n}" for m, n in _SIGNED_FLOAT_FIELDS],
)
@pytest.mark.parametrize("value", [-1.0, float("nan")], ids=["negative", "nan"])
def test_python_api_rejects_nan_as_it_rejects_a_negative_value(make, name, value):
    # the config-file path rejects non-finite values itself; a direct
    # construction relies on each field's own check
    with pytest.raises(ConfigError):
        make(**{name: value})
