"""Experiment configuration: flat `section.key = value` text files.

Every key has a default; a config file only lists what it changes. Unknown
keys are rejected by name. Values are plain scalars except comma-separated
integer tuples (network widths) and the literal `auto` for sigma_w; a float
must be finite.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path

from .dataset import NormalizationParams
from .diffusion import DiffusionTrainConfig
from .errors import ConfigError, ParseError
from .initializer import DensityParams
from .localizer import LocalizerHyperparams
from .synthesizer import AugmentationConfig


@dataclass(frozen=True)
class SyntheticSpec:
    """Grid geometry and radio parameters of the synthetic benchmark world."""

    grid_nx: int = 10
    grid_ny: int = 10
    width_m: float = 50.0
    height_m: float = 50.0
    ap_count: int = 20
    tx_power_dbm: float = -30.0
    path_loss_exponent: float = 2.5
    shadowing_sigma_db: float = 4.0
    reference_distance_m: float = 1.0
    detection_threshold_dbm: float = -95.0
    samples_per_location: int = 8
    test_samples_per_location: int = 4

    def __post_init__(self):
        if self.grid_nx < 2 or self.grid_ny < 2:
            raise ConfigError("grid_nx and grid_ny must be >= 2")
        if not (self.width_m > 0 and self.height_m > 0):
            raise ConfigError("width_m and height_m must be > 0")
        if self.samples_per_location < 1 or self.test_samples_per_location < 1:
            raise ConfigError("samples per location must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    source: str = "synthetic"  # synthetic | file
    file_path: str | None = None
    file_test_fraction: float = 0.25
    norm: NormalizationParams = field(default_factory=NormalizationParams)
    synth: SyntheticSpec = field(default_factory=SyntheticSpec)
    split_strategy: str = "density"  # density | random | grid
    unseen_fraction: float = 0.5
    density: DensityParams = field(default_factory=DensityParams)
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)
    augmenter: str = "diffusion"  # diffusion | interpolator | none
    samples_per_unseen: int = 8
    interpolator_k: int = 3
    diffusion: DiffusionTrainConfig = field(default_factory=DiffusionTrainConfig)
    localizer_variant: str = "knn"
    localizer: LocalizerHyperparams = field(default_factory=LocalizerHyperparams)
    minutes_per_location: float = 12.0 / 7.0
    seed: int = 0

    def __post_init__(self):
        if self.source not in ("synthetic", "file"):
            raise ConfigError(f"data.source must be 'synthetic' or 'file', got {self.source!r}")
        if self.source == "file" and not self.file_path:
            raise ConfigError("data.source=file requires data.file.path")
        if not 0.0 < self.file_test_fraction < 1.0:
            raise ConfigError(
                f"data.file.test_fraction must be in (0, 1), got {self.file_test_fraction}"
            )
        if self.split_strategy not in ("density", "random", "grid"):
            raise ConfigError(f"unknown split.strategy {self.split_strategy!r}")
        if not 0.0 <= self.unseen_fraction < 1.0:
            raise ConfigError(
                f"split.unseen_fraction must be in [0, 1), got {self.unseen_fraction}"
            )
        if self.augmenter not in ("diffusion", "interpolator", "none"):
            raise ConfigError(f"unknown augmenter.kind {self.augmenter!r}")
        if self.samples_per_unseen < 1:
            raise ConfigError("augmenter.samples_per_unseen must be >= 1")
        if self.interpolator_k < 1:
            raise ConfigError("augmenter.interpolator_k must be >= 1")
        if self.localizer_variant not in ("knn", "feedforward"):
            raise ConfigError(f"unknown localizer.variant {self.localizer_variant!r}")
        if not self.minutes_per_location > 0:
            raise ConfigError("overhead.minutes_per_location must be > 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


# ---------------------------------------------------------------------------
# Flat-key schema: key -> (parser, target path), derived from the dataclasses.
# A key is its field path ("diffusion.T") unless renamed here. The nested
# `seed` fields are not keys: `stage_seed` sets them from the top-level seed.

_RENAMED = {
    "data.source": "source",
    "data.file.path": "file_path",
    "data.file.test_fraction": "file_test_fraction",
    "norm.sentinel": "norm.sentinel_raw",
    "split.strategy": "split_strategy",
    "split.unseen_fraction": "unseen_fraction",
    "split.k_neighbors": "density.k_neighbors",
    "split.batch_per_iteration": "density.batch_per_iteration",
    "augmenter.kind": "augmenter",
    "augmenter.samples_per_unseen": "samples_per_unseen",
    "augmenter.interpolator_k": "interpolator_k",
    "localizer.variant": "localizer_variant",
    "overhead.minutes_per_location": "minutes_per_location",
}

# Parsers of the fields whose default (None) does not name a type.
_NONE_DEFAULT_PARSERS = {
    "file_path": str,
    "diffusion.sigma_w": lambda s: None if s == "auto" else float(s),
}

# Nested sections in field order, each with its dataclass.
_SECTIONS = {
    f.name: f.default_factory for f in fields(ExperimentConfig) if f.default_factory is not MISSING
}


def _parser_for(default):
    """int, float or str by the default's type; a tuple default is a comma-separated int tuple."""
    if isinstance(default, tuple):
        return lambda s: tuple(int(p) for p in s.split(",") if p.strip())
    return type(default)


def _derive_schema() -> dict[str, tuple]:
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.name not in _SECTIONS}
    for section, cls in _SECTIONS.items():
        instance = cls()
        for f in fields(cls):
            if f.name != "seed":
                defaults[f"{section}.{f.name}"] = getattr(instance, f.name)
    key_of = {target: key for key, target in _RENAMED.items()}
    return {
        key_of.get(target, target): (
            _NONE_DEFAULT_PARSERS[target] if default is None else _parser_for(default),
            target,
        )
        for target, default in defaults.items()
    }


_SCHEMA = _derive_schema()


def parse_flat_config(text: str, origin: str = "<config>") -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment; duplicates are errors."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"{origin}: line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError(f"{origin}: line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"{origin}: line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config_file(path) -> dict[str, str]:
    return parse_flat_config(Path(path).read_text(encoding="utf-8"), origin=str(path))


def build_experiment_config(flat: dict[str, str]) -> ExperimentConfig:
    """Validate keys against the schema and assemble an ExperimentConfig."""
    for key in flat:
        if key not in _SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
    top: dict = {}
    nested: dict[str, dict] = {}
    for key, raw in flat.items():
        parser, target = _SCHEMA[key]
        try:
            value = parser(raw)
            if isinstance(value, float) and not math.isfinite(value):  # some keys have no range check
                raise ValueError("not a finite number")
        except ValueError as e:
            raise ConfigError(f"config key {key!r}: bad value {raw!r} ({e})") from e
        section, _, attr = target.rpartition(".")
        if section:
            nested.setdefault(section, {})[attr] = value
        else:
            top[target] = value
    sections = {name: cls(**nested.get(name, {})) for name, cls in _SECTIONS.items()}
    return ExperimentConfig(**sections, **top)


def apply_overrides(flat: dict[str, str], overrides) -> dict[str, str]:
    """Apply `key=value` strings on top of a parsed config dict."""
    out = dict(flat)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve_config(path=None, overrides=(), seed=None) -> ExperimentConfig:
    """Config file (optional) + --set overrides + --seed flag -> ExperimentConfig."""
    flat = load_config_file(path) if path else {}
    flat = apply_overrides(flat, overrides)
    cfg = build_experiment_config(flat)
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    return cfg
