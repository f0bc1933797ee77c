"""End-to-end experiment orchestration.

Flow: build (or load) data -> split locations -> heuristically augment seen
samples -> train the diffusion generator (if selected) -> generate the unseen
map -> merge into the full fingerprint map -> fit the localizer -> evaluate on
the held-out test set.

Each stage is one function here that draws its seed from the experiment seed.
`run_experiment` composes them and each CLI subcommand is file I/O around one,
so a staged run equals the monolithic one; `run_experiment` canonicalizes a
dataset through the file codec wherever the staged run writes a file.

`run_experiment` allocates the fingerprint map once: the augment stage leaves
room for the generated rows after its own in one buffer (`buf`), the generate
stage writes them there, and the merge into `buf` finds both parts in place.

Test protocol: for the synthetic source, an independent draw at ALL grid
locations with a fresh seed; for file sources, a per-location holdout of
`file_test_fraction` of each location's samples (seeded shuffle).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .baselines import interpolate_locations
from .config import ExperimentConfig
from .dataset import (
    Coordinate,
    FingerprintDataset,
    SyntheticEnvironment,
    canonicalize_dataset,
    generate_synthetic,
    load_dataset,
    merge_datasets,
)
from .diffusion import TrainResult, generate_unseen_map, train
from .errors import ConfigError, FpsynthError, SizeError, StageError
from .initializer import (
    LocationSplit,
    select_unseen_density,
    select_unseen_random,
)
from .localizer import LocalizationReport, evaluate, fit_localizer
from .synthesizer import augment_seen


_STAGES = {
    "env": 0,
    "data": 1,
    "test": 2,
    "split": 3,
    "augment": 4,
    "train": 5,
    "generate": 6,
    "fit": 7,
}


def stage_seed(base_seed: int, stage: str) -> int:
    """Derive a per-stage integer seed from the experiment seed."""
    ss = np.random.SeedSequence((int(base_seed), _STAGES[stage]))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class ExperimentResult:
    report: LocalizationReport
    collection_overhead_min: float
    n_seen: int
    n_unseen: int
    split: LocationSplit
    config: ExperimentConfig


def collection_overhead(n_seen: int, minutes_per_location: float) -> float:
    """Survey cost in minutes: exactly n_seen * minutes_per_location."""
    if n_seen < 0:
        raise SizeError(f"n_seen must be >= 0, got {n_seen}")
    return n_seen * minutes_per_location


def synthetic_grid(cfg: ExperimentConfig) -> list[Coordinate]:
    s = cfg.synth
    return [
        Coordinate(s.width_m * ix / (s.grid_nx - 1), s.height_m * iy / (s.grid_ny - 1))
        for iy in range(s.grid_ny)
        for ix in range(s.grid_nx)
    ]


def build_environment(cfg: ExperimentConfig) -> SyntheticEnvironment:
    """AP positions are drawn once per experiment seed ('env' stage)."""
    s = cfg.synth
    rng = np.random.default_rng(stage_seed(cfg.seed, "env"))
    ap_xy = rng.random((s.ap_count, 2)) * np.array([s.width_m, s.height_m])
    return SyntheticEnvironment(
        ap_positions=tuple(Coordinate(float(x), float(y)) for x, y in ap_xy),
        tx_power_dbm=s.tx_power_dbm,
        path_loss_exponent=s.path_loss_exponent,
        shadowing_sigma_db=s.shadowing_sigma_db,
        reference_distance_m=s.reference_distance_m,
        detection_threshold_dbm=s.detection_threshold_dbm,
    )


def build_data(cfg: ExperimentConfig) -> tuple[FingerprintDataset, FingerprintDataset]:
    """(train pool, test set) for the configured source; seed-deterministic."""
    if cfg.source == "synthetic":
        env = build_environment(cfg)
        grid = synthetic_grid(cfg)
        train_pool = generate_synthetic(
            env, grid, cfg.synth.samples_per_location, stage_seed(cfg.seed, "data"), cfg.norm
        )
        test_set = generate_synthetic(
            env, grid, cfg.synth.test_samples_per_location, stage_seed(cfg.seed, "test"), cfg.norm
        )
        return train_pool, test_set
    full = load_dataset(cfg.file_path, cfg.norm)
    return _holdout_split(full, cfg.file_test_fraction, stage_seed(cfg.seed, "test"))


def _holdout_split(full, test_fraction, seed):
    rng = np.random.default_rng(seed)
    by_location = np.argsort(full.loc_index, kind="stable")  # rows grouped, dataset order kept
    ends = np.cumsum(np.bincount(full.loc_index, minlength=len(full.locations)))
    is_test = np.zeros(len(full), dtype=bool)
    for lo, hi in zip([0, *ends[:-1]], ends):
        idx = by_location[lo:hi]
        n_test = int(len(idx) * test_fraction)
        if n_test:
            is_test[idx[rng.choice(len(idx), size=n_test, replace=False)]] = True
    if is_test.all() or not is_test.any():
        raise SizeError("file holdout produced an empty train or test set")
    return full.take(np.flatnonzero(~is_test)), full.take(np.flatnonzero(is_test))


def compute_split(cfg: ExperimentConfig, locations) -> LocationSplit:
    locations = list(locations)
    n = len(locations)
    n_unseen = int(cfg.unseen_fraction * n + 0.5)
    if cfg.split_strategy == "density":
        n_seen = n - n_unseen
        if n_seen < cfg.density.k_neighbors + 1:
            raise ConfigError(
                f"unseen_fraction {cfg.unseen_fraction} leaves {n_seen} seen locations; "
                f"density selection needs at least k_neighbors+1 = {cfg.density.k_neighbors + 1}"
            )
        return select_unseen_density(locations, n_unseen, cfg.density)
    return select_unseen_random(locations, n_unseen, stage_seed(cfg.seed, "split"))


def _interpolated_map(aug, split, cfg, out=None) -> FingerprintDataset:
    """Each unseen location's interpolated fingerprint, `samples_per_unseen` times,
    written into `out` (a `(U * samples_per_unseen, A)` float64 matrix) if it is given."""
    n = cfg.samples_per_unseen
    means = interpolate_locations(aug, split.unseen, cfg.interpolator_k)
    rss = np.empty((len(split.unseen) * n, aug.ap_count)) if out is None else out
    rss.reshape(len(split.unseen), n, aug.ap_count)[...] = means[:, None, :]
    index = np.repeat(np.arange(len(split.unseen)), n)
    return FingerprintDataset(rss, index, tuple(split.unseen), aug.norm_params)


def _consumed_pool(cfg: ExperimentConfig, pool: FingerprintDataset) -> FingerprintDataset:
    """A synthetic pool is canonicalized, as `synth-env` writes it and `--data` reads it back;
    a file pool was decoded by `load_dataset` already, and the codec is not idempotent.

    `pool` is handed over: a synthetic one is canonicalized inside its own matrix.
    """
    return canonicalize_dataset(pool, in_place=True) if cfg.source == "synthetic" else pool


def train_pool(cfg: ExperimentConfig, data_file=None) -> FingerprintDataset:
    """The pool that `compute_split` and `augment` read: a dataset file, or the config's source."""
    if data_file is not None:
        return load_dataset(data_file, cfg.norm)
    return _consumed_pool(cfg, build_data(cfg)[0])


def augment(
    cfg: ExperimentConfig, pool, split: LocationSplit, reserve: int = 0
) -> FingerprintDataset:
    return augment_seen(
        pool, split, replace(cfg.augment, seed=stage_seed(cfg.seed, "augment")), reserve
    )


def train_generator(cfg: ExperimentConfig, aug, split: LocationSplit) -> TrainResult:
    return train(aug, split, replace(cfg.diffusion, seed=stage_seed(cfg.seed, "train")))


def generate(
    cfg: ExperimentConfig, network, schedule, split: LocationSplit, out=None
) -> FingerprintDataset:
    seed = stage_seed(cfg.seed, "generate")
    return generate_unseen_map(
        network, split, schedule, cfg.samples_per_unseen, seed, cfg.norm, out
    )


def localize(cfg: ExperimentConfig, fingerprint_map, test_set) -> LocalizationReport:
    model = fit_localizer(
        fingerprint_map, cfg.localizer_variant, cfg.localizer, stage_seed(cfg.seed, "fit")
    )
    return evaluate(model, test_set)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run the full pipeline once. Deterministic given cfg."""
    with _stage("data"):
        pool, test_set = build_data(cfg)
        pool = _consumed_pool(cfg, pool)
    with _stage("split"):
        split = compute_split(cfg, pool.locations)
    # Each stage output is canonicalized inside its own rows: nothing else holds them.
    generates = bool(split.unseen) and cfg.augmenter != "none"
    reserve = len(split.unseen) * cfg.samples_per_unseen if generates else 0
    with _stage("augment"):
        aug = canonicalize_dataset(augment(cfg, pool, split, reserve), in_place=True)
        del pool  # the augmented data holds its own copy of the seen samples
        buf = aug.rss.base  # aug's rows, then `reserve` rows for the generated map
    generated: FingerprintDataset | None = None
    if generates and cfg.augmenter == "diffusion":
        with _stage("train-diffusion"):
            result = train_generator(cfg, aug, split)
        with _stage("generate"):
            generated = generate(cfg, result.network, result.schedule, split, buf[len(aug) :])
            generated = canonicalize_dataset(generated, in_place=True)
    elif generates:
        with _stage("generate"):
            generated = _interpolated_map(aug, split, cfg, buf[len(aug) :])
            generated = canonicalize_dataset(generated, in_place=True)
    # augmenter == "none" (or no unseen locations): the map is the seen data alone
    with _stage("evaluate"):
        fingerprint_map = aug if generated is None else merge_datasets(aug, generated, out=buf)
        report = localize(cfg, fingerprint_map, test_set)
    return ExperimentResult(
        report=report,
        collection_overhead_min=collection_overhead(len(split.seen), cfg.minutes_per_location),
        n_seen=len(split.seen),
        n_unseen=len(split.unseen),
        split=split,
        config=cfg,
    )


class _stage:
    """Attach the stage name to any package error raised inside the block."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and isinstance(exc, FpsynthError) and not isinstance(exc, StageError):
            raise StageError(self.name, exc) from exc
        return False


def sweep_ratio(cfg: ExperimentConfig, fractions) -> list[ExperimentResult]:
    """run_experiment per unseen fraction, sharing the base seed."""
    return [run_experiment(replace(cfg, unseen_fraction=float(f))) for f in fractions]


def save_sweep(results, path) -> None:
    lines = ["unseen_fraction,n_seen,n_unseen,collection_overhead_min,mean_error_m,median_error_m"]
    for r in results:
        lines.append(
            ",".join(
                [
                    repr(float(r.config.unseen_fraction)),
                    str(r.n_seen),
                    str(r.n_unseen),
                    repr(float(r.collection_overhead_min)),
                    repr(float(r.report.mean_error_m)),
                    repr(float(r.report.median_error_m)),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
