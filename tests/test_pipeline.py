from dataclasses import replace

import tracemalloc

import numpy as np
import pytest

from fpsynth.baselines import interpolate_locations
from fpsynth.config import ExperimentConfig, SyntheticSpec
from fpsynth.dataset import load_dataset, save_dataset
from fpsynth.diffusion import DiffusionTrainConfig
from fpsynth.errors import SizeError, StageError
from fpsynth.localizer import LocalizerHyperparams
from fpsynth.pipeline import (
    _interpolated_map,
    build_data,
    collection_overhead,
    compute_split,
    run_experiment,
    stage_seed,
    sweep_ratio,
    synthetic_grid,
    train_pool,
)
from fpsynth.synthesizer import AugmentationConfig


def tiny_cfg(**kw):
    defaults = dict(
        synth=SyntheticSpec(
            grid_nx=4,
            grid_ny=4,
            width_m=15.0,
            height_m=15.0,
            ap_count=5,
            samples_per_location=3,
            test_samples_per_location=2,
        ),
        unseen_fraction=0.25,
        augment=AugmentationConfig(replicas_per_sample=1),
        samples_per_unseen=2,
        diffusion=DiffusionTrainConfig(
            T=15, epochs=2, batch_size=24, hidden=(16, 8, 16), cond_freqs=2, time_dim=4
        ),
        localizer=LocalizerHyperparams(k=3),
        seed=3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestOverhead:
    def test_survey_budget_calibration(self):
        # 70 locations at 12/7 min each -> exactly 120 minutes
        assert collection_overhead(70, 12.0 / 7.0) == pytest.approx(120.0, abs=1e-9)

    def test_zero_locations(self):
        assert collection_overhead(0, 123.4) == 0.0

    def test_threefold_reduction_point(self):
        # 21 seen locations at the same rate: 36 minutes, a ~3.3x reduction
        assert collection_overhead(21, 12.0 / 7.0) == pytest.approx(36.0, abs=1e-9)

    def test_exact_product(self):
        for n in (1, 7, 33):
            assert collection_overhead(n, 1.5) == n * 1.5

    def test_negative_rejected(self):
        with pytest.raises(SizeError):
            collection_overhead(-1, 1.0)


class TestStageSeeds:
    def test_distinct_per_stage(self):
        seeds = {name: stage_seed(42, name) for name in ("data", "split", "augment", "train")}
        assert len(set(seeds.values())) == len(seeds)

    def test_stable(self):
        assert stage_seed(42, "train") == stage_seed(42, "train")
        assert stage_seed(42, "train") != stage_seed(43, "train")


class TestBuildData:
    def test_synthetic_shapes(self):
        cfg = tiny_cfg()
        train_pool, test_set = build_data(cfg)
        assert len(train_pool) == 16 * 3
        assert len(test_set) == 16 * 2
        assert train_pool.locations == test_set.locations

    def test_train_and_test_independent(self):
        cfg = tiny_cfg()
        train_pool, test_set = build_data(cfg)
        assert not np.array_equal(
            train_pool.rss[: len(test_set)], test_set.rss
        )

    def test_file_holdout(self, tmp_path, tiny_dataset):
        path = tmp_path / "data.csv"
        save_dataset(tiny_dataset, path)
        cfg = tiny_cfg(source="file", file_path=str(path), file_test_fraction=0.5)
        train_pool, test_set = build_data(cfg)
        assert len(train_pool) == 4
        assert len(test_set) == 4
        assert len(train_pool) + len(test_set) == len(tiny_dataset)


def same_bits(a, b) -> bool:
    return (
        a.rss.tobytes() == b.rss.tobytes()
        and np.array_equal(a.loc_index, b.loc_index)
        and a.locations == b.locations
        and a.norm_params == b.norm_params
    )


class TestTrainPool:
    def test_synthetic_pool_is_the_saved_pool_read_back(self, tmp_path):
        # what `fpsynth synth-env` writes and `--data` reads back, bit for bit
        cfg = tiny_cfg()
        path = tmp_path / "data.csv"
        save_dataset(build_data(cfg)[0], path)
        assert same_bits(train_pool(cfg), load_dataset(path, cfg.norm))
        assert same_bits(train_pool(cfg, path), load_dataset(path, cfg.norm))

    def test_file_pool_is_not_canonicalized_again(self, tmp_path):
        cfg = tiny_cfg()
        path = tmp_path / "data.csv"
        save_dataset(build_data(cfg)[0], path)
        file_cfg = tiny_cfg(source="file", file_path=str(path), file_test_fraction=0.34)
        pool = build_data(file_cfg)[0]
        assert same_bits(train_pool(file_cfg), pool)


class TestRunExperiment:
    def test_degenerate_no_unseen_equals_plain_run(self):
        cfg = tiny_cfg(unseen_fraction=0.0, augmenter="none")
        result = run_experiment(cfg)
        assert result.n_unseen == 0
        assert result.n_seen == 16
        # same as fitting on the augmented full survey directly
        cfg_diff = tiny_cfg(unseen_fraction=0.0, augmenter="diffusion")
        result2 = run_experiment(cfg_diff)
        assert result2.report == result.report

    def test_deterministic(self):
        cfg = tiny_cfg()
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a == b

    def test_overhead_invariant(self):
        cfg = tiny_cfg()
        r = run_experiment(cfg)
        assert r.collection_overhead_min == r.n_seen * cfg.minutes_per_location

    def test_interpolator_and_none_arms(self):
        for augmenter in ("interpolator", "none"):
            r = run_experiment(tiny_cfg(augmenter=augmenter))
            assert r.report.mean_error_m >= 0.0

    def test_interpolated_map_equals_per_target_calls(self):
        cfg = tiny_cfg(augmenter="interpolator", samples_per_unseen=3)
        train_pool, _ = build_data(cfg)
        split = compute_split(cfg, train_pool.locations)
        seen = train_pool.subset_at(split.seen)
        got = _interpolated_map(seen, split, cfg)
        expected = [
            (interpolate_locations(seen, [loc], cfg.interpolator_k)[0], loc)
            for loc in split.unseen
            for _ in range(3)
        ]
        assert got.locations == split.unseen
        assert [got.locations[j] for j in got.loc_index] == [loc for _, loc in expected]
        assert np.array_equal(got.rss, np.stack([rss for rss, _ in expected]))

    def test_interpolated_map_written_into_given_rows(self):
        cfg = tiny_cfg(augmenter="interpolator", samples_per_unseen=3)
        train_pool, _ = build_data(cfg)
        split = compute_split(cfg, train_pool.locations)
        seen = train_pool.subset_at(split.seen)
        out = np.empty((len(split.unseen) * 3, seen.ap_count))
        got = _interpolated_map(seen, split, cfg, out)
        assert got.rss is out
        assert out.tobytes() == _interpolated_map(seen, split, cfg).rss.tobytes()

    def test_file_interpolator_run_allocates_the_map_once(self, tmp_path):
        # 64 locations x 8 samples x 200 APs; 6 samples each stay for training
        cfg = tiny_cfg(
            synth=SyntheticSpec(grid_nx=8, grid_ny=8, width_m=35.0, height_m=35.0,
                                ap_count=200, samples_per_location=8),
            augment=AugmentationConfig(),
            unseen_fraction=0.5,
        )
        path = tmp_path / "survey.csv"
        save_dataset(build_data(cfg)[0], path)
        file_cfg = replace(cfg, source="file", file_path=str(path), file_test_fraction=0.25,
                           augmenter="interpolator")
        first = run_experiment(file_cfg)  # traced second: lazy imports add to a first run
        tracemalloc.start()
        try:
            result = run_experiment(file_cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.report == first.report
        row_bytes = 200 * 8
        augmented = result.n_seen * 6 * (1 + file_cfg.augment.replicas_per_sample) * row_bytes
        generated = result.n_unseen * file_cfg.samples_per_unseen * row_bytes
        # a merge that concatenates holds the augmented rows twice, once in the map
        assert peak < augmented + (augmented + generated)

    def test_feedforward_variant_runs(self):
        cfg = tiny_cfg(
            augmenter="none",
            localizer_variant="feedforward",
            localizer=LocalizerHyperparams(hidden=(16, 16), epochs=10),
        )
        r = run_experiment(cfg)
        assert np.isfinite(r.report.mean_error_m)

    def test_stage_error_tagging(self, tmp_path):
        cfg = tiny_cfg(source="file", file_path=str(tmp_path / "missing.csv"))
        with pytest.raises((StageError, FileNotFoundError)):
            run_experiment(cfg)

    def test_stage_error_names_stage(self):
        # k_neighbors too large for the seen count -> split stage error
        cfg = tiny_cfg(unseen_fraction=0.8)
        with pytest.raises(StageError, match=r"\[split\]"):
            run_experiment(cfg)


class TestSweep:
    def test_overhead_strictly_decreasing(self):
        cfg = tiny_cfg(augmenter="none")
        results = sweep_ratio(cfg, [0.0, 0.25, 0.5])
        overheads = [r.collection_overhead_min for r in results]
        assert overheads == sorted(overheads, reverse=True)
        assert len(set(overheads)) == 3

    def test_overhead_linear_in_seen_count(self):
        cfg = tiny_cfg(augmenter="none")
        for r in sweep_ratio(cfg, [0.0, 0.25, 0.5]):
            assert r.collection_overhead_min == r.n_seen * cfg.minutes_per_location

    def test_random_strategy_sweep(self):
        # the density-vs-random ablation's baseline arm sweeps like the density one
        cfg = tiny_cfg(augmenter="none", split_strategy="random")
        results = sweep_ratio(cfg, [0.25, 0.5])
        assert [r.n_unseen for r in results] == [4, 8]
        assert [r.n_seen for r in results] == [12, 8]


class TestSplitStrategies:
    def test_density_feasibility_guard(self):
        cfg = tiny_cfg(unseen_fraction=0.8)
        locs = synthetic_grid(cfg)
        with pytest.raises(Exception):
            compute_split(cfg, locs)

    def test_all_strategies_partition(self):
        cfg = tiny_cfg()
        locs = synthetic_grid(cfg)
        for strategy in ("density", "random"):
            split = compute_split(replace(cfg, split_strategy=strategy), locs)
            assert set(split.seen) | set(split.unseen) == set(locs)
            assert len(split.unseen) == 4
