#!/usr/bin/env python3
"""Time the dataset layer, the density split and kNN evaluation at the scale
of a public survey file, and measure the memory of one training epoch.

A seeded survey of 20,000 fingerprints x 520 APs (2,000 locations x 10
samples, about half the readings "not detected") and a 2,000-query test draw
from the same world are written to a temporary directory. Each operation is
then timed REPEATS times and the median reported, with the minor page faults
(`ru_minflt`) of each call and the process's peak resident memory
(`ru_maxrss`, a running maximum) once the operation's repeats are done:

* save: `save_dataset` of the loaded survey;
* load: `load_dataset` of the survey file; one more call under `tracemalloc`
  reports its peak traced memory and that peak over the bytes of the matrix
  it returns (`load.tracemalloc_peak_mb`, `load.peak_over_matrix`);
* canonicalize: `canonicalize_dataset` of the survey;
* density_split: `select_unseen_density` of the 2,000 locations, 1,000 unseen;
* augment: `augment_seen` with one replica per sample at every other location;
* merge: `merge_datasets` of the augmented data and the other locations' samples;
* evaluate: fitting the kNN localizer on the merged map and `evaluate` on the
  2,000 test queries.

Then the two generator arms, on the samples of every other location with
the other 1,000 locations unseen:

* interpolate: `interpolate_locations` (k=3) of those samples onto the 1,000
  unseen locations, the interpolator arm's map (the SHA-256 of its bytes is
  reported as `interpolate_sha256`);
* train_one_epoch: one epoch of `train()` (default config, 157 steps of 64
  rows), timed with tracing off; one more run under `tracemalloc` reports
  the epoch's peak traced memory (about 24 MB, mostly the 1,000 seen x
  1,000 unseen condition table and its temporaries);
* generate_1_step, generate_5_steps: `generate_unseen_map` of the 1,000
  unseen locations, 8 samples each, with the trained network and a 1-step
  and a 5-step noise schedule. Their difference over 4 is the time of one
  reverse-diffusion step (`reverse_step_s`); the default schedule runs 200.

Last, once the datasets above are dropped, the interpolator arm end to end:

* experiment_interpolator: one `run_experiment` of the default config with
  `data.source=file` on the survey file and `augmenter.kind=interpolator`
  (density split, 1,000 unseen locations, 8 train samples per location, 4
  replicas each); one more run under `tracemalloc` reports its peak traced
  memory and that peak over the bytes of the final fingerprint map
  (`experiment_interpolator.peak_over_map`).

    PYTHONPATH=src python3 scripts/filescale.py --out filescale.json

Its peak resident memory is about 444 MB (444.4 MB over two runs with numpy
2.4 on 2 vCPUs), reached in `evaluate`, where the kNN localizer holds a 62 MB
float32 copy of the 30,000-row map; the `maxrss_mb` of each operation shows
where it is reached. The whole script takes about 70 s there.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from fpsynth.baselines import interpolate_locations
from fpsynth.config import resolve_config
from fpsynth.dataset import canonicalize_dataset, load_dataset, merge_datasets, save_dataset
from fpsynth.diffusion import DiffusionTrainConfig, build_schedule, generate_unseen_map, train
from fpsynth.initializer import LocationSplit, select_unseen_density
from fpsynth.localizer import evaluate, fit_localizer
from fpsynth.pipeline import run_experiment
from fpsynth.synthesizer import AugmentationConfig, augment_seen

LOCATIONS = (50, 40)  # grid columns x rows, 2 m apart
SAMPLES_PER_LOCATION = 10
TEST_QUERIES = 2_000
AP_COUNT = 520
DETECTION_DBM = -87.0  # with the constants below, about half the readings
REPEATS = 5
SEED = 0
SAMPLES_PER_UNSEEN = 8  # the default config's augmenter.samples_per_unseen


def write_survey(path: Path, rng, ap_xy, rows_xy) -> None:
    """One fingerprint per row of `rows_xy`: log-distance path loss with 6 dB
    shadowing, undetected readings written as the sentinel 100."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join([f"AP{i + 1:03d}" for i in range(AP_COUNT)] + ["X", "Y"]) + "\n")
        for x, y in rows_xy.tolist():
            d = np.hypot(ap_xy[:, 0] - x, ap_xy[:, 1] - y)
            raw = -30.0 - 35.0 * np.log10(np.maximum(d, 1.0)) + 6.0 * rng.standard_normal(AP_COUNT)
            raw = np.where(raw >= DETECTION_DBM, np.clip(raw, -104.0, 0.0), 100.0)
            fh.write(",".join(map(repr, raw.tolist())) + f",{x!r},{y!r}\n")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_peak_mb(fn) -> tuple[float, object]:
    """(peak traced memory in MB, result) of one call of fn under tracemalloc."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1] / 1e6, result
    finally:
        tracemalloc.stop()


def timed(fn, repeats: int) -> tuple[float, list[float], list[int], object]:
    """(median seconds, every sample, each call's minor page faults, the last
    result) of `repeats` calls of fn. Each call runs after the previous call's
    result is dropped, so only one result is alive at a time."""
    samples, faults, result = [], [], None
    for _ in range(repeats):
        result = None
        f0 = minor_faults()
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
        faults.append(minor_faults() - f0)
    return statistics.median(samples), samples, faults, result


def measure(tmp: Path) -> dict:
    """Every measurement above, with the survey files written under `tmp`."""
    rng = np.random.default_rng(SEED)
    nx, ny = LOCATIONS
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    loc_xy = np.column_stack([ix.ravel(), iy.ravel()]) * 2.0
    ap_xy = rng.random((AP_COUNT, 2)) * loc_xy.max(axis=0)
    survey_rows = np.repeat(loc_xy, SAMPLES_PER_LOCATION, axis=0)
    test_rows = loc_xy[rng.integers(0, len(loc_xy), TEST_QUERIES)]

    timings: dict[str, dict] = {}

    def record(name, fn, repeats=REPEATS):
        median, samples, faults, result = timed(fn, repeats)
        timings[name] = {
            "median_s": median,
            "samples_s": samples,
            "minor_faults": faults,
            "maxrss_mb": maxrss_mb(),
        }
        return result

    survey_path, test_path = tmp / "survey.csv", tmp / "test.csv"
    write_survey(survey_path, rng, ap_xy, survey_rows)
    write_survey(test_path, rng, ap_xy, test_rows)
    # traced first, while no other dataset is alive, so that it does not set peak_rss_mb
    load_peak_mb, data = traced_peak_mb(lambda: load_dataset(survey_path))
    load_peak_over_matrix = load_peak_mb * 1e6 / data.rss.nbytes
    del data
    data = record("load", lambda: load_dataset(survey_path))
    test_set = load_dataset(test_path)
    record("save", lambda: save_dataset(data, tmp / "saved.csv"))
    file_mb = survey_path.stat().st_size / 1e6
    detection_rate = float(np.mean(data.rss > 0.0))

    data = record("canonicalize", lambda: canonicalize_dataset(data))
    record("density_split", lambda: select_unseen_density(data.locations, len(data.locations) // 2))
    split = LocationSplit(seen=data.locations[::2], unseen=data.locations[1::2])
    cfg = AugmentationConfig(replicas_per_sample=1, seed=SEED)
    aug = record("augment", lambda: augment_seen(data, split, cfg))
    rest = data.subset_at(split.unseen)
    merged = record("merge", lambda: merge_datasets(aug, rest))
    report = record("evaluate", lambda: evaluate(fit_localizer(merged, "knn"), test_set))
    map_rows = len(merged)
    del aug, rest, merged

    seen = data.subset_at(split.seen)
    interpolated = record("interpolate", lambda: interpolate_locations(seen, split.unseen))
    train_cfg = DiffusionTrainConfig(epochs=1, seed=SEED)
    trained = record("train_one_epoch", lambda: train(seen, split, train_cfg))
    train_peak_mb, _ = traced_peak_mb(lambda: train(seen, split, train_cfg))

    def generate(steps):
        schedule = build_schedule(steps, train_cfg.beta_start, train_cfg.beta_end)
        net = trained.network
        return lambda: generate_unseen_map(net, split, schedule, SAMPLES_PER_UNSEEN, SEED)

    record("generate_1_step", generate(1))
    record("generate_5_steps", generate(5))
    one, five = (timings[k]["median_s"] for k in ("generate_1_step", "generate_5_steps"))
    reverse_step_s = (five - one) / 4
    input_shape = {
        "samples": len(data),
        "ap_count": data.ap_count,
        "locations": len(data.locations),
        "detection_rate": detection_rate,
        "file_mb": file_mb,
        "map_rows": map_rows,
        "train_rows": len(seen),
        "queries": len(test_set),
    }
    interpolate_sha256 = hashlib.sha256(interpolated.tobytes()).hexdigest()
    del data, test_set, seen, trained, interpolated

    cfg = resolve_config(
        None, ["data.source=file", f"data.file.path={survey_path}", "augmenter.kind=interpolator"]
    )
    experiment = record("experiment_interpolator", lambda: run_experiment(cfg), repeats=1)
    experiment_peak_mb, _ = traced_peak_mb(lambda: run_experiment(cfg))
    # the map: the augmented train rows of the seen locations, then the generated rows
    train_per_location = SAMPLES_PER_LOCATION - int(SAMPLES_PER_LOCATION * cfg.file_test_fraction)
    seen_rows = experiment.n_seen * train_per_location * (1 + cfg.augment.replicas_per_sample)
    experiment_map_rows = seen_rows + experiment.n_unseen * cfg.samples_per_unseen
    experiment_map_mb = experiment_map_rows * AP_COUNT * 8 / 1e6

    return {
        "environment": environment(),
        "input": input_shape,
        "repeats": REPEATS,
        "timings": timings,
        "load": {"tracemalloc_peak_mb": load_peak_mb, "peak_over_matrix": load_peak_over_matrix},
        "train_one_epoch": {"tracemalloc_peak_mb": train_peak_mb},
        "reverse_step_s": reverse_step_s,
        "interpolate_sha256": interpolate_sha256,
        "mean_error_m": report.mean_error_m,
        "experiment_interpolator": {
            "map_rows": experiment_map_rows,
            "map_mb": experiment_map_mb,
            "tracemalloc_peak_mb": experiment_peak_mb,
            "peak_over_map": experiment_peak_mb / experiment_map_mb,
            "mean_error_m": experiment.report.mean_error_m,
        },
        "peak_rss_mb": maxrss_mb(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="also write the JSON result here")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        result = measure(Path(tmp))
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)


if __name__ == "__main__":
    main()
