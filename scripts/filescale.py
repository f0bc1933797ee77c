#!/usr/bin/env python3
"""Time the dataset layer, the density split and kNN evaluation at the scale
of a public survey file, and measure the memory of one training epoch.

A seeded survey of 20,000 fingerprints x 520 APs (2,000 locations x 10
samples, about half the readings "not detected") and a 2,000-query test draw
from the same world are written to a temporary directory. Each operation is
then timed REPEATS times and the median reported, with the minor page faults
(`ru_minflt`) of each call:

* save: `save_dataset` of the loaded survey;
* load: `load_dataset` of the survey file;
* canonicalize: `canonicalize_dataset` of the survey;
* density_split: `select_unseen_density` of the 2,000 locations, 1,000 unseen;
* augment: `augment_seen` with one replica per sample at every other location;
* merge: `merge_datasets` of the augmented data and the other locations' samples;
* evaluate: fitting the kNN localizer on the merged map and `evaluate` on the
  2,000 test queries.

Last, the diffusion arm, on the samples of every other location conditioned
on the other 1,000 locations:

* train_one_epoch: one epoch of `train()` (default config, 157 steps of 64
  rows), timed with tracing off; one more run under `tracemalloc` reports
  the epoch's peak traced memory (about 24 MB, mostly the 1,000 seen x
  1,000 unseen condition table and its temporaries);
* generate_1_step, generate_5_steps: `generate_unseen_map` of the 1,000
  unseen locations, 8 samples each, with the trained network and a 1-step
  and a 5-step noise schedule. Their difference over 4 is the time of one
  reverse-diffusion step (`reverse_step_s`); the default schedule runs 200.

    PYTHONPATH=src python3 scripts/filescale.py --out filescale.json

Its peak resident memory is about 565 MB (564 MB measured with numpy 2.4).
"""

import argparse
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

from fpsynth.dataset import canonicalize_dataset, load_dataset, merge_datasets, save_dataset
from fpsynth.diffusion import DiffusionTrainConfig, build_schedule, generate_unseen_map, train
from fpsynth.initializer import LocationSplit, select_unseen_density
from fpsynth.localizer import evaluate, fit_localizer
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


def timed(fn, repeats: int) -> tuple[float, list[float], list[int], object]:
    """(median seconds, every sample, each call's minor page faults, the last
    result) of `repeats` calls of fn."""
    samples, faults, result = [], [], None
    for _ in range(repeats):
        f0 = minor_faults()
        t0 = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - t0)
        faults.append(minor_faults() - f0)
    return statistics.median(samples), samples, faults, result


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=None, help="also write the JSON result here")
    args = ap.parse_args()

    rng = np.random.default_rng(SEED)
    nx, ny = LOCATIONS
    ix, iy = np.meshgrid(np.arange(nx), np.arange(ny))
    loc_xy = np.column_stack([ix.ravel(), iy.ravel()]) * 2.0
    ap_xy = rng.random((AP_COUNT, 2)) * loc_xy.max(axis=0)
    survey_rows = np.repeat(loc_xy, SAMPLES_PER_LOCATION, axis=0)
    test_rows = loc_xy[rng.integers(0, len(loc_xy), TEST_QUERIES)]

    timings: dict[str, dict] = {}

    def record(name, fn):
        median, samples, faults, result = timed(fn, REPEATS)
        timings[name] = {"median_s": median, "samples_s": samples, "minor_faults": faults}
        return result

    with tempfile.TemporaryDirectory() as tmp:
        survey_path, test_path = Path(tmp) / "survey.csv", Path(tmp) / "test.csv"
        write_survey(survey_path, rng, ap_xy, survey_rows)
        write_survey(test_path, rng, ap_xy, test_rows)
        data = record("load", lambda: load_dataset(survey_path))
        test_set = load_dataset(test_path)
        record("save", lambda: save_dataset(data, Path(tmp) / "saved.csv"))
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
    train_cfg = DiffusionTrainConfig(epochs=1, seed=SEED)
    trained = record("train_one_epoch", lambda: train(seen, split, train_cfg))
    tracemalloc.start()
    train(seen, split, train_cfg)
    train_peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
    tracemalloc.stop()

    def generate(steps):
        schedule = build_schedule(steps, train_cfg.beta_start, train_cfg.beta_end)
        net = trained.network
        return lambda: generate_unseen_map(net, split, schedule, SAMPLES_PER_UNSEEN, SEED)

    record("generate_1_step", generate(1))
    record("generate_5_steps", generate(5))
    one, five = (timings[k]["median_s"] for k in ("generate_1_step", "generate_5_steps"))
    reverse_step_s = (five - one) / 4

    result = {
        "environment": environment(),
        "input": {
            "samples": len(data),
            "ap_count": data.ap_count,
            "locations": len(data.locations),
            "detection_rate": detection_rate,
            "file_mb": file_mb,
            "map_rows": map_rows,
            "train_rows": len(seen),
            "queries": len(test_set),
        },
        "repeats": REPEATS,
        "timings": timings,
        "train_one_epoch": {"tracemalloc_peak_mb": train_peak_mb},
        "reverse_step_s": reverse_step_s,
        "mean_error_m": report.mean_error_m,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)


if __name__ == "__main__":
    main()
