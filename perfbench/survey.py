"""Seeded wide-format survey file for the survey-interp workload.

The survey is drawn here, with the benchmark's own numpy code, so that the
input does not depend on (and cannot be changed by) fpsynth's file writer.
Model: log-distance path loss with i.i.d. Gaussian shadowing,

    rss = TX_POWER_DBM - 10 * PATH_LOSS_EXPONENT * log10(max(d, 1 m)) + N(0, SHADOWING_DB^2)

and readings below DETECTION_DBM are written as the "not detected" sentinel.
Rows are `AP001..AP200,X,Y` with raw dBm values at full float precision.
The constants give a detection rate near one half, so the localizer and the
interpolator both see many "not detected" entries.
"""

from __future__ import annotations

import numpy as np

GRID = 20  # 20 x 20 = 400 locations
SPACING_M = 5.0
SAMPLES_PER_LOCATION = 10
AP_COUNT = 200
TX_POWER_DBM = -30.0
PATH_LOSS_EXPONENT = 3.5
SHADOWING_DB = 6.0
DETECTION_DBM = -89.0
RSS_MIN_DBM = -104.0  # fpsynth's default normalization range
RSS_MAX_DBM = 0.0
SENTINEL = 100.0
CHUNK_LOCATIONS = 20  # rows are formatted and written this many locations at a time


def write_survey(path, seed: int) -> dict:
    """Write the survey for `seed` to `path`; return its shape, detection rate and size."""
    rng = np.random.default_rng(seed)
    side = SPACING_M * (GRID - 1)
    ap_xy = rng.random((AP_COUNT, 2)) * side
    ix, iy = np.meshgrid(np.arange(GRID), np.arange(GRID))
    loc_xy = np.column_stack([ix.ravel(), iy.ravel()]) * SPACING_M
    detected = 0
    n_bytes = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        header = ",".join([f"AP{i + 1:03d}" for i in range(AP_COUNT)] + ["X", "Y"]) + "\n"
        fh.write(header)
        n_bytes += len(header)
        for lo in range(0, len(loc_xy), CHUNK_LOCATIONS):
            xy = loc_xy[lo : lo + CHUNK_LOCATIONS]
            d = np.hypot(xy[:, None, 0] - ap_xy[None, :, 0], xy[:, None, 1] - ap_xy[None, :, 1])
            mean = TX_POWER_DBM - 10.0 * PATH_LOSS_EXPONENT * np.log10(np.maximum(d, 1.0))
            shadow = rng.standard_normal((len(xy), SAMPLES_PER_LOCATION, AP_COUNT))
            raw = mean[:, None, :] + SHADOWING_DB * shadow
            hit = raw >= DETECTION_DBM
            detected += int(hit.sum())
            raw = np.where(hit, np.clip(raw, RSS_MIN_DBM, RSS_MAX_DBM), SENTINEL)
            lines = []
            for li, (x, y) in enumerate(xy.tolist()):
                tail = f"{x!r},{y!r}\n"
                for row in raw[li].tolist():
                    lines.append(",".join(map(repr, row)) + "," + tail)
            text = "".join(lines)
            fh.write(text)
            n_bytes += len(text)
    total = len(loc_xy) * SAMPLES_PER_LOCATION * AP_COUNT
    return {
        "locations": len(loc_xy),
        "samples_per_location": SAMPLES_PER_LOCATION,
        "ap_count": AP_COUNT,
        "detection_rate": detected / total,
        "file_bytes": n_bytes,
    }
