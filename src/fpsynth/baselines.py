"""Reference augmentation strategies to compare the diffusion generator against.

The interpolator is inverse-distance kNN regression in coordinate space, so it
runs on `KnnLocalizer.predict_batch`, its exact search and blend.
"""

from __future__ import annotations

import numpy as np

from .dataset import FingerprintDataset, coords_array
from .errors import SizeError
from .localizer import KnnLocalizer


def interpolate_locations(seen_data: FingerprintDataset, targets, k: int = 3) -> np.ndarray:
    """Inverse-distance-weighted blend of the k nearest per-location mean
    fingerprints at each target, as a `(len(targets), A)` matrix.

    The location means are computed once. A target coinciding with a seen
    location gets that location's mean; equidistant locations rank in (x, y)
    order. Entries that land below detect_floor snap to 0.
    """
    locs = seen_data.locations
    if len(locs) < k:
        raise SizeError(f"need at least k={k} distinct seen locations, got {len(locs)}")
    counts = np.bincount(seen_data.loc_index, minlength=len(locs))
    by_loc = np.argsort(seen_data.loc_index, kind="stable")
    starts = np.cumsum(counts) - counts
    sums = np.zeros((len(locs), seen_data.ap_count))
    # Pass r adds each location's r-th sample, if it has one: every sum
    # accumulates in sample order, as np.add.at would, in max(counts) passes.
    for r in range(counts.max()):
        have = np.flatnonzero(counts > r)
        rows = seen_data.rss[by_loc[starts[have] + r]]
        if len(have) == len(locs):  # no scatter while every location has a sample left
            sums += rows
        else:
            sums[have] += rows
    means = sums / counts[:, None]

    order = sorted(range(len(locs)), key=lambda i: (locs[i].x, locs[i].y))
    xy = seen_data.location_coords()[order]
    blended = KnnLocalizer(xy, means[order], k).predict_batch(coords_array(targets))
    floor = seen_data.norm_params.detect_floor
    return np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))
