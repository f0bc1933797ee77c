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
    rows = seen_data.loc_index
    sums = np.zeros((len(locs), seen_data.ap_count))
    # unbuffered, in sample order: each sum accumulates as a per-sample loop would
    np.add.at(sums, rows, seen_data.rss)
    counts = np.bincount(rows, minlength=len(locs)).astype(np.float64)
    means = sums / counts[:, None]

    order = sorted(range(len(locs)), key=lambda i: (locs[i].x, locs[i].y))
    xy = seen_data.location_coords()[order]
    blended = KnnLocalizer(xy, means[order], k).predict_batch(coords_array(targets))
    floor = seen_data.norm_params.detect_floor
    return np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))
