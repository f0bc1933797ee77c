"""Reference augmentation strategies to compare the diffusion generator against."""

from __future__ import annotations

import numpy as np

from .dataset import Coordinate, Fingerprint, FingerprintDataset
from .errors import SizeError


def knn_spatial_interpolate(
    seen_data: FingerprintDataset, target: Coordinate, k: int = 3
) -> Fingerprint:
    """Inverse-distance-weighted blend of the k nearest per-location mean fingerprints.

    A target coinciding with a seen location returns that location's mean.
    Entries that land below detect_floor snap to 0.
    """
    locs = seen_data.locations
    if len(locs) < k:
        raise SizeError(f"need at least k={k} distinct seen locations, got {len(locs)}")
    loc_index = {c: i for i, c in enumerate(locs)}
    sums = np.zeros((len(locs), seen_data.ap_count))
    counts = np.zeros(len(locs))
    for s in seen_data.samples:
        i = loc_index[s.location]
        sums[i] += s.rss
        counts[i] += 1
    means = sums / counts[:, None]

    order = sorted(range(len(locs)), key=lambda i: (locs[i].x, locs[i].y))
    d = np.array([locs[i].distance_to(target) for i in order])
    nearest = np.argsort(d, kind="stable")[:k]
    if d[nearest[0]] == 0.0:
        blended = means[order[int(nearest[0])]]
    else:
        w = 1.0 / d[nearest]
        rows = np.array([means[order[int(i)]] for i in nearest])
        blended = (w[:, None] * rows).sum(axis=0) / w.sum()
    floor = seen_data.norm_params.detect_floor
    out = np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))
    return Fingerprint(out, target)

