"""Reference augmentation strategies to compare the diffusion generator against."""

from __future__ import annotations

import numpy as np

from .dataset import FingerprintDataset
from .errors import SizeError


def interpolate_locations(seen_data: FingerprintDataset, targets, k: int = 3) -> np.ndarray:
    """Inverse-distance-weighted blend of the k nearest per-location mean
    fingerprints at each target, as a `(len(targets), A)` matrix.

    The location means are computed once. A target coinciding with a seen
    location gets that location's mean. Entries that land below detect_floor
    snap to 0.
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
    means = means[order]
    xy = seen_data.location_coords()[order]
    floor = seen_data.norm_params.detect_floor
    out = np.empty((len(targets), seen_data.ap_count))
    for i, target in enumerate(targets):
        # the same float operations as Coordinate.distance_to
        dx = xy[:, 0] - target.x
        dy = xy[:, 1] - target.y
        d = np.sqrt(dx * dx + dy * dy)
        nearest = np.argsort(d, kind="stable")[:k]
        if d[nearest[0]] == 0.0:
            blended = means[nearest[0]]
        else:
            w = 1.0 / d[nearest]
            blended = (w[:, None] * means[nearest]).sum(axis=0) / w.sum()
        out[i] = np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))
    return out
