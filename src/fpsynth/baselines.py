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
    return interpolate_locations(seen_data, [target], k)[0]


def interpolate_locations(
    seen_data: FingerprintDataset, targets, k: int = 3
) -> list[Fingerprint]:
    """`knn_spatial_interpolate` at every target, computing the location means once."""
    locs = seen_data.locations
    if len(locs) < k:
        raise SizeError(f"need at least k={k} distinct seen locations, got {len(locs)}")
    rows = seen_data.loc_index
    sums = np.zeros((len(locs), seen_data.ap_count))
    # unbuffered, in sample order: each sum accumulates as a per-sample loop would
    np.add.at(sums, rows, seen_data.rss_matrix())
    counts = np.bincount(rows, minlength=len(locs)).astype(np.float64)
    means = sums / counts[:, None]

    order = sorted(range(len(locs)), key=lambda i: (locs[i].x, locs[i].y))
    means = means[order]
    xy = seen_data.location_coords()[order]
    floor = seen_data.norm_params.detect_floor
    out = []
    for target in targets:
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
        rss = np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))
        out.append(Fingerprint(rss, target))
    return out
