"""Partition survey locations into seen (surveyed) and unseen (generated) sets.

The density-guided strategy repeatedly measures each remaining location's
neighbor density (mean distance to its k nearest peers, smaller = denser),
moves the densest location to the unseen set, and recomputes. Locations in
crowded areas are dropped first because their neighbors can supervise
generation there; sparse areas keep their survey points.

The recomputation is incremental and gives the same split as re-ranking every
remaining location after each removal. A density is `fsum` of a row's k
smallest distances to the other remaining locations, divided by k, so it
depends only on the multiset of those k distances (`fsum` is exact in any
order). Removing location m changes that multiset for row r only if
`dist[r, m] <= kth[r]`, the row's k-th smallest distance; the comparison must
include equality, because removing a point tied at the k-th distance can
change which values fill the k smallest. Every other row keeps its density
bit for bit, so only the rows within `kth` of a removed location are
recomputed, with the same partition, sort and `fsum` helper as a full pass.

Uniform random selection is the reference strategy it is compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Coordinate, coords_array, distances
from .errors import ConfigError, ConsistencyError, ParseError, SizeError


@dataclass(frozen=True)
class LocationSplit:
    """Disjoint seen/unseen partition of the target locations; seen is never empty."""

    seen: tuple[Coordinate, ...]
    unseen: tuple[Coordinate, ...]

    def __post_init__(self):
        object.__setattr__(self, "seen", tuple(self.seen))
        object.__setattr__(self, "unseen", tuple(self.unseen))
        if not self.seen:
            raise SizeError("split must keep at least one seen location")
        seen_set = set(self.seen)
        unseen_set = set(self.unseen)
        if len(seen_set) != len(self.seen) or len(unseen_set) != len(self.unseen):
            raise ConsistencyError("split contains duplicate coordinates")
        if seen_set & unseen_set:
            raise ConsistencyError("seen and unseen sets overlap")

    def seen_coords(self) -> np.ndarray:
        return coords_array(self.seen)

    def unseen_coords(self) -> np.ndarray:
        return coords_array(self.unseen)


@dataclass(frozen=True)
class DensityParams:
    k_neighbors: int = 3

    def __post_init__(self):
        if self.k_neighbors < 1:
            raise ConfigError(f"k_neighbors must be >= 1, got {self.k_neighbors}")


def _check_distinct(points) -> None:
    if len({(p.x, p.y) for p in points}) != len(points):
        raise ConsistencyError("points must be distinct")


def _knn_stats(dist: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of `dist`: the mean of its k nearest peers and the k-th distance."""
    # Rows include the self-distance 0; the k + 1 smallest of a row, sorted
    # ascending, are 0 then the k nearest peers. fsum keeps tie values exact
    # regardless of float order.
    smallest = np.sort(np.partition(dist, k, axis=1)[:, : k + 1], axis=1)
    dens = np.array([math.fsum(row) / k for row in smallest[:, 1:].tolist()], dtype=np.float64)
    return dens, smallest[:, k]


def neighbor_density(points, k: int) -> list[float]:
    """Mean Euclidean distance from each point to its k nearest other points.

    Smaller values mean higher neighbor density.
    """
    points = list(points)
    _check_distinct(points)
    if len(points) <= k:
        raise SizeError(f"need more than k={k} points, got {len(points)}")
    xy = coords_array(points)
    return _knn_stats(distances(xy[:, None], xy[None]), k)[0].tolist()


def select_unseen_density(points, n_unseen: int, params: DensityParams = DensityParams()) -> LocationSplit:
    """Greedy densest-first selection of unseen locations.

    Each iteration moves the densest (smallest mean distance) remaining
    location into the unseen set; ties break toward the lexicographically
    smallest coordinate. Densities are then brought up to date over the
    remaining locations by recomputing only the rows that had the moved
    location among their k nearest (see the module docstring).
    """
    points = list(points)
    _check_distinct(points)
    n = len(points)
    k = params.k_neighbors
    if not 0 <= n_unseen <= n - (k + 1):
        raise SizeError(
            f"n_unseen={n_unseen} must leave at least k_neighbors+1="
            f"{k + 1} of {n} points seen"
        )
    xy = coords_array(points)
    dist = distances(xy[:, None], xy[None])
    dens, kth = _knn_stats(dist, k)
    # Position of each point in (x, y) order, compared as Python compares the
    # coordinates: the tie-break key as one integer.
    xy_rank = np.empty(n, dtype=np.intp)
    xy_rank[sorted(range(n), key=lambda i: (points[i].x, points[i].y))] = np.arange(n)
    remaining = np.arange(n)
    unseen_idx: list[int] = []
    for _ in range(n_unseen):
        pos = int(np.lexsort((xy_rank[remaining], dens[remaining]))[0])
        moved = int(remaining[pos])
        unseen_idx.append(moved)
        remaining = np.delete(remaining, pos)
        stale = remaining[dist[remaining, moved] <= kth[remaining]]
        dens[stale], kth[stale] = _knn_stats(dist[np.ix_(stale, remaining)], k)
    return LocationSplit(
        seen=tuple(points[i] for i in remaining.tolist()),
        unseen=tuple(points[i] for i in unseen_idx),
    )


def select_unseen_random(points, n_unseen: int, seed) -> LocationSplit:
    """Uniform sample (without replacement) of unseen locations; seed-deterministic."""
    points = list(points)
    _check_distinct(points)
    n = len(points)
    if not 0 <= n_unseen <= n - 1:
        raise SizeError(f"n_unseen={n_unseen} must be in [0, {n - 1}]")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=n_unseen, replace=False)
    chosen_set = set(int(i) for i in chosen)
    return LocationSplit(
        seen=tuple(points[i] for i in range(n) if i not in chosen_set),
        unseen=tuple(points[int(i)] for i in chosen),
    )


# ---------------------------------------------------------------------------
# Split file: x,y,role rows for pipeline hand-off


def save_split(split: LocationSplit, path) -> None:
    lines = ["x,y,role"]
    for c in split.seen:
        lines.append(f"{float(c.x)!r},{float(c.y)!r},seen")
    for c in split.unseen:
        lines.append(f"{float(c.x)!r},{float(c.y)!r},unseen")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_split(path) -> LocationSplit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8") from None
    # read_text has turned "\r\n" and "\r" into "\n"; a line breaks there only
    lines = text.split("\n")
    if not lines or lines[0].strip() != "x,y,role":
        raise ParseError(f"{path}: expected header 'x,y,role'")
    seen: list[Coordinate] = []
    unseen: list[Coordinate] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ParseError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: non-numeric coordinate ({e})") from e
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"{path}: line {lineno}: non-finite coordinate ({x}, {y})")
        c = Coordinate(x, y)
        role = parts[2].strip()
        if role == "seen":
            seen.append(c)
        elif role == "unseen":
            unseen.append(c)
        else:
            raise ParseError(f"{path}: line {lineno}: unknown role {role!r}")
    return LocationSplit(seen=tuple(seen), unseen=tuple(unseen))
