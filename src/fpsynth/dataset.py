"""Fingerprint datasets: normalization, file I/O, and a synthetic radio oracle.

RSS values are stored normalized to [0, 1]: exactly 0.0 means "transmitter not
detected", detected readings occupy [detect_floor, 1]. The gap (0, detect_floor)
is deliberately empty so that generation noise can never blur the line between
a weak detection and an absent transmitter.

Files keep the raw dBm convention of wide-format survey dumps: one column per
access point (AP001..), then X, Y and an optional COLLECTOR column, with a
sentinel value standing for "not detected". A 520-AP public survey file loads
directly after trivial column selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, ConsistencyError, ParseError, RangeError, SizeError


@dataclass(frozen=True, order=True)
class Coordinate:
    """A 2-D survey position in meters. Ordering is lexicographic (x, then y)."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise RangeError(f"coordinate must be finite, got ({self.x}, {self.y})")

    def distance_to(self, other: "Coordinate") -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)


def distances(a, b) -> np.ndarray:
    """Euclidean distances between broadcast `(..., 2)` point arrays.

    Both sides are made float64 first; then the float operations of
    `Coordinate.distance_to`, in place in two buffers of the broadcast shape.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    dx = a[..., 0] - b[..., 0]
    dy = a[..., 1] - b[..., 1]
    dx *= dx
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)


def coords_array(points) -> np.ndarray:
    """The positions of a sequence of Coordinates as a float64 `(n, 2)` array."""
    return np.array([(p.x, p.y) for p in points], dtype=np.float64).reshape(-1, 2)


@dataclass(frozen=True)
class NormalizationParams:
    """Affine map between raw dBm readings and the normalized [0, 1] scale.

    sentinel_raw is the raw value meaning "not detected"; it normalizes to
    exactly 0.0. Detected values map onto [detect_floor, 1].
    """

    rss_min: float = -104.0
    rss_max: float = 0.0
    sentinel_raw: float = 100.0
    detect_floor: float = 0.1

    def __post_init__(self):
        if not self.rss_min < self.rss_max:
            raise ConfigError(f"rss_min ({self.rss_min}) must be < rss_max ({self.rss_max})")
        if not 0.0 < self.detect_floor <= 0.5:
            raise ConfigError(f"detect_floor must be in (0, 0.5], got {self.detect_floor}")


@dataclass(frozen=True)
class Fingerprint:
    """One normalized RSS vector tagged with the position it was measured at."""

    rss: np.ndarray
    location: Coordinate
    collector_id: int | None = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.rss, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "rss", arr)


def normalize_rss(raw: float, params: NormalizationParams) -> float:
    """Map a raw dBm-or-sentinel reading onto {0} ∪ [detect_floor, 1]."""
    if raw != params.sentinel_raw and not params.rss_min <= raw <= params.rss_max:
        raise RangeError(
            f"raw RSS {raw} outside [{params.rss_min}, {params.rss_max}] and not the sentinel"
        )
    return float(_normalize_array(np.array([raw], dtype=np.float64), params)[0])


def denormalize_rss(v: float, params: NormalizationParams) -> float:
    """Inverse of normalize_rss; values in (0, detect_floor) clamp to the sentinel."""
    if not 0.0 <= v <= 1.0:
        raise RangeError(f"normalized value {v} outside [0, 1]")
    return float(_denormalize_array(np.array([v], dtype=np.float64), params)[0])


# The two codec kernels work elementwise in one output buffer. Each step is
# one correctly rounded IEEE operation in the order of the formula, so any
# array shape gives every element the bits a scalar evaluation would.


def _normalize_array(raw: np.ndarray, params: NormalizationParams, out=None) -> np.ndarray:
    """f + (raw - rss_min) / span * (1 - f), clamped to [f, 1]; 0 for the sentinel.

    `out` may be `raw` itself.
    """
    f = params.detect_floor
    sentinel = raw == params.sentinel_raw
    v = np.subtract(raw, params.rss_min, out=out)
    v /= params.rss_max - params.rss_min
    v *= 1.0 - f
    v += f
    np.clip(v, f, 1.0, out=v)
    np.copyto(v, 0.0, where=sentinel)
    return v


def _denormalize_array(v: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """rss_min + (v - f) / (1 - f) * span, clamped to the raw range; the sentinel below f."""
    f = params.detect_floor
    raw = v - f
    raw /= 1.0 - f
    raw *= params.rss_max - params.rss_min
    raw += params.rss_min
    np.clip(raw, params.rss_min, params.rss_max, out=raw)
    np.copyto(raw, params.sentinel_raw, where=~(v >= f))
    return raw


def _in_codomain(v: np.ndarray, detect_floor: float) -> np.ndarray:
    return (v == 0.0) | ((v >= detect_floor) & (v <= 1.0))


def _index_of(keys) -> tuple[list, np.ndarray]:
    """The distinct `keys` in order of first appearance, and each key's position among them.

    Of equal keys the first one seen is kept, so Coordinate(-0.0, y) stands for
    Coordinate(0.0, y) when it comes first.
    """
    ids: dict = {}
    index = np.fromiter((ids.setdefault(k, len(ids)) for k in keys), dtype=np.intp)
    return list(ids), index


@dataclass(frozen=True, eq=False)
class FingerprintDataset:
    """Fingerprints sharing one AP universe and normalization, stored by column.

    `rss` is a read-only (N, A) float64 matrix, one row per sample;
    `loc_index[i]` is the position of sample i's coordinate in `locations`, the
    distinct survey coordinates; `collector_ids` holds each sample's collector
    id or None. Every construction validates the whole matrix, then marks the
    arrays it stores read-only in place (a float64 C-contiguous `rss` or an
    intp `loc_index` passed in is stored, not copied).
    """

    rss: np.ndarray
    loc_index: np.ndarray
    locations: tuple[Coordinate, ...]
    norm_params: NormalizationParams
    collector_ids: np.ndarray | None = None

    def __post_init__(self):
        rss = np.ascontiguousarray(self.rss, dtype=np.float64)
        if rss.ndim != 2:
            raise ConsistencyError(f"rss must be an (N, A) matrix, got shape {rss.shape}")
        n, a = rss.shape
        if a < 1:
            raise ConfigError(f"ap_count must be positive, got {a}")
        locations = tuple(self.locations)
        if len(set(locations)) != len(locations):
            raise ConsistencyError("dataset locations must be distinct")
        index = np.asarray(self.loc_index)
        if index.shape != (n,) or (n and index.dtype.kind not in "iu"):
            raise ConsistencyError(
                f"loc_index must hold {n} integers, got {index.dtype} of shape {index.shape}"
            )
        index = index.astype(np.intp, copy=False)
        collectors = (
            np.full(n, None, dtype=object)
            if self.collector_ids is None
            else np.asarray(self.collector_ids, dtype=object)
        )
        if collectors.shape != (n,):
            raise ConsistencyError(f"collector_ids must have shape ({n},), got {collectors.shape}")

        f = self.norm_params.detect_floor
        bad_value = np.flatnonzero(~_in_codomain(rss, f).all(axis=1))
        bad_index = np.flatnonzero((index < 0) | (index >= len(locations)))
        first_value = bad_value[0] if bad_value.size else n
        first_index = bad_index[0] if bad_index.size else n
        if first_value < n and first_value <= first_index:
            v = rss[first_value]
            bad = float(v[~_in_codomain(v, f)][0])
            raise RangeError(f"sample {first_value} has RSS entry {bad} outside {{0}} ∪ [{f}, 1]")
        if first_index < n:
            raise ConsistencyError(
                f"sample {first_index} has location index {index[first_index]}, "
                f"outside the {len(locations)} locations"
            )
        for name, value in (("rss", rss), ("loc_index", index), ("collector_ids", collectors)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "locations", locations)

    @property
    def ap_count(self) -> int:
        return self.rss.shape[1]

    def __len__(self) -> int:
        return self.rss.shape[0]

    @property
    def samples(self) -> tuple[Fingerprint, ...]:
        """Per-sample Fingerprint view, built on each access (for tests and single-item APIs)."""
        return tuple(
            Fingerprint(row, self.locations[j], c)
            for row, j, c in zip(self.rss, self.loc_index.tolist(), self.collector_ids)
        )

    def coords_matrix(self) -> np.ndarray:
        """Per-sample (x, y) positions as an (N, 2) array."""
        return self.location_coords()[self.loc_index]

    def location_coords(self) -> np.ndarray:
        return coords_array(self.locations)

    def take(self, rows) -> "FingerprintDataset":
        """The samples at integer positions `rows`, in that order, with their
        locations renumbered in first-appearance order."""
        rows = np.asarray(rows, dtype=np.intp)
        used, index = _index_of(self.loc_index[rows].tolist())
        return FingerprintDataset(
            self.rss[rows],
            index,
            tuple(self.locations[j] for j in used),
            self.norm_params,
            self.collector_ids[rows],
        )

    def located_in(self, locations) -> np.ndarray:
        """(N,) mask of the samples whose location is in `locations`."""
        keep = set(locations)
        return np.array([c in keep for c in self.locations], dtype=bool)[self.loc_index]

    def subset_at(self, locations) -> "FingerprintDataset":
        """Samples whose location is in `locations` (dataset order preserved)."""
        return self.take(np.flatnonzero(self.located_in(locations)))


def make_dataset(samples, ap_count: int, params: NormalizationParams) -> FingerprintDataset:
    """Build a dataset from Fingerprints, collecting distinct sample locations in
    first-appearance order."""
    samples = tuple(samples)
    rss = np.zeros((len(samples), max(ap_count, 0)))
    for i, s in enumerate(samples):
        if s.rss.shape != (ap_count,):
            make_dataset(samples[:i], ap_count, params)  # a fault in an earlier sample comes first
            raise ConsistencyError(
                f"sample {i} has {s.rss.shape[0]} RSS entries, expected {ap_count}"
            )
        rss[i] = s.rss
    locations, index = _index_of(s.location for s in samples)
    collectors = [s.collector_id for s in samples]
    return FingerprintDataset(rss, index, tuple(locations), params, collectors)


def merge_datasets(first: FingerprintDataset, *rest: FingerprintDataset) -> FingerprintDataset:
    """Concatenate datasets sharing ap_count and normalization (order preserved)."""
    parts = (first, *rest)
    for ds in rest:
        if ds.ap_count != first.ap_count:
            raise ConsistencyError(
                f"cannot merge datasets with ap_count {ds.ap_count} and {first.ap_count}"
            )
        if ds.norm_params != first.norm_params:
            raise ConsistencyError("cannot merge datasets with different normalization params")
    ids: dict[Coordinate, int] = {}
    index = []
    for ds in parts:
        # each part's locations in first-appearance order, numbered across parts
        used, local = _index_of(ds.loc_index.tolist())
        numbering = [ids.setdefault(ds.locations[j], len(ids)) for j in used]
        index.append(np.array(numbering, dtype=np.intp)[local])
    return FingerprintDataset(
        np.concatenate([ds.rss for ds in parts]),
        np.concatenate(index),
        tuple(ids),
        first.norm_params,
        np.concatenate([ds.collector_ids for ds in parts]),
    )


def canonicalize_dataset(ds: FingerprintDataset) -> FingerprintDataset:
    """Round every RSS value through the raw-dBm codec.

    Equivalent to saving the dataset and loading it back. The pipeline applies
    this at stage boundaries so a monolithic run and a staged run (which passes
    through files) operate on bit-identical data.
    """
    raw = _denormalize_array(ds.rss, ds.norm_params)
    return replace(ds, rss=_normalize_array(raw, ds.norm_params, out=raw))


# ---------------------------------------------------------------------------
# Synthetic radio environment (desk-scale ground-truth oracle)


@dataclass(frozen=True)
class SyntheticEnvironment:
    """Log-distance path-loss world with i.i.d. Gaussian shadowing.

    Raw RSS at distance d from an AP:
        tx_power_dbm - 10 * n * log10(max(d, d0) / d0) + Normal(0, shadowing_sigma_db^2)
    Readings below detection_threshold_dbm are reported as "not detected".
    """

    ap_positions: tuple[Coordinate, ...]
    tx_power_dbm: float = -30.0
    path_loss_exponent: float = 2.5
    shadowing_sigma_db: float = 4.0
    reference_distance_m: float = 1.0
    detection_threshold_dbm: float = -95.0

    def __post_init__(self):
        object.__setattr__(self, "ap_positions", tuple(self.ap_positions))
        if len(self.ap_positions) < 1:
            raise ConfigError("environment needs at least one AP")
        if self.path_loss_exponent <= 0:
            raise ConfigError(f"path_loss_exponent must be > 0, got {self.path_loss_exponent}")
        if self.shadowing_sigma_db < 0:
            raise ConfigError(f"shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db}")
        if self.reference_distance_m <= 0:
            raise ConfigError(f"reference_distance_m must be > 0, got {self.reference_distance_m}")


def generate_synthetic(
    env: SyntheticEnvironment,
    grid,
    samples_per_location: int,
    seed,
    params: NormalizationParams = NormalizationParams(),
) -> FingerprintDataset:
    """Draw `samples_per_location` fingerprints at every grid coordinate.

    Deterministic given seed. Raw values are clamped into the normalization
    range after the detection threshold is applied, so the effective floor for
    detected readings is max(detection_threshold_dbm, rss_min).
    """
    grid = tuple(grid)
    if not grid:
        raise SizeError("grid must be nonempty")
    if samples_per_location < 1:
        raise ConfigError(f"samples_per_location must be >= 1, got {samples_per_location}")
    rng = np.random.default_rng(seed)
    d = distances(coords_array(grid)[:, None], coords_array(env.ap_positions)[None])
    d_eff = np.maximum(d, env.reference_distance_m)
    mean_rss = env.tx_power_dbm - 10.0 * env.path_loss_exponent * np.log10(
        d_eff / env.reference_distance_m
    )
    shadow = rng.standard_normal((len(grid), samples_per_location, len(env.ap_positions)))
    raw = mean_rss[:, None, :] + env.shadowing_sigma_db * shadow
    detected = raw >= env.detection_threshold_dbm
    raw = np.clip(raw, params.rss_min, params.rss_max)
    raw = np.where(detected, raw, params.sentinel_raw)
    norm = _normalize_array(raw, params)
    index = np.repeat(np.arange(len(grid)), samples_per_location)
    return FingerprintDataset(norm.reshape(index.shape[0], -1), index, grid, params)


# ---------------------------------------------------------------------------
# File format: AP001..AP{A},X,Y[,COLLECTOR] with raw dBm values


def _ap_header(ap_count: int) -> list[str]:
    width = max(3, len(str(ap_count)))
    return [f"AP{i + 1:0{width}d}" for i in range(ap_count)]


def save_dataset(ds: FingerprintDataset, path) -> None:
    """Write the dataset in the raw-dBm wide format (UTF-8, '.' decimals).

    Floats are written at full round-trip precision (`repr`) so that
    load(save(ds)) reproduces the normalized values up to one normalization
    round trip.
    """
    has_collector = any(c is not None for c in ds.collector_ids)
    header = _ap_header(ds.ap_count) + ["X", "Y"] + (["COLLECTOR"] if has_collector else [])
    raw = _denormalize_array(ds.rss, ds.norm_params)
    xy = ds.coords_matrix().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row, (x, y), collector in zip(raw, xy, ds.collector_ids):
            tail = "" if not has_collector else "," if collector is None else f",{collector}"
            fh.write(f"{','.join(map(repr, row.tolist()))},{x!r},{y!r}{tail}\n")


def load_dataset(path, params: NormalizationParams = NormalizationParams()) -> FingerprintDataset:
    """Load a raw-dBm wide-format file and normalize it.

    Raises ParseError (naming the line) on malformed rows and RangeError on
    raw values outside [rss_min, rss_max] that are not the sentinel.
    """
    raw, xy, collectors = _read_rows(path, params)
    keys, index = _index_of(map(tuple, xy.tolist()))
    locations = tuple(Coordinate(x, y) for x, y in keys)
    return FingerprintDataset(_normalize_array(raw, params), index, locations, params, collectors)


def _read_rows(path, params: NormalizationParams):
    """(raw (N, A), xy (N, 2), collector ids or None) of a wide-format file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = [h.strip() for h in lines[0].split(",")]
    ap_count = 0
    while ap_count < len(header) and header[ap_count].startswith("AP"):
        ap_count += 1
    if ap_count == 0:
        raise ParseError(f"{path}: header has no AP columns")
    tail = header[ap_count:]
    if tail not in (["X", "Y"], ["X", "Y", "COLLECTOR"]):
        raise ParseError(
            f"{path}: expected columns X,Y[,COLLECTOR] after the AP block, got {tail}"
        )
    has_collector = len(tail) == 3
    parsed = _parse_block(lines, ap_count, has_collector, params)
    return parsed or _parse_lines(path, lines, ap_count, has_collector, params)


def _raw_in_range(raw: np.ndarray, params: NormalizationParams) -> np.ndarray:
    return (raw == params.sentinel_raw) | ((raw >= params.rss_min) & (raw <= params.rss_max))


def _parse_block(lines, ap_count: int, has_collector: bool, params: NormalizationParams):
    """(raw, xy, collectors) of all data rows, parsed by one np.loadtxt call.

    Returns None for an empty body and for any row that is not plainly valid;
    the per-line parser then finds the error, or parses tokens such as
    "1_000" that float() accepts and np.loadtxt does not.
    """
    rows = [line for line in lines[1:] if line.strip()]
    # np.loadtxt strips U+001F around a number where float() rejects it
    # (str.splitlines already ends lines at U+001C..U+001E)
    if not rows or any("\x1f" in row for row in rows):
        return None
    collectors = None
    if has_collector:
        rows, _, fields = zip(*(row.rpartition(",") for row in rows))
        try:
            collectors = [int(c) if c else None for c in map(str.strip, fields)]
        except ValueError:
            return None
    try:
        block = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(rows), ap_count + 2):
        return None
    raw, xy = block[:, :ap_count], block[:, ap_count:]
    if not (np.isfinite(xy).all() and _raw_in_range(raw, params).all()):
        return None
    return raw, xy, collectors


def _parse_lines(path, lines, ap_count: int, has_collector: bool, params: NormalizationParams):
    """(raw, xy, collectors) parsed line by line; raises ParseError or RangeError
    naming the first bad line."""
    n_fields = ap_count + 2 + has_collector
    raws, xys, collectors = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_fields:
            raise ParseError(f"{path}: line {lineno}: expected {n_fields} fields, got {len(parts)}")
        try:
            raw = np.array([float(p) for p in parts[:ap_count]])
            x = float(parts[ap_count])
            y = float(parts[ap_count + 1])
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: non-numeric field ({e})") from e
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"{path}: line {lineno}: non-finite coordinate ({x}, {y})")
        bad = ~_raw_in_range(raw, params)
        if bad.any():
            raise RangeError(
                f"{path}: line {lineno}: raw RSS {raw[bad][0]} outside "
                f"[{params.rss_min}, {params.rss_max}] and not the sentinel"
            )
        collector = None
        if has_collector:
            field = parts[ap_count + 2].strip()
            if field:
                try:
                    collector = int(field)
                except ValueError as e:
                    raise ParseError(f"{path}: line {lineno}: bad collector id {field!r}") from e
        raws.append(raw)
        xys.append((x, y))
        collectors.append(collector)
    return (
        np.array(raws).reshape(-1, ap_count),
        np.array(xys, dtype=np.float64).reshape(-1, 2),
        collectors if has_collector else None,
    )
