"""Datasets of RSS fingerprints: normalization, file I/O, and a synthetic radio oracle.

A set of location-tagged fingerprints is one `FingerprintDataset`, stored by
column: an (N, A) RSS matrix and each row's index into the distinct
locations.

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
from itertools import chain

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


# The two codec kernels work elementwise in one output buffer. Each step is
# one correctly rounded IEEE operation in the order of the formula, so any
# array shape gives every element the bits a scalar evaluation would; so does
# a kernel run over row blocks, which keeps each temporary to one block.

# Values per row block of the blocked passes below (512 KB of float64).
_BLOCK_VALUES = 1 << 16


def _row_blocks(n: int, ap_count: int):
    """The row slices that cover `n` rows of `ap_count` values, one block each."""
    step = max(1, _BLOCK_VALUES // ap_count)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _first_bad_row(m: np.ndarray, ok) -> int:
    """The first row of `m` with an entry where the mask `ok(block)` is False, or len(m)."""
    for rows in _row_blocks(*m.shape):
        bad = np.flatnonzero(~ok(m[rows]).all(axis=1))
        if bad.size:
            return rows.start + int(bad[0])
    return len(m)


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


def _denormalize_array(v: np.ndarray, params: NormalizationParams, out=None) -> np.ndarray:
    """rss_min + (v - f) / (1 - f) * span, clamped to the raw range; the sentinel below f.

    `out` may be `v` itself.
    """
    f = params.detect_floor
    below = ~(v >= f)
    raw = np.subtract(v, f, out=out)
    raw /= 1.0 - f
    raw *= params.rss_max - params.rss_min
    raw += params.rss_min
    np.clip(raw, params.rss_min, params.rss_max, out=raw)
    np.copyto(raw, params.sentinel_raw, where=below)
    return raw


def _round_trip(rss: np.ndarray, params: NormalizationParams) -> None:
    """Decode and re-encode a writable (N, A) matrix in place, one row block at a time."""
    for rows in _row_blocks(*rss.shape):
        block = rss[rows]
        _normalize_array(_denormalize_array(block, params, out=block), params, out=block)


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
        first_value = _first_bad_row(rss, lambda v: _in_codomain(v, f))
        bad_index = np.flatnonzero((index < 0) | (index >= len(locations)))
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

    def coords_matrix(self) -> np.ndarray:
        """Per-sample (x, y) positions as an (N, 2) array."""
        return self.location_coords()[self.loc_index]

    def location_coords(self) -> np.ndarray:
        return coords_array(self.locations)

    def take(self, rows, out=None) -> "FingerprintDataset":
        """The samples at integer positions `rows`, in that order, with their
        locations renumbered in first-appearance order.

        With `out`, a writable C-contiguous `(len(rows), A)` float64 matrix,
        the samples' readings are written into it and it becomes the result's
        matrix (read-only from then on).
        """
        rows = np.asarray(rows, dtype=np.intp)
        used, index = _index_of(self.loc_index[rows].tolist())
        # the lookup above checked `rows`; "wrap" reads them as indexing does, and
        # straight into `out`, where the default mode gathers into a copy first
        return FingerprintDataset(
            np.take(self.rss, rows, axis=0, out=out, mode="wrap"),
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


def merge_datasets(
    first: FingerprintDataset, *rest: FingerprintDataset, out: np.ndarray | None = None
) -> FingerprintDataset:
    """Concatenate datasets sharing ap_count and normalization (order preserved).

    With `out`, a writable C-contiguous `(N, A)` float64 matrix for all N rows,
    the rows are concatenated into it and it becomes the result's matrix. numpy
    skips copying a part whose rows already sit at their place in `out`, as in
    the pipeline's map buffer. A part whose matrix shares memory with the rows
    of `out` before or after its own would be overwritten before it is read,
    so it raises ConsistencyError.
    """
    parts = (first, *rest)
    for ds in rest:
        if ds.ap_count != first.ap_count:
            raise ConsistencyError(
                f"cannot merge datasets with ap_count {ds.ap_count} and {first.ap_count}"
            )
        if ds.norm_params != first.norm_params:
            raise ConsistencyError("cannot merge datasets with different normalization params")
    if out is not None:
        lo = 0
        for i, ds in enumerate(parts):
            hi = lo + len(ds)
            if np.shares_memory(ds.rss, out[:lo]) or np.shares_memory(ds.rss, out[hi:]):
                raise ConsistencyError(
                    f"part {i} of the merge overlaps rows of `out` outside its own {lo}:{hi}"
                )
            lo = hi
    ids: dict[Coordinate, int] = {}
    index = []
    for ds in parts:
        # each part's locations in first-appearance order, numbered across parts
        used, local = _index_of(ds.loc_index.tolist())
        numbering = [ids.setdefault(ds.locations[j], len(ids)) for j in used]
        index.append(np.array(numbering, dtype=np.intp)[local])
    return FingerprintDataset(
        np.concatenate([ds.rss for ds in parts], out=out),
        np.concatenate(index),
        tuple(ids),
        first.norm_params,
        np.concatenate([ds.collector_ids for ds in parts]),
    )


def canonicalize_dataset(ds: FingerprintDataset, *, in_place: bool = False) -> FingerprintDataset:
    """Round every RSS value through the raw-dBm codec.

    Equivalent to saving the dataset and loading it back. The pipeline applies
    this at stage boundaries so a monolithic run and a staged run (which passes
    through files) operate on bit-identical data.

    The codec is not a projection: a second round trip can move values again.
    On the desk seed-0 train pool (16,000 values) four successive round trips
    change 2,002, 133, 17 and 0 values. A staged run crosses each boundary
    through exactly one file, so the pipeline canonicalizes exactly once per
    boundary, never a dataset that was already loaded from a file.

    By default the result holds a new matrix and `ds` is unchanged. With
    `in_place=True`, `ds` is handed over: the round trip runs inside its own
    matrix (in a copy only if writes to that matrix cannot be re-enabled), and
    the caller must not use `ds` again.
    """
    rss = ds.rss if in_place else ds.rss.copy()
    try:
        rss.setflags(write=True)
    except ValueError:  # a view of a matrix that stays read-only
        rss = rss.copy()
    _round_trip(rss, ds.norm_params)
    return replace(ds, rss=rss)


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
        if not self.path_loss_exponent > 0:
            raise ConfigError(f"path_loss_exponent must be > 0, got {self.path_loss_exponent}")
        if not self.shadowing_sigma_db >= 0:
            raise ConfigError(f"shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db}")
        if not self.reference_distance_m > 0:
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
    xy = ds.coords_matrix().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for rows in _row_blocks(*ds.rss.shape):
            raw = _denormalize_array(ds.rss[rows], ds.norm_params).tolist()
            for row, (x, y), collector in zip(raw, xy[rows], ds.collector_ids[rows]):
                tail = "" if not has_collector else "," if collector is None else f",{collector}"
                fh.write(f"{','.join(map(repr, row))},{x!r},{y!r}{tail}\n")


def load_dataset(path, params: NormalizationParams = NormalizationParams()) -> FingerprintDataset:
    """Load a raw-dBm wide-format file and normalize it.

    Raises ParseError (naming the line) on malformed rows and RangeError on
    raw values outside [rss_min, rss_max] that are not the sentinel.
    """
    block, collectors = _read_rows(path, params)
    ap_count = block.shape[1] - 2
    xy = block[:, ap_count:].copy()
    rss = _normalize_ap_columns(block, params)
    keys, index = _index_of(map(tuple, xy.tolist()))
    locations = tuple(Coordinate(x, y) for x, y in keys)
    return FingerprintDataset(rss, index, locations, params, collectors)


def _normalize_ap_columns(block: np.ndarray, params: NormalizationParams) -> np.ndarray:
    """The AP columns of a parsed `(N, A + 2)` block, normalized and moved to
    the front of the block's own buffer, as an `(N, A)` view of it.

    One row block at a time: its AP columns are normalized in place, then
    copied to their packed position. That position ends before the next row
    block starts, so no unread row is overwritten; where it overlaps the rows
    being copied, numpy copies them to a block-sized temporary first.
    """
    n, a = block.shape[0], block.shape[1] - 2
    flat = block.reshape(-1)
    for rows in _row_blocks(n, a + 2):
        ap = block[rows, :a]
        _normalize_array(ap, params, out=ap)
        flat[rows.start * a : (rows.start + len(ap)) * a].reshape(-1, a)[...] = ap
    return flat[: n * a].reshape(n, a)


# U+000B, U+000C, U+001C-U+001E, U+0085, U+2028 and U+2029 end a line for
# str.splitlines() but not for a text file's line iterator; np.loadtxt strips
# U+001C-U+001F around a number where float() rejects them. An AP, X or Y field
# holding one is rejected. One `in` test per character scans at memchr speed,
# about ten times faster than a regular expression character class.
_NOT_PLAIN = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _plain(text: str) -> bool:
    return not any(c in text for c in _NOT_PLAIN)


class _NotPlain(Exception):
    """The streamed parse met a row that is not plainly valid."""


def _read_rows(path, params: NormalizationParams):
    """(the raw `(N, A + 2)` block of AP readings then X, Y; collector ids or
    None) of a wide-format file.

    The file is streamed into one np.loadtxt call, so no copy of its text is
    held. If that parse rejects a line or the file is not valid UTF-8, the file
    is streamed again, line by line, only to raise the first bad line's error.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
            if not header:
                raise ParseError(f"{path}: empty file, expected a header row")
            ap_count, has_collector = _columns(path, header.rstrip("\n"))
            return _parse_stream(fh, ap_count, has_collector, params)
    except (_NotPlain, UnicodeDecodeError):
        pass
    # undecodable bytes come back as U+DC80-U+DCFF, which str.encode rejects
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        _raise_first_bad_line(path, fh, params)


def _columns(path, header: str) -> tuple[int, bool]:
    """(AP count, whether a COLLECTOR column follows X,Y) of a header row."""
    names = [h.strip() for h in header.split(",")]
    ap_count = 0
    while ap_count < len(names) and names[ap_count].startswith("AP"):
        ap_count += 1
    if ap_count == 0:
        raise ParseError(f"{path}: header has no AP columns")
    tail = names[ap_count:]
    if tail not in (["X", "Y"], ["X", "Y", "COLLECTOR"]):
        raise ParseError(
            f"{path}: expected columns X,Y[,COLLECTOR] after the AP block, got {tail}"
        )
    return ap_count, len(tail) == 3


def _raw_in_range(raw: np.ndarray, params: NormalizationParams) -> np.ndarray:
    return (raw == params.sentinel_raw) | ((raw >= params.rss_min) & (raw <= params.rss_max))


def _parse_stream(lines, ap_count: int, has_collector: bool, params: NormalizationParams):
    """(block, collectors) of the data rows in the iterable `lines`, parsed by
    one np.loadtxt call; raises _NotPlain for any row that is not plainly valid."""
    collectors = [] if has_collector else None
    n_rows = 0

    def rows():
        nonlocal n_rows
        for line in lines:
            if line.isspace():
                continue
            if has_collector:
                line, _, field = line.rpartition(",")
                field = field.strip()
                try:
                    collectors.append(int(field) if field else None)
                except ValueError:
                    raise _NotPlain from None
            if not _plain(line):
                raise _NotPlain
            n_rows += 1
            yield line

    body = rows()
    first = next(body, None)
    if first is None:  # np.loadtxt warns on an empty input
        return np.empty((0, ap_count + 2)), collectors
    try:
        block = np.loadtxt(chain([first], body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise _NotPlain from None
    if block.shape != (n_rows, ap_count + 2):
        raise _NotPlain
    if not np.isfinite(block[:, ap_count:]).all():
        raise _NotPlain
    if _first_bad_row(block[:, :ap_count], lambda r: _raw_in_range(r, params)) < n_rows:
        raise _NotPlain
    return block, collectors


def _raise_first_bad_line(path, lines, params):
    """Raise ParseError or RangeError naming the first line of `lines` (the
    header, then the data lines) that is not valid UTF-8, or that _columns or
    _parse_stream rejects.

    Once a line passes the checks that float() and int() allow, np.loadtxt
    rejects it only for an AP, X or Y field that holds a character of
    _NOT_PLAIN, a '_' or, inside its whitespace, a non-ASCII character: the
    digit separators and Unicode digits that float() reads.
    """
    for lineno, line in enumerate(lines, start=1):
        where = f"{path}: line {lineno}"
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:
            raise ParseError(f"{where}: not valid UTF-8") from None
        if lineno == 1:
            ap_count, has_collector = _columns(path, line.rstrip("\n"))
            n_fields = ap_count + 2 + has_collector
            continue
        if line.isspace():
            continue
        parts = line.rstrip("\n").split(",")
        if len(parts) != n_fields:
            raise ParseError(f"{where}: expected {n_fields} fields, got {len(parts)}")
        try:
            raw = np.array([float(p) for p in parts[:ap_count]])
            x, y = float(parts[ap_count]), float(parts[ap_count + 1])
        except ValueError as e:
            raise ParseError(f"{where}: non-numeric field ({e})") from e
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ParseError(f"{where}: non-finite coordinate ({x}, {y})")
        bad = ~_raw_in_range(raw, params)
        if bad.any():
            raise RangeError(
                f"{where}: raw RSS {raw[bad][0]} outside "
                f"[{params.rss_min}, {params.rss_max}] and not the sentinel"
            )
        field = parts[-1].strip() if has_collector else ""
        if field:
            try:
                int(field)
            except ValueError as e:
                raise ParseError(f"{where}: bad collector id {field!r}") from e
        numbers = parts[: ap_count + 2]
        text = ",".join(numbers)
        if _plain(text) and "_" not in text and text.isascii():
            continue
        for p in numbers:
            if not _plain(p) or "_" in p or not p.strip().isascii():
                raise ParseError(f"{where}: field {p!r} is not a plain ASCII number")
    raise ParseError(f"{path}: rejected by the streamed parse, but no line is at fault")
