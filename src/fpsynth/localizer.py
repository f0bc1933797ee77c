"""Downstream localization models used to score fingerprint-map quality.

The kNN variant is the deterministic workhorse: inverse-distance-weighted
average of the k nearest stored fingerprints in RSS space. Its exact search
and blend, `KnnLocalizer.predict_batch`, also serve
`baselines.interpolate_locations`, with seen-location coordinates as the
stored rows and location means as the values. The feedforward variant
regresses coordinates with a small MLP trained by Adam on squared coordinate
error. Both variants answer a (Q, A) query matrix with the (Q, 2) array that
`evaluate` scores, and one query with a `Coordinate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NoReturn

import numpy as np

from .dataset import Coordinate, FingerprintDataset, coords_array, distances
from .errors import ConfigError, ParseError, RangeError, ShapeError, SizeError
from .nets import AdamOptimizer, Mlp, _one_blas_thread


@dataclass(frozen=True)
class LocalizerHyperparams:
    k: int = 5  # knn
    hidden: tuple[int, ...] = (64, 64)  # feedforward
    learning_rate: float = 1e-2
    epochs: int = 150
    batch_size: int = 32

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if not self.learning_rate > 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("learning_rate, epochs, batch_size must be positive")


# Queries per prefilter GEMM. A block's approximate distance matrix is
# _QUERY_BLOCK x N float32: 2.5 MB for the 9,600-row survey map. Every block
# runs on one BLAS thread, at every map size: on 2 vCPUs the survey map's
# evaluation took 224-242 ms with two OpenBLAS threads, against 70-89 ms on one.
_QUERY_BLOCK = 64
# Stored values per row block while the prefilter copy is built: the block's
# float64 temporary is 256 KB, whatever the map's size.
_BUILD_BLOCK_VALUES = 1 << 15
_UNIT_ROUNDOFF = np.finfo(np.float32).eps / 2
# The prefilter bound holds for rows up to 2**18 wide (width times float32's
# unit roundoff at most 1/64) and centred squared norms up to 2**100, which
# keep every float32 value of the GEMM far from overflow; outside that range
# the localizer raises RangeError.
_MAX_WIDTH = 1 << 18
_MAX_SQ_NORM = 2.0**100
# The feedforward localizer's parameter dtype in its fit, and so in its
# predictions. float32 fits the staged-cli map (2,400 x 100) in about 60% of
# float64's time (2 vCPUs, one BLAS thread).
_FIT_DTYPE = np.float32


def _query_matrix(queries, dim: int) -> np.ndarray:
    """`queries` as a finite (Q, dim) float64 matrix, or a typed error."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != dim:
        raise ShapeError(f"queries must have shape (Q, {dim}), got {q.shape}")
    if not np.isfinite(q).all():
        raise RangeError("queries must be finite")
    return q


class KnnLocalizer:
    """Inverse-distance kNN regression over stored rows; variant tag 'knn'.

    `rss` holds the (N, D) stored rows and `coords` an (N, V) value row for
    each; `predict_batch` averages the values of a query's k nearest rows. For
    the localizer they are the training fingerprints and their coordinates.

    The prefilter reads a float32 copy of the rows, half the size of `rss`:
    centred on their column mean and transposed to (D, N), built a row block
    at a time. Rows wider than 2**18 columns, or a stored row or query farther
    than 2**50 from that mean, raise a RangeError.
    """

    variant = "knn"

    def __init__(self, rss: np.ndarray, coords: np.ndarray, k: int):
        self.rss = rss
        self.coords = coords
        self.k = k
        n, dim = rss.shape
        if dim > _MAX_WIDTH:
            raise RangeError(f"stored rows have {dim} columns; the prefilter takes {_MAX_WIDTH}")
        self._ct = np.empty((dim, n), np.float32)
        norms = np.empty(n)  # of the centred float64 rows
        rows = max(1, _BUILD_BLOCK_VALUES // dim)
        block = np.empty((min(rows, n), dim))
        with np.errstate(over="ignore", invalid="ignore"):  # the norm check raises for these
            self._mean = rss.mean(axis=0)
            for lo in range(0, n, rows):
                b = np.subtract(rss[lo : lo + rows], self._mean, out=block[: min(rows, n - lo)])
                norms[lo : lo + rows] = np.einsum("ij,ij->i", b, b)
                np.copyto(self._ct[:, lo : lo + rows], b.T, casting="same_kind")
        self._max_norm = float(norms.max(initial=0.0))
        if not self._max_norm <= _MAX_SQ_NORM:
            raise RangeError("a stored row lies too far from the others for the kNN prefilter")
        self._norms = norms.astype(np.float32)

    def predict(self, rss: np.ndarray) -> Coordinate:
        rss = np.asarray(rss, dtype=np.float64)
        if rss.shape != (self.rss.shape[1],):
            raise ShapeError(f"query must have shape ({self.rss.shape[1]},), got {rss.shape}")
        return Coordinate(*self.predict_batch(rss[None, :])[0].tolist())

    @_one_blas_thread
    def predict_batch(self, queries) -> np.ndarray:
        """(Q, V) IDW blends of the values of each query's k nearest stored rows.

        Equal, bit for bit, to computing every exact distance
        `sqrt(sum((x - q)**2))` and a stable argsort per query.
        """
        q = _query_matrix(queries, self.rss.shape[1])
        out = np.empty((q.shape[0], self.coords.shape[1]))
        for lo in range(0, q.shape[0], _QUERY_BLOCK):
            self._predict_block(q[lo : lo + _QUERY_BLOCK], out[lo : lo + _QUERY_BLOCK])
        return out

    def _predict_block(self, qb: np.ndarray, out: np.ndarray) -> None:
        # Prefilter, in float32. Let m be the stored column mean, a = x - m and
        # b = q - m in real arithmetic, A = |a|^2 <= A_max, B = |b|^2, M = A + B,
        # c = fl32(fl(x - m)) and d = fl32(fl(q - m)) the float32 copies, D the
        # width and u, u64 the float32 and float64 unit roundoffs. The query is
        # cast as fl32(2 fl(m - q)), which is -2d up to underflow, so a row's
        # value is t = fl(fl(-2d.c) + fl32(fl|fl(x - m)|^2)), and t + |d|^2
        # ranks the rows as t does. Error bounds for sums and dot products
        # that hold in any summation order (and with FMA), as in any classical
        # BLAS product, give, to first order:
        # - the casts move |c - d|^2 off |a - b|^2 by at most
        #   2 |a - b| (u + u64)(|a| + |b|) <= 4 (u + u64) M;
        # - the GEMM errs by at most D u 2|c||d| <= D u M;
        # - the stored norm, summed in float64 and cast to float32, is within
        #   3 u A of |c|^2, and the addition errs by u (2|c||d| + A) <= 2 u M;
        # - e = fl(sum(fl(x - q)^2)), the exact formula's value, lies within
        #   (D + 2) u64 2M of |a - b|^2, below u M.
        # So |t + |d|^2 - e| <= (D + 10) u (A_max + B). Underflow (a float32
        # value that flushes or rounds into the subnormals errs by at most
        # 2^-126) adds at most (D + 5) 2^-124 (1 + M), and nothing overflows,
        # since D <= 2^18 and A_max, B <= 2^100 (else RangeError). delta
        # doubles (D + 11) u (A_max + B + 2^-96), with A_max and B summed in
        # float64, to cover all of that and the second-order terms.
        # Let T be a query's k-th smallest t + |d|^2. Its k rows with
        # t + |d|^2 <= T have e <= T + delta. sqrt merges e values within a
        # factor 1 + 5 u64, so every row of the exact stable top k (ties
        # included) has e <= (T + delta)(1 + 5 u64), hence t + |d|^2 <=
        # T + 2 delta + 5 u64 (T + delta), which is below T + 3 delta since
        # T <= 2(A_max + B) + delta and delta >= 22 u (A_max + B). Subtracting
        # |d|^2 gives the cut on t; rounding it to float32 loses no float32
        # value below it. Whatever bits BLAS returns, the candidates are a
        # superset of the exact top k, so the result does not depend on BLAS
        # or the block size.
        with np.errstate(over="ignore"):  # the norm check raises for these
            qd = np.subtract(self._mean, qb)
            qq = np.einsum("ij,ij->i", qd, qd)
            qd *= 2.0
            qd = qd.astype(np.float32)
        if not qq.max() <= _MAX_SQ_NORM:
            raise RangeError("a query lies too far from the stored rows for the kNN prefilter")
        approx = qd @ self._ct
        approx += self._norms
        # each row's k-th smallest, a row at a time: no (block, N) copy
        kth = np.array([np.partition(row, self.k - 1)[self.k - 1] for row in approx])
        delta = (2 * (qb.shape[1] + 11) * _UNIT_ROUNDOFF) * (self._max_norm + qq + 2.0**-96)
        cut = (kth + 3.0 * delta).astype(np.float32)
        for query, row, c, dst in zip(qb, approx, cut, out):
            # ascending indices, so the stable argsort breaks ties as a full scan does
            self._rerank(query, np.flatnonzero(row <= c), dst)

    def _rerank(self, query: np.ndarray, cand: np.ndarray, dst: np.ndarray) -> None:
        """Write into `dst` the IDW blend of the k rows among `cand`, ascending
        row indices, nearest to `query` by exact float64 distance."""
        diff = self.rss[cand] - query
        d = np.sqrt(np.sum(diff * diff, axis=1))
        order = np.argsort(d, kind="stable")[: self.k]
        dk = d[order]
        nearest = cand[order]
        if dk[0] == 0.0:
            dst[:] = self.coords[nearest[0]]
        else:
            w = 1.0 / dk
            dst[:] = (w[:, None] * self.coords[nearest]).sum(axis=0) / w.sum()


class FeedforwardLocalizer:
    """MLP regressor RSS -> (x, y); variant tag 'feedforward'.

    The network computes in its parameters' dtype, float32 as fitted: a query
    is cast to it, and the prediction comes back as float64. Every query runs
    in one reused 1-row workspace, so one model must not predict from two
    threads at once.
    """

    variant = "feedforward"

    def __init__(self, mlp: Mlp):
        self.mlp = mlp
        self._ws = mlp.workspace(1)

    def predict(self, rss: np.ndarray) -> Coordinate:
        rss = np.asarray(rss, dtype=np.float64)
        if rss.shape != (self.mlp.dims[0],):
            raise ShapeError(f"query must have shape ({self.mlp.dims[0]},), got {rss.shape}")
        xy, _ = self.mlp.forward_cached(rss[None, :], self._ws)
        return Coordinate(float(xy[0, 0]), float(xy[0, 1]))

    def predict_batch(self, queries) -> np.ndarray:
        # One forward per row: a multi-row BLAS product may give a row other bits.
        return coords_array(self.predict(row) for row in _query_matrix(queries, self.mlp.dims[0]))


LocalizationModel = KnnLocalizer | FeedforwardLocalizer


def fit_localizer(
    train: FingerprintDataset,
    variant: str = "knn",
    hyperparams: LocalizerHyperparams = LocalizerHyperparams(),
    seed: int = 0,
) -> LocalizationModel:
    if len(train) == 0:
        raise SizeError("training dataset is empty")
    if variant == "knn":
        if hyperparams.k > len(train):
            raise ConfigError(f"k={hyperparams.k} exceeds training size {len(train)}")
        return KnnLocalizer(train.rss, train.coords_matrix(), hyperparams.k)
    if variant == "feedforward":
        return _fit_feedforward(train, hyperparams, seed)
    raise ConfigError(f"unknown localizer variant {variant!r}")


def _fit_feedforward(train, hp: LocalizerHyperparams, seed) -> FeedforwardLocalizer:
    """Fit the `Mlp` by minibatch Adam, in `_FIT_DTYPE`.

    The map's rows and coordinates are cast to that dtype once; the network,
    the optimizer, the workspace and the batch buffers are made in it.
    """
    x = train.rss.astype(_FIT_DTYPE)
    y = train.coords_matrix().astype(_FIT_DTYPE)
    n, a = x.shape
    rng = np.random.default_rng(seed)
    mlp = Mlp.create((a, *hp.hidden, 2), rng, _FIT_DTYPE)
    opt = AdamOptimizer(mlp.theta.shape[0], hp.learning_rate, dtype=_FIT_DTYPE)
    # one workspace and pair of batch buffers for the whole fit; a smaller
    # last batch uses their leading rows
    rows = min(hp.batch_size, n)
    ws = mlp.workspace(rows)
    x_buf = np.empty((rows, a), _FIT_DTYPE)
    y_buf = np.empty((rows, 2), _FIT_DTYPE)
    # a diverging fit overflows; the finiteness check raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hp.epochs):
            perm = rng.permutation(n)
            for lo in range(0, n, hp.batch_size):
                j = perm[lo : lo + hp.batch_size]
                b = j.shape[0]
                xb = np.take(x, j, axis=0, out=x_buf[:b])
                out, cache = mlp.forward_cached(xb, ws)
                r = np.subtract(out, np.take(y, j, axis=0, out=y_buf[:b]), out=out)
                dout = np.multiply(2.0 / b, r, out=r)
                opt.step(mlp.theta, mlp.backward(cache, dout))
            if not np.isfinite(mlp.theta).all():
                raise RangeError(f"feedforward localizer training diverged in epoch {epoch + 1}")
    return FeedforwardLocalizer(mlp)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass(frozen=True)
class LocalizationReport:
    mean_error_m: float
    median_error_m: float
    error_cdf: tuple[tuple[float, float], ...]  # (error_m, cumulative fraction)
    per_sample_errors: tuple[float, ...] = field(repr=False)


def evaluate(model: LocalizationModel, test: FingerprintDataset) -> LocalizationReport:
    """Per-sample Euclidean error in meters with mean, median and empirical CDF."""
    if len(test) == 0:
        raise SizeError("test dataset is empty")
    arr = distances(model.predict_batch(test.rss), test.coords_matrix())
    values, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.shape[0]
    cdf = tuple((float(v), float(f)) for v, f in zip(values, fractions))
    return LocalizationReport(
        mean_error_m=float(arr.mean()),
        median_error_m=float(np.median(arr)),
        error_cdf=cdf,
        per_sample_errors=tuple(arr.tolist()),
    )


_REPORT_HEADER = "mean_error_m,median_error_m"
_CDF_HEADER = "error_m,cumulative_fraction"


def save_report(report: LocalizationReport, path) -> None:
    """Metrics file: summary header+row, then the CDF rows (plot-ready)."""
    lines = [
        _REPORT_HEADER,
        f"{report.mean_error_m!r},{report.median_error_m!r}",
        _CDF_HEADER,
    ]
    for e, f in report.error_cdf:
        lines.append(f"{e!r},{f!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_report(path) -> LocalizationReport:
    """Read a report written by `save_report`.

    What `save_report` cannot have written raises a ParseError naming its
    line: a wrong header, a row that is not two finite non-negative numbers,
    a cumulative fraction outside (0, 1], CDF errors or fractions that do not
    strictly increase, a last fraction other than 1.0, or no CDF row at all.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not valid UTF-8") from None
    # read_text has turned "\r\n" and "\r" into "\n"; the file ends with one
    lines = text.removesuffix("\n").split("\n") if text else []

    def fail(lineno: int, why: str) -> NoReturn:
        raise ParseError(f"{path}: line {lineno}: {why}")

    def header(lineno: int, want: str) -> None:
        got = lines[lineno - 1] if lineno <= len(lines) else None
        if got != want:
            fail(lineno, f"expected the header {want!r}, got {got!r}")

    def pair(lineno: int) -> tuple[float, float]:
        if lineno > len(lines):
            fail(lineno, "expected two numbers, got the end of the file")
        line = lines[lineno - 1]
        try:
            a, b = (float(v) for v in line.split(","))
        except ValueError:
            fail(lineno, f"expected two numbers, got {line!r}")
        if not (math.isfinite(a) and math.isfinite(b) and a >= 0.0 and b >= 0.0):
            fail(lineno, f"expected two finite non-negative numbers, got {line!r}")
        return a, b

    header(1, _REPORT_HEADER)
    mean, median = pair(2)
    header(3, _CDF_HEADER)
    cdf = []
    for lineno in range(4, max(len(lines), 4) + 1):  # line 4 even when missing
        e, f = pair(lineno)
        if not 0.0 < f <= 1.0:
            fail(lineno, f"cumulative fraction {f!r} is outside (0, 1]")
        if cdf and not (e > cdf[-1][0] and f > cdf[-1][1]):
            fail(lineno, "the CDF row does not increase on the row before")
        cdf.append((e, f))
    if cdf[-1][1] != 1.0:
        fail(len(lines), f"the CDF ends at {cdf[-1][1]!r}, not 1.0")
    return LocalizationReport(
        mean_error_m=mean,
        median_error_m=median,
        error_cdf=tuple(cdf),
        per_sample_errors=(),
    )
