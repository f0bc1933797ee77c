"""Downstream localization models used to score fingerprint-map quality.

The kNN variant is the deterministic workhorse: inverse-distance-weighted
average of the k nearest stored fingerprints in RSS space. The feedforward
variant regresses coordinates with a small MLP trained by Adam on squared
coordinate error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dataset import Coordinate, FingerprintDataset, coords_array, distances
from .errors import ConfigError, ParseError, RangeError, ShapeError, SizeError
from .nets import AdamOptimizer, Mlp


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
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("learning_rate, epochs, batch_size must be positive")


# Queries per prefilter GEMM. A block's approximate distance matrix is
# _QUERY_BLOCK x N float64: 4.9 MB for the 9,600-row survey map.
_QUERY_BLOCK = 64
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _query_matrix(queries, dim: int) -> np.ndarray:
    """`queries` as a finite (Q, dim) float64 matrix, or a typed error."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != dim:
        raise ShapeError(f"queries must have shape (Q, {dim}), got {q.shape}")
    if not np.isfinite(q).all():
        raise RangeError("queries must be finite")
    return q


class KnnLocalizer:
    """Stores the training fingerprints verbatim; variant tag 'knn'."""

    variant = "knn"

    def __init__(self, rss: np.ndarray, coords: np.ndarray, k: int):
        self.rss = rss
        self.coords = coords
        self.k = k
        self._sq_norms = np.einsum("ij,ij->i", rss, rss)  # no (N, A) temporary
        self._max_sq_norm = float(self._sq_norms.max(initial=0.0))

    def predict(self, rss: np.ndarray) -> Coordinate:
        rss = np.asarray(rss, dtype=np.float64)
        if rss.shape != (self.rss.shape[1],):
            raise ShapeError(f"query must have shape ({self.rss.shape[1]},), got {rss.shape}")
        return self.predict_batch(rss[None, :])[0]

    def predict_batch(self, queries) -> list[Coordinate]:
        """IDW blend of the k nearest stored rows for each row of a (Q, A) matrix.

        Equal, bit for bit, to computing every exact distance
        `sqrt(sum((x - q)**2))` and a stable argsort per query.
        """
        q = _query_matrix(queries, self.rss.shape[1])
        preds: list[Coordinate] = []
        for lo in range(0, q.shape[0], _QUERY_BLOCK):
            preds.extend(self._predict_block(q[lo : lo + _QUERY_BLOCK]))
        return preds

    def _predict_block(self, qb: np.ndarray) -> list[Coordinate]:
        # Prefilter. Let D = |x - q|^2 (real), e = fl(sum(fl(x - q)^2)) the
        # exact formula's value, s = |x|^2 - 2 q.x + |q|^2 from the GEMM, u the
        # unit roundoff and M = |x|^2 + |q|^2, so D <= 2M and |q.x| <= M/2.
        # Error bounds for sums and dot products that hold in any summation
        # order (and with FMA), as in any classical BLAS product, give, to
        # first order, |e - D| <= (A + 2) u D <= 2(A + 2) u M and
        # |s - D| <= A u M (norms) + A u M (2 q.x) + 4 u M (two additions),
        # so |s - e| <= 4(A + 2) u M. delta doubles that, with the largest
        # stored norm in M, to absorb second-order terms.
        # Let t be a query's k-th smallest s. Its k rows with s <= t have
        # e <= t + delta. sqrt merges e values within a factor 1 + 5u, so every
        # row of the exact stable top k (ties included) has
        # e <= (t + delta)(1 + 5u), hence s <= t + 2 delta + 5u(t + delta),
        # which is below t + 3 delta since t <= 2M + delta and delta >= 24 u M.
        # Whatever bits BLAS returns, the candidates are a superset of the
        # exact top k, so the result does not depend on BLAS or _QUERY_BLOCK.
        qq = np.sum(qb * qb, axis=1)
        approx = qb @ self.rss.T
        approx *= -2.0
        approx += self._sq_norms
        approx += qq[:, None]
        # each row's k-th smallest, a row at a time: no (block, N) copy
        kth = np.array([np.partition(row, self.k - 1)[self.k - 1] for row in approx])
        delta = (8 * (qb.shape[1] + 2) * _UNIT_ROUNDOFF) * (self._max_sq_norm + qq)
        cut = kth + 3.0 * delta
        preds = []
        for query, row, c in zip(qb, approx, cut):
            # ascending indices, so the stable argsort breaks ties as a full scan does
            cand = np.flatnonzero(row <= c)
            diff = self.rss[cand] - query
            d = np.sqrt(np.sum(diff * diff, axis=1))
            order = np.argsort(d, kind="stable")[: self.k]
            dk = d[order]
            nearest = cand[order]
            if dk[0] == 0.0:
                i = int(nearest[0])
                preds.append(Coordinate(float(self.coords[i, 0]), float(self.coords[i, 1])))
                continue
            w = 1.0 / dk
            xy = (w[:, None] * self.coords[nearest]).sum(axis=0) / w.sum()
            preds.append(Coordinate(float(xy[0]), float(xy[1])))
        return preds


class FeedforwardLocalizer:
    """MLP regressor RSS -> (x, y); variant tag 'feedforward'.

    Every query runs in one reused 1-row workspace, so one model must not
    predict from two threads at once.
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

    def predict_batch(self, queries) -> list[Coordinate]:
        # One forward per row: a multi-row BLAS product may give a row other bits.
        return [self.predict(row) for row in _query_matrix(queries, self.mlp.dims[0])]


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
    x = train.rss
    y = train.coords_matrix()
    n, a = x.shape
    rng = np.random.default_rng(seed)
    mlp = Mlp.create((a, *hp.hidden, 2), "silu", rng)
    opt = AdamOptimizer(mlp.theta.shape[0], hp.learning_rate)
    # one workspace and input buffer for the whole fit; a smaller last batch
    # uses their leading rows
    rows = min(hp.batch_size, n)
    ws = mlp.workspace(rows)
    x_buf = np.empty((rows, a))
    # a diverging fit overflows; the finiteness check raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(hp.epochs):
            perm = rng.permutation(n)
            for lo in range(0, n, hp.batch_size):
                j = perm[lo : lo + hp.batch_size]
                b = j.shape[0]
                xb = np.take(x, j, axis=0, out=x_buf[:b])
                out, cache = mlp.forward_cached(xb, ws)
                r = np.subtract(out, y[j], out=out)
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
    preds = model.predict_batch(test.rss)
    arr = distances(coords_array(preds), test.coords_matrix())
    values, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.shape[0]
    cdf = tuple((float(v), float(f)) for v, f in zip(values, fractions))
    return LocalizationReport(
        mean_error_m=float(arr.mean()),
        median_error_m=float(np.median(arr)),
        error_cdf=cdf,
        per_sample_errors=tuple(arr.tolist()),
    )


def save_report(report: LocalizationReport, path) -> None:
    """Metrics file: summary header+row, then the CDF rows (plot-ready)."""
    lines = [
        "mean_error_m,median_error_m",
        f"{report.mean_error_m!r},{report.median_error_m!r}",
        "error_m,cumulative_fraction",
    ]
    for e, f in report.error_cdf:
        lines.append(f"{e!r},{f!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_report(path) -> LocalizationReport:
    """Read a report written by `save_report`; a malformed row raises ParseError naming its line."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if len(lines) < 3 or lines[0] != "mean_error_m,median_error_m":
        raise ParseError(f"{path}: not a localization report")

    def pair(lineno: int) -> tuple[float, float]:
        line = lines[lineno - 1]
        try:
            a, b = (float(v) for v in line.split(","))
        except ValueError as e:
            raise ParseError(f"{path}: line {lineno}: expected two numbers, got {line!r}") from e
        return a, b

    mean, median = pair(2)
    return LocalizationReport(
        mean_error_m=mean,
        median_error_m=median,
        error_cdf=tuple(pair(i) for i in range(4, len(lines) + 1) if lines[i - 1].strip()),
        per_sample_errors=(),
    )
