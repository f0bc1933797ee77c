"""Independent reference implementations used to pin expected values.

The brute-force split oracles are deliberately written in plain Python (no
numpy) with a different code structure from the library. The numpy kernels
after them are the straightforward forms of the library's optimized kernels,
which must reproduce them bit for bit. `pair_batch` enumerates the exact
double sum that training estimates by importance sampling.
"""

import math

import numpy as np

from fpsynth.dataset import coords_array
from fpsynth.diffusion import LossBatch, embed_condition, embed_time_table
from fpsynth.localizer import KnnLocalizer


def brute_knn_densities(points, k):
    """points: list of (x, y) tuples -> mean distance to k nearest others."""
    out = []
    for p in points:
        ds = sorted(
            math.sqrt((p[0] - q[0]) * (p[0] - q[0]) + (p[1] - q[1]) * (p[1] - q[1]))
            for q in points
            if q != p
        )
        out.append(math.fsum(ds[:k]) / k)
    return out


def brute_density_split(points, n_unseen, k):
    """Greedy densest-first selection; returns (seen, unseen) as tuple lists."""
    remaining = list(points)
    unseen = []
    while len(unseen) < n_unseen:
        dens = brute_knn_densities(remaining, k)
        chosen = min(
            range(len(remaining)), key=lambda i: (dens[i], remaining[i][0], remaining[i][1])
        )
        unseen.append(remaining.pop(chosen))
    return remaining, unseen


def rerank_density_split(points, n_unseen, k):
    """The full re-rank form of the density split: every iteration recomputes
    every remaining location's density from the remaining distance submatrix.

    points: list of Coordinate; returns (seen, unseen) as Coordinate lists.
    """
    xy = np.array([[p.x, p.y] for p in points])
    dx = xy[:, 0][:, None] - xy[:, 0][None, :]
    dy = xy[:, 1][:, None] - xy[:, 1][None, :]
    dist = np.sqrt(dx * dx + dy * dy)
    remaining = list(range(len(points)))
    unseen_idx = []
    while len(unseen_idx) < n_unseen:
        sub = dist[np.ix_(remaining, remaining)]
        smallest = np.sort(np.partition(sub, k, axis=1)[:, : k + 1], axis=1)
        dens = [math.fsum(row[1:]) / k for row in smallest]
        moved = min(
            range(len(remaining)),
            key=lambda r: (dens[r], points[remaining[r]].x, points[remaining[r]].y),
        )
        unseen_idx.append(remaining.pop(moved))
    return [points[i] for i in remaining], [points[i] for i in unseen_idx]


def masked_sigmoid(x):
    """The logistic function in its tanh form, 0.5 * tanh(0.5 * x) + 0.5, out of place.

    The name is kept from the masked exp form it replaced; the library's
    in-place kernel must give these bits.
    """
    return 0.5 * np.tanh(0.5 * x) + 0.5


def silu(z):
    """SiLU and its saved sigmoid, out of place."""
    s = masked_sigmoid(z)
    return z * s, s


def silu_derivative(a, s):
    """d silu(z) / dz from the activation a = z * s and the sigmoid s."""
    return s + a * (1.0 - s)


def adam_step(theta, m, v, grad, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One out-of-place Adam update at step t (1-based); returns (theta, m, v).

    `m` and `v` are the scaled moments, Adam's m / (1 - beta1) and
    v / (1 - beta2). The bias corrections and the scales are folded into the
    step size and epsilon (Kingma & Ba, Section 2): equal to
    `lr * mhat / (sqrt(vhat) + eps)` in exact arithmetic.
    """
    m = beta1 * m + grad
    v = beta2 * v + grad * grad
    root_c2 = math.sqrt(1.0 - beta2**t)
    root_b2 = math.sqrt(1.0 - beta2)
    alpha = lr * root_c2 / (1.0 - beta1**t) * (1.0 - beta1) / root_b2
    return theta - alpha * m / (np.sqrt(v) + eps * root_c2 / root_b2), m, v


def skip_mlp_forward(views, x):
    """The explicit 4-layer skip-connected SiLU forward; returns (out, cache).

    `views` are the four (W, b) pairs.
    """
    (w1, b1), (w2, b2), (w3, b3), (w4, b4) = views
    z1 = x @ w1.T + b1
    a1, s1 = silu(z1)
    z2 = a1 @ w2.T + b2
    a2, s2 = silu(z2)
    z3 = a2 @ w3.T + b3 + a1
    a3, s3 = silu(z3)
    out = a3 @ w4.T + b4
    return out, (x, z1, s1, a1, z2, s2, a2, z3, s3, a3)


def skip_mlp_backward(views, cache, dout):
    """Per-layer (dW, db) of sum(dout * out) for `skip_mlp_forward`, in layer order."""
    x, z1, s1, a1, z2, s2, a2, z3, s3, a3 = cache
    (w1, _), (w2, _), (w3, _), (w4, _) = views
    dW4 = dout.T @ a3
    db4 = dout.sum(axis=0)
    da3 = dout @ w4
    dz3 = da3 * silu_derivative(a3, s3)
    dW3 = dz3.T @ a2
    db3 = dz3.sum(axis=0)
    da2 = dz3 @ w3
    dz2 = da2 * silu_derivative(a2, s2)
    dW2 = dz2.T @ a1
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ w2 + dz3  # skip path
    dz1 = da1 * silu_derivative(a1, s1)
    dW1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return [(dW1, db1), (dW2, db2), (dW3, db3), (dW4, db4)]


def reverse_diffuse(net, locs, schedule, n, seeds, detect_floor):
    """Ancestral sampling one location at a time, one `(n, A)` noise draw per
    step from each location's own generator; returns the `(U, n, A)` float64
    fingerprints.

    M_t is kept in the network's dtype, as in the library's input buffer:
    each float64 product of the posterior mean is rounded to it before the
    sum, and each step's float64 noise is added and the sum rounded back.
    """
    arch = net.arch
    a = arch.ap_count
    times = embed_time_table(schedule.T, arch.time_dim)
    finals = []
    for loc, seed in zip(locs, seeds):
        rng = np.random.default_rng(seed)
        cond = embed_condition(loc, arch.bounds, arch.cond_freqs)
        x = rng.standard_normal((n, a)).astype(net.theta.dtype)
        for t in range(schedule.T, 0, -1):
            inp = np.concatenate([x, np.tile(cond, (n, 1)), np.tile(times[t - 1], (n, 1))], axis=1)
            x0 = np.clip(net.forward(inp.astype(net.theta.dtype)), 0.0, 1.0)
            ab_t = schedule.alpha_bars[t - 1]
            ab_prev = schedule.alpha_bars[t - 2] if t > 1 else 1.0
            beta = schedule.betas[t - 1]
            c0 = math.sqrt(ab_prev) * beta / (1.0 - ab_t)
            ct = math.sqrt(schedule.alphas[t - 1]) * (1.0 - ab_prev) / (1.0 - ab_t)
            x = (x0 * c0).astype(x.dtype) + (x * ct).astype(x.dtype)
            if t > 1:
                var = (1.0 - ab_prev) / (1.0 - ab_t) * beta
                x = (x + rng.standard_normal((n, a)) * math.sqrt(var)).astype(x.dtype)
        final = x.astype(np.float64)
        finals.append(np.where(final < detect_floor, 0.0, np.clip(final, detect_floor, 1.0)))
    return np.stack(finals)


def knn_predict(stored, coords, k, query):
    """One kNN query with every exact distance and a full stable argsort; returns (x, y)."""
    diff = stored - query
    d = np.sqrt(np.sum(diff * diff, axis=1))
    order = np.argsort(d, kind="stable")[:k]
    dk = d[order]
    if dk[0] == 0.0:
        i = int(order[0])
        return float(coords[i, 0]), float(coords[i, 1])
    w = 1.0 / dk
    xy = (w[:, None] * coords[order]).sum(axis=0) / w.sum()
    return float(xy[0]), float(xy[1])


def spatial_interpolate(seen_data, target, k):
    """The IDW blend of the k nearest location means, the means summed per sample."""
    locs = seen_data.locations
    sums = np.zeros((len(locs), seen_data.ap_count))
    counts = np.zeros(len(locs))
    for row, i in zip(seen_data.rss, seen_data.loc_index.tolist()):
        sums[i] += row
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
    return np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))


def interpolate_add_at(seen_data, targets, k):
    """`interpolate_locations` with the location sums taken by `np.add.at`,
    which adds unbuffered, in sample order."""
    locs = seen_data.locations
    sums = np.zeros((len(locs), seen_data.ap_count))
    np.add.at(sums, seen_data.loc_index, seen_data.rss)
    counts = np.bincount(seen_data.loc_index, minlength=len(locs)).astype(np.float64)
    means = sums / counts[:, None]
    order = sorted(range(len(locs)), key=lambda i: (locs[i].x, locs[i].y))
    xy = seen_data.location_coords()[order]
    blended = KnnLocalizer(xy, means[order], k).predict_batch(coords_array(targets))
    floor = seen_data.norm_params.detect_floor
    return np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))


def load_lines(path, params):
    """The per-line wide-format loader with per-sample objects.

    Returns (rss, sample_locations, locations, collectors): the (N, A)
    normalized matrix, each row's own Coordinate, the distinct coordinates in
    first-appearance order (the first of equal ones kept) and the collector
    ids. Raises ParseError or RangeError naming the first bad line.
    """
    from pathlib import Path

    from fpsynth.dataset import Coordinate
    from fpsynth.errors import ParseError, RangeError

    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
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
    n_fields = len(header)
    f = params.detect_floor
    rows, sample_locations, collectors = [], [], []
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
        bad = ~(
            (raw == params.sentinel_raw) | ((raw >= params.rss_min) & (raw <= params.rss_max))
        )
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
        v = f + (raw - params.rss_min) / (params.rss_max - params.rss_min) * (1.0 - f)
        rows.append(np.where(raw != params.sentinel_raw, np.clip(v, f, 1.0), 0.0))
        sample_locations.append(Coordinate(x, y))
        collectors.append(collector)
    distinct = {}
    for c in sample_locations:
        distinct.setdefault(c, None)
    rss = np.array(rows).reshape(-1, ap_count)
    return rss, sample_locations, tuple(distinct), collectors


def save_lines(ds, path):
    """The wide-format writer in one pass: every value decoded by the formula at
    once, then one line per sample with each float at full `repr` precision."""
    params, f = ds.norm_params, ds.norm_params.detect_floor
    v = ds.rss
    raw = params.rss_min + (v - f) / (1.0 - f) * (params.rss_max - params.rss_min)
    raw = np.where(v >= f, np.clip(raw, params.rss_min, params.rss_max), params.sentinel_raw)
    has_collector = any(c is not None for c in ds.collector_ids)
    width = max(3, len(str(ds.ap_count)))
    header = [f"AP{i + 1:0{width}d}" for i in range(ds.ap_count)] + ["X", "Y"]
    lines = [",".join(header + (["COLLECTOR"] if has_collector else []))]
    for row, j, collector in zip(raw.tolist(), ds.loc_index.tolist(), ds.collector_ids):
        c = ds.locations[j]
        fields = [repr(x) for x in row] + [repr(c.x), repr(c.y)]
        if has_collector:
            fields.append("" if collector is None else str(collector))
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def augment_replicas(rss, seed, replicas, sigma, threshold, detect_floor):
    """Per-source, per-replica noise and dropout: one (A,) draw per replica from
    each source row's own `default_rng(child)`; returns the (N * replicas, A) block."""
    out = []
    children = np.random.SeedSequence(seed).spawn(rss.shape[0])
    for row, child in zip(rss, children):
        rng = np.random.default_rng(child)
        for _ in range(replicas):
            noisy = np.clip(row + rng.standard_normal(row.shape) * sigma, detect_floor, 1.0)
            noisy = np.where(row > 0.0, noisy, 0.0)
            out.append(np.where((noisy > 0.0) & (noisy < threshold), 0.0, noisy))
    return np.array(out).reshape(-1, rss.shape[1])


def pair_batch(
    seen_m0: np.ndarray,
    seen_locs: np.ndarray,
    unseen_locs: np.ndarray,
    t: np.ndarray,
    eps: np.ndarray,
) -> LossBatch:
    """Materialize every (unseen, seen) pair of the exact double sum as one batch.

    `t` and `eps` are per seen sample and are repeated across conditions, so
    the pair (i, j) reuses sample j's noise draw.
    """
    seen_m0 = np.asarray(seen_m0, dtype=np.float64)
    seen_locs = np.asarray(seen_locs, dtype=np.float64)
    unseen_locs = np.asarray(unseen_locs, dtype=np.float64).reshape(-1, 2)
    n, u = seen_m0.shape[0], unseen_locs.shape[0]
    return LossBatch(
        m0=np.tile(seen_m0, (u, 1)),
        seen_locs=np.tile(seen_locs, (u, 1)),
        cond_locs=np.repeat(unseen_locs, n, axis=0),
        t=np.tile(np.asarray(t, dtype=np.int64), u),
        eps=np.tile(np.asarray(eps, dtype=np.float64), (u, 1)),
    )
