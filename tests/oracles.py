"""Independent reference implementations used to pin expected values.

The brute-force split oracles are deliberately written in plain Python (no
numpy) with a different code structure from the library. The numpy kernels
at the end are the straightforward forms of the library's optimized kernels,
which must reproduce them bit for bit.
"""

import math

import numpy as np


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


def brute_density_split(points, n_unseen, k, batch=1):
    """Greedy densest-first selection; returns (seen, unseen) as tuple lists."""
    remaining = list(points)
    unseen = []
    while len(unseen) < n_unseen:
        take = min(batch, n_unseen - len(unseen))
        dens = brute_knn_densities(remaining, k)
        ranked = sorted(
            range(len(remaining)), key=lambda i: (dens[i], remaining[i][0], remaining[i][1])
        )
        chosen = [remaining[i] for i in ranked[:take]]
        unseen.extend(chosen)
        chosen_set = set(chosen)
        remaining = [p for p in remaining if p not in chosen_set]
    return remaining, unseen


def masked_sigmoid(x):
    """Logistic function evaluated separately on the x >= 0 and x < 0 entries."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def adam_step(theta, m, v, grad, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """One out-of-place Adam update at step t (1-based); returns (theta, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    mhat = m / (1.0 - beta1**t)
    vhat = v / (1.0 - beta2**t)
    return theta - lr * mhat / (np.sqrt(vhat) + eps), m, v


def skip_mlp_forward(views, act, x):
    """The explicit 4-layer skip-connected forward; returns (out, cache).

    `views` are the four (W, b) pairs, `act` an activation's forward
    function returning (a, saved).
    """
    (w1, b1), (w2, b2), (w3, b3), (w4, b4) = views
    z1 = x @ w1.T + b1
    a1, s1 = act(z1)
    z2 = a1 @ w2.T + b2
    a2, s2 = act(z2)
    z3 = a2 @ w3.T + b3 + a1
    a3, s3 = act(z3)
    out = a3 @ w4.T + b4
    return out, (x, z1, s1, a1, z2, s2, a2, z3, s3, a3)


def skip_mlp_backward(views, dact, cache, dout):
    """Per-layer (dW, db) of sum(dout * out) for `skip_mlp_forward`, in layer order."""
    x, z1, s1, a1, z2, s2, a2, z3, s3, a3 = cache
    (w1, _), (w2, _), (w3, _), (w4, _) = views
    dW4 = dout.T @ a3
    db4 = dout.sum(axis=0)
    da3 = dout @ w4
    dz3 = da3 * dact(z3, s3)
    dW3 = dz3.T @ a2
    db3 = dz3.sum(axis=0)
    da2 = dz3 @ w3
    dz2 = da2 * dact(z2, s2)
    dW2 = dz2.T @ a1
    db2 = dz2.sum(axis=0)
    da1 = dz2 @ w2 + dz3  # skip path
    dz1 = da1 * dact(z1, s1)
    dW1 = dz1.T @ x
    db1 = dz1.sum(axis=0)
    return [(dW1, db1), (dW2, db2), (dW3, db3), (dW4, db4)]


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
    return np.where(blended < floor, 0.0, np.clip(blended, floor, 1.0))
