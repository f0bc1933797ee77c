"""Location-conditioned denoising diffusion over RSS fingerprints.

The forward process corrupts a clean fingerprint M0 with Gaussian noise along
a linear variance schedule; a skip-connected MLP is trained to predict M0 from
(timestep, location condition, noisy fingerprint). Training minimizes a
vicinity-weighted squared error: every (unseen condition, seen sample) pair is
weighted by a distance kernel w(unseen, seen), so the model concentrates on
reconstructing the signal distribution around the locations it will later be
asked to generate.

The double sum over pairs is estimated by importance sampling: for each seen
sample in a minibatch one unseen condition is drawn with probability
proportional to its kernel weight, and the pair's loss term is scaled by the
sample's total kernel mass, keeping the estimator's expectation proportional
to the full sum. A pair's weight depends on the seen sample only through its
location, so the masses and the condition distributions are tabulated once
per seen location and each step reads its samples' rows. `spatial_loss`
scores any explicit batch of pairs, so the tests check it against an exact
enumeration of every pair.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Coordinate, Fingerprint, FingerprintDataset, NormalizationParams, distances
from .errors import (
    ConfigError,
    ConsistencyError,
    CoverageError,
    RangeError,
    ShapeError,
    SizeError,
)
from .initializer import LocationSplit
from .nets import AdamOptimizer, DenoiserArch, DenoiserNetwork


# ---------------------------------------------------------------------------
# Noise schedule and forward process


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear beta schedule with cached alpha products (all length T)."""

    T: int
    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray


def build_schedule(T: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    if T < 1:
        raise ConfigError(f"T must be >= 1, got {T}")
    if not 0.0 < beta_start <= beta_end < 1.0:
        raise ConfigError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})"
        )
    if T == 1:
        betas = np.array([beta_start])
    else:
        betas = np.linspace(beta_start, beta_end, T)
    alphas = 1.0 - betas
    alpha_bars = np.cumprod(alphas)
    for arr in (betas, alphas, alpha_bars):
        arr.setflags(write=False)
    return NoiseSchedule(T=T, betas=betas, alphas=alphas, alpha_bars=alpha_bars)


def _check_step(t: int, T: int) -> None:
    if not 1 <= t <= T:
        raise RangeError(f"step index t={t} outside [1, {T}]")


def _forward_marginal(m0, eps, ab, out=None) -> np.ndarray:
    """sqrt(ab)*M0 + sqrt(1-ab)*eps into `out`; `eps` is scaled in place."""
    out = np.multiply(np.sqrt(ab), m0, out=out)
    np.multiply(np.sqrt(1.0 - ab), eps, out=eps)
    out += eps
    return out


def forward_diffuse(m0: np.ndarray, t: int, eps: np.ndarray, schedule: NoiseSchedule) -> np.ndarray:
    """Closed-form marginal of the forward process: sqrt(ab_t)*M0 + sqrt(1-ab_t)*eps."""
    _check_step(t, schedule.T)
    m0 = np.asarray(m0, dtype=np.float64)
    eps = np.array(eps, dtype=np.float64)  # a copy: scaled in place
    if m0.shape != eps.shape:
        raise ShapeError(f"m0 {m0.shape} and eps {eps.shape} must match")
    return _forward_marginal(m0, eps, schedule.alpha_bars[t - 1])


# ---------------------------------------------------------------------------
# Vicinity kernel


@dataclass(frozen=True)
class VicinityKernel:
    """Distance-decaying weight coupling an unseen condition to a seen sample.

    gaussian: w(d) = exp(-d^2 / (2 sigma_w^2)); hard: w(d) = 1 if d <= sigma_w else 0.
    """

    sigma_w: float
    form: str = "gaussian"

    def __post_init__(self):
        if self.sigma_w <= 0:
            raise ConfigError(f"sigma_w must be > 0, got {self.sigma_w}")
        if self.form not in ("gaussian", "hard"):
            raise ConfigError(f"kernel form must be 'gaussian' or 'hard', got {self.form!r}")

    def weight(self, d):
        d = np.asarray(d, dtype=np.float64)
        if self.form == "gaussian":
            return np.exp(-(d * d) / (2.0 * self.sigma_w * self.sigma_w))
        return np.where(d <= self.sigma_w, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Condition and time embeddings


def _check_bounds(bounds) -> tuple[float, float, float, float]:
    xmin, ymin, xmax, ymax = (float(b) for b in bounds)
    if not (xmax > xmin and ymax > ymin):
        raise ConfigError(f"degenerate bounds {bounds}: both extents must be positive")
    return xmin, ymin, xmax, ymax


def embed_condition_batch(locs: np.ndarray, bounds, n_freqs: int) -> np.ndarray:
    xmin, ymin, xmax, ymax = _check_bounds(bounds)
    locs = np.asarray(locs, dtype=np.float64).reshape(-1, 2)
    u = (locs[:, 0] - xmin) / (xmax - xmin)
    v = (locs[:, 1] - ymin) / (ymax - ymin)
    feats = [u, v]
    for k in range(n_freqs):
        w = (2.0**k) * math.pi
        feats.extend([np.sin(w * u), np.cos(w * u), np.sin(w * v), np.cos(w * v)])
    return np.stack(feats, axis=1)


def embed_condition(loc: Coordinate, bounds, n_freqs: int = 4) -> np.ndarray:
    """Min-max scale the coordinate by `bounds`, then apply a sinusoidal
    feature map of length 2 + 4*n_freqs. The raw scaled pair is included, so
    distinct locations always get distinct embeddings."""
    return embed_condition_batch(np.array([[loc.x, loc.y]]), bounds, n_freqs)[0]


def embed_time_table(T: int, dim: int) -> np.ndarray:
    """Sinusoidal encodings of t/T for t = 1..T, rows indexed by t-1.

    Half the channels are sines, half cosines, with frequencies geometric from
    1 to 1e4. The slowest sine is strictly increasing on (0, 1], so distinct
    steps always get distinct encodings; all entries lie in [-1, 1].
    """
    if dim < 4 or dim % 2:
        raise ConfigError(f"time embedding dim must be even and >= 4, got {dim}")
    half = dim // 2
    freqs = np.exp(np.linspace(0.0, math.log(1e4), half))
    x = np.arange(1, T + 1, dtype=np.float64)[:, None] / T
    ang = x * freqs[None, :]
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


# ---------------------------------------------------------------------------
# The vicinity-weighted loss


def _assemble_input(x, m0, t_arr, eps, cond, time_table, schedule) -> np.ndarray:
    """Write each row's denoiser input [M_t | condition | time row] into `x`.

    M_t is the forward process's marginal at the row's step, computed by the
    same kernel as `forward_diffuse`; `eps` is scaled in place.
    """
    a, c = m0.shape[1], m0.shape[1] + cond.shape[1]
    _forward_marginal(m0, eps, schedule.alpha_bars[t_arr - 1][:, None], out=x[:, :a])
    x[:, a:c] = cond
    x[:, c:] = time_table[t_arr - 1]
    return x


@dataclass(frozen=True)
class LossBatch:
    """One (seen sample, unseen condition, timestep, noise draw) per row."""

    m0: np.ndarray  # (B, A) clean seen fingerprints
    seen_locs: np.ndarray  # (B, 2)
    cond_locs: np.ndarray  # (B, 2) unseen conditioning coordinates
    t: np.ndarray  # (B,) int steps in [1, T]
    eps: np.ndarray  # (B, A) standard normal draws

    def __post_init__(self):
        m0 = np.asarray(self.m0, dtype=np.float64)
        if m0.ndim != 2 or m0.shape[0] == 0:
            raise SizeError("batch must be a nonempty (B, A) array")
        b = m0.shape[0]
        for name, arr, shape in (
            ("seen_locs", self.seen_locs, (b, 2)),
            ("cond_locs", self.cond_locs, (b, 2)),
            ("t", self.t, (b,)),
            ("eps", self.eps, m0.shape),
        ):
            if np.asarray(arr).shape != shape:
                raise ShapeError(f"{name} must have shape {shape}, got {np.asarray(arr).shape}")


def _loss_terms(net, batch, kernel, schedule):
    t_arr = np.asarray(batch.t, dtype=np.int64)
    if t_arr.min() < 1 or t_arr.max() > schedule.T:
        raise RangeError(f"batch steps outside [1, {schedule.T}]")
    d = distances(batch.cond_locs, batch.seen_locs)
    m0 = np.asarray(batch.m0)
    cond = embed_condition_batch(batch.cond_locs, net.arch.bounds, net.arch.cond_freqs)
    time_table = embed_time_table(schedule.T, net.arch.time_dim)
    x = np.empty((m0.shape[0], m0.shape[1] + cond.shape[1] + time_table.shape[1]))
    eps = np.array(batch.eps, dtype=np.float64)  # a copy: scaled in place
    _assemble_input(x, m0, t_arr, eps, cond, time_table, schedule)
    return x, kernel.weight(d)


def _weighted_sq_error(w: np.ndarray, r: np.ndarray, sq=None) -> float:
    sq = np.multiply(r, r, out=sq)
    return float(np.mean(w * np.sum(sq, axis=1)))


def _weighted_loss_and_grad(
    net: DenoiserNetwork, x: np.ndarray, m0: np.ndarray, w: np.ndarray, ws=None, scratch=None
):
    """mean_b(w_b * ||net(x_b) - m0_b||^2) and its gradient w.r.t. net.theta.

    The one loss that training minimizes (with the importance weights) and
    that `spatial_loss_and_grad` exposes (with the kernel weights). A loop
    passes its workspace `ws` and a `scratch` array shaped like `m0` so that
    nothing is allocated; the residual overwrites the network output.
    """
    out, cache = net.forward_cached(x, ws)
    r = np.subtract(out, m0, out=out)
    loss = _weighted_sq_error(w, r, scratch)
    dout = np.multiply((2.0 / r.shape[0]) * w[:, None], r, out=scratch)
    return loss, net.backward(cache, dout)


def spatial_loss(net, batch: LossBatch, kernel: VicinityKernel, schedule: NoiseSchedule) -> float:
    """Mean over the batch of w(unseen, seen) * ||predicted M0 - M0||^2."""
    x, w = _loss_terms(net, batch, kernel, schedule)
    return _weighted_sq_error(w, net.forward(x) - batch.m0)


def spatial_loss_and_grad(net, batch: LossBatch, kernel: VicinityKernel, schedule: NoiseSchedule):
    """Loss plus its analytic gradient w.r.t. the flat parameter vector."""
    x, w = _loss_terms(net, batch, kernel, schedule)
    return _weighted_loss_and_grad(net, x, batch.m0, w)


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class DiffusionTrainConfig:
    T: int = 200
    beta_start: float = 1e-4
    beta_end: float = 0.02
    learning_rate: float = 2e-3
    lr_decay: float = 0.98  # per-epoch multiplier
    batch_size: int = 64
    epochs: int = 80
    sigma_w: float | None = None  # None = AUTO_SIGMA_FACTOR * median seen NN distance
    kernel: str = "gaussian"
    seed: int = 0
    hidden: tuple[int, int, int] = (128, 64, 128)
    activation: str = "silu"
    cond_freqs: int = 4
    time_dim: int = 16

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must be in (0, 1], got {self.lr_decay}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.sigma_w is not None and self.sigma_w <= 0:
            raise ConfigError(f"sigma_w must be > 0, got {self.sigma_w}")


@dataclass
class TrainResult:
    network: DenoiserNetwork
    trace: list[tuple[int, float]]  # (step, minibatch loss)
    schedule: NoiseSchedule
    sigma_w: float


# Auto vicinity bandwidth: a fraction of the median seen nearest-neighbor
# distance. The full median over-smooths the conditional mixture (each unseen
# location couples to a wide ring of seen samples), which measurably biases
# the generated fingerprints on grid-like surveys.
AUTO_SIGMA_FACTOR = 0.6


# Rows per block of the distances in `median_nn_distance`.
_NN_BLOCK = 256


def median_nn_distance(coords: np.ndarray) -> float:
    coords = np.asarray(coords, dtype=np.float64).reshape(-1, 2)
    if coords.shape[0] < 2:
        raise ConfigError("need at least two locations for a nearest-neighbor distance")
    nearest = np.empty(len(coords))
    for start in range(0, len(coords), _NN_BLOCK):
        d = distances(coords[start : start + _NN_BLOCK, None], coords[None])
        own = np.arange(len(d))
        d[own, start + own] = np.inf
        nearest[start : start + len(d)] = d.min(axis=1)
    return float(np.median(nearest))


def _training_bounds(split: LocationSplit) -> tuple[float, float, float, float]:
    xy = np.vstack([split.seen_coords(), split.unseen_coords()])
    xmin, ymin = xy.min(axis=0)
    xmax, ymax = xy.max(axis=0)
    # Pad zero-extent axes so the embedding stays well defined.
    if xmax == xmin:
        xmin, xmax = xmin - 0.5, xmax + 0.5
    if ymax == ymin:
        ymin, ymax = ymin - 0.5, ymax + 0.5
    return float(xmin), float(ymin), float(xmax), float(ymax)


def _condition_cdf(
    location_xy: np.ndarray, unseen_xy: np.ndarray, kernel: VicinityKernel
) -> tuple[np.ndarray, np.ndarray]:
    """Each location's total kernel mass over the unseen locations, and its
    cumulative distribution over them (weights over mass; zero-mass rows stay 0).

    The weights depend on a sample only through its location, so a sample's
    row is its location's row: one `(L, U)` table serves every sample.
    """
    wmat = kernel.weight(distances(location_xy[:, None], unseen_xy[None]))
    mass = wmat.sum(axis=1)
    safe_mass = np.where(mass > 0.0, mass, 1.0)
    return mass, np.cumsum(wmat / safe_mass[:, None], axis=1)


def train(data: FingerprintDataset, split: LocationSplit, cfg: DiffusionTrainConfig) -> TrainResult:
    """Fit the conditional denoiser on seen-location samples.

    Per step: draw a minibatch of seen samples; per sample draw a uniform
    timestep, a noise vector, and one unseen condition with probability
    proportional to its vicinity weight; minimize the corrected weighted
    squared error. Deterministic given cfg.seed. A minibatch loss that is
    not finite raises RangeError naming the step.
    """
    if len(data) == 0:
        raise SizeError("training data is empty")
    if not split.unseen:
        raise SizeError("split.unseen is empty: nothing to condition generation on")
    outside = np.flatnonzero(~data.located_in(split.seen))
    if outside.size:
        location = data.locations[data.loc_index[outside[0]]]
        raise ConsistencyError(f"training sample at {location} is not at a seen location")

    schedule = build_schedule(cfg.T, cfg.beta_start, cfg.beta_end)
    m0 = data.rss
    unseen_xy = split.unseen_coords()
    n, a = m0.shape
    u = unseen_xy.shape[0]

    if cfg.sigma_w is not None:
        sigma_w = cfg.sigma_w
    else:
        sigma_w = AUTO_SIGMA_FACTOR * median_nn_distance(split.seen_coords())
    kernel = VicinityKernel(sigma_w, cfg.kernel)

    # rows indexed by location; a location no sample uses cannot supervise
    mass, cdf = _condition_cdf(data.location_coords(), unseen_xy, kernel)
    if not np.any(mass[data.loc_index] > 0.0):
        raise CoverageError(
            "no unseen location lies within kernel support of any seen sample; "
            "the split cannot supervise generation"
        )

    bounds = _training_bounds(split)
    arch = DenoiserArch(
        ap_count=a,
        cond_freqs=cfg.cond_freqs,
        time_dim=cfg.time_dim,
        hidden=cfg.hidden,
        activation=cfg.activation,
        bounds=bounds,
    )
    rng = np.random.default_rng(cfg.seed)
    net = DenoiserNetwork.create(arch, rng)
    opt = AdamOptimizer(arch.param_count, cfg.learning_rate)

    cond_table = embed_condition_batch(unseen_xy, bounds, cfg.cond_freqs)
    time_table = embed_time_table(schedule.T, cfg.time_dim)
    # One set of step buffers for the whole run; a smaller last batch uses
    # their leading rows.
    rows = min(cfg.batch_size, n)
    ws = net.workspace(rows)
    x_buf = np.empty((rows, arch.input_dim))
    m0_buf, eps_buf, sq_buf = (np.empty((rows, a)) for _ in range(3))
    cdf_buf = np.empty((rows, u))
    below_buf = np.empty((rows, u), dtype=bool)
    idx_buf = np.empty(rows, dtype=np.int64)
    loc_buf = np.empty(rows, dtype=data.loc_index.dtype)
    draws_buf = np.empty(rows)
    trace: list[tuple[int, float]] = []
    step = 0
    # a diverging run overflows; the finiteness check raises for it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            perm = rng.permutation(n)
            for lo in range(0, n, cfg.batch_size):
                j = perm[lo : lo + cfg.batch_size]
                b = j.shape[0]
                t_arr = rng.integers(1, schedule.T + 1, size=b)
                eps = rng.standard_normal(out=eps_buf[:b])
                draws = rng.random(out=draws_buf[:b])
                # the sampled condition: how many cdf entries lie below the draw
                loc_j = np.take(data.loc_index, j, out=loc_buf[:b])
                cdf_j = np.take(cdf, loc_j, axis=0, out=cdf_buf[:b])
                below = np.less(cdf_j, draws[:, None], out=below_buf[:b])
                i_idx = np.minimum(np.sum(below, axis=1, out=idx_buf[:b]), u - 1, out=idx_buf[:b])
                m0_j = np.take(m0, j, axis=0, out=m0_buf[:b])
                cond = cond_table[i_idx]
                x = _assemble_input(x_buf[:b], m0_j, t_arr, eps, cond, time_table, schedule)
                loss, grad = _weighted_loss_and_grad(net, x, m0_j, mass[loc_j], ws, sq_buf[:b])
                step += 1
                if not math.isfinite(loss):
                    raise RangeError(
                        f"training diverged: minibatch loss is {loss} "
                        f"at step {step} (epoch {epoch + 1})"
                    )
                opt.step(net.theta, grad)
                trace.append((step, loss))
            opt.lr *= cfg.lr_decay
    return TrainResult(network=net, trace=trace, schedule=schedule, sigma_w=sigma_w)


# ---------------------------------------------------------------------------
# Ancestral sampling


def _reverse_diffuse(
    net: DenoiserNetwork,
    locs,
    schedule: NoiseSchedule,
    n: int,
    seeds,
    detect_floor: float,
) -> np.ndarray:
    """Reverse diffusion for all of `locs` at once; returns `(U, n, A)` fingerprints.

    Location u draws its start noise and every step's noise from its own
    `default_rng(seeds[u])`, in the order a one-location run draws them. Each
    step runs one denoiser call on a stacked `(U, n, input_dim)` input, which
    computes one `n`-row product per location (see
    `DenoiserNetwork.forward_cached`). Together these make location u's
    output independent of which other locations share the batch.

    Each step clamps the predicted clean vector to [0, 1] and moves to the
    standard posterior mean given (M_t, M0_hat), adding posterior-variance
    noise except at t=1. Final vectors snap entries below detect_floor to 0
    and clamp the rest to [detect_floor, 1].
    """
    if n < 1:
        raise SizeError(f"n must be >= 1, got {n}")
    arch = net.arch
    a, c = arch.ap_count, arch.ap_count + arch.cond_dim
    rngs = [np.random.default_rng(s) for s in seeds]
    inp = np.empty((len(rngs), n, arch.input_dim))
    noise = np.empty((len(rngs), n, a))
    x = inp[:, :, :a]  # the current M_t lives in the input buffer
    for u, (loc, rng) in enumerate(zip(locs, rngs)):
        rng.standard_normal((n, a), out=noise[u])
        inp[u, :, a:c] = embed_condition(loc, arch.bounds, arch.cond_freqs)
    x[...] = noise
    time_table = embed_time_table(schedule.T, arch.time_dim)
    ws = net.workspace(inp.shape[:-1])
    for t in range(schedule.T, 0, -1):
        inp[:, :, c:] = time_table[t - 1]
        x0, _ = net.forward_cached(inp, ws)
        np.clip(x0, 0.0, 1.0, out=x0)
        ab_t = schedule.alpha_bars[t - 1]
        ab_prev = schedule.alpha_bars[t - 2] if t > 1 else 1.0
        beta = schedule.betas[t - 1]
        alpha = schedule.alphas[t - 1]
        c0 = math.sqrt(ab_prev) * beta / (1.0 - ab_t)
        ct = math.sqrt(alpha) * (1.0 - ab_prev) / (1.0 - ab_t)
        x0 *= c0
        x *= ct
        x += x0  # posterior mean c0 * x0 + ct * x
        if t > 1:
            var = (1.0 - ab_prev) / (1.0 - ab_t) * beta
            for u, rng in enumerate(rngs):
                rng.standard_normal((n, a), out=noise[u])
            noise *= math.sqrt(var)
            x += noise
    return np.where(x < detect_floor, 0.0, np.clip(x, detect_floor, 1.0))


def sample(
    net: DenoiserNetwork,
    unseen: Coordinate,
    schedule: NoiseSchedule,
    n: int,
    seed,
    detect_floor: float = 0.1,
) -> list[Fingerprint]:
    """Generate n fingerprints at `unseen` by reverse diffusion from pure noise."""
    final = _reverse_diffuse(net, [unseen], schedule, n, [seed], detect_floor)[0]
    return [Fingerprint(row, unseen) for row in final]


def generate_unseen_map(
    net: DenoiserNetwork,
    split: LocationSplit,
    schedule: NoiseSchedule,
    samples_per_unseen: int,
    seed,
    norm_params: NormalizationParams = NormalizationParams(),
) -> FingerprintDataset:
    """Sample every unseen location with per-location derived seeds.

    Location u's fingerprints equal `sample(net, loc_u, schedule, n, child_u)`
    with `child_u` the u-th of `SeedSequence(seed).spawn(U)`.
    """
    if not split.unseen:
        raise SizeError("split has no unseen locations to generate")
    children = np.random.SeedSequence(seed).spawn(len(split.unseen))
    final = _reverse_diffuse(
        net, split.unseen, schedule, samples_per_unseen, children, norm_params.detect_floor
    )
    index = np.repeat(np.arange(len(split.unseen)), samples_per_unseen)
    return FingerprintDataset(
        final.reshape(index.shape[0], -1), index, tuple(split.unseen), norm_params
    )


# ---------------------------------------------------------------------------
# Checkpoint and loss-trace files

_CKPT_MAGIC = b"FPSYNTH-CKPT-1\n"


def save_checkpoint(net: DenoiserNetwork, schedule: NoiseSchedule, path) -> None:
    """Binary container: magic, uint32-LE header length, JSON header (arch +
    schedule endpoints + param count), then theta as little-endian float64."""
    header = json.dumps(
        {
            "arch": net.arch.to_dict(),
            "schedule": {
                "T": schedule.T,
                "beta_start": float(schedule.betas[0]),
                "beta_end": float(schedule.betas[-1]),
            },
            "param_count": int(net.theta.shape[0]),
        },
        sort_keys=True,
    ).encode("utf-8")
    blob = net.theta.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(blob)


def load_checkpoint(path) -> tuple[DenoiserNetwork, NoiseSchedule]:
    """Read a checkpoint written by `save_checkpoint`.

    Every malformed file (truncated anywhere, a bad header, a parameter count
    that disagrees with the architecture, or trailing bytes) raises
    ConsistencyError.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(_CKPT_MAGIC):
        raise ConsistencyError(f"{path}: not a checkpoint file (bad magic)")
    off = len(_CKPT_MAGIC)
    if len(raw) < off + 4:
        raise ConsistencyError(f"{path}: truncated before the header length")
    (hlen,) = struct.unpack_from("<I", raw, off)
    off += 4
    if len(raw) < off + hlen:
        raise ConsistencyError(
            f"{path}: header needs {hlen} bytes, only {len(raw) - off} present"
        )
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
        arch = DenoiserArch.from_dict(header["arch"])
        sched = header["schedule"]
        schedule = build_schedule(int(sched["T"]), sched["beta_start"], sched["beta_end"])
        count = header["param_count"]
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        # ValueError covers bad UTF-8 and bad JSON
        raise ConsistencyError(f"{path}: malformed checkpoint header ({e!r})") from e
    off += hlen
    if type(count) is not int or count != arch.param_count:
        raise ConsistencyError(
            f"{path}: param_count {count!r} does not match the architecture's "
            f"{arch.param_count}"
        )
    if len(raw) - off != 8 * count:
        raise ConsistencyError(
            f"{path}: expected {8 * count} parameter bytes, found {len(raw) - off}"
        )
    theta = np.frombuffer(raw, dtype="<f8", offset=off, count=count).copy()
    return DenoiserNetwork(arch, theta), schedule


def save_loss_trace(trace, path) -> None:
    lines = ["step,loss"] + [f"{s},{float(v)!r}" for s, v in trace]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
