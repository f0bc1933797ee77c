"""Heuristic augmentation of surveyed data, mimicking temporal signal variation.

Two effects are simulated: channel noise (Gaussian jitter on detected readings)
and flaky weak transmitters (readings under a threshold zeroed out). Absent
transmitters are never resurrected: a zero entry stays exactly zero. Both
effects work in place on whole RSS matrices (`_jitter`, `_drop_weak`);
`augment_seen` applies them to a dataset.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .dataset import FingerprintDataset, _row_blocks
from .errors import ConfigError, ConsistencyError
from .initializer import LocationSplit


@dataclass(frozen=True)
class AugmentationConfig:
    """Knobs for replica generation, all on the normalized RSS scale."""

    noise_sigma: float = 0.02
    drop_threshold: float = 0.15
    replicas_per_sample: int = 4
    seed: int = 0

    def __post_init__(self):
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.drop_threshold < 1.0:
            raise ConfigError(f"drop_threshold must be in [0, 1), got {self.drop_threshold}")
        if self.replicas_per_sample < 0:
            raise ConfigError(
                f"replicas_per_sample must be >= 0, got {self.replicas_per_sample}"
            )


def _jitter(rss: np.ndarray, noise: np.ndarray, sigma: float, detect_floor: float) -> None:
    """In place: `noise` becomes rss + noise * sigma clamped to [detect_floor, 1],
    and exactly 0 where rss is not positive. `rss` broadcasts against `noise`."""
    noise *= sigma
    noise += rss
    np.clip(noise, detect_floor, 1.0, out=noise)
    np.copyto(noise, 0.0, where=~(rss > 0.0))


def _drop_weak(rss: np.ndarray, threshold: float) -> None:
    """In place: zero the detected entries of the C-contiguous `rss` strictly below
    `threshold`, over blocks of 65,536 values so that each mask holds one block."""
    flat = rss.reshape(-1)
    for part in _row_blocks(flat.size, 1):
        v = flat[part]
        np.copyto(v, 0.0, where=(v > 0.0) & (v < threshold))


def augment_seen(
    data: FingerprintDataset, split: LocationSplit, cfg: AugmentationConfig, reserve: int = 0
) -> FingerprintDataset:
    """Originals at seen locations plus `replicas_per_sample` noisy copies each.

    Replicas go through noise injection first, then weak-transmitter dropout,
    so that jitter can push a borderline reading under the threshold. Samples
    at unseen locations are excluded entirely. Each source sample's replicas
    draw one (replicas, A) noise block from the source's own derived RNG
    stream, so output is independent of any parallel scheduling.

    The output matrix is the first rows of `rss.base`, a `(len + reserve, A)`
    buffer whose last `reserve` rows are left unwritten for the caller: the
    pipeline writes the generated map into them and merges both parts into
    that buffer with `merge_datasets(..., out=rss.base)`, which copies nothing.
    """
    seen_set = set(split.seen)
    data_locs = set(data.locations)
    missing = seen_set - data_locs
    if missing:
        raise ConsistencyError(
            f"split references {len(missing)} seen coordinate(s) absent from the dataset, "
            f"e.g. {sorted(missing)[0]}"
        )
    if reserve < 0:
        raise ConfigError(f"reserve must be >= 0, got {reserve}")
    floor = data.norm_params.detect_floor
    if cfg.drop_threshold < floor:
        warnings.warn(
            f"drop_threshold {cfg.drop_threshold} is below detect_floor {floor}; "
            "dropout will be a no-op",
            stacklevel=2,
        )
    keep = np.flatnonzero(data.located_in(split.seen))
    n, a = keep.shape[0], data.ap_count
    r = cfg.replicas_per_sample
    buf = np.empty((n * (1 + r) + reserve, a))
    rss = buf[: n * (1 + r)]
    src = data.take(keep, out=rss[:n])  # the seen samples, gathered into the head
    replicas = rss[n:].reshape(n, r, a)
    for k, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(n)):
        np.random.default_rng(child).standard_normal((r, a), out=replicas[k])
    _jitter(src.rss[:, None, :], replicas, cfg.noise_sigma, floor)
    _drop_weak(replicas, cfg.drop_threshold)
    rows = np.concatenate([np.arange(n), np.repeat(np.arange(n), r)])
    return FingerprintDataset(
        rss, src.loc_index[rows], src.locations, src.norm_params, src.collector_ids[rows]
    )
