"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 6-8 run the full pipeline on the default synthetic benchmark (10x10
grid over 50 m x 50 m, 20 APs, path-loss exponent 2.5, 4 dB shadowing, 8
train + 4 test samples per location, kNN localizer).
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from fpsynth.cli import main as cli_main
from fpsynth.config import ExperimentConfig
from fpsynth.dataset import (
    Coordinate,
    FingerprintDataset,
    NormalizationParams,
    _denormalize_array,
    _normalize_array,
)
from fpsynth.diffusion import (
    DiffusionTrainConfig,
    LossBatch,
    VicinityKernel,
    build_schedule,
    load_checkpoint,
    sample,
    save_checkpoint,
    spatial_loss,
    spatial_loss_and_grad,
    train,
)
from fpsynth.initializer import DensityParams, LocationSplit, select_unseen_density
from fpsynth.nets import DenoiserArch, DenoiserNetwork
from fpsynth.pipeline import run_experiment, sweep_ratio
from fpsynth.synthesizer import AugmentationConfig, _drop_weak, _jitter, augment_seen
from conftest import TINY_CONFIG
from oracles import brute_density_split


@pytest.fixture(autouse=True)
def pass_fail_line(request):
    start = time.perf_counter()
    yield
    rep = getattr(request.node, "rep_call", None)
    if rep is None:
        return
    status = "PASS" if rep.passed else "FAIL"
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE {request.node.name.replace('test_', '')}: {status} ({elapsed:.1f}s)",
        file=sys.__stdout__,
    )


@pytest.fixture(scope="module")
def experiment():
    """run_experiment, computed once per config in this module.

    c06's diffusion arm and c08's density arm are both the default config at
    seeds 0-4; a run is deterministic (criterion 09), so they share one.
    """
    runs = {}

    def run(cfg):
        if cfg not in runs:
            runs[cfg] = run_experiment(cfg)
        return runs[cfg]

    return run


def test_criterion_01_selection_oracle_equivalence():
    """200 random point sets match an independent brute-force greedy exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    for case in range(200):
        n = int(rng.integers(5, 13))
        if case % 2 == 0:  # integer lattices force exact density ties
            pts = set()
            while len(pts) < n:
                pts.add((int(rng.integers(0, 6)), int(rng.integers(0, 6))))
            points = [Coordinate(float(x), float(y)) for x, y in sorted(pts)]
        else:
            xy = rng.random((n, 2)) * 10.0
            points = [Coordinate(float(x), float(y)) for x, y in xy]
        k = int(rng.integers(1, 4))
        batch = int(rng.integers(1, 3))
        max_unseen = len(points) - (k + 1)
        if max_unseen < 0:
            continue
        for n_unseen in range(0, max_unseen + 1):
            split = select_unseen_density(points, n_unseen, DensityParams(k, batch))
            seen_o, unseen_o = brute_density_split(
                [(p.x, p.y) for p in points], n_unseen, k, batch
            )
            assert [(c.x, c.y) for c in split.unseen] == unseen_o
            assert [(c.x, c.y) for c in split.seen] == seen_o
            checked += 1
    assert checked > 500
    assert time.perf_counter() - start < 10.0


def test_criterion_02_forward_diffusion_marginals():
    """10^5-draw marginals match sqrt(ab_t)*M0 and (1-ab_t)I at t in {1,50,200}."""
    start = time.perf_counter()
    schedule = build_schedule(200, 1e-4, 0.02)
    m0 = np.array([1.0, -1.0, 0.5, 0.0, 0.25, -0.75])  # max-norm 1 test vector
    rng = np.random.default_rng(7)
    n = 100_000
    for t in (1, 50, 200):
        eps = rng.standard_normal((n, m0.shape[0]))
        ab = schedule.alpha_bars[t - 1]
        draws = np.sqrt(ab) * m0 + np.sqrt(1.0 - ab) * eps
        # spot-check the vector op agrees with the scalar contract
        one = np.sqrt(ab) * m0 + np.sqrt(1 - ab) * eps[0]
        from fpsynth.diffusion import forward_diffuse

        assert np.allclose(forward_diffuse(m0, t, eps[0], schedule), one)
        mean_err = np.abs(draws.mean(axis=0) - np.sqrt(ab) * m0)
        assert np.all(mean_err < 0.01)  # 1% of the unit max-norm scale
        var = draws.var(axis=0)
        assert np.all(np.abs(var - (1.0 - ab)) < 0.02 * (1.0 - ab))
    assert time.perf_counter() - start < 30.0


def test_criterion_03_gradient_correctness():
    """Analytic spatial_loss gradient vs central differences at 20 random points."""
    start = time.perf_counter()
    arch = DenoiserArch(
        ap_count=6, cond_freqs=1, time_dim=4, hidden=(8, 4, 8), bounds=(0, 0, 10, 10)
    )
    assert arch.param_count <= 1000
    schedule = build_schedule(25, 1e-3, 0.05)
    kernel = VicinityKernel(2.5)
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for point in range(20):
        net = DenoiserNetwork.create(arch, point)
        net.theta += rng.normal(0.0, 0.3, arch.param_count)
        batch = LossBatch(
            m0=rng.random((4, 6)),
            seen_locs=rng.random((4, 2)) * 10,
            cond_locs=rng.random((4, 2)) * 10,
            t=rng.integers(1, 26, 4),
            eps=rng.standard_normal((4, 6)),
        )
        _, grad = spatial_loss_and_grad(net, batch, kernel, schedule)
        fd = np.zeros_like(grad)
        for i in range(arch.param_count):
            net.theta[i] += h
            up = spatial_loss(net, batch, kernel, schedule)
            net.theta[i] -= 2 * h
            dn = spatial_loss(net, batch, kernel, schedule)
            net.theta[i] += h
            fd[i] = (up - dn) / (2 * h)
        rel = np.max(np.abs(grad - fd)) / (np.max(np.abs(grad)) + np.max(np.abs(fd)) + 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-4
    assert time.perf_counter() - start < 60.0


CONST16 = np.array(
    [0.0, 0.9, 0.5, 0.3, 0.7, 0.2, 0.0, 1.0, 0.45, 0.6, 0.15, 0.8, 0.35, 0.25, 0.55, 0.4]
)


def test_criterion_04_constant_data_learnability():
    """1 seen + 1 unseen location with constant fingerprints is learned exactly."""
    start = time.perf_counter()
    seen = Coordinate(0.0, 0.0)
    unseen = Coordinate(1.0, 1.0)
    data = FingerprintDataset(
        np.tile(CONST16, (64, 1)), np.zeros(64, dtype=int), (seen,), NormalizationParams()
    )
    split = LocationSplit(seen=(seen,), unseen=(unseen,))
    cfg = DiffusionTrainConfig(
        epochs=8000,
        batch_size=64,
        learning_rate=3e-3,
        lr_decay=0.9995,
        sigma_w=3.0,
        hidden=(64, 32, 64),
        cond_freqs=2,
        time_dim=8,
        seed=7,
    )
    result = train(data, split, cfg)
    final_loss = float(np.mean([v for _, v in result.trace[-10:]]))
    assert final_loss < 1e-3
    draws = sample(result.network, unseen, result.schedule, 100, seed=3)
    within = sum(1 for row in draws if np.max(np.abs(row - CONST16)) <= 0.05)
    assert within >= 95
    assert time.perf_counter() - start < 120.0


def test_criterion_05_conditioning_sensitivity():
    """Samples conditioned near a cluster match that cluster's fingerprint."""
    start = time.perf_counter()
    c1 = np.array([0.9, 0.8, 0.85, 0.7, 0.75, 0.9, 0.15, 0.0, 0.2, 0.15, 0.0, 0.25])
    c2 = np.array([0.15, 0.0, 0.2, 0.15, 0.0, 0.25, 0.9, 0.8, 0.85, 0.7, 0.75, 0.9])
    cluster1 = [Coordinate(x, y) for x in (0.0, 2.0) for y in (0.0, 2.0)]
    cluster2 = [Coordinate(x, y) for x in (40.0, 42.0) for y in (40.0, 42.0)]
    u1, u2 = Coordinate(1.0, 1.0), Coordinate(41.0, 41.0)
    data = FingerprintDataset(
        np.repeat([c1, c2], 32, axis=0), np.repeat(np.arange(8), 8), tuple(cluster1 + cluster2),
        NormalizationParams(),
    )
    split = LocationSplit(seen=tuple(cluster1 + cluster2), unseen=(u1, u2))
    cfg = DiffusionTrainConfig(
        epochs=1500,
        batch_size=64,
        learning_rate=3e-3,
        lr_decay=0.998,
        sigma_w=2.5,
        hidden=(64, 32, 64),
        cond_freqs=3,
        time_dim=8,
        seed=11,
    )
    result = train(data, split, cfg)
    for uloc, own, other in ((u1, c1, c2), (u2, c2, c1)):
        draws = sample(result.network, uloc, result.schedule, 100, seed=5)
        correct = sum(
            1 for row in draws if np.linalg.norm(row - own) < np.linalg.norm(row - other)
        )
        assert correct >= 95
    assert time.perf_counter() - start < 180.0


def test_criterion_06_end_to_end_benefit(experiment):
    """Diffusion augmentation beats no augmentation at unseen fraction 0.5."""
    start = time.perf_counter()
    base = ExperimentConfig()
    diffusion_errors, none_errors = [], []
    for seed in range(5):
        rd = experiment(replace(base, seed=seed, augmenter="diffusion"))
        rn = run_experiment(replace(base, seed=seed, augmenter="none"))
        diffusion_errors.append(rd.report.mean_error_m)
        none_errors.append(rn.report.mean_error_m)
    wins = sum(d <= n for d, n in zip(diffusion_errors, none_errors))
    assert wins >= 4
    assert np.median(diffusion_errors) < np.median(none_errors)
    assert time.perf_counter() - start < 600.0


def test_criterion_07_ratio_stability_trend():
    """Mean error at fraction 0.3 stays within 10% of the full-survey value."""
    fractions = [0.0, 0.1, 0.2, 0.3]
    per_fraction = {f: [] for f in fractions}
    for seed in range(3):
        results = sweep_ratio(replace(ExperimentConfig(), seed=seed), fractions)
        for r in results:
            per_fraction[r.config.unseen_fraction].append(r.report.mean_error_m)
            # collection overhead exactly linear in seen count (zero tolerance)
            assert r.collection_overhead_min == r.n_seen * r.config.minutes_per_location
    med = {f: float(np.median(v)) for f, v in per_fraction.items()}
    assert med[0.3] <= 1.10 * med[0.0]


def test_criterion_08_initializer_benefit(experiment):
    """Density-guided splits localize no worse than random splits (seed medians)."""
    base = ExperimentConfig()
    density_errors, random_errors = [], []
    for seed in range(5):
        rd = experiment(replace(base, seed=seed, split_strategy="density"))
        rr = run_experiment(replace(base, seed=seed, split_strategy="random"))
        density_errors.append(rd.report.mean_error_m)
        random_errors.append(rr.report.mean_error_m)
    assert np.median(density_errors) <= np.median(random_errors)


def test_criterion_09_determinism_and_round_trips(tmp_path):
    """Byte-identical CLI outputs, bit-exact checkpoints, 1e-9 codec round trip."""
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_CONFIG)
    c = str(cfg_path)

    def run(argv):
        assert cli_main(argv) == 0

    outputs = {}
    for tag in ("x", "y"):
        d = tmp_path / tag
        d.mkdir()
        data, split, aug = d / "data.csv", d / "split.csv", d / "aug.csv"
        model, trace, gen = d / "model.ckpt", d / "trace.csv", d / "gen.csv"
        rep, pipe, sweep = d / "report.csv", d / "pipe.csv", d / "sweep.csv"
        run(["synth-env", "-c", c, "-o", str(data)])
        run(["split", "-c", c, "-o", str(split)])
        run(["augment", "-c", c, "--split", str(split), "-o", str(aug)])
        run(["train-diffusion", "-c", c, "--data", str(aug), "--split", str(split),
             "-o", str(model), "--trace", str(trace)])
        run(["generate", "-c", c, "--model", str(model), "--split", str(split), "-o", str(gen)])
        run(["evaluate", "-c", c, "--train", str(aug), "--train", str(gen), "-o", str(rep)])
        run(["pipeline", "-c", c, "-o", str(pipe)])
        run(["sweep", "-c", c, "--fractions", "0,0.2", "-o", str(sweep),
             "--set", "augmenter.kind=none"])
        outputs[tag] = {p.name: p.read_bytes() for p in d.iterdir()}
    assert outputs["x"] == outputs["y"]

    arch = DenoiserArch(ap_count=5, cond_freqs=2, time_dim=6, hidden=(12, 6, 12),
                        bounds=(0.0, 0.0, 20.0, 20.0))
    net = DenoiserNetwork.create(arch, seed=8)
    schedule = build_schedule(37, 3e-4, 0.011)
    ckpt = tmp_path / "rt.ckpt"
    save_checkpoint(net, schedule, ckpt)
    net2, schedule2 = load_checkpoint(ckpt)
    assert np.array_equal(net2.theta, net.theta)
    assert net2.arch == net.arch
    assert np.array_equal(schedule2.betas, schedule.betas)

    params = NormalizationParams()
    v = np.concatenate([[0.0], np.linspace(0.1, 1.0, 1001)])
    assert np.all(np.abs(_normalize_array(_denormalize_array(v, params), params) - v) <= 1e-9)


def test_criterion_10_augmentation_invariant_suite():
    """1000 randomized trials per invariant with zero violations."""
    rng = np.random.default_rng(555)
    floor = 0.1
    for _ in range(1000):
        a = int(rng.integers(1, 24))
        rss = np.where(rng.random(a) < 0.3, 0.0, rng.uniform(floor, 1.0, a))
        sigma = float(rng.uniform(0.0, 0.2))
        threshold = float(rng.uniform(0.0, 0.9))

        noisy = rng.standard_normal(a)
        _jitter(rss, noisy, sigma, floor)
        dropped = noisy.copy()
        _drop_weak(dropped, threshold)

        # zero-preservation: zero set only ever grows
        src_zeros = rss == 0.0
        assert np.all(noisy[src_zeros] == 0.0)
        assert np.all(dropped[src_zeros] == 0.0)
        # range validity on both outputs
        for out in (noisy, dropped):
            assert np.all((out == 0.0) | ((out >= floor) & (out <= 1.0)))
        # dropout idempotence
        again = dropped.copy()
        _drop_weak(again, threshold)
        assert np.array_equal(again, dropped)

    # label preservation, and the invariants above, over 1000 replicas of augment_seen
    locations = tuple(Coordinate(float(x), float(y)) for x, y in rng.random((20, 2)))
    rss = np.where(rng.random((200, 8)) < 0.3, 0.0, rng.uniform(floor, 1.0, (200, 8)))
    data = FingerprintDataset(rss, rng.integers(0, 20, 200), locations, NormalizationParams())
    split = LocationSplit(seen=locations, unseen=())
    cfg = AugmentationConfig(noise_sigma=0.1, drop_threshold=0.3, replicas_per_sample=5, seed=9)
    out = augment_seen(data, split, cfg)
    source = np.repeat(np.arange(200), 5)
    labels = [data.locations[j] for j in data.loc_index[source]]
    assert [out.locations[j] for j in out.loc_index[200:]] == labels
    replicas = out.rss[200:]
    assert np.all(replicas[rss[source] == 0.0] == 0.0)
    assert np.all((replicas == 0.0) | ((replicas >= 0.3) & (replicas <= 1.0)))
