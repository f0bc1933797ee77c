import json
import struct
import tracemalloc

import numpy as np
import pytest

import fpsynth.diffusion as diffusion
import oracles
from fpsynth.dataset import Coordinate, FingerprintDataset, NormalizationParams
from fpsynth.diffusion import (
    DiffusionTrainConfig,
    VicinityKernel,
    build_schedule,
    generate_unseen_map,
    load_checkpoint,
    sample,
    save_checkpoint,
    save_loss_trace,
    train,
)
from fpsynth.errors import ConsistencyError, CoverageError, RangeError, SizeError
from fpsynth.initializer import LocationSplit, neighbor_density
from fpsynth.nets import DenoiserArch, DenoiserNetwork

CONST = np.array([0.0, 0.9, 0.5, 0.3, 0.7, 0.2, 0.0, 1.0])


def constant_setup(n_samples=48):
    seen = Coordinate(0.0, 0.0)
    unseen = Coordinate(1.0, 1.0)
    data = FingerprintDataset(
        np.tile(CONST, (n_samples, 1)), np.zeros(n_samples, dtype=int), (seen,),
        NormalizationParams(),
    )
    split = LocationSplit(seen=(seen,), unseen=(unseen,))
    return data, split


def _random_setup(rng, per_location):
    """`per_location` uniform samples at each of six seen locations; two unseen between them."""
    seen = tuple(Coordinate(float(x), float(y)) for x in range(3) for y in range(2))
    data = FingerprintDataset(
        rng.uniform(0.2, 1.0, (len(seen) * per_location, len(CONST))),
        np.repeat(np.arange(len(seen)), per_location), seen, NormalizationParams(),
    )
    return data, LocationSplit(seen=seen, unseen=(Coordinate(0.5, 0.5), Coordinate(1.5, 1.5)))


def quick_cfg(**kw):
    defaults = dict(
        T=50,
        epochs=150,
        batch_size=16,
        learning_rate=3e-3,
        lr_decay=0.99,
        sigma_w=3.0,
        hidden=(32, 16, 32),
        cond_freqs=2,
        time_dim=8,
        seed=7,
    )
    defaults.update(kw)
    return DiffusionTrainConfig(**defaults)


class TestTrain:
    def test_constant_data_learns(self):
        data, split = constant_setup()
        res = train(data, split, quick_cfg(epochs=1200, lr_decay=0.998))
        assert res.trace[-1][1] < 1e-2
        rss = sample(res.network, split.unseen[0], res.schedule, 20, seed=1)
        assert rss.shape == (20, len(CONST))
        assert np.max(np.abs(rss - CONST)) < 0.08

    def test_bitwise_deterministic_trace(self):
        data, split = constant_setup(16)
        cfg = quick_cfg(epochs=10)
        a = train(data, split, cfg)
        b = train(data, split, cfg)
        assert a.trace == b.trace
        assert np.array_equal(a.network.theta, b.network.theta)

    def test_epoch_mean_non_increasing_early(self):
        # soft check: descending epoch means over the first five epochs
        data, split = constant_setup(n_samples=128)
        res = train(data, split, quick_cfg(epochs=6))
        steps_per_epoch = len(data) // 16
        means = [
            np.mean([v for _, v in res.trace[e * steps_per_epoch : (e + 1) * steps_per_epoch]])
            for e in range(5)
        ]
        assert all(a >= b for a, b in zip(means, means[1:]))

    def test_rejects_unseen_located_samples(self):
        data, split = constant_setup()
        bad_split = LocationSplit(seen=(Coordinate(5.0, 5.0),), unseen=split.unseen)
        with pytest.raises(ConsistencyError):
            train(data, bad_split, quick_cfg(epochs=1))

    def test_error_names_the_first_sample_off_the_split(self):
        _, split = constant_setup()
        locations = (split.seen[0], Coordinate(3.0, 4.0), Coordinate(5.0, 6.0))
        mixed = FingerprintDataset(
            np.tile(CONST, (6, 1)), [0, 0, 1, 2, 0, 0], locations, NormalizationParams()
        )
        with pytest.raises(ConsistencyError, match=r"sample at Coordinate\(x=3\.0, y=4\.0\)"):
            train(mixed, split, quick_cfg(epochs=1))

    def test_rejects_empty_unseen(self):
        data, split = constant_setup()
        with pytest.raises(SizeError):
            train(data, LocationSplit(seen=split.seen, unseen=()), quick_cfg(epochs=1))

    def test_coverage_error_hard_kernel(self):
        data, split = constant_setup()
        far = LocationSplit(seen=split.seen, unseen=(Coordinate(500.0, 500.0),))
        with pytest.raises(CoverageError):
            train(data, far, quick_cfg(epochs=1, kernel="hard", sigma_w=1.0))

    def test_coverage_counts_only_locations_with_samples(self):
        # (5, 5) is the only location within reach of the unseen one, and no
        # sample is there
        seen = (Coordinate(0.0, 0.0), Coordinate(5.0, 5.0))
        data = FingerprintDataset(
            np.tile(CONST, (4, 1)), np.zeros(4, dtype=np.intp), seen, NormalizationParams()
        )
        split = LocationSplit(seen=seen, unseen=(Coordinate(5.5, 5.0),))
        with pytest.raises(CoverageError):
            train(data, split, quick_cfg(epochs=1, kernel="hard", sigma_w=1.0))

    def test_auto_sigma_needs_two_seen(self):
        # one seen location has no nearest neighbour; an explicit sigma_w
        # needs none, and the same split trains
        data, split = constant_setup()
        with pytest.raises(SizeError):
            train(data, split, quick_cfg(epochs=1, sigma_w=None))
        assert train(data, split, quick_cfg(epochs=1, sigma_w=1.0)).sigma_w == 1.0

    def test_sigma_auto_resolves_from_seen_spacing(self):
        p = NormalizationParams()
        seen = tuple(Coordinate(float(i * 2), 0.0) for i in range(4))
        data = FingerprintDataset(np.tile(CONST, (16, 1)), np.repeat(np.arange(4), 4), seen, p)
        split = LocationSplit(seen=seen, unseen=(Coordinate(1.0, 0.5),))
        res = train(data, split, quick_cfg(epochs=1, sigma_w=None))
        assert res.sigma_w == pytest.approx(0.6 * 2.0)


    def test_runs_the_checked_loss(self, monkeypatch):
        # every step's loss and gradient come from the function that the
        # gradient check (criterion 03) verifies, with the importance weights
        rng = np.random.default_rng(21)
        data, split = _random_setup(rng, 6)
        m0, locs, unseen_xy = data.rss, data.coords_matrix(), split.unseen_coords()
        dx = unseen_xy[:, 0][None, :] - locs[:, 0][:, None]
        dy = unseen_xy[:, 1][None, :] - locs[:, 1][:, None]
        mass = VicinityKernel(1.0).weight(np.sqrt(dx * dx + dy * dy)).sum(axis=1)
        # the step's m0 rows are in the network's dtype
        row_of = {row.tobytes(): i for i, row in enumerate(m0.astype(diffusion._TRAIN_DTYPE))}
        assert len(row_of) == len(data)

        calls = []
        checked = diffusion._weighted_loss_and_grad

        def spy(net, x, m0_b, w, *buffers):
            loss, grad = checked(net, x, m0_b, w, *buffers)
            calls.append((m0_b.copy(), w.copy(), loss))
            return loss, grad

        monkeypatch.setattr(diffusion, "_weighted_loss_and_grad", spy)
        res = train(data, split, quick_cfg(epochs=1, sigma_w=1.0))
        assert len(calls) == len(res.trace) == -(-len(data) // 16)
        for (_step, loss), (m0_b, w, returned) in zip(res.trace, calls):
            j = [row_of[row.tobytes()] for row in m0_b]
            assert np.array_equal(w, mass[j])
            assert loss == returned


    def test_reused_step_buffers_equal_fresh_calls(self, monkeypatch):
        # 42 samples in batches of 16: the last batch of 10 runs on the
        # leading rows of the step buffers
        rng = np.random.default_rng(31)
        data, split = _random_setup(rng, 7)
        cfg = quick_cfg(epochs=3, sigma_w=1.0)
        reused = train(data, split, cfg)
        checked = diffusion._weighted_loss_and_grad

        def fresh(net, x, m0_b, w, *buffers):
            return checked(net, x.copy(), m0_b.copy(), w)

        monkeypatch.setattr(diffusion, "_weighted_loss_and_grad", fresh)
        unbuffered = train(data, split, cfg)
        assert len(reused.trace) == 3 * 3
        assert reused.trace == unbuffered.trace
        assert reused.network.theta.tobytes() == unbuffered.network.theta.tobytes()

    def test_float32_training_tracks_float64(self, monkeypatch):
        # the same run at both parameter widths: the random streams are the
        # same, so the gaps are float32 rounding carried through 60 steps.
        # Bound: 32 float32 epsilons, relative (about 4 were measured).
        rng = np.random.default_rng(21)
        data, split = _random_setup(rng, 6)
        cfg = quick_cfg(epochs=20, sigma_w=1.0)
        narrow = train(data, split, cfg)
        monkeypatch.setattr(diffusion, "_TRAIN_DTYPE", np.float64)
        wide = train(data, split, cfg)
        assert narrow.network.theta.dtype == np.float32
        assert wide.network.theta.dtype == np.float64
        tol = 32 * np.finfo(np.float32).eps
        steps, losses = np.array(narrow.trace).T
        wide_steps, wide_losses = np.array(wide.trace).T
        assert np.array_equal(steps, wide_steps) and len(steps) == 60
        assert np.max(np.abs(losses - wide_losses) / wide_losses) < tol
        theta_gap = np.abs(narrow.network.theta - wide.network.theta)
        assert np.max(theta_gap) < tol * np.max(np.abs(wide.network.theta))

    def test_block_buffers_do_not_grow_with_the_rows(self):
        # 100 APs at 10 seen and 4 unseen locations, 200 then 2,000 rows per
        # location. The draws and gathers run on blocks of whole minibatches,
        # so from 2,000 to 20,000 rows the traced peak grows by what holds
        # one value per row (the epoch's permutation, the located check),
        # which is less than one block's inputs, clean rows and noise
        a = 100
        seen = tuple(Coordinate(float(i), 0.0) for i in range(10))
        split = LocationSplit(seen=seen, unseen=tuple(Coordinate(i + 0.5, 0.0) for i in range(4)))
        cfg = quick_cfg(epochs=1, batch_size=64, sigma_w=1.0, hidden=(16, 8, 16))

        def peak(per_location):
            rss = np.random.default_rng(per_location).uniform(0.2, 1.0, (10 * per_location, a))
            index = np.repeat(np.arange(10), per_location)
            data = FingerprintDataset(rss, index, seen, NormalizationParams())
            tracemalloc.start()
            try:
                train(data, split, cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        input_dim = DenoiserArch(a, cfg.cond_freqs, cfg.time_dim, cfg.hidden).input_dim
        steps = max(1, diffusion._TRAIN_BLOCK_VALUES // (64 * (a + 4)))
        one_block = steps * 64 * (input_dim * 4 + a * 4 + a * 8)
        small = peak(200)
        assert peak(2000) - small < one_block

    def test_non_finite_loss_raises_naming_the_step(self):
        data, split = constant_setup(48)
        with pytest.raises(RangeError, match=r"diverged.* step 2 \(epoch 1\)"):
            train(data, split, quick_cfg(epochs=2, learning_rate=1e300))


class TestConditionCdf:
    @pytest.mark.parametrize("form", ["gaussian", "hard"])
    def test_rows_equal_the_dense_per_sample_formula(self, form):
        # 203 samples at 40 locations, some of them unused: sample j's row of
        # the dense (N, U) computation is the table's row loc_index[j]
        rng = np.random.default_rng(5)
        xy = rng.random((40, 2)) * 20.0
        data = FingerprintDataset(
            np.zeros((203, 1)),
            rng.integers(0, 40, 203),
            tuple(Coordinate(x, y) for x, y in xy.tolist()),
            NormalizationParams(),
        )
        locs = data.coords_matrix()
        unseen_xy = rng.random((37, 2)) * 20.0
        kernel = VicinityKernel(1.5, form)
        dx = unseen_xy[:, 0][None, :] - locs[:, 0][:, None]
        dy = unseen_xy[:, 1][None, :] - locs[:, 1][:, None]
        wmat = kernel.weight(np.sqrt(dx * dx + dy * dy))
        mass = wmat.sum(axis=1)
        cdf = np.cumsum(wmat / np.where(mass > 0.0, mass, 1.0)[:, None], axis=1)
        if form == "hard":
            assert (mass == 0.0).any() and (mass > 0.0).any()
        got_mass, got_cdf = diffusion._condition_cdf(data.location_coords(), unseen_xy, kernel)
        assert got_mass.shape == (40,) and got_cdf.shape == (40, 37)
        assert got_mass[data.loc_index].tobytes() == mass.tobytes()
        assert got_cdf[data.loc_index].tobytes() == cdf.tobytes()


class TestAutoSigma:
    @pytest.mark.parametrize("n", [2, 16, 17, 203])
    @pytest.mark.parametrize("lattice", [False, True])
    def test_nearest_distances_equal_the_dense_formula(self, n, lattice):
        rng = np.random.default_rng(n)
        if lattice:  # many tied nearest distances
            coords = rng.permutation(np.argwhere(np.ones((15, 15))))[:n] * 2.0
        else:
            coords = rng.random((n, 2)) * 20.0
        dx = coords[:, 0][:, None] - coords[:, 0][None, :]
        dy = coords[:, 1][:, None] - coords[:, 1][None, :]
        d = np.sqrt(dx * dx + dy * dy)
        np.fill_diagonal(d, np.inf)
        want = float(np.median(d.min(axis=1)))
        points = [Coordinate(float(x), float(y)) for x, y in coords]
        assert float(np.median(neighbor_density(points, 1))).hex() == want.hex()


class TestSample:
    def test_constant_oracle_fixed_point(self):
        arch = DenoiserArch(ap_count=8, cond_freqs=2, time_dim=8, hidden=(16, 8, 16), bounds=(0, 0, 2, 2))
        s = build_schedule(40, 1e-3, 0.05)
        net = DenoiserNetwork.constant_output(arch, CONST)
        expected = np.where(CONST < 0.1, 0.0, np.clip(CONST, 0.1, 1.0))
        for seed in (0, 1, 2):
            rss = sample(net, Coordinate(1.0, 1.0), s, 4, seed=seed)
            assert rss.shape == (4, 8)
            for row in rss:
                assert row == pytest.approx(expected, abs=1e-12)

    def test_outputs_satisfy_fingerprint_invariants(self):
        arch = DenoiserArch(ap_count=8, cond_freqs=2, time_dim=8, hidden=(16, 8, 16), bounds=(0, 0, 2, 2))
        s = build_schedule(40, 1e-3, 0.05)
        net = DenoiserNetwork.create(arch, seed=3)
        v = sample(net, Coordinate(0.5, 0.5), s, 32, seed=11)
        assert v.shape == (32, 8) and v.dtype == np.float64
        assert np.all((v == 0.0) | ((v >= 0.1) & (v <= 1.0)))

    def test_seed_determinism(self):
        arch = DenoiserArch(ap_count=8, cond_freqs=2, time_dim=8, hidden=(16, 8, 16), bounds=(0, 0, 2, 2))
        s = build_schedule(40, 1e-3, 0.05)
        net = DenoiserNetwork.create(arch, seed=3)
        a = sample(net, Coordinate(0.5, 0.5), s, 8, seed=21)
        b = sample(net, Coordinate(0.5, 0.5), s, 8, seed=21)
        assert a.tobytes() == b.tobytes()


class TestGenerateUnseenMap:
    def _trained(self):
        p = NormalizationParams()
        seen = tuple(Coordinate(float(i), 0.0) for i in range(3))
        unseen = (Coordinate(0.5, 0.0), Coordinate(1.5, 0.0), Coordinate(2.5, 0.0))
        data = FingerprintDataset(np.tile(CONST, (12, 1)), np.repeat(np.arange(3), 4), seen, p)
        split = LocationSplit(seen=seen, unseen=unseen)
        res = train(data, split, quick_cfg(epochs=5, sigma_w=1.0))
        return res, split, p

    def test_counts_and_locations(self):
        res, split, p = self._trained()
        ds = generate_unseen_map(res.network, split, res.schedule, 10, seed=4, norm_params=p)
        assert len(ds) == 30
        assert set(ds.locations) == set(split.unseen)
        assert {ds.locations[j] for j in ds.loc_index} <= set(split.unseen)

    def test_determinism(self):
        res, split, p = self._trained()
        a = generate_unseen_map(res.network, split, res.schedule, 5, seed=4, norm_params=p)
        b = generate_unseen_map(res.network, split, res.schedule, 5, seed=4, norm_params=p)
        assert np.array_equal(a.rss, b.rss)

    def test_equals_per_location_sample_calls(self):
        # all locations are sampled in one batch, yet each one's output is
        # exactly what a one-location run with its derived seed gives
        res, split, p = self._trained()
        ds = generate_unseen_map(res.network, split, res.schedule, 6, seed=9, norm_params=p)
        children = np.random.SeedSequence(9).spawn(len(split.unseen))
        expected = [
            sample(res.network, loc, res.schedule, 6, child, p.detect_floor)
            for loc, child in zip(split.unseen, children)
        ]
        assert [ds.locations[j] for j in ds.loc_index] == [
            loc for loc in split.unseen for _ in range(6)
        ]
        assert ds.rss.tobytes() == np.concatenate(expected).tobytes()


class TestCheckpoint:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=lambda d: d.__name__)
    def test_bit_exact_round_trip(self, tmp_path, dtype):
        arch = DenoiserArch(
            ap_count=8, cond_freqs=2, time_dim=8, hidden=(16, 8, 16),
            bounds=(0.25, -1.5, 38.88888888888889, 40.0),
        )
        net = DenoiserNetwork.create(arch, 5, dtype)
        s = build_schedule(64, 2e-4, 0.015)
        path = tmp_path / "model.ckpt"
        save_checkpoint(net, s, path)
        net2, s2 = load_checkpoint(path)
        assert net2.arch == arch
        assert net2.theta.dtype == dtype
        assert net2.theta.tobytes() == net.theta.tobytes()
        # the payload holds theta in its own width
        assert path.read_bytes().endswith(net.theta.astype(np.dtype(dtype).newbyteorder("<")).tobytes())
        assert s2.T == s.T
        assert np.array_equal(s2.betas, s.betas)

    def test_rewrite_is_byte_identical(self, tmp_path):
        arch = DenoiserArch(ap_count=4, cond_freqs=1, time_dim=4, hidden=(8, 4, 8))
        net = DenoiserNetwork.create(arch, seed=1)
        s = build_schedule(10, 1e-3, 0.02)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(net, s, p1)
        save_checkpoint(net, s, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def _saved(tmp_path):
        arch = DenoiserArch(ap_count=4, cond_freqs=1, time_dim=4, hidden=(8, 4, 8))
        path = tmp_path / "model.ckpt"
        save_checkpoint(DenoiserNetwork.create(arch, seed=1), build_schedule(10, 1e-3, 0.02), path)
        return path, path.read_bytes()

    @pytest.mark.parametrize(
        "cut", [0, 7, 15, 17, 19, 40, -300, -9, -1], ids=lambda c: f"cut{c}"
    )
    def test_truncated_file_is_a_typed_error(self, tmp_path, cut):
        # cuts land in the magic, the header length, the JSON header and the payload
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw[:cut])
        with pytest.raises(ConsistencyError):
            load_checkpoint(path)

    def test_version_1_file_is_refused(self, tmp_path):
        # a version-1 file, whose arch held an activation name, is not read
        # as a SiLU network
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw.replace(b"FPSYNTH-CKPT-3", b"FPSYNTH-CKPT-1", 1))
        with pytest.raises(ConsistencyError, match="bad magic"):
            load_checkpoint(path)

    def test_version_2_file_is_refused(self, tmp_path):
        # version 2 wrote float64 theta and no dtype; it is refused, not guessed
        path, raw = self._saved(tmp_path)
        off = len(b"FPSYNTH-CKPT-3\n")
        (hlen,) = struct.unpack_from("<I", raw, off)
        header = json.loads(raw[off + 4 : off + 4 + hlen])
        del header["dtype"]
        header = json.dumps(header, sort_keys=True).encode()
        payload = raw[off + 4 + hlen :]
        path.write_bytes(b"FPSYNTH-CKPT-2\n" + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(ConsistencyError, match="bad magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("junk", [b"\0", b"\0" * 8, b"trailing"])
    def test_trailing_bytes_are_a_typed_error(self, tmp_path, junk):
        path, raw = self._saved(tmp_path)
        path.write_bytes(raw + junk)
        with pytest.raises(ConsistencyError, match="parameter bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: b"{not json" + h[9:],
            lambda h: b"\xff" + h[1:],
            lambda h: h.replace(b'"arch"', b'"arck"'),
            lambda h: h.replace(b'"schedule": {"T": 10', b'"schedule": {"T": [10]'),
            lambda h: h.replace(b'"param_count": ', b'"param_count": 1'),
            lambda h: h.replace(b'"T": 10', b'"T": 0'),
            lambda h: h.replace(b'"dtype"', b'"dtypf"'),
            lambda h: h.replace(b'"float64"', b'"float16"'),
            lambda h: h.replace(b'"float64"', b'["float64"]'),
            lambda h: h.replace(b'"float64"', b'"float32"'),
        ],
        ids=["json", "utf8", "arch-key", "schedule-type", "param-count", "schedule-value",
             "dtype-key", "dtype-unknown", "dtype-type", "dtype-width"],
    )
    def test_bad_header_is_a_typed_error(self, tmp_path, edit):
        # "dtype-width" names a dtype half the payload's width: a byte-count error
        path, raw = self._saved(tmp_path)
        off = len(b"FPSYNTH-CKPT-3\n")
        (hlen,) = struct.unpack_from("<I", raw, off)
        header = edit(raw[off + 4 : off + 4 + hlen])
        payload = raw[off + 4 + hlen :]
        path.write_bytes(raw[:off] + struct.pack("<I", len(header)) + header + payload)
        with pytest.raises(ConsistencyError):
            load_checkpoint(path)

    def test_loss_trace_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        save_loss_trace([(1, 0.5), (2, 0.25)], path)
        text = path.read_text()
        assert text.splitlines()[0] == "step,loss"
        assert text.splitlines()[1] == "1,0.5"


class TestReverseDiffuse:
    def test_block_noise_equals_per_step_draws(self):
        # float32, as trained; 12 locations x 8 samples x 20 APs draw noise
        # for 34 steps per block, which does not divide the 399 noisy steps
        arch = DenoiserArch(ap_count=20, cond_freqs=2, time_dim=8, hidden=(16, 8, 16),
                            bounds=(0.0, 0.0, 11.0, 11.0))
        net = DenoiserNetwork.create(arch, 41, np.float32)
        net.theta += np.random.default_rng(42).normal(0, 0.2, arch.param_count).astype(np.float32)
        schedule = build_schedule(400, 1e-4, 0.02)
        locs = [Coordinate(float(i), 11.0 - i) for i in range(12)]
        seeds = np.random.SeedSequence(43).spawn(len(locs))
        block = diffusion._NOISE_BLOCK_VALUES // (len(locs) * 8 * arch.ap_count)
        assert 1 < block < schedule.T - 1 and (schedule.T - 1) % block
        got = diffusion._reverse_diffuse(net, locs, schedule, 8, seeds, 0.1)
        want = oracles.reverse_diffuse(net, locs, schedule, 8, seeds, 0.1)
        assert got.shape == want.shape == (12, 8, arch.ap_count)
        assert got.tobytes() == want.tobytes()
