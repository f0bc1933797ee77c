import os
import tracemalloc
import types

import numpy as np
import pytest

import oracles
from oracles import adam_step, masked_sigmoid, skip_mlp_backward, skip_mlp_forward

import fpsynth.nets as nets
from fpsynth.dataset import Coordinate, Fingerprint, NormalizationParams, make_dataset
from fpsynth.diffusion import DiffusionTrainConfig, _reverse_diffuse, build_schedule, train
from fpsynth.errors import ConfigError, ShapeError
from fpsynth.initializer import LocationSplit
from fpsynth.nets import AdamOptimizer, DenoiserArch, DenoiserNetwork, Mlp, _sigmoid


class TestDenoiserArch:
    def test_dimensions(self):
        arch = DenoiserArch(ap_count=6, cond_freqs=1, time_dim=4, hidden=(8, 4, 8))
        assert arch.cond_dim == 6
        assert arch.input_dim == 16
        assert arch.param_count == 16 * 8 + 8 + 8 * 4 + 4 + 4 * 8 + 8 + 8 * 6 + 6

    def test_skip_width_mismatch(self):
        with pytest.raises(ConfigError):
            DenoiserArch(ap_count=4, hidden=(8, 4, 6))

    def test_dict_round_trip(self):
        arch = DenoiserArch(ap_count=5, cond_freqs=2, time_dim=6, hidden=(12, 6, 12),
                            bounds=(1.0, 2.0, 3.0, 4.0))
        assert DenoiserArch.from_dict(arch.to_dict()) == arch


class TestDenoiserNetwork:
    def test_theta_views_track_updates(self):
        arch = DenoiserArch(ap_count=3, cond_freqs=1, time_dim=4, hidden=(4, 2, 4))
        net = DenoiserNetwork.zeros(arch)
        net.theta += 1.0
        out = net.forward(np.zeros((1, arch.input_dim)))
        assert not np.allclose(out, 0.0)

    def test_input_shape_check(self):
        arch = DenoiserArch(ap_count=3, cond_freqs=1, time_dim=4, hidden=(4, 2, 4))
        net = DenoiserNetwork.zeros(arch)
        with pytest.raises(ShapeError):
            net.forward(np.zeros((2, arch.input_dim + 1)))

    def test_backward_matches_finite_differences(self):
        arch = DenoiserArch(ap_count=3, cond_freqs=1, time_dim=4, hidden=(5, 3, 5))
        rng = np.random.default_rng(0)
        net = DenoiserNetwork.create(arch, 1)
        net.theta += rng.normal(0, 0.4, arch.param_count)
        x = rng.standard_normal((4, arch.input_dim))
        proj = rng.standard_normal((4, 3))

        def scalar():
            return float(np.sum(proj * net.forward(x)))

        out, cache = net.forward_cached(x)
        grad = net.backward(cache, proj)
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(arch.param_count):
            net.theta[i] += h
            up = scalar()
            net.theta[i] -= 2 * h
            dn = scalar()
            net.theta[i] += h
            fd[i] = (up - dn) / (2 * h)
        rel = np.max(np.abs(grad - fd)) / (np.max(np.abs(fd)) + 1e-12)
        assert rel < 1e-6

    def test_stacked_forward_equals_per_slice_calls(self):
        # a stacked input must run one n-row product per slice; flattening it
        # to (U*n, input) changes the bits of the result
        arch = DenoiserArch(ap_count=20, cond_freqs=4, time_dim=16, hidden=(128, 64, 128))
        net = DenoiserNetwork.create(arch, 4)
        x = np.random.default_rng(5).standard_normal((50, 8, arch.input_dim))
        stacked = net.forward(x)
        assert stacked.shape == (50, 8, arch.ap_count)
        per_slice = np.stack([net.forward(xi) for xi in x])
        assert np.array_equal(stacked.view(np.uint64), per_slice.view(np.uint64))

    def test_backward_rejects_stacked_cache(self):
        arch = DenoiserArch(ap_count=3, cond_freqs=1, time_dim=4, hidden=(4, 2, 4))
        net = DenoiserNetwork.create(arch, 0)
        out, cache = net.forward_cached(np.ones((2, 3, arch.input_dim)))
        with pytest.raises(ShapeError):
            net.backward(cache, out)

    def test_tanh_activation_supported(self):
        arch = DenoiserArch(ap_count=3, cond_freqs=1, time_dim=4, hidden=(4, 2, 4),
                            activation="tanh")
        net = DenoiserNetwork.create(arch, 2)
        out = net.forward(np.ones((2, arch.input_dim)))
        assert out.shape == (2, 3)
        assert np.all(np.isfinite(out))


def bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSkipKernelBits:
    """The shared kernel against the explicit 4-layer skip network in `oracles`."""

    def _net(self, activation="silu"):
        arch = DenoiserArch(ap_count=20, cond_freqs=4, time_dim=16, hidden=(128, 64, 128),
                            activation=activation)
        net = DenoiserNetwork.create(arch, 11)
        net.theta += np.random.default_rng(12).normal(0, 0.05, arch.param_count)
        return net

    @pytest.mark.parametrize("activation", ["silu", "tanh"])
    def test_2d_forward_and_backward(self, activation):
        net = self._net(activation)
        act, dact = oracles.ACTIVATIONS[activation]
        rng = np.random.default_rng(13)
        x = rng.standard_normal((64, net.arch.input_dim))
        dout = rng.standard_normal((64, net.arch.ap_count))
        out, cache = net.forward_cached(x)
        ref_out, ref_cache = skip_mlp_forward(net._views, act, x)
        assert bits_equal(out, ref_out)
        grad = net.backward(cache, dout)
        ref = skip_mlp_backward(net._views, dact, ref_cache, dout)
        for (wsl, bsl, _), (dW, db) in zip(net._layout, ref):
            assert bits_equal(grad[wsl], dW.ravel())
            assert bits_equal(grad[bsl], db)

    def test_stacked_forward(self):
        net = self._net()
        x = np.random.default_rng(14).standard_normal((50, 8, net.arch.input_dim))
        ref_out, _ = skip_mlp_forward(net._views, oracles.ACTIVATIONS["silu"][0], x)
        assert bits_equal(net.forward(x), ref_out)


def make_net(kind, activation):
    if kind == "denoiser":
        arch = DenoiserArch(ap_count=20, cond_freqs=4, time_dim=16, hidden=(128, 64, 128),
                            activation=activation)
        net = DenoiserNetwork.create(arch, 21)
    else:
        net = Mlp.create((30, 64, 48, 2), activation, 21)
    net.theta += np.random.default_rng(22).normal(0, 0.05, net.theta.shape[0])
    return net


def in_out_dims(net):
    shapes = net._layout
    return shapes[0][2][1], shapes[-1][2][0]


@pytest.mark.parametrize("activation", ["silu", "tanh"])
@pytest.mark.parametrize("kind", ["denoiser", "mlp"])
class TestWorkspace:
    """Calls through a reused workspace give the bits of calls with fresh buffers."""

    def _fresh(self, net, x, dout):
        out, cache = net.forward_cached(x)
        return out.copy(), net.backward(cache, dout).copy()

    def _draw(self, net, rng, rows):
        in_dim, out_dim = in_out_dims(net)
        return rng.standard_normal((rows, in_dim)), rng.standard_normal((rows, out_dim))

    def test_dirtied_workspace_equals_fresh(self, kind, activation):
        net = make_net(kind, activation)
        rng = np.random.default_rng(23)
        ws = net.workspace(64)
        x, dout = self._draw(net, rng, 64)
        out, cache = net.forward_cached(x, ws)
        net.backward(cache, dout)
        x, dout = self._draw(net, rng, 64)
        want_out, want_grad = self._fresh(net, x, dout)
        out, cache = net.forward_cached(x, ws)
        assert bits_equal(out, want_out)
        assert bits_equal(net.backward(cache, dout), want_grad)

    def test_partial_last_batch_equals_fresh(self, kind, activation):
        net = make_net(kind, activation)
        rng = np.random.default_rng(24)
        ws = net.workspace(64)
        x, dout = self._draw(net, rng, 64)
        out, cache = net.forward_cached(x, ws)
        net.backward(cache, dout)
        x, dout = self._draw(net, rng, 23)
        want_out, want_grad = self._fresh(net, x, dout)
        out, cache = net.forward_cached(x, ws)
        assert bits_equal(out, want_out)
        assert bits_equal(net.backward(cache, dout), want_grad)
        # full batches still work after the leading rows were used alone
        x, dout = self._draw(net, rng, 64)
        want_out, want_grad = self._fresh(net, x, dout)
        out, cache = net.forward_cached(x, ws)
        assert bits_equal(out, want_out)
        assert bits_equal(net.backward(cache, dout), want_grad)

    def test_stacked_leading_shape_equals_fresh(self, kind, activation):
        net = make_net(kind, activation)
        rng = np.random.default_rng(25)
        in_dim, _ = in_out_dims(net)
        ws = net.workspace((50, 8))
        net.forward_cached(rng.standard_normal((50, 8, in_dim)), ws)
        x = rng.standard_normal((50, 8, in_dim))
        want = net.forward(x)
        got, _ = net.forward_cached(x, ws)
        assert bits_equal(got, want)

    def test_calls_without_a_workspace_alias_nothing(self, kind, activation):
        net = make_net(kind, activation)
        rng = np.random.default_rng(26)
        x1, d1 = self._draw(net, rng, 8)
        x2, d2 = self._draw(net, rng, 8)
        out1, cache1 = net.forward_cached(x1)
        grad1 = net.backward(cache1, d1)
        kept = out1.copy(), grad1.copy()
        out2, cache2 = net.forward_cached(x2)
        net.backward(cache2, d2)
        assert bits_equal(out1, kept[0])
        assert bits_equal(grad1, kept[1])

    def test_input_must_fit_the_workspace(self, kind, activation):
        net = make_net(kind, activation)
        in_dim, _ = in_out_dims(net)
        ws = net.workspace(16)
        with pytest.raises(ShapeError):
            net.forward_cached(np.zeros((17, in_dim)), ws)
        with pytest.raises(ShapeError):
            net.forward_cached(np.zeros((2, 8, in_dim)), ws)
        stacked = net.workspace((2, 8))
        with pytest.raises(ShapeError):
            net.forward_cached(np.zeros((2, 7, in_dim)), stacked)


class TestAllocations:
    def test_reused_workspace_step_allocates_no_layer_array(self):
        # DenoiserArch's default widths (256, 128, 256). The largest allocation
        # left is numpy's ufunc buffer for the broadcast bias add, at most
        # 8,192 float64 (64 KB), half of one (64, 256) layer array.
        arch = DenoiserArch(ap_count=20, cond_freqs=4, time_dim=16)
        net = DenoiserNetwork.create(arch, 27)
        rng = np.random.default_rng(28)
        x = rng.standard_normal((64, arch.input_dim))
        dout = rng.standard_normal((64, arch.ap_count))
        ws = net.workspace(64)

        def step():
            out, cache = net.forward_cached(x, ws)
            net.backward(cache, dout)

        step()  # warm-up: the first backward makes the gradient buffers
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * max(arch.hidden) * 8

    def test_sampler_memory_does_not_grow_with_steps(self):
        arch = DenoiserArch(ap_count=20, cond_freqs=4, time_dim=16, hidden=(128, 64, 128),
                            bounds=(0.0, 0.0, 9.0, 9.0))
        net = DenoiserNetwork.create(arch, 29)
        locs = [Coordinate(float(i), 1.0) for i in range(6)]

        def peak(T):
            schedule = build_schedule(T, 1e-4, 0.02)
            tracemalloc.start()
            try:
                _reverse_diffuse(net, locs, schedule, 8, list(range(6)), 0.1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(5)  # warm-up
        # the time-embedding table, T x time_dim float64, is the only array
        # whose size depends on T
        assert peak(50) <= peak(5) + (50 - 5) * arch.time_dim * 8


class TestMlp:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        mlp = Mlp.create((4, 6, 5, 2), "silu", 7)
        mlp.theta += rng.normal(0, 0.4, mlp.theta.shape[0])
        x = rng.standard_normal((3, 4))
        proj = rng.standard_normal((3, 2))

        def scalar():
            return float(np.sum(proj * mlp.forward(x)))

        out, cache = mlp.forward_cached(x)
        grad = mlp.backward(cache, proj)
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(grad.shape[0]):
            mlp.theta[i] += h
            up = scalar()
            mlp.theta[i] -= 2 * h
            dn = scalar()
            mlp.theta[i] += h
            fd[i] = (up - dn) / (2 * h)
        rel = np.max(np.abs(grad - fd)) / (np.max(np.abs(fd)) + 1e-12)
        assert rel < 1e-6

    def test_shape_validation(self):
        mlp = Mlp.create((4, 3, 2), "silu", 0)
        with pytest.raises(ShapeError):
            mlp.forward(np.zeros((2, 5)))


class TestOptimizers:
    def test_adam_descends_quadratic(self):
        theta = np.array([5.0, -3.0])
        opt = AdamOptimizer(2, lr=0.1)
        for _ in range(500):
            opt.step(theta, 2.0 * theta)
        assert np.all(np.abs(theta) < 1e-2)

    def test_adam_bits_match_reference(self):
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(300)
        ref_theta, ref_m, ref_v = theta.copy(), np.zeros(300), np.zeros(300)
        opt = AdamOptimizer(300, lr=2e-3)
        for t in range(1, 6):
            grad = rng.standard_normal(300) * 10.0 ** rng.integers(-6, 3, 300)
            ref_theta, ref_m, ref_v = adam_step(ref_theta, ref_m, ref_v, grad, t, opt.lr)
            opt.step(theta, grad)
            opt.lr *= 0.98
        for got, want in ((theta, ref_theta), (opt.m, ref_m), (opt.v, ref_v)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSigmoid:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_bits_match_masked_reference_on_random_inputs(self, scale):
        x = np.random.default_rng(1).standard_normal((64, 128)) * scale
        assert np.array_equal(_sigmoid(x).view(np.uint64), masked_sigmoid(x).view(np.uint64))

    def test_bits_match_masked_reference_at_edges(self):
        x = np.array([0.0, -0.0, 745.0, -745.0, 746.0, -746.0, 800.0, -800.0, 1e-300, -1e-300,
                      5e-324, -5e-324, np.inf, -np.inf, np.nan, -np.nan])
        got, want = _sigmoid(x), masked_sigmoid(x)
        # NaN stays NaN; its sign bit carries no meaning
        nan = np.isnan(x)
        assert np.isnan(got[nan]).all()
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))

    def test_reused_buffers_equal_fresh_call(self):
        x = np.random.default_rng(2).standard_normal((64, 128)) * 30.0
        out, scratch = np.full_like(x, np.nan), np.full_like(x, -7.0)
        assert _sigmoid(x, out, scratch) is out
        assert bits_equal(out, _sigmoid(x))


@pytest.fixture
def blas_threads():
    """The process's BLAS thread count getter, with the count set to 2 for the test."""
    api = nets._openblas_threads()
    if not api:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread-count API here")
    get, set_ = api
    before = get()
    set_(2)
    try:
        yield get
    finally:
        set_(before)


class TestBlasThreadPin:
    def _net(self):
        arch = DenoiserArch(ap_count=20, cond_freqs=4, time_dim=16, hidden=(128, 64, 128))
        return DenoiserNetwork.create(arch, 3)

    def test_count_restored_after_forward_backward_and_errors(self, blas_threads):
        net = self._net()
        rng = np.random.default_rng(4)
        x = rng.standard_normal((64, net.arch.input_dim))
        out, cache = net.forward_cached(x)
        assert blas_threads() == 2
        net.backward(cache, rng.standard_normal(out.shape))
        assert blas_threads() == 2
        with pytest.raises(ShapeError):
            net.forward(np.zeros((64, net.arch.input_dim + 1)))
        assert blas_threads() == 2
        _, stacked = net.forward_cached(np.zeros((2, 3, net.arch.input_dim)))
        with pytest.raises(ShapeError):
            net.backward(stacked, np.zeros((2, 3, net.arch.ap_count)))
        assert blas_threads() == 2

    def test_products_run_on_one_thread(self, blas_threads):
        net = self._net()
        act, dact = net._act
        counts = []

        def spy_act(*buffers):
            counts.append(blas_threads())
            act(*buffers)

        def spy_dact(*buffers):
            counts.append(blas_threads())
            dact(*buffers)

        net._act = (spy_act, spy_dact)
        rng = np.random.default_rng(5)
        out, cache = net.forward_cached(rng.standard_normal((64, net.arch.input_dim)))
        net.backward(cache, rng.standard_normal(out.shape))
        # three hidden activations forward, their three derivatives backward
        assert counts == [1] * 6
        assert blas_threads() == 2

    def test_without_a_thread_api_training_runs_unchanged(self, monkeypatch):
        rng = np.random.default_rng(6)
        seen = [Coordinate(float(x), float(y)) for x in range(3) for y in range(3)]
        samples = [Fingerprint(rng.uniform(0.2, 1.0, 5), c) for c in seen for _ in range(4)]
        data = make_dataset(samples, 5, NormalizationParams())
        split = LocationSplit(seen=tuple(seen), unseen=(Coordinate(0.5, 0.5), Coordinate(1.5, 2.5)))
        cfg = DiffusionTrainConfig(T=10, epochs=3, batch_size=8, hidden=(16, 8, 16),
                                   cond_freqs=2, time_dim=4, seed=2)
        pinned = train(data, split, cfg)
        lookups = []

        def no_library():
            lookups.append(1)
            return ()

        monkeypatch.setattr(nets, "_openblas_threads", no_library)
        unpinned = train(data, split, cfg)
        assert lookups
        assert bits_equal(unpinned.network.theta, pinned.network.theta)
        assert unpinned.trace == pinned.trace


class TestOpenblasLookup:
    # numpy 2 wheels, numpy 1 wheels (64-bit ints), a system OpenBLAS
    @pytest.mark.parametrize("pair", [
        ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
        ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
        ("openblas_get_num_threads", "openblas_set_num_threads"),
    ], ids=lambda pair: pair[0])
    def test_each_library_pair_is_found(self, monkeypatch, pair):
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("the lookup reads /proc/self/maps")

        class OnlyThisPair:
            def __init__(self, path):
                for name in pair:
                    setattr(self, name, types.SimpleNamespace(__name__=name))

        monkeypatch.setattr(nets.ctypes, "CDLL", OnlyThisPair)
        api = nets._openblas_threads.__wrapped__()
        assert tuple(f.__name__ for f in api) == pair

    def test_numpy_openblas_exposes_a_known_pair(self, record_property):
        blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
        name = str(blas.get("name", ""))
        if "openblas" not in name or not os.path.exists("/proc/self/maps"):
            pytest.skip(f"numpy's BLAS is {name or 'unknown'}, or there is no /proc/self/maps")
        api = nets._openblas_threads()
        assert api, f"numpy links {name} {blas.get('version')}, but no thread-count pair was found"
        found = tuple(f.__name__ for f in api)
        record_property("openblas_thread_api", " ".join(found))
        assert found in nets._OPENBLAS_THREAD_SYMBOLS
