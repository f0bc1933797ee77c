import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpsynth.dataset import Coordinate
from fpsynth.diffusion import (
    LossBatch,
    VicinityKernel,
    _weighted_loss_and_grad,
    build_schedule,
    embed_condition,
    embed_time_table,
    forward_diffuse,
    spatial_loss,
    spatial_loss_and_grad,
)
from fpsynth.errors import ConfigError, RangeError, ShapeError
from fpsynth.nets import DenoiserArch, DenoiserNetwork
from oracles import pair_batch


class TestSchedule:
    def test_single_step(self):
        s = build_schedule(1, 0.3, 0.9)
        assert s.betas.tolist() == [0.3]
        assert s.alpha_bars.tolist() == [pytest.approx(0.7)]

    def test_default_terminal_alpha_bar(self):
        # independent oracle: plain-Python product over the linear grid
        T, b0, b1 = 200, 1e-4, 0.02
        prod = 1.0
        for i in range(T):
            prod *= 1.0 - (b0 + (b1 - b0) * i / (T - 1))
        s = build_schedule(T, b0, b1)
        assert s.alpha_bars[-1] == pytest.approx(prod, rel=1e-12)
        assert s.alpha_bars[-1] == pytest.approx(0.134, abs=2e-3)

    @given(
        st.integers(2, 500),
        st.floats(min_value=1e-5, max_value=0.1),
        st.floats(min_value=0.1, max_value=0.5),
    )
    def test_alpha_bars_strictly_decreasing(self, T, b0, b1):
        s = build_schedule(T, b0, b1)
        assert np.all(np.diff(s.alpha_bars) < 0)

    def test_rejects_bad_endpoints(self):
        for args in [(10, 0.0, 0.1), (10, 0.2, 0.1), (10, 0.1, 1.0), (0, 0.1, 0.2)]:
            with pytest.raises(ConfigError):
                build_schedule(*args)


class TestForwardDiffuse:
    def test_zero_signal(self):
        s = build_schedule(10, 1e-3, 0.1)
        eps = np.ones(4)
        out = forward_diffuse(np.zeros(4), 5, eps, s)
        assert out == pytest.approx(np.sqrt(1 - s.alpha_bars[4]) * eps)

    def test_structure(self):
        s = build_schedule(10, 1e-3, 0.1)
        m0 = np.array([1.0, 0.5])
        eps = np.array([0.3, -0.2])
        t = 7
        expected = np.sqrt(s.alpha_bars[6]) * m0 + np.sqrt(1 - s.alpha_bars[6]) * eps
        assert forward_diffuse(m0, t, eps, s) == pytest.approx(expected)

    def test_index_out_of_range(self):
        s = build_schedule(10, 1e-3, 0.1)
        for t in (0, 11):
            with pytest.raises(RangeError):
                forward_diffuse(np.zeros(2), t, np.zeros(2), s)

    def test_marginal_statistics(self):
        s = build_schedule(200, 1e-4, 0.02)
        m0 = np.array([1.0, -1.0, 0.5])
        rng = np.random.default_rng(0)
        t = 50
        draws = np.array([
            forward_diffuse(m0, t, rng.standard_normal(3), s) for _ in range(20_000)
        ])
        ab = s.alpha_bars[t - 1]
        assert draws.mean(axis=0) == pytest.approx(np.sqrt(ab) * m0, abs=0.02)
        assert draws.var(axis=0) == pytest.approx((1 - ab) * np.ones(3), rel=0.05)


class TestVicinityKernel:
    def test_zero_distance_gives_one(self):
        k = VicinityKernel(2.0)
        c = Coordinate(1.0, 1.0)
        assert k.weight(c.distance_to(c)) == 1.0

    def test_gaussian_at_sigma(self):
        k = VicinityKernel(3.0)
        assert k.weight(Coordinate(0, 0).distance_to(Coordinate(3.0, 0.0))) == pytest.approx(
            math.exp(-0.5)
        )

    def test_small_sigma_weight_underflows_to_zero(self):
        # the cut-off a CoverageError guards: at sigma_w = 0.1 the weight
        # reaches exactly 0.0 between 3.85 and 3.9 m
        k = VicinityKernel(0.1)
        assert k.weight(3.85) > 0.0
        assert k.weight(3.9) == 0.0

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=0.5, max_value=10.0))
    def test_gaussian_non_increasing(self, d, sigma):
        k = VicinityKernel(sigma)
        assert k.weight(d) >= k.weight(d + 0.7)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=8),
        st.floats(min_value=0.5, max_value=5.0),
    )
    def test_doubling_sigma_never_decreases_weights(self, ds, sigma):
        d = np.array(ds)
        assert np.all(VicinityKernel(2 * sigma).weight(d) >= VicinityKernel(sigma).weight(d))

    def test_validation(self):
        with pytest.raises(ConfigError):
            VicinityKernel(0.0)


class TestEmbeddings:
    BOUNDS = (0.0, 0.0, 10.0, 20.0)

    def test_condition_at_bounds_minimum(self):
        emb = embed_condition(Coordinate(0.0, 0.0), self.BOUNDS, n_freqs=2)
        # scaled (0,0): raw features 0,0 then sin0/cos0 pairs per frequency
        assert emb == pytest.approx(np.array([0, 0, 0, 1, 0, 1, 0, 1, 0, 1]), abs=1e-15)

    def test_condition_injective_on_grid(self):
        locs = [Coordinate(float(x), float(y)) for x in range(5) for y in range(5)]
        embs = {tuple(embed_condition(c, self.BOUNDS, 4)) for c in locs}
        assert len(embs) == len(locs)

    def test_condition_deterministic(self):
        c = Coordinate(3.3, 7.7)
        a = embed_condition(c, self.BOUNDS, 4)
        assert np.array_equal(a, embed_condition(c, self.BOUNDS, 4))

    def test_degenerate_bounds(self):
        with pytest.raises(ConfigError):
            embed_condition(Coordinate(0, 0), (0.0, 0.0, 0.0, 5.0), 2)

    def test_time_deterministic_and_distinct(self):
        T = 100
        table = embed_time_table(T, 8)
        assert table.shape == (T, 8)
        assert len({tuple(row) for row in table}) == T
        assert np.array_equal(table, embed_time_table(T, 8))

    def test_time_range(self):
        table = embed_time_table(200, 16)
        assert np.all((table >= -1.0) & (table <= 1.0))

    def test_time_out_of_range(self):
        # a step outside [1, T] is rejected before it can index the time table
        arch = small_arch()
        net = DenoiserNetwork.zeros(arch)
        s = build_schedule(10, 1e-3, 0.05)
        batch = random_batch(np.random.default_rng(0), arch, s.T, b=2)
        for t in (0, 11):
            with pytest.raises(RangeError):
                spatial_loss(net, replace(batch, t=np.array([1, t])), VicinityKernel(1.0), s)


def small_arch(**kw):
    defaults = dict(ap_count=6, cond_freqs=1, time_dim=4, hidden=(8, 4, 8), bounds=(0, 0, 10, 10))
    defaults.update(kw)
    return DenoiserArch(**defaults)


def denoiser_input(arch, schedule, t, cond, mt):
    """One assembled (noisy fingerprint, condition, time embedding) input row."""
    temb = embed_time_table(schedule.T, arch.time_dim)[t - 1]
    return np.concatenate([mt, cond, temb])[None, :]


def random_batch(rng, arch, T, b=5):
    return LossBatch(
        m0=rng.random((b, arch.ap_count)),
        seen_locs=rng.random((b, 2)) * 10,
        cond_locs=rng.random((b, 2)) * 10,
        t=rng.integers(1, T + 1, b),
        eps=rng.standard_normal((b, arch.ap_count)),
    )


class TestDenoiserForward:
    def test_zero_network_outputs_zero(self):
        arch = small_arch()
        net = DenoiserNetwork.zeros(arch)
        s = build_schedule(20, 1e-3, 0.05)
        cond = embed_condition(Coordinate(2.0, 3.0), arch.bounds, arch.cond_freqs)
        out = net.forward(denoiser_input(arch, s, 3, cond, np.ones(6)))
        assert np.array_equal(out, np.zeros((1, 6)))

    def test_deterministic_and_shape(self):
        arch = small_arch()
        net = DenoiserNetwork.create(arch, seed=0)
        s = build_schedule(20, 1e-3, 0.05)
        cond = embed_condition(Coordinate(2.0, 3.0), arch.bounds, arch.cond_freqs)
        a = net.forward(denoiser_input(arch, s, 5, cond, np.full(6, 0.4)))
        b = net.forward(denoiser_input(arch, s, 5, cond, np.full(6, 0.4)))
        assert np.array_equal(a, b)
        assert a.shape == (1, 6)
        assert np.all(np.isfinite(a))

    def test_shape_mismatch(self):
        arch = small_arch()
        net = DenoiserNetwork.zeros(arch)
        s = build_schedule(20, 1e-3, 0.05)
        # a condition or fingerprint of the wrong length gives a row of the wrong width
        with pytest.raises(ShapeError):
            net.forward(denoiser_input(arch, s, 1, np.zeros(3), np.zeros(6)))
        with pytest.raises(ShapeError):
            net.forward(denoiser_input(arch, s, 1, np.zeros(arch.cond_dim), np.zeros(5)))


class TestSpatialLoss:
    def test_oracle_denoiser_gives_zero(self):
        arch = small_arch()
        s = build_schedule(20, 1e-3, 0.05)
        c = np.array([0.2, 0.9, 0.4, 0.0, 0.6, 0.3])
        net = DenoiserNetwork.constant_output(arch, c)
        batch = LossBatch(
            m0=np.tile(c, (4, 1)),
            seen_locs=np.zeros((4, 2)),
            cond_locs=np.zeros((4, 2)),
            t=np.array([1, 5, 10, 20]),
            eps=np.random.default_rng(0).standard_normal((4, 6)),
        )
        assert spatial_loss(net, batch, VicinityKernel(1.0), s) == 0.0

    def test_unit_weight_residual_example(self):
        # single pair with w=1 (distance 0) and residual (0.3, -0.4) -> 0.25
        arch = small_arch(ap_count=2, hidden=(4, 3, 4))
        s = build_schedule(5, 1e-3, 0.05)
        target = np.array([[0.5, 0.9]])
        net = DenoiserNetwork.constant_output(arch, np.array([0.8, 0.5]))
        batch = LossBatch(
            m0=target,
            seen_locs=np.array([[2.0, 2.0]]),
            cond_locs=np.array([[2.0, 2.0]]),
            t=np.array([3]),
            eps=np.zeros((1, 2)),
        )
        assert spatial_loss(net, batch, VicinityKernel(1.0), s) == pytest.approx(0.25)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        arch = small_arch()
        net = DenoiserNetwork.create(arch, 1)
        s = build_schedule(30, 1e-3, 0.05)
        for _ in range(10):
            batch = random_batch(rng, arch, s.T)
            assert spatial_loss(net, batch, VicinityKernel(2.0), s) >= 0.0

    def test_doubling_sigma_never_decreases_loss(self):
        rng = np.random.default_rng(8)
        arch = small_arch()
        net = DenoiserNetwork.create(arch, 2)
        s = build_schedule(30, 1e-3, 0.05)
        for _ in range(10):
            batch = random_batch(rng, arch, s.T)
            l1 = spatial_loss(net, batch, VicinityKernel(1.5), s)
            l2 = spatial_loss(net, batch, VicinityKernel(3.0), s)
            assert l2 >= l1

    def test_weight_maximal_at_nearest_seen(self):
        kernel = VicinityKernel(2.0)
        rng = np.random.default_rng(3)
        for _ in range(20):
            unseen = Coordinate(*rng.random(2) * 10)
            seens = [Coordinate(*rng.random(2) * 10) for _ in range(6)]
            ws = [kernel.weight(unseen.distance_to(s)) for s in seens]
            ds = [unseen.distance_to(s) for s in seens]
            assert np.argmax(ws) == np.argmin(ds)
            order = np.argsort(ds)
            assert all(ws[order[i]] >= ws[order[i + 1]] for i in range(5))

    def test_pair_batch_enumerates_full_sum(self):
        rng = np.random.default_rng(5)
        arch = small_arch()
        net = DenoiserNetwork.create(arch, 6)
        s = build_schedule(10, 1e-3, 0.05)
        n, u = 3, 2
        m0 = rng.random((n, arch.ap_count))
        seen = rng.random((n, 2)) * 10
        unseen = rng.random((u, 2)) * 10
        t = rng.integers(1, 11, n)
        eps = rng.standard_normal((n, arch.ap_count))
        batch = pair_batch(m0, seen, unseen, t, eps)
        kernel = VicinityKernel(2.0)
        total = spatial_loss(net, batch, kernel, s) * (n * u)
        manual = 0.0
        for i in range(u):
            for j in range(n):
                single = LossBatch(
                    m0=m0[j : j + 1],
                    seen_locs=seen[j : j + 1],
                    cond_locs=unseen[i : i + 1],
                    t=t[j : j + 1],
                    eps=eps[j : j + 1],
                )
                manual += spatial_loss(net, single, kernel, s)
        assert total == pytest.approx(manual, rel=1e-9)


class TestGradient:
    def _rel_err(self, a, b):
        return np.max(np.abs(a - b)) / (np.max(np.abs(a)) + np.max(np.abs(b)) + 1e-12)

    def test_gradient_matches_finite_differences(self):
        arch = small_arch()
        assert arch.param_count <= 1000
        s = build_schedule(25, 1e-3, 0.05)
        kernel = VicinityKernel(2.5)
        rng = np.random.default_rng(12)
        for trial in range(5):
            net = DenoiserNetwork.create(arch, trial)
            net.theta += rng.normal(0, 0.3, arch.param_count)
            batch = random_batch(rng, arch, s.T, b=4)
            _, grad = spatial_loss_and_grad(net, batch, kernel, s)
            h = 1e-6
            fd = np.zeros_like(grad)
            for i in range(arch.param_count):
                net.theta[i] += h
                up = spatial_loss(net, batch, kernel, s)
                net.theta[i] -= 2 * h
                dn = spatial_loss(net, batch, kernel, s)
                net.theta[i] += h
                fd[i] = (up - dn) / (2 * h)
            assert self._rel_err(grad, fd) < 1e-4

    def test_gradient_with_weight_override(self):
        # importance weights in place of kernel weights: the path train() runs
        arch = small_arch()
        s = build_schedule(25, 1e-3, 0.05)
        rng = np.random.default_rng(3)
        net = DenoiserNetwork.create(arch, 9)
        net.theta += rng.normal(0, 0.3, arch.param_count)
        batch = random_batch(rng, arch, s.T, b=3)
        w = np.array([2.0, 0.5, 1.5])
        x = np.concatenate(
            [
                np.sqrt(s.alpha_bars[batch.t - 1])[:, None] * batch.m0
                + np.sqrt(1 - s.alpha_bars[batch.t - 1])[:, None] * batch.eps,
                np.stack([embed_condition(Coordinate(*c), arch.bounds, 1) for c in batch.cond_locs]),
                embed_time_table(s.T, 4)[batch.t - 1],
            ],
            axis=1,
        )

        def manual():
            return float(np.mean(w * np.sum((net.forward(x) - batch.m0) ** 2, axis=1)))

        loss, grad = _weighted_loss_and_grad(net, x, batch.m0, w)
        assert loss == pytest.approx(manual(), rel=1e-12)
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(arch.param_count):
            net.theta[i] += h
            up = manual()
            net.theta[i] -= 2 * h
            dn = manual()
            net.theta[i] += h
            fd[i] = (up - dn) / (2 * h)
        assert self._rel_err(grad, fd) < 1e-4
