import numpy as np
import pytest

from fpsynth.baselines import interpolate_locations
from fpsynth.dataset import Coordinate, FingerprintDataset, NormalizationParams
from fpsynth.errors import SizeError
from oracles import interpolate_add_at, spatial_interpolate


def seen_ds(rss, locs, index=None):
    """Row i of `rss` at the (x, y) pair `locs[index[i]]`; by default one row per location."""
    index = np.arange(len(locs)) if index is None else index
    return FingerprintDataset(
        np.array(rss, dtype=float), index, tuple(Coordinate(*xy) for xy in locs),
        NormalizationParams(),
    )


class TestInterpolator:
    def test_coinciding_target_returns_location_mean(self):
        ds = seen_ds([[0.2], [0.4], [0.9]], [(0.0, 0.0), (4.0, 0.0)], [0, 0, 1])
        rss = interpolate_locations(ds, [Coordinate(0.0, 0.0)], k=2)[0]
        assert rss[0] == pytest.approx(0.3)

    def test_symmetric_idw(self):
        ds = seen_ds([[0.2], [0.6]], [(0.0, 0.0), (2.0, 0.0)])
        rss = interpolate_locations(ds, [Coordinate(1.0, 0.0)], k=2)[0]
        assert rss[0] == pytest.approx(0.4)

    def test_convex_combination_bounds(self):
        rng = np.random.default_rng(0)
        rss = [rng.uniform(0.15, 1.0, 3) for _ in range(9)]
        ds = seen_ds(rss, [(float(i % 3), float(i // 3)) for i in range(9)])
        targets = [Coordinate(*(rng.random(2) * 2)) for _ in range(20)]
        out = interpolate_locations(ds, targets, k=3)
        mat = ds.rss
        assert np.all(out <= mat.max(axis=0) + 1e-12)
        # entries below the floor snap to zero, otherwise convexity holds
        assert np.all((out == 0.0) | (out >= mat.min(axis=0) - 1e-12))

    def test_single_location_everywhere(self):
        ds = seen_ds([[0.5], [0.7]], [(0.0, 0.0)], [0, 0])
        out = interpolate_locations(ds, [Coordinate(10.0, 3.0), Coordinate(-5.0, 2.0)], k=1)
        assert out[:, 0] == pytest.approx([0.6, 0.6])

    def test_weak_blend_snaps_to_zero(self):
        # blending 0 (absent) with a weak detection can fall under the floor
        ds = seen_ds([[0.0], [0.12]], [(0.0, 0.0), (2.0, 0.0)])
        assert interpolate_locations(ds, [Coordinate(1.0, 0.0)], k=2)[0, 0] == 0.0

    def test_too_few_locations(self):
        ds = seen_ds([[0.5]], [(0.0, 0.0)])
        with pytest.raises(SizeError):
            interpolate_locations(ds, [Coordinate(1.0, 1.0)], k=2)


class TestInterpolateLocations:
    def test_equals_per_sample_oracle(self):
        # samples of a location are scattered through the dataset, some
        # entries are 0, and two targets coincide with seen locations
        rng = np.random.default_rng(7)
        locs = [(float(x), float(y)) for x in range(4) for y in range(3)]
        index = rng.integers(0, len(locs), 60)
        rss = [np.where(rng.random(5) < 0.3, 0.0, rng.uniform(0.1, 1.0, 5)) for _ in index]
        ds = seen_ds(rss, locs, index)
        targets = [Coordinate(*(rng.random(2) * 3)) for _ in range(15)]
        targets += [Coordinate(2.0, 1.0), Coordinate(0.0, 0.0)]
        got = interpolate_locations(ds, targets, k=3)
        assert got.shape == (len(targets), 5)
        for row, target in zip(got, targets):
            assert np.array_equal(row, spatial_interpolate(ds, target, 3))
            # a target's row does not depend on the other targets in the call
            assert np.array_equal(row, interpolate_locations(ds, [target], 3)[0])

    def test_location_sums_equal_np_add_at(self):
        # interleaved locations with 1 to 9 samples each; many summands per
        # location, so a sum in another order would show in the last bits
        rng = np.random.default_rng(11)
        counts = [9, 1, 4, 7, 2, 9, 5]
        index = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        locs = [(float(i % 3), float(i // 3)) for i in range(len(counts))]
        ds = seen_ds(rng.uniform(0.1, 1.0, (len(index), 40)), locs, index)
        # targets at the seen locations return their means
        targets = [Coordinate(*xy) for xy in locs] + [Coordinate(*(rng.random(2) * 2)) for _ in range(9)]
        for k in (1, 3):
            got = interpolate_locations(ds, targets, k)
            assert got.tobytes() == interpolate_add_at(ds, targets, k).tobytes()

    @pytest.mark.parametrize("k", [1, 3, 4, 8])
    def test_lattice_ties_and_blocks_equal_the_oracle(self, k):
        # A shuffled 20 x 20 lattice, so the dataset's location order is not
        # the (x, y) order ties break in. Cell centres are four-way ties,
        # lattice points coincide with a location, and 150 targets take three
        # query blocks.
        rng = np.random.default_rng(11)
        lattice = [(float(x), float(y)) for x in range(20) for y in range(20)]
        locs = [lattice[i] for i in rng.permutation(len(lattice))]
        index = np.concatenate([np.arange(len(locs)), np.arange(50)])
        ds = seen_ds([rng.uniform(0.1, 1.0, 4) for _ in index], locs, index)
        cells = rng.integers(0, 19, (50, 2))
        targets = [Coordinate(x + 0.5, y + 0.5) for x, y in cells.tolist()]
        targets += [Coordinate(*locs[i]) for i in rng.integers(0, len(locs), 50)]
        targets += [Coordinate(*(rng.random(2) * 21 - 1)) for _ in range(50)]
        got = interpolate_locations(ds, targets, k)
        for row, target in zip(got, targets):
            assert np.array_equal(row, spatial_interpolate(ds, target, k))
