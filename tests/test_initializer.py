import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsynth.dataset import Coordinate, distances
from fpsynth.errors import ConsistencyError, ParseError, SizeError
from fpsynth.initializer import (
    DensityParams,
    LocationSplit,
    load_split,
    neighbor_density,
    save_split,
    select_unseen_density,
    select_unseen_grid,
    select_unseen_random,
)
from oracles import brute_density_split, brute_knn_densities, rerank_density_split


def line_points(n):
    return [Coordinate(float(i), 0.0) for i in range(n)]


coord_sets = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=4,
    max_size=12,
    unique=True,
).map(lambda pts: [Coordinate(x * 0.5, y * 0.5) for x, y in pts])


@st.composite
def lattice_sets(draw):
    # A subset of a w x h integer lattice (up to 100 points): many exact
    # density ties and many removals at exactly a row's k-th distance.
    w, h = draw(st.integers(3, 10)), draw(st.integers(3, 10))
    share = draw(st.sampled_from([1.0, 0.9, 0.7, 0.5]))
    rnd = draw(st.randoms(use_true_random=False))
    cells = itertools.product(range(w), range(h))
    return [Coordinate(float(x), float(y)) for x, y in cells if rnd.random() < share]


def test_distance_matrix_bits_match_the_formula():
    # the distance matrix the density split ranks, against the scalar
    # Coordinate.distance_to, pair by pair
    xy = np.random.default_rng(2).random((60, 2)) * 30.0 - 15.0
    xy[:4] = [[-0.0, 0.0], [0.0, -0.0], [-0.0, 3.0], [4.0, -0.0]]
    pts = [Coordinate(x, y) for x, y in xy.tolist()]
    want = np.array([[p.distance_to(q) for q in pts] for p in pts])
    assert distances(xy[:, None], xy[None]).tobytes() == want.tobytes()
    assert distances(xy[None], xy[:, None]).tobytes() == want.tobytes()  # swapped
    assert distances(xy[7:40, None], xy[None]).tobytes() == want[7:40].tobytes()
    paired = distances(xy[:30], xy[30:])
    assert paired.tobytes() == np.diagonal(want[:30, 30:]).tobytes()
    assert distances(xy[30:], xy[:30]).tobytes() == paired.tobytes()
    # integer coordinates give float64, bit-equal to their float twins
    ints = np.random.default_rng(3).integers(-50, 50, (25, 2))
    got = distances(ints[:, None], ints[None])
    assert got.dtype == np.float64
    ipts = [Coordinate(x, y) for x, y in ints.tolist()]
    assert got.tobytes() == np.array([[p.distance_to(q) for q in ipts] for p in ipts]).tobytes()


def test_integer_coordinates_equal_their_float_twins():
    cells = [(0, 0), (1, 0), (3, 0), (0, 2), (5, 5), (2, 7), (6, 1), (4, 4)]
    ints = [Coordinate(x, y) for x, y in cells]
    floats = [Coordinate(float(x), float(y)) for x, y in cells]
    assert neighbor_density(ints[:3], k=1) == [1.0, 1.0, 2.0]
    assert neighbor_density(ints, k=2) == neighbor_density(floats, k=2)
    params = DensityParams(k_neighbors=2, batch_per_iteration=1)
    assert select_unseen_density(ints, 4, params) == select_unseen_density(floats, 4, params)


class TestNeighborDensity:
    def test_collinear_example(self):
        dens = neighbor_density(line_points(5), k=2)
        assert dens == pytest.approx([1.5, 1.0, 1.0, 1.0, 1.5])

    def test_two_points_single_neighbor(self):
        pts = [Coordinate(0.0, 0.0), Coordinate(3.0, 4.0)]
        assert neighbor_density(pts, k=1) == pytest.approx([5.0, 5.0])

    @given(coord_sets)
    def test_k1_is_nearest_neighbor_distance(self, pts):
        dens = neighbor_density(pts, k=1)
        for i, p in enumerate(pts):
            nn = min(p.distance_to(q) for j, q in enumerate(pts) if j != i)
            assert dens[i] == pytest.approx(nn, abs=1e-12)

    @given(coord_sets, st.integers(1, 3))
    def test_matches_brute_force_oracle(self, pts, k):
        if len(pts) <= k:
            return
        dens = neighbor_density(pts, k)
        oracle = brute_knn_densities([(p.x, p.y) for p in pts], k)
        assert dens == oracle

    @given(coord_sets, st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, pts, rnd):
        k = 2
        dens = neighbor_density(pts, k)
        perm = list(range(len(pts)))
        rnd.shuffle(perm)
        shuffled = [pts[i] for i in perm]
        dens_shuffled = neighbor_density(shuffled, k)
        for out_i, src_i in enumerate(perm):
            assert dens_shuffled[out_i] == dens[src_i]

    def test_too_few_points(self):
        with pytest.raises(SizeError):
            neighbor_density(line_points(3), k=3)

    def test_duplicate_points_rejected(self):
        with pytest.raises(ConsistencyError):
            neighbor_density([Coordinate(0, 0), Coordinate(0, 0), Coordinate(1, 0)], k=1)


class TestDensitySelection:
    def test_collinear_tie_break(self):
        # densities [1.5, 1, 1, 1, 1.5]; tie among x=1,2,3 -> lexicographic picks x=1
        split = select_unseen_density(line_points(5), 1, DensityParams(k_neighbors=2))
        assert split.unseen == (Coordinate(1.0, 0.0),)

    def test_zero_unseen(self):
        pts = line_points(6)
        split = select_unseen_density(pts, 0, DensityParams(k_neighbors=2))
        assert split.unseen == ()
        assert set(split.seen) == set(pts)

    def test_deterministic(self):
        pts = [Coordinate(x * 0.7, (x * x % 5) * 1.3) for x in range(9)]
        a = select_unseen_density(pts, 4)
        b = select_unseen_density(pts, 4)
        assert a == b

    def test_too_many_unseen(self):
        with pytest.raises(SizeError):
            select_unseen_density(line_points(6), 3, DensityParams(k_neighbors=3))

    def test_partition_property(self):
        pts = line_points(10)
        split = select_unseen_density(pts, 5, DensityParams(k_neighbors=2))
        assert set(split.seen) | set(split.unseen) == set(pts)
        assert not set(split.seen) & set(split.unseen)

    @settings(max_examples=60, deadline=None)
    @given(coord_sets, st.integers(1, 3), st.integers(1, 3), st.data())
    def test_matches_brute_force(self, pts, k, batch, data):
        max_unseen = len(pts) - (k + 1)
        if max_unseen < 0:
            return
        n_unseen = data.draw(st.integers(0, max_unseen))
        split = select_unseen_density(pts, n_unseen, DensityParams(k, batch))
        seen_o, unseen_o = brute_density_split(
            [(p.x, p.y) for p in pts], n_unseen, k, batch
        )
        assert [(c.x, c.y) for c in split.unseen] == unseen_o
        assert [(c.x, c.y) for c in split.seen] == seen_o

    @pytest.mark.parametrize("batch", [1, 3])
    def test_survey_grid_equals_full_rerank(self, batch):
        # the survey benchmark's locations: a 20 x 20 grid at 5 m, 200 unseen
        pts = [Coordinate(x * 5.0, y * 5.0) for x in range(20) for y in range(20)]
        split = select_unseen_density(pts, 200, DensityParams(3, batch))
        seen_o, unseen_o = rerank_density_split(pts, 200, 3, batch)
        assert list(split.unseen) == unseen_o
        assert list(split.seen) == seen_o

    @settings(max_examples=40, deadline=None)
    @given(lattice_sets(), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_lattice_matches_brute_force(self, pts, k, batch, data):
        max_unseen = len(pts) - (k + 1)
        if max_unseen < 0:
            return
        n_unseen = data.draw(st.integers(max_unseen // 2, max_unseen))
        split = select_unseen_density(pts, n_unseen, DensityParams(k, batch))
        seen_o, unseen_o = brute_density_split([(p.x, p.y) for p in pts], n_unseen, k, batch)
        assert [(c.x, c.y) for c in split.unseen] == unseen_o
        assert [(c.x, c.y) for c in split.seen] == seen_o

    def test_removal_locality(self):
        # removing a point changes densities only where it was a k-neighbor
        pts = [Coordinate(float(x), float(y)) for x, y in
               [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6), (6, 6)]]
        k = 2
        before = dict(zip(pts, neighbor_density(pts, k)))
        removed = pts[0]
        rest = pts[1:]
        after = dict(zip(rest, neighbor_density(rest, k)))
        for p in rest:
            ds = sorted(p.distance_to(q) for q in pts if q != p)
            was_neighbor = removed.distance_to(p) <= ds[k - 1]
            if not was_neighbor:
                assert after[p] == before[p]


class TestRandomSelection:
    def test_boundary_one_seen(self):
        pts = line_points(5)
        split = select_unseen_random(pts, 4, seed=0)
        assert len(split.seen) == 1

    def test_seed_determinism(self):
        pts = line_points(8)
        assert select_unseen_random(pts, 3, seed=9) == select_unseen_random(pts, 3, seed=9)
        assert select_unseen_random(pts, 3, seed=9) != select_unseen_random(pts, 3, seed=10)

    def test_uniform_pair_frequency(self):
        # |points|=5, n_unseen=2: each pair has probability 1/C(5,2) = 0.1
        pts = line_points(5)
        counts = {}
        for seed in range(10_000):
            split = select_unseen_random(pts, 2, seed=seed)
            key = tuple(sorted((c.x for c in split.unseen)))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 10
        for key, n in counts.items():
            assert n / 10_000 == pytest.approx(0.1, abs=0.02)


class TestGridSelection:
    def test_all_seen(self):
        pts = [Coordinate(float(x), float(y)) for x, y in [(0, 0), (0, 1), (1, 0), (1, 1)]]
        split = select_unseen_grid(pts, 0)
        assert set(split.seen) == set(pts)

    def test_3x3_hand_trace(self):
        # n_seen=4 -> 2x2 cells over [0,2]^2; nearest to each center with
        # lexicographic ties -> (0,0), (1,0), (0,1), (1,1)
        pts = [Coordinate(float(x), float(y)) for x, y in itertools.product(range(3), range(3))]
        split = select_unseen_grid(pts, 5)
        expected = {Coordinate(0.0, 0.0), Coordinate(1.0, 0.0), Coordinate(0.0, 1.0), Coordinate(1.0, 1.0)}
        assert set(split.seen) == expected

    def test_deterministic(self):
        pts = [Coordinate(x * 1.1, (x * 3 % 7) * 0.9) for x in range(11)]
        assert select_unseen_grid(pts, 6) == select_unseen_grid(pts, 6)

    def test_partition(self):
        pts = [Coordinate(x * 1.1, (x * 3 % 7) * 0.9) for x in range(11)]
        split = select_unseen_grid(pts, 6)
        assert set(split.seen) | set(split.unseen) == set(pts)
        assert len(split.seen) == 5


class TestSplitType:
    def test_requires_seen(self):
        with pytest.raises(SizeError):
            LocationSplit(seen=(), unseen=(Coordinate(0, 0),))

    def test_rejects_overlap(self):
        c = Coordinate(0, 0)
        with pytest.raises(ConsistencyError):
            LocationSplit(seen=(c,), unseen=(c,))

    def test_file_round_trip(self, tmp_path):
        split = LocationSplit(
            seen=(Coordinate(0.5, 1.25), Coordinate(38.88888888888889, 2.0)),
            unseen=(Coordinate(3.0, 4.0),),
        )
        path = tmp_path / "split.csv"
        save_split(split, path)
        assert load_split(path) == split

    def test_load_rejects_bad_role(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,role\n0,0,visible\n")
        with pytest.raises(ParseError):
            load_split(path)
