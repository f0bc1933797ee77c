import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpsynth.dataset import Coordinate, FingerprintDataset, merge_datasets
from fpsynth.errors import ConfigError, ConsistencyError
from fpsynth.initializer import LocationSplit
from fpsynth.synthesizer import AugmentationConfig, _drop_weak, _jitter, augment_seen
from oracles import augment_replicas

rss_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=1.0)),
    min_size=1,
    max_size=12,
).map(lambda v: np.array(v))


class TestNoise:
    """`_jitter(rss, noise, sigma, floor)` turns the standard normal `noise` into a replica."""

    def test_zero_sigma_is_identity(self):
        rss = np.array([0.0, 0.5, 1.0])
        noise = np.random.default_rng(0).standard_normal(3)
        _jitter(rss, noise, 0.0, 0.1)
        assert np.array_equal(noise, rss)

    def test_all_zero_stays_zero(self):
        noise = np.random.default_rng(0).standard_normal(5)
        _jitter(np.zeros(5), noise, 0.3, 0.1)
        assert np.array_equal(noise, np.zeros(5))

    def test_noise_statistics(self):
        # 10^5 replicas of a detected entry at 0.5 with sigma 0.05: clamping negligible
        draws = np.random.default_rng(7).standard_normal(100_000)
        _jitter(np.array([0.5]), draws, 0.05, 0.1)
        assert draws.mean() == pytest.approx(0.5, abs=0.001)
        assert draws.std() == pytest.approx(0.05, abs=0.002)

    @given(rss_vectors)
    def test_preserves_zero_set_and_range(self, rss):
        out = np.random.default_rng(3).standard_normal(rss.shape)
        _jitter(rss, out, 0.1, 0.1)
        zero_in = rss == 0.0
        assert np.array_equal(out[zero_in], np.zeros(zero_in.sum()))
        detected = out[~zero_in]
        assert np.all((detected >= 0.1) & (detected <= 1.0))


class TestDropout:
    """`_drop_weak(rss, threshold)` zeroes weak detected entries in place."""

    def test_zero_threshold_is_identity(self):
        rss = np.array([0.0, 0.12, 0.5])
        _drop_weak(rss, 0.0)
        assert rss.tolist() == [0.0, 0.12, 0.5]

    def test_direct_application(self):
        rss = np.array([0.0, 0.12, 0.5])
        _drop_weak(rss, 0.2)
        assert rss.tolist() == [0.0, 0.0, 0.5]

    @given(rss_vectors, st.floats(min_value=0.0, max_value=0.99))
    def test_idempotent(self, rss, threshold):
        _drop_weak(rss, threshold)
        once = rss.copy()
        _drop_weak(rss, threshold)
        assert np.array_equal(once, rss)

    def test_blocks_equal_one_pass_and_keep_non_positive_entries(self):
        # three and a bit value blocks; -0.0 and negative entries are not detected readings
        rng = np.random.default_rng(9)
        rss = rng.choice([0.0, -0.0, -0.3, 0.1, 0.15, 0.2, 0.25, 0.8], size=3 * (1 << 16) + 5)
        expected = np.where((rss > 0.0) & (rss < 0.2), 0.0, rss)
        _drop_weak(rss, 0.2)
        assert rss.tobytes() == expected.tobytes()


def _split_of(dataset, n_unseen):
    locs = list(dataset.locations)
    return LocationSplit(seen=tuple(locs[n_unseen:]), unseen=tuple(locs[:n_unseen]))


class TestAugmentSeen:
    def test_zero_replicas_passthrough(self, tiny_dataset):
        split = _split_of(tiny_dataset, 1)
        cfg = AugmentationConfig(replicas_per_sample=0)
        out = augment_seen(tiny_dataset, split, cfg)
        kept = tiny_dataset.rss[tiny_dataset.located_in(split.seen)]
        assert len(out) == len(kept)
        assert np.array_equal(out.rss, kept)

    def test_output_size_arithmetic(self, tiny_dataset):
        split = _split_of(tiny_dataset, 2)
        out = augment_seen(tiny_dataset, split, AugmentationConfig(replicas_per_sample=4))
        # 2 seen locations x 2 samples x (1 + 4)
        assert len(out) == 4 * 5

    def test_outputs_only_at_seen_locations(self, tiny_dataset):
        split = _split_of(tiny_dataset, 2)
        out = augment_seen(tiny_dataset, split, AugmentationConfig())
        assert {out.locations[j] for j in out.loc_index} <= set(split.seen)

    def test_determinism(self, tiny_dataset):
        split = _split_of(tiny_dataset, 1)
        cfg = AugmentationConfig(seed=99)
        a = augment_seen(tiny_dataset, split, cfg)
        b = augment_seen(tiny_dataset, split, cfg)
        assert np.array_equal(a.rss, b.rss)

    def test_zero_preservation_and_validity(self, tiny_dataset):
        split = _split_of(tiny_dataset, 0)
        cfg = AugmentationConfig(replicas_per_sample=6, noise_sigma=0.1, seed=1)
        out = augment_seen(tiny_dataset, split, cfg)
        n_src = len(tiny_dataset)
        per_source = cfg.replicas_per_sample
        for i in range(n_src, len(out)):
            src = (i - n_src) // per_source
            assert out.loc_index[i] == out.loc_index[src]  # label preservation
            src_zeros = set(np.nonzero(out.rss[src] == 0.0)[0])
            rep_zeros = set(np.nonzero(out.rss[i] == 0.0)[0])
            assert src_zeros <= rep_zeros  # noise never resurrects an absent AP

    def test_replicas_equal_per_replica_draws(self, tiny_dataset):
        # one (replicas, A) block per source == one (A,) draw per replica
        split = _split_of(tiny_dataset, 1)
        cfg = AugmentationConfig(
            noise_sigma=0.3, drop_threshold=0.4, replicas_per_sample=5, seed=11
        )
        out = augment_seen(tiny_dataset, split, cfg)
        src = tiny_dataset.subset_at(split.seen)
        expected = augment_replicas(
            src.rss, 11, 5, 0.3, 0.4, tiny_dataset.norm_params.detect_floor
        )
        n = len(src)
        assert out.rss[:n].tobytes() == src.rss.tobytes()
        assert out.rss[n:].tobytes() == expected.tobytes()
        src_locs = [src.locations[j] for j in src.loc_index]
        assert [out.locations[j] for j in out.loc_index] == src_locs + [
            loc for loc in src_locs for _ in range(5)
        ]

    @pytest.mark.parametrize("reserve", [0, 1, 9])
    def test_reserved_rows_change_no_output(self, tiny_dataset, reserve):
        data = FingerprintDataset(
            tiny_dataset.rss, tiny_dataset.loc_index, tiny_dataset.locations,
            tiny_dataset.norm_params, collector_ids=list(range(len(tiny_dataset))),
        )
        split = LocationSplit(seen=data.locations[3:0:-1], unseen=data.locations[:1])
        cfg = AugmentationConfig(noise_sigma=0.3, replicas_per_sample=3, seed=4)
        plain = augment_seen(data, split, cfg)
        out = augment_seen(data, split, cfg, reserve)
        assert out.rss.tobytes() == plain.rss.tobytes()
        assert np.array_equal(out.loc_index, plain.loc_index)
        assert out.locations == plain.locations
        assert list(out.collector_ids) == list(plain.collector_ids)
        buf = out.rss.base
        tail = buf[len(out) :]
        assert tail.shape == (reserve, data.ap_count) and tail.flags.writeable
        # rows written into the tail merge with the augmented rows inside the buffer
        tail[...] = 0.5
        more = FingerprintDataset(tail, np.zeros(reserve, dtype=int), data.locations[:1],
                                  data.norm_params)
        merged = merge_datasets(out, more, out=buf)
        assert merged.rss is buf
        assert merged.rss.tobytes() == plain.rss.tobytes() + tail.tobytes()

    def test_negative_reserve_raises(self, tiny_dataset):
        with pytest.raises(ConfigError):
            augment_seen(tiny_dataset, _split_of(tiny_dataset, 1), AugmentationConfig(), -1)

    def test_missing_seen_coordinate_raises(self, tiny_dataset):
        split = LocationSplit(seen=(Coordinate(99.0, 99.0),), unseen=())
        with pytest.raises(ConsistencyError):
            augment_seen(tiny_dataset, split, AugmentationConfig())

    def test_low_threshold_warns(self, tiny_dataset):
        split = _split_of(tiny_dataset, 0)
        cfg = AugmentationConfig(drop_threshold=0.05)
        with pytest.warns(UserWarning, match="no-op"):
            augment_seen(tiny_dataset, split, cfg)
