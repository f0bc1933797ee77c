import numpy as np
import pytest

from fpsynth import localizer
from fpsynth.dataset import Coordinate, Fingerprint, NormalizationParams, make_dataset
from fpsynth.errors import ConfigError, ParseError, RangeError, ShapeError, SizeError
from fpsynth.localizer import (
    KnnLocalizer,
    LocalizerHyperparams,
    evaluate,
    fit_localizer,
    load_report,
    save_report,
)
from oracles import knn_predict


def ds_of(entries, ap_count=2, params=NormalizationParams()):
    return make_dataset(
        [Fingerprint(np.array(rss), Coordinate(*loc)) for rss, loc in entries],
        ap_count,
        params,
    )


class TestKnn:
    def test_self_match_returns_own_location(self):
        train = ds_of([([0.2, 0.8], (0.0, 0.0)), ([0.9, 0.1], (5.0, 5.0))])
        model = fit_localizer(train, "knn", LocalizerHyperparams(k=1))
        assert model.predict(np.array([0.9, 0.1])) == Coordinate(5.0, 5.0)

    def test_equidistant_symmetry(self):
        train = ds_of([([0.2, 0.2], (0.0, 0.0)), ([0.8, 0.8], (2.0, 0.0))])
        model = fit_localizer(train, "knn", LocalizerHyperparams(k=2))
        pred = model.predict(np.array([0.5, 0.5]))
        assert (pred.x, pred.y) == pytest.approx((1.0, 0.0))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        entries = [(rng.uniform(0.1, 1, 2).tolist(), (float(i), 0.0)) for i in range(6)]
        train = ds_of(entries)
        model = fit_localizer(train, "knn", LocalizerHyperparams(k=3))
        q = np.array([0.4, 0.6])
        assert model.predict(q) == model.predict(q)

    def test_k_too_large(self):
        train = ds_of([([0.5, 0.5], (0.0, 0.0))])
        with pytest.raises(ConfigError):
            fit_localizer(train, "knn", LocalizerHyperparams(k=2))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        entries = [(rng.uniform(0.1, 1, 2).tolist(), (float(i), float(i % 3))) for i in range(8)]
        shift = (13.0, -4.0)
        train_a = ds_of(entries)
        train_b = ds_of([(rss, (x + shift[0], y + shift[1])) for rss, (x, y) in entries])
        ma = fit_localizer(train_a, "knn", LocalizerHyperparams(k=3))
        mb = fit_localizer(train_b, "knn", LocalizerHyperparams(k=3))
        q = np.array([0.55, 0.45])
        pa, pb = ma.predict(q), mb.predict(q)
        assert (pb.x - pa.x, pb.y - pa.y) == pytest.approx(shift, abs=1e-9)

    def test_duplicates_do_not_change_k1(self):
        entries = [([0.2, 0.8], (0.0, 0.0)), ([0.9, 0.1], (5.0, 5.0))]
        train = ds_of(entries)
        train_dup = ds_of(entries + entries)
        q = np.array([0.3, 0.7])
        a = fit_localizer(train, "knn", LocalizerHyperparams(k=1)).predict(q)
        b = fit_localizer(train_dup, "knn", LocalizerHyperparams(k=1)).predict(q)
        assert a == b


def batch_xy(model, queries):
    return [(p.x, p.y) for p in model.predict_batch(queries)]


def oracle_xy(model, queries):
    return [knn_predict(model.rss, model.coords, model.k, q) for q in queries]


class TestKnnBatchBits:
    """The blocked GEMM prefilter with exact re-rank equals a full exact scan bit for bit."""

    def test_random_unit_data(self):
        rng = np.random.default_rng(0)
        model = KnnLocalizer(rng.random((300, 20)), rng.random((300, 2)) * 50, 5)
        q = rng.random((150, 20))
        assert batch_xy(model, q) == oracle_xy(model, q)

    def test_duplicated_rows_tie_by_index(self):
        rng = np.random.default_rng(1)
        base = rng.random((40, 8))
        stored = np.concatenate([base, base, base[::-1]])
        model = KnnLocalizer(stored, rng.random((120, 2)) * 10, 4)
        q = np.concatenate([rng.random((30, 8)), base[:5] + 0.01])
        assert batch_xy(model, q) == oracle_xy(model, q)

    def test_query_equal_to_stored_row(self):
        rng = np.random.default_rng(2)
        stored = rng.random((50, 6))
        coords = rng.random((50, 2)) * 10
        model = KnnLocalizer(stored, coords, 3)
        got = batch_xy(model, stored[[7, 0, 49]])
        assert got == oracle_xy(model, stored[[7, 0, 49]])
        assert got == [tuple(coords[i]) for i in (7, 0, 49)]

    def test_k_equals_n(self):
        rng = np.random.default_rng(3)
        model = KnnLocalizer(rng.random((9, 4)), rng.random((9, 2)), 9)
        q = rng.random((5, 4))
        assert batch_xy(model, q) == oracle_xy(model, q)

    def test_ragged_last_block(self):
        rng = np.random.default_rng(4)
        model = KnnLocalizer(rng.random((200, 10)), rng.random((200, 2)), 3)
        q = rng.random((2 * localizer._QUERY_BLOCK + 7, 10))
        got = batch_xy(model, q)
        assert got == oracle_xy(model, q)
        # a block boundary does not change a query's result
        assert got[-7:] == batch_xy(model, q[-7:])
        assert [(p.x, p.y) for p in map(model.predict, q[:3])] == got[:3]

    def test_near_tie_ranked_exactly(self):
        # With one AP the GEMM formula is evaluated with fixed roundings; its
        # cancellation error (~1e-10) swamps the 1e-9 gap between the two rows,
        # so the prefilter ranks row 1 first while the exact distance picks row 0.
        stored = np.array([[1000.00002], [999.9999799990001]])
        q = np.array([[1000.0]])
        approx = np.sum(stored * stored, axis=1) - 2.0 * (q @ stored.T)[0] + np.sum(q * q)
        exact = np.sqrt(np.sum((stored - q[0]) ** 2, axis=1))
        assert np.argmin(approx) == 1 and np.argmin(exact) == 0
        model = KnnLocalizer(stored, np.array([[0.0, 0.0], [9.0, 9.0]]), 1)
        assert batch_xy(model, q) == oracle_xy(model, q) == [(0.0, 0.0)]


class TestQueryErrors:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(5)
        return KnnLocalizer(rng.random((10, 3)), rng.random((10, 2)), 2)

    @pytest.mark.parametrize("shape", [(4, 2), (4, 4), (3,), (2, 3, 1)])
    def test_wrong_shape_batch(self, model, shape):
        with pytest.raises(ShapeError):
            model.predict_batch(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, model, bad, monkeypatch):
        q = np.full((3, 3), 0.5)
        q[1, 2] = bad
        monkeypatch.setattr(model, "_predict_block", None)  # rejected before any GEMM
        with pytest.raises(RangeError):
            model.predict_batch(q)
        with pytest.raises(RangeError):
            model.predict(q[1])

    def test_feedforward_batch_checked(self, tiny_dataset):
        hp = LocalizerHyperparams(hidden=(4,), epochs=1)
        model = fit_localizer(tiny_dataset, "feedforward", hp)
        with pytest.raises(ShapeError):
            model.predict_batch(np.zeros((2, 4)))
        with pytest.raises(RangeError):
            model.predict_batch(np.full((2, 3), np.nan))


class TestFeedforward:
    def test_single_sample_fit(self):
        train = ds_of([([0.4, 0.7], (3.0, 8.0))])
        hp = LocalizerHyperparams(hidden=(16, 16), learning_rate=1e-2, epochs=400, batch_size=1)
        model = fit_localizer(train, "feedforward", hp, seed=0)
        pred = model.predict(np.array([0.4, 0.7]))
        err2 = (pred.x - 3.0) ** 2 + (pred.y - 8.0) ** 2
        assert err2 < 0.01

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        entries = [(rng.uniform(0.1, 1, 2).tolist(), (float(i), 1.0)) for i in range(5)]
        train = ds_of(entries)
        hp = LocalizerHyperparams(epochs=20)
        a = fit_localizer(train, "feedforward", hp, seed=5)
        b = fit_localizer(train, "feedforward", hp, seed=5)
        assert np.array_equal(a.mlp.theta, b.mlp.theta)

    def test_diverged_fit_raises_naming_the_epoch(self):
        rng = np.random.default_rng(3)
        entries = [(rng.uniform(0.1, 1, 2).tolist(), (float(i), 1.0)) for i in range(5)]
        # one step per epoch: the first moves theta by about 1e300, still
        # finite; the second overflows
        hp = LocalizerHyperparams(epochs=3, learning_rate=1e300)
        with pytest.raises(RangeError, match="diverged in epoch 2"):
            fit_localizer(ds_of(entries), "feedforward", hp, seed=0)

    def test_unknown_variant(self):
        train = ds_of([([0.5, 0.5], (0.0, 0.0))])
        with pytest.raises(ConfigError):
            fit_localizer(train, "transformer")


class PerfectModel:
    def __init__(self, mapping):
        self.mapping = mapping

    def predict_batch(self, queries):
        return [self.mapping[tuple(np.round(rss, 6))] for rss in queries]


class TestEvaluate:
    def test_perfect_model_zero_error(self):
        test = ds_of([([0.2, 0.8], (0.0, 0.0)), ([0.9, 0.1], (5.0, 5.0))])
        mapping = {tuple(np.round(s.rss, 6)): s.location for s in test.samples}
        report = evaluate(PerfectModel(mapping), test)
        assert report.mean_error_m == 0.0
        assert report.median_error_m == 0.0

    def test_two_error_arithmetic(self):
        # errors 1 m and 3 m -> mean 2, median 2, CDF [(1, .5), (3, 1.)]
        test = ds_of([([0.2, 0.8], (1.0, 0.0)), ([0.9, 0.1], (3.0, 0.0))])

        class Origin:
            def predict_batch(self, queries):
                return [Coordinate(0.0, 0.0)] * len(queries)

        report = evaluate(Origin(), test)
        assert report.mean_error_m == pytest.approx(2.0)
        assert report.median_error_m == pytest.approx(2.0)
        assert report.error_cdf == ((1.0, 0.5), (3.0, 1.0))

    def test_cdf_ends_at_one_and_is_monotone(self, tiny_dataset):
        model = fit_localizer(tiny_dataset, "knn", LocalizerHyperparams(k=3))
        report = evaluate(model, tiny_dataset)
        fractions = [f for _, f in report.error_cdf]
        assert fractions[-1] == 1.0
        assert all(a <= b for a, b in zip(fractions, fractions[1:]))

    def test_mean_median_consistent_with_samples(self, tiny_dataset):
        model = fit_localizer(tiny_dataset, "knn", LocalizerHyperparams(k=2))
        report = evaluate(model, tiny_dataset)
        errs = np.array(report.per_sample_errors)
        assert report.mean_error_m == pytest.approx(errs.mean(), abs=1e-9)
        assert report.median_error_m == pytest.approx(np.median(errs), abs=1e-9)

    def test_knn_equals_oracle_loop(self, tiny_dataset):
        model = fit_localizer(tiny_dataset, "knn", LocalizerHyperparams(k=3))
        errors = tuple(
            Coordinate(*knn_predict(model.rss, model.coords, 3, s.rss)).distance_to(s.location)
            for s in tiny_dataset.samples
        )
        report = evaluate(model, tiny_dataset)
        assert report.per_sample_errors == errors
        assert report.mean_error_m == float(np.mean(errors))
        assert report.median_error_m == float(np.median(errors))

    def test_feedforward_equals_predict_loop(self, tiny_dataset):
        hp = LocalizerHyperparams(hidden=(8,), epochs=5)
        model = fit_localizer(tiny_dataset, "feedforward", hp)
        errors = tuple(model.predict(s.rss).distance_to(s.location) for s in tiny_dataset.samples)
        assert evaluate(model, tiny_dataset).per_sample_errors == errors

    def test_empty_test_set_rejected(self, tiny_dataset, params):
        model = fit_localizer(tiny_dataset, "knn", LocalizerHyperparams(k=1))
        empty = make_dataset([], 3, params)
        with pytest.raises(SizeError):
            evaluate(model, empty)


class TestReportFile:
    def test_round_trip(self, tiny_dataset, tmp_path):
        model = fit_localizer(tiny_dataset, "knn", LocalizerHyperparams(k=2))
        report = evaluate(model, tiny_dataset)
        path = tmp_path / "report.csv"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.mean_error_m == report.mean_error_m
        assert loaded.median_error_m == report.median_error_m
        assert loaded.error_cdf == report.error_cdf

    @pytest.mark.parametrize(
        "rows, bad_line",
        [
            (["3.0", "error_m,cumulative_fraction"], 2),  # a summary row with one field
            (["3.0,2.0", "error_m,cumulative_fraction", "1.0,0.5", "2.0,x"], 5),
            (["3.0,2.0", "error_m,cumulative_fraction", "1.0,0.5,0.7"], 4),
        ],
    )
    def test_malformed_row_names_line(self, tmp_path, rows, bad_line):
        path = tmp_path / "report.csv"
        path.write_text("\n".join(["mean_error_m,median_error_m", *rows]) + "\n")
        with pytest.raises(ParseError, match=f"line {bad_line}:"):
            load_report(path)
