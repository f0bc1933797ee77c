import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fpsynth import localizer
from fpsynth.baselines import interpolate_locations
from fpsynth.dataset import Coordinate, FingerprintDataset, NormalizationParams
from fpsynth.errors import ConfigError, ParseError, RangeError, ShapeError, SizeError
from fpsynth.localizer import (
    KnnLocalizer,
    LocalizerHyperparams,
    evaluate,
    fit_localizer,
    load_report,
    save_report,
)
from oracles import knn_predict, spatial_interpolate

# per-sample errors of a report: finite, non-negative, with repeats
report_errors = st.lists(
    st.sampled_from([0.0, 0.25, 1.5, 3.0]) | st.floats(0.0, 1e6, allow_subnormal=False),
    min_size=1,
    max_size=30,
)
# one line of text, any characters but line breaks
line_text = st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=20)
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])


def report_of(errors) -> localizer.LocalizationReport:
    """The report `evaluate` makes from these per-sample errors."""
    arr = np.array(errors, dtype=np.float64)
    values, counts = np.unique(arr, return_counts=True)
    fractions = np.cumsum(counts) / arr.shape[0]
    return localizer.LocalizationReport(
        mean_error_m=float(arr.mean()),
        median_error_m=float(np.median(arr)),
        error_cdf=tuple((float(v), float(f)) for v, f in zip(values, fractions)),
        per_sample_errors=tuple(arr.tolist()),
    )


def _two_numbers(line: str) -> bool:
    try:
        _, _ = map(float, line.split(","))  # a third field fails the unpacking
    except ValueError:
        return False
    return True


@st.composite
def corrupted(draw, lines, lineno):
    """A replacement for line `lineno` of a saved report that no report can hold there."""
    line = lines[lineno - 1]
    if lineno in (1, 3):  # a header: any other text
        text = draw(line_text)
        assume(text != line)
        return text
    e, f = line.split(",")
    kinds = ["text", "non-finite", "extra field", "negative"]
    if lineno >= 4:  # a CDF row
        kinds.append("fraction out of range")
    if lineno > 4:
        kinds.append("not increasing")
    if lineno == len(lines):
        kinds.append("last fraction below 1")
    kind = draw(st.sampled_from(kinds))
    if kind == "text":
        text = draw(line_text)
        assume(not _two_numbers(text))
        return text
    if kind == "non-finite":
        bad = draw(non_finite)
        return draw(st.sampled_from([f"{bad},{f}", f"{e},{bad}"]))
    if kind == "extra field":
        return f"{line},{draw(st.floats(0, 1))!r}"
    if kind == "negative":
        bad = repr(-draw(st.floats(1e-300, 1e6)))
        return draw(st.sampled_from([f"{bad},{f}", f"{e},{bad}"]))
    if kind == "fraction out of range":
        return f"{e},{draw(st.floats(1.0, 1e300, exclude_min=True) | st.just(0.0))!r}"
    if kind == "not increasing":
        prev_e, prev_f = (float(v) for v in lines[lineno - 2].split(","))
        if draw(st.booleans()):
            return f"{draw(st.floats(0.0, prev_e))!r},{f}"
        return f"{e},{draw(st.floats(0.0, prev_f, exclude_min=True))!r}"
    # the last row: any fraction that is not 1.0
    return f"{e},{draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))!r}"


def ds_of(rss, locs, index=None):
    """Row i of `rss` at the (x, y) pair `locs[index[i]]`; by default one row per location."""
    index = np.arange(len(locs)) if index is None else index
    return FingerprintDataset(
        np.array(rss, dtype=float), index, tuple(Coordinate(*xy) for xy in locs),
        NormalizationParams(),
    )


class TestKnn:
    def test_self_match_returns_own_location(self):
        train = ds_of([[0.2, 0.8], [0.9, 0.1]], [(0.0, 0.0), (5.0, 5.0)])
        model = fit_localizer(train, "knn", LocalizerHyperparams(k=1))
        assert model.predict(np.array([0.9, 0.1])) == Coordinate(5.0, 5.0)

    def test_equidistant_symmetry(self):
        train = ds_of([[0.2, 0.2], [0.8, 0.8]], [(0.0, 0.0), (2.0, 0.0)])
        model = fit_localizer(train, "knn", LocalizerHyperparams(k=2))
        pred = model.predict(np.array([0.5, 0.5]))
        assert (pred.x, pred.y) == pytest.approx((1.0, 0.0))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        train = ds_of(rng.uniform(0.1, 1, (6, 2)), [(float(i), 0.0) for i in range(6)])
        model = fit_localizer(train, "knn", LocalizerHyperparams(k=3))
        q = np.array([0.4, 0.6])
        assert model.predict(q) == model.predict(q)

    def test_k_too_large(self):
        train = ds_of([[0.5, 0.5]], [(0.0, 0.0)])
        with pytest.raises(ConfigError):
            fit_localizer(train, "knn", LocalizerHyperparams(k=2))

    def test_translation_equivariance(self):
        rng = np.random.default_rng(1)
        rss = rng.uniform(0.1, 1, (8, 2))
        locs = [(float(i), float(i % 3)) for i in range(8)]
        shift = (13.0, -4.0)
        train_a = ds_of(rss, locs)
        train_b = ds_of(rss, [(x + shift[0], y + shift[1]) for x, y in locs])
        ma = fit_localizer(train_a, "knn", LocalizerHyperparams(k=3))
        mb = fit_localizer(train_b, "knn", LocalizerHyperparams(k=3))
        q = np.array([0.55, 0.45])
        pa, pb = ma.predict(q), mb.predict(q)
        assert (pb.x - pa.x, pb.y - pa.y) == pytest.approx(shift, abs=1e-9)

    def test_duplicates_do_not_change_k1(self):
        rss, locs = [[0.2, 0.8], [0.9, 0.1]], [(0.0, 0.0), (5.0, 5.0)]
        train = ds_of(rss, locs)
        train_dup = ds_of(rss + rss, locs, [0, 1, 0, 1])
        q = np.array([0.3, 0.7])
        a = fit_localizer(train, "knn", LocalizerHyperparams(k=1)).predict(q)
        b = fit_localizer(train_dup, "knn", LocalizerHyperparams(k=1)).predict(q)
        assert a == b


# UJIIndoorLoc's projected coordinates lie near (-7,500 m, 4,864,900 m)
UJI_OFFSET = np.array([-7_500.0, 4_864_900.0])


def batch_xy(model, queries):
    return [tuple(row) for row in model.predict_batch(queries).tolist()]


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

    @pytest.mark.parametrize("width", [4, 80, 200, 600])
    def test_ragged_last_block(self, width, monkeypatch):
        block = localizer._QUERY_BLOCK
        rng = np.random.default_rng(4)
        model = KnnLocalizer(rng.random((200, width)), rng.random((200, 2)), 3)
        q = rng.random((2 * block + 7, width))
        sizes = []
        run_block = model._predict_block
        monkeypatch.setattr(
            model, "_predict_block", lambda qb, out: (sizes.append(len(qb)), run_block(qb, out))
        )
        got = batch_xy(model, q)
        expected = [block] * (len(q) // block) + ([len(q) % block] if len(q) % block else [])
        assert sizes == expected
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

    def test_offset_rows_rerank_few_candidates(self, monkeypatch):
        # 1,000 stored locations and 300 targets at UJIIndoorLoc's offset. An
        # uncentred float32 prefilter sees |x|^2 ~ 2.4e13, so its bound would
        # keep every row; centred, a query keeps about k rows.
        rng = np.random.default_rng(7)
        stored = rng.random((1_000, 2)) * [390.0, 270.0] + UJI_OFFSET
        model = KnnLocalizer(stored, rng.random((1_000, 2)) * 10, 3)
        q = rng.random((300, 2)) * [390.0, 270.0] + UJI_OFFSET
        counts = []
        rerank = model._rerank
        monkeypatch.setattr(
            model, "_rerank", lambda x, cand, dst: (counts.append(len(cand)), rerank(x, cand, dst))
        )
        assert batch_xy(model, q) == oracle_xy(model, q)
        assert len(counts) == len(q)
        assert min(counts) >= 3 and max(counts) <= 6

    @pytest.mark.parametrize("k", [1, 3])
    def test_neighbours_finer_than_float32_far_from_the_mean(self, k):
        # Half the rows sit at the origin, so the cluster's centred values are
        # about 0.25 and their float32 spacing (3e-8) exceeds the cluster's
        # 1e-8 spread: the float32 values misrank it and only the bound's
        # margin keeps the exact nearest rows among the candidates.
        rng = np.random.default_rng(13)
        base = rng.random((1, 6))
        stored = np.concatenate([np.zeros((100, 6)), base + rng.normal(0.0, 1e-8, (100, 6))])
        model = KnnLocalizer(stored, rng.random((200, 2)) * 20, k)
        q = base + rng.normal(0.0, 1e-8, (80, 6))
        assert batch_xy(model, q) == oracle_xy(model, q)

    def test_rows_equal_in_float32(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(0.5, 1.0, (100, 8)).astype(np.float32).astype(np.float64)
        twin = base + 1e-9  # under half a float32 ulp in [0.5, 1)
        assert np.array_equal(twin.astype(np.float32), base.astype(np.float32))
        stored = np.concatenate([twin[:50], base, twin[50:]])
        model = KnnLocalizer(stored, rng.random((200, 2)) * 20, 4)
        q = np.concatenate([rng.uniform(0.5, 1.0, (40, 8)), base[:10] + 4e-10, twin[:10] - 4e-10])
        assert batch_xy(model, q) == oracle_xy(model, q)

    @pytest.mark.parametrize("k", [1, 3])
    def test_query_one_float32_ulp_from_a_stored_row(self, k):
        rng = np.random.default_rng(9)
        stored = rng.random((150, 12))
        model = KnnLocalizer(stored, rng.random((150, 2)) * 20, k)
        rows = stored[rng.integers(0, 150, 70)]
        ulp = np.spacing(rows.astype(np.float32)).astype(np.float64)
        q = np.concatenate([rows + ulp, rows - ulp])
        assert batch_xy(model, q) == oracle_xy(model, q)

    def test_survey_width(self):
        # UJIIndoorLoc's 520 APs, about half of the readings "not detected"
        rng = np.random.default_rng(10)
        stored = np.where(rng.random((600, 520)) < 0.5, 0.0, rng.uniform(0.1, 1.0, (600, 520)))
        model = KnnLocalizer(stored, rng.random((600, 2)) * 50, 5)
        near = np.clip(stored[rng.integers(0, 600, 100)] + rng.normal(0.0, 0.02, (100, 520)), 0, 1)
        q = np.concatenate([near, rng.random((30, 520))])
        assert batch_xy(model, q) == oracle_xy(model, q)

    @pytest.mark.parametrize("k", [1, 3])
    def test_interpolation_at_offset_coordinates(self, k):
        rng = np.random.default_rng(12)
        lattice = [(x * 2.0, y * 2.0) for x in range(30) for y in range(20)]
        locs = [tuple(np.add(lattice[i], UJI_OFFSET).tolist()) for i in rng.permutation(600)]
        ds = ds_of(rng.uniform(0.1, 1.0, (600, 6)), locs)
        targets = [Coordinate(*xy) for xy in (rng.random((150, 2)) * [60.0, 40.0] + UJI_OFFSET)]
        targets += [Coordinate(x + 1.0, y + 1.0) for x, y in locs[:50]]  # four-way ties
        got = interpolate_locations(ds, targets, k)
        for row, target in zip(got, targets):
            assert np.array_equal(row, spatial_interpolate(ds, target, k))

    def test_predict_is_the_predict_batch_row(self):
        rng = np.random.default_rng(6)
        model = KnnLocalizer(rng.random((100, 5)), rng.random((100, 2)) * 20, 3)
        q = np.concatenate([rng.random((2 * localizer._QUERY_BLOCK + 1, 5)), model.rss[:3]])
        blended = model.predict_batch(q)
        assert blended.shape == (q.shape[0], 2) and blended.dtype == np.float64
        assert [(p.x, p.y) for p in map(model.predict, q)] == batch_xy(model, q)


class TestBlasPin:
    # 2,400 x 20 float64 is the desk map's 384 KB; 7,000 x 20 is 1.1 MB
    @pytest.mark.parametrize("rows", [2_400, 7_000])
    def test_every_block_runs_on_one_thread(self, blas_threads, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        model = KnnLocalizer(rng.random((rows, 20)), rng.random((rows, 2)) * 50, 5)
        counts = []
        run_block = model._predict_block
        monkeypatch.setattr(
            model, "_predict_block", lambda qb, out: (counts.append(blas_threads()), run_block(qb, out))
        )
        q = rng.random((2 * localizer._QUERY_BLOCK + 3, 20))
        got = batch_xy(model, q)
        assert counts == [1] * 3
        assert blas_threads() == 2
        assert got == oracle_xy(model, q)


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

    def test_query_beyond_the_prefilter_range(self, model):
        # 2^50 from the stored rows' mean bounds the prefilter's float32 range
        far = np.full((2, 3), 2.0**50)
        assert batch_xy(model, far / 4) == oracle_xy(model, far / 4)
        with pytest.raises(RangeError, match="too far"):
            model.predict_batch(far)

    def test_stored_rows_beyond_the_prefilter_range(self):
        with pytest.raises(RangeError, match="too far"):
            KnnLocalizer(np.array([[0.0], [2.0**52]]), np.zeros((2, 2)), 1)
        with pytest.raises(RangeError, match="too far"):
            KnnLocalizer(np.array([[1e308], [1e308]]), np.zeros((2, 2)), 1)  # the mean overflows
        with pytest.raises(RangeError, match="columns"):
            KnnLocalizer(np.zeros((1, localizer._MAX_WIDTH + 1)), np.zeros((1, 2)), 1)

    def test_feedforward_batch_checked(self, tiny_dataset):
        hp = LocalizerHyperparams(hidden=(4,), epochs=1)
        model = fit_localizer(tiny_dataset, "feedforward", hp)
        with pytest.raises(ShapeError):
            model.predict_batch(np.zeros((2, 4)))
        with pytest.raises(RangeError):
            model.predict_batch(np.full((2, 3), np.nan))


class TestFeedforward:
    def test_single_sample_fit(self):
        train = ds_of([[0.4, 0.7]], [(3.0, 8.0)])
        hp = LocalizerHyperparams(hidden=(16, 16), learning_rate=1e-2, epochs=400, batch_size=1)
        model = fit_localizer(train, "feedforward", hp, seed=0)
        pred = model.predict(np.array([0.4, 0.7]))
        err2 = (pred.x - 3.0) ** 2 + (pred.y - 8.0) ** 2
        assert err2 < 0.01

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        train = ds_of(rng.uniform(0.1, 1, (5, 2)), [(float(i), 1.0) for i in range(5)])
        hp = LocalizerHyperparams(epochs=20)
        a = fit_localizer(train, "feedforward", hp, seed=5)
        b = fit_localizer(train, "feedforward", hp, seed=5)
        assert np.array_equal(a.mlp.theta, b.mlp.theta)

    def test_float32_fit_tracks_float64(self, monkeypatch):
        # the same fit at both parameter widths: the random streams are the
        # same, so the gaps are float32 rounding carried through 50 steps.
        # Bound: 32 float32 epsilons, relative (3 to 7 were measured).
        rng = np.random.default_rng(30)
        train = ds_of(rng.uniform(0.1, 1, (16, 4)), rng.uniform(0, 10, (16, 2)))
        hp = LocalizerHyperparams(hidden=(16, 16), epochs=25, batch_size=8)
        narrow = fit_localizer(train, "feedforward", hp, seed=4)
        monkeypatch.setattr(localizer, "_FIT_DTYPE", np.float64)
        wide = fit_localizer(train, "feedforward", hp, seed=4)
        assert narrow.mlp.theta.dtype == np.float32
        assert wide.mlp.theta.dtype == np.float64
        tol = 32 * np.finfo(np.float32).eps
        theta_gap = np.abs(narrow.mlp.theta - wide.mlp.theta)
        assert np.max(theta_gap) < tol * np.max(np.abs(wide.mlp.theta))
        pred = narrow.predict_batch(train.rss)
        assert pred.dtype == np.float64
        wide_pred = wide.predict_batch(train.rss)
        assert np.max(np.abs(pred - wide_pred)) < tol * np.max(np.abs(wide_pred))

    def test_diverged_fit_raises_naming_the_epoch(self):
        rng = np.random.default_rng(3)
        train = ds_of(rng.uniform(0.1, 1, (5, 2)), [(float(i), 1.0) for i in range(5)])
        # one step per epoch in the float32 fit: the first moves theta by
        # about 1e30, still below float32's 3.4e38; in the second the
        # forward's products (about 1e60) overflow
        hp = LocalizerHyperparams(epochs=3, learning_rate=1e30)
        with pytest.raises(RangeError, match="diverged in epoch 2"):
            fit_localizer(train, "feedforward", hp, seed=0)

    def test_unknown_variant(self):
        train = ds_of([[0.5, 0.5]], [(0.0, 0.0)])
        with pytest.raises(ConfigError):
            fit_localizer(train, "transformer")


class PerfectModel:
    def __init__(self, mapping):
        self.mapping = mapping

    def predict_batch(self, queries):
        return np.array([self.mapping[tuple(np.round(rss, 6))] for rss in queries])


def located(ds):
    """(rss row, Coordinate) of each sample, in dataset order."""
    return [(row, ds.locations[j]) for row, j in zip(ds.rss, ds.loc_index)]


class TestEvaluate:
    def test_perfect_model_zero_error(self):
        test = ds_of([[0.2, 0.8], [0.9, 0.1]], [(0.0, 0.0), (5.0, 5.0)])
        mapping = {tuple(np.round(r, 6)): xy for r, xy in zip(test.rss, test.coords_matrix())}
        report = evaluate(PerfectModel(mapping), test)
        assert report.mean_error_m == 0.0
        assert report.median_error_m == 0.0

    def test_two_error_arithmetic(self):
        # errors 1 m and 3 m -> mean 2, median 2, CDF [(1, .5), (3, 1.)]
        test = ds_of([[0.2, 0.8], [0.9, 0.1]], [(1.0, 0.0), (3.0, 0.0)])

        class Origin:
            def predict_batch(self, queries):
                return np.zeros((len(queries), 2))

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
            Coordinate(*knn_predict(model.rss, model.coords, 3, row)).distance_to(loc)
            for row, loc in located(tiny_dataset)
        )
        report = evaluate(model, tiny_dataset)
        assert report.per_sample_errors == errors
        assert report.mean_error_m == float(np.mean(errors))
        assert report.median_error_m == float(np.median(errors))

    def test_feedforward_equals_predict_loop(self, tiny_dataset):
        hp = LocalizerHyperparams(hidden=(8,), epochs=5)
        model = fit_localizer(tiny_dataset, "feedforward", hp)
        errors = tuple(model.predict(row).distance_to(loc) for row, loc in located(tiny_dataset))
        assert evaluate(model, tiny_dataset).per_sample_errors == errors

    def test_empty_test_set_rejected(self, tiny_dataset, params):
        model = fit_localizer(tiny_dataset, "knn", LocalizerHyperparams(k=1))
        empty = FingerprintDataset(np.empty((0, 3)), [], (), params)
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
            (["3.0,2.0", "bogus header", "1.0,1.0"], 3),
            (["3.0,2.0", "error_m,cumulative_fraction", "nan,inf"], 4),
            (["3.0,2.0", "error_m,cumulative_fraction", "1.0,0.5", "0.5,1.0"], 5),  # decreasing
            (["3.0,2.0", "error_m,cumulative_fraction", "1.0,0.5", "2.0,0.9"], 5),  # ends below 1
            (["3.0,2.0", "error_m,cumulative_fraction"], 4),  # no CDF rows
            (["3.0,2.0", "error_m,cumulative_fraction", "", "1.0,1.0"], 4),
            (["3.0,2.0", "error_m,cumulative_fraction", "1.0,1.5"], 4),
            (["-3.0,2.0", "error_m,cumulative_fraction", "1.0,1.0"], 2),
            ([], 2),
        ],
    )
    def test_malformed_row_names_line(self, tmp_path, rows, bad_line):
        path = tmp_path / "report.csv"
        path.write_text("\n".join(["mean_error_m,median_error_m", *rows]) + "\n")
        with pytest.raises(ParseError, match=f"line {bad_line}:"):
            load_report(path)

    def test_bad_first_line_and_bytes(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="line 1:"):
            load_report(path)
        path.write_bytes(b"mean_error_m,median_error_m\n\xff,1.0\n")
        with pytest.raises(ParseError, match="not valid UTF-8"):
            load_report(path)

    @settings(max_examples=150, deadline=None)
    @given(report_errors)
    def test_saved_report_loads_back(self, tmp_path_factory, errors):
        report = report_of(errors)
        path = tmp_path_factory.mktemp("report") / "report.csv"
        save_report(report, path)
        loaded = load_report(path)
        assert loaded.mean_error_m == report.mean_error_m
        assert loaded.median_error_m == report.median_error_m
        assert loaded.error_cdf == report.error_cdf

    @settings(max_examples=300, deadline=None)
    @given(report_errors, st.data())
    def test_one_corrupted_line_raises_naming_it(self, tmp_path_factory, errors, data):
        path = tmp_path_factory.mktemp("report") / "report.csv"
        save_report(report_of(errors), path)
        lines = path.read_text().splitlines()
        lineno = data.draw(st.integers(1, len(lines)), label="lineno")
        lines[lineno - 1] = data.draw(corrupted(lines, lineno), label="line")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"line {lineno}:"):
            load_report(path)
