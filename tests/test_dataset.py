import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpsynth.dataset import (
    Coordinate,
    FingerprintDataset,
    NormalizationParams,
    SyntheticEnvironment,
    _denormalize_array,
    _normalize_array,
    canonicalize_dataset,
    generate_synthetic,
    load_dataset,
    merge_datasets,
    save_dataset,
)
from fpsynth.errors import ConfigError, ConsistencyError, FpsynthError, ParseError, RangeError
from oracles import load_lines, save_lines


def _round_trip(v, p):
    return _normalize_array(_denormalize_array(np.array(v, dtype=float), p), p)


class TestNormalize:
    def test_sentinel_maps_to_zero(self, params):
        v = _normalize_array(np.array([100.0, -50.0, 100.0]), params)
        assert v[0] == v[2] == 0.0 and v[1] > 0.0

    def test_upper_endpoint(self, params):
        assert _normalize_array(np.array([0.0]), params).tolist() == [1.0]

    def test_midpoint(self, params):
        assert _normalize_array(np.array([-52.0]), params)[0] == pytest.approx(0.55, abs=1e-12)

    def test_lower_endpoint_hits_floor(self, params):
        assert _normalize_array(np.array([-104.0]), params)[0] == pytest.approx(0.1, abs=1e-12)

    def test_monotone_on_detected_range(self, params):
        vals = _normalize_array(np.linspace(-104.0, 0.0, 211), params)
        assert np.all(vals[:-1] < vals[1:])


class TestDenormalize:
    def test_zero_maps_to_sentinel(self, params):
        assert _denormalize_array(np.array([0.0]), params).tolist() == [100.0]

    def test_one_maps_to_max(self, params):
        assert _denormalize_array(np.array([1.0]), params).tolist() == [0.0]

    def test_below_floor_clamps_to_sentinel(self, params):
        assert _denormalize_array(np.array([0.05]), params).tolist() == [100.0]

    @given(st.floats(min_value=0.1, max_value=1.0))
    def test_round_trip_detected(self, v):
        assert _round_trip([v], NormalizationParams())[0] == pytest.approx(v, abs=1e-9)

    def test_round_trip_zero(self, params):
        assert _round_trip([0.0], params).tolist() == [0.0]

    @given(
        st.floats(min_value=-200, max_value=-1),
        st.floats(min_value=1, max_value=50),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_round_trip_generic_params(self, rss_min, span, floor):
        p = NormalizationParams(rss_min=rss_min, rss_max=rss_min + span, detect_floor=floor)
        v = np.array([floor, (floor + 1.0) / 2.0, 1.0])
        assert _round_trip(v, p) == pytest.approx(v, abs=1e-9)


class TestParamsValidation:
    def test_bad_range(self):
        with pytest.raises(ConfigError):
            NormalizationParams(rss_min=0.0, rss_max=0.0)

    def test_bad_floor(self):
        with pytest.raises(ConfigError):
            NormalizationParams(detect_floor=0.75)


class TestCoordinate:
    def test_rejects_non_finite(self):
        with pytest.raises(RangeError):
            Coordinate(float("nan"), 0.0)
        with pytest.raises(RangeError):
            Coordinate(0.0, float("inf"))

    def test_lexicographic_order(self):
        assert Coordinate(1.0, 5.0) < Coordinate(2.0, 0.0)
        assert Coordinate(1.0, 1.0) < Coordinate(1.0, 2.0)


class TestSynthetic:
    def _env(self, **kw):
        defaults = dict(
            ap_positions=(Coordinate(0.0, 0.0),),
            tx_power_dbm=-30.0,
            path_loss_exponent=2.0,
            shadowing_sigma_db=0.0,
            reference_distance_m=1.0,
            detection_threshold_dbm=-95.0,
        )
        defaults.update(kw)
        return SyntheticEnvironment(**defaults)

    def test_reference_distance_gives_tx_power(self, params):
        env = self._env()
        ds = generate_synthetic(env, [Coordinate(1.0, 0.0)], 1, seed=0, params=params)
        raw = _denormalize_array(ds.rss[0, :1], params)[0]
        assert raw == pytest.approx(-30.0, abs=1e-9)

    def test_log_distance_decade(self, params):
        # n=2, d=10*d0 -> 20 dB below tx power
        env = self._env()
        ds = generate_synthetic(env, [Coordinate(10.0, 0.0)], 1, seed=0, params=params)
        raw = _denormalize_array(ds.rss[0, :1], params)[0]
        assert raw == pytest.approx(-50.0, abs=1e-9)

    def test_determinism(self, params):
        env = self._env(shadowing_sigma_db=4.0, ap_positions=(Coordinate(3.0, 4.0), Coordinate(9.0, 1.0)))
        grid = [Coordinate(float(i), 0.0) for i in range(4)]
        a = generate_synthetic(env, grid, 3, seed=42, params=params)
        b = generate_synthetic(env, grid, 3, seed=42, params=params)
        assert np.array_equal(a.rss, b.rss)

    def test_zero_shadowing_monotone_in_distance(self, params):
        env = self._env()
        grid = [Coordinate(float(d), 0.0) for d in (1, 2, 5, 10, 20, 40)]
        ds = generate_synthetic(env, grid, 1, seed=0, params=params)
        vals = ds.rss[:, 0]
        detected = vals[vals > 0]
        assert all(a >= b for a, b in zip(detected, detected[1:]))

    def test_below_threshold_is_absent(self, params):
        env = self._env(detection_threshold_dbm=-40.0)
        ds = generate_synthetic(env, [Coordinate(100.0, 0.0)], 1, seed=0, params=params)
        assert ds.rss[0, 0] == 0.0

    def test_env_validation(self):
        with pytest.raises(ConfigError):
            self._env(ap_positions=())
        with pytest.raises(ConfigError):
            self._env(path_loss_exponent=0.0)


class TestFileRoundTrip:
    def test_save_load_identity(self, tiny_dataset, params, tmp_path):
        path = tmp_path / "ds.csv"
        save_dataset(tiny_dataset, path)
        loaded = load_dataset(path, params)
        assert loaded.ap_count == tiny_dataset.ap_count
        assert loaded.locations == tiny_dataset.locations
        assert np.allclose(loaded.rss, tiny_dataset.rss, atol=1e-6)
        assert np.array_equal(loaded.coords_matrix(), tiny_dataset.coords_matrix())

    def test_collector_column_round_trip(self, params, tmp_path):
        ds = FingerprintDataset([[0.5, 0.0]], [0], (Coordinate(1.0, 2.0),), params, [3])
        path = tmp_path / "c.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path, params)
        assert loaded.collector_ids.tolist() == [3]

    def test_file_spanning_several_blocks_has_the_one_pass_bytes(self, params, tmp_path):
        # 1,001 rows of 200 values are four row blocks of the writer's decoding pass
        rng = np.random.default_rng(7)
        n = 1_001
        collectors = [None if i % 3 else int(i) for i in range(n)]
        locations = tuple(Coordinate(float(i), -0.5 * i) for i in range(40))
        ds = FingerprintDataset(
            _valid_rows(rng, n, 200), rng.integers(0, 40, n), locations, params, collectors
        )
        save_dataset(ds, tmp_path / "blocked.csv")
        save_lines(ds, tmp_path / "one_pass.csv")
        assert (tmp_path / "blocked.csv").read_bytes() == (tmp_path / "one_pass.csv").read_bytes()


class TestCanonicalize:
    def _dataset(self, params, n=1_001):
        # 1,001 rows of 200 values are four row blocks of the codec round trip
        rng = np.random.default_rng(11)
        locations = tuple(Coordinate(float(i), 0.0) for i in range(20))
        rss = _valid_rows(rng, n, 200)
        return FingerprintDataset(rss, rng.integers(0, 20, n), locations, params)

    def test_equals_a_file_round_trip_and_leaves_the_input(self, params, tmp_path):
        ds = self._dataset(params)
        before = ds.rss.copy()
        save_dataset(ds, tmp_path / "ds.csv")
        expected = load_dataset(tmp_path / "ds.csv", params).rss
        got = canonicalize_dataset(ds)
        assert got.rss.tobytes() == expected.tobytes()
        assert ds.rss.tobytes() == before.tobytes()
        assert not got.rss.flags.writeable

    def test_in_place_hands_over_the_matrix(self, params):
        ds = self._dataset(params)
        expected = canonicalize_dataset(ds).rss
        matrix = ds.rss
        got = canonicalize_dataset(ds, in_place=True)
        assert got.rss is matrix and not matrix.flags.writeable
        assert got.rss.tobytes() == expected.tobytes()

    def test_in_place_copies_a_view_of_a_read_only_matrix(self, params):
        base = self._dataset(params, n=40).rss  # read-only
        view = FingerprintDataset(base[:20], np.zeros(20, dtype=np.intp), (Coordinate(0, 0),), params)
        assert np.shares_memory(view.rss, base)
        got = canonicalize_dataset(view, in_place=True)
        assert not np.shares_memory(got.rss, base)
        assert got.rss.tobytes() == canonicalize_dataset(view).rss.tobytes()


class TestLoader:
    def _write(self, tmp_path, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        return path

    def test_survey_shaped_file(self, params, tmp_path):
        # 520 AP columns, three collectors, 70 distinct coordinates
        rng = np.random.default_rng(0)
        width = len(str(520))
        header = ",".join([f"AP{i + 1:0{width}d}" for i in range(520)] + ["X", "Y", "COLLECTOR"])
        rows = [header]
        for li in range(70):
            for collector in (1, 2):
                raw = np.full(520, 100.0)
                hear = rng.choice(520, size=12, replace=False)
                raw[hear] = rng.uniform(-104.0, 0.0, size=12)
                fields = [repr(float(v)) for v in raw] + [str(li % 10), str(li // 10), str(collector)]
                rows.append(",".join(fields))
        ds = load_dataset(self._write(tmp_path, "\n".join(rows)), params)
        assert ds.ap_count == 520
        assert len(ds.locations) == 70
        assert len(ds) == 140

    def test_single_all_sentinel_row(self, params, tmp_path):
        ds = load_dataset(
            self._write(tmp_path, "AP001,AP002,X,Y\n100,100,0,0\n"), params
        )
        assert len(ds) == 1
        assert np.array_equal(ds.rss[0], np.zeros(2))

    def test_duplicate_coordinate_collapses(self, params, tmp_path):
        rows = ["AP001,X,Y"]
        for i in range(10):
            x = 0.0 if i in (0, 9) else float(i)
            rows.append(f"-50,{x},0")
        ds = load_dataset(self._write(tmp_path, "\n".join(rows)), params)
        assert len(ds) == 10
        assert len(ds.locations) == 9

    def test_wrong_arity_names_line(self, params, tmp_path):
        path = self._write(tmp_path, "AP001,X,Y\n-50,0,0\n-50,0\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path, params)

    def test_non_numeric_names_line(self, params, tmp_path):
        path = self._write(tmp_path, "AP001,X,Y\n-50,zero,0\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path, params)

    def test_out_of_range_raw(self, params, tmp_path):
        path = self._write(tmp_path, "AP001,X,Y\n17,0,0\n")
        with pytest.raises(RangeError):
            load_dataset(path, params)

    def test_out_of_range_raw_in_a_later_row_block(self, params, tmp_path):
        # 300 rows of 520 APs span three row blocks of the range check
        rows = ["AP" + ",AP".join(f"{i + 1:03d}" for i in range(520)) + ",X,Y"]
        rows += [",".join(["-50"] * 520 + [str(i), "0"]) for i in range(300)]
        rows[251] = rows[251].replace("-50", "17", 1)
        with pytest.raises(RangeError, match="line 252: raw RSS 17.0 outside"):
            load_dataset(self._write(tmp_path, "\n".join(rows)), params)

    def test_traced_peak_is_under_one_and_three_quarter_matrices(self, params, tmp_path):
        # about 2 MB of text: 1,600 rows of 100 readings, half of them the sentinel
        rng = np.random.default_rng(3)
        shape = (1_600, 100)
        raw = np.where(rng.random(shape) < 0.5, 100.0, rng.uniform(-104.0, 0.0, shape))
        rows = ["AP" + ",AP".join(f"{i + 1:03d}" for i in range(100)) + ",X,Y"]
        rows += [
            ",".join(map(repr, r)) + f",{i % 50}.5,{i // 50}.25" for i, r in enumerate(raw.tolist())
        ]
        path = self._write(tmp_path, "\n".join(rows) + "\n")
        assert 1.8e6 < path.stat().st_size < 2.2e6
        tracemalloc.start()
        try:
            ds = load_dataset(path, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.rss.shape == shape
        # the parsed (N, A + 2) block is normalized and packed in place; measured 1.52
        assert peak < 1.75 * ds.rss.nbytes

    def test_traced_peak_with_a_bad_last_line_is_under_two_matrices(self, params, tmp_path):
        # about 2 MB of text, 1,600 rows of 100 readings; the last row's last reading
        # is out of range, so the streamed parse reads every row before it rejects one
        rng = np.random.default_rng(4)
        shape = (1_600, 100)
        raw = np.where(rng.random(shape) < 0.5, 100.0, rng.uniform(-104.0, 0.0, shape))
        raw[-1, -1] = 17.0
        rows = ["AP" + ",AP".join(f"{i + 1:03d}" for i in range(100)) + ",X,Y"]
        rows += [",".join(map(repr, r)) + f",{i},0" for i, r in enumerate(raw.tolist())]
        path = self._write(tmp_path, "\n".join(rows) + "\n")
        assert 1.8e6 < path.stat().st_size < 2.2e6
        tracemalloc.start()
        try:
            with pytest.raises(RangeError, match="line 1601: raw RSS 17.0 outside"):
                load_dataset(path, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * raw.nbytes

    def test_bad_header(self, params, tmp_path):
        path = self._write(tmp_path, "X,Y\n0,0\n")
        with pytest.raises(ParseError):
            load_dataset(path, params)

    @pytest.mark.parametrize(
        "raw, lineno",
        [
            (b"AP001,AP\xe9,X,Y\n-50,100,0,0\n", 1),
            (b"AP001,X,Y\n-50,0,0\n-50,1\xe9,0\n-50,2,0\n", 3),
            # past the first decoded chunk: np.loadtxt meets the bad byte
            (b"AP001,X,Y\n" + b"-50,0,0\n" * 3000 + b"-50,\xe9,0\n", 3002),
        ],
        ids=["header", "body", "late-body"],
    )
    def test_non_utf8_names_file_and_line(self, params, tmp_path, raw, lineno):
        path = tmp_path / "in.csv"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line {lineno}: not valid UTF-8$"):
            load_dataset(path, params)


class TestDatasetInvariants:
    def test_rejects_values_in_gap(self, params):
        with pytest.raises(RangeError):
            FingerprintDataset([[0.05, 0.5]], [0], (Coordinate(0, 0),), params)

    def test_subset_at(self, tiny_dataset):
        keep = tiny_dataset.locations[:2]
        sub = tiny_dataset.subset_at(keep)
        assert set(sub.locations) == set(keep)
        assert len(sub) == 4


def _spellings(v: float, exotic: bool) -> list[str]:
    """Ways to write v that float() reads back as exactly v; the exotic ones
    (digit separators) are ones np.loadtxt rejects."""
    r = repr(v)
    if not exotic:
        return [r, f" {r} ", f"\t{r}", f"{v:.17e}"]
    between_digits = [i for i in range(1, len(r)) if r[i - 1].isdigit() and r[i].isdigit()]
    return [r[:i] + "_" + r[i:] for i in between_digits] or [r]


def _tokens(specials, values, exotic):
    spelled = values.flatmap(lambda v: st.sampled_from(_spellings(v, exotic)))
    return st.one_of(st.sampled_from(specials), spelled)


def raw_tokens(exotic):
    specials = ["100", "1e2", "100.000", "-104", "-0", "0", "-1e-3", "-0.0"]
    # U+0661 U+0660 U+0660 is float("100"), U+FF15 U+FF10 float("50")
    specials += [" 1_00 ", "\u0661\u0660\u0660", "-\uff15\uff10"] if exotic else []
    return _tokens(specials, st.one_of(st.just(100.0), st.floats(-104.0, 0.0)), exotic)


def coord_tokens(exotic):
    specials = ["0.0", "-0.0", "0", "-0", "1e-3", "2.5"]
    specials += [" 1_000 ", "\u0663"] if exotic else []  # U+0663 is float("3")
    return _tokens(specials, st.floats(-1e6, 1e6), exotic)


COLLECTOR_TOKENS = st.one_of(
    st.sampled_from(["", "  ", " 7 ", "1_0", "-3"]), st.integers(0, 10**6).map(str)
)
CORRUPT_TOKENS = [
    "nan", "Infinity", "-inf", "abc", "", "0x10", "1\x1f", "\x1f-5", "5", "-104.5", "1e-3",
    "1,2", "1__0", "-5 #1", '"-5"',
]
# The line breaks of a text file's line iterator
LINE_BREAKS = ["\n", "\r\n", "\r"]
# The other line breaks of str.splitlines(), and U+001F, which np.loadtxt strips
# around a number where float() rejects it
ODD_CHARACTERS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x1f"]


@st.composite
def survey_lines(draw, min_rows=0, exotic=st.booleans()):
    """A well-formed wide-format file as a list of lines (header first).

    An exotic file mixes in spellings that only float(), not np.loadtxt, reads.
    """
    exotic = draw(exotic)
    raw, coord = raw_tokens(exotic), coord_tokens(exotic)
    ap_count = draw(st.integers(1, 6))
    has_collector = draw(st.booleans())
    pool = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=4))
    header = [f"AP{i + 1:03d}" for i in range(ap_count)] + ["X", "Y"]
    lines = [",".join(header + (["COLLECTOR"] if has_collector else []))]
    for _ in range(draw(st.integers(min_rows, 10))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
        fields = [draw(raw) for _ in range(ap_count)] + list(draw(st.sampled_from(pool)))
        if has_collector:
            fields.append(draw(COLLECTOR_TOKENS))
        lines.append(",".join(fields))
    return lines


def _joined(lines, breaks):
    """The file text of `lines`, each ended by the matching entry of `breaks`."""
    return "".join(line + end for line, end in zip(lines, breaks))


def _load_both(text):
    """(load_dataset outcome, oracle outcome) for one file; each a value or the raised error."""
    params = NormalizationParams()
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "survey.csv"
        path.write_text(text, encoding="utf-8")
        outcomes = []
        for load in (load_dataset, load_lines):
            try:
                outcomes.append(load(path, params))
            except FpsynthError as e:
                outcomes.append(e)
    return outcomes


def _assert_same_dataset(ds, oracle):
    rss, sample_locations, locations, collectors = oracle
    assert ds.rss.shape == rss.shape
    assert ds.rss.tobytes() == rss.tobytes()
    # the first coordinate seen stands for its location, sign of zero included
    assert [(repr(c.x), repr(c.y)) for c in ds.locations] == [
        (repr(c.x), repr(c.y)) for c in locations
    ]
    assert [ds.locations[j] for j in ds.loc_index] == sample_locations
    assert list(ds.collector_ids) == collectors


class TestLoaderParity:
    @settings(max_examples=200, deadline=None)
    @given(survey_lines(exotic=st.just(False)), st.sampled_from(["", "\n", "\n\n"]), st.data())
    def test_well_formed_file_equals_oracle(self, lines, end, data):
        breaks = st.sampled_from(["\n"] * len(LINE_BREAKS) + LINE_BREAKS)
        ends = data.draw(st.lists(breaks, min_size=len(lines) - 1, max_size=len(lines) - 1))
        got, oracle = _load_both(_joined(lines, ends + [""]) + end)
        assert not isinstance(oracle, Exception)
        _assert_same_dataset(got, oracle)

    @settings(max_examples=300, deadline=None)
    @given(survey_lines(min_rows=1, exotic=st.just(False)), st.data())
    def test_odd_character_or_float_only_number_names_its_line(self, lines, data):
        # in one data row: an odd character inside its AP, X or Y fields or as the
        # break before the next data row, or an AP, X or Y field spelled as only
        # float() reads it; an earlier row may hold an ordinary fault
        rows = [i for i, line in enumerate(lines) if line.strip()][1:]
        row = data.draw(st.sampled_from(rows))
        ends = ["\n"] * len(lines)
        ap_count = lines[0].count("AP")
        fields = lines[row].split(",")
        how = data.draw(st.sampled_from(["inside", "spelling"] + ["break"] * (row + 1 in rows)))
        if how == "inside":
            numbers = ",".join(fields[: ap_count + 2])
            at = data.draw(st.integers(0, len(numbers)))
            odd = data.draw(st.sampled_from(ODD_CHARACTERS))
            lines[row] = numbers[:at] + odd + lines[row][at:]
        elif how == "break":
            ends[row] = data.draw(st.sampled_from(ODD_CHARACTERS))
        else:
            column = data.draw(st.integers(0, ap_count + 1))
            tokens = raw_tokens(exotic=True) if column < ap_count else coord_tokens(exotic=True)
            fields[column] = data.draw(tokens.filter(lambda t: "_" in t or not t.isascii()))
            lines[row] = ",".join(fields)
        earlier = rows[: rows.index(row)]
        if earlier and data.draw(st.booleans()):
            at = data.draw(st.sampled_from(earlier))
            fields = lines[at].split(",")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(
                st.sampled_from(CORRUPT_TOKENS)
            )
            lines[at] = ",".join(fields)
        params = NormalizationParams()
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "survey.csv"
            path.write_text(_joined(lines[:row], ends), encoding="utf-8")
            try:
                load_lines(path, params)
                before = None
            except FpsynthError as e:
                before = e
            path.write_text(_joined(lines, ends), encoding="utf-8")
            with pytest.raises(FpsynthError) as got:
                load_dataset(path, params)
        if before is not None:  # the ordinary fault on an earlier line
            assert type(got.value) is type(before)
            assert str(got.value) == str(before)
        else:
            assert type(got.value) is ParseError
            assert f": line {row + 1}: " in str(got.value)

    @pytest.mark.parametrize(
        "body", ["", "\n", "\n\n", "   \n\t\n", " ", "\r\n \r\n", "\x0b\n", "\x1c  \u2028"]
    )
    @pytest.mark.parametrize("header", ["AP001,AP002,X,Y", "AP001,X,Y,COLLECTOR"])
    def test_header_and_blank_lines_load_an_empty_dataset(self, header, body):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got, oracle = _load_both(header + "\n" + body)
        assert caught == []
        _assert_same_dataset(got, oracle)
        assert len(got) == 0 and got.rss.shape == (0, header.count("AP"))

    @settings(max_examples=200, deadline=None)
    @given(survey_lines(min_rows=1, exotic=st.just(False)), st.data())
    def test_one_corrupted_line_raises_the_oracle_error(self, lines, data):
        row = data.draw(st.sampled_from([i for i, ln in enumerate(lines) if ln.strip()][1:]))
        fields = lines[row].split(",")
        how = data.draw(st.sampled_from(["replace"] * 4 + ["drop", "add", "collector"]))
        if how == "replace":
            token = data.draw(st.sampled_from(CORRUPT_TOKENS))
            fields[data.draw(st.integers(0, len(fields) - 1))] = token
        elif how == "drop":
            del fields[data.draw(st.integers(0, len(fields) - 1))]
        elif how == "add":
            fields.append(data.draw(raw_tokens(exotic=False)))
        else:
            fields[-1] = "x7"  # a bad collector id, or a bad Y without the column
        lines[row] = ",".join(fields)
        _assert_same_outcome("\n".join(lines) + "\n")

    @pytest.mark.parametrize("token", CORRUPT_TOKENS)
    @pytest.mark.parametrize("column", range(4))
    def test_each_corruption_in_each_column(self, token, column):
        fields = ["-1", "100", "3", "4", ""]
        fields[column] = token
        lines = ["AP001,AP002,X,Y,COLLECTOR", "-50.5,100,1.0,2.0,3", "", "-60,-70,0.0,-0.0,"]
        _assert_same_outcome("\n".join(lines + [",".join(fields), "-0,100,1,2, 4 "]))


def _assert_same_outcome(text):
    got, oracle = _load_both(text)
    if isinstance(oracle, Exception):
        assert type(got) is type(oracle)
        assert str(got) == str(oracle)
    else:  # the corruption spelled a valid value, e.g. "5" as a coordinate
        _assert_same_dataset(got, oracle)


def _valid_rows(rng, n, a):
    return np.where(rng.random((n, a)) < 0.4, 0.0, rng.uniform(0.1, 1.0, (n, a)))


class TestFirstBadRow:
    N = 300

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("value", [0.05, 1.5, -0.2, float("nan")])
    def test_value_outside_codomain(self, params, seed, value):
        rng = np.random.default_rng(seed)
        bad = int(rng.integers(self.N))
        rss = _valid_rows(rng, self.N, 4)
        rss[bad, int(rng.integers(4))] = value
        index = rng.integers(0, 7, self.N)
        locations = tuple(Coordinate(float(i), 0.0) for i in range(7))
        with pytest.raises(RangeError, match=rf"^sample {bad} has RSS entry {value}"):
            FingerprintDataset(rss, index, locations, params)

    @pytest.mark.parametrize("value", [0.05, float("nan")])
    def test_value_outside_codomain_in_a_later_row_block(self, params, value):
        # 300 rows of 700 values span four row blocks of the codomain check
        rng = np.random.default_rng(5)
        rss = _valid_rows(rng, self.N, 700)
        rss[250, 699] = value
        index = rng.integers(0, 7, self.N)
        locations = tuple(Coordinate(float(i), 0.0) for i in range(7))
        with pytest.raises(RangeError, match=rf"^sample 250 has RSS entry {value}"):
            FingerprintDataset(rss, index, locations, params)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("wrong", [7, -1, 1000])
    def test_location_index_out_of_range(self, params, seed, wrong):
        rng = np.random.default_rng(seed)
        bad = int(rng.integers(self.N))
        index = rng.integers(0, 7, self.N)
        index[bad] = wrong
        locations = tuple(Coordinate(float(i), 0.0) for i in range(7))
        with pytest.raises(ConsistencyError, match=rf"^sample {bad} has location index {wrong}"):
            FingerprintDataset(_valid_rows(rng, self.N, 4), index, locations, params)

    @pytest.mark.parametrize("value_row, index_row", [(20, 10), (10, 20), (15, 15)])
    def test_earliest_bad_sample_is_named(self, params, value_row, index_row):
        rng = np.random.default_rng(0)
        rss = _valid_rows(rng, 40, 3)
        rss[value_row, 1] = 0.05
        index = np.zeros(40, dtype=int)
        index[index_row] = 3
        first = min(value_row, index_row)
        error = RangeError if value_row <= index_row else ConsistencyError
        with pytest.raises(error, match=rf"^sample {first} "):
            FingerprintDataset(rss, index, (Coordinate(0.0, 0.0),), params)

    def test_nonpositive_ap_count(self, params):
        with pytest.raises(ConfigError, match="ap_count must be positive"):
            FingerprintDataset(np.empty((1, 0)), [0], (Coordinate(0.0, 0.0),), params)


class TestColumnarOperations:
    def test_merge_keeps_first_coordinate_seen(self, params):
        a = FingerprintDataset([[0.5]], [0], (Coordinate(-0.0, 1.0),), params)
        b_locations = (Coordinate(2.0, 2.0), Coordinate(0.0, 1.0))
        b = FingerprintDataset([[0.6], [0.7]], [0, 1], b_locations, params)
        merged = merge_datasets(a, b)
        assert [(repr(c.x), c.y) for c in merged.locations] == [("-0.0", 1.0), ("2.0", 2.0)]
        assert merged.loc_index.tolist() == [0, 1, 0]
        assert merged.rss[:, 0].tolist() == [0.5, 0.6, 0.7]

    def _adjacent_parts(self, params, rows=(7, 5, 4), width=3):
        """Datasets over consecutive row ranges of one buffer, and that buffer."""
        rng = np.random.default_rng(8)
        buf = _valid_rows(rng, sum(rows), width)
        locations = tuple(Coordinate(float(i), 1.0) for i in range(4))
        parts, lo = [], 0
        for n in rows:
            index = rng.integers(0, 4, n)
            parts.append(FingerprintDataset(buf[lo : lo + n], index, locations, params))
            lo += n
        return parts, buf

    @pytest.mark.parametrize("rows", [(7, 5, 4), (7, 0, 5, 4, 0)])
    def test_merge_into_the_buffer_its_parts_fill_copies_nothing(self, params, rows):
        # rows of 512 KB: validating the merged matrix takes one row per block
        parts, buf = self._adjacent_parts(params, rows, width=1 << 16)
        plain = merge_datasets(*parts)
        tracemalloc.start()
        try:
            merged = merge_datasets(*parts, out=buf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert merged.rss is buf and not buf.flags.writeable
        assert peak < buf.strides[0]  # under one row: no part was copied
        assert merged.rss.tobytes() == plain.rss.tobytes()
        assert np.array_equal(merged.loc_index, plain.loc_index)
        assert merged.locations == plain.locations
        assert list(merged.collector_ids) == list(plain.collector_ids)

    @pytest.mark.parametrize("rows", [(7, 5, 4), (7, 0, 5, 4, 0)])
    def test_merge_into_out_copies_parts_held_elsewhere(self, params, rows):
        parts, buf = self._adjacent_parts(params, rows)
        out = np.empty_like(buf)
        merged = merge_datasets(*parts, out=out)
        assert merged.rss is out and not out.flags.writeable
        assert not np.shares_memory(merged.rss, buf)
        assert merged.rss.tobytes() == np.concatenate([p.rss for p in parts]).tobytes()
        plain = merge_datasets(*parts)
        assert np.array_equal(merged.loc_index, plain.loc_index)
        assert merged.locations == plain.locations

    def test_merge_into_out_refuses_a_part_over_another_slot(self, params):
        # np.concatenate([buf[4:], buf[:4]], out=buf) writes the first part
        # over rows 0-1 before it reads them for the second
        buf = _valid_rows(np.random.default_rng(9), 6, 2)
        before = buf.tobytes()
        loc = (Coordinate(0.0, 0.0),)
        parts = [FingerprintDataset(buf[4:], [0] * 2, loc, params),
                 FingerprintDataset(buf[:4], [0] * 4, loc, params)]
        with pytest.raises(ConsistencyError, match=r"part 0 .* 0:2"):
            merge_datasets(*parts, out=buf)
        assert buf.tobytes() == before

    @pytest.mark.parametrize("order", [(1, 0, 2), (0, 2), (2, 1)])
    def test_merge_of_parts_out_of_buffer_order_copies(self, params, order):
        parts, buf = self._adjacent_parts(params)
        merged = merge_datasets(*[parts[i] for i in order])
        assert not np.shares_memory(merged.rss, buf)
        assert merged.rss.tobytes() == np.concatenate([parts[i].rss for i in order]).tobytes()

    def test_merge_of_rows_that_start_inside_a_row_copies(self, params):
        buf = np.full((4, 3), 0.5)
        part = FingerprintDataset(buf.reshape(-1)[1:10].reshape(3, 3), [0, 0, 0],
                                  (Coordinate(0.0, 0.0),), params)
        assert part.rss.base is buf
        assert not np.shares_memory(merge_datasets(part).rss, buf)

    def test_take_into_a_given_matrix(self, tiny_dataset):
        rows = [7, 0, -2, 1]
        out = np.empty((len(rows), tiny_dataset.ap_count))
        sub = tiny_dataset.take(rows, out=out)
        plain = tiny_dataset.take(rows)
        assert sub.rss is out and not out.flags.writeable
        assert sub.rss.tobytes() == plain.rss.tobytes()
        assert np.array_equal(sub.loc_index, plain.loc_index)
        assert sub.locations == plain.locations
        with pytest.raises(IndexError):
            tiny_dataset.take([len(tiny_dataset)], out=out[:1])

    def test_take_renumbers_locations_by_first_appearance(self, tiny_dataset):
        rows = [7, 0, 6, 1]
        sub = tiny_dataset.take(rows)
        expected = [tiny_dataset.locations[tiny_dataset.loc_index[i]] for i in rows]
        assert sub.locations == (expected[0], expected[1])
        assert [sub.locations[j] for j in sub.loc_index] == expected
        assert np.array_equal(sub.rss, tiny_dataset.rss[rows])

    def test_matrix_is_read_only(self, tiny_dataset):
        with pytest.raises(ValueError):
            tiny_dataset.rss[0, 0] = 0.5

    def test_caller_arrays_are_frozen(self, params):
        rss = np.full((3, 2), 0.5)
        index = np.zeros(3, dtype=np.intp)
        FingerprintDataset(rss, index, (Coordinate(0.0, 0.0),), params)
        with pytest.raises(ValueError):
            rss[0, 0] = 0.05
        with pytest.raises(ValueError):
            index[0] = 5
