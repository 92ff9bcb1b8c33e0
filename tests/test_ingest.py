import csv
import json
import re
from contextlib import nullcontext
from datetime import date
from unittest.mock import patch

import numpy as np
import pytest

from conftest import business_dates, weekly_dates, write_csv
from herdsim import ingest
from herdsim.errors import InputError, NumericError, ParseError, ValidationError
from herdsim.ingest import (
    IndexSeries,
    ReturnsPanel,
    SearchPanel,
    _scan_numeric_csv,
    load_index_series,
    load_returns_column,
    load_returns_panel,
    load_search_series,
    load_sector_map,
    log_returns,
    save_index_series,
    save_returns_panel,
    write_json,
)
from herdsim.simcore.config import read_json


def save_search_panel(panel: SearchPanel, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["week_start", "ticker", "volume"])
        for ticker, volumes in zip(panel.tickers, panel.volume.T):
            for week, volume in zip(panel.weeks, volumes):
                week = week.isoformat() if isinstance(week, date) else week
                writer.writerow([week, ticker, repr(float(volume))])


def column(panel: ReturnsPanel, ticker: str) -> np.ndarray:
    return panel.matrix[:, panel.tickers.index(ticker)]


class TestRecordChecks:
    """The records check their fields when built directly, not only when a
    loader builds them."""

    DATES = tuple(range(3))

    @pytest.mark.parametrize("close, volume, message", [
        ([1.0, 2.0], [1.0, 1.0, 1.0], "index series columns have unequal lengths"),
        ([1.0, 2.0, 3.0], [1.0, 1.0], "index series columns have unequal lengths"),
        ([1.0, np.inf, 3.0], [1.0, 1.0, 1.0], "index series has non-finite numbers"),
        ([1.0, 2.0, 3.0], [1.0, np.nan, 1.0], "index series has non-finite numbers"),
        ([1.0, 0.0, 3.0], [1.0, 1.0, 1.0], "close prices must be positive"),
        ([1.0, 2.0, 3.0], [1.0, -1.0, 1.0], "volumes must be non-negative"),
    ], ids=["close-length", "volume-length", "close-finite", "volume-finite",
            "close", "volume"])
    def test_index_series(self, close, volume, message):
        with pytest.raises(ValidationError, match=message):
            IndexSeries(self.DATES, np.array(close), np.array(volume))

    @pytest.mark.parametrize("matrix, sector_of, message", [
        (np.zeros((3, 1)), {"AAA": "1", "BBB": "1"},
         r"panel matrix shape \(3, 1\) does not match 3 dates x 2 tickers"),
        (np.array([[0.0, 0.1], [np.nan, 0.2], [0.3, 0.4]]),
         {"AAA": "1", "BBB": "1"}, "panel contains missing or non-finite cells"),
        (np.zeros((3, 2)), {"AAA": "1"}, "ticker 'BBB' has no sector"),
    ], ids=["shape", "finite", "sector"])
    def test_returns_panel(self, matrix, sector_of, message):
        with pytest.raises(ValidationError, match=message):
            ReturnsPanel(self.DATES, ("AAA", "BBB"), sector_of, matrix)

    def test_returns_panel_without_tickers(self):
        with pytest.raises(ValidationError, match="panel needs at least 1 ticker"):
            ReturnsPanel(self.DATES, (), {}, np.zeros((3, 0)))


class TestLoadIndexSeries:
    def test_three_row_echo(self, tmp_path):
        path = write_csv(
            tmp_path / "i.csv",
            ["date", "close", "volume"],
            [
                ("2020-01-01", "100", "10"),
                ("2020-01-02", "110", "12"),
                ("2020-01-03", "99", "8"),
            ],
        )
        series = load_index_series(path)
        assert len(series.dates) == 3
        assert series.close.tolist() == [100.0, 110.0, 99.0]
        assert series.volume.tolist() == [10.0, 12.0, 8.0]

    def test_zero_close_names_row(self, tmp_path):
        path = write_csv(
            tmp_path / "i.csv",
            ["date", "close", "volume"],
            [("2020-01-01", "100", "10"), ("2020-01-02", "0", "12")],
        )
        with pytest.raises(ValidationError, match="row 3"):
            load_index_series(path)

    def test_malformed_row_names_row(self, tmp_path):
        path = write_csv(
            tmp_path / "i.csv",
            ["date", "close", "volume"],
            [("2020-01-01", "100", "10"), ("2020-01-02", "abc", "12")],
        )
        with pytest.raises(ParseError, match="row 3"):
            load_index_series(path)

    def test_duplicate_date_rejected(self, tmp_path):
        path = write_csv(
            tmp_path / "i.csv",
            ["date", "close", "volume"],
            [("2020-01-01", "100", "10"), ("2020-01-01", "101", "12")],
        )
        with pytest.raises(ValidationError, match="duplicate date"):
            load_index_series(path)

    def test_rows_sorted_by_date(self, tmp_path):
        path = write_csv(
            tmp_path / "i.csv",
            ["date", "close", "volume"],
            [
                ("2020-01-03", "99", "8"),
                ("2020-01-01", "100", "10"),
                ("2020-01-02", "110", "12"),
            ],
        )
        series = load_index_series(path)
        assert series.close.tolist() == [100.0, 110.0, 99.0]

    def test_large_fixture_round_trips(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 5000
        closes = 50 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
        series = IndexSeries(
            dates=tuple(business_dates(n)),
            close=closes,
            volume=rng.uniform(0, 1e6, n),
        )
        path = tmp_path / "big.csv"
        save_index_series(series, path)
        with open(path) as fh:
            assert sum(1 for _ in fh) == n + 1
        back = load_index_series(path)
        assert back.dates == series.dates
        assert np.array_equal(back.close, series.close)
        assert np.array_equal(back.volume, series.volume)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="nothere"):
            load_index_series(tmp_path / "nothere.csv")

    def test_wrong_header(self, tmp_path):
        path = write_csv(tmp_path / "i.csv", ["day", "price"], [("1", "2")])
        with pytest.raises(ParseError, match="expected header"):
            load_index_series(path)


class TestLogReturns:
    def test_exponential_closes(self):
        series = IndexSeries(
            dates=tuple(business_dates(3)),
            close=np.array([1.0, np.e, np.e]),
            volume=np.zeros(3),
        )
        assert log_returns(series) == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_hand_arithmetic(self):
        series = IndexSeries(
            dates=tuple(business_dates(3)),
            close=np.array([100.0, 110.0, 99.0]),
            volume=np.array([1.0, 2.0, 3.0]),
        )
        out = log_returns(series)
        assert isinstance(out, np.ndarray)
        assert out == pytest.approx([np.log(1.1), np.log(0.9)], abs=1e-15)

    def test_constant_closes(self):
        series = IndexSeries(
            dates=tuple(business_dates(4)),
            close=np.full(4, 5.0),
            volume=np.zeros(4),
        )
        assert log_returns(series).tolist() == [0.0, 0.0, 0.0]

    def test_cumulative_sum_recovers_prices(self):
        rng = np.random.default_rng(1)
        closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, 300)))
        series = IndexSeries(
            dates=tuple(business_dates(300)), close=closes, volume=np.zeros(300)
        )
        rebuilt = closes[0] * np.exp(np.cumsum(log_returns(series)))
        assert np.max(np.abs(rebuilt / closes[1:] - 1.0)) < 1e-12


class TestReturnsPanel:
    def test_small_panel(self, panel_files):
        panel_path, sectors_path, matrix, tickers, sectors = panel_files
        panel = load_returns_panel(panel_path, sectors_path)
        assert panel.tickers == tuple(tickers)
        assert panel.matrix.shape == matrix.shape
        assert np.array_equal(panel.matrix, matrix)
        assert panel.sector_of == sectors

    def test_missing_sector_names_ticker(self, tmp_path):
        panel = write_csv(
            tmp_path / "p.csv",
            ["date", "AAA", "XYZ"],
            [("2020-01-01", "0.1", "0.2"), ("2020-01-02", "0.0", "0.1")],
        )
        sectors = write_csv(tmp_path / "s.csv", ["ticker", "sector_id"], [("AAA", "1")])
        with pytest.raises(ValidationError, match="XYZ"):
            load_returns_panel(panel, sectors)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA,BBB\n2020-01-01,0.1,0.2\n2020-01-02,0.3\n")
        sectors = write_csv(
            tmp_path / "s.csv", ["ticker", "sector_id"], [("AAA", "1"), ("BBB", "1")]
        )
        with pytest.raises(ParseError, match="row 3"):
            load_returns_panel(path, sectors)

    def test_missing_cell_rejected_by_default(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,AAA,BBB\n2020-01-01,0.1,\n2020-01-02,0.3,0.1\n")
        sectors = write_csv(
            tmp_path / "s.csv", ["ticker", "sector_id"], [("AAA", "1"), ("BBB", "1")]
        )
        with pytest.raises(ValidationError, match="missing cell"):
            load_returns_panel(path, sectors)

    def test_forward_fill_zero_fills_short_gaps(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "date,AAA,BBB\n2020-01-01,0.1,\n2020-01-02,0.3,\n2020-01-03,0.2,0.1\n"
        )
        sectors = write_csv(
            tmp_path / "s.csv", ["ticker", "sector_id"], [("AAA", "1"), ("BBB", "1")]
        )
        panel = load_returns_panel(path, sectors, forward_fill=True)
        assert panel.matrix[:, 1].tolist() == [0.0, 0.0, 0.1]

    def test_forward_fill_rejects_long_gaps(self, tmp_path):
        path = tmp_path / "p.csv"
        rows = "\n".join(
            f"2020-01-0{i}," for i in range(1, 4)
        )
        path.write_text("date,AAA\n" + rows + "\n2020-01-04,0.1\n")
        sectors = write_csv(tmp_path / "s.csv", ["ticker", "sector_id"], [("AAA", "1")])
        with pytest.raises(ValidationError, match="gap longer"):
            load_returns_panel(path, sectors, forward_fill=True)

    def test_forward_fill_names_first_ticker_in_column_order(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,BBB,AAA\n" + "".join(
            f"2020-01-0{i},,\n" for i in range(1, 4)) + "2020-01-04,0.1,0.2\n")
        sectors = write_csv(tmp_path / "s.csv", ["ticker", "sector_id"],
                            [("AAA", "1"), ("BBB", "1")])
        with pytest.raises(ValidationError, match="'BBB' has a gap longer"):
            load_returns_panel(path, sectors, forward_fill=True)

    def test_duplicate_sector_ticker_names_row(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("ticker,sector_id\nAAA,1\nBBB,1\n AAA ,2\n")
        with pytest.raises(ValidationError, match="row 4: duplicate ticker 'AAA'"):
            load_sector_map(path)

    def test_column_permutation_same_content(self, panel_files, tmp_path):
        panel_path, sectors_path, matrix, tickers, sectors = panel_files
        panel = load_returns_panel(panel_path, sectors_path)
        perm = [2, 0, 3, 1]
        permuted = ReturnsPanel(
            dates=panel.dates,
            tickers=tuple(tickers[i] for i in perm),
            sector_of=sectors,
            matrix=matrix[:, perm],
        )
        out = tmp_path / "perm.csv"
        save_returns_panel(permuted, out, tmp_path / "perm_sectors.csv")
        back = load_returns_panel(out, sectors_path)
        for ticker in tickers:
            assert np.array_equal(column(back, ticker), column(panel, ticker))

    def test_roundtrip(self, panel_files, tmp_path):
        panel_path, sectors_path, *_ = panel_files
        panel = load_returns_panel(panel_path, sectors_path)
        out = tmp_path / "copy.csv"
        out_sectors = tmp_path / "copy_sectors.csv"
        save_returns_panel(panel, out, out_sectors)
        back = load_returns_panel(out, out_sectors)
        assert back.tickers == panel.tickers
        assert back.dates == panel.dates
        assert np.array_equal(back.matrix, panel.matrix)
        assert back.sector_of == panel.sector_of

    def test_index_component_scale_fixture(self, tmp_path):
        # 108 tickers across 5 sectors, the scale of a large-index panel
        rng = np.random.default_rng(5)
        n_tickers, n_days = 108, 30
        tickers = [f"T{i:03d}" for i in range(n_tickers)]
        sectors = {t: str(i % 5 + 1) for i, t in enumerate(tickers)}
        matrix = rng.normal(0, 0.02, (n_days, n_tickers))
        rows = [
            [d.isoformat()] + [repr(float(v)) for v in matrix[i]]
            for i, d in enumerate(business_dates(n_days))
        ]
        panel_path = write_csv(tmp_path / "big.csv", ["date"] + tickers, rows)
        sectors_path = write_csv(
            tmp_path / "big_sectors.csv",
            ["ticker", "sector_id"],
            [(t, sectors[t]) for t in tickers],
        )
        panel = load_returns_panel(panel_path, sectors_path)
        assert len(panel.tickers) == 108
        assert panel.matrix.shape == (30, 108)
        assert len(set(panel.sectors)) == 5


class TestSearchSeries:
    def make_file(self, tmp_path, tickers_weeks):
        rows = []
        for ticker, weeks, volumes in tickers_weeks:
            rows += [
                (w.isoformat(), ticker, repr(float(v)))
                for w, v in zip(weeks, volumes)
            ]
        return write_csv(
            tmp_path / "search.csv", ["week_start", "ticker", "volume"], rows
        )

    def test_single_ticker(self, tmp_path):
        weeks = weekly_dates(104)
        rng = np.random.default_rng(2)
        path = self.make_file(tmp_path, [("AAA", weeks, rng.uniform(0, 100, 104))])
        panel = load_search_series(path)
        assert panel.tickers == ("AAA",)
        assert len(panel.weeks) == 104
        assert panel.volume.shape == (104, 1)

    def test_negative_volume_rejected(self, tmp_path):
        weeks = weekly_dates(60)
        volumes = np.ones(60)
        volumes[7] = -3.0
        path = self.make_file(tmp_path, [("AAA", weeks, volumes)])
        with pytest.raises(ValidationError, match="negative volume"):
            load_search_series(path)

    def test_offset_tickers_aligned_to_intersection(self, tmp_path):
        weeks = weekly_dates(120)
        rng = np.random.default_rng(3)
        path = self.make_file(
            tmp_path,
            [
                ("AAA", weeks[:110], rng.uniform(0, 10, 110)),
                ("BBB", weeks[10:], rng.uniform(0, 10, 110)),
            ],
        )
        panel = load_search_series(path)
        assert panel.tickers == ("AAA", "BBB")
        assert panel.volume.shape == (100, 2)
        assert panel.weeks == tuple(weeks[10:110])

    def test_tickers_without_a_common_week_rejected(self, tmp_path):
        weeks = weekly_dates(120)
        path = self.make_file(tmp_path, [("AAA", weeks[:60], np.ones(60)),
                                         ("BBB", weeks[60:], np.ones(60))])
        with pytest.raises(ValidationError,
                           match="search.csv: tickers share no common weeks"):
            load_search_series(path)

    def test_duplicate_week_names_row(self, tmp_path):
        weeks = weekly_dates(60)
        path = self.make_file(tmp_path, [("AAA", weeks, np.ones(60)),
                                         (" AAA", weeks[3:4], [2.0])])
        with pytest.raises(ValidationError,
                           match=f"row 62: duplicate week {weeks[3]} for 'AAA'"):
            load_search_series(path)

    @pytest.mark.parametrize("weeks, volume, message", [
        (weekly_dates(60), np.ones((60, 1)),
         r"search volume shape \(60, 1\) does not match 60 weeks x 2 tickers"),
        (weekly_dates(60)[::-1], np.ones((60, 2)),
         "search weeks must be strictly increasing"),
        (weekly_dates(60), -np.ones((60, 2)), "search panel has negative volume"),
        (weekly_dates(2), np.array([[1.0, 1.0], [np.nan, 1.0]]),
         "search panel has non-finite volume"),
        (weekly_dates(2), np.array([[1.0, np.inf], [1.0, 1.0]]),
         "search panel has non-finite volume"),
    ], ids=["shape", "decreasing", "negative", "nan", "inf"])
    def test_panel_checks(self, weeks, volume, message):
        with pytest.raises(ValidationError, match=message):
            SearchPanel(tuple(weeks), ("AAA", "BBB"), volume)

    def test_roundtrip(self, tmp_path):
        weeks = weekly_dates(80)
        rng = np.random.default_rng(4)
        panel = SearchPanel(tuple(weeks), ("AAA", "BBB"), np.column_stack(
            [rng.uniform(0, 5, 80), rng.uniform(0, 5, 80)]))
        path = tmp_path / "out.csv"
        save_search_panel(panel, path)
        back = load_search_series(path)
        assert back.tickers == panel.tickers
        assert np.array_equal(back.volume, panel.volume)
        assert back.weeks == panel.weeks


class TestNumpyFastPath:
    """The loaders parse clean files with one numpy pass and hand anything
    unusual to the row parser, whose errors name the row."""

    @pytest.fixture
    def sectors(self, tmp_path):
        return write_csv(tmp_path / "s.csv", ["ticker", "sector_id"],
                         [("AAA", "1"), ("BBB", "1")])

    def test_clean_files_take_the_numpy_path(self, tmp_path, panel_files, index_csv):
        returns = tmp_path / "returns.csv"
        returns.write_text("day,R\r\n1,3\r\n\r\n2,-4\r\n")
        # (path, header width, leading key columns, usecols)
        for args in ((panel_files[0], 5, 1, None), (index_csv, 3, 1, None),
                     (returns, 2, 0, (1,))):
            assert _scan_numeric_csv(*args) is not None
        assert load_returns_column(returns).tolist() == [3.0, -4.0]

    @pytest.mark.parametrize("text", [
        'date,AAA,BBB\n2020-01-01,"0.1",0.2\n2020-01-02,0.3,0.1\n',
        "date,AAA,BBB\n2020-01-01,0.1,0.2\n2020-01-02,0.3,0.1\x1c\n",
    ])
    def test_quoted_and_control_cells_fall_back(self, tmp_path, sectors, text):
        path = tmp_path / "p.csv"
        path.write_text(text)
        assert _scan_numeric_csv(path, 3, 1, None) is None
        panel = load_returns_panel(path, sectors)
        assert panel.matrix.tolist() == [[0.1, 0.2], [0.3, 0.1]]

    @pytest.mark.parametrize("char", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_cell_with_control_character_is_rejected(self, tmp_path, char):
        path = tmp_path / "returns.csv"
        path.write_text(f"day,R\n1,3\n2,4{char}\n")
        with pytest.raises(InputError, match="row 3: cannot parse return"):
            load_returns_column(path)

    @pytest.mark.parametrize("text, error, message", [
        ("date,AAA,BBB\n2020-01-01,0.1,0.2\n2020-01-02,#0.3,0.1\n",
         ParseError, "row 3: cannot parse AAA '#0.3'"),
        ("date,AAA,BBB\n2020-01-01,0.1,0.2\n\n2020-01-02,0.3,0.1,0.5\n",
         ParseError, "row 4: ragged row with 4 fields"),
        ("date,AAA,BBB\n2020-01-01,0.1,nan\n2020-01-02,0.3,0.1\n",
         ValidationError, "row 2: non-finite BBB"),
        ("date,AAA,BBB\n2020-01-01,0.1,0.2,0.3\n2020-01-02,0.3,0.1,0.5\n",
         ParseError, "row 2: ragged row with 4 fields, expected 3"),
    ])
    def test_panel_errors_name_the_row(self, tmp_path, sectors, text, error, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(error, match=message):
            load_returns_panel(path, sectors)

    @pytest.mark.parametrize("rows, error, message", [
        ("2020-01-01,100,10\n2020-01-02,-1.5,12\n",
         ValidationError, "row 3: non-positive close -1.5"),
        ("2020-01-01,100,10\n2020-01-02,101,-0.5\n",
         ValidationError, "row 3: negative volume -0.5"),
        ("2020-01-01,100,10\n2020-01-02,101\x1c,12\n",
         ParseError, "row 3: cannot parse close"),
        ("2020-01-02,100,10\r\n\r\n2020-01-03,100,10\r\n2020-01-02,101,12\r\n",
         ValidationError, "rows 2 and 5: duplicate date 2020-01-02"),
    ])
    def test_index_errors_name_the_row(self, tmp_path, rows, error, message):
        path = tmp_path / "i.csv"
        path.write_bytes(("date,close,volume\n" + rows).encode())
        with pytest.raises(error, match=message):
            load_index_series(path)

    def test_blank_lines_take_the_numpy_path_and_count_as_rows(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_bytes(b"date,close,volume\r\n2020-01-01,100,10\r\n\r\n"
                         b"\r2020-01-02,0,12\r\n")
        assert _scan_numeric_csv(path, 3, 1, None) is not None
        with pytest.raises(ValidationError, match="row 5: non-positive close 0.0"):
            load_index_series(path)

    @pytest.mark.parametrize("labels, bad", [
        (("2020-01-01", "5"), "'5'"), (("5", "2020-01-01"), "'2020-01-01'"),
    ])
    def test_dates_and_day_numbers_do_not_mix(self, tmp_path, labels, bad):
        path = tmp_path / "i.csv"
        path.write_text("date,close,volume\n" + "".join(
            f"{label},100,10\n" for label in labels))
        with pytest.raises(ParseError, match=f"row 3: cannot parse date {bad}"):
            load_index_series(path)


def with_bom(path):
    """A copy of `path` that starts with a UTF-8 byte-order mark, as
    Excel's "CSV UTF-8" export writes."""
    copy = path.with_name("bom_" + path.name)
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


def same(a, b):
    """Records equal field by field, arrays bit for bit."""
    assert type(a) is type(b)
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray):
            assert value.tobytes() == other.tobytes()
        else:
            assert value == other


class TestEncoding:
    """Input files are read as UTF-8, with or without a byte-order mark, on
    the numpy path and on the row parser alike; output files are written as
    UTF-8."""

    @pytest.fixture(params=[False, True], ids=["numpy-path", "row-parser"])
    def path_taken(self, request):
        with patch.object(ingest, "_scan_numeric_csv",
                          return_value=None) if request.param else nullcontext():
            yield

    def test_index_with_bom(self, index_csv, path_taken):
        same(load_index_series(with_bom(index_csv)), load_index_series(index_csv))

    def test_panel_and_sectors_with_bom(self, panel_files, path_taken):
        panel, sectors = panel_files[:2]
        same(load_returns_panel(with_bom(panel), with_bom(sectors)),
             load_returns_panel(panel, sectors))

    def test_search_with_bom(self, info_files, path_taken):
        search = info_files[0]
        same(load_search_series(with_bom(search)), load_search_series(search))

    def test_returns_column_with_bom(self, tmp_path, path_taken):
        path = tmp_path / "returns.csv"
        path.write_bytes(b"day,R\r\n1,3\r\n2,-4\r\n")
        assert load_returns_column(with_bom(path)).tolist() == [3.0, -4.0]

    def test_config_with_bom(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps({"N": 100, "M": 20, "seed": 3}).encode())
        assert read_json(with_bom(path)) == read_json(path)

    def test_bom_row_numbers(self, tmp_path):
        path = tmp_path / "i.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,close,volume\n"
                         b"2020-01-01,100,10\n2020-01-02,0,12\n")
        with pytest.raises(ValidationError, match="row 3: non-positive close"):
            load_index_series(path)

    def test_non_ascii_names_round_trip_as_utf8(self, tmp_path):
        tickers = ("\u00c4BC", "\u6771\u4eac")
        panel = ReturnsPanel(dates=(1, 2), tickers=tickers,
                             sector_of={tickers[0]: "\u00e9", tickers[1]: "2"},
                             matrix=np.array([[0.1, 0.2], [0.3, -0.1]]))
        path, sectors = tmp_path / "panel.csv", tmp_path / "sectors.csv"
        save_returns_panel(panel, path, sectors)
        assert path.read_bytes().startswith("date,\u00c4BC,\u6771\u4eac".encode())
        assert "\u00e9".encode() in sectors.read_bytes()
        same(load_returns_panel(path, sectors), panel)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_numbers(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(NumericError, match=f"^{re.escape(str(path))}: "):
        write_json(path, {"tau": 12, "fit": {"params": [1.0, bad]}})
    assert not path.exists()
