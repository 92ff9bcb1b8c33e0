"""Loading and validation of market data files.

Canonical CSV schemas (headered, ISO-8601 dates, plain decimal numbers):

    index.csv    date,close,volume          daily index level and volume
    panel.csv    date,TICKER1,...,TICKERn   log returns per stock
    sectors.csv  ticker,sector_id           sector membership
    search.csv   week_start,ticker,volume   weekly search volumes, long form

Panels may also be indexed by integer day numbers instead of dates (the
simulation drivers emit those); the first column only has to be strictly
increasing under one of the two interpretations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date
from itertools import islice

import numpy as np

from .errors import InputError, ParseError, ValidationError

#: Default correlating time of weekly attention data; search series must be
#: at least twice this long so that moving windows are computable.
DEFAULT_TAU_WEEKS = 26


def _parse_date(token: str, path, row: int):
    try:
        return date.fromisoformat(token)
    except ValueError:
        try:
            return int(token)
        except ValueError:
            raise ParseError(
                f"{path}: row {row}: cannot parse date {token!r}"
            ) from None


def _parse_float(token: str, path, row: int, column: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{path}: row {row}: cannot parse {column} {token!r}"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(f"{path}: row {row}: non-finite {column}")
    return value


def _check_increasing(labels, what: str) -> None:
    for a, b in zip(labels, labels[1:]):
        if not a < b:
            raise ValidationError(
                f"{what} must be strictly increasing; {b!r} follows {a!r}"
            )


@dataclass(frozen=True)
class IndexSeries:
    """Daily index levels with trade volumes."""

    dates: tuple
    close: np.ndarray
    volume: np.ndarray

    def __post_init__(self):
        if len(self.dates) < 2:
            raise ValidationError("index series needs at least 2 rows")
        if len(self.close) != len(self.dates) or len(self.volume) != len(self.dates):
            raise ValidationError("index series columns have unequal lengths")
        _check_increasing(self.dates, "index dates")
        if np.any(self.close <= 0.0):
            raise ValidationError("close prices must be positive")
        if np.any(self.volume < 0.0):
            raise ValidationError("volumes must be non-negative")


@dataclass(frozen=True)
class ReturnSeries:
    """Daily log returns, with the volume of the day each return ends on."""

    dates: tuple
    returns: np.ndarray
    volume: np.ndarray | None = None

    def __post_init__(self):
        if len(self.returns) != len(self.dates):
            raise ValidationError("return series columns have unequal lengths")
        _check_increasing(self.dates, "return dates")
        if not np.all(np.isfinite(self.returns)):
            raise ValidationError("returns must be finite")
        if self.volume is not None:
            if len(self.volume) != len(self.dates):
                raise ValidationError("volume column has wrong length")
            if np.any(self.volume < 0.0):
                raise ValidationError("volumes must be non-negative")


@dataclass(frozen=True)
class ReturnsPanel:
    """Log returns of several stocks on common dates, with a sector map."""

    dates: tuple
    tickers: tuple[str, ...]
    sector_of: dict[str, str]
    matrix: np.ndarray

    def __post_init__(self):
        if len(self.dates) < 2:
            raise ValidationError("panel needs at least 2 dates")
        _check_increasing(self.dates, "panel dates")
        if self.matrix.shape != (len(self.dates), len(self.tickers)):
            raise ValidationError(
                f"panel matrix shape {self.matrix.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("panel contains missing or non-finite cells")
        for ticker in self.tickers:
            if ticker not in self.sector_of:
                raise ValidationError(f"ticker {ticker!r} has no sector")

    def column(self, ticker: str) -> np.ndarray:
        return self.matrix[:, self.tickers.index(ticker)]

    @property
    def sectors(self) -> tuple[str, ...]:
        return tuple(self.sector_of[t] for t in self.tickers)


@dataclass(frozen=True)
class SearchSeries:
    """Weekly search volumes of one ticker."""

    ticker: str
    weeks: tuple
    volume: np.ndarray

    def __post_init__(self):
        if len(self.volume) != len(self.weeks):
            raise ValidationError("search series columns have unequal lengths")
        _check_increasing(self.weeks, f"weeks of {self.ticker}")
        if len(self.weeks) < 2 * DEFAULT_TAU_WEEKS:
            raise ValidationError(
                f"search series {self.ticker!r} has {len(self.weeks)} weeks; "
                f"need at least {2 * DEFAULT_TAU_WEEKS} for moving windows"
            )
        if np.any(self.volume < 0.0):
            raise ValidationError(
                f"search series {self.ticker!r} has negative volume"
            )


def _read_rows(path, expected_header: list[str]):
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if [h.strip().lower() for h in header] != expected_header:
            raise ParseError(
                f"{path}: expected header {','.join(expected_header)}, "
                f"got {','.join(header)}"
            )
        rows = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected_header):
                raise ParseError(
                    f"{path}: row {row_no}: expected "
                    f"{len(expected_header)} fields, got {len(row)}"
                )
            rows.append((row_no, row))
    return rows


# Characters the two parsers read differently: csv unquotes '"', and numpy
# strips \x1c-\x1f around a number as whitespace where float() rejects them.
def _unsafe_for_numpy(line: str) -> bool:
    return (
        '"' in line or "\x1c" in line or "\x1d" in line
        or "\x1e" in line or "\x1f" in line
    )


@dataclass(frozen=True)
class _Scanned:
    header: list[str]
    row_numbers: list[int]
    labels: list
    values: np.ndarray


def _scan_numeric_csv(path, header_ok, usecols=None, labels=True):
    """Fast path of the loaders: a headered numeric CSV in one numpy pass.

    One streaming pass over the lines checks that each non-blank line has
    as many fields as the header and no character `_unsafe_for_numpy`
    rejects, and parses the label column (the first) when `labels` is set.
    Then one `np.loadtxt` call parses `usecols` (default: every column
    after the first). Returns None when anything is unusual -- an
    unreadable file, a header `header_ok` rejects, a ragged or quoted
    line, an unparsable label or cell, a non-finite value, no data rows.

    The row parsers stay as the fallback: they name the offending row in
    each error, unquote quoted cells, and handle empty cells under
    `forward_fill`. On input the fast path accepts, both produce the same
    labels and bit-identical arrays.
    """
    row_numbers, parsed_labels = [], []
    try:
        with open(path, newline="") as fh:
            header_line = fh.readline()
            if header_line[:1] in ("", "\r", "\n") or _unsafe_for_numpy(
                header_line
            ):
                return None
            header = header_line.rstrip("\r\n").split(",")
            if not header_ok(header):
                return None
            commas = len(header) - 1
            for row_no, line in enumerate(fh, start=2):
                if line[0] in "\r\n":
                    continue
                if line.count(",") != commas or _unsafe_for_numpy(line):
                    return None
                row_numbers.append(row_no)
                if labels:
                    parsed_labels.append(
                        _parse_date(line[: line.index(",")], path, row_no)
                    )
        if not row_numbers:
            return None
        if usecols is None:
            usecols = range(1, len(header))
        values = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2,
            comments=None,
        )
    except (OSError, ValueError, ParseError):
        return None
    if len(values) != len(row_numbers) or not np.all(np.isfinite(values)):
        return None
    return _Scanned(header, row_numbers, parsed_labels, values)


_INDEX_HEADER = ["date", "close", "volume"]


def _index_header_ok(header) -> bool:
    return [h.strip().lower() for h in header] == _INDEX_HEADER


def load_index_series(path) -> IndexSeries:
    """Load an index.csv file, sorted by date."""
    fast = _scan_numeric_csv(path, _index_header_ok)
    if (
        fast is not None
        and np.all(fast.values[:, 0] > 0.0)
        and np.all(fast.values[:, 1] >= 0.0)
    ):
        days, row_numbers = fast.labels, fast.row_numbers
        close, volume = fast.values[:, 0], fast.values[:, 1]
    else:
        days, row_numbers, close, volume = _parse_index_rows(path)
    order = sorted(range(len(days)), key=days.__getitem__)
    for a, b in zip(order, order[1:]):
        if days[a] == days[b]:
            raise ValidationError(
                f"{path}: rows {row_numbers[a]} and {row_numbers[b]}: "
                f"duplicate date {days[a]}"
            )
    return IndexSeries(
        dates=tuple(days[i] for i in order),
        close=close[order],
        volume=volume[order],
    )


def _parse_index_rows(path):
    rows = _read_rows(path, _INDEX_HEADER)
    days, row_numbers, closes, volumes = [], [], [], []
    for row_no, (d, c, v) in rows:
        day = _parse_date(d, path, row_no)
        close = _parse_float(c, path, row_no, "close")
        volume = _parse_float(v, path, row_no, "volume")
        if close <= 0.0:
            raise ValidationError(
                f"{path}: row {row_no}: non-positive close {close}"
            )
        if volume < 0.0:
            raise ValidationError(
                f"{path}: row {row_no}: negative volume {volume}"
            )
        days.append(day)
        row_numbers.append(row_no)
        closes.append(close)
        volumes.append(volume)
    return days, row_numbers, np.array(closes), np.array(volumes)


def log_returns(series: IndexSeries) -> ReturnSeries:
    """Daily log returns ln(close[t] / close[t-1]), volumes from day t."""
    return ReturnSeries(
        dates=series.dates[1:],
        returns=np.diff(np.log(series.close)),
        volume=series.volume[1:].copy(),
    )


def load_sector_map(path) -> dict[str, str]:
    rows = _read_rows(path, ["ticker", "sector_id"])
    sector_of: dict[str, str] = {}
    for row_no, (ticker, sector) in rows:
        ticker = ticker.strip()
        if ticker in sector_of:
            raise ValidationError(
                f"{path}: row {row_no}: duplicate ticker {ticker!r}"
            )
        sector_of[ticker] = sector.strip()
    return sector_of


def _panel_header_ok(header) -> bool:
    tickers = {h.strip() for h in header[1:]}
    return (
        header[0].strip().lower() == "date"
        and len(tickers) == len(header) - 1 > 0
    )


def load_returns_panel(path, sector_map_path, forward_fill: bool = False) -> ReturnsPanel:
    """Load a panel.csv of per-stock returns plus its sectors.csv.

    Empty cells are rejected unless `forward_fill` is set, which zero-fills
    gaps of at most 2 consecutive days per ticker.
    """
    sector_of = load_sector_map(sector_map_path)
    fast = _scan_numeric_csv(path, _panel_header_ok)
    if fast is not None:
        labels, matrix = fast.labels, fast.values
        tickers = tuple(h.strip() for h in fast.header[1:])
    else:
        labels, tickers, matrix = _parse_panel_rows(path, forward_fill)
    if forward_fill and np.any(np.isnan(matrix)):
        for col, ticker in enumerate(tickers):
            gaps = np.isnan(matrix[:, col])
            run = 0
            for flag in gaps:
                run = run + 1 if flag else 0
                if run > 2:
                    raise ValidationError(
                        f"{path}: ticker {ticker!r} has a gap longer "
                        f"than 2 days"
                    )
            matrix[gaps, col] = 0.0
    for ticker in tickers:
        if ticker not in sector_of:
            raise ValidationError(
                f"ticker {ticker!r} missing from sector map {sector_map_path}"
            )
    return ReturnsPanel(
        dates=tuple(labels),
        tickers=tickers,
        sector_of={t: sector_of[t] for t in tickers},
        matrix=matrix,
    )


def _parse_panel_rows(path, forward_fill: bool):
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "date":
            raise ParseError(f"{path}: first column must be 'date'")
        tickers = tuple(h.strip() for h in header[1:])
        if len(tickers) == 0:
            raise ParseError(f"{path}: no ticker columns")
        if len(set(tickers)) != len(tickers):
            raise ValidationError(f"{path}: duplicate ticker columns")
        labels = []
        cells = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(tickers) + 1:
                raise ParseError(
                    f"{path}: row {row_no}: ragged row with {len(row)} fields"
                )
            labels.append(_parse_date(row[0], path, row_no))
            values = []
            for ticker, token in zip(tickers, row[1:]):
                token = token.strip()
                if token == "":
                    if not forward_fill:
                        raise ValidationError(
                            f"{path}: row {row_no}: missing cell for "
                            f"{ticker!r} (use forward_fill to zero-fill "
                            f"gaps of up to 2 days)"
                        )
                    values.append(np.nan)
                else:
                    values.append(_parse_float(token, path, row_no, ticker))
            cells.append(values)
    return labels, tickers, np.asarray(cells, dtype=float)


def load_returns_column(path) -> np.ndarray:
    """The second column of a headered CSV as floats: the aggregate return
    R of a simulation's returns.csv (`day,R[,stock columns]`)."""
    fast = _scan_numeric_csv(
        path, lambda header: len(header) >= 2, usecols=(1,), labels=False
    )
    values = fast.values[:, 0] if fast is not None else _parse_returns_rows(path)
    if len(values) < 2:
        raise InputError(f"{path}: no return rows")
    return values


def _parse_returns_rows(path) -> np.ndarray:
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise InputError(f"{path}: expected a returns CSV with >= 2 columns")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < 2:
                raise InputError(
                    f"{path}: row {row_no}: expected at least 2 fields, "
                    f"got {len(row)}"
                )
            try:
                values.append(float(row[1]))
            except ValueError:
                raise InputError(
                    f"{path}: row {row_no}: cannot parse return {row[1]!r}"
                ) from None
    return np.asarray(values)


def load_search_series(path, align: bool = True) -> list[SearchSeries]:
    """Load a long-form search.csv into one SearchSeries per ticker.

    With `align` (the default) all series are restricted to the common
    intersection of week labels so panel-wide comparisons share a clock.
    Result is sorted by ticker.
    """
    rows = _read_rows(path, ["week_start", "ticker", "volume"])
    per_ticker: dict[str, dict] = {}
    for row_no, (week, ticker, volume) in rows:
        ticker = ticker.strip()
        wk = _parse_date(week, path, row_no)
        vol = _parse_float(volume, path, row_no, "volume")
        if vol < 0.0:
            raise ValidationError(
                f"{path}: row {row_no}: negative volume {vol} for {ticker!r}"
            )
        bucket = per_ticker.setdefault(ticker, {})
        if wk in bucket:
            raise ValidationError(
                f"{path}: row {row_no}: duplicate week {wk} for {ticker!r}"
            )
        bucket[wk] = vol
    if not per_ticker:
        raise ValidationError(f"{path}: no data rows")
    if align and len(per_ticker) > 1:
        common = set.intersection(*(set(b) for b in per_ticker.values()))
        if not common:
            raise ValidationError(f"{path}: tickers share no common weeks")
        per_ticker = {
            t: {w: b[w] for w in b if w in common}
            for t, b in per_ticker.items()
        }
    result = []
    for ticker in sorted(per_ticker):
        weeks = tuple(sorted(per_ticker[ticker]))
        result.append(
            SearchSeries(
                ticker=ticker,
                weeks=weeks,
                volume=np.array([per_ticker[ticker][w] for w in weeks]),
            )
        )
    return result


def save_index_series(series: IndexSeries, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "close", "volume"])
        for day, close, volume in zip(series.dates, series.close, series.volume):
            writer.writerow([day.isoformat(), repr(float(close)), repr(float(volume))])


_WRITE_BLOCK_ROWS = 1024


def write_csv_table(path, header, labels, columns) -> None:
    """Write `header`, then one row per label: the label followed by the
    matching cell of each of the equal-length 1-D arrays in `columns`,
    formatted by repr().

    The bytes equal csv.writer's for cells that need no quoting
    (comma-separated, `\r\n` after each row). Formatting a block of rows
    column by column is several times faster than a `writerow` call per
    row, and the block size bounds the memory held in Python strings.
    """
    labels = iter(labels)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            stop = start + _WRITE_BLOCK_ROWS
            cells = [map(repr, column[start:stop].tolist()) for column in columns]
            rows = zip(islice(labels, _WRITE_BLOCK_ROWS), *cells)
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def save_returns_panel(panel: ReturnsPanel, path, sectors_path=None) -> None:
    write_csv_table(
        path,
        ["date"] + list(panel.tickers),
        (d.isoformat() if isinstance(d, date) else str(d) for d in panel.dates),
        np.asarray(panel.matrix, dtype=float).T,
    )
    if sectors_path is not None:
        save_sector_map(panel.sector_of, sectors_path)


def save_sector_map(sector_of: dict[str, str], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ticker", "sector_id"])
        for ticker in sorted(sector_of):
            writer.writerow([ticker, sector_of[ticker]])


def save_search_series(series_list: list[SearchSeries], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["week_start", "ticker", "volume"])
        for series in series_list:
            for week, volume in zip(series.weeks, series.volume):
                week = week.isoformat() if isinstance(week, date) else week
                writer.writerow([week, series.ticker, repr(float(volume))])
