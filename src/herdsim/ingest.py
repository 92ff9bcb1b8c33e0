"""Loading and validation of market data files, and the shared writers of
CSV tables and JSON files.

Canonical CSV schemas (headered, ISO-8601 dates, plain decimal numbers):

    index.csv    date,close,volume          daily index level and volume
    panel.csv    date,TICKER1,...,TICKERn   log returns per stock
    sectors.csv  ticker,sector_id           sector membership
    search.csv   week_start,ticker,volume   weekly search volumes, long form

Panels may also be indexed by integer day numbers instead of dates (the
simulation drivers emit those); the first column only has to be strictly
increasing under one of the two interpretations.

Every loader reads its file with `_read_table` and checks the result on
whole arrays. A well-formed file takes one byte scan and one `np.loadtxt`
pass; anything unusual goes to the row parser, which names the bad row.
"""

from __future__ import annotations

import csv
import json
import warnings
from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from itertools import count, islice

import numpy as np

from .errors import InputError, ParseError, ValidationError

#: Default correlating time of weekly attention data; search series must be
#: at least twice this long so that moving windows are computable.
DEFAULT_TAU_WEEKS = 26


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
    volume: np.ndarray

    def __post_init__(self):
        if len(self.returns) != len(self.dates):
            raise ValidationError("return series columns have unequal lengths")
        _check_increasing(self.dates, "return dates")
        if not np.all(np.isfinite(self.returns)):
            raise ValidationError("returns must be finite")
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


# --- one table reader: a numpy fast path and the row parser ---------------


@dataclass(frozen=True)
class _Table:
    """The data rows of a headered CSV: what the header check returned as
    column `names`; per leading text column, the distinct raw cells in order
    of first appearance and the code of each row's cell (`keys`); the
    numbers of the other columns read (`values`)."""

    path: object
    names: tuple
    keys: list
    values: np.ndarray

    def row(self, i) -> int:
        """The row number of data row `i` in the file (the header is row 1),
        for an error message."""
        with open(self.path, newline="") as fh:
            numbered = (n for n, row in enumerate(csv.reader(fh), 1) if row)
            return next(islice(numbered, i + 1, None))


def _read_table(path, check_header, keys=0, usecols=None, strip=False,
                forward_fill=False) -> _Table:
    """Read a header, which `check_header(path, header)` turns into column
    names or rejects, then rows of `keys` text cells followed by finite
    numbers: every column, in rows as wide as the header, or only
    `usecols`, in rows wide enough to hold them. `strip` strips number
    cells and makes an empty one a gap: NaN under `forward_fill`, an error
    otherwise."""
    try:
        fh = open(path, newline="")
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            names = check_header(path, header)
            parts = _scan_numeric_csv(path, len(header), keys, usecols)
            if parts is None:
                parts = _parse_rows(reader, path, names, len(header), keys,
                                    usecols, strip, forward_fill)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not {exc.encoding} text") from None
    return _Table(path, names, *parts)


# A 1 MiB block added its own size to the peak RSS of a run; 64 KiB scans
# the 21 MB benchmark panel as fast.
_SCAN_BLOCK = 1 << 16
# Where `np.loadtxt` would read a file unlike the row parser: csv unquotes
# '"', and numpy strips \x1c-\x1f around a number where float() rejects
# them. Both skip blank lines and end lines at \n, \r\n and \r alone.
_ROW_PARSER_BYTES = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _scan_numeric_csv(path, width, keys, usecols):
    """The fast path of `_read_table`, or None where the row parser has to
    decide; the switch the tests patch to force the row parser.

    A scan in bounded blocks looks for `_ROW_PARSER_BYTES`. Then one
    `np.loadtxt` pass checks the field count of every row (a line of
    whitespace has one field) and parses the numbers, while `defaultdict`
    lookups, which run no Python code, turn key cells into codes. None
    also stands for a cell numpy rejects, no data rows or a non-finite
    number.
    """
    with open(path, "rb") as fh:
        while block := fh.read(_SCAN_BLOCK):
            if any(s in block for s in _ROW_PARSER_BYTES):
                return None
    codes = [defaultdict(count().__next__) for _ in range(keys)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on no data rows
            values = np.loadtxt(
                path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2,
                comments=None,
                converters={c: d.__getitem__ for c, d in enumerate(codes)},
            )
    except ValueError:
        return None
    numbers = values[:, keys:]
    if (not len(values) or (usecols is None and values.shape[1] != width)
            or not np.isfinite(numbers).all()):
        return None
    return ([(list(d), values[:, c].astype(np.intp))
             for c, d in enumerate(codes)], numbers)


def _parse_rows(reader, path, names, width, keys, usecols, strip, forward_fill):
    """The row parser of `_read_table`: it names the row of each error,
    unquotes quoted cells and reads gaps under `forward_fill`."""
    used = range(keys, width) if usecols is None else usecols
    need = width if usecols is None else max(usecols) + 1
    codes = [defaultdict(count().__next__) for _ in range(keys)]
    key_rows, values = [], []
    for row_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if usecols is None and len(row) != width:
            raise ParseError(f"{path}: row {row_no}: ragged row with "
                             f"{len(row)} fields, expected {width}")
        if len(row) < need:
            raise ParseError(f"{path}: row {row_no}: expected at least "
                             f"{need} fields, got {len(row)}")
        key_rows.append([d[cell] for d, cell in zip(codes, row)])
        values.append([_parse_number(row[c], path, row_no, names[c], strip,
                                     forward_fill) for c in used])
    key_codes = np.array(key_rows, dtype=np.intp).reshape(len(values), keys)
    return ([(list(d), key_codes[:, c]) for c, d in enumerate(codes)],
            np.array(values, dtype=float).reshape(len(values), len(used)))


def _parse_number(token, path, row, column, strip, forward_fill) -> float:
    if strip:
        token = token.strip()
        if not token and forward_fill:
            return np.nan
        if not token:
            raise ValidationError(
                f"{path}: row {row}: missing cell for {column!r} (use "
                f"forward_fill to zero-fill gaps of up to 2 days)")
    try:
        value = float(token)
    except ValueError:
        raise ParseError(
            f"{path}: row {row}: cannot parse {column} {token!r}") from None
    if not np.isfinite(value):
        raise ValidationError(f"{path}: row {row}: non-finite {column}")
    return value


def _header(*expected):
    """A header check accepting `expected`, up to case and padding."""
    def check(path, header):
        if [h.strip().lower() for h in header] != list(expected):
            raise ParseError(f"{path}: expected header {','.join(expected)}, "
                             f"got {','.join(header)}")
        return expected
    return check


def _first_row(mask):
    """The index of the first row where `mask` holds, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _labels(table: _Table, path):
    """The distinct cells of the first key column, read all as ISO dates or
    all as day numbers, as the first one reads, and the code of each row's
    label."""
    cells, codes = table.keys[0]
    parse = int
    try:
        if cells:
            date.fromisoformat(cells[0])
            parse = date.fromisoformat
    except ValueError:
        pass
    try:
        return list(map(parse, cells)), codes
    except ValueError:
        pass
    for code, cell in enumerate(cells):
        try:
            parse(cell)
        except ValueError:
            raise ParseError(
                f"{path}: row {table.row(_first_row(codes == code))}: "
                f"cannot parse date {cell!r}") from None


def _ranks(values, codes):
    """The sorted distinct `values` and the rank of `values[code]` for each
    of `codes`."""
    distinct, rank = np.unique(np.array(values, dtype=object),
                               return_inverse=True)
    return distinct.tolist(), rank[codes]


def _repeats(codes):
    """True on each row whose code occurred on an earlier row."""
    seen = np.ones(len(codes), dtype=bool)
    seen[np.unique(codes, return_index=True)[1]] = False
    return seen


# --- the loaders -----------------------------------------------------------


def load_index_series(path) -> IndexSeries:
    """Load an index.csv file, sorted by date."""
    table = _read_table(path, _header("date", "close", "volume"), keys=1)
    days, rank = _ranks(*_labels(table, path))
    close, volume = table.values.T
    i = _first_row((close <= 0.0) | (volume < 0.0))
    if i is not None:
        problem = (f"non-positive close {close[i]}" if close[i] <= 0.0
                   else f"negative volume {volume[i]}")
        raise ValidationError(f"{path}: row {table.row(i)}: {problem}")
    order = np.argsort(rank, kind="stable")
    i = _first_row(np.diff(rank[order]) == 0)
    if i is not None:
        raise ValidationError(
            f"{path}: rows {table.row(order[i])} and {table.row(order[i + 1])}:"
            f" duplicate date {days[rank[order[i]]]}")
    return IndexSeries(dates=tuple(days), close=close[order],
                       volume=volume[order])


def log_returns(series: IndexSeries) -> ReturnSeries:
    """Daily log returns ln(close[t] / close[t-1]), volumes from day t."""
    return ReturnSeries(
        dates=series.dates[1:],
        returns=np.diff(np.log(series.close)),
        volume=series.volume[1:].copy(),
    )


def load_sector_map(path) -> dict[str, str]:
    table = _read_table(path, _header("ticker", "sector_id"), keys=2)
    (tickers, ticker_codes), (sectors, sector_codes) = (
        _ranks([cell.strip() for cell in cells], codes)
        for cells, codes in table.keys)
    i = _first_row(_repeats(ticker_codes))
    if i is not None:
        raise ValidationError(f"{path}: row {table.row(i)}: duplicate "
                              f"ticker {tickers[ticker_codes[i]]!r}")
    return dict(zip(map(tickers.__getitem__, ticker_codes.tolist()),
                    map(sectors.__getitem__, sector_codes.tolist())))


def _panel_header(path, header):
    names = tuple(h.strip() for h in header)
    if not names or names[0].lower() != "date":
        raise ParseError(f"{path}: first column must be 'date'")
    if len(names) == 1:
        raise ParseError(f"{path}: no ticker columns")
    if len(set(names[1:])) != len(names) - 1:
        raise ValidationError(f"{path}: duplicate ticker columns")
    return names


def load_returns_panel(path, sector_map_path, forward_fill: bool = False) -> ReturnsPanel:
    """Load a panel.csv of per-stock returns plus its sectors.csv.

    Empty cells are rejected unless `forward_fill` is set, which zero-fills
    gaps of at most 2 consecutive days per ticker.
    """
    sector_of = load_sector_map(sector_map_path)
    table = _read_table(path, _panel_header, keys=1, strip=True,
                        forward_fill=forward_fill)
    labels, codes = _labels(table, path)
    tickers = table.names[1:]
    matrix = table.values
    if forward_fill:
        gaps = np.isnan(matrix)
        longer = (gaps[:-2] & gaps[1:-1] & gaps[2:]).any(axis=0)
        if longer.any():
            raise ValidationError(
                f"{path}: ticker {tickers[int(np.argmax(longer))]!r} has a "
                f"gap longer than 2 days"
            )
        matrix[gaps] = 0.0
    for ticker in tickers:
        if ticker not in sector_of:
            raise ValidationError(
                f"ticker {ticker!r} missing from sector map {sector_map_path}"
            )
    return ReturnsPanel(
        dates=tuple(map(labels.__getitem__, codes.tolist())),
        tickers=tickers,
        sector_of={t: sector_of[t] for t in tickers},
        matrix=matrix,
    )


def _returns_header(path, header):
    if len(header) < 2:
        raise InputError(f"{path}: expected a returns CSV with >= 2 columns")
    return (header[0], "return")


def load_returns_column(path) -> np.ndarray:
    """The second column of a headered CSV as floats: the aggregate return
    R of a simulation's returns.csv (`day,R[,stock columns]`)."""
    values = _read_table(path, _returns_header, usecols=(1,)).values[:, 0]
    if len(values) < 2:
        raise InputError(f"{path}: no return rows")
    return values


def load_search_series(path) -> list[SearchSeries]:
    """Load a long-form search.csv into one SearchSeries per ticker.

    All series are restricted to the common intersection of week labels so
    panel-wide comparisons share a clock.  Result is sorted by ticker.
    """
    table = _read_table(path, _header("week_start", "ticker", "volume"),
                        keys=2)
    if not len(table.values):
        raise ValidationError(f"{path}: no data rows")
    weeks, week_rank = _ranks(*_labels(table, path))
    cells, codes = table.keys[1]
    tickers, ticker_codes = _ranks([cell.strip() for cell in cells], codes)
    volume = table.values[:, 0]
    negative = volume < 0.0
    i = _first_row(negative | _repeats(ticker_codes * len(weeks) + week_rank))
    if i is not None:
        problem = (f"negative volume {volume[i]}" if negative[i]
                   else f"duplicate week {weeks[week_rank[i]]}")
        raise ValidationError(f"{path}: row {table.row(i)}: {problem} for "
                              f"{tickers[ticker_codes[i]]!r}")
    if len(tickers) > 1:
        common = np.bincount(week_rank) == len(tickers)
        if not common.any():
            raise ValidationError(f"{path}: tickers share no common weeks")
        keep = common[week_rank]
        ticker_codes, week_rank, volume = (
            ticker_codes[keep], week_rank[keep], volume[keep])
    order = np.lexsort((week_rank, ticker_codes))
    per_ticker = np.split(order, np.cumsum(np.bincount(ticker_codes))[:-1])
    return [
        SearchSeries(ticker=ticker, volume=volume[rows],
                     weeks=tuple(map(weeks.__getitem__, week_rank[rows].tolist())))
        for ticker, rows in zip(tickers, per_ticker)
    ]


def write_json(path, obj) -> None:
    """Write `obj` as JSON text indented by two spaces, with a final newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


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


def save_index_series(series: IndexSeries, path) -> None:
    write_csv_table(path, ["date", "close", "volume"],
                    (day.isoformat() for day in series.dates),
                    np.asarray([series.close, series.volume], dtype=float))


def save_returns_panel(panel: ReturnsPanel, path, sectors_path) -> None:
    write_csv_table(
        path,
        ["date"] + list(panel.tickers),
        (d.isoformat() if isinstance(d, date) else str(d) for d in panel.dates),
        np.asarray(panel.matrix, dtype=float).T,
    )
    with open(sectors_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ticker", "sector_id"])
        for ticker in sorted(panel.sector_of):
            writer.writerow([ticker, panel.sector_of[ticker]])
