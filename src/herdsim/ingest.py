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
from itertools import compress, count, islice

import numpy as np

from .errors import InputError, NumericError, ParseError, ValidationError


def _shown(text: str, limit: int = 80) -> str:
    """File text for a one-line error message: line breaks and other
    unprintable characters escaped, and cut after `limit` characters."""
    text = repr(text)[1:-1]
    return text if len(text) <= limit else text[:limit] + "..."


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
        if not (np.isfinite(self.close).all() and np.isfinite(self.volume).all()):
            raise ValidationError("index series has non-finite numbers")
        if np.any(self.close <= 0.0):
            raise ValidationError("close prices must be positive")
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
        if not self.tickers:
            raise ValidationError("panel needs at least 1 ticker")
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
class SearchPanel:
    """Weekly volumes of several tickers on common weeks: one row per week,
    one column per ticker."""

    weeks: tuple
    tickers: tuple[str, ...]
    volume: np.ndarray

    def __post_init__(self):
        if self.volume.shape != (len(self.weeks), len(self.tickers)):
            raise ValidationError(
                f"search volume shape {self.volume.shape} does not match "
                f"{len(self.weeks)} weeks x {len(self.tickers)} tickers"
            )
        _check_increasing(self.weeks, "search weeks")
        if not np.isfinite(self.volume).all():
            raise ValidationError("search panel has non-finite volume")
        if np.any(self.volume < 0.0):
            raise ValidationError("search panel has negative volume")


# --- one table reader: a numpy fast path and the row parser ---------------


def _row(path, i) -> int:
    """The row number of data row `i` of the file at `path` (the header is
    row 1), for an error message."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        numbered = (n for n, row in enumerate(csv.reader(fh), 1) if row)
        return next(islice(numbered, i + 1, None))


def _read_table(path, check_header, keys=0, usecols=None, strip=False,
                forward_fill=False):
    """Read a header, which `check_header(path, header)` turns into column
    names or rejects, then rows of `keys` text cells followed by finite
    numbers: every column, in rows as wide as the header, or only
    `usecols`, in rows wide enough to hold them. `strip` strips number
    cells and makes an empty one a gap: NaN under `forward_fill`, an error
    otherwise.

    Returns `(names, keys, values)`: the column names; per text column,
    the distinct raw cells in order of first appearance and the code of
    each row's cell; the numbers of the other columns read, one row per
    data row.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
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
    return (names, *parts)


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
                comments=None, encoding="utf-8",
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
            f"{path}: row {row}: cannot parse {_shown(column)} '{_shown(token)}'"
        ) from None
    if not np.isfinite(value):
        raise ValidationError(f"{path}: row {row}: non-finite {_shown(column)}")
    return value


def _header(*expected):
    """A header check accepting `expected`, up to case and padding."""
    def check(path, header):
        if [h.strip().lower() for h in header] != list(expected):
            raise ParseError(f"{path}: expected header {','.join(expected)}, "
                             f"got {_shown(','.join(header))}")
        return expected
    return check


def _first_row(mask):
    """The index of the first row where `mask` holds, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def _labels(cells, codes, path):
    """The distinct cells of a key column, read all as ISO dates or all as
    day numbers, as the first one reads, and the code of each row's
    label."""
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
                f"{path}: row {_row(path, _first_row(codes == code))}: "
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
    _, (key,), values = _read_table(path, _header("date", "close", "volume"),
                                    keys=1)
    days, rank = _ranks(*_labels(*key, path))
    close, volume = values.T
    i = _first_row((close <= 0.0) | (volume < 0.0))
    if i is not None:
        problem = (f"non-positive close {close[i]}" if close[i] <= 0.0
                   else f"negative volume {volume[i]}")
        raise ValidationError(f"{path}: row {_row(path, i)}: {problem}")
    order = np.argsort(rank, kind="stable")
    i = _first_row(np.diff(rank[order]) == 0)
    if i is not None:
        raise ValidationError(
            f"{path}: rows {_row(path, order[i])} and {_row(path, order[i + 1])}:"
            f" duplicate date {days[rank[order[i]]]}")
    return IndexSeries(dates=tuple(days), close=close[order],
                       volume=volume[order])


def log_returns(series: IndexSeries) -> np.ndarray:
    """Daily log returns ln(close[t] / close[t-1]); entry t - 1 ends on
    `series.dates[t]`."""
    return np.diff(np.log(series.close))


def load_sector_map(path) -> dict[str, str]:
    _, keys, _ = _read_table(path, _header("ticker", "sector_id"), keys=2)
    (tickers, ticker_codes), (sectors, sector_codes) = (
        _ranks([cell.strip() for cell in cells], codes)
        for cells, codes in keys)
    i = _first_row(_repeats(ticker_codes))
    if i is not None:
        raise ValidationError(f"{path}: row {_row(path, i)}: duplicate "
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
    names, (key,), matrix = _read_table(path, _panel_header, keys=1,
                                        strip=True, forward_fill=forward_fill)
    labels, codes = _labels(*key, path)
    tickers = names[1:]
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
    R of a simulation's returns.csv (`day,R`). Older model-c files, which
    also hold one column per stock after R, still load."""
    values = _read_table(path, _returns_header, usecols=(1,))[2][:, 0]
    if len(values) < 2:
        raise InputError(f"{path}: no return rows")
    return values


def load_search_series(path) -> SearchPanel:
    """Load a long-form search.csv into a SearchPanel, sorted by ticker.

    Only the weeks that every ticker has are kept, so panel-wide
    comparisons share a clock.
    """
    _, (week_key, (cells, codes)), values = _read_table(
        path, _header("week_start", "ticker", "volume"), keys=2)
    if not len(values):
        raise ValidationError(f"{path}: no data rows")
    weeks, week_rank = _ranks(*_labels(*week_key, path))
    tickers, ticker_codes = _ranks([cell.strip() for cell in cells], codes)
    volume = values[:, 0]
    negative = volume < 0.0
    i = _first_row(negative | _repeats(ticker_codes * len(weeks) + week_rank))
    if i is not None:
        problem = (f"negative volume {volume[i]}" if negative[i]
                   else f"duplicate week {weeks[week_rank[i]]}")
        raise ValidationError(f"{path}: row {_row(path, i)}: {problem} for "
                              f"{tickers[ticker_codes[i]]!r}")
    common = np.bincount(week_rank) == len(tickers)
    if not common.any():
        raise ValidationError(f"{path}: tickers share no common weeks")
    keep = common[week_rank]
    # every common week has one row per ticker, so the scatter fills the panel
    row = np.cumsum(common) - 1
    matrix = np.empty((row[-1] + 1, len(tickers)))
    matrix[row[week_rank[keep]], ticker_codes[keep]] = volume[keep]
    return SearchPanel(weeks=tuple(compress(weeks, common)),
                       tickers=tuple(tickers), volume=matrix)


def write_json(path, obj) -> None:
    """Write `obj` as JSON text indented by two spaces, with a final newline.

    A NaN or infinity, which JSON cannot hold, raises NumericError naming
    the file before the file is opened.
    """
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"{path}: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# Python holds about 100 bytes a formatted cell, so a block of 16,384 cells
# (labels included) holds about 1.6 MB.
_WRITE_BLOCK_ROWS = 1024
_WRITE_BLOCK_CELLS = 16384


def write_csv_table(path, header, labels, columns) -> None:
    """Write `header`, then one row per label: the label followed by the
    matching cell of each of the equal-length 1-D arrays in `columns`,
    formatted by repr().

    The bytes equal csv.writer's for cells that need no quoting
    (comma-separated, `\r\n` after each row). Formatting a block of rows
    column by column is several times faster than a `writerow` call per
    row. A block holds at most `_WRITE_BLOCK_ROWS` rows and, unless one row
    is wider, at most `_WRITE_BLOCK_CELLS` cells, so the memory held in
    Python strings stays bounded at every width.
    """
    labels = iter(labels)
    block = max(1, min(_WRITE_BLOCK_ROWS, _WRITE_BLOCK_CELLS // (len(columns) + 1)))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), block):
            stop = start + block
            cells = [map(repr, column[start:stop].tolist()) for column in columns]
            rows = zip(islice(labels, block), *cells)
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def save_index_series(series: IndexSeries, path) -> None:
    write_csv_table(path, ["date", "close", "volume"],
                    map(str, series.dates),
                    np.asarray([series.close, series.volume], dtype=float))


def save_returns_panel(panel: ReturnsPanel, path, sectors_path) -> None:
    write_csv_table(
        path,
        ["date"] + list(panel.tickers),
        map(str, panel.dates),  # str() of a date is its ISO form
        np.asarray(panel.matrix, dtype=float).T,
    )
    with open(sectors_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ticker", "sector_id"])
        writer.writerows(sorted(panel.sector_of.items()))
