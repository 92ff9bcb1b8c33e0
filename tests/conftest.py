import csv
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import settings


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def business_dates(n, start=date(2015, 1, 1)):
    days = []
    d = start
    while len(days) < n:
        if d.weekday() < 5:
            days.append(d)
        d += timedelta(days=1)
    return days


def weekly_dates(n, start=date(2015, 1, 5)):
    return [start + timedelta(weeks=i) for i in range(n)]


def write_index_csv(directory):
    """A 400-row synthetic index file with positive prices and volumes."""
    rng = np.random.default_rng(42)
    n = 400
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, n)))
    volumes = rng.uniform(1e5, 2e5, n)
    rows = [
        (d.isoformat(), repr(float(c)), repr(float(v)))
        for d, c, v in zip(business_dates(n), closes, volumes)
    ]
    return write_csv(directory / "index.csv", ["date", "close", "volume"], rows)


@pytest.fixture
def index_csv(tmp_path):
    return write_index_csv(tmp_path)


def write_panel_files(directory):
    """A 4-ticker, 60-day returns panel with 2 sectors."""
    rng = np.random.default_rng(7)
    tickers = ["AAA", "BBB", "CCC", "DDD"]
    sectors = {"AAA": "1", "BBB": "1", "CCC": "2", "DDD": "2"}
    n = 60
    matrix = rng.normal(0, 0.02, (n, len(tickers)))
    rows = [
        [d.isoformat()] + [repr(float(v)) for v in matrix[i]]
        for i, d in enumerate(business_dates(n))
    ]
    panel = write_csv(directory / "panel.csv", ["date"] + tickers, rows)
    sector_rows = [(t, sectors[t]) for t in tickers]
    sectors_path = write_csv(
        directory / "sectors.csv", ["ticker", "sector_id"], sector_rows
    )
    return panel, sectors_path, matrix, tickers, sectors


@pytest.fixture
def panel_files(tmp_path):
    return write_panel_files(tmp_path)


def write_info_files(directory, index_name="index.csv"):
    """200 weeks of attention and trading volumes for two tickers, and a
    weekly index on the same weeks."""
    rng = np.random.default_rng(20)
    n = 200
    weeks = weekly_dates(n)
    t = np.arange(n)
    attention = []
    trading = []
    for phase, ticker in ((0.0, "AAA"), (1.3, "BBB")):
        # slowly varying attention so its autocorrelation decays smoothly
        g = 5 + 2 * np.sin(2 * np.pi * t / 80 + phase) + rng.normal(0, 0.3, n)
        g = np.maximum(g, 0.0)
        v = rng.uniform(50, 150, n) + 40 * (g > g.mean())
        attention += [
            (w.isoformat(), ticker, repr(float(x))) for w, x in zip(weeks, g)
        ]
        trading += [
            (w.isoformat(), ticker, repr(float(x))) for w, x in zip(weeks, v)
        ]
    search = write_csv(
        directory / "search.csv", ["week_start", "ticker", "volume"], attention
    )
    volumes = write_csv(
        directory / "volumes.csv", ["week_start", "ticker", "volume"], trading
    )
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
    index = write_csv(
        directory / index_name,
        ["date", "close", "volume"],
        [
            (w.isoformat(), repr(float(c)), "1")
            for w, c in zip(weeks, closes)
        ],
    )
    return search, volumes, index


@pytest.fixture
def info_files(tmp_path):
    return write_info_files(tmp_path)


@pytest.fixture
def info_gap_files(tmp_path):
    """120 weeks of attention and trading volumes for six tickers, the
    attention of "FLAT" constant, and a weekly index that lacks weeks 30,
    31 and 75 of the clock."""
    rng = np.random.default_rng(24)
    n = 120
    weeks = weekly_dates(n)
    t = np.arange(n)
    attention = []
    trading = []
    for i, ticker in enumerate(("AAA", "BBB", "CCC", "DDD", "EEE", "FLAT")):
        if ticker == "FLAT":
            g = np.full(n, 4.0)
        else:
            g = 5 + 2 * np.sin(2 * np.pi * t / (20 + 6 * i) + i)
            g = np.maximum(g + rng.normal(0, 0.4, n), 0.0)
        v = rng.uniform(50, 150, n) + 30 * (g > g.mean())
        attention += [(w.isoformat(), ticker, repr(float(x)))
                      for w, x in zip(weeks, g)]
        trading += [(w.isoformat(), ticker, repr(float(x)))
                    for w, x in zip(weeks, v)]
    search = write_csv(
        tmp_path / "search.csv", ["week_start", "ticker", "volume"], attention
    )
    volumes = write_csv(
        tmp_path / "volumes.csv", ["week_start", "ticker", "volume"], trading
    )
    closes = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
    index = write_csv(
        tmp_path / "index.csv",
        ["date", "close", "volume"],
        [(w.isoformat(), repr(float(c)), "1")
         for i, (w, c) in enumerate(zip(weeks, closes)) if i not in (30, 31, 75)],
    )
    return search, volumes, index


# `--hypothesis-profile deep` raises the loader equivalence tests in
# tests/test_properties.py from 300 to 2,000 examples each.
settings.register_profile("deep", max_examples=2000)
