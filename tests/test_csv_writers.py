"""The column-wise CSV writers against the per-row csv.writer reference.

The reference functions below write row by row, as the writers did before
the output was formatted a column at a time; the current writers must emit
the same bytes.
"""

import csv
import itertools
import tracemalloc
from datetime import date

import numpy as np
import pytest

from herdsim import cli, ingest
from herdsim.simcore import ModelConfig, run_model
from herdsim.simcore.machinery import SimOutput


def reference_returns_csv(out, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day", "R"])
        # a multi-stock day's R is the sum of its stocks' returns
        for day, row in enumerate(out.returns, start=1):
            writer.writerow([day, int(np.sum(row))])


def reference_diagnostics_csv(out, path):
    keys = sorted(out.diagnostics)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["day"] + keys)
        for day in range(len(out.returns)):
            writer.writerow(
                [day + 1] + [repr(float(out.diagnostics[k][day])) for k in keys]
            )


def reference_save_returns_panel(panel, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(panel.tickers))
        for i, label in enumerate(panel.dates):
            label = label.isoformat() if isinstance(label, date) else label
            writer.writerow(
                [label] + [repr(float(v)) for v in panel.matrix[i]]
            )


SMALL = {"N": 1000, "M": 50, "t_max": 400, "warmup": 50}
MODEL_C = {"n": 6, "n_sec": 2, "H_M": 0.363, "H_j": (0.491, 0.546),
           "P_group": 0.363, "t_max": 200}

# Finite values whose repr is not plain: signed zero, subnormals, extremes.
AWKWARD = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300,
                    -1.7976931348623157e308, 0.1, 1 / 3, 123456789.0, -7.0])


def save_panel(panel, path):
    ingest.save_returns_panel(panel, path, path.with_name("sectors.csv"))


def assert_same_bytes(write, reference, obj, tmp_path):
    write(obj, tmp_path / "new.csv")
    reference(obj, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("model", ["a", "b", "c", "d"])
def test_simulation_writers_match_reference(model, tmp_path):
    extra = MODEL_C if model == "c" else {}
    out = run_model(model, ModelConfig(**{**SMALL, **extra, "seed": 3}))
    assert_same_bytes(cli._returns_csv, reference_returns_csv, out, tmp_path)
    assert_same_bytes(cli._diagnostics_csv, reference_diagnostics_csv, out, tmp_path)


def test_writers_match_reference_on_awkward_values(tmp_path):
    n = len(AWKWARD)
    out = SimOutput(
        returns=np.arange(-2 * n, 2 * n, dtype=np.int64).reshape(n, 4),
        diagnostics={"x": AWKWARD, "counts": np.arange(n), "nan": np.full(n, np.nan)},
        tickers=("A", "B,C", 'say "D"', "E"),
    )
    assert_same_bytes(cli._returns_csv, reference_returns_csv, out, tmp_path)
    assert_same_bytes(cli._diagnostics_csv, reference_diagnostics_csv, out, tmp_path)


@pytest.mark.parametrize("dates", [
    tuple(range(1, 11)),
    tuple(date(2020, 1, d) for d in range(1, 11)),
])
def test_save_returns_panel_matches_reference(dates, tmp_path):
    matrix = np.column_stack([AWKWARD, AWKWARD[::-1], np.linspace(-1, 1, 10)])
    panel = ingest.ReturnsPanel(
        dates=dates, tickers=("X", "Y,Z", "W"),
        sector_of={"X": "1", "Y,Z": "1", "W": "2"}, matrix=matrix,
    )
    assert_same_bytes(save_panel, reference_save_returns_panel, panel, tmp_path)


@pytest.fixture
def blocks(monkeypatch):
    """The row count of each block the writers format: write_csv_table
    takes one islice of its labels per block."""
    sizes = []
    def islice(labels, rows):
        sizes.append(rows)
        return itertools.islice(labels, rows)
    monkeypatch.setattr(ingest, "islice", islice)
    return sizes


def wide_panel(rows, width, seed):
    tickers = tuple(f"S{j}" for j in range(width))
    values = np.random.default_rng(seed).integers(-40, 41, (rows, width))
    return ingest.ReturnsPanel(
        dates=tuple(range(1, rows + 1)), tickers=tickers,
        sector_of={t: str(j % 5) for j, t in enumerate(tickers)},
        matrix=values * 0.25 + np.resize(AWKWARD, width),
    )


def test_simulation_writers_over_three_blocks_match_reference(blocks, tmp_path):
    days = 2 * ingest._WRITE_BLOCK_ROWS + 1
    rng = np.random.default_rng(5)
    out = SimOutput(
        returns=rng.integers(-50, 51, (days, 3)),
        diagnostics={"x": rng.standard_normal(days), "awkward": np.resize(AWKWARD, days),
                     "counts": np.arange(days)},
    )
    assert_same_bytes(cli._returns_csv, reference_returns_csv, out, tmp_path)
    assert_same_bytes(cli._diagnostics_csv, reference_diagnostics_csv, out, tmp_path)
    assert blocks == [ingest._WRITE_BLOCK_ROWS] * 6


@pytest.mark.parametrize("rows, width, block", [
    (2500, 50, 321),  # model C's panel at the NYSE table: 8 blocks
    (3, 16400, 1),  # a row wider than a block of 16,384 cells
])
def test_wide_panels_match_reference(rows, width, block, blocks, tmp_path):
    panel = wide_panel(rows, width, seed=width)
    assert_same_bytes(save_panel, reference_save_returns_panel, panel, tmp_path)
    assert blocks == [block] * -(-rows // block)


def test_wide_table_is_written_in_bounded_memory(tmp_path):
    columns = np.random.default_rng(7).standard_normal((4000, 64))
    labels = map(str, range(64))
    tracemalloc.start()
    try:
        ingest.write_csv_table(tmp_path / "wide.csv", ["day"] * 4001, labels, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
