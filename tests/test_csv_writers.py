"""The column-wise CSV writers against the per-row csv.writer reference.

The reference functions below are the writers as they were before the
output was formatted a column at a time; the current writers must emit the
same bytes.
"""

import csv
from datetime import date

import numpy as np
import pytest

from herdsim import cli, ingest
from herdsim.simcore import ModelConfig, run_model
from herdsim.simcore.machinery import SimOutput


def reference_returns_csv(out, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if out.returns.ndim == 1:
            writer.writerow(["day", "R"])
            for day, r in enumerate(out.returns, start=1):
                writer.writerow([day, int(r)])
        else:
            writer.writerow(["day", "R"] + list(out.tickers))
            for day, row in enumerate(out.returns, start=1):
                writer.writerow([day, int(row.sum())] + [int(v) for v in row])


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
    def save(panel, path):
        ingest.save_returns_panel(panel, path, tmp_path / "sectors.csv")

    assert_same_bytes(save, reference_save_returns_panel, panel, tmp_path)
