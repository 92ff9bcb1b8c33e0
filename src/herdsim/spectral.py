"""Cross-correlation matrices of stock panels and their eigen-structure.

The largest eigenvalue of an equal-time correlation matrix captures the
market-wide co-movement; further large eigenvalues outside the random
bulk carry sector structure, visible in the localization of their
eigenvectors.

A correlation matrix is a plain (n, n) float array in the panel's ticker
order, and an eigensystem is the pair (eigenvalues, eigenvectors) of
`eigen_decompose`.  The tickers and sectors stay on the `ReturnsPanel`;
callers pass them where they are read.
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import UnsupportedRegimeError, ValidationError
from .ingest import ReturnsPanel, write_json
from .stats import normalize_columns

SYMMETRY_TOL = 1e-12


def cross_correlation(panel: ReturnsPanel) -> np.ndarray:
    """Equal-time cross-correlation C_ij = <r_i r_j> of a returns panel.

    Columns are normalized by `normalize_columns` (mean removed, population
    sigma); a constant column is degenerate and reported by ticker.  Row
    and column i belong to `panel.tickers[i]`.
    """
    r = normalize_columns(panel)
    c = (r @ r.T) / r.shape[1]
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return c


def eigen_decompose(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigen-decomposition (eigenvalues, eigenvectors) of a correlation
    matrix, the eigenvectors as columns.

    Eigenpairs come sorted by descending eigenvalue, each eigenvector
    oriented so its first component of noticeable size is positive.  The
    matrix must be square, symmetric and have a unit diagonal.
    """
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValidationError("correlation matrix must be square")
    if c.size == 0:
        raise ValidationError("correlation matrix is empty")
    if np.max(np.abs(c - c.T)) > SYMMETRY_TOL:
        raise ValidationError("correlation matrix is not symmetric")
    if np.max(np.abs(np.diag(c) - 1.0)) > SYMMETRY_TOL:
        raise ValidationError("correlation matrix diagonal is not 1")
    lam, vec = np.linalg.eigh(c)
    # eigh returns the eigenvalues ascending
    lam, vec = lam[::-1], vec[:, ::-1]
    first = vec[np.argmax(np.abs(vec) > 1e-12, axis=0), np.arange(vec.shape[1])]
    vec[:, first < 0.0] *= -1.0
    return lam, vec


def mode_report(eigenvectors: np.ndarray, sectors) -> dict:
    """Localization diagnostics of every eigenvector (column), as the lists
    `spectrum.json` holds: participation_ratio and dominant_sector per
    mode, the sorted sector_ids, and sector_mass[mode][sector].

    Participation ratio 1 / (n * sum(u_i^4)) is 1 for a uniform vector and
    1/n for a basis vector.  Sector masses are sums of squared components
    over the stocks of each sector, `sectors[i]` labelling row i, so they
    add to one per eigenvector.
    """
    n = eigenvectors.shape[0]
    u2 = eigenvectors**2
    pr = 1.0 / (n * (u2**2).sum(axis=0))
    # object dtype: a fixed-width string array would drop trailing NULs
    sector_ids, codes = np.unique(np.array(sectors, dtype=object),
                                  return_inverse=True)
    masses = np.column_stack([u2[codes == j].sum(axis=0)
                              for j in range(len(sector_ids))])
    return {
        "participation_ratio": pr.tolist(),
        "sector_ids": sector_ids.tolist(),
        "sector_mass": masses.tolist(),
        "dominant_sector": sector_ids[masses.argmax(axis=1)].tolist(),
    }


def marchenko_pastur_bounds(n: int, t: int) -> tuple[float, float]:
    """Bulk edges (1 +/- sqrt(n/T))^2 of a pure-noise correlation spectrum."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if t <= n:
        raise UnsupportedRegimeError(
            f"bounds need more observations than stocks; n={n}, T={t}"
        )
    q = np.sqrt(n / t)
    return float((1.0 - q) ** 2), float((1.0 + q) ** 2)


def write_spectrum_json(path, eigenvalues: np.ndarray, report: dict) -> None:
    write_json(path, {"eigenvalues": eigenvalues.tolist(), **report})


#: Leading eigenvectors written by write_eigenvector_csv.
_CSV_MODES = 3


def write_eigenvector_csv(path, eigenvectors: np.ndarray, tickers, sectors) -> None:
    """Leading eigenvector components per ticker, sector-blocked rows;
    row i of `eigenvectors` belongs to `tickers[i]` in `sectors[i]`."""
    n_modes = min(_CSV_MODES, eigenvectors.shape[1])
    rows = np.lexsort([np.array(labels, dtype=object)
                       for labels in (tickers, sectors)])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["ticker", "sector_id"] + [f"u{k}" for k in range(n_modes)]
        )
        writer.writerows(
            [tickers[i], sectors[i]]
            + [repr(float(eigenvectors[i, k])) for k in range(n_modes)]
            for i in rows
        )
