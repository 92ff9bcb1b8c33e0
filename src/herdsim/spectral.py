"""Cross-correlation matrices of stock panels and their eigen-structure.

The largest eigenvalue of an equal-time correlation matrix captures the
market-wide co-movement; further large eigenvalues outside the random
bulk carry sector structure, visible in the localization of their
eigenvectors.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeriesError,
    UnsupportedRegimeError,
    ValidationError,
)
from .ingest import ReturnsPanel, write_json

SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CorrelationMatrix:
    """Symmetric equal-time cross-correlation matrix with labels."""

    values: np.ndarray
    tickers: tuple[str, ...]
    sectors: tuple[str, ...]

    @property
    def order(self) -> int:
        return self.values.shape[0]

    def __post_init__(self):
        n = self.order
        if self.values.shape != (n, n):
            raise ValidationError("correlation matrix must be square")
        if len(self.tickers) != n or len(self.sectors) != n:
            raise ValidationError("labels do not match matrix order")
        if np.max(np.abs(self.values - self.values.T)) > SYMMETRY_TOL:
            raise ValidationError("correlation matrix is not symmetric")
        if np.max(np.abs(np.diag(self.values) - 1.0)) > SYMMETRY_TOL:
            raise ValidationError("correlation matrix diagonal is not 1")


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues (descending) and orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    tickers: tuple[str, ...]
    sectors: tuple[str, ...]


@dataclass(frozen=True)
class ModeReport:
    """Participation ratios and sector masses per eigenvector."""

    participation_ratio: np.ndarray
    sector_ids: tuple[str, ...]
    sector_mass: np.ndarray  # shape (n_modes, n_sectors)
    dominant_sector: tuple[str, ...]


def cross_correlation(panel: ReturnsPanel) -> CorrelationMatrix:
    """Equal-time cross-correlation C_ij = <r_i r_j> of a returns panel.

    Columns are normalized individually (mean removed, population sigma);
    a constant column is degenerate and reported by ticker.
    """
    matrix = np.asarray(panel.matrix, dtype=float)
    if matrix.shape[0] < 2:
        raise ValidationError("need at least 2 rows to correlate")
    sigma = matrix.std(axis=0)
    dead = np.nonzero(sigma == 0.0)[0]
    if len(dead):
        raise DegenerateSeriesError(
            f"constant return column for ticker {panel.tickers[dead[0]]!r}"
        )
    r = (matrix - matrix.mean(axis=0)) / sigma
    c = (r.T @ r) / matrix.shape[0]
    c = (c + c.T) / 2.0
    np.fill_diagonal(c, 1.0)
    return CorrelationMatrix(
        values=c, tickers=tuple(panel.tickers), sectors=tuple(panel.sectors)
    )


def eigen_decompose(matrix: CorrelationMatrix) -> EigenSystem:
    """Full eigen-decomposition of a correlation matrix.

    Eigenpairs come sorted by descending eigenvalue, each eigenvector
    oriented so its first component of noticeable size is positive.
    """
    lam, vec = np.linalg.eigh(matrix.values)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]
    for col in range(vec.shape[1]):
        u = vec[:, col]
        nonzero = np.nonzero(np.abs(u) > 1e-12)[0]
        if len(nonzero) and u[nonzero[0]] < 0.0:
            vec[:, col] = -u
    return EigenSystem(eigenvalues=lam, eigenvectors=vec,
                       tickers=matrix.tickers, sectors=matrix.sectors)


def mode_report(system: EigenSystem) -> ModeReport:
    """Localization diagnostics of every eigenvector.

    Participation ratio 1 / (n * sum(u_i^4)) is 1 for a uniform vector and
    1/n for a basis vector.  Sector masses are sums of squared components
    over the stocks of each of the system's sectors, so they add to one
    per eigenvector.
    """
    n = system.eigenvectors.shape[0]
    u2 = system.eigenvectors**2
    pr = 1.0 / (n * (u2**2).sum(axis=0))
    sector_ids = tuple(sorted(set(system.sectors)))
    masses = np.zeros((system.eigenvectors.shape[1], len(sector_ids)))
    labels = np.asarray(system.sectors)
    for j, sid in enumerate(sector_ids):
        masses[:, j] = u2[labels == sid, :].sum(axis=0)
    dominant = tuple(sector_ids[j] for j in masses.argmax(axis=1))
    return ModeReport(
        participation_ratio=pr,
        sector_ids=sector_ids,
        sector_mass=masses,
        dominant_sector=dominant,
    )


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


def write_spectrum_json(path, system: EigenSystem, report: ModeReport) -> None:
    payload = {
        "eigenvalues": system.eigenvalues.tolist(),
        "participation_ratio": report.participation_ratio.tolist(),
        "sector_ids": list(report.sector_ids),
        "sector_mass": report.sector_mass.tolist(),
        "dominant_sector": list(report.dominant_sector),
    }
    write_json(path, payload)


#: Leading eigenvectors written by write_eigenvector_csv.
_CSV_MODES = 3


def write_eigenvector_csv(path, system: EigenSystem) -> None:
    """Leading eigenvector components per ticker, sector-blocked rows."""
    n_modes = min(_CSV_MODES, system.eigenvectors.shape[1])
    rows = sorted(
        range(len(system.tickers)),
        key=lambda i: (system.sectors[i], system.tickers[i]),
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["ticker", "sector_id"] + [f"u{k}" for k in range(n_modes)]
        )
        for i in rows:
            writer.writerow(
                [system.tickers[i], system.sectors[i]]
                + [repr(float(system.eigenvectors[i, k])) for k in range(n_modes)]
            )
