import numpy as np
import pytest

from herdsim.errors import (
    DegenerateSeriesError,
    UnsupportedRegimeError,
    ValidationError,
)
from herdsim.ingest import ReturnsPanel
from herdsim.spectral import (
    CorrelationMatrix,
    EigenSystem,
    cross_correlation,
    eigen_decompose,
    marchenko_pastur_bounds,
    mode_report,
    write_eigenvector_csv,
    write_spectrum_json,
)


def make_panel(matrix, sectors=None):
    n = matrix.shape[1]
    tickers = tuple(f"T{i}" for i in range(n))
    sectors = sectors or {t: "1" for t in tickers}
    return ReturnsPanel(
        dates=tuple(range(matrix.shape[0])),
        tickers=tickers,
        sector_of=sectors,
        matrix=np.asarray(matrix, dtype=float),
    )


def labelled(values):
    """A CorrelationMatrix of the given values, one sector for all stocks."""
    n = len(values)
    return CorrelationMatrix(
        values=np.asarray(values, dtype=float),
        tickers=tuple(f"T{i}" for i in range(n)),
        sectors=("1",) * n,
    )


def hand_system(eigenvectors, sectors):
    """An EigenSystem of the given eigenvector columns and sector labels."""
    n, modes = eigenvectors.shape
    return EigenSystem(
        eigenvalues=np.ones(modes),
        eigenvectors=eigenvectors,
        tickers=tuple(f"T{i}" for i in range(n)),
        sectors=tuple(sectors),
    )


def correlation_oracle(matrix):
    """Brute-force C_ij over per-column normalized returns."""
    t, n = matrix.shape
    c = np.empty((n, n))
    cols = []
    for j in range(n):
        x = matrix[:, j]
        cols.append((x - x.mean()) / x.std())
    for i in range(n):
        for j in range(n):
            c[i, j] = sum(cols[i][k] * cols[j][k] for k in range(t)) / t
    return c


class TestCrossCorrelation:
    def test_identical_columns_fully_correlated(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=200)
        c = cross_correlation(make_panel(np.column_stack([col, col])))
        assert np.max(np.abs(c.values - 1.0)) < 1e-12

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(1)
        c = cross_correlation(make_panel(rng.normal(size=(100_000, 2))))
        assert abs(c.values[0, 1]) < 0.02

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(4, 3))
        c = cross_correlation(make_panel(matrix))
        assert np.max(np.abs(c.values - correlation_oracle(matrix))) < 1e-12

    def test_constant_column_names_ticker(self):
        matrix = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with pytest.raises(DegenerateSeriesError, match="T1"):
            cross_correlation(make_panel(matrix))

    def test_invariants(self):
        rng = np.random.default_rng(3)
        c = cross_correlation(make_panel(rng.normal(size=(50, 8))))
        assert np.max(np.abs(c.values - c.values.T)) < 1e-12
        assert np.max(np.abs(np.diag(c.values) - 1.0)) < 1e-12
        assert np.all(c.values <= 1.0 + 1e-12)
        assert np.all(c.values >= -1.0 - 1e-12)


class TestEigenDecompose:
    def test_two_by_two_closed_form(self):
        rho = 0.6
        system = eigen_decompose(labelled([[1.0, rho], [rho, 1.0]]))
        assert system.eigenvalues == pytest.approx([1 + rho, 1 - rho], abs=1e-12)
        sq = 1.0 / np.sqrt(2.0)
        assert np.abs(system.eigenvectors[:, 0]) == pytest.approx([sq, sq], abs=1e-12)
        assert np.abs(system.eigenvectors[:, 1]) == pytest.approx([sq, sq], abs=1e-12)
        assert system.eigenvectors[0, 0] > 0
        assert system.eigenvectors[0, 1] > 0

    def test_identity_matrix(self):
        system = eigen_decompose(labelled(np.eye(5)))
        assert system.eigenvalues == pytest.approx(np.ones(5), abs=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(4)
        corr = cross_correlation(make_panel(rng.normal(size=(20, 20))))
        system = eigen_decompose(corr)
        rebuilt = system.eigenvectors @ np.diag(system.eigenvalues) @ system.eigenvectors.T
        assert np.max(np.abs(rebuilt - corr.values)) < 1e-8
        gram = system.eigenvectors.T @ system.eigenvectors
        assert np.max(np.abs(gram - np.eye(20))) < 1e-8

    def test_trace_preserved_for_correlations(self):
        rng = np.random.default_rng(5)
        c = cross_correlation(make_panel(rng.normal(size=(300, 12))))
        system = eigen_decompose(c)
        assert system.eigenvalues.sum() == pytest.approx(12.0, abs=1e-8)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValidationError):
            eigen_decompose(labelled([[1.0, 0.5], [0.1, 1.0]]))

    def test_column_permutation_permutes_components(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(400, 6)) + 0.5 * rng.normal(size=(400, 1))
        perm = [3, 0, 5, 1, 4, 2]
        s1 = eigen_decompose(cross_correlation(make_panel(matrix)))
        s2 = eigen_decompose(cross_correlation(make_panel(matrix[:, perm])))
        assert s1.eigenvalues == pytest.approx(s2.eigenvalues, abs=1e-8)
        for mode in range(6):
            u1 = s1.eigenvectors[perm, mode]
            u2 = s2.eigenvectors[:, mode]
            agree = np.max(np.abs(u1 - u2)) < 1e-8
            flipped = np.max(np.abs(u1 + u2)) < 1e-8
            assert agree or flipped


class TestModeReport:
    def test_uniform_vector_fully_delocalized(self):
        n = 16
        report = mode_report(hand_system(np.full((n, 1), n**-0.5), ["1"] * n))
        assert report.participation_ratio[0] == pytest.approx(1.0, abs=1e-6)

    def test_basis_vector_fully_localized(self):
        report = mode_report(hand_system(np.eye(4), ["a", "b", "b", "b"]))
        assert report.participation_ratio[0] == pytest.approx(0.25, abs=1e-12)
        assert report.dominant_sector[0] == "a"

    def test_sector_masses_sum_to_one(self):
        rng = np.random.default_rng(7)
        sectors = {f"T{i}": str(1 + i // 3) for i in range(9)}
        c = cross_correlation(make_panel(rng.normal(size=(200, 9)), sectors))
        report = mode_report(eigen_decompose(c))
        assert report.sector_mass.sum(axis=1) == pytest.approx(
            np.ones(9), abs=1e-10
        )

    def test_sector_map_by_ticker(self):
        rng = np.random.default_rng(8)
        panel = make_panel(
            rng.normal(size=(100, 4)),
            sectors={"T0": "x", "T1": "x", "T2": "y", "T3": "y"},
        )
        system = eigen_decompose(cross_correlation(panel))
        report = mode_report(system)
        assert report.sector_ids == ("x", "y")

    def test_ids_differing_by_a_trailing_nul_are_two_sectors(self):
        # a fixed-width string array would drop the NUL and merge them
        rng = np.random.default_rng(11)
        vectors = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        report = mode_report(hand_system(vectors, ["s", "s\x00", "s", "s\x00"]))
        assert report.sector_ids == ("s", "s\x00")
        assert report.sector_mass.sum(axis=1) == pytest.approx(
            np.ones(4), abs=1e-12)
        assert report.sector_mass[:, 1] == pytest.approx(
            (vectors[[1, 3]] ** 2).sum(axis=0), abs=1e-12)


class TestMarchenkoPastur:
    def test_quarter_ratio_closed_form(self):
        lo, hi = marchenko_pastur_bounds(500, 2000)
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert hi == pytest.approx(2.25, abs=1e-12)

    def test_single_stock_limit(self):
        lo, hi = marchenko_pastur_bounds(1, 10**8)
        assert lo == pytest.approx(1.0, abs=1e-3)
        assert hi == pytest.approx(1.0, abs=1e-3)

    def test_degenerate_regime_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            marchenko_pastur_bounds(100, 100)

    def test_noise_bulk_inside_bounds(self):
        rng = np.random.default_rng(9)
        system = eigen_decompose(
            cross_correlation(make_panel(rng.normal(size=(2000, 50))))
        )
        lo, hi = marchenko_pastur_bounds(50, 2000)
        inside = np.mean((system.eigenvalues >= lo) & (system.eigenvalues <= hi))
        assert inside >= 0.95


def test_exports(tmp_path):
    rng = np.random.default_rng(10)
    panel = make_panel(
        rng.normal(size=(100, 4)),
        sectors={"T0": "2", "T1": "1", "T2": "2", "T3": "1"},
    )
    system = eigen_decompose(cross_correlation(panel))
    report = mode_report(system)
    write_spectrum_json(tmp_path / "spectrum.json", system, report)
    write_eigenvector_csv(tmp_path / "vectors.csv", system)
    lines = (tmp_path / "vectors.csv").read_text().strip().splitlines()
    assert lines[0] == "ticker,sector_id,u0,u1,u2"
    # rows come sector-blocked: sector 1 tickers first
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "1", "2", "2"]


def test_correlation_matrix_validation():
    bad = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValidationError):
        CorrelationMatrix(values=bad, tickers=("a", "b"), sectors=("1", "1"))


@pytest.mark.parametrize("values, tickers, message", [
    (np.ones((2, 3)), ("a", "b"), "correlation matrix must be square"),
    (np.eye(2), ("a",), "labels do not match matrix order"),
    (np.array([[1.0, 0.2], [0.3, 1.0]]), ("a", "b"),
     "correlation matrix is not symmetric"),
    (np.array([[1.0, 0.2], [0.2, 0.9]]), ("a", "b"),
     "correlation matrix diagonal is not 1"),
], ids=["square", "labels", "symmetric", "diagonal"])
def test_correlation_matrix_checks(values, tickers, message):
    with pytest.raises(ValidationError, match=message):
        CorrelationMatrix(values=values, tickers=tickers, sectors=("1",) * len(tickers))
