import json

import numpy as np
import pytest

from herdsim.errors import (
    DegenerateSeriesError,
    UnsupportedRegimeError,
    ValidationError,
)
from herdsim.ingest import ReturnsPanel
from herdsim.spectral import (
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
        assert np.max(np.abs(c - 1.0)) < 1e-12

    def test_independent_columns_near_zero(self):
        rng = np.random.default_rng(1)
        c = cross_correlation(make_panel(rng.normal(size=(100_000, 2))))
        assert abs(c[0, 1]) < 0.02

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(4, 3))
        c = cross_correlation(make_panel(matrix))
        assert np.max(np.abs(c - correlation_oracle(matrix))) < 1e-12

    def test_constant_column_names_ticker(self):
        matrix = np.column_stack([np.arange(10.0), np.full(10, 3.0)])
        with pytest.raises(DegenerateSeriesError, match="T1"):
            cross_correlation(make_panel(matrix))

    def test_invariants(self):
        rng = np.random.default_rng(3)
        c = cross_correlation(make_panel(rng.normal(size=(50, 8))))
        assert np.max(np.abs(c - c.T)) < 1e-12
        assert np.max(np.abs(np.diag(c) - 1.0)) < 1e-12
        assert np.all(c <= 1.0 + 1e-12)
        assert np.all(c >= -1.0 - 1e-12)


class TestEigenDecompose:
    def test_two_by_two_closed_form(self):
        rho = 0.6
        lam, vec = eigen_decompose(np.array([[1.0, rho], [rho, 1.0]]))
        assert lam == pytest.approx([1 + rho, 1 - rho], abs=1e-12)
        sq = 1.0 / np.sqrt(2.0)
        assert np.abs(vec[:, 0]) == pytest.approx([sq, sq], abs=1e-12)
        assert np.abs(vec[:, 1]) == pytest.approx([sq, sq], abs=1e-12)
        assert vec[0, 0] > 0
        assert vec[0, 1] > 0

    def test_identity_matrix(self):
        lam, _ = eigen_decompose(np.eye(5))
        assert lam == pytest.approx(np.ones(5), abs=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(4)
        corr = cross_correlation(make_panel(rng.normal(size=(20, 20))))
        lam, vec = eigen_decompose(corr)
        rebuilt = vec @ np.diag(lam) @ vec.T
        assert np.max(np.abs(rebuilt - corr)) < 1e-8
        gram = vec.T @ vec
        assert np.max(np.abs(gram - np.eye(20))) < 1e-8

    def test_trace_preserved_for_correlations(self):
        rng = np.random.default_rng(5)
        c = cross_correlation(make_panel(rng.normal(size=(300, 12))))
        lam, _ = eigen_decompose(c)
        assert lam.sum() == pytest.approx(12.0, abs=1e-8)

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValidationError):
            eigen_decompose(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_column_permutation_permutes_components(self):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(400, 6)) + 0.5 * rng.normal(size=(400, 1))
        perm = [3, 0, 5, 1, 4, 2]
        lam1, vec1 = eigen_decompose(cross_correlation(make_panel(matrix)))
        lam2, vec2 = eigen_decompose(cross_correlation(make_panel(matrix[:, perm])))
        assert lam1 == pytest.approx(lam2, abs=1e-8)
        for mode in range(6):
            u1 = vec1[perm, mode]
            u2 = vec2[:, mode]
            agree = np.max(np.abs(u1 - u2)) < 1e-8
            flipped = np.max(np.abs(u1 + u2)) < 1e-8
            assert agree or flipped


class TestModeReport:
    def test_uniform_vector_fully_delocalized(self):
        n = 16
        report = mode_report(np.full((n, 1), n**-0.5), ["1"] * n)
        assert report["participation_ratio"][0] == pytest.approx(1.0, abs=1e-6)

    def test_basis_vector_fully_localized(self):
        report = mode_report(np.eye(4), ["a", "b", "b", "b"])
        assert report["participation_ratio"][0] == pytest.approx(0.25, abs=1e-12)
        assert report["dominant_sector"][0] == "a"

    def test_sector_masses_sum_to_one(self):
        rng = np.random.default_rng(7)
        sectors = {f"T{i}": str(1 + i // 3) for i in range(9)}
        panel = make_panel(rng.normal(size=(200, 9)), sectors)
        _, vec = eigen_decompose(cross_correlation(panel))
        report = mode_report(vec, panel.sectors)
        assert np.array(report["sector_mass"]).sum(axis=1) == pytest.approx(
            np.ones(9), abs=1e-10
        )

    def test_sector_map_by_ticker(self):
        rng = np.random.default_rng(8)
        panel = make_panel(
            rng.normal(size=(100, 4)),
            sectors={"T0": "x", "T1": "x", "T2": "y", "T3": "y"},
        )
        _, vec = eigen_decompose(cross_correlation(panel))
        report = mode_report(vec, panel.sectors)
        assert report["sector_ids"] == ["x", "y"]

    def test_ids_differing_by_a_trailing_nul_are_two_sectors(self):
        # a fixed-width string array would drop the NUL and merge them
        rng = np.random.default_rng(11)
        vectors = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        report = mode_report(vectors, ["s", "s\x00", "s", "s\x00"])
        assert report["sector_ids"] == ["s", "s\x00"]
        masses = np.array(report["sector_mass"])
        assert masses.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)
        assert masses[:, 1] == pytest.approx(
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
        lam, _ = eigen_decompose(
            cross_correlation(make_panel(rng.normal(size=(2000, 50))))
        )
        lo, hi = marchenko_pastur_bounds(50, 2000)
        inside = np.mean((lam >= lo) & (lam <= hi))
        assert inside >= 0.95


def test_exports(tmp_path):
    rng = np.random.default_rng(10)
    panel = make_panel(
        rng.normal(size=(100, 4)),
        sectors={"T0": "2", "T1": "1", "T2": "2", "T3": "1"},
    )
    lam, vec = eigen_decompose(cross_correlation(panel))
    report = mode_report(vec, panel.sectors)
    write_spectrum_json(tmp_path / "spectrum.json", lam, report)
    write_eigenvector_csv(tmp_path / "vectors.csv", vec, panel.tickers,
                          panel.sectors)
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert spectrum == {
        "eigenvalues": lam.tolist(),
        "participation_ratio": report["participation_ratio"],
        "sector_ids": ["1", "2"],
        "sector_mass": report["sector_mass"],
        "dominant_sector": report["dominant_sector"],
    }
    lines = (tmp_path / "vectors.csv").read_text().strip().splitlines()
    assert lines[0] == "ticker,sector_id,u0,u1,u2"
    # rows come sector-blocked: sector 1 tickers first, each row holding
    # its ticker's components of the three leading modes
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["T1", "1"], ["T3", "1"], ["T0", "2"], ["T2", "2"]]
    for line in lines[1:]:
        i = int(line.split(",")[0][1:])
        assert [float(x) for x in line.split(",")[2:]] == vec[i, :3].tolist()


def test_correlation_matrix_validation():
    bad = np.array([[1.0, 0.2], [0.3, 1.0]])
    with pytest.raises(ValidationError):
        eigen_decompose(bad)


@pytest.mark.parametrize("values, message", [
    (np.ones((2, 3)), "correlation matrix must be square"),
    (np.ones(3), "correlation matrix must be square"),
    (np.array([[1.0, 0.2], [0.3, 1.0]]), "correlation matrix is not symmetric"),
    (np.array([[1.0, 0.2], [0.2, 0.9]]), "correlation matrix diagonal is not 1"),
    (np.zeros((0, 0)), "correlation matrix is empty"),
], ids=["square", "one-dimensional", "symmetric", "diagonal", "empty"])
def test_correlation_matrix_checks(values, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        eigen_decompose(values)
