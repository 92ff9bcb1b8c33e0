import csv

import numpy as np
import pytest

from herdsim.errors import (
    DegenerateSeriesError,
    FitDomainError,
    InsufficientDataError,
)
from herdsim.stats import (
    CorrelationCurve,
    autocorrelation_abs,
    fit_exponential,
    fit_power_law,
    hurst_exponent,
    normalize,
    return_volatility_correlation,
    tail_exponent,
    write_curve_csv,
)


def acf_abs_oracle(values, max_lag):
    """Direct-summation oracle for the magnitude autocorrelation."""
    x = [abs(float(v)) for v in values]
    n = len(x)
    mu = sum(x) / n
    a0 = sum(v * v for v in x) / n - mu * mu
    out = []
    for t in range(1, max_lag + 1):
        prod = sum(x[i] * x[i + t] for i in range(n - t)) / (n - t)
        out.append((prod - mu * mu) / a0)
    return np.array(out)


def lcurve_oracle(values, max_lag):
    """Direct-summation oracle for the return-volatility correlation."""
    r = [float(v) for v in values]
    n = len(r)
    z = (sum(v * v for v in r) / n) ** 2
    out = []
    for t in range(1, max_lag + 1):
        prod = sum(r[i] * r[i + t] ** 2 for i in range(n - t)) / (n - t)
        out.append(prod / z)
    return np.array(out)


class TestNormalize:
    def test_already_normalized_passthrough(self):
        out = normalize([1.0, -1.0, 1.0, -1.0])
        assert out.values.tolist() == [1.0, -1.0, 1.0, -1.0]
        assert out.sigma == 1.0

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            normalize([5.0, 5.0, 5.0])

    def test_hand_values_population_sigma(self):
        out = normalize([0.0, 2.0, 4.0])
        sigma = np.sqrt(8.0 / 3.0)
        assert out.mean_removed == pytest.approx(2.0, abs=1e-15)
        assert out.sigma == pytest.approx(sigma, abs=1e-15)
        assert out.values == pytest.approx([-2 / sigma, 0.0, 2 / sigma], abs=1e-12)
        assert out.values[2] == pytest.approx(1.224744871391589, abs=1e-12)

    def test_moments_pinned(self):
        rng = np.random.default_rng(0)
        out = normalize(rng.normal(3.0, 7.0, 1000))
        assert abs(out.values.mean()) < 1e-10
        assert abs(out.values.std() - 1.0) < 1e-10

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        first = normalize(rng.normal(2.0, 5.0, 500))
        second = normalize(first.values)
        assert np.max(np.abs(second.values - first.values)) < 1e-12

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            normalize([1.0])


class TestAutocorrelationAbs:
    def test_iid_noise_is_flat(self):
        rng = np.random.default_rng(2)
        curve = autocorrelation_abs(normalize(rng.normal(size=100_000)), 50)
        assert np.max(np.abs(curve.values)) < 0.02

    def test_period_two_magnitudes(self):
        # |r| alternates 1, 2: perfectly anticorrelated at lag 1,
        # perfectly correlated at lag 2 (exact for even length).
        r = np.tile([1.0, -2.0], 500)
        curve = autocorrelation_abs(r, 4)
        assert curve.values[0] == pytest.approx(-1.0, abs=1e-12)
        assert curve.values[1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        r = rng.standard_t(4, size=1000)
        curve = autocorrelation_abs(r, 50)
        assert np.max(np.abs(curve.values - acf_abs_oracle(r, 50))) < 1e-12

    def test_sign_flip_invariant(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=2000)
        a1 = autocorrelation_abs(r, 20).values
        a2 = autocorrelation_abs(-r, 20).values
        assert np.max(np.abs(a1 - a2)) < 1e-12

    def test_constant_magnitudes_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            autocorrelation_abs(np.tile([1.0, -1.0], 100), 10)

    def test_max_lag_guard(self):
        with pytest.raises(InsufficientDataError):
            autocorrelation_abs(np.arange(100.0), 25)


class TestReturnVolatilityCorrelation:
    def test_symmetric_iid_near_zero(self):
        rng = np.random.default_rng(5)
        curve = return_volatility_correlation(
            normalize(rng.normal(size=100_000)), 15
        )
        assert np.max(np.abs(curve.values)) < 0.05

    def test_hand_series_direct_summation(self):
        r = [1.0, -2.0, 1.0, 2.0, -1.0, -2.0]
        curve = return_volatility_correlation(r, 1)
        # products r(t) * r(t+1)^2: 4, -2, 4, 2, -4 -> mean 0.8; Z = 2.5^2
        assert curve.values[0] == pytest.approx(0.8 / 6.25, abs=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(6)
        r = rng.standard_t(5, size=1000)
        curve = return_volatility_correlation(r, 40)
        assert np.max(np.abs(curve.values - lcurve_oracle(r, 40))) < 1e-12

    def test_antisymmetric_under_negation(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=3000)
        l1 = return_volatility_correlation(r, 20).values
        l2 = return_volatility_correlation(-r, 20).values
        assert np.max(np.abs(l1 + l2)) < 1e-12


class TestHurstExponent:
    def test_white_noise(self):
        rng = np.random.default_rng(8)
        h = hurst_exponent(rng.normal(size=2**14))
        assert h == pytest.approx(0.5, abs=0.05)

    def test_integrated_noise_hits_cap_region(self):
        rng = np.random.default_rng(9)
        h = hurst_exponent(np.cumsum(rng.normal(size=2**14)))
        assert h > 1.0

    def test_constant_input_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            hurst_exponent(np.ones(1024))

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            hurst_exponent(np.random.default_rng(0).normal(size=100))


class TestTailExponent:
    def test_pareto_recovery(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(size=100_000) ** (-1.0 / 3.0)
        assert tail_exponent(x, 0.05) == pytest.approx(3.0, abs=0.15)

    def test_light_tail_estimate_grows_into_the_tail(self):
        rng = np.random.default_rng(11)
        x = rng.exponential(size=100_000)
        assert tail_exponent(x, 0.01) > tail_exponent(x, 0.10)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.standard_t(3, size=20_000)
        assert tail_exponent(x, 0.05) == pytest.approx(
            tail_exponent(123.456 * x, 0.05), abs=1e-12
        )

    def test_too_few_tail_points(self):
        with pytest.raises(InsufficientDataError):
            tail_exponent(np.random.default_rng(0).normal(size=500), 0.05)

    def test_fraction_bounds(self):
        with pytest.raises(Exception):
            tail_exponent(np.ones(1000), 0.5)


class TestFits:
    def test_exponential_exact_recovery(self):
        t = np.arange(1, 16)
        curve = CorrelationCurve(t, -0.2 * np.exp(-t / 5.0))
        fit = fit_exponential(curve)
        assert fit.params["c"] == pytest.approx(-0.2, abs=1e-9)
        assert fit.params["tau"] == pytest.approx(5.0, abs=1e-9)
        assert fit.residual_rms < 1e-12

    def test_noise_curve_has_larger_residual(self):
        t = np.arange(1, 16)
        exact = fit_exponential(CorrelationCurve(t, 0.5 * np.exp(-t / 4.0)))
        rng = np.random.default_rng(21)  # seed chosen to give a decaying fit
        noisy = fit_exponential(
            CorrelationCurve(t, 0.5 * np.exp(-t / 4.0) * rng.uniform(0.3, 1.7, 15))
        )
        assert noisy.residual_rms > exact.residual_rms + 0.05

    def test_mixed_signs_rejected(self):
        curve = CorrelationCurve(np.arange(1, 6), np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
        with pytest.raises(FitDomainError):
            fit_exponential(curve)

    def test_growing_curve_rejected(self):
        t = np.arange(1, 10)
        with pytest.raises(FitDomainError):
            fit_exponential(CorrelationCurve(t, np.exp(t / 3.0)))

    def test_power_law_exact_recovery(self):
        t = np.arange(1, 30)
        fit = fit_power_law(t, 2.5 * t**-0.7)
        assert fit.params["amplitude"] == pytest.approx(2.5, rel=1e-9)
        assert fit.params["exponent"] == pytest.approx(-0.7, abs=1e-9)


def read_curve_csv(path) -> CorrelationCurve:
    lags = []
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            lags.append(int(row[0]))
            values.append(float(row[1]))
    return CorrelationCurve(lags=np.asarray(lags), values=np.asarray(values))


def test_curve_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    curve = return_volatility_correlation(rng.normal(size=500), 10)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path)
    assert back.lags.tolist() == curve.lags.tolist()
    assert np.array_equal(back.values, curve.values)
