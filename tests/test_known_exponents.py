"""The DFA and Hill estimators on processes whose exponents are known.

C4 and C5 bound the readings of `stats.tail_exponent` and
`stats.hurst_exponent` on model A.  Here each estimator reads a process
whose exponent is known, so that a reading on a model can be placed against
the estimator's own bias:

* DFA on fractional Gaussian noise (fGn) of Hurst exponent H, made by
  Davies-Harte circulant embedding: 10 draws of 20,000 points per H;
* Hill at a 5 % tail on exact Pareto draws of tail index 3, and on
  Student-t draws of 3 and 4 degrees of freedom: 5 draws of 200,000 each;
* `fit_exponential` on c exp(-t / tau) over lags 1..40 times lognormal
  noise of log-sd 0.1: 10 draws per tau;
* `correlating_time` on a curve that follows a power law through lag
  tau0 - 1 and a quarter of it from tau0 on, and on a pure power law,
  both times lognormal noise of log-sd 0.05.

Seeds and draw counts were fixed first.  Over the 20 seeds 2017-2036 the
sd of the 10-draw DFA mean between seeds was 0.006-0.008, and every seed's
mean lay within 0.017 of H; the sd of the 5-draw Hill mean on Pareto draws
was 0.009, and every seed's mean lay within 0.018 of 3.  The tolerances
below are about three of those sds.  The sd of the 10-draw mean of the
exponential fit's tau was 0.008, 0.032 and 0.127 for tau = 5, 10 and 20,
and each tolerance is about three of these.  correlating_time returned
the same pair at every one of the 20 seeds.  Hill reads Student-t tails low (2.65
for 3 and 3.20 for 4 over those seeds), as the README's bias table records;
that bias is pinned only as a reading below the tail index that keeps the
order of the indices.
"""

import numpy as np
import pytest

from herdsim import stats
from herdsim.calibrate import DEFAULT_TAU_WEEKS, correlating_time

SEED = 2017
DFA_TOLERANCE = 0.025
PARETO_TOLERANCE = 0.03


def fgn_autocovariance(hurst, lags):
    """The autocovariance of unit-variance fGn on integer lags k >= 0."""
    k = np.asarray(lags, dtype=float)
    return 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst)
                  + np.abs(k - 1) ** (2 * hurst))


def fgn(hurst, n, rng, draws):
    """`draws` rows of n points of unit-variance fGn, by Davies-Harte.

    The autocovariance on lags 0..n, mirrored, is the first row of a
    circulant of size 2n whose eigenvalues are its FFT.  Complex white noise
    scaled by their square roots and transformed back has that circulant as
    the covariance of its real part, whose first n points are then fGn.
    """
    gamma = fgn_autocovariance(hurst, np.arange(n + 1))
    eigenvalues = np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real
    assert eigenvalues.min() > -1e-9  # the embedding holds for 0 < H < 1
    noise = (rng.standard_normal((draws, 2 * n))
             + 1j * rng.standard_normal((draws, 2 * n)))
    scale = np.sqrt(eigenvalues.clip(0.0) / (2 * n))
    return np.fft.fft(scale * noise)[:, :n].real


@pytest.mark.parametrize("hurst", [0.5, 0.75, 0.9])
def test_fgn_has_its_autocovariance(hurst):
    # 100,000 draws of 4 points: each sample covariance has an sd of at
    # most 0.0045 about the exact one
    x = fgn(hurst, 4, np.random.default_rng(SEED), 100_000)
    lags = np.abs(np.subtract.outer(np.arange(4), np.arange(4)))
    assert np.abs(x.T @ x / len(x) - fgn_autocovariance(hurst, lags)).max() < 0.02


@pytest.mark.parametrize("hurst", [0.5, 0.75, 0.9])
def test_dfa_reads_the_hurst_exponent_of_fgn(hurst):
    draws = fgn(hurst, 20_000, np.random.default_rng(SEED), 10)
    readings = [stats.hurst_exponent(x) for x in draws]
    assert np.mean(readings) == pytest.approx(hurst, abs=DFA_TOLERANCE)


def test_hill_reads_the_index_of_exact_pareto():
    rng = np.random.default_rng(SEED)
    # numpy's pareto is the Lomax law; shifted by 1 it is exact Pareto on
    # [1, inf), whose tail P(|x| > u) = u**-3 is a power law throughout
    readings = [stats.tail_exponent(rng.pareto(3.0, 200_000) + 1.0)
                for _ in range(5)]
    assert np.mean(readings) == pytest.approx(3.0, abs=PARETO_TOLERANCE)


def test_hill_reads_student_t_tails_low_and_in_order():
    rng = np.random.default_rng(SEED)
    readings = {nu: np.mean([stats.tail_exponent(rng.standard_t(nu, 200_000))
                             for _ in range(5)])
                for nu in (3, 4)}
    assert readings[3] < 3
    assert readings[4] < 4
    assert readings[3] < readings[4]


def noisy(curve, rng, draws, sigma):
    """`draws` copies of a curve, each point times exp(sigma * N(0, 1))."""
    return curve * np.exp(sigma * rng.standard_normal((draws, len(curve))))


@pytest.mark.parametrize("tau, tolerance", [(5, 0.025), (10, 0.1), (20, 0.4)])
def test_exponential_fit_reads_tau(tau, tolerance):
    lags = np.arange(1.0, 41)
    curves = noisy(-0.5 * np.exp(-lags / tau), np.random.default_rng(SEED), 10, 0.1)
    readings = [stats.fit_exponential(v)["params"]["tau"] for v in curves]
    assert np.mean(readings) == pytest.approx(tau, abs=tolerance)


def power_law_curve(n=60):
    return 0.3 * np.arange(1.0, n + 1) ** -0.4


@pytest.mark.parametrize("tau0", [12, 20, 35])
def test_correlating_time_finds_where_the_power_law_ends(tau0):
    curve = power_law_curve()
    curve[tau0 - 1:] *= 0.25  # lag tau0 is entry tau0 - 1
    (curve,) = noisy(curve, np.random.default_rng(SEED), 1, 0.05)
    assert correlating_time(curve) == (tau0, True)


def test_correlating_time_of_a_pure_power_law_is_the_default():
    (curve,) = noisy(power_law_curve(), np.random.default_rng(SEED), 1, 0.05)
    assert correlating_time(curve) == (DEFAULT_TAU_WEEKS, False)
    assert DEFAULT_TAU_WEEKS == 26
