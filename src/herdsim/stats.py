"""Time-series diagnostics for return series.

Normalization, volatility autocorrelation, return-volatility correlation,
detrended-fluctuation Hurst exponents, Hill tail exponents and simple
curve fits.  Every estimator takes a plain 1-d sequence of finite numbers.
A correlation curve is a 1-d float array whose entry t - 1 is the value
at lag t, for lags 1..n.  fit_exponential returns a dict of its model_id,
params and residual_rms; fit_power_law returns (amplitude, exponent).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DegenerateSeriesError,
    FitDomainError,
    InsufficientDataError,
    NumericError,
    ValidationError,
)
from .ingest import ReturnsPanel, write_csv_table, write_json


def _as_series(values) -> np.ndarray:
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-d series, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("series contains non-finite values")
    return x


def normalize(returns) -> np.ndarray:
    """Center and scale a return series: r = (R - <R>) / sigma.

    sigma is the population standard deviation sqrt(<R^2> - <R>^2).  Finite
    returns whose mean or sigma overflows float64 raise NumericError.
    """
    x = _as_series(returns)
    if len(x) < 2:
        raise InsufficientDataError("need at least 2 observations")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(x.mean())
        sigma = float(x.std())
    if not (np.isfinite(mean) and np.isfinite(sigma)):
        raise NumericError("returns overflow float64: mean or sigma is not finite")
    if sigma == 0.0:
        raise DegenerateSeriesError("zero variance; cannot normalize")
    return (x - mean) / sigma


def normalize_columns(panel: ReturnsPanel) -> np.ndarray:
    """Every column of a returns panel normalized as `normalize` does it,
    as one row per stock in ticker order.

    Each row is reduced along its contiguous memory, the order in which a
    1-d series is summed, so a row equals normalize(column) bit for
    bit.  A constant column is degenerate, and one whose sigma overflows
    float64 a NumericError; either is reported by ticker.
    """
    x = panel.matrix.T.astype(float, order="C")
    with np.errstate(over="ignore", invalid="ignore"):
        sigma = x.std(axis=1)
    # a mean that overflows makes sigma NaN, so this covers the mean too
    huge = np.flatnonzero(~np.isfinite(sigma))
    if len(huge):
        raise NumericError(f"return column for ticker {panel.tickers[huge[0]]!r} "
                           "overflows float64: sigma is not finite")
    dead = np.flatnonzero(sigma == 0.0)
    if len(dead):
        raise DegenerateSeriesError(f"constant return column for ticker "
                                    f"{panel.tickers[dead[0]]!r}")
    x -= x.mean(axis=1, keepdims=True)
    x /= sigma[:, None]
    return x


def _check_max_lag(length: int, max_lag: int) -> None:
    if max_lag < 1:
        raise ValidationError(f"max_lag must be >= 1, got {max_lag}")
    if max_lag >= length / 4:
        raise InsufficientDataError(
            f"max_lag {max_lag} too large for series of length {length}"
        )


def autocorrelation_abs(series, max_lag: int) -> np.ndarray:
    """Autocorrelation of magnitudes:

        A(t) = [<|r(t')||r(t'+t)|> - <|r|>^2] / A0,  A0 = <|r|^2> - <|r|>^2.

    The lagged product is averaged over all t' with full overlap; the
    subtracted mean and A0 use the whole series.  Works on any series
    (magnitudes are taken internally), so it also serves positive series
    such as volumes or binary state sequences.
    """
    x = np.abs(_as_series(series))
    _check_max_lag(len(x), max_lag)
    with np.errstate(over="ignore", invalid="ignore"):
        mu = x.mean()
        a0 = (x * x).mean() - mu * mu
    # a mean that overflows makes A0 NaN or -inf, so this covers it too
    if not np.isfinite(a0):
        raise NumericError("magnitudes overflow float64: A0 is not finite")
    if a0 <= 0.0:
        raise DegenerateSeriesError("constant magnitudes; A0 = 0")
    curve = np.empty(max_lag)
    for t in range(1, max_lag + 1):
        curve[t - 1] = ((x[:-t] * x[t:]).mean() - mu * mu) / a0
    return curve


def return_volatility_correlation(series, max_lag: int) -> np.ndarray:
    """Correlation of returns with later squared volatilities:

        L(t) = <r(t') |r(t'+t)|^2> / Z,  Z = <|r|^2>^2.

    Negative short-lag values are the leverage effect, positive ones the
    anti-leverage effect.
    """
    r = _as_series(series)
    _check_max_lag(len(r), max_lag)
    with np.errstate(over="ignore"):
        r2 = r * r
        z = r2.mean() ** 2
    # a square that overflows makes Z inf, and a finite Z keeps every
    # lagged product finite
    if not np.isfinite(z):
        raise NumericError("returns overflow float64: Z is not finite")
    if z == 0.0:
        raise DegenerateSeriesError("zero second moment; Z = 0")
    curve = np.empty(max_lag)
    for t in range(1, max_lag + 1):
        curve[t - 1] = (r[:-t] * r2[t:]).mean() / z
    return curve


#: Smallest window size of the DFA grid.
_DFA_MIN_WINDOW = 16


def hurst_exponent(values) -> float:
    """Hurst exponent by detrended fluctuation analysis (linear detrending).

    The profile (cumulative sum of the centered series) is split into
    non-overlapping windows taken from both ends, each window is detrended
    by a least-squares line, and the RMS fluctuation F(s) is fitted as
    F ~ s**H on a log-log grid of window sizes from _DFA_MIN_WINDOW up to
    an eighth of the series length.  The estimate is clipped into [0, 1.5].
    """
    x = _as_series(values)
    if len(x) < 512:
        raise InsufficientDataError(
            f"need at least 512 observations, got {len(x)}"
        )
    if np.all(x == x[0]):
        raise DegenerateSeriesError("constant input")
    profile = np.cumsum(x - x.mean())
    n = len(profile)
    sizes = np.unique(
        np.round(np.geomspace(_DFA_MIN_WINDOW, n // 8, 24)).astype(int)
    )
    log_s = []
    log_f = []
    for s in sizes:
        used = n // s * s
        seg = np.concatenate([profile[:used], profile[n - used :]]).reshape(-1, s)
        # detrend every window in place by its least-squares line, in
        # closed form on centered time
        tc = np.arange(s) - (s - 1) / 2.0
        seg -= seg.mean(axis=1, keepdims=True)
        seg -= np.outer(seg @ tc / (tc @ tc), tc)
        f = np.sqrt(np.mean(seg**2))
        if f > 0.0:
            log_s.append(np.log(s))
            log_f.append(np.log(f))
    if len(log_s) < 3:
        raise DegenerateSeriesError("not enough usable window sizes")
    slope = np.polyfit(log_s, log_f, 1)[0]
    return float(np.clip(slope, 0.0, 1.5))


def tail_exponent(values, tail_fraction: float = 0.05) -> float:
    """Hill estimate of the cumulative power-law exponent of |values|.

    Averages log-ratios of the top `tail_fraction` order statistics over
    the next one down; scale-invariant by construction.
    """
    if not 0.0 < tail_fraction <= 0.2:
        raise ValidationError(
            f"tail_fraction must lie in (0, 0.2], got {tail_fraction}"
        )
    x = np.abs(_as_series(values))
    x = x[x > 0.0]
    k = int(len(x) * tail_fraction)
    if k < 100:
        raise InsufficientDataError(
            f"only {k} tail points; need at least 100"
        )
    top = np.sort(x)[::-1][: k + 1]
    log_ratios = np.log(top[:k] / top[k])
    total = log_ratios.sum()
    if total <= 0.0:
        raise DegenerateSeriesError("degenerate tail; all order stats equal")
    return float(k / total)


def fit_exponential(curve) -> dict:
    """Least-squares fit of c * exp(-t / tau) to a one-signed curve on
    lags t = 1..n.

    Fitted in log space: ln|v| against t.  The sign of c is the common
    sign of the curve values; mixed signs or zeros are outside the fit
    domain, as is a non-decaying fit (tau <= 0).
    """
    v = np.asarray(curve, dtype=float)
    t = np.arange(1.0, len(v) + 1)
    if np.any(v == 0.0) or (np.any(v > 0.0) and np.any(v < 0.0)):
        raise FitDomainError("curve changes sign inside the fitted range")
    sign = 1.0 if v[0] > 0.0 else -1.0
    slope, intercept = np.polyfit(t, np.log(np.abs(v)), 1)
    if slope >= 0.0:
        raise FitDomainError("curve does not decay; tau would be <= 0")
    residuals = np.log(np.abs(v)) - (slope * t + intercept)
    c, tau = sign * float(np.exp(intercept)), -1.0 / float(slope)
    return {"model_id": "exponential", "params": {"c": c, "tau": tau},
            "residual_rms": float(np.sqrt(np.mean(residuals**2)))}


def fit_power_law(curve) -> tuple[float, float]:
    """Least-squares fit of amplitude * t**exponent to a curve on lags
    t = 1..n, on a log-log grid, as (amplitude, exponent)."""
    v = np.asarray(curve, dtype=float)
    t = np.arange(1.0, len(v) + 1)
    if np.any(v <= 0.0):
        raise FitDomainError("power-law fit needs positive values")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    return float(np.exp(intercept)), float(slope)


def write_curve_csv(curve: np.ndarray, path) -> None:
    """Write a curve as rows `lag,value` for lags 1..n."""
    write_csv_table(path, ["lag", "value"], map(str, range(1, len(curve) + 1)),
                    [curve])


def write_results_json(path, results: dict) -> None:
    """Write estimator/fit results as one JSON object."""
    write_json(path, results)
