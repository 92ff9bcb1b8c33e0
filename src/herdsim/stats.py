"""Time-series diagnostics for return series.

Normalization, volatility autocorrelation, return-volatility correlation,
detrended-fluctuation Hurst exponents, Hill tail exponents and simple
curve fits.  All estimators accept either a plain sequence or the richer
objects produced elsewhere in the package (anything with a `.values` or
`.returns` attribute).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSeriesError,
    FitDomainError,
    InsufficientDataError,
    ValidationError,
)
from .ingest import write_csv_table, write_json


def _as_series(values) -> np.ndarray:
    if hasattr(values, "values"):
        values = values.values
    elif hasattr(values, "returns"):
        values = values.returns
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValidationError(f"expected a 1-d series, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("series contains non-finite values")
    return x


@dataclass(frozen=True)
class NormalizedReturns:
    """Return series centered to mean zero and scaled to unit variance."""

    values: np.ndarray
    mean_removed: float
    sigma: float


@dataclass(frozen=True)
class CorrelationCurve:
    """Correlation values per positive integer lag."""

    lags: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class FitResult:
    model_id: str
    params: dict[str, float]
    residual_rms: float


def normalize(returns) -> NormalizedReturns:
    """Center and scale a return series: r = (R - <R>) / sigma.

    sigma is the population standard deviation sqrt(<R^2> - <R>^2).
    """
    x = _as_series(returns)
    if len(x) < 2:
        raise InsufficientDataError("need at least 2 observations")
    mean = float(x.mean())
    sigma = float(x.std())
    if sigma == 0.0:
        raise DegenerateSeriesError("zero variance; cannot normalize")
    return NormalizedReturns(values=(x - mean) / sigma, mean_removed=mean, sigma=sigma)


def _check_max_lag(length: int, max_lag: int) -> None:
    if max_lag < 1:
        raise ValidationError(f"max_lag must be >= 1, got {max_lag}")
    if max_lag >= length / 4:
        raise InsufficientDataError(
            f"max_lag {max_lag} too large for series of length {length}"
        )


def autocorrelation_abs(series, max_lag: int) -> CorrelationCurve:
    """Autocorrelation of magnitudes:

        A(t) = [<|r(t')||r(t'+t)|> - <|r|>^2] / A0,  A0 = <|r|^2> - <|r|>^2.

    The lagged product is averaged over all t' with full overlap; the
    subtracted mean and A0 use the whole series.  Works on any series
    (magnitudes are taken internally), so it also serves positive series
    such as volumes or binary state sequences.
    """
    x = np.abs(_as_series(series))
    _check_max_lag(len(x), max_lag)
    mu = x.mean()
    a0 = (x * x).mean() - mu * mu
    if a0 <= 0.0:
        raise DegenerateSeriesError("constant magnitudes; A0 = 0")
    lags = np.arange(1, max_lag + 1)
    vals = np.empty(max_lag)
    for i, t in enumerate(lags):
        vals[i] = ((x[:-t] * x[t:]).mean() - mu * mu) / a0
    return CorrelationCurve(lags=lags, values=vals)


def return_volatility_correlation(series, max_lag: int) -> CorrelationCurve:
    """Correlation of returns with later squared volatilities:

        L(t) = <r(t') |r(t'+t)|^2> / Z,  Z = <|r|^2>^2.

    Negative short-lag values are the leverage effect, positive ones the
    anti-leverage effect.
    """
    r = _as_series(series)
    _check_max_lag(len(r), max_lag)
    r2 = r * r
    z = r2.mean() ** 2
    if z == 0.0:
        raise DegenerateSeriesError("zero second moment; Z = 0")
    lags = np.arange(1, max_lag + 1)
    vals = np.empty(max_lag)
    for i, t in enumerate(lags):
        vals[i] = (r[:-t] * r2[t:]).mean() / z
    return CorrelationCurve(lags=lags, values=vals)


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
        n_seg = n // s
        t = np.arange(s, dtype=float)
        segs = [
            profile[: n_seg * s].reshape(n_seg, s),
            profile[n - n_seg * s :].reshape(n_seg, s),
        ]
        sq = 0.0
        for seg in segs:
            coef = np.polyfit(t, seg.T, 1)
            trend = np.outer(coef[0], t) + coef[1][:, None]
            sq += np.mean((seg - trend) ** 2)
        f = np.sqrt(sq / 2.0)
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


def fit_exponential(curve: CorrelationCurve) -> FitResult:
    """Least-squares fit of c * exp(-t / tau) to a one-signed curve.

    Fitted in log space: ln|v| against t.  The sign of c is the common
    sign of the curve values; mixed signs or zeros are outside the fit
    domain, as is a non-decaying fit (tau <= 0).
    """
    v = np.asarray(curve.values, dtype=float)
    t = np.asarray(curve.lags, dtype=float)
    if np.any(v == 0.0) or (np.any(v > 0.0) and np.any(v < 0.0)):
        raise FitDomainError("curve changes sign inside the fitted range")
    sign = 1.0 if v[0] > 0.0 else -1.0
    slope, intercept = np.polyfit(t, np.log(np.abs(v)), 1)
    if slope >= 0.0:
        raise FitDomainError("curve does not decay; tau would be <= 0")
    residuals = np.log(np.abs(v)) - (slope * t + intercept)
    return FitResult(
        model_id="exponential",
        params={"c": sign * float(np.exp(intercept)), "tau": -1.0 / float(slope)},
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )


def fit_power_law(lags, values) -> FitResult:
    """Least-squares fit of amplitude * t**exponent on a log-log grid."""
    t = np.asarray(lags, dtype=float)
    v = np.asarray(values, dtype=float)
    if np.any(v <= 0.0) or np.any(t <= 0.0):
        raise FitDomainError("power-law fit needs positive lags and values")
    slope, intercept = np.polyfit(np.log(t), np.log(v), 1)
    residuals = np.log(v) - (slope * np.log(t) + intercept)
    return FitResult(
        model_id="power_law",
        params={"amplitude": float(np.exp(intercept)), "exponent": float(slope)},
        residual_rms=float(np.sqrt(np.mean(residuals**2))),
    )


def write_curve_csv(curve: CorrelationCurve, path) -> None:
    write_csv_table(path, ["lag", "value"], map(str, curve.lags.tolist()),
                    [curve.values])


def write_results_json(path, results: dict) -> None:
    """Write estimator/fit results; FitResult and array values are expanded
    in place."""

    def expand(value):
        if isinstance(value, FitResult):
            return dataclasses.asdict(value)
        if isinstance(value, np.ndarray):
            return value.tolist()
        return value

    write_json(path, {k: expand(v) for k, v in results.items()})
