"""Estimation of model parameters from market and attention data.

Covers the trading asymmetry alpha, the herding shift delta_r and its
integer counterpart delta_R, the co-movement degrees H_M and H_j, and the
information pipeline: binary attention states, windowed driving forces,
their bull/bear asymmetry and the correlating time of attention data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import stats
from .errors import (
    FitDomainError,
    InputError,
    InsufficientDataError,
    NumericError,
    ValidationError,
)
from .ingest import ReturnsPanel, log_returns
from .stats import fit_power_law, normalize, normalize_columns
from .simcore import weighted_returns

#: Default correlating time of weekly attention data: infoforce_report's
#: window length when the attention curve gives no estimate.
DEFAULT_TAU_WEEKS = 26

#: Published (delta_r, delta_R) anchors for six major index families, used
#: to freeze the linear relation between the two shift scales.
REFERENCE_SHIFT_PAIRS = (
    (0.067, 3),
    (-0.043, -2),
    (0.039, 2),
    (0.028, 2),
    (0.032, 2),
    (0.013, 1),
)


def round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class AsymmetryEstimate:
    """Trading and herding asymmetry of one index; beta is 2 - alpha
    exactly."""

    alpha: float
    beta: float
    volume_ratio: float
    delta_r: float
    delta_R: int

    def report(self) -> tuple[dict, list[str]]:
        """The values of report.json and the lines of report.txt."""
        values = {
            "alpha": self.alpha,
            "beta": self.beta,
            "delta_r": self.delta_r,
            "delta_R": self.delta_R,
            "volume_ratio": self.volume_ratio,
        }
        lines = [
            "trading and herding asymmetry",
            f"  volume ratio V+/V-   {self.volume_ratio:.4f}",
            f"  alpha                {self.alpha:.4f}",
            f"  beta                 {self.beta:.4f}",
            f"  delta_r              {self.delta_r:.4f}",
            f"  delta_R              {self.delta_R}",
        ]
        return values, lines


@dataclass(frozen=True)
class ComovementEstimate:
    H_M: float
    H_j: dict[str, float]

    def report(self) -> tuple[dict, list[str]]:
        """The values of report.json and the lines of report.txt."""
        sector_ids = sorted(self.H_j)
        values = {
            "H_M": self.H_M,
            "H_j": [self.H_j[s] for s in sector_ids],
            "sector_ids": sector_ids,
        }
        lines = ["co-movement degrees", f"  H_M     {self.H_M:.4f}"]
        lines += [f"  H[{s}]   {self.H_j[s]:.4f}" for s in sector_ids]
        return values, lines


@dataclass(frozen=True)
class InfoForceSeries:
    """Windowed driving forces of one ticker: the force of each kept window
    start, and the number of windows skipped."""

    window_starts: np.ndarray
    forces: np.ndarray
    skipped: int = 0


def _returns_and_volumes(returns, volumes) -> tuple[np.ndarray, np.ndarray]:
    """The input check of the asymmetry estimators: returns and volumes as
    float arrays of equal length, the returns finite, the volumes finite
    and non-negative."""
    r = np.asarray(returns, dtype=float)
    v = np.asarray(volumes, dtype=float)
    if len(r) != len(v):
        raise ValidationError("returns and volumes have different lengths")
    if not np.isfinite(r).all():
        raise ValidationError("returns must be finite")
    if not (np.isfinite(v).all() and (v >= 0.0).all()):
        raise ValidationError("volumes must be finite and non-negative")
    return r, v


def trading_asymmetry(returns, volume, m: int = 150, k: float = 1.0) -> tuple[float, float]:
    """Estimate alpha from volumes following bull and bear weighted returns,
    as the pair (alpha, volume_ratio).

    volume[t] is the volume of the day returns[t] ends on.  With the
    trading probability proportional to volume, the bull/bear volume ratio
    rho = V+/V- equals alpha/beta, and alpha + beta = 2 gives
    alpha = 2 rho / (1 + rho).  A day is bull or bear by the sign of R'
    alone, so a gain k > 0 only scales R' and leaves the labels unchanged.
    """
    r, volume = _returns_and_volumes(returns, volume)
    if len(r) < m + 1:
        raise InsufficientDataError(
            f"need more than {m} days of returns, got {len(r)}"
        )
    signs = np.sign(weighted_returns(r, m, k))
    # signs[i] corresponds to day t = m - 1 + i; it classifies volume[t + 1].
    next_vol = volume[m:]
    signs = signs[: len(next_vol)]
    bull = next_vol[signs > 0]
    bear = next_vol[signs < 0]
    if len(bull) == 0 or len(bear) == 0:
        raise InsufficientDataError("no bull or no bear days in the sample")
    # volumes near the float64 limit overflow here; alpha then is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        v_bull, v_bear = bull.mean(), bear.mean()
        if v_bull == 0.0 or v_bear == 0.0:
            raise InsufficientDataError("zero mean volume after bull or bear days")
        ratio = float(v_bull / v_bear)
    alpha = 2.0 * ratio / (1.0 + ratio)
    if not math.isfinite(alpha):
        raise NumericError("volume ratio V+/V- overflows float64")
    return alpha, ratio


def herding_shift(r: np.ndarray, volumes) -> float:
    """Volume-weighted herding-degree shift between bear and bull days.

    r holds the normalized returns.  d_bull is the volume-weighted mean of
    r over positive days, d_bear the same over |r| on negative days; the
    shift is (d_bear - d_bull) / 2.
    """
    r, v = _returns_and_volumes(r, volumes)
    bull = r > 0.0
    bear = r < 0.0
    if not bull.any() or not bear.any():
        raise InsufficientDataError("series is one-sided")
    # volumes near the float64 limit overflow here; the shift then is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        w_bull = v[bull].sum()
        w_bear = v[bear].sum()
        if w_bull == 0.0 or w_bear == 0.0:
            raise InsufficientDataError("zero total volume on one side")
        d_bull = float((v[bull] * r[bull]).sum() / w_bull)
        d_bear = float((v[bear] * np.abs(r[bear])).sum() / w_bear)
    shift = (d_bear - d_bull) / 2.0
    if not math.isfinite(shift):
        raise NumericError("volume-weighted herding shift overflows float64")
    return shift


def shift_relation() -> tuple[float, float]:
    """Least-squares line delta_R = slope * delta_r + intercept through
    REFERENCE_SHIFT_PAIRS.

    A pure through-origin slope cannot reproduce the integer delta_R of
    all six reference indices (no single slope lands every row in the
    right rounding bin), so the frozen relation keeps the intercept.
    """
    x, y = np.array(REFERENCE_SHIFT_PAIRS, dtype=float).T
    slope, intercept = np.polyfit(x, y, 1)
    return float(slope), float(intercept)


def herding_offset_from_shift(delta_r: float) -> int:
    """Map a return-scale shift to the integer herding offset delta_R."""
    slope, intercept = shift_relation()
    return round_half_away(slope * delta_r + intercept)


def asymmetry_report(index_series, m: int = 150, k: float = 1.0) -> AsymmetryEstimate:
    """Full asymmetry calibration of one index: alpha, delta_r and delta_R.

    Any gain k > 0 gives the same estimate: it only scales R', whose sign
    labels the days.
    """
    returns, volume = log_returns(index_series), index_series.volume[1:]
    alpha, ratio = trading_asymmetry(returns, volume, m=m, k=k)
    shift = herding_shift(normalize(returns), volume)
    return AsymmetryEstimate(alpha=alpha, beta=2.0 - alpha, volume_ratio=ratio,
                             delta_r=shift, delta_R=herding_offset_from_shift(shift))


#: Days per block of the co-movement pass: its temporaries stay a few
#: (block x stocks) arrays instead of growing with the panel length.
_DAY_BLOCK = 1024


def _trend_degrees(normalized: np.ndarray, sizes) -> np.ndarray:
    """H = <zeta> * <v_d - v_n> of the whole panel, then of each stock group.

    normalized holds one stock's normalized returns per row, the rows of
    group g being the sizes[g] rows that follow those of groups < g.  Per
    day and group, v+ (v-) is the sum of squared positive (negative)
    returns over the group size; the up trend dominates when v+ >= v-, and
    a day where nothing moves contributes zeta = 0 and a zero gap.
    """
    n_stocks, n_days = normalized.shape
    starts = np.cumsum(sizes) - sizes
    sizes = np.concatenate(([n_stocks], sizes))[:, None]
    zeta_sum = np.zeros(len(sizes))
    gap_sum = np.zeros(len(sizes))
    for lo in range(0, n_days, _DAY_BLOCK):
        r = normalized[:, lo : lo + _DAY_BLOCK]
        sq = r * r
        up = r > 0.0
        down = r < 0.0
        sums = [
            np.add.reduceat(x, starts, axis=0)
            for x in (np.where(up, sq, 0.0), np.where(down, sq, 0.0), up, down)
        ]
        # one row per group and a column per day, the market (the total
        # over groups) in front; the rows stay contiguous, so numpy sums
        # the days of each row pairwise
        v_up, v_down, n_up, n_down = (np.vstack((g.sum(axis=0), g)) for g in sums)
        v_up = v_up / sizes
        v_down = v_down / sizes
        zeta = np.where(v_up >= v_down, n_up, n_down) / sizes
        moving = (v_up != 0.0) | (v_down != 0.0)
        zeta_sum += np.where(moving, zeta, 0.0).sum(axis=1)
        gap_sum += np.abs(v_up - v_down).sum(axis=1)
    return (zeta_sum / n_days) * (gap_sum / n_days)


def comovement(panel: ReturnsPanel) -> ComovementEstimate:
    """Co-movement degrees H = <zeta> * <v_d - v_n>, market-wide and per sector.

    zeta is the fraction of stocks in the dominating trend of the day and
    v_d - v_n the amplitude gap between the dominating and the other trend.
    Columns are normalized by `normalize_columns` before grouping.
    """
    # object dtype: a fixed-width string array would drop trailing NULs
    sector_ids, codes, sizes = np.unique(np.array(panel.sectors, dtype=object),
                                         return_inverse=True, return_counts=True)
    # stocks grouped by sector, in ticker order within each sector
    normalized = normalize_columns(panel)[np.argsort(codes, kind="stable")]
    for sid, size in zip(sector_ids, sizes):
        if size < 2:
            raise ValidationError(f"sector {sid!r} has fewer than 2 stocks")
    h = _trend_degrees(normalized, sizes)
    return ComovementEstimate(
        H_M=float(h[0]),
        H_j={sid: float(x) for sid, x in zip(sector_ids, h[1:])},
    )


def info_states(volume) -> np.ndarray:
    """Binary attention states: 1 where the volume exceeds its mean."""
    volume = np.asarray(volume, dtype=float)
    if len(volume) < 2:
        raise InsufficientDataError("need at least 2 weeks")
    with np.errstate(over="ignore"):
        mean = volume.mean()
    if not np.isfinite(mean):
        raise NumericError("attention volumes overflow float64: mean is not finite")
    return (volume > mean).astype(np.int8)


def info_driving_force(states, volumes, tau: int, ticker: str = "") -> InfoForceSeries:
    """Windowed driving forces F = V1/V0 - 1 from states and trade volumes.

    For each window start t the trade volumes inside [t, t + tau) are
    averaged separately over high-attention and low-attention weeks; a
    window missing either state, or with a zero low-attention average,
    is skipped.
    """
    s = np.asarray(states, dtype=np.int8)
    v = np.asarray(volumes, dtype=float)
    if len(s) != len(v):
        raise ValidationError("states and volumes have different lengths")
    if tau < 2:
        raise ValidationError(f"tau must be >= 2, got {tau}")
    if len(s) < tau:
        raise InsufficientDataError(
            f"series of length {len(s)} shorter than tau={tau}"
        )
    window_s = sliding_window_view(s, tau)
    window_v = sliding_window_view(v, tau)
    high = window_s == 1
    low = window_s == 0
    n_high = high.sum(axis=1)
    n_low = low.sum(axis=1)
    # a window without high or low weeks divides by zero; it is skipped.
    # Volumes near the float64 limit overflow here; a force then is not finite
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v1 = np.where(high, window_v, 0.0).sum(axis=1) / n_high
        v0 = np.where(low, window_v, 0.0).sum(axis=1) / n_low
        kept = (n_high > 0) & (n_low > 0) & (v0 != 0.0)
        forces = v1[kept] / v0[kept] - 1.0
    if not (np.isfinite(forces).all() and np.isfinite(v0[kept]).all()):
        raise NumericError(f"trading volumes of {ticker!r} overflow float64 "
                           "in a window average")
    return InfoForceSeries(
        window_starts=np.flatnonzero(kept).astype(np.int64),
        forces=forces,
        skipped=int(len(kept) - kept.sum()),
    )


def window_labels(market, tau: int) -> np.ndarray:
    """The label of the window [t, t + tau) of each start t of the market
    return series: 1 bull, -1 bear, 0 unlabelled.

    A window is bull (bear) when the cumulative market return over it is
    positive (negative).  Flat windows and windows with NaN entries, whose
    sum is NaN and so neither positive nor negative, stay unlabelled.
    """
    market = np.asarray(market, dtype=float)
    if len(market) < tau:
        raise ValidationError("market return series shorter than tau")
    total = sliding_window_view(market, tau).sum(axis=1)
    return (total > 0.0).astype(np.int8) - (total < 0.0)


def info_force_asymmetry(forces, labels) -> float:
    """Relative bear-bull gap of pooled driving forces:

        delta_F = (mean F over bear windows - mean F over bull) / mean F,

    labels holding the window_labels entry of each force's window; the
    overall mean runs over unlabelled windows too.
    """
    forces = np.asarray(forces, dtype=float)
    labels = np.asarray(labels)
    if len(forces) != len(labels):
        raise ValidationError("forces and labels have different lengths")
    bull = forces[labels > 0]
    bear = forces[labels < 0]
    if len(bull) == 0 or len(bear) == 0:
        raise InsufficientDataError("no bull or no bear windows")
    overall = float(np.mean(forces))
    if overall == 0.0:
        raise FitDomainError("zero overall mean force")
    return float((np.mean(bear) - np.mean(bull)) / overall)


#: correlating_time's threshold on the relative deviation from the fit,
#: and the number of consecutive lags that must exceed it.
_DEVIATION_FACTOR = 0.5
_PERSISTENCE = 3

#: Lags correlating_time needs in its curve.  infoforce_report estimates
#: tau on weeks // 4 - 1 lags, so it needs 4 * (_TAU_LAGS + 1) weeks.
_TAU_LAGS = 30


def correlating_time(curve) -> tuple[int, bool]:
    """Lag where a correlation curve on lags 1..n leaves its early
    power-law decay, as (tau, deviation_found).

    A power law is fitted on lags 1..10; tau is the first lag opening a
    run of _PERSISTENCE consecutive lags whose relative deviation from the
    fit exceeds _DEVIATION_FACTOR.  Without such a run, or when the curve
    is not positive on lags 1..10 (no power law to deviate from),
    DEFAULT_TAU_WEEKS is returned with the flag unset.
    """
    if len(curve) < _TAU_LAGS:
        raise InsufficientDataError(
            f"curve has {len(curve)} lags; need at least {_TAU_LAGS}"
        )
    try:
        amplitude, exponent = fit_power_law(curve[:10])
    except FitDomainError:
        return DEFAULT_TAU_WEEKS, False
    lags = np.arange(1.0, len(curve) + 1)
    predicted = amplitude * lags**exponent
    deviates = np.abs(curve - predicted) / np.abs(predicted) > _DEVIATION_FACTOR
    # runs[i]: every entry of deviates[i : i + _PERSISTENCE] is set
    runs = sliding_window_view(deviates, _PERSISTENCE).all(axis=1)
    if runs.any():
        return int(runs.argmax()) + 1, True
    return DEFAULT_TAU_WEEKS, False


def _common_weeks(a, b):
    """The labels the strictly increasing `a` and `b` share, with their
    positions in each; dates and day numbers share none, nor does an
    empty sequence."""
    if not (len(a) and len(b)) or isinstance(a[0], date) != isinstance(b[0], date):
        a = b = ()
    return np.intersect1d(a, b, assume_unique=True, return_indices=True)


def infoforce_report(searches, volumes, index, tau: int = 0) -> tuple[dict, list[str]]:
    """Full information-force calibration: tau, delta_F and a = delta_F / 2,
    as the values of report.json and the lines of report.txt.

    searches and volumes are the SearchPanels of a search.csv and of a
    weekly trading-volume file, index the weekly IndexSeries that labels
    windows bull or bear.  All three are put on one weekly clock: the
    search weeks that also carry volumes.  With tau = 0 the window length
    is the correlating time of the mean attention autocorrelation (see
    correlating_time for its DEFAULT_TAU_WEEKS fallback).  The clock needs
    2 * DEFAULT_TAU_WEEKS weeks with tau given, 4 * (_TAU_LAGS + 1)
    without.  The market windows are labelled once, and every ticker's
    kept windows take their labels from that one array: skipped windows
    have no force, unlabelled ones have a force but are neither bull nor
    bear.  tau_deviation_found is None when tau was given.
    """
    for ticker in searches.tickers:
        if ticker not in volumes.tickers:
            raise InputError(f"no trading volumes for ticker {ticker!r}")
    weeks, search_rows, volume_rows = _common_weeks(searches.weeks, volumes.weeks)
    need = 2 * DEFAULT_TAU_WEEKS if tau else 4 * (_TAU_LAGS + 1)
    if len(weeks) < need:
        hint = "" if tau else " to estimate tau; --tau sets it and needs fewer"
        raise InputError(f"search and volume files share only {len(weeks)} "
                         f"weeks; need {need}{hint}")
    # one row per ticker, in the order of searches.tickers
    attention = searches.volume[search_rows].T
    columns = [volumes.tickers.index(ticker) for ticker in searches.tickers]
    trading = volumes.volume[np.ix_(volume_rows, columns)].T
    # return t - 1 of the index ends on its week t
    _, on_clock, days = _common_weeks(weeks, index.dates[1:])
    if not len(on_clock):
        raise InsufficientDataError("the index has no return on any week the "
                                    "search and volume files share")
    market_vec = np.full(len(weeks), np.nan)
    market_vec[on_clock] = log_returns(index)[days]

    deviation_found = None
    if not tau:
        max_lag = min(len(weeks) // 4 - 1, 60)
        curves = []
        for ticker, volume in zip(searches.tickers, attention):
            try:
                curves.append(stats.autocorrelation_abs(volume, max_lag))
            except NumericError as exc:  # name the ticker, keep the type
                raise type(exc)(f"attention of {ticker!r}: {exc}")
        tau, deviation_found = correlating_time(np.mean(curves, axis=0))
    series = [info_driving_force(info_states(search), volume, tau, ticker=ticker)
              for ticker, search, volume in zip(searches.tickers, attention, trading)]
    starts = np.concatenate([np.empty(0, np.int64)] + [s.window_starts for s in series])
    forces = np.concatenate([np.empty(0)] + [s.forces for s in series])
    labels = window_labels(market_vec, tau)[starts]
    delta_f = info_force_asymmetry(forces, labels)
    values = {
        "tau": tau,
        "delta_F": delta_f,
        "a": delta_f / 2.0,
        "tau_deviation_found": deviation_found,
        "tickers": list(searches.tickers),
        "windows_skipped": sum(s.skipped for s in series),
        "windows_unlabelled": int(np.count_nonzero(labels == 0)),
    }
    lines = [
        "information driving forces",
        f"  tau (weeks)   {tau}",
        f"  delta_F       {delta_f:.4f}",
        f"  a = dF/2      {delta_f / 2.0:.4f}",
    ]
    lines += [
        f"  {ticker:<10} windows {len(s.forces):>4}  "
        f"mean F {np.mean(s.forces) if len(s.forces) else float('nan'):.4f}"
        for ticker, s in zip(searches.tickers, series)
    ]
    return values, lines
