"""Estimation of model parameters from market and attention data.

Covers the trading asymmetry alpha, the herding shift delta_r and its
integer counterpart delta_R, the co-movement degrees H_M and H_j, and the
information pipeline: binary attention states, windowed driving forces,
their bull/bear asymmetry and the correlating time of attention data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import stats
from .errors import (
    FitDomainError,
    InputError,
    InsufficientDataError,
    ValidationError,
)
from .ingest import DEFAULT_TAU_WEEKS, ReturnsPanel, log_returns
from .stats import CorrelationCurve, fit_power_law, normalize
from .simcore import weighted_returns

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
    """Trading and herding asymmetry of one index.

    beta is stored as 2 - alpha exactly; delta_r and delta_R stay None
    when only the volume side has been estimated.
    """

    alpha: float
    beta: float
    volume_ratio: float
    delta_r: float | None = None
    delta_R: int | None = None

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
    """Windowed driving forces of one ticker."""

    ticker: str
    window_starts: np.ndarray
    forces: np.ndarray
    tau: int
    skipped: int = 0


@dataclass(frozen=True)
class CorrelatingTime:
    tau: int
    deviation_found: bool


@dataclass(frozen=True)
class InfoForceReport:
    """Driving forces of a set of tickers and their bull/bear asymmetry.

    tau_deviation_found is None when tau was given rather than estimated.
    Skipped windows have no force; unlabelled ones have a force but are
    neither bull nor bear.
    """

    tau: int
    tau_deviation_found: bool | None
    delta_F: float
    forces: list[InfoForceSeries]
    windows_unlabelled: int

    @property
    def a(self) -> float:
        return self.delta_F / 2.0

    @property
    def windows_skipped(self) -> int:
        return sum(f.skipped for f in self.forces)

    def report(self) -> tuple[dict, list[str]]:
        """The values of report.json and the lines of report.txt."""
        values = {
            "tau": self.tau,
            "delta_F": self.delta_F,
            "a": self.a,
            "tau_deviation_found": self.tau_deviation_found,
            "tickers": [f.ticker for f in self.forces],
            "windows_skipped": self.windows_skipped,
            "windows_unlabelled": self.windows_unlabelled,
        }
        lines = [
            "information driving forces",
            f"  tau (weeks)   {self.tau}",
            f"  delta_F       {self.delta_F:.4f}",
            f"  a = dF/2      {self.a:.4f}",
        ]
        lines += [
            f"  {f.ticker:<10} windows {len(f.forces):>4}  "
            f"mean F {np.mean(f.forces) if len(f.forces) else float('nan'):.4f}"
            for f in self.forces
        ]
        return values, lines


def trading_asymmetry(returns, m: int = 150, k: float = 1.0) -> AsymmetryEstimate:
    """Estimate alpha from volumes following bull and bear weighted returns.

    With the trading probability proportional to volume, the bull/bear
    volume ratio rho = V+/V- equals alpha/beta, and alpha + beta = 2 gives
    alpha = 2 rho / (1 + rho).
    """
    r = np.asarray(returns.returns, dtype=float)
    volume = np.asarray(returns.volume, dtype=float)
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
    ratio = float(bull.mean() / bear.mean())
    alpha = 2.0 * ratio / (1.0 + ratio)
    return AsymmetryEstimate(alpha=alpha, beta=2.0 - alpha, volume_ratio=ratio)


def herding_shift(r: np.ndarray, volumes) -> float:
    """Volume-weighted herding-degree shift between bear and bull days.

    r holds the normalized returns.  d_bull is the volume-weighted mean of
    r over positive days, d_bear the same over |r| on negative days; the
    shift is (d_bear - d_bull) / 2.
    """
    v = np.asarray(volumes, dtype=float)
    if len(v) != len(r):
        raise ValidationError("returns and volumes have different lengths")
    bull = r > 0.0
    bear = r < 0.0
    if not bull.any() or not bear.any():
        raise InsufficientDataError("series is one-sided")
    w_bull = v[bull].sum()
    w_bear = v[bear].sum()
    if w_bull == 0.0 or w_bear == 0.0:
        raise InsufficientDataError("zero total volume on one side")
    d_bull = float((v[bull] * r[bull]).sum() / w_bull)
    d_bear = float((v[bear] * np.abs(r[bear])).sum() / w_bear)
    return (d_bear - d_bull) / 2.0


def shift_relation() -> tuple[float, float]:
    """Least-squares line delta_R = slope * delta_r + intercept through
    REFERENCE_SHIFT_PAIRS.

    A pure through-origin slope cannot reproduce the integer delta_R of
    all six reference indices (no single slope lands every row in the
    right rounding bin), so the frozen relation keeps the intercept.
    """
    x, y = np.array(REFERENCE_SHIFT_PAIRS, dtype=float).T
    x_mean = x.mean()
    y_mean = y.mean()
    sxx = float(((x - x_mean) ** 2).sum())
    slope = float(((x - x_mean) * (y - y_mean)).sum() / sxx)
    return slope, float(y_mean - slope * x_mean)


def herding_offset_from_shift(delta_r: float) -> int:
    """Map a return-scale shift to the integer herding offset delta_R."""
    slope, intercept = shift_relation()
    return round_half_away(slope * delta_r + intercept)


def asymmetry_report(index_series, m: int = 150, k: float = 1.0) -> AsymmetryEstimate:
    """Full asymmetry calibration of one index: alpha, delta_r and delta_R."""
    returns = log_returns(index_series)
    est = trading_asymmetry(returns, m=m, k=k)
    shift = herding_shift(normalize(returns).values, returns.volume)
    return AsymmetryEstimate(
        alpha=est.alpha,
        beta=est.beta,
        volume_ratio=est.volume_ratio,
        delta_r=shift,
        delta_R=herding_offset_from_shift(shift),
    )


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
    Columns are normalized before grouping.
    """
    sectors = panel.sectors
    sector_ids = sorted(set(sectors))
    # stocks grouped by sector, in ticker order within each sector
    order = sorted(range(len(sectors)), key=sectors.__getitem__)
    normalized = np.vstack([normalize(panel.matrix[:, i]).values for i in order])
    sizes = [sectors.count(sid) for sid in sector_ids]
    for sid, size in zip(sector_ids, sizes):
        if size < 2:
            raise ValidationError(f"sector {sid!r} has fewer than 2 stocks")
    h = _trend_degrees(normalized, np.array(sizes))
    return ComovementEstimate(
        H_M=float(h[0]),
        H_j={sid: float(x) for sid, x in zip(sector_ids, h[1:])},
    )


def info_states(volume) -> np.ndarray:
    """Binary attention states: 1 where the volume exceeds its mean."""
    volume = np.asarray(volume, dtype=float)
    if len(volume) < 2:
        raise InsufficientDataError("need at least 2 weeks")
    return (volume > volume.mean()).astype(np.int8)


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
    # a window without high or low weeks divides by zero; it is skipped
    with np.errstate(divide="ignore", invalid="ignore"):
        v1 = np.where(high, window_v, 0.0).sum(axis=1) / n_high
        v0 = np.where(low, window_v, 0.0).sum(axis=1) / n_low
    kept = (n_high > 0) & (n_low > 0) & (v0 != 0.0)
    return InfoForceSeries(
        ticker=ticker,
        window_starts=np.flatnonzero(kept).astype(np.int64),
        forces=v1[kept] / v0[kept] - 1.0,
        tau=tau,
        skipped=int(len(kept) - kept.sum()),
    )


def _window_labels(force_series, market: np.ndarray) -> list[np.ndarray]:
    """Per series, the label of each window: 1 bull, -1 bear, 0 unlabelled.

    A window is bull (bear) when the cumulative market return over it is
    positive (negative).  Flat windows, windows running past the end of
    the market series and windows with NaN entries, whose sum is NaN and
    so neither positive nor negative, stay unlabelled.
    """
    totals = {}
    labels = []
    for series in force_series:
        tau = series.tau
        if len(market) < tau:
            raise ValidationError("market return series shorter than tau")
        if tau not in totals:
            totals[tau] = sliding_window_view(market, tau).sum(axis=1)
        starts = np.asarray(series.window_starts, dtype=np.int64)
        inside = starts + tau <= len(market)
        label = np.zeros(len(starts), dtype=np.int8)
        total = totals[tau][starts[inside]]
        label[inside] = (total > 0.0).astype(np.int8) - (total < 0.0)
        labels.append(label)
    return labels


def info_force_asymmetry(force_series, market_returns) -> float:
    """Relative bear-bull gap of the driving forces of a list of series:

        delta_F = (mean F over bear windows - mean F over bull) / mean F.

    A window is bull (bear) when the cumulative market return over it is
    positive (negative); flat windows, and windows with missing market
    data (NaN entries), stay unlabeled.
    """
    market = np.asarray(market_returns, dtype=float)
    labels = np.concatenate(
        [np.empty(0, np.int8)] + _window_labels(force_series, market)
    )
    forces = np.concatenate([np.empty(0)] + [s.forces for s in force_series])
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


def correlating_time(curve: CorrelationCurve) -> CorrelatingTime:
    """Lag where a correlation curve leaves its early power-law decay.

    A power law is fitted on lags 1..10; tau is the first lag opening a
    run of _PERSISTENCE consecutive lags whose relative deviation from the
    fit exceeds _DEVIATION_FACTOR.  Without such a run DEFAULT_TAU_WEEKS
    is returned with the flag unset.
    """
    if len(curve.lags) < 30:
        raise InsufficientDataError(
            f"curve has {len(curve.lags)} lags; need at least 30"
        )
    head = curve.lags <= 10
    if np.any(curve.values[head] <= 0.0):
        raise FitDomainError("non-positive early-lag values")
    fit = fit_power_law(curve.lags[head], curve.values[head])
    predicted = fit.params["amplitude"] * np.asarray(curve.lags, float) ** (
        fit.params["exponent"]
    )
    deviates = np.abs(curve.values - predicted) / np.abs(predicted) > _DEVIATION_FACTOR
    run = 0
    for i, flag in enumerate(deviates):
        run = run + 1 if flag else 0
        if run >= _PERSISTENCE:
            return CorrelatingTime(
                tau=int(curve.lags[i - _PERSISTENCE + 1]), deviation_found=True
            )
    return CorrelatingTime(tau=DEFAULT_TAU_WEEKS, deviation_found=False)


def infoforce_report(searches, volumes, index, tau: int = 0) -> InfoForceReport:
    """Full information-force calibration: tau, delta_F and a = delta_F / 2.

    searches and volumes are the SearchSeries of a search.csv and of a
    weekly trading-volume file, index the weekly IndexSeries that labels
    windows bull or bear.  All three are put on one weekly clock: the
    search weeks that also carry volumes.  With tau = 0 the window length
    is the correlating time of the mean attention autocorrelation, or
    DEFAULT_TAU_WEEKS (deviation not found) when that curve is not
    positive on the lags the power law is fitted to.
    """
    vol_of = {s.ticker: s for s in volumes}
    market = log_returns(index)
    vol_pos = {w: i for i, w in enumerate(volumes[0].weeks)}
    search_idx = [i for i, w in enumerate(searches[0].weeks) if w in vol_pos]
    weeks = [searches[0].weeks[i] for i in search_idx]
    if len(weeks) < 2 * DEFAULT_TAU_WEEKS:
        raise InputError(f"search and volume files share only {len(weeks)} weeks")
    vol_idx = [vol_pos[w] for w in weeks]
    market_of_week = dict(zip(market.dates, market.returns))
    market_vec = np.array([market_of_week.get(w, np.nan) for w in weeks])

    deviation_found = None
    if not tau:
        max_lag = min(len(weeks) // 4 - 1, 60)
        curves = [
            stats.autocorrelation_abs(s.volume[search_idx], max_lag).values
            for s in searches
        ]
        mean_curve = CorrelationCurve(
            lags=np.arange(1, max_lag + 1),
            values=np.mean(curves, axis=0),
        )
        try:
            found = correlating_time(mean_curve)
            tau, deviation_found = found.tau, found.deviation_found
        except FitDomainError:
            # the early lags dip to zero: no power law to deviate from
            tau, deviation_found = DEFAULT_TAU_WEEKS, False
    forces = []
    for s in searches:
        if s.ticker not in vol_of:
            raise InputError(f"no trading volumes for ticker {s.ticker!r}")
        states = info_states(s.volume[search_idx])
        forces.append(
            info_driving_force(
                states, vol_of[s.ticker].volume[vol_idx], tau, ticker=s.ticker
            )
        )
    delta_f = info_force_asymmetry(forces, market_vec)
    unlabelled = sum(
        int(np.count_nonzero(label == 0))
        for label in _window_labels(forces, market_vec)
    )
    return InfoForceReport(
        tau=tau,
        tau_deviation_found=deviation_found,
        delta_F=delta_f,
        forces=forces,
        windows_unlabelled=unlabelled,
    )
