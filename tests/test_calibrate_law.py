"""The array forms of the co-movement and information-force estimators
against the per-day and per-window loops they replaced.

The `reference_*` functions are the original implementations: `comovement`
walked the panel one day and one stock group at a time, `info_driving_force`
sliced every window of the attention series, and `info_force_asymmetry`
sliced the market series again for every kept window.  The array forms only
sum in a different order, so window starts, skip counts and bull/bear labels
must agree exactly and every float to 1e-12.
"""

import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from herdsim import calibrate
from herdsim.calibrate import (
    InfoForceSeries,
    comovement,
    info_driving_force,
    info_force_asymmetry,
)
from herdsim.errors import HerdsimError, InsufficientDataError, ValidationError
from herdsim.ingest import ReturnsPanel
from herdsim.stats import normalize

TOL = dict(rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------- references


def reference_trend_stats(r: np.ndarray) -> tuple[float, float]:
    """Per-day (dominance fraction, amplitude gap) of one stock group."""
    n_s = len(r)
    up = r > 0.0
    down = r < 0.0
    v_plus = float((r[up] ** 2).sum() / n_s)
    v_minus = float((r[down] ** 2).sum() / n_s)
    if v_plus == 0.0 and v_minus == 0.0:
        return 0.0, 0.0
    if v_plus >= v_minus:
        return up.sum() / n_s, v_plus - v_minus
    return down.sum() / n_s, v_minus - v_plus


def reference_group_degree(normalized: np.ndarray, cols) -> float:
    zetas = np.empty(normalized.shape[0])
    gaps = np.empty(normalized.shape[0])
    sub = normalized[:, cols]
    for day in range(sub.shape[0]):
        zetas[day], gaps[day] = reference_trend_stats(sub[day])
    return float(zetas.mean() * gaps.mean())


def reference_comovement(panel: ReturnsPanel) -> calibrate.ComovementEstimate:
    normalized = np.column_stack(
        [normalize(panel.matrix[:, i]).values for i in range(len(panel.tickers))]
    )
    sector_ids = sorted(set(panel.sectors))
    sector_cols = {
        sid: [i for i, s in enumerate(panel.sectors) if s == sid]
        for sid in sector_ids
    }
    for sid, cols in sector_cols.items():
        if len(cols) < 2:
            raise ValidationError(f"sector {sid!r} has fewer than 2 stocks")
    h_m = reference_group_degree(normalized, list(range(normalized.shape[1])))
    h_j = {sid: reference_group_degree(normalized, cols)
           for sid, cols in sector_cols.items()}
    return calibrate.ComovementEstimate(H_M=h_m, H_j=h_j)


def reference_info_driving_force(states, volumes, tau: int, ticker: str = ""):
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
    starts = []
    forces = []
    skipped = 0
    for t in range(len(s) - tau + 1):
        window_s = s[t : t + tau]
        window_v = v[t : t + tau]
        high = window_v[window_s == 1]
        low = window_v[window_s == 0]
        if len(high) == 0 or len(low) == 0:
            skipped += 1
            continue
        v0 = low.mean()
        if v0 == 0.0:
            skipped += 1
            continue
        starts.append(t)
        forces.append(high.mean() / v0 - 1.0)
    return InfoForceSeries(
        ticker=ticker,
        window_starts=np.asarray(starts, dtype=np.int64),
        forces=np.asarray(forces, dtype=float),
        tau=tau,
        skipped=skipped,
    )


def reference_window_labels(force_series, market) -> list[np.ndarray]:
    """1 bull, -1 bear, 0 unlabeled for every window, one window at a time."""
    labels = []
    for series in force_series:
        if len(market) < series.tau:
            raise ValidationError("market return series shorter than tau")
        label = []
        for start in series.window_starts:
            window = market[start : start + series.tau]
            if start + series.tau > len(market) or np.any(np.isnan(window)):
                label.append(0)
                continue
            total = window.sum()
            label.append(1 if total > 0.0 else -1 if total < 0.0 else 0)
        labels.append(np.asarray(label, dtype=np.int8))
    return labels


def reference_info_force_asymmetry(force_series, market_returns) -> float:
    if isinstance(force_series, InfoForceSeries):
        force_series = [force_series]
    market = np.asarray(market_returns, dtype=float)
    bull_forces = []
    bear_forces = []
    all_forces = []
    for series in force_series:
        if len(market) < series.tau:
            raise ValidationError("market return series shorter than tau")
        for start, force in zip(series.window_starts, series.forces):
            all_forces.append(force)
            if start + series.tau > len(market):
                continue
            window = market[start : start + series.tau]
            if np.any(np.isnan(window)):
                continue
            total = window.sum()
            if total > 0.0:
                bull_forces.append(force)
            elif total < 0.0:
                bear_forces.append(force)
    if not bull_forces or not bear_forces:
        raise InsufficientDataError("no bull or no bear windows")
    overall = float(np.mean(all_forces))
    if overall == 0.0:
        raise calibrate.FitDomainError("zero overall mean force")
    return float((np.mean(bear_forces) - np.mean(bull_forces)) / overall)


def same_outcome(fn, ref, *args):
    """Both raise the same error type and message, or both return; the
    return values are handed back for comparison."""
    try:
        expected = ref(*args)
    except HerdsimError as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            fn(*args)
        return None
    return expected, fn(*args)


# ------------------------------------------------------------ comovement


def dates(n):
    return tuple(date(2000, 1, 3) + timedelta(days=i) for i in range(n))


@st.composite
def integer_panels(draw, days=st.integers(6, 80)):
    """Panels of integer returns whose columns sum to exactly zero, so that
    normalization keeps every zero exactly zero.

    Sectors are interleaved in column order; some entries are zero, some
    days are zero for every stock, and a 2-stock sector may hold a column
    and its negation, whose normalized returns tie v+ = v- on every day.
    """
    n_days = draw(days)
    sizes = draw(st.lists(st.integers(2, 5), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(sizes)
    half = rng.integers(-1000, 1001, size=(n_days // 2, n))
    half[rng.random(half.shape) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0
    half[rng.choice(len(half), draw(st.integers(0, 2)), replace=False)] = 0
    matrix = np.concatenate([half, -half, np.zeros((n_days % 2, n), int)])
    matrix = matrix[rng.permutation(n_days)]
    col = 0
    for size in sizes:
        if size == 2 and draw(st.booleans()):
            matrix[:, col + 1] = -matrix[:, col]
        col += size
    # interleave the sectors in column order
    order = rng.permutation(n)
    matrix = matrix[:, order]
    labels = np.repeat(np.arange(len(sizes)), sizes)[order]
    tickers = tuple(f"S{i:02d}" for i in range(n))
    sector_of = {t: str(lab + 1) for t, lab in zip(tickers, labels)}
    return ReturnsPanel(dates=dates(n_days), tickers=tickers,
                        sector_of=sector_of, matrix=matrix.astype(float))


def assert_same_degrees(panel):
    outcome = same_outcome(comovement, reference_comovement, panel)
    if outcome is None:
        return
    expected, got = outcome
    assert np.isclose(got.H_M, expected.H_M, **TOL)
    assert got.H_j.keys() == expected.H_j.keys()
    for sid in expected.H_j:
        assert np.isclose(got.H_j[sid], expected.H_j[sid], **TOL), sid


@settings(max_examples=150, deadline=None)
@given(integer_panels())
def test_comovement_matches_day_loop(panel):
    assert_same_degrees(panel)


@settings(max_examples=8, deadline=None)
@given(integer_panels(days=st.sampled_from([1023, 1024, 1025, 2049])))
def test_comovement_matches_day_loop_across_blocks(panel):
    assert_same_degrees(panel)


@settings(max_examples=60, deadline=None)
@given(integer_panels(days=st.integers(6, 40)), st.integers(1, 9))
def test_comovement_matches_day_loop_with_small_blocks(panel, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibrate, "_DAY_BLOCK", block)
        assert_same_degrees(panel)


@st.composite
def dyadic_days(draw):
    """Normalized returns from a few powers of two, with the column groups
    side by side: every square and every sum is exact in any order, so ties
    v+ = v- between unequal counts (1 = 4 x 0.25) are exact too."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    n_days = draw(st.integers(1, 30))
    values = st.sampled_from([0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])
    rows = draw(st.lists(st.lists(values, min_size=sum(sizes),
                                  max_size=sum(sizes)),
                         min_size=n_days, max_size=n_days))
    return np.array(rows, dtype=float), np.array(sizes)


def reference_trend_degrees(normalized, sizes):
    bounds = np.cumsum([0] + list(sizes))
    groups = [list(range(normalized.shape[1]))] + [
        list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:])
    ]
    return [reference_group_degree(normalized, cols) for cols in groups]


@settings(max_examples=200, deadline=None)
@given(dyadic_days(), st.integers(1, 8))
def test_trend_degrees_match_day_loop_on_exact_ties(case, block):
    normalized, sizes = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(calibrate, "_DAY_BLOCK", block)
        got = calibrate._trend_degrees(normalized.T, sizes)
    np.testing.assert_allclose(got, reference_trend_degrees(normalized, sizes),
                               **TOL)


def test_tie_goes_to_the_up_trend():
    # day 1: v+ = 1/5 = v- (one stock up by 1, four down by 0.5), so the
    # lone up stock dominates: zeta = 1/5, gap 0; day 2: zeta = 1/5, gap 4/5
    normalized = np.array([[1.0, -0.5, -0.5, -0.5, -0.5],
                           [-2.0, 0.0, 0.0, 0.0, 0.0]])
    h = calibrate._trend_degrees(normalized.T, np.array([5]))
    assert h == pytest.approx([0.2 * 0.4] * 2, rel=1e-15)


# ----------------------------------------------------- information forces


@st.composite
def attention_cases(draw):
    """States with long runs (so some windows hold one state only) and
    non-negative volumes, some of them zero on low-attention weeks."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stay = draw(st.sampled_from([1.5, 4.0, 15.0, 100.0]))
    states = (np.cumsum(rng.random(n) < 1.0 / stay) + rng.integers(2)) % 2
    volumes = rng.lognormal(0.0, 0.5, n)
    zero_low = (states == 0) & (rng.random(n) < draw(
        st.sampled_from([0.0, 0.5, 1.0])))
    volumes[zero_low] = 0.0
    tau = draw(st.one_of(st.just(2), st.just(n), st.integers(2, max(2, n))))
    return states.astype(np.int8), volumes, tau


@settings(max_examples=300, deadline=None)
@given(attention_cases())
def test_driving_force_matches_window_loop(case):
    states, volumes, tau = case
    outcome = same_outcome(info_driving_force, reference_info_driving_force,
                           states, volumes, tau)
    if outcome is None:
        return
    expected, got = outcome
    assert got.window_starts.dtype == np.int64
    assert got.window_starts.tolist() == expected.window_starts.tolist()
    assert got.skipped == expected.skipped
    assert got.tau == expected.tau
    np.testing.assert_allclose(got.forces, expected.forces, **TOL)
    assert len(got.forces) + got.skipped == len(states) - tau + 1


@st.composite
def labelled_cases(draw):
    """Force series of several window lengths against a market of exact
    binary fractions (so flat windows sum to exactly zero in any order),
    with NaN weeks and windows that run past the end of the market."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_market = draw(st.integers(2, 40))
    market = rng.integers(-3, 4, n_market) / 4.0
    nan_frac = draw(st.sampled_from([0.0, 0.05, 0.3]))
    market[rng.random(n_market) < nan_frac] = np.nan
    series = []
    for i in range(draw(st.integers(1, 3))):
        tau = draw(st.integers(2, n_market))
        length = draw(st.integers(tau, n_market + 10))
        kept = rng.random(length - tau + 1) < 0.7
        starts = np.flatnonzero(kept).astype(np.int64)
        forces = rng.normal(0.3, 0.5, len(starts))
        series.append(InfoForceSeries(
            ticker=f"W{i}", window_starts=starts, forces=forces, tau=tau))
    return series, market


@settings(max_examples=300, deadline=None)
@given(labelled_cases())
def test_window_labels_and_delta_f_match_window_loop(case):
    series, market = case
    got = calibrate._window_labels(series, market)
    expected = reference_window_labels(series, market)
    assert [g.tolist() for g in got] == [e.tolist() for e in expected]
    outcome = same_outcome(info_force_asymmetry, reference_info_force_asymmetry,
                           series, market)
    if outcome is not None:
        expected_f, got_f = outcome
        assert np.isclose(got_f, expected_f, **TOL)


def test_short_market_rejected_before_labelling():
    series = InfoForceSeries(ticker="W",
                             window_starts=np.array([0, 1], np.int64),
                             forces=np.array([0.1, 0.2]), tau=5)
    with pytest.raises(ValidationError, match="shorter than tau"):
        info_force_asymmetry([series], np.ones(4))
    with pytest.raises(InsufficientDataError, match="no bull or no bear"):
        info_force_asymmetry([], np.ones(4))


def test_nan_and_overhanging_windows_stay_unlabelled():
    series = InfoForceSeries(
        ticker="W",
        window_starts=np.arange(5, dtype=np.int64),
        forces=np.ones(5), tau=3)
    market = np.array([1.0, -1.0, 0.0, np.nan, 1.0, 2.0])
    # windows: [1,-1,0] flat, [-1,0,nan], [0,nan,1], [nan,1,2], [1,2] past end
    assert calibrate._window_labels([series], market)[0].tolist() == [0] * 5
