import re
from datetime import timedelta

import numpy as np
import pytest

from conftest import weekly_dates
from herdsim import calibrate, stats
from herdsim.calibrate import (
    _DEVIATION_FACTOR,
    _PERSISTENCE,
    DEFAULT_TAU_WEEKS,
    REFERENCE_SHIFT_PAIRS,
    asymmetry_report,
    comovement,
    correlating_time,
    herding_offset_from_shift,
    herding_shift,
    info_driving_force,
    info_force_asymmetry,
    info_states,
    infoforce_report,
    round_half_away,
    shift_relation,
    trading_asymmetry,
    window_labels,
)
from herdsim.errors import (
    ConfigError,
    DegenerateSeriesError,
    FitDomainError,
    InputError,
    InsufficientDataError,
    NumericError,
    ValidationError,
)
from herdsim.ingest import (
    IndexSeries,
    ReturnsPanel,
    SearchPanel,
    log_returns,
)
from herdsim.simcore import horizon_weights, rprime_weights
from herdsim.spectral import marchenko_pastur_bounds
from herdsim.stats import normalize


def weighted_signs_oracle(returns, m, k=1.0):
    """sign(R'(t)) per day t >= m-1, one window dot per day."""
    w = rprime_weights(m)
    return np.array(
        [np.sign(k * np.dot(w, returns[t - m + 1 : t + 1]))
         for t in range(m - 1, len(returns))]
    )


def series_with_controlled_volumes(ratio, m=60, n=400, seed=0):
    """Returns and volumes whose post-bull volumes are exactly `ratio` times
    the post-bear ones, built by assigning volumes after the fact."""
    rng = np.random.default_rng(seed)
    returns = rng.normal(0, 1.0, n)
    signs = weighted_signs_oracle(returns, m)
    volume = np.ones(n)
    for i, s in enumerate(signs[:-1]):
        day = m + i  # volume classified by the sign of the previous day's R'
        if s > 0:
            volume[day] = ratio
        elif s < 0:
            volume[day] = 1.0
    return (returns, volume), signs


class TestTradingAsymmetry:
    def test_symmetric_volumes_give_unit_alpha(self):
        series, _ = series_with_controlled_volumes(1.0)
        alpha, _ = trading_asymmetry(*series, m=60)
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert 2.0 - alpha == pytest.approx(1.0, abs=1e-12)

    def test_ratio_three_halves(self):
        series, _ = series_with_controlled_volumes(1.5)
        pair = trading_asymmetry(*series, m=60)
        assert type(pair) is tuple and [type(x) for x in pair] == [float, float]
        alpha, volume_ratio = pair
        assert volume_ratio == pytest.approx(1.5, abs=1e-12)
        assert alpha == pytest.approx(1.2, abs=1e-12)
        assert 2.0 - alpha == pytest.approx(0.8, abs=1e-12)

    def test_volume_scale_invariance(self):
        series, _ = series_with_controlled_volumes(1.5, seed=1)
        returns, volume = series
        a, _ = trading_asymmetry(returns, volume, m=60)
        b, _ = trading_asymmetry(returns, volume * 1e6, m=60)
        assert a == pytest.approx(b, abs=1e-12)

    def test_one_sided_sample_rejected(self):
        n = 200
        returns = np.full(n, 0.01)  # R' always positive
        with pytest.raises(InsufficientDataError):
            trading_asymmetry(returns, np.ones(n), m=60)

    @pytest.mark.parametrize("side", [1, -1], ids=["bull", "bear"])
    def test_zero_volume_after_one_side_rejected(self, side):
        # alpha would be 0 (bull) or NaN (bear), with a volume ratio of 0 or inf
        (returns, volume), signs = series_with_controlled_volumes(1.5)
        volume[60 + np.flatnonzero(signs[:-1] == side)] = 0.0
        with pytest.raises(InsufficientDataError,
                           match="zero mean volume after bull or bear days"):
            trading_asymmetry(returns, volume, m=60)

    def test_us_large_cap_regime(self):
        # volume ratio tuned to the published large-cap value alpha = 1.01
        ratio = 1.01 / 0.99
        series, _ = series_with_controlled_volumes(ratio, seed=2)
        alpha, _ = trading_asymmetry(*series, m=60)
        assert alpha == pytest.approx(1.01, abs=0.01)


class TestAsymmetryReport:
    @staticmethod
    def index(ratio, seed):
        """An index whose log returns and volumes are those of
        series_with_controlled_volumes, one row in front."""
        (returns, volume), _ = series_with_controlled_volumes(ratio, seed=seed)
        close = np.exp(np.concatenate(([0.0], np.cumsum(returns))))
        return IndexSeries(dates=tuple(range(len(close))), close=close,
                           volume=np.concatenate(([1.0], volume)))

    def test_alpha_beta_sum_exactly_two(self):
        est = asymmetry_report(self.index(1.37, seed=3), m=60)
        assert est.alpha + est.beta == 2.0

    def test_the_pair_and_the_herding_side(self):
        index = self.index(1.5, seed=0)
        est = asymmetry_report(index, m=60)
        returns, volume = log_returns(index), index.volume[1:]
        assert (est.alpha, est.volume_ratio) == trading_asymmetry(returns, volume,
                                                                   m=60)
        assert est.delta_r == herding_shift(normalize(returns), volume)
        assert est.delta_R == herding_offset_from_shift(est.delta_r)

    def test_report_holds_all_five_values(self):
        values, lines = asymmetry_report(self.index(1.5, seed=0), m=60).report()
        assert list(values) == ["alpha", "beta", "delta_r", "delta_R",
                                "volume_ratio"]
        assert None not in values.values()
        assert [line.split()[0] for line in lines[1:]] == [
            "volume", "alpha", "beta", "delta_r", "delta_R"]


class TestAsymmetryInputs:
    """trading_asymmetry and herding_shift read their inputs through one
    check, which runs before any estimate."""

    ESTIMATORS = {"trading_asymmetry": trading_asymmetry,
                  "herding_shift": herding_shift}

    @pytest.mark.parametrize("returns, volumes, message", [
        ([0.1, -0.2], [1.0, 1.0, 1.0], "returns and volumes have different lengths"),
        ([0.1, -0.2, 0.3], [1.0, 1.0], "returns and volumes have different lengths"),
        ([0.1, np.nan, -0.2], [1.0, 1.0, 1.0], "returns must be finite"),
        ([0.1, np.inf, -0.2], [1.0, 1.0, 1.0], "returns must be finite"),
        ([0.1, -0.2, 0.3], [1.0, np.nan, 1.0], "volumes must be finite and non-negative"),
        ([0.1, -0.2, 0.3], [1.0, np.inf, 1.0], "volumes must be finite and non-negative"),
        ([0.1, -0.2, 0.3], [1.0, -5.0, 1.0], "volumes must be finite and non-negative"),
    ], ids=["short-returns", "short-volumes", "nan-return", "inf-return",
            "nan-volume", "inf-volume", "negative-volume"])
    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    def test_rejected(self, estimator, returns, volumes, message):
        with pytest.raises(ValidationError, match=message):
            self.ESTIMATORS[estimator](np.array(returns), np.array(volumes))

    def test_overflowing_volumes_raise(self):
        # every third volume at 1e308: the bull and bear volume sums overflow
        (returns, volume), _ = series_with_controlled_volumes(1.5)
        volume[::3] = 1e308
        with pytest.raises(NumericError, match=r"volume ratio V\+/V- overflows"):
            trading_asymmetry(returns, volume, m=60)
        with pytest.raises(NumericError, match="herding shift overflows"):
            herding_shift(returns, volume)


class TestHerdingShift:
    def test_sign_symmetric_series_is_zero(self):
        r = np.array([0.5, -0.5, 1.5, -1.5, 0.2, -0.2])
        assert herding_shift(r, np.ones(6)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_series_direct_summation(self):
        r = np.array([1.0, -2.0, 0.5, -0.5, 2.0, -1.0])
        v = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        d_bull = (1 * 1 + 3 * 0.5 + 2 * 2.0) / (1 + 3 + 2)
        d_bear = (2 * 2 + 1 * 0.5 + 3 * 1.0) / (2 + 1 + 3)
        assert herding_shift(r, v) == pytest.approx(
            (d_bear - d_bull) / 2, abs=1e-15
        )

    def test_sign_flips_with_negated_returns(self):
        rng = np.random.default_rng(5)
        r = rng.normal(size=500)
        v = rng.uniform(0.5, 2.0, 500)
        assert herding_shift(-r, v) == pytest.approx(
            -herding_shift(r, v), abs=1e-14
        )

    def test_one_sided_rejected(self):
        with pytest.raises(InsufficientDataError):
            herding_shift(np.array([0.1, 0.2, 0.3]), np.ones(3))

    def test_us_large_cap_regime_maps_to_offset_three(self):
        # bear magnitudes 2 * 0.067 above bull ones reproduce the published
        # large-cap shift, which the frozen relation sends to delta_R = 3
        r = np.tile([1.0, -1.134], 100)
        shift = herding_shift(r, np.ones(200))
        assert shift == pytest.approx(0.067, abs=1e-12)
        assert herding_offset_from_shift(shift) == 3


class TestShiftRelation:
    def test_frozen_line_matches_normal_equations_oracle(self):
        x = np.array([p[0] for p in REFERENCE_SHIFT_PAIRS])
        y = np.array([p[1] for p in REFERENCE_SHIFT_PAIRS])
        # the least-squares line from its normal equations
        x_mean, y_mean = x.mean(), y.mean()
        slope_o = ((x - x_mean) * (y - y_mean)).sum() / ((x - x_mean) ** 2).sum()
        intercept_o = y_mean - slope_o * x_mean
        slope, intercept = shift_relation()
        assert slope == pytest.approx(slope_o, abs=1e-10)
        assert intercept == pytest.approx(intercept_o, abs=1e-10)
        assert 40 < slope < 60

    def test_all_reference_rows_reproduced(self):
        for delta_r, delta_R in REFERENCE_SHIFT_PAIRS:
            assert herding_offset_from_shift(delta_r) == delta_R

    def test_zero_shift_maps_to_zero(self):
        assert herding_offset_from_shift(0.0) == 0

    def test_sp500_regime(self):
        assert herding_offset_from_shift(0.067) == 3

    def test_halves_round_away_from_zero(self):
        assert round_half_away(2.5) == 3
        assert round_half_away(-2.5) == -3


class TestComovement:
    @staticmethod
    def panel_from(matrix, sectors):
        tickers = tuple(f"T{i}" for i in range(matrix.shape[1]))
        return ReturnsPanel(
            dates=tuple(range(matrix.shape[0])),
            tickers=tickers,
            sector_of={t: sectors[i] for i, t in enumerate(tickers)},
            matrix=matrix,
        )

    def test_identical_stocks_reach_mean_amplitude(self):
        rng = np.random.default_rng(7)
        col = rng.normal(size=500)
        matrix = np.tile(col[:, None], (1, 6))
        panel = self.panel_from(matrix, ["1"] * 3 + ["2"] * 3)
        est = comovement(panel)
        r = normalize(col)
        expected = np.mean(r**2)  # zeta = 1, v_n = 0 every day
        assert est.H_M == pytest.approx(expected, rel=1e-12)
        assert est.H_j["1"] == pytest.approx(expected, rel=1e-12)

    def test_ids_differing_by_a_trailing_nul_are_two_sectors(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(300, 5))
        est = comovement(self.panel_from(matrix, ["s\x00", "s", "s\x00", "s", "s"]))
        assert list(est.H_j) == ["s", "s\x00"]
        alone = comovement(self.panel_from(matrix[:, [1, 3, 4, 0, 2]],
                                           ["s", "s", "s", "t", "t"]))
        assert est.H_j["s"] == alone.H_j["s"]
        assert est.H_j["s\x00"] == alone.H_j["t"]

    def test_independent_noise_matches_monte_carlo_baseline(self):
        n, t = 20, 400
        est = comovement(
            self.panel_from(
                np.random.default_rng(8).normal(size=(t, n)), ["1"] * 10 + ["2"] * 10
            )
        )
        replicas = [
            comovement(
                self.panel_from(
                    np.random.default_rng(100 + i).normal(size=(t, n)),
                    ["1"] * 10 + ["2"] * 10,
                )
            ).H_M
            for i in range(20)
        ]
        spread = np.std(replicas)
        assert abs(est.H_M - np.mean(replicas)) < 4 * spread + 1e-9

    def test_relabeling_within_sector_invariant(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(200, 6))
        sectors = ["1", "1", "1", "2", "2", "2"]
        est1 = comovement(self.panel_from(matrix, sectors))
        est2 = comovement(self.panel_from(matrix[:, [2, 0, 1, 5, 4, 3]], sectors))
        assert est1.H_M == pytest.approx(est2.H_M, abs=1e-14)
        assert est1.H_j["1"] == pytest.approx(est2.H_j["1"], abs=1e-14)

    def test_constant_column_names_its_ticker(self):
        # sector order would reach T3 first; the ticker order reaches T1
        matrix = np.random.default_rng(10).normal(size=(50, 4))
        matrix[:, [1, 3]] = 0.25
        with pytest.raises(DegenerateSeriesError,
                           match="constant return column for ticker 'T1'"):
            comovement(self.panel_from(matrix, ["1", "2", "2", "1"]))

    def test_all_zero_day_counted_not_skipped(self):
        # Columns sum to zero so normalization keeps the all-zero day at
        # exactly zero; it must contribute zeta = 0 and zero amplitudes
        # while still entering the means.
        matrix = np.array(
            [
                [1.0, 2.0, 1.0, -1.0],
                [-1.0, -2.0, -1.0, 1.0],
                [0.0, 0.0, 0.0, 0.0],
                [2.0, 1.0, -2.0, 2.0],
                [-2.0, -1.0, 2.0, -2.0],
            ]
        )
        sectors = ["1", "1", "2", "2"]
        est = comovement(self.panel_from(matrix, sectors))
        r = np.column_stack(
            [normalize(matrix[:, j]) for j in range(4)]
        )
        zetas, gaps = [], []
        for day in range(5):
            row = r[day]
            vp = (row[row > 0] ** 2).sum() / 4
            vm = (row[row < 0] ** 2).sum() / 4
            if vp == 0.0 and vm == 0.0:
                zetas.append(0.0)
                gaps.append(0.0)
            elif vp >= vm:
                zetas.append((row > 0).sum() / 4)
                gaps.append(vp - vm)
            else:
                zetas.append((row < 0).sum() / 4)
                gaps.append(vm - vp)
        assert zetas[2] == 0.0 and gaps[2] == 0.0
        assert est.H_M == pytest.approx(np.mean(zetas) * np.mean(gaps), abs=1e-14)


class TestInfoStates:
    def test_constant_volume_all_low(self):
        assert info_states(np.full(60, 7.0)).tolist() == [0] * 60

    def test_alternating_levels(self):
        states = info_states(np.tile([10.0, 0.0], 30))
        assert states.tolist() == [1, 0] * 30

    def test_hand_labeled_crossings(self):
        g = np.array([1.0, 2.0, 3.0, 10.0, 2.0, 0.0])  # mean = 3
        assert info_states(g).tolist() == [0, 0, 0, 1, 0, 0]

    def test_scale_invariant(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(0, 10, 200)
        assert np.array_equal(info_states(g), info_states(1e4 * g))


class TestInfoDrivingForce:
    def test_equal_volumes_give_zero_force(self):
        states = np.tile([1, 0], 20)
        out = info_driving_force(states, np.full(40, 5.0), tau=8)
        assert np.max(np.abs(out.forces)) == 0.0
        assert len(out.forces) == 33

    def test_doubled_volumes_give_unit_force(self):
        states = np.tile([1, 0], 20)
        volumes = np.where(states == 1, 8.0, 4.0)
        out = info_driving_force(states, volumes, tau=8)
        assert out.forces == pytest.approx(np.ones(33), abs=1e-15)

    def test_thirty_week_fixture_matches_hand_oracle(self):
        rng = np.random.default_rng(12)
        states = (rng.uniform(size=30) > 0.5).astype(int)
        volumes = rng.uniform(1.0, 3.0, 30)
        tau = 10
        out = info_driving_force(states, volumes, tau=tau)
        expected = []
        for t in range(21):
            s = states[t : t + tau]
            v = volumes[t : t + tau]
            high = v[s == 1]
            low = v[s == 0]
            if len(high) == 0 or len(low) == 0:
                continue
            expected.append(high.mean() / low.mean() - 1.0)
        assert out.forces == pytest.approx(np.array(expected), abs=1e-14)

    def test_single_state_windows_skipped(self):
        states = np.array([1] * 10 + [0] * 10)
        out = info_driving_force(states, np.ones(20), tau=5)
        # 16 windows total; only t = 6..9 straddle the state change
        assert out.skipped == 12
        assert out.window_starts.tolist() == [6, 7, 8, 9]
        assert len(out.forces) + out.skipped == 16

    def test_zero_low_state_average_skipped(self):
        states = np.tile([1, 0], 10)
        volumes = np.where(states == 1, 4.0, 0.0)
        out = info_driving_force(states, volumes, tau=4)
        assert len(out.forces) == 0
        assert out.skipped == 17

    def test_volume_scale_invariance(self):
        rng = np.random.default_rng(13)
        states = (rng.uniform(size=50) > 0.4).astype(int)
        volumes = rng.uniform(1, 5, 50)
        f1 = info_driving_force(states, volumes, tau=10).forces
        f2 = info_driving_force(states, volumes * 77.0, tau=10).forces
        assert f1 == pytest.approx(f2, abs=1e-12)


class TestInfoForceAsymmetry:
    @staticmethod
    def labels(starts, market, tau=4):
        return window_labels(market, tau)[starts]

    def test_identical_regimes_give_zero(self):
        market = np.tile([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], 10)
        labels = self.labels([0, 4, 8, 12], market)
        assert info_force_asymmetry(np.full(4, 0.5), labels) == pytest.approx(
            0.0, abs=1e-15)

    def test_bear_heavier_by_twenty_percent(self):
        market = np.tile([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], 10)
        bull_windows = [0, 8]    # positive market sums
        bear_windows = [4, 12]   # negative market sums
        labels = self.labels(bull_windows + bear_windows, market)
        expected = (1.2 - 1.0) / 1.1
        assert info_force_asymmetry([1.0, 1.0, 1.2, 1.2], labels) == pytest.approx(
            expected, abs=1e-14
        )

    def test_missing_regime_rejected(self):
        market = np.ones(100)
        with pytest.raises(InsufficientDataError):
            info_force_asymmetry([1.0, 2.0], self.labels([0, 4], market))


class TestInfoForceReport:
    @staticmethod
    def inputs(n_search=80, volume_weeks=slice(10, 80), n=100):
        """Two tickers whose attention cycles every 20 weeks, volumes 40%
        higher in high-attention weeks, and a weekly index, over n weeks."""
        rng = np.random.default_rng(5)
        weeks = weekly_dates(n)
        t = np.arange(n)
        attention, trading = [], []
        for phase in (0.0, 2.0):
            g = 5 + 2 * np.sin(2 * np.pi * t / 20 + phase)
            v = 100 * (1 + 0.4 * (g > g.mean())) * rng.uniform(0.9, 1.1, n)
            attention.append(g)
            trading.append(v)
        tickers = ("AAA", "BBB")
        searches = SearchPanel(tuple(weeks[:n_search]), tickers,
                               np.column_stack(attention)[:n_search])
        volumes = SearchPanel(tuple(weeks[volume_weeks]), tickers,
                              np.column_stack(trading)[volume_weeks])
        close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
        index = IndexSeries(dates=tuple(weeks), close=close, volume=np.ones(n))
        return searches, volumes, index

    def test_estimators_on_the_common_weeks(self):
        searches, volumes, index = self.inputs()
        values, lines = infoforce_report(searches, volumes, index, tau=8)
        # common clock: weeks 10..79; the index return of week w is
        # ln(close[w] / close[w - 1])
        labels = window_labels(np.diff(np.log(index.close))[9:79], 8)
        series = [info_driving_force(info_states(searches.volume[10:, j]),
                                     volumes.volume[:, j], 8)
                  for j in range(len(searches.tickers))]
        assert values["tau"] == 8 and values["tau_deviation_found"] is None
        assert values["delta_F"] == info_force_asymmetry(
            np.concatenate([s.forces for s in series]),
            np.concatenate([labels[s.window_starts] for s in series]))
        assert values["a"] == values["delta_F"] / 2
        assert values["tickers"] == ["AAA", "BBB"]
        assert values["windows_skipped"] == sum(s.skipped for s in series)
        assert values["windows_unlabelled"] == 0
        # one report.txt line per ticker: its kept windows and mean force
        assert len(lines) == 4 + len(series)
        for line, ticker, s in zip(lines[4:], searches.tickers, series):
            assert line.split() == [ticker, "windows", str(len(s.forces)),
                                    "mean", "F", f"{np.mean(s.forces):.4f}"]

    def test_unfittable_attention_curve_falls_back_to_default_tau(self):
        # attention cycling every 20 weeks has a negative autocorrelation
        # from lag 6 on, so correlating_time has no power law to fit
        searches, volumes, index = self.inputs(200, slice(0, 200), n=200)
        values, _ = infoforce_report(searches, volumes, index)
        assert values["tau"] == DEFAULT_TAU_WEEKS
        assert values["tau_deviation_found"] is False
        fixed, _ = infoforce_report(searches, volumes, index, tau=DEFAULT_TAU_WEEKS)
        assert values["delta_F"] == fixed["delta_F"]

    def test_missing_volume_ticker_rejected(self):
        searches, volumes, index = self.inputs()
        with pytest.raises(InputError, match="no trading volumes for ticker 'BBB'"):
            infoforce_report(searches, SearchPanel(volumes.weeks, ("AAA",),
                                                   volumes.volume[:, :1]),
                             index, tau=8)

    @pytest.mark.parametrize("weeks", [70, 123, 124])
    def test_tau_estimate_needs_124_common_weeks(self, weeks):
        # correlating_time needs 30 lags, and the curve has weeks // 4 - 1
        searches, volumes, index = self.inputs(weeks, slice(0, weeks), n=weeks)
        assert infoforce_report(searches, volumes, index, tau=8)[0]["tau"] == 8
        if weeks < 124:
            with pytest.raises(InputError, match=f"share only {weeks} weeks; "
                                                 "need 124 to estimate tau"):
                infoforce_report(searches, volumes, index)
        else:
            values, _ = infoforce_report(searches, volumes, index)
            assert values["tau"] == DEFAULT_TAU_WEEKS

    def test_day_numbers_share_no_week_with_dates(self):
        searches, volumes, index = self.inputs()
        numbered = SearchPanel(tuple(range(70)), volumes.tickers, volumes.volume)
        with pytest.raises(InputError, match="share only 0 weeks"):
            infoforce_report(searches, numbered, index, tau=8)
        numbered = IndexSeries(tuple(range(100)), index.close, index.volume)
        with pytest.raises(InsufficientDataError, match="the index has no return "
                           "on any week the search and volume files share"):
            infoforce_report(searches, volumes, numbered, tau=8)

    def test_empty_panel_shares_no_week(self):
        searches, volumes, index = self.inputs()
        empty = SearchPanel((), searches.tickers, np.empty((0, 2)))
        for pair in ((empty, volumes), (searches, empty)):
            with pytest.raises(InputError, match="share only 0 weeks"):
                infoforce_report(*pair, index, tau=8)

    def test_short_overlap_rejected(self):
        searches, volumes, index = self.inputs(volume_weeks=slice(40, 100))
        with pytest.raises(InputError, match="share only 40 weeks"):
            infoforce_report(searches, volumes, index, tau=8)

    def test_index_off_the_clock_rejected_before_tau_is_estimated(
            self, monkeypatch):
        # index dates two days after the week starts: no week has a return
        searches, volumes, index = self.inputs(200, slice(0, 200), n=200)
        shifted = IndexSeries(tuple(d + timedelta(days=2) for d in index.dates),
                              index.close, index.volume)

        def never(curve):
            raise AssertionError("tau estimated before the clock was checked")

        monkeypatch.setattr(calibrate, "correlating_time", never)
        with pytest.raises(InsufficientDataError, match="the index has no return "
                           "on any week the search and volume files share"):
            infoforce_report(searches, volumes, shifted)


class TestCorrelatingTime:
    def test_pure_power_law_returns_fallback(self):
        lags = np.arange(1, 61)
        tau, found = correlating_time(0.8 * lags**-0.4)
        assert tau == 26
        assert found is False

    def test_truncated_power_law_found_near_cutoff(self):
        lags = np.arange(1, 61.0)
        values = 0.8 * lags**-0.4
        values[25:] *= np.exp(-(lags[25:] - 25) / 3.0)  # decay from lag 26
        tau, found = correlating_time(values)
        assert found is True
        assert abs(tau - 26) <= 3

    def test_nonpositive_head_falls_back(self):
        values = np.ones(40)
        values[4] = -0.1
        assert correlating_time(values) == (DEFAULT_TAU_WEEKS, False)

    def test_short_curve_rejected(self):
        with pytest.raises(InsufficientDataError):
            correlating_time(np.ones(10))

    @staticmethod
    def run_counter_oracle(curve):
        """tau by counting runs of deviating lags, one lag at a time."""
        lags = np.arange(1, len(curve) + 1)
        head = lags <= 10
        amplitude, exponent = stats.fit_power_law(curve[head])
        predicted = amplitude * lags.astype(float) ** exponent
        run = 0
        for i in range(len(lags)):
            deviates = abs(curve[i] - predicted[i]) / abs(predicted[i])
            run = run + 1 if deviates > _DEVIATION_FACTOR else 0
            if run >= _PERSISTENCE:
                return int(lags[i - _PERSISTENCE + 1]), True
        return DEFAULT_TAU_WEEKS, False

    @pytest.mark.parametrize("pushed, tau", [
        pytest.param([], None, id="no-run"),
        pytest.param([20, 21, 22], 20, id="run-of-persistence"),
        pytest.param([38, 39, 40], 38, id="run-at-the-last-lag"),
        pytest.param([14, 15, 17, 18, 20, 21, 23, 24], None, id="short-runs-broken"),
        pytest.param([14, 15, 17, 18, 31, 32, 33, 34], 31, id="short-then-full-run"),
    ])
    def test_matches_run_counter_oracle(self, pushed, tau):
        # an exact power law on lags 1-10; each pushed lag deviates from it
        # by twice the threshold
        lags = np.arange(1, 41)
        values = 0.8 * lags**-0.4
        values[np.array(pushed, dtype=int) - 1] *= 1.0 + 2.0 * _DEVIATION_FACTOR
        assert correlating_time(values) == self.run_counter_oracle(values)
        expected = (tau, True) if tau else (DEFAULT_TAU_WEEKS, False)
        assert correlating_time(values) == expected


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: herding_shift(np.array([1.0, -1.0]), [1.0]),
                 ValidationError, "returns and volumes have different lengths",
                 id="herding_shift-lengths"),
    pytest.param(lambda: herding_shift(np.array([1.0, -1.0]), [0.0, 1.0]),
                 InsufficientDataError, "zero total volume on one side",
                 id="herding_shift-zero-volume"),
    pytest.param(lambda: info_states([1.0]),
                 InsufficientDataError, "need at least 2 weeks",
                 id="info_states-one-week"),
    pytest.param(lambda: info_driving_force([0, 1], [1.0], 2),
                 ValidationError, "states and volumes have different lengths",
                 id="info_driving_force-lengths"),
    pytest.param(lambda: info_driving_force([0, 1], [1.0, 2.0], 1),
                 ValidationError, "tau must be >= 2, got 1",
                 id="info_driving_force-tau-1"),
    pytest.param(lambda: info_driving_force([0, 1], [1.0, 2.0], 3),
                 InsufficientDataError, "series of length 2 shorter than tau=3",
                 id="info_driving_force-short"),
    # window 0 sums to 2 (bull), window 1 to -2 (bear); the forces cancel
    pytest.param(lambda: info_force_asymmetry(
                     [1.0, -1.0], window_labels([1.0, 1.0, -3.0], 2)),
                 FitDomainError, "zero overall mean force",
                 id="info_force_asymmetry-zero-mean"),
    pytest.param(lambda: stats.normalize(np.ones((2, 2))),
                 ValidationError, "expected a 1-d series, got shape (2, 2)",
                 id="stats-2d"),
    pytest.param(lambda: stats.normalize([1.0, np.nan]),
                 ValidationError, "series contains non-finite values",
                 id="stats-non-finite"),
    pytest.param(lambda: stats.autocorrelation_abs(np.arange(10.0), 0),
                 ValidationError, "max_lag must be >= 1, got 0",
                 id="stats-max-lag-0"),
    pytest.param(lambda: stats.return_volatility_correlation(np.zeros(8), 1),
                 DegenerateSeriesError, "zero second moment; Z = 0",
                 id="lcurve-zeros"),
    pytest.param(lambda: stats.return_volatility_correlation(
                     np.random.default_rng(0).normal(size=400) * 1e100, 3),
                 NumericError, "returns overflow float64: Z is not finite",
                 id="lcurve-z-overflows"),
    pytest.param(lambda: stats.return_volatility_correlation(
                     np.random.default_rng(0).normal(size=400) * 1e160, 3),
                 NumericError, "returns overflow float64: Z is not finite",
                 id="lcurve-squares-overflow"),
    pytest.param(lambda: stats.tail_exponent(np.ones(2000), 0.05),
                 DegenerateSeriesError, "degenerate tail; all order stats equal",
                 id="hill-tied-tail"),
    # finite numbers whose mean, sigma or window sums overflow float64
    pytest.param(lambda: stats.normalize([1e300, -1e300, 1e300]),
                 NumericError, "returns overflow float64: mean or sigma is not finite",
                 id="stats-sigma-overflows"),
    pytest.param(lambda: stats.normalize([1e308, 1e308, 0.0]),
                 NumericError, "returns overflow float64: mean or sigma is not finite",
                 id="stats-mean-overflows"),
    pytest.param(lambda: stats.normalize_columns(ReturnsPanel(
                     dates=(1, 2, 3), tickers=("A", "B"),
                     sector_of={"A": "1", "B": "1"},
                     matrix=np.array([[1.0, 1e300], [2.0, -1e300], [4.0, 0.0]]))),
                 NumericError, "return column for ticker 'B' overflows float64: "
                 "sigma is not finite",
                 id="stats-column-sigma-overflows"),
    pytest.param(lambda: stats.autocorrelation_abs([1e200, 1e300, 0.0, 1.0, 2.0], 1),
                 NumericError, "magnitudes overflow float64: A0 is not finite",
                 id="acurve-a0-overflows"),
    pytest.param(lambda: info_states([1e308, 1e308, 0.0]),
                 NumericError, "attention volumes overflow float64: mean is not finite",
                 id="info_states-mean-overflows"),
    pytest.param(lambda: info_driving_force([0, 1, 1, 0], [1.0, 1e308, 1e308, 1.0],
                                            4, "AAA"),
                 NumericError, "trading volumes of 'AAA' overflow float64 "
                 "in a window average",
                 id="info_driving_force-sum-overflows"),
    pytest.param(lambda: marchenko_pastur_bounds(0, 100),
                 ValidationError, "n must be >= 1, got 0",
                 id="marchenko_pastur-n-0"),
    pytest.param(lambda: horizon_weights(0),
                 ConfigError, "horizon count must be >= 1, got 0",
                 id="horizon_weights-0"),
])
def test_estimator_guards(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
