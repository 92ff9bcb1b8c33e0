import numpy as np
import pytest

from conftest import business_dates, weekly_dates
from herdsim.calibrate import (
    REFERENCE_SHIFT_PAIRS,
    CorrelatingTime,
    InfoForceSeries,
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
)
from herdsim.errors import FitDomainError, InputError, InsufficientDataError
from herdsim.ingest import (
    DEFAULT_TAU_WEEKS,
    IndexSeries,
    ReturnSeries,
    ReturnsPanel,
    SearchSeries,
)
from herdsim.simcore import rprime_weights
from herdsim.stats import CorrelationCurve, normalize


def weighted_signs_oracle(returns, m, k=1.0):
    """sign(R'(t)) per day t >= m-1, one window dot per day."""
    w = rprime_weights(m)
    return np.array(
        [np.sign(k * np.dot(w, returns[t - m + 1 : t + 1]))
         for t in range(m - 1, len(returns))]
    )


def series_with_controlled_volumes(ratio, m=60, n=400, seed=0):
    """Returns series whose post-bull volumes are exactly `ratio` times
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
    return ReturnSeries(
        dates=tuple(business_dates(n)), returns=returns, volume=volume
    ), signs


class TestTradingAsymmetry:
    def test_symmetric_volumes_give_unit_alpha(self):
        series, _ = series_with_controlled_volumes(1.0)
        est = trading_asymmetry(series, m=60)
        assert est.alpha == pytest.approx(1.0, abs=1e-12)
        assert est.beta == pytest.approx(1.0, abs=1e-12)

    def test_ratio_three_halves(self):
        series, _ = series_with_controlled_volumes(1.5)
        est = trading_asymmetry(series, m=60)
        assert est.volume_ratio == pytest.approx(1.5, abs=1e-12)
        assert est.alpha == pytest.approx(1.2, abs=1e-12)
        assert est.beta == pytest.approx(0.8, abs=1e-12)

    def test_alpha_beta_sum_exactly_two(self):
        series, _ = series_with_controlled_volumes(1.37, seed=3)
        est = trading_asymmetry(series, m=60)
        assert est.alpha + est.beta == 2.0

    def test_volume_scale_invariance(self):
        series, _ = series_with_controlled_volumes(1.5, seed=1)
        scaled = ReturnSeries(
            dates=series.dates, returns=series.returns, volume=series.volume * 1e6
        )
        a = trading_asymmetry(series, m=60).alpha
        b = trading_asymmetry(scaled, m=60).alpha
        assert a == pytest.approx(b, abs=1e-12)

    def test_one_sided_sample_rejected(self):
        n = 200
        returns = np.full(n, 0.01)  # R' always positive
        series = ReturnSeries(
            dates=tuple(business_dates(n)), returns=returns, volume=np.ones(n)
        )
        with pytest.raises(InsufficientDataError):
            trading_asymmetry(series, m=60)

    def test_us_large_cap_regime(self):
        # volume ratio tuned to the published large-cap value alpha = 1.01
        ratio = 1.01 / 0.99
        series, _ = series_with_controlled_volumes(ratio, seed=2)
        est = trading_asymmetry(series, m=60)
        assert est.alpha == pytest.approx(1.01, abs=0.01)


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
    def test_frozen_line_matches_polyfit_oracle(self):
        x = np.array([p[0] for p in REFERENCE_SHIFT_PAIRS])
        y = np.array([p[1] for p in REFERENCE_SHIFT_PAIRS])
        slope_o, intercept_o = np.polyfit(x, y, 1)
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
        r = normalize(col).values
        expected = np.mean(r**2)  # zeta = 1, v_n = 0 every day
        assert est.H_M == pytest.approx(expected, rel=1e-12)
        assert est.H_j["1"] == pytest.approx(expected, rel=1e-12)

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
            [normalize(matrix[:, j]).values for j in range(4)]
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
    def force_series(starts, forces, tau=4):
        return InfoForceSeries(
            ticker="X",
            window_starts=np.asarray(starts),
            forces=np.asarray(forces, dtype=float),
            tau=tau,
        )

    def test_identical_regimes_give_zero(self):
        market = np.tile([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], 10)
        series = self.force_series([0, 4, 8, 12], [0.5, 0.5, 0.5, 0.5])
        assert info_force_asymmetry([series], market) == pytest.approx(0.0, abs=1e-15)

    def test_bear_heavier_by_twenty_percent(self):
        market = np.tile([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0], 10)
        bull_windows = [0, 8]    # positive market sums
        bear_windows = [4, 12]   # negative market sums
        series = self.force_series(
            bull_windows + bear_windows, [1.0, 1.0, 1.2, 1.2]
        )
        expected = (1.2 - 1.0) / 1.1
        assert info_force_asymmetry([series], market) == pytest.approx(
            expected, abs=1e-14
        )

    def test_missing_regime_rejected(self):
        market = np.ones(100)
        series = self.force_series([0, 4], [1.0, 2.0])
        with pytest.raises(InsufficientDataError):
            info_force_asymmetry([series], market)


class TestInfoForceReport:
    @staticmethod
    def inputs(n_search=80, volume_weeks=slice(10, 80), n=100):
        """Two tickers whose attention cycles every 20 weeks, volumes 40%
        higher in high-attention weeks, and a weekly index, over n weeks."""
        rng = np.random.default_rng(5)
        weeks = weekly_dates(n)
        t = np.arange(n)
        searches, volumes = [], []
        for ticker, phase in (("AAA", 0.0), ("BBB", 2.0)):
            g = 5 + 2 * np.sin(2 * np.pi * t / 20 + phase)
            v = 100 * (1 + 0.4 * (g > g.mean())) * rng.uniform(0.9, 1.1, n)
            searches.append(SearchSeries(ticker, tuple(weeks[:n_search]),
                                         g[:n_search]))
            volumes.append(SearchSeries(ticker, tuple(weeks[volume_weeks]),
                                        v[volume_weeks]))
        close = 100 * np.exp(np.cumsum(rng.normal(0, 0.02, n)))
        index = IndexSeries(dates=tuple(weeks), close=close, volume=np.ones(n))
        return searches, volumes, index

    def test_estimators_on_the_common_weeks(self):
        searches, volumes, index = self.inputs()
        rep = infoforce_report(searches, volumes, index, tau=8)
        # common clock: weeks 10..79; the index return of week w is
        # ln(close[w] / close[w - 1])
        market = np.diff(np.log(index.close))[9:79]
        forces = [
            info_driving_force(info_states(s.volume[10:]), v.volume, 8, s.ticker)
            for s, v in zip(searches, volumes)
        ]
        assert rep.tau == 8 and rep.tau_deviation_found is None
        assert rep.delta_F == info_force_asymmetry(forces, market)
        assert rep.a == rep.delta_F / 2
        assert rep.windows_skipped == sum(f.skipped for f in forces)
        assert rep.windows_unlabelled == 0
        for got, want in zip(rep.forces, forces):
            assert got.window_starts.tolist() == want.window_starts.tolist()
            assert got.forces.tolist() == want.forces.tolist()

    def test_unfittable_attention_curve_falls_back_to_default_tau(self):
        # attention cycling every 20 weeks has a negative autocorrelation
        # from lag 6 on, so correlating_time has no power law to fit
        searches, volumes, index = self.inputs(200, slice(0, 200), n=200)
        rep = infoforce_report(searches, volumes, index)
        assert rep.tau == DEFAULT_TAU_WEEKS
        assert rep.tau_deviation_found is False
        fixed = infoforce_report(searches, volumes, index, tau=DEFAULT_TAU_WEEKS)
        assert rep.delta_F == fixed.delta_F

    def test_missing_volume_ticker_rejected(self):
        searches, volumes, index = self.inputs()
        with pytest.raises(InputError, match="no trading volumes for ticker 'BBB'"):
            infoforce_report(searches, volumes[:1], index, tau=8)

    def test_short_overlap_rejected(self):
        searches, volumes, index = self.inputs(volume_weeks=slice(40, 100))
        with pytest.raises(InputError, match="share only 40 weeks"):
            infoforce_report(searches, volumes, index, tau=8)


class TestCorrelatingTime:
    @staticmethod
    def curve(values):
        return CorrelationCurve(
            lags=np.arange(1, len(values) + 1),
            values=np.asarray(values, dtype=float),
        )

    def test_pure_power_law_returns_fallback(self):
        lags = np.arange(1, 61)
        out = correlating_time(self.curve(0.8 * lags**-0.4))
        assert isinstance(out, CorrelatingTime)
        assert out.tau == 26
        assert not out.deviation_found

    def test_truncated_power_law_found_near_cutoff(self):
        lags = np.arange(1, 61.0)
        values = 0.8 * lags**-0.4
        values[25:] *= np.exp(-(lags[25:] - 25) / 3.0)  # decay from lag 26
        out = correlating_time(self.curve(values))
        assert out.deviation_found
        assert abs(out.tau - 26) <= 3

    def test_nonpositive_head_rejected(self):
        values = np.ones(40)
        values[4] = -0.1
        with pytest.raises(FitDomainError):
            correlating_time(self.curve(values))

    def test_short_curve_rejected(self):
        with pytest.raises(InsufficientDataError):
            correlating_time(self.curve(np.ones(10)))
