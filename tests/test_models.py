"""Behavioral tests of the four model drivers at small scale."""

from dataclasses import replace

import numpy as np
import pytest

from herdsim.errors import ConfigError
from herdsim.simcore import (
    ModelConfig,
    run_model,
    run_model_a,
    run_model_b,
    run_model_c,
    run_model_d,
)

SMALL = dict(N=2000, M=50, t_max=600, warmup=50)


@pytest.mark.parametrize("model", ["a", "b", "c", "d"])
def test_same_seed_is_bit_identical(model):
    kwargs = dict(SMALL, seed=123)
    if model == "c":
        kwargs.update(n=10, n_sec=2, H_M=0.3, H_j=(0.45, 0.5), P_group=0.3)
    out1 = run_model(model, ModelConfig(**kwargs))
    out2 = run_model(model, ModelConfig(**kwargs))
    assert np.array_equal(out1.returns, out2.returns)
    for key in out1.diagnostics:
        assert np.array_equal(out1.diagnostics[key], out2.diagnostics[key])


@pytest.mark.parametrize("model", ["a", "b", "d"])
def test_returns_bounded_by_agents(model):
    out = run_model(model, ModelConfig(**SMALL, seed=5))
    assert np.all(np.abs(out.returns) <= 2000)
    assert len(out.returns) == 600 - 50


def test_unknown_model_rejected():
    with pytest.raises(ConfigError):
        run_model("z", ModelConfig(**SMALL))


class TestModelA:
    def test_trade_probability_bounds_and_mean(self):
        cfg = ModelConfig(N=5000, M=50, t_max=10050, warmup=50,
                          alpha=1.3, delta_R=2, seed=2)
        out = run_model_a(cfg)
        p_trade = out.diagnostics["P_trade"]
        assert np.all(p_trade > 0)
        assert np.all(p_trade <= 2 * cfg.p * max(cfg.alpha, cfg.beta) + 1e-15)
        # alpha + beta = 2 pins the long-run mean trading rate at 2p.
        assert np.mean(p_trade) == pytest.approx(2 * cfg.p, rel=0.02)

    def test_herding_degree_in_unit_range(self):
        out = run_model_a(ModelConfig(**SMALL, delta_R=3, seed=8))
        d = out.diagnostics["D"]
        assert np.all(d >= 1.0 / 2000)
        assert np.all(d <= 1.0)

    def test_warmup_not_included(self):
        cfg = ModelConfig(N=500, M=50, t_max=220, warmup=70, seed=3)
        assert len(run_model_a(cfg).returns) == 150


class TestModelB:
    def test_c_zero_reduces_to_model_a(self):
        cfg = ModelConfig(**SMALL, seed=11, c=0.0, alpha=1.1, delta_R=1)
        assert np.array_equal(
            run_model_b(cfg).returns, run_model_a(cfg).returns
        )

    def test_buy_sell_split_bounded(self):
        cfg = ModelConfig(**SMALL, seed=12, c=1.0)
        out = run_model_b(cfg)
        xi = out.diagnostics["xi"]
        assert np.all(xi >= 0)
        # with alpha = 1 the total is exactly 2p, so both sides stay in
        # [0, 2p]; xi itself hovers around its neutral value 1.
        assert np.all(out.diagnostics["P_trade"] == pytest.approx(2 * cfg.p))
        assert 0.5 < xi.mean() < 2.0


class TestModelC:
    NY = dict(n=10, n_sec=2, H_M=0.363, H_j=(0.491, 0.546), P_group=0.363)

    def test_single_stock_degenerate_case(self):
        cfg = ModelConfig(N=1000, M=50, t_max=300, warmup=50, seed=4,
                          n=1, n_sec=1, H_M=0.3, H_j=(0.31,), P_group=0.35)
        out = run_model_c(cfg)
        assert out.returns.shape == (250, 1)
        assert np.all(np.abs(out.returns) <= 1000)

    def test_unheld_stocks_stay_flat(self):
        # far more stocks than agents: some stocks get no holders and must
        # contribute zero returns instead of crashing
        cfg = ModelConfig(N=20, M=50, t_max=200, warmup=50, seed=0,
                          n=30, n_sec=3, H_M=0.3, H_j=(0.4, 0.45, 0.5),
                          P_group=0.3)
        out = run_model_c(cfg)
        assert np.all(np.abs(out.returns).sum(axis=1) <= 20)

    def test_sector_budget_conserved(self):
        # One share per agent per day: total traded shares never exceed N.
        cfg = ModelConfig(N=2000, M=50, t_max=300, warmup=50, seed=4, **self.NY)
        out = run_model_c(cfg)
        assert np.all(np.abs(out.returns).sum(axis=1) <= 2000)

    def test_invalid_sector_comovement_names_sector(self):
        cfg = ModelConfig(N=1000, M=50, t_max=300, warmup=50,
                          n=10, n_sec=2, H_M=0.5, H_j=(0.6, 0.4), P_group=0.3)
        with pytest.raises(ConfigError, match="sector 2"):
            run_model_c(cfg)

    def test_tickers_and_sectors_emitted(self):
        cfg = ModelConfig(N=2000, M=50, t_max=200, warmup=50, seed=4, **self.NY)
        out = run_model_c(cfg)
        assert len(out.tickers) == 10
        assert set(out.sector_of.values()) == {"1", "2"}
        assert [out.sector_of[t] for t in out.tickers] == ["1"] * 5 + ["2"] * 5

    def test_ten_sector_ids_sort_in_model_order(self):
        # calibrate comovement lists H_j by sector ids sorted as strings,
        # and simulate --calibration reads H_j by position
        cfg = ModelConfig(N=2000, M=50, t_max=100, warmup=50, seed=4,
                          n=20, n_sec=10, H_M=0.3, P_group=0.3,
                          H_j=tuple(0.4 + 0.01 * j for j in range(10)))
        out = run_model_c(cfg)
        in_model_order = list(dict.fromkeys(out.sector_of[t] for t in out.tickers))
        assert sorted(set(out.sector_of.values())) == in_model_order

    def test_hkse_parameters_spectrum(self):
        # second published co-movement table: same qualitative structure,
        # market mode far outside the noise bulk plus sector-local modes
        from herdsim.spectral import (
            cross_correlation,
            eigen_decompose,
            marchenko_pastur_bounds,
            mode_report,
        )

        cfg = ModelConfig(
            N=10_000, M=150, n=50, n_sec=5, H_M=0.306,
            H_j=(0.426, 0.406, 0.364, 0.361, 0.340), P_group=0.317,
            t_max=2650, warmup=150, seed=0,
        )
        out = run_model_c(cfg)
        panel = out.panel()
        lam, vec = eigen_decompose(cross_correlation(panel))
        report = mode_report(vec, panel.sectors)
        lam_plus = marchenko_pastur_bounds(50, 2500)[1]
        assert lam[0] > lam_plus
        assert lam[1] > lam_plus
        assert report["participation_ratio"][0] > 0.5
        for mode in (1, 2):
            masses = np.sort(report["sector_mass"][mode])[::-1]
            assert masses[0] >= 1.5 * masses[1]


class TestModelD:
    def test_force_disabled_reduces_to_independent(self):
        # f = 1 and a never matter once the market state sticks to 0:
        # nobody carries a force, so returns are plain independent trading.
        cfg = ModelConfig(N=5000, M=50, t_max=4050, warmup=50, seed=5,
                          a=0.0, f=1.0, tau=10**9)
        out = run_model_d(cfg)
        assert out.diagnostics["S"][0] == 0.0  # seed chosen for initial state 0
        assert np.all(out.diagnostics["S"] == 0.0)
        p0 = 2 * cfg.p / (1 + 1 / (2 * cfg.b1))
        assert np.var(out.returns) == pytest.approx(cfg.N * p0, rel=0.1)

    def test_flat_rprime_leaves_the_force_unscaled(self):
        # at p = 1e-9 every return is 0, so R' is 0 on every day and the force
        # is y itself; a bull or a bear branch would scale it by 1 -/+ a
        cfg = ModelConfig(N=10, M=50, warmup=50, t_max=2050, seed=3, p=1e-9,
                          tau=10)
        flat = run_model_d(cfg)
        tilted = run_model_d(replace(cfg, a=0.4))
        assert not flat.returns.any() and not tilted.returns.any()
        assert np.array_equal(tilted.diagnostics["F"], flat.diagnostics["F"])

    def test_state_persistence_scales_with_tau(self):
        cfg = ModelConfig(N=1000, M=50, t_max=8050, warmup=50, seed=2, tau=26)
        out = run_model_d(cfg)
        s = out.diagnostics["S"]
        flips = np.mean(s[1:] != s[:-1])
        assert flips == pytest.approx(1 / 26, rel=0.3)

    def test_mean_trading_probability_normalized(self):
        # Time average of the per-agent trading probability is 2p within 3%.
        cfg = ModelConfig(N=10_000, M=150, t_max=20150, warmup=150, seed=3,
                          a=0.2, f=0.8, b1=3.5, tau=26)
        out = run_model_d(cfg)
        p0 = 2 * cfg.p / (1 + 1 / (2 * cfg.b1))
        s = out.diagnostics["S"]
        frac_pos = np.where(s == 1.0, cfg.f, 1 - cfg.f)
        mean_p = p0 * np.mean(1 + frac_pos * out.diagnostics["F"])
        assert mean_p == pytest.approx(2 * cfg.p, rel=0.03)

    def test_k_does_not_change_a_run(self):
        # model D reads only the sign of R', and k > 0 keeps it
        cfg = ModelConfig(N=2000, M=50, t_max=1050, warmup=50, seed=9,
                          a=0.3, f=0.8)
        runs = [run_model_d(replace(cfg, k=k)) for k in (0.05, None, 5.0)]
        for out in runs[1:]:
            assert np.array_equal(out.returns, runs[0].returns)
            for key, trace in runs[0].diagnostics.items():
                assert np.array_equal(out.diagnostics[key], trace)

    def test_cluster_size_bounded_by_positive_agents(self):
        cfg = ModelConfig(N=2000, M=50, t_max=1050, warmup=50, seed=5,
                          a=0.2, f=0.8)
        out = run_model_d(cfg)
        s = out.diagnostics["S"]
        n_pos = np.where(s == 1.0, round(0.8 * 2000), 2000 - round(0.8 * 2000))
        assert np.all(out.diagnostics["cluster_size"] <= n_pos)
        assert np.all(out.diagnostics["cluster_size"] >= 1.0)
