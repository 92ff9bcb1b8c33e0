"""Acceptance suite: one test per shipped claim, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with the measured values.  The ensemble fixtures dominate the
runtime (a few minutes total); they are built once per session.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from herdsim.calibrate import (
    REFERENCE_SHIFT_PAIRS,
    herding_offset_from_shift,
    herding_shift,
    info_driving_force,
    trading_asymmetry,
)
from herdsim.cli import main as cli_main
from herdsim.ingest import ReturnsPanel
from herdsim.simcore import (
    ModelConfig,
    rprime_weights,
    run_model_a,
    run_model_c,
    run_model_d,
)
from herdsim.spectral import (
    cross_correlation,
    eigen_decompose,
    marchenko_pastur_bounds,
    mode_report,
)
from herdsim.stats import (
    autocorrelation_abs,
    fit_exponential,
    hurst_exponent,
    normalize,
    return_volatility_correlation,
    tail_exponent,
)
from test_spectral import correlation_oracle, make_panel
from test_stats import acf_abs_oracle, lcurve_oracle

N_SEEDS = 20
T_DAYS = 20_000
WARMUP = 150

NYSE_HJ = (0.491, 0.414, 0.438, 0.431, 0.546)
NYSE_HM = 0.363
NYSE_P = 0.363


def _report(cid: str, passed: bool, detail: str) -> None:
    print(f"\n[{cid}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"{cid}: {detail}"


def _model_a_ensemble(alpha, delta_r, base_seed):
    t0 = time.time()
    runs = []
    for i in range(N_SEEDS):
        cfg = ModelConfig(
            N=10_000, M=150, p=0.0154, alpha=alpha, delta_R=delta_r,
            t_max=T_DAYS + WARMUP, warmup=WARMUP, seed=base_seed + i,
        )
        runs.append(normalize(run_model_a(cfg).returns))
    return {
        "norm": runs,
        "L": np.array([return_volatility_correlation(r, 15) for r in runs]),
        "secs": time.time() - t0,
    }


@pytest.fixture(scope="session")
def sp_ensemble():
    """Criteria 1, 4, 5: calibrated leverage regime (alpha, delta_R) = (1, 3)."""
    return _model_a_ensemble(1.0, 3, base_seed=0)


@pytest.fixture(scope="session")
def anti_ensemble():
    """Criterion 2: anti-leverage regime (alpha, delta_R) = (1.1, -2)."""
    return _model_a_ensemble(1.1, -2, base_seed=200)


@pytest.fixture(scope="session")
def null_ensemble():
    """Criterion 3: symmetric regime (alpha, delta_R) = (1, 0)."""
    return _model_a_ensemble(1.0, 0, base_seed=400)


@pytest.fixture(scope="session")
def d_ensemble():
    """Criterion 7: information-force model at its calibrated parameters."""
    runs = []
    for i in range(N_SEEDS):
        cfg = ModelConfig(
            N=10_000, M=150, b1=3.5, a=0.2, tau=26, f=0.8,
            t_max=T_DAYS + WARMUP, warmup=WARMUP, seed=600 + i,
        )
        runs.append(normalize(run_model_d(cfg).returns))
    return runs


@pytest.fixture(scope="session")
def c_runs():
    """Criterion 6: multi-level herding at the NYSE co-movement table."""
    outputs = []
    for seed in range(7):
        cfg = ModelConfig(
            N=10_000, M=150, n=50, n_sec=5, H_M=NYSE_HM, H_j=NYSE_HJ,
            P_group=NYSE_P, t_max=2500 + WARMUP, warmup=WARMUP, seed=seed,
        )
        outputs.append(run_model_c(cfg))
    return outputs


def test_criterion_1_leverage_effect(sp_ensemble):
    mean_l = sp_ensemble["L"].mean(axis=0)
    fit = fit_exponential(mean_l[:10])
    c, tau = fit["params"]["c"], fit["params"]["tau"]
    ok = (
        bool(np.all(mean_l[:10] < 0.0))
        and c < 0.0
        and 5.0 <= tau <= 40.0
        and sp_ensemble["secs"] < 300.0
    )
    _report(
        "C1",
        ok,
        f"leverage: mean L(1..10) all < 0 (max {mean_l[:10].max():.4f}), "
        f"fit c={c:.4f}, tau={tau:.1f} d, ensemble in {sp_ensemble['secs']:.0f}s",
    )


def test_criterion_2_anti_leverage(anti_ensemble):
    mean_l = anti_ensemble["L"].mean(axis=0)
    fit = fit_exponential(mean_l[:10])
    ok = bool(np.all(mean_l[:6] > 0.0)) and fit["params"]["c"] > 0.0
    _report(
        "C2",
        ok,
        f"anti-leverage: mean L(1..6) all > 0 (min {mean_l[:6].min():.4f}), "
        f"fit c={fit['params']['c']:.4f}",
    )


def test_criterion_3_symmetric_null(null_ensemble):
    curves = null_ensemble["L"]
    mean_l = curves.mean(axis=0)
    se = curves.std(axis=0, ddof=1) / np.sqrt(len(curves))
    z = np.abs(mean_l / se)
    _report(
        "C3",
        bool(np.all(z < 3.0)),
        f"symmetric null: max |mean L| / SE over lags 1..15 = {z.max():.2f} < 3",
    )


def test_criterion_4_fat_tails(sp_ensemble):
    pooled = np.concatenate(sp_ensemble["norm"])
    exponent = tail_exponent(pooled, 0.05)
    _report(
        "C4",
        2.4 <= exponent <= 3.6,
        f"fat tails: pooled Hill exponent at 5% tail = {exponent:.2f} in [2.4, 3.6]",
    )


def test_criterion_5_volatility_clustering_and_hurst(sp_ensemble):
    acurves = np.array(
        [autocorrelation_abs(r, 50) for r in sp_ensemble["norm"]]
    )
    mean_a = acurves.mean(axis=0)
    hursts = [hurst_exponent(np.abs(r)) for r in sp_ensemble["norm"]]
    mean_h = float(np.mean(hursts))
    ok = bool(np.all(mean_a > 0.0)) and 0.65 <= mean_h <= 0.90
    _report(
        "C5",
        ok,
        f"clustering: mean A(1..50) all > 0 (min {mean_a.min():.4f}); "
        f"DFA Hurst of |r| = {mean_h:.3f} in [0.65, 0.90]",
    )


def test_criterion_6_multilevel_spectra(c_runs):
    lam_plus = marchenko_pastur_bounds(50, 2500)[1]
    market_ok = []
    margin_ok = []
    identities = []
    for output in c_runs:
        panel = output.panel()
        lam, vec = eigen_decompose(cross_correlation(panel))
        report = mode_report(vec, panel.sectors)
        market_ok.append(
            lam[0] > lam_plus
            and report["participation_ratio"][0] > 0.5
        )
        margins = []
        for mode in (1, 2):
            masses = np.sort(report["sector_mass"][mode])[::-1]
            margins.append(masses[0] >= 1.5 * masses[1])
        margin_ok.append(all(margins))
        identities.append(
            (report["dominant_sector"][1], report["dominant_sector"][2])
        )
    majority = sum(margin_ok)
    typical = max(set(identities), key=identities.count)
    ok = all(market_ok) and majority >= 5
    _report(
        "C6",
        ok,
        f"spectra: lambda0 > {lam_plus:.2f} and PR > 0.5 in {sum(market_ok)}/7 "
        f"seeds; >=50% sector-mass margins on (lam1, lam2) in {majority}/7; "
        f"recorded dominant sectors {identities} (modal {typical}; "
        f"source experiments report ('5', '1'))",
    )


def test_model_c_sector_modes_per_seed(c_runs):
    # pins the sectors that dominate lambda1 and lambda2 at C6's seeds 0-6,
    # which C6 only prints; the source experiments report ('5', '1')
    identities = []
    for output in c_runs:
        panel = output.panel()
        _, vec = eigen_decompose(cross_correlation(panel))
        dominant = mode_report(vec, panel.sectors)["dominant_sector"]
        identities.append((dominant[1], dominant[2]))
    assert identities == [("2", "4"), ("2", "4"), ("2", "3"), ("2", "4"),
                          ("2", "4"), ("2", "4"), ("2", "4")]


def test_criterion_7_infodriven_stylized_facts(d_ensemble):
    pooled = np.concatenate(d_ensemble)
    kurt = float(np.mean(pooled**4) / np.mean(pooled**2) ** 2 - 3.0)
    mean_a = np.mean(
        [autocorrelation_abs(r, 20) for r in d_ensemble], axis=0
    )
    mean_l = np.mean(
        [return_volatility_correlation(r, 5) for r in d_ensemble], axis=0
    )
    ok = kurt > 1.0 and bool(np.all(mean_a > 0.0)) and bool(np.all(mean_l < 0.0))
    _report(
        "C7",
        ok,
        f"info-driven: excess kurtosis {kurt:.2f} > 1; mean A(1..20) all > 0 "
        f"(min {mean_a.min():.4f}); mean L(1..5) all < 0 (max {mean_l.max():.4f})",
    )


def test_criterion_8_calibration_oracles():
    checks = []
    # alpha = 2 rho / (1 + rho) on a volume series built from known signs
    rng = np.random.default_rng(0)
    m, n, rho = 60, 400, 1.5
    returns = rng.normal(0, 1.0, n)
    w = rprime_weights(m)
    signs = np.array(
        [np.sign(np.dot(w, returns[t - m + 1 : t + 1])) for t in range(m - 1, n)]
    )
    volume = np.ones(n)
    for i, s in enumerate(signs[:-1]):
        volume[m + i] = rho if s > 0 else 1.0
    alpha, _ = trading_asymmetry(returns, volume, m=m)
    checks.append(abs(alpha - 2 * rho / (1 + rho)) < 1e-12)

    # delta_r = 0 on a sign-symmetric fixture
    r = np.array([0.7, -0.7, 1.9, -1.9, 0.3, -0.3])
    checks.append(abs(herding_shift(r, np.ones(6))) < 1e-12)

    # driving force 0 and 1 on equal / doubled volume fixtures
    states = np.tile([1, 0], 20)
    equal = info_driving_force(states, np.full(40, 3.0), tau=8)
    checks.append(np.max(np.abs(equal.forces)) == 0.0)
    doubled = info_driving_force(
        states, np.where(states == 1, 6.0, 3.0), tau=8
    )
    checks.append(np.max(np.abs(doubled.forces - 1.0)) < 1e-15)

    # the frozen shift relation reproduces every reference row
    rows_ok = all(
        herding_offset_from_shift(dr) == dR for dr, dR in REFERENCE_SHIFT_PAIRS
    )
    checks.append(rows_ok)
    _report(
        "C8",
        all(checks),
        "calibration oracles: alpha formula exact, symmetric delta_r = 0, "
        "force fixtures 0/1 exact, all six reference shift rows reproduced",
    )


def test_criterion_9_numerical_kernels():
    rng = np.random.default_rng(1)
    worst_rebuild = 0.0
    worst_trace = 0.0
    for _ in range(100):
        order = int(rng.integers(2, 101))
        # a correlation matrix of a panel of `order` days of `order` stocks
        corr = cross_correlation(make_panel(rng.normal(size=(order, order))))
        lam, vec = eigen_decompose(corr)
        rebuilt = vec @ np.diag(lam) @ vec.T
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(rebuilt - corr))))
        worst_trace = max(
            worst_trace, abs(float(lam.sum() - np.trace(corr)))
        )
    eig_ok = worst_rebuild < 1e-8 and worst_trace < 1e-8

    r = rng.standard_t(4, size=1000)
    a_err = np.max(
        np.abs(autocorrelation_abs(r, 40) - acf_abs_oracle(r, 40))
    )
    l_err = np.max(
        np.abs(return_volatility_correlation(r, 40) - lcurve_oracle(r, 40))
    )
    matrix = rng.normal(size=(1000, 5))
    tickers = tuple(f"T{i}" for i in range(5))
    panel = ReturnsPanel(
        dates=tuple(range(1000)),
        tickers=tickers,
        sector_of={t: "1" for t in tickers},
        matrix=matrix,
    )
    c_err = np.max(
        np.abs(cross_correlation(panel) - correlation_oracle(matrix))
    )
    oracle_ok = a_err < 1e-12 and l_err < 1e-12 and c_err < 1e-12

    pareto = rng.uniform(size=100_000) ** (-1.0 / 3.0)
    hill = tail_exponent(pareto, 0.05)
    dfa = hurst_exponent(rng.normal(size=2**14))
    est_ok = abs(hill - 3.0) <= 0.15 and abs(dfa - 0.5) <= 0.05

    _report(
        "C9",
        eig_ok and oracle_ok and est_ok,
        f"kernels: eigen rebuild {worst_rebuild:.1e}, trace {worst_trace:.1e}; "
        f"oracle gaps A {a_err:.1e} / L {l_err:.1e} / C {c_err:.1e}; "
        f"Hill {hill:.3f} (target 3.0+-0.15), DFA {dfa:.3f} (target 0.5+-0.05)",
    )


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(
        {"N": 2000, "M": 50, "t_max": 800, "warmup": 50, "delta_R": 3, "seed": 42}
    ))

    def digest(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert cli_main(["simulate", "a", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r1")]) == 0
    assert cli_main(["simulate", "a", "--config", str(cfg_path),
                     "--out", str(tmp_path / "r2")]) == 0
    rerun_ok = digest(tmp_path / "r1" / "returns.csv") == digest(
        tmp_path / "r2" / "returns.csv"
    )

    assert cli_main(["simulate", "a", "--config", str(cfg_path),
                     "--out", str(tmp_path / "e1"),
                     "--ensemble", "4", "--jobs", "1"]) == 0
    assert cli_main(["simulate", "a", "--config", str(cfg_path),
                     "--out", str(tmp_path / "e2"),
                     "--ensemble", "4", "--jobs", "4"]) == 0
    members1 = json.loads((tmp_path / "e1" / "ensemble.json").read_text())["members"]
    members2 = json.loads((tmp_path / "e2" / "ensemble.json").read_text())["members"]
    ensemble_ok = members1 == members2

    api_runs = [
        run_model_a(ModelConfig(N=2000, M=50, t_max=800, warmup=50,
                                delta_R=3, seed=42)).returns
        for _ in range(2)
    ]
    api_ok = np.array_equal(api_runs[0], api_runs[1])
    _report(
        "C10",
        rerun_ok and ensemble_ok and api_ok,
        "determinism: CLI reruns byte-identical, ensemble digests independent "
        "of worker count, API reruns bit-identical",
    )
