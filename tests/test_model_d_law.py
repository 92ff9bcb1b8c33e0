"""Model D's driver against the day-by-day reference loop.

`reference_run_model_d` is the original implementation of model D: it
draws the state flip, the force and the independent agents' return inside
the day loop, interleaved with the clustered agents' draws.
`single_stock.run_model_d` draws everything that does not depend on R'
ahead of the days that use it, a block of days at a time.  The two consume the random stream differently, so they
are compared in law over many seeds, and the traces are checked day by day
for the meaning they had in the reference.
"""

import numpy as np
import pytest

from herdsim.simcore import ModelConfig, run_model_d, single_stock
from herdsim.simcore.machinery import (
    SimOutput,
    independent_day_return,
    round_count,
    rprime_weights,
    sample_aggregate_return,
)


def reference_run_model_d(config: ModelConfig) -> SimOutput:
    """Model D, every draw made on its day (the original loop)."""
    config.validate_for("d")
    rng = np.random.default_rng(config.seed)
    n_agents = config.N
    m = config.M
    k = config.k_for("d")
    warmup = config.warmup_days
    t_max = config.t_max

    w_rev = rprime_weights(m)
    mean_force = 1.0 / (2.0 * config.b1)
    p0 = 2.0 * config.p / (1.0 + mean_force)
    flip_prob = 1.0 / config.tau
    n_dominating = round_count(config.f * n_agents)

    history = np.zeros(t_max, dtype=float)
    kept = t_max - warmup
    state_trace = np.empty(kept, dtype=np.int64)
    force_trace = np.empty(kept)
    size_trace = np.empty(kept)

    for t in range(warmup):
        history[t] = independent_day_return(n_agents, config.p, config.p, rng)

    state = int(rng.integers(0, 2))
    for t in range(warmup, t_max):
        rprime = k * float(np.dot(w_rev, history[t - m : t]))
        if rng.random() < flip_prob:
            state = 1 - state
        n_pos = n_dominating if state == 1 else n_agents - n_dominating
        y = rng.exponential(1.0 / config.b1)
        force = y * (1.0 - config.a * np.sign(rprime))
        p_active = min((1.0 + force) * p0, 1.0)

        r = 0
        if n_pos > 0:
            avg_size = min(max(config.tau * n_pos * force / n_agents, 1.0),
                           float(n_pos))
            n_clusters = max(1, round_count(n_pos / avg_size))
            r += sample_aggregate_return(
                n_pos, n_clusters, p_active / 2.0, p_active / 2.0, rng
            )
        else:
            avg_size = 0.0
        if n_pos < n_agents:
            r += independent_day_return(
                n_agents - n_pos, p0 / 2.0, p0 / 2.0, rng
            )
        history[t] = r

        i = t - warmup
        state_trace[i] = state
        force_trace[i] = force
        size_trace[i] = avg_size

    return SimOutput(
        returns=history[warmup:].astype(np.int64),
        diagnostics={
            "S": state_trace.astype(float),
            "F": force_trace,
            "cluster_size": size_trace,
        },
    )


SMALL_RUN = dict(N=1000, M=50, t_max=1050, warmup=50, tau=10, a=0.2)
RUN_SEEDS = 24
Z = 4.0  # tolerance in standard errors; every comparison is seeded

STATISTICS = (
    "return mean",
    "return std",
    "return std on S = 1 days",
    "return std on S = 0 days",
    "P(S=1)",
    "mean run length of S",
    "mean F",
    "mean F after a bull R'",
    "mean F after a bear R'",
    "mean cluster_size",
    "lag-1 autocorrelation of |R|",
)


def _weighted_returns(config, returns):
    """R' of each kept day from M onwards, from the kept returns alone."""
    m = config.M
    w_rev = rprime_weights(m)
    windows = np.lib.stride_tricks.sliding_window_view(returns[:-1], m)
    return config.k_for("d") * (windows @ w_rev)


def _run_statistics(driver, seed_base):
    stats = []
    for seed in range(seed_base, seed_base + RUN_SEEDS):
        config = ModelConfig(**SMALL_RUN, seed=seed)
        out = driver(config)
        r = out.returns.astype(float)
        s = out.diagnostics["S"]
        f = out.diagnostics["F"]
        runs = 1 + np.count_nonzero(np.diff(s))
        rprime = _weighted_returns(config, r)
        f_late = f[config.M :]
        v = np.abs(r)
        stats.append((
            r.mean(),
            r.std(),
            r[s == 1.0].std(),
            r[s == 0.0].std(),
            s.mean(),
            len(s) / runs,
            f.mean(),
            f_late[rprime > 0].mean(),
            f_late[rprime < 0].mean(),
            out.diagnostics["cluster_size"].mean(),
            np.corrcoef(v[:-1], v[1:])[0, 1],
        ))
    return np.array(stats)


@pytest.fixture(scope="module")
def reference_statistics():
    return _run_statistics(reference_run_model_d, seed_base=2000)


# the default block, and a short one that puts many block boundaries
# (where the state must carry over) into each run
@pytest.fixture(scope="module", params=[single_stock._DRAW_BLOCK, 7])
def run_statistics(request, reference_statistics):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(single_stock, "_DRAW_BLOCK", request.param)
        fast = _run_statistics(run_model_d, seed_base=1000)
    return fast, reference_statistics


@pytest.mark.parametrize("i", range(len(STATISTICS)), ids=STATISTICS)
def test_full_runs_match_reference(run_statistics, i):
    fast, ref = run_statistics[0][:, i], run_statistics[1][:, i]
    se = np.hypot(fast.std(), ref.std()) / np.sqrt(RUN_SEEDS)
    assert abs(fast.mean() - ref.mean()) <= Z * se + 1e-12, (
        f"{STATISTICS[i]}: {fast.mean()} vs {ref.mean()} (se {se})"
    )


def test_force_means_follow_the_sign_of_r_prime(run_statistics):
    # F = y * (1 - a * sgn(R')) with E[y] = 1/b1, in both drivers
    b1, a = ModelConfig().b1, SMALL_RUN["a"]
    for stats in run_statistics:
        assert stats[:, 7].mean() == pytest.approx((1.0 - a) / b1, rel=0.05)
        assert stats[:, 8].mean() == pytest.approx((1.0 + a) / b1, rel=0.05)


@pytest.mark.parametrize(
    "driver,block",
    [(run_model_d, single_stock._DRAW_BLOCK), (run_model_d, 7),
     (reference_run_model_d, None)],
)
@pytest.mark.parametrize("f", [0.8, 1.0])
def test_traces_keep_their_daily_meaning(monkeypatch, driver, block, f):
    if block is not None:
        monkeypatch.setattr(single_stock, "_DRAW_BLOCK", block)
    config = ModelConfig(**SMALL_RUN, f=f, seed=5)
    out = driver(config)
    s = out.diagnostics["S"]
    force = out.diagnostics["F"]
    size = out.diagnostics["cluster_size"]
    assert set(np.unique(s)) <= {0.0, 1.0}
    assert np.all(force > 0.0)
    n_dominating = round_count(f * config.N)
    n_pos = np.where(s == 1.0, n_dominating, config.N - n_dominating)
    expected = np.minimum(
        np.maximum(config.tau * n_pos * force / config.N, 1.0), n_pos
    )
    expected[n_pos == 0] = 0.0
    np.testing.assert_array_equal(size, expected)
    # at f = 1 every agent is clustered on S = 1 days and none on S = 0 days
    assert np.any(n_pos == 0) == (f == 1.0)
