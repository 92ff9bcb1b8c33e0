"""Single-stock market models.

All three drivers share the same day loop: seed the return history with
`warmup` days of independent trading, then let feedback rules set the
trading probabilities and the cluster structure day by day.

Model A: asymmetric trading and asymmetric herding in bull/bear markets.
Model B: model A plus a buy/sell split driven by perceived volatility.
Model D: trading probabilities driven by a two-state information force.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ModelConfig
from .machinery import (
    SimOutput,
    horizon_weights,
    independent_day_return,
    round_count,
    rprime_weights,
    sample_aggregate_return,
)


def _volatility_coefficients(gamma) -> np.ndarray:
    """Weights of a chronological volatility window (oldest day first) in
    sum_i gamma_i * (mean of the last i volatilities).

    The volatility j days back weighs sum over horizons i > j of
    gamma_i / i, so xi is linear in the window.
    """
    return np.cumsum((gamma / np.arange(1, len(gamma) + 1))[::-1])


def _run_herding_model(config: ModelConfig, model: str) -> SimOutput:
    """Common driver for models A and B."""
    config.validate_for(model)
    rng = np.random.default_rng(config.seed)
    n_agents = config.N
    n_float = float(n_agents)
    m = config.M
    k = config.k_for(model)
    warmup = config.warmup_days
    t_max = config.t_max
    delta_r = config.delta_R
    pref = config.c
    with_preference = model == "b"
    # 2p*alpha after a bull R', 2p*beta after a bear one, 2p when flat
    p_flat = 2.0 * config.p
    p_bull, p_bear = p_flat * config.alpha, p_flat * config.beta

    w = rprime_weights(m)
    xi_weights = _volatility_coefficients(horizon_weights(m))

    history = np.zeros(t_max, dtype=float)
    kept = t_max - warmup
    trade_prob = np.empty(kept)
    herding = np.empty(kept)
    cluster_count = np.empty(kept)
    xi_trace = np.empty(kept) if with_preference else None

    history[:warmup] = independent_day_return(n_agents, config.p, rng, warmup)
    # Day warmup + i dots the window history[warmup + i - m : warmup + i]
    # and writes day warmup + i through memoryviews, whose item writes cost
    # about half a numpy one.  The sampler is bound here, at the start of
    # the run, so a patch of this module's attribute is seen.
    rprime_dot, sample = w.dot, sample_aggregate_return
    windows = sliding_window_view(history, m)[warmup - m : t_max - m]
    out, trade_out, herding_out, count_out = map(
        memoryview, (history[warmup:], trade_prob, herding, cluster_count))
    if with_preference:
        # |R| day by day, its windows, and its integer sum over the last M days
        abs_history = np.abs(history)
        abs_windows = sliding_window_view(abs_history, m)[warmup - m : t_max - m]
        window_sum = int(abs_history[warmup - m : warmup].sum())
        xi_dot = xi_weights.dot
        abs_out, abs_leaving, xi_out = map(
            memoryview, (abs_history[warmup:], abs_history[warmup - m :], xi_trace))

    for i, window in enumerate(windows):
        rprime = k * float(rprime_dot(window))
        if rprime > 0.0:
            p_trade = p_bull
        elif rprime < 0.0:
            p_trade = p_bear
        else:
            p_trade = p_flat

        if with_preference:
            # each horizon's mean |R| against the full window's, weighted by
            # gamma: M * dot(coefficients, window) / window sum, 1 when flat
            if window_sum > 0:
                xi = m * float(xi_dot(abs_windows[i])) / window_sum
            else:
                xi = 1.0
            split = 0.5 * (pref * xi + (1.0 - pref))
            split = 0.0 if split < 0.0 else 1.0 if split > 1.0 else split
        else:
            split = 0.5
        p_buy = p_trade * split
        p_sell = p_trade - p_buy

        # clamped into [1, N]; the conditionals pick the float min(max())
        # would, at a fraction of its cost
        avg_size = abs(rprime - delta_r)
        avg_size = 1.0 if avg_size < 1.0 else (
            n_float if avg_size > n_float else avg_size)
        # round_count inlined; N / avg_size >= 1, so int() floors to >= 1
        n_clusters = int(n_agents / avg_size + 0.5)
        r = sample(n_agents, n_clusters, p_buy, p_sell, rng)
        out[i] = r

        trade_out[i] = p_trade
        herding_out[i] = avg_size / n_agents
        count_out[i] = n_clusters
        if with_preference:
            xi_out[i] = xi
            abs_out[i] = abs(r)
            window_sum += abs(r) - int(abs_leaving[i])

    diagnostics = {
        "P_trade": trade_prob,
        "D": herding,
        "clusters": cluster_count,
    }
    if with_preference:
        diagnostics["xi"] = xi_trace
    return SimOutput(
        returns=history[warmup:].astype(np.int64),
        diagnostics=diagnostics,
    )


def run_model_a(config: ModelConfig) -> SimOutput:
    """Asymmetric trading and herding in bull and bear markets.

    After the weighted return R', the next day trades with probability
    2p*alpha (bull), 2p (flat) or 2p*beta (bear), and clusters have average
    size |R' - delta_R| clamped into [1, N].  Each cluster buys or sells as
    one block with equal probabilities P_trade/2.
    """
    return _run_herding_model(config, "a")


def run_model_b(config: ModelConfig) -> SimOutput:
    """Model A plus an asymmetric trading preference in volatile markets.

    Agents compare their horizon-average volatility with the longest-horizon
    background; the aggregated perception xi shifts the buy/sell split to
    p_buy = P_trade * (c*xi + (1-c))/2 while the total stays at P_trade.
    With the default (alpha, delta_R) = (1, 0) this is exactly
    p_buy = p*(c*xi + 1 - c) and p_sell = 2p - p_buy.
    """
    return _run_herding_model(config, "b")


def run_model_d(config: ModelConfig) -> SimOutput:
    """Market driven by a two-state information force.

    A market state S flips with probability 1/tau per day.  A dominating
    fraction f of agents (resampled daily) carries the state s_i = S, the
    rest s_i = 1 - S.  Agents with s_i = 1 feel a shared force
    y * (1 - a * sgn(R')) with y exponential of rate b1; the force is
    stronger after bearish weighted returns.  Their trading probability is
    scaled by (1 + force) and they trade in clusters of average size
    tau * sum(F_i) / N; zero-force agents trade independently at the base
    rate P0 = 2p / (1 + 1/(2*b1)), which keeps the time average of the
    per-agent trading probability at 2p.

    The state path, the exponential draws y and the day returns of the
    independent agents never depend on R', so they are drawn for all
    output days at once, ahead of the day loop: after the warm-up the
    initial state, then one uniform per day for the flips, one multinomial
    per day over the independent agents and one exponential per day.  The
    day loop draws only the clustered agents' return.  This is the law of
    drawing everything day by day, but not its random stream: a seed gives
    other returns than a driver that interleaves the draws.
    """
    config.validate_for("d")
    rng = np.random.default_rng(config.seed)
    n_agents = config.N
    m = config.M
    warmup = config.warmup_days
    t_max = config.t_max
    tau = config.tau

    w = rprime_weights(m)
    mean_force = 1.0 / (2.0 * config.b1)
    p0 = 2.0 * config.p / (1.0 + mean_force)
    # 1 - a * sgn(R') for a bull and a bear R'
    bull, bear = 1.0 - config.a, 1.0 + config.a
    n_dominating = round_count(config.f * n_agents)

    history = np.zeros(t_max, dtype=float)
    kept = t_max - warmup
    force_trace = np.empty(kept)
    size_trace = np.empty(kept)

    history[:warmup] = independent_day_return(n_agents, config.p, rng, warmup)

    # S flips with probability 1/tau a day: S_t is S_0 xor the flip parity
    state = bool(rng.integers(0, 2))
    flips = rng.random(kept) < 1.0 / tau
    states = np.logical_xor(state, np.logical_xor.accumulate(flips))
    # the agents with s_i = 1 trade in clusters, the rest independently
    n_clustered = np.where(states, n_dominating, n_agents - n_dominating)
    history[warmup:] = independent_day_return(n_agents - n_clustered, p0 / 2.0, rng)
    y_draws = rng.exponential(1.0 / config.b1, kept)

    # As in models A and B, day warmup + i dots its window and writes
    # through memoryviews; memoryviews also iterate the pre-drawn arrays as
    # Python floats and ints, without a list.
    rprime_dot, sample = w.dot, sample_aggregate_return
    windows = sliding_window_view(history, m)[warmup - m : t_max - m]
    out, force_out, size_out = map(memoryview, (
        history[warmup:], force_trace, size_trace))
    days = zip(windows, memoryview(y_draws), memoryview(n_clustered))
    for i, (window, y, n_pos) in enumerate(days):
        # R' = k * dot with k > 0: only the dot's sign is read
        rprime = float(rprime_dot(window))
        if rprime > 0.0:
            force = y * bull
        elif rprime < 0.0:
            force = y * bear
        else:
            force = y
        if n_pos > 0:
            # clamps as conditionals, as in models A and B
            p_half = (1.0 + force) * p0
            p_half = (1.0 if p_half > 1.0 else p_half) / 2.0
            avg_size = tau * n_pos * force / n_agents
            avg_size = 1.0 if avg_size < 1.0 else (
                float(n_pos) if avg_size > n_pos else avg_size)
            # round_count inlined; n_pos / avg_size >= 1, so int() floors
            n_clusters = int(n_pos / avg_size + 0.5)
            out[i] += sample(n_pos, n_clusters, p_half, p_half, rng)
        else:
            avg_size = 0.0

        force_out[i] = force
        size_out[i] = avg_size

    return SimOutput(
        returns=history[warmup:].astype(np.int64),
        diagnostics={
            "S": states.astype(float),
            "F": force_trace,
            "cluster_size": size_trace,
        },
    )
