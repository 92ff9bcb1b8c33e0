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

from .config import ModelConfig
from .machinery import (
    SimOutput,
    horizon_weights,
    independent_day_return,
    round_count,
    rprime_weights,
    sample_aggregate_return,
)

#: Days of model D's feedback-free draws made at once: bounds their memory.
_DRAW_BLOCK = 1024


def _volatility_coefficients(gamma) -> np.ndarray:
    """Weights of a chronological volatility window (oldest day first) in
    sum_i gamma_i * (mean of the last i volatilities).

    The volatility j days back weighs sum over horizons i > j of
    gamma_i / i, so xi is linear in the window.
    """
    return np.cumsum((gamma / np.arange(1, len(gamma) + 1))[::-1])


def _xi(coefficients, window, total) -> float:
    """Aggregate perception xi of a chronological volatility window whose
    sum is `total`.

    An agent with horizon i compares the mean volatility of the last i days
    with the full-window background; xi is the gamma-weighted aggregate,
    1.0 when the window is flat.
    """
    if total <= 0:
        return 1.0
    return len(coefficients) * float(np.dot(coefficients, window)) / total


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

    for t in range(warmup):
        history[t] = independent_day_return(n_agents, config.p, config.p, rng)
    if with_preference:
        # |R| day by day, and its integer sum over the last M days
        abs_history = np.abs(history)
        window_sum = int(abs_history[warmup - m : warmup].sum())

    for t in range(warmup, t_max):
        rprime = k * float(np.dot(w, history[t - m : t]))
        if rprime > 0.0:
            p_trade = p_bull
        elif rprime < 0.0:
            p_trade = p_bear
        else:
            p_trade = p_flat

        if with_preference:
            xi = _xi(xi_weights, abs_history[t - m : t], window_sum)
            split = min(max(0.5 * (pref * xi + (1.0 - pref)), 0.0), 1.0)
        else:
            split = 0.5
        p_buy = p_trade * split
        p_sell = p_trade - p_buy

        avg_size = min(max(abs(rprime - delta_r), 1.0), n_float)
        # round_count inlined; N / avg_size >= 1, so int() floors to >= 1
        n_clusters = int(n_agents / avg_size + 0.5)
        r = sample_aggregate_return(n_agents, n_clusters, p_buy, p_sell, rng)
        history[t] = r

        i = t - warmup
        trade_prob[i] = p_trade
        herding[i] = avg_size / n_agents
        cluster_count[i] = n_clusters
        if with_preference:
            xi_trace[i] = xi
            abs_history[t] = abs(r)
            window_sum += abs(r) - int(abs_history[t - m])

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
    independent agents never depend on R', so they are drawn ahead of the
    days that use them: after the warm-up the initial state, then for each
    block of _DRAW_BLOCK days one uniform per day for the flips, one
    multinomial per day over the independent agents and one exponential
    per day.  The day loop draws only the clustered agents' return.  This
    is the law of drawing everything day by day, but not its random
    stream: a seed gives other returns than a driver that interleaves the
    draws.
    """
    config.validate_for("d")
    rng = np.random.default_rng(config.seed)
    n_agents = config.N
    m = config.M
    k = config.k_for("d")
    warmup = config.warmup_days
    t_max = config.t_max
    tau = config.tau

    w = rprime_weights(m)
    mean_force = 1.0 / (2.0 * config.b1)
    p0 = 2.0 * config.p / (1.0 + mean_force)
    # 1 - a * sgn(R') for a bull and a bear R'
    bull, bear = 1.0 - config.a, 1.0 + config.a
    n_dominating = round_count(config.f * n_agents)
    n_rest = n_agents - n_dominating

    history = np.zeros(t_max, dtype=float)
    kept = t_max - warmup
    state_trace = np.empty(kept)
    force_trace = np.empty(kept)
    size_trace = np.empty(kept)

    for t in range(warmup):
        history[t] = independent_day_return(n_agents, config.p, config.p, rng)

    state = bool(rng.integers(0, 2))
    for start in range(warmup, t_max, _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, t_max)
        # S flips with probability 1/tau a day: S_t is S_0 xor the flip parity
        flips = rng.random(stop - start) < 1.0 / tau
        states = np.logical_xor(state, np.logical_xor.accumulate(flips))
        state = bool(states[-1])
        counts = rng.multinomial(
            np.where(states, n_rest, n_dominating), (p0 / 2.0, p0 / 2.0, 1.0 - p0)
        )
        history[start:stop] = counts[:, 0] - counts[:, 1]
        y_draws = rng.exponential(1.0 / config.b1, stop - start)
        state_trace[start - warmup : stop - warmup] = states

        # memoryviews iterate as Python floats and bools, without a list
        days = zip(range(start, stop), memoryview(y_draws), memoryview(states))
        for t, y, s in days:
            n_pos = n_dominating if s else n_rest
            rprime = k * float(np.dot(w, history[t - m : t]))
            if rprime > 0.0:
                force = y * bull
            elif rprime < 0.0:
                force = y * bear
            else:
                force = y
            if n_pos > 0:
                p_half = min((1.0 + force) * p0, 1.0) / 2.0
                avg_size = min(max(tau * n_pos * force / n_agents, 1.0), float(n_pos))
                # round_count inlined; n_pos / avg_size >= 1, so int() floors
                n_clusters = int(n_pos / avg_size + 0.5)
                history[t] += sample_aggregate_return(
                    n_pos, n_clusters, p_half, p_half, rng
                )
            else:
                avg_size = 0.0

            i = t - warmup
            force_trace[i] = force
            size_trace[i] = avg_size

    return SimOutput(
        returns=history[warmup:].astype(np.int64),
        diagnostics={
            "S": state_trace,
            "F": force_trace,
            "cluster_size": size_trace,
        },
    )
