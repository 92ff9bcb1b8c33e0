"""Shared machinery of the simulation drivers.

Horizon weights, the weighted return R', the aggregate return of a day of
clustered or independent agents and the record of one run.  Everything
here is pure given an explicit `numpy.random.Generator`, so runs are
reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .config import HORIZON_DECAY


def round_count(x):
    """Round positive reals to the nearest integer, ties upward.

    A scalar gives an int, an array an int64 array of the same shape.
    """
    if isinstance(x, np.ndarray):
        return np.floor(x + 0.5).astype(np.int64)
    return int(math.floor(x + 0.5))


def horizon_weights(m: int) -> np.ndarray:
    """Normalized power-law portions of agents per investment horizon.

    gamma[i-1] is the fraction of agents with an i-day horizon,
    proportional to i**-HORIZON_DECAY and summing to one.
    """
    if m < 1:
        raise ConfigError(f"horizon count must be >= 1, got {m}")
    raw = np.arange(1, m + 1, dtype=float) ** (-HORIZON_DECAY)
    return raw / raw.sum()


def rprime_weights(m: int) -> np.ndarray:
    """Weights of a chronological m-day window (oldest day first) in R'.

    Each horizon i contributes gamma_i times the sum of the last i returns,
    so the return j days back weighs the sum of gamma over horizons > j:
    the last weight is 1, and R' = k * dot(rprime_weights(m), window).
    """
    return np.cumsum(horizon_weights(m)[::-1])


def weighted_returns(returns, m: int, k: float) -> np.ndarray:
    """R' of every full m-day window of a chronological return series.

    Entry i is k * dot(rprime_weights(m), returns[i : i + m]), the weighted
    return at the close of day i + m - 1.
    """
    r = np.asarray(returns, dtype=float)
    if len(r) < m:
        raise ConfigError(f"need at least {m} days of history, got {len(r)}")
    return np.convolve(r, rprime_weights(m)[::-1], mode="valid") * k


def sample_aggregate_return(
    n_agents: int,
    n_clusters: int,
    p_buy: float,
    p_sell: float,
    rng: np.random.Generator,
) -> int:
    """Aggregate return of a clustered day without materializing agents.

    Every agent picks one of `n_clusters` clusters uniformly and
    independently, each cluster buys with p_buy, sells with p_sell and
    holds otherwise, and its members follow.  Drawn as the buy/sell counts
    among clusters, then the agent headcounts, which are multinomial.
    """
    p_hold = 1.0 - p_buy - p_sell
    n_buy, n_sell, _ = rng.multinomial(
        n_clusters, (p_buy, p_sell, p_hold)
    ).tolist()
    if n_buy == 0 and n_sell == 0:
        return 0
    # Conditional binomials keep the category probabilities exact ratios
    # of integers, which a float pvals vector cannot guarantee.
    buys = int(rng.binomial(n_agents, n_buy / n_clusters))
    if n_sell == 0:
        return buys
    sells = int(rng.binomial(n_agents - buys, n_sell / (n_clusters - n_buy)))
    return buys - sells


def independent_day_return(
    n_agents: int, p_buy: float, p_sell: float, rng: np.random.Generator
) -> int:
    """Aggregate return of one day of fully independent agents."""
    buys, sells, _ = rng.multinomial(
        n_agents, (p_buy, p_sell, 1.0 - p_buy - p_sell)
    )
    return int(buys) - int(sells)


@dataclass
class SimOutput:
    """Result of one simulation run, warmup days excluded.

    `returns` has shape (T,) for the single-stock models and (T, n) for
    the multi-stock model, whose tickers and sector map are then set.
    """

    returns: np.ndarray
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)
    tickers: tuple[str, ...] | None = None
    sector_of: dict[str, str] | None = None
