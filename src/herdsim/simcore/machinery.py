"""Shared machinery of the simulation drivers.

Horizon weights, the weighted return R', the two draws every model's day
is made of (agents trading on their own, and agents following groups they
pick uniformly) and the record of one run.  Everything here is pure given
an explicit `numpy.random.Generator`, so runs are reproducible from the
seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..ingest import ReturnsPanel
from .config import HORIZON_DECAY


def round_count(x):
    """Round positive reals to the nearest integer, ties upward.

    A scalar gives an `np.int64`, an array an int64 array of the same shape.
    """
    return np.floor(x + 0.5).astype(np.int64)


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


def independent_day_return(agents, p: float, rng: np.random.Generator, size=None):
    """Aggregate return of days of agents that each buy with p, sell with p
    and hold otherwise, independently.

    An array of counts or a `size` gives one return per entry, drawn in
    order with the stream of as many one-day calls.
    """
    counts = rng.multinomial(agents, (p, p, 1.0 - 2.0 * p), size=size)
    return counts[..., 0] - counts[..., 1]


def draw_picks(buy, sell, pool, draws, rng: np.random.Generator):
    """Buy/sell counts among `draws` independent trials that each buy with
    probability buy / pool, sell with sell / pool and hold otherwise.

    With integer counts these are picks made uniformly, with replacement,
    among `pool` groups, `buy` of them buying and `sell` selling; with
    `pool` 1.0, `buy` and `sell` are the probabilities themselves.  The
    arguments are numbers or arrays broadcast to one shape.  The
    conditional binomial pair is the three-way multinomial, drawn as the
    same two binomials that numpy's `multinomial` draws.
    """
    buys = rng.binomial(draws, buy / pool)
    rest = pool - buy
    # rest == 0: every trial buys, so none is left to split
    sells = rng.binomial(draws - buys, sell / (rest + (rest == 0)))
    return buys, sells


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
    holds otherwise, and its members follow.  Drawn as two `draw_picks`
    pairs, the buy/sell counts among clusters and then the agent headcounts
    among their picks, but by four scalar binomials made here: the same
    arguments in the same order, so the same stream, at a fraction of the
    cost of two calls on a day loop's hot path.
    """
    binomial = rng.binomial
    n_buy = binomial(n_clusters, p_buy)
    rest = 1.0 - p_buy
    # rest == 0: every trial buys, so none is left to split
    n_sell = binomial(n_clusters - n_buy, p_sell / (rest + (rest == 0)))
    buys = binomial(n_agents, n_buy / n_clusters)
    rest = n_clusters - n_buy
    sells = binomial(n_agents - buys, n_sell / (rest + (rest == 0)))
    return buys - sells


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

    def panel(self) -> ReturnsPanel:
        """The per-stock returns of a multi-stock run on days 1..T, as
        panel.csv holds them."""
        return ReturnsPanel(dates=tuple(range(1, len(self.returns) + 1)),
                            tickers=self.tickers, sector_of=self.sector_of,
                            matrix=self.returns.astype(float))
