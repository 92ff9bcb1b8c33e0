"""Shared machinery of the simulation drivers.

Horizon weights, the weighted average return, random cluster partitions and
joint cluster decisions.  Everything here is pure given an explicit
`numpy.random.Generator`, so runs are reproducible from the seed alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from .config import HORIZON_DECAY, ModelConfig


def round_count(x):
    """Round positive reals to the nearest integer, ties upward.

    A scalar gives an int, an array an int64 array of the same shape.
    """
    if isinstance(x, np.ndarray):
        return np.floor(x + 0.5).astype(np.int64)
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class HorizonWeights:
    """Normalized power-law portions of agents per investment horizon.

    gamma[i-1] is the fraction of agents with an i-day horizon,
    proportional to i**-HORIZON_DECAY and summing to one.
    """

    gamma: np.ndarray

    @property
    def max_horizon(self) -> int:
        return len(self.gamma)

    def tail_sums(self) -> np.ndarray:
        """w[j] = sum of gamma over horizons > j; w[0] = 1.

        These are the effective weights of R(t-j) in the weighted return:
        the double sum over horizons collapses to sum_j w[j] * R(t-j).
        """
        return np.cumsum(self.gamma[::-1])[::-1].copy()


def horizon_weights(m: int, decay: float = HORIZON_DECAY) -> HorizonWeights:
    if m < 1:
        raise ConfigError(f"horizon count must be >= 1, got {m}")
    raw = np.arange(1, m + 1, dtype=float) ** (-decay)
    return HorizonWeights(gamma=raw / raw.sum())


def weighted_return(history, weights: HorizonWeights, k: float = 1.0) -> float:
    """Weighted average return over the last M days of `history`.

    `history` holds returns in chronological order; history[-1] is the most
    recent day.  Each horizon i contributes gamma_i times the sum of the
    last i returns, scaled by k.
    """
    hist = np.asarray(history, dtype=float)
    m = weights.max_horizon
    if len(hist) < m:
        raise ConfigError(
            f"need at least {m} days of history, got {len(hist)}"
        )
    w = weights.tail_sums()
    return float(k * np.dot(w[::-1], hist[-m:]))


@dataclass(frozen=True)
class ClusterPartition:
    """Assignment of agents to decision clusters for one day."""

    assignment: np.ndarray
    n_clusters: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)


def partition_clusters(
    n_agents: int, avg_cluster_size: float, rng: np.random.Generator
) -> ClusterPartition:
    """Uniformly assign agents to max(1, round(N / avg_size)) clusters.

    avg_cluster_size is clamped into [1, n_agents] first.
    """
    if n_agents < 1:
        raise ConfigError(f"n_agents must be >= 1, got {n_agents}")
    avg = min(max(float(avg_cluster_size), 1.0), float(n_agents))
    n_clusters = max(1, round_count(n_agents / avg))
    assignment = rng.integers(0, n_clusters, size=n_agents)
    return ClusterPartition(assignment=assignment, n_clusters=n_clusters)


def cluster_decide(
    partition: ClusterPartition,
    p_buy: float,
    p_sell: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Draw one decision per cluster and give it to every member.

    Returns (per-agent decisions in {-1, 0, +1}, aggregate return).
    """
    if p_buy < 0.0 or p_sell < 0.0 or p_buy + p_sell > 1.0:
        raise ConfigError(
            f"need p_buy, p_sell >= 0 and p_buy + p_sell <= 1, "
            f"got ({p_buy}, {p_sell})"
        )
    u = rng.random(partition.n_clusters)
    phi_cluster = np.zeros(partition.n_clusters, dtype=np.int64)
    phi_cluster[u < p_buy] = 1
    phi_cluster[(u >= p_buy) & (u < p_buy + p_sell)] = -1
    phi = phi_cluster[partition.assignment]
    return phi, int(phi.sum())


def sample_aggregate_return(
    n_agents: int,
    n_clusters: int,
    p_buy: float,
    p_sell: float,
    rng: np.random.Generator,
) -> int:
    """Aggregate return of a clustered day without materializing agents.

    Exactly reproduces the law of partition_clusters + cluster_decide:
    first the buy/sell counts among clusters, then the agent headcounts,
    which are multinomial because every agent picks a cluster uniformly
    and independently.
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

    model: str
    config: ModelConfig
    seed: int
    returns: np.ndarray
    diagnostics: dict[str, np.ndarray] = field(default_factory=dict)
    tickers: tuple[str, ...] | None = None
    sector_of: dict[str, str] | None = None
