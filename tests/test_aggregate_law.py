"""The exact law of the single-stock clustered day at tiny sizes.

`machinery.sample_aggregate_return` never materializes agents: it draws the
numbers of buying and selling clusters, then the headcounts of the agents
whose picked cluster buys or sells, as four binomials.  That rests on an
exchangeability argument.  Here the law of R = buys - sells is computed
twice, in exact rational arithmetic, for states of at most 4 agents and 3
clusters:

* by enumeration: every decision of every cluster (buy, sell, hold) and
  every map of agents to clusters, each map of probability K**-N;
* by composition: the pmf of the four binomials the sampler draws.

The two pmfs must be equal.  The sampler's own draws, at a fixed seed and
draw count, are then checked against the exact pmf with the
Kolmogorov-Smirnov distance.  The moment tests in `test_simcore.py` stay;
this adds a check that a law difference keeping the moments cannot pass.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from herdsim.simcore import sample_aggregate_return

F = Fraction
STATES = [  # (agents N, clusters K, p_buy, p_sell)
    (1, 1, F(1, 5), F(3, 10)),
    (4, 1, F(1, 5), F(3, 10)),
    (2, 2, F(1, 5), F(3, 10)),
    (3, 2, F(1, 2), F(1, 2)),   # no cluster holds
    (4, 3, F(1, 5), F(3, 10)),
    (4, 3, F(1, 3), F(0)),      # no cluster sells
    (3, 3, F(1), F(0)),         # every cluster buys: no rest to split
    (4, 3, F(0), F(2, 5)),      # sellers only
]
IDS = [f"N{n}-K{k}-{b}-{s}" for n, k, b, s in STATES]

DAYS = 20_000
# Per-state false-alarm probability of the distance check below.
ALPHA = 1e-6


def binomial_pmf(n, p, k) -> Fraction:
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def enumerated_law(n_agents, n_clusters, p_buy, p_sell) -> dict:
    """P(R = r) summed over every cluster decision and every agent map."""
    decide = {1: p_buy, -1: p_sell, 0: 1 - p_buy - p_sell}
    map_prob = F(1, n_clusters**n_agents)
    law = {}
    for decisions in product(decide, repeat=n_clusters):
        p = math.prod(decide[d] for d in decisions) * map_prob
        for picks in product(range(n_clusters), repeat=n_agents):
            r = sum(decisions[c] for c in picks)
            law[r] = law.get(r, 0) + p
    return {r: p for r, p in law.items() if p}


def composed_law(n_agents, n_clusters, p_buy, p_sell) -> dict:
    """P(R = r) of the four binomials: buying clusters, selling clusters
    among the rest, agents picking a buying cluster, agents picking a
    selling cluster among the rest."""
    sell_given_not_buy = p_sell / (1 - p_buy) if p_buy < 1 else F(0)
    law = {}
    for n_buy in range(n_clusters + 1):
        rest = n_clusters - n_buy
        for n_sell in range(rest + 1):
            p = (binomial_pmf(n_clusters, p_buy, n_buy)
                 * binomial_pmf(rest, sell_given_not_buy, n_sell))
            for buys in range(n_agents + 1):
                pb = p * binomial_pmf(n_agents, F(n_buy, n_clusters), buys)
                q = F(n_sell, rest) if rest else F(0)
                for sells in range(n_agents - buys + 1):
                    ps = pb * binomial_pmf(n_agents - buys, q, sells)
                    law[buys - sells] = law.get(buys - sells, 0) + ps
    return {r: p for r, p in law.items() if p}


@pytest.mark.parametrize("state", STATES, ids=IDS)
def test_four_binomials_compose_the_enumerated_law(state):
    enumerated = enumerated_law(*state)
    assert sum(enumerated.values()) == 1
    assert composed_law(*state) == enumerated


@pytest.mark.parametrize("state", STATES, ids=IDS)
def test_sampler_draws_follow_the_exact_law(state):
    n_agents, n_clusters, p_buy, p_sell = state
    law = enumerated_law(*state)
    rng = np.random.default_rng(2017)
    draws = np.array([sample_aggregate_return(n_agents, n_clusters,
                                              float(p_buy), float(p_sell), rng)
                      for _ in range(DAYS)])
    support = sorted(law)
    assert set(np.unique(draws).tolist()) <= set(support)
    # Kolmogorov-Smirnov distance between the empirical and the exact cdf
    empirical = np.cumsum([np.count_nonzero(draws == r) for r in support]) / DAYS
    exact = np.cumsum([float(law[r]) for r in support])
    distance = np.abs(empirical - exact).max()
    # Dvoretzky-Kiefer-Wolfowitz inequality with Massart's constant (Ann.
    # Probab. 18 (1990) 1269-1283): P(distance > eps) <= 2 exp(-2 n eps^2)
    # for n draws of any law, a discrete one included, so this threshold
    # fails a correct sampler with probability at most ALPHA.
    threshold = math.sqrt(math.log(2 / ALPHA) / (2 * DAYS))
    assert distance <= threshold
