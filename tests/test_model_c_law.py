"""Model C's count-level day sampler against the per-group reference loop.

`reference_day_returns` is the original implementation of one day of the
three-level herding model: it draws the M-group decisions, the S-group to
M-group map of every sector, and for every stock the agents' I-group sizes
and the I-group to S-group map, then sums the agents' decisions.
`multi_stock.sample_day_returns` draws only how many groups at each level
end in a buy or a sell.  The two consume the random stream differently, so
they are compared in law: per-stock moments, P(r = 0) and cross-stock
covariances on fixed states, then whole runs over many seeds.  On tiny
states the law is also computed exactly, by enumeration of the reference
and by composition of the sampler's counts, and the sampler's draws are
checked against it (see "the exact law" below).
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations, product

import numpy as np
import pytest

from herdsim.simcore import ModelConfig, multi_stock, run_model_c


def _spread_sample(count, pool, rng):
    """Draw `count` targets from range(pool), avoiding repeats while possible."""
    if count <= pool:
        return rng.permutation(pool)[:count]
    extra = rng.integers(0, pool, size=count - pool)
    return np.concatenate([rng.permutation(pool), extra])


def reference_day_returns(agents_per_stock, igroups, sgroups, slots, p_group, rng):
    """One day of model C, group by group (the original loop)."""
    n_stocks = len(igroups)
    per_sector = n_stocks // len(sgroups)
    total_m = int(slots.max())
    u = rng.random(total_m)
    phi_m = np.zeros(total_m, dtype=np.int64)
    phi_m[u < p_group] = 1
    phi_m[(u >= p_group) & (u < 2.0 * p_group)] = -1

    returns = np.zeros(n_stocks, dtype=np.int64)
    for j in range(len(sgroups)):
        s_to_m = _spread_sample(int(sgroups[j]), int(slots[j]), rng)
        for s in range(j * per_sector, (j + 1) * per_sector):
            g = int(igroups[s])
            sizes = rng.multinomial(agents_per_stock[s], np.full(g, 1.0 / g))
            i_to_s = _spread_sample(g, int(sgroups[j]), rng)
            returns[s] = sizes @ phi_m[s_to_m[i_to_s]]
    return returns


# Two sectors of three stocks each.  BRANCHES hits every branch of the
# sampler: sector 1 has fewer S-groups than slots (drawn without
# replacement), sector 2 one more (a single extra); stocks with fewer, more
# and exactly as many I-groups as their sector has S-groups; an unheld
# stock.  WHOLE_POOLS has as many S-groups as slots in each sector (both
# sector draws skipped) and stocks with at most as many I-groups as S-groups,
# some with one fewer (stock extras skipped, stock draws partial).  MIXED
# has one slot in sector 1 and two in sector 2, so on about a third of the
# days (0.3**2 + 0.3**2 + 0.4**2) both M-groups decide alike and the levels
# below draw nothing; the other days take the full path.
STATES = {
    "branches": dict(
        agents_per_stock=np.array([40, 25, 0, 30, 50, 15]),
        igroups=np.array([2, 7, 1, 4, 9, 3]),
        sgroups=np.array([3, 3]),
        slots=np.array([6, 2]),
        p_group=0.3,
    ),
    "whole_pools": dict(
        agents_per_stock=np.array([60, 20, 35, 10, 45, 30]),
        igroups=np.array([1, 2, 2, 3, 2, 3]),
        sgroups=np.array([2, 3]),
        slots=np.array([2, 3]),
        p_group=0.35,
    ),
    "mixed": dict(
        agents_per_stock=np.array([30, 45, 20, 55, 10, 40]),
        igroups=np.array([2, 5, 3, 4, 1, 6]),
        sgroups=np.array([3, 4]),
        slots=np.array([1, 2]),
        p_group=0.3,
    ),
}
DRAWS = 20_000
Z = 5.0  # tolerance in standard errors; every comparison is seeded


def _draw(sampler, state, seed):
    rng = np.random.default_rng(seed)
    return np.array([sampler(**state, rng=rng) for _ in range(DRAWS)], dtype=float)


def _assert_close(a, b, se, what):
    assert abs(a - b) <= Z * se + 1e-12, f"{what}: {a} vs {b} (se {se})"


def _mean_se(x):
    return x.mean(), x.std() / np.sqrt(len(x))


def _compare(name, x, y):
    for stat, f in (
        ("mean", lambda v: v),
        ("variance", lambda v: (v - v.mean()) ** 2),
        ("P(r=0)", lambda v: (v == 0).astype(float)),
    ):
        (a, se_a), (b, se_b) = _mean_se(f(x)), _mean_se(f(y))
        _assert_close(a, b, np.hypot(se_a, se_b), f"{name} {stat}")


@pytest.fixture(scope="module", params=sorted(STATES))
def day_draws(request):
    state = STATES[request.param]
    return (
        request.param,
        _draw(multi_stock.sample_day_returns, state, seed=11),
        _draw(reference_day_returns, state, seed=12),
    )


def test_day_returns_per_stock_law(day_draws):
    name, fast, ref = day_draws
    for s in range(fast.shape[1]):
        _compare(f"{name} stock {s}", fast[:, s], ref[:, s])


@pytest.mark.parametrize("pair", [(0, 1), (3, 4), (0, 3), (1, 5)])
def test_day_returns_cross_stock_covariance(day_draws, pair):
    # (0, 1) and (3, 4) share a sector; (0, 3) and (1, 5) do not
    name, fast, ref = day_draws
    a, b = pair
    products = [
        (x[:, a] - x[:, a].mean()) * (x[:, b] - x[:, b].mean()) for x in (fast, ref)
    ]
    (c_fast, se_fast), (c_ref, se_ref) = map(_mean_se, products)
    _assert_close(c_fast, c_ref, np.hypot(se_fast, se_ref), f"{name} cov{pair}")


def test_day_returns_fixed_cases():
    rng = np.random.default_rng(0)
    state = STATES["branches"]
    agents = state["agents_per_stock"]
    for _ in range(200):
        r = multi_stock.sample_day_returns(**state, rng=rng)
        assert r[2] == 0  # the unheld stock never trades
        assert np.all(np.abs(r) <= agents)
    # no group holds: every agent trades, so r = N_s - 2 * sells
    no_hold = dict(state, p_group=0.5)
    for _ in range(200):
        r = multi_stock.sample_day_returns(**no_hold, rng=rng)
        assert np.all((r - agents) % 2 == 0)
    # one M-group slot per sector: all of a sector's agents follow one group
    one_slot = dict(state, slots=np.array([1, 1]))
    for _ in range(200):
        r = multi_stock.sample_day_returns(**one_slot, rng=rng)
        for sector in (slice(0, 3), slice(3, 6)):
            assert any(
                np.array_equal(r[sector], sign * agents[sector]) for sign in (-1, 0, 1)
            )


def test_alike_day_draws_nothing_below_the_market():
    # One slot per sector: every day's M-groups decide alike.  Pools of 40
    # S-groups and samples of 15-30 I-groups per stock put numpy's
    # hypergeometric in its HRUA branch, which draws from the stream even
    # when the pool holds one colour, so only a skipped draw leaves the
    # stream where the M-level left it.
    state = dict(
        agents_per_stock=np.array([60, 80, 70, 90, 50, 75]),
        igroups=np.array([15, 22, 30, 18, 25, 27]),
        sgroups=np.array([40, 40]),
        slots=np.array([1, 1]),
        p_group=0.3,
    )
    agents, p = state["agents_per_stock"], state["p_group"]
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(300):
        r = multi_stock.sample_day_returns(**state, rng=rng)
        (u,) = twin.random(int(state["slots"].max()))
        sign = 1 if u < p else -1 if u < 2 * p else 0
        assert np.array_equal(r, sign * agents)
        assert rng.bit_generator.state == twin.bit_generator.state


SMALL_RUN = dict(N=2000, M=50, n=6, n_sec=2, H_M=0.3, H_j=(0.4, 0.5),
                 P_group=0.3, t_max=350, warmup=50)
RUN_SEEDS = 24


def _run_statistics(seed_base):
    stats = []
    for seed in range(seed_base, seed_base + RUN_SEEDS):
        r = run_model_c(ModelConfig(**SMALL_RUN, seed=seed)).returns.astype(float)
        corr = np.corrcoef(r, rowvar=False)
        in_sector = np.mean([corr[0, 1], corr[0, 2], corr[1, 2],
                             corr[3, 4], corr[3, 5], corr[4, 5]])
        cross_sector = corr[:3, 3:].mean()
        stats.append((r.std(), in_sector, cross_sector))
    return np.array(stats)


def test_full_runs_match_reference(monkeypatch):
    fast = _run_statistics(seed_base=1000)
    monkeypatch.setattr(multi_stock, "sample_day_returns", reference_day_returns)
    ref = _run_statistics(seed_base=2000)
    for i, what in enumerate(("return std", "in-sector corr", "cross-sector corr")):
        (a, se_a), (b, se_b) = _mean_se(fast[:, i]), _mean_se(ref[:, i])
        _assert_close(a, b, np.hypot(se_a, se_b), what)
    # the sector structure is there in both: in-sector above cross-sector
    assert fast[:, 1].mean() > fast[:, 2].mean()
    assert ref[:, 1].mean() > ref[:, 2].mean()


# ------------------------------------------------------------ the exact law
#
# On tiny states the day's law is computed twice, in exact rational
# arithmetic, as the joint pmf of every stock's return:
#
# * by enumeration of the reference: every M-group decision, every S-group
#   to M-group spread, every I-group to S-group spread and every map of
#   agents to I-groups, outcome by outcome (equally likely outcomes of one
#   level are counted with integers, then divided once);
# * by composition of the counts the sampler draws: the M-level decisions,
#   the alike-day shortcut, then at each level the hypergeometric pair for
#   the picks within the pool and the binomial pair for the picks beyond
#   it, and the agents' binomial pair.
#
# Given the M-level decisions the sectors are independent, and given a
# sector's S-level outcome its stocks are, so both laws are built as sums
# of products of per-stock laws.  The sampler's draws are then checked
# against the exact law with the Dvoretzky-Kiefer-Wolfowitz bound, as
# test_aggregate_law.py does for the single-stock day.

F = Fraction
# Two sectors of one or two stocks, at most 3 agents a stock and 3 slots.
# Every _spread_counts branch is taken at the S-level and at the I-level:
# fewer picks than the pool (the hypergeometric pair), exactly the pool (no
# draw) and more picks than the pool (the whole pool, then uniform extras),
# both beside and without an entry of the same level that takes a partial
# pool.
EXACT_STATES = {
    # S: 2 of 3 slots, 4 of 2; I: 1 and 3 of 2 S-groups, 4 and 2 of 4
    "fewer_and_more": dict(agents_per_stock=(3, 2, 3, 1), igroups=(1, 3, 4, 2),
                           sgroups=(2, 4), slots=(3, 2), p_group=F(3, 10)),
    # S: 3 of 1 slot, 3 of 3 (no hypergeometric); I: 3 and 4 of 3, 3 and 3
    # of 3 (no hypergeometric)
    "whole_and_extra": dict(agents_per_stock=(2, 3, 3, 1), igroups=(3, 4, 3, 3),
                            sgroups=(3, 3), slots=(1, 3), p_group=F(1, 4)),
    # every pick takes its whole pool: the only draws are the agents'
    "whole_pools": dict(agents_per_stock=(3, 3), igroups=(2, 3),
                        sgroups=(2, 3), slots=(2, 3), p_group=F(1, 3)),
    # one slot each: every day is alike
    "alike": dict(agents_per_stock=(3, 2), igroups=(2, 1),
                  sgroups=(2, 1), slots=(1, 1), p_group=F(1, 4)),
    # no M-group holds; one slot against two
    "no_hold": dict(agents_per_stock=(3, 2, 1, 3), igroups=(2, 1, 3, 2),
                    sgroups=(2, 2), slots=(1, 2), p_group=F(1, 2)),
}
EXACT_DRAWS = 10_000
# Per-comparison false-alarm probability of the DKW checks.
EXACT_ALPHA = 1e-7


def _product(a, b):
    """Joint law of two independent parts, keyed by concatenated tuples."""
    return {x + y: p * q for x, p in a.items() for y, q in b.items()}


def _add(law, part, weight):
    for key, p in part.items():
        law[key] = law.get(key, 0) + weight * p


def _sector_stocks(state, j):
    per_sector = len(state["igroups"]) // len(state["sgroups"])
    return range(j * per_sector, (j + 1) * per_sector)


def _day_law(state, sector_law):
    """Joint law of the day: the M-group decisions in order, then the
    independent sectors given them; `sector_law(j, phi_m)` is sector j's
    joint law given the decisions (1 buy, -1 sell, 0 hold)."""
    p = state["p_group"]
    decide = {1: p, -1: p, 0: 1 - 2 * p}
    law = {}
    for phi_m in product(decide, repeat=max(state["slots"])):
        weight = math.prod(decide[x] for x in phi_m)
        if weight:
            sectors = [sector_law(j, phi_m) for j in range(len(state["sgroups"]))]
            _add(law, reduce(_product, sectors), weight)
    return law


def spread_outcomes(count, pool):
    """Every outcome of _spread_sample(count, pool): the equally likely
    target tuples, a permutation's prefix or a whole permutation followed by
    uniform extras."""
    extras = list(product(range(pool), repeat=max(count - pool, 0)))
    return [perm[:count] + extra for perm in permutations(range(pool))
            for extra in extras]


@cache
def _reference_stock_law(phi_s, igroups, agents):
    """A stock's return law given its sector's S-group decisions: every
    I-group to S-group spread and every map of its agents to I-groups."""
    counts = Counter()
    spreads = spread_outcomes(igroups, len(phi_s))
    for i_to_s in spreads:
        phi_i = [phi_s[t] for t in i_to_s]
        for picks in product(range(igroups), repeat=agents):
            counts[(sum(phi_i[c] for c in picks),)] += 1
    total = len(spreads) * igroups**agents
    return {r: F(n, total) for r, n in counts.items()}


def enumerated_day_law(state):
    """The joint law of reference_day_returns, outcome by outcome."""
    def sector_law(j, phi_m):
        spreads = spread_outcomes(state["sgroups"][j], state["slots"][j])
        phi_s = Counter(tuple(phi_m[t] for t in s_to_m) for s_to_m in spreads)
        law = {}
        for decisions, n in phi_s.items():
            stocks = [_reference_stock_law(decisions, state["igroups"][s],
                                           state["agents_per_stock"][s])
                      for s in _sector_stocks(state, j)]
            _add(law, reduce(_product, stocks), F(n, len(spreads)))
        return law
    return _day_law(state, sector_law)


def hypergeometric_pmf(good, bad, sample, k):
    return F(math.comb(good, k) * math.comb(bad, sample - k),
             math.comb(good + bad, sample))


def binomial_pmf(n, p, k):
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


@cache
def picks_law(buy, sell, pool, draws):
    """(buys, sells) of draw_picks, and of the picks beyond the pool in
    _spread_counts: a binomial on buy / pool, then one on sell / (pool - buy)
    among the rest."""
    rest = pool - buy
    law = {}
    for b in range(draws + 1):
        pb = binomial_pmf(draws, F(buy, pool), b)
        for s in range(draws - b + 1):
            p = pb * binomial_pmf(draws - b, F(sell, rest) if rest else F(0), s)
            if p:
                law[(b, s)] = law.get((b, s), 0) + p
    return law


@cache
def spread_law(buy, sell, pool, draws):
    """(buys, sells) of one _spread_counts entry: the hypergeometric pair on
    the first min(draws, pool) picks, then picks_law's binomial pair on the
    picks beyond the pool."""
    first = min(draws, pool)
    extra = picks_law(buy, sell, pool, max(draws - pool, 0))
    law = {}
    for b in range(first + 1):
        pb = hypergeometric_pmf(buy, pool - buy, first, b)
        if not pb:
            continue
        for s in range(first - b + 1):
            p = pb * hypergeometric_pmf(sell, pool - buy - sell, first - b, s)
            if p:
                _add(law, {(b + x, s + y): q for (x, y), q in extra.items()}, p)
    return law


@cache
def _count_stock_law(buy_s, sell_s, sgroups, igroups, agents):
    """A stock's return law given its sector's S-level counts."""
    law = {}
    for (buy_i, sell_i), p in spread_law(buy_s, sell_s, sgroups, igroups).items():
        for (buys, sells), q in picks_law(buy_i, sell_i, igroups, agents).items():
            law[(buys - sells,)] = law.get((buys - sells,), 0) + p * q
    return law


def composed_day_law(state):
    """The joint law of the counts sample_day_returns draws."""
    slots, sgroups = state["slots"], state["sgroups"]
    agents = state["agents_per_stock"]

    def sector_law(j, phi_m):
        if len(set(phi_m)) == 1:  # alike: every agent follows phi_m[0]
            return {tuple(phi_m[0] * agents[s] for s in _sector_stocks(state, j)): 1}
        prefix = phi_m[: slots[j]]
        law = {}
        counts = spread_law(prefix.count(1), prefix.count(-1), slots[j], sgroups[j])
        for (buy_s, sell_s), p in counts.items():
            stocks = [_count_stock_law(buy_s, sell_s, sgroups[j],
                                       state["igroups"][s], agents[s])
                      for s in _sector_stocks(state, j)]
            _add(law, reduce(_product, stocks), p)
        return law
    return _day_law(state, sector_law)


@pytest.fixture(scope="module", params=sorted(EXACT_STATES))
def exact_law(request):
    state = EXACT_STATES[request.param]
    return request.param, state, enumerated_day_law(state)


def test_composed_counts_give_the_enumerated_law(exact_law):
    _, state, enumerated = exact_law
    assert sum(enumerated.values()) == 1
    assert composed_day_law(state) == enumerated


def _dkw_distance(draws, law):
    """Kolmogorov-Smirnov distance of the draws (one value each) from the
    exact law, over the law's support in sorted order."""
    support = sorted(law)
    index = {x: i for i, x in enumerate(support)}
    counts = np.bincount([index[x] for x in draws], minlength=len(support))
    empirical = np.cumsum(counts) / len(draws)
    return np.abs(empirical - np.cumsum([float(law[x]) for x in support])).max()


def test_sampler_draws_follow_the_exact_law(exact_law):
    name, state, law = exact_law
    rng = np.random.default_rng(2017)
    arrays = {key: np.array(value) for key, value in state.items()
              if key != "p_group"}
    draws = [tuple(multi_stock.sample_day_returns(
        **arrays, p_group=float(state["p_group"]), rng=rng).tolist())
        for _ in range(EXACT_DRAWS)]
    assert set(draws) <= set(law)
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant: the distance
    # exceeds this with probability at most EXACT_ALPHA for a correct
    # sampler, for each stock's return and for the day's index in the
    # sorted joint support, each a real random variable
    threshold = math.sqrt(math.log(2 / EXACT_ALPHA) / (2 * EXACT_DRAWS))
    for s in range(len(state["igroups"])):
        marginal = {}
        for x, p in law.items():
            _add(marginal, {(x[s],): p}, 1)
        distance = _dkw_distance([(d[s],) for d in draws], marginal)
        assert distance <= threshold, f"{name} stock {s}: {distance}"
    assert _dkw_distance(draws, law) <= threshold, f"{name} joint"


# ------------------------------------------------ no fixed count is drawn
#
# Above the agent level the sampler draws a count only where it is random:
# a hypergeometric with no sample, no good, no bad or a sample of the whole
# urn, or a binomial with no trial or p of 0 or 1, has one outcome, which is
# written instead.  A stand-in generator forwards every call to a real one
# and records its arguments entry by entry; the agents' counts are the
# day's last two calls, one binomial pair over all stocks.


class RecordingGenerator:
    """A Generator's random, hypergeometric and binomial, forwarded to a real
    one, each call recorded as (name, [argument tuple of every entry])."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def _record(self, name, *args):
        entries = zip(*(a.ravel().tolist() for a in np.broadcast_arrays(*args)))
        self.calls.append((name, list(entries)))
        return getattr(self._rng, name)(*args)

    def random(self, size):
        return self._record("random", size)

    def hypergeometric(self, good, bad, sample):
        return self._record("hypergeometric", good, bad, sample)

    def binomial(self, n, p):
        return self._record("binomial", n, p)


def _fixed_outcome(name, entry):
    if name == "hypergeometric":
        good, bad, sample = entry
        return 0 in (good, bad, sample) or sample == good + bad
    n, p = entry
    return n == 0 or p in (0, 1)


def _check_drawn_counts(state, seed):
    """Sample one day through the recorder; return whether it went below
    the M-level, after checking that no count above the agents' is fixed
    and that the day equals the real generator's."""
    rec = RecordingGenerator(seed)
    r = multi_stock.sample_day_returns(**state, rng=rec)
    twin = multi_stock.sample_day_returns(**state, rng=np.random.default_rng(seed))
    assert np.array_equal(r, twin)
    assert rec.calls[0][0] == "random"
    if len(rec.calls) == 1:  # alike: nothing drawn below the M-level
        return False
    agents = rec.calls[-2:]
    assert [name for name, _ in agents] == ["binomial", "binomial"]
    assert [n for n, _ in agents[0][1]] == list(state["agents_per_stock"])
    for name, entries in rec.calls[1:-2]:
        fixed = [e for e in entries if _fixed_outcome(name, e)]
        assert not fixed, f"{name} drew fixed counts {fixed}"
    return True


@pytest.mark.parametrize("name", sorted(STATES) + sorted(EXACT_STATES))
def test_no_fixed_count_is_drawn_on_the_states(name):
    state = {key: np.asarray(value) for key, value in
             {**STATES, **EXACT_STATES}[name].items()}
    state["p_group"] = float(state["p_group"])
    for seed in range(300):
        _check_drawn_counts(state, seed)


# the multi-level benchmark's model C: the NYSE co-movement table
NYSE_RUN = dict(N=10_000, M=150, n=50, n_sec=5, H_M=0.363,
                H_j=(0.491, 0.414, 0.438, 0.431, 0.546), P_group=0.363,
                t_max=550, warmup=150, seed=29)


def test_no_fixed_count_is_drawn_at_the_nyse_table(monkeypatch):
    states = []
    sample = multi_stock.sample_day_returns

    def keep(agents_per_stock, igroups, sgroups, slots, p_group, rng):
        states.append(dict(agents_per_stock=agents_per_stock, igroups=igroups,
                           sgroups=sgroups, slots=slots, p_group=p_group))
        return sample(agents_per_stock, igroups, sgroups, slots, p_group, rng)

    monkeypatch.setattr(multi_stock, "sample_day_returns", keep)
    run_model_c(ModelConfig(**NYSE_RUN))
    monkeypatch.undo()
    drawn = 0
    for seed, state in enumerate(states):
        drawn += _check_drawn_counts(state, seed)
        if drawn == 200:
            break
    assert drawn == 200


# ------------------------------------------------- the stream of the arrays
#
# sample_day_returns does its bookkeeping on Python lists.  The array-based
# sampler it replaced is kept here as an oracle: the same generator calls
# with the same arguments in the same order, so every day, every generator
# state after it and every run must be equal.


def _oracle_spread_counts(buy, sell, pool, draws, rng):
    """_spread_counts on arrays, one entry per draw."""
    hypergeometric, binomial = rng.hypergeometric, rng.binomial
    buys, sells = [], []
    for b, s, n, d in zip(buy.tolist(), sell.tolist(), pool.tolist(), draws.tolist()):
        rest = n - b
        if d < n:
            x = d if b == n else hypergeometric(b, rest, d) if b and d else 0
            d -= x
            y = (d if s == rest else s if d == rest
                 else hypergeometric(s, rest - s, d) if s and d else 0)
        else:
            d -= n
            x = d if b == n else binomial(d, b / n) if b and d else 0
            d -= x
            y = d if s == rest else binomial(d, s / rest) if s and d else 0
            x += b
            y += s
        buys.append(x)
        sells.append(y)
    return np.array(buys), np.array(sells)


def oracle_day_returns(agents_per_stock, igroups, sgroups, slots, p_group, rng):
    """sample_day_returns on arrays: a side array and fancy-indexed cumsums
    at the M-level, sector counts repeated over their stocks."""
    u = rng.random(int(slots.max()))
    side = (u >= p_group).astype(np.int64) + (u >= 2.0 * p_group)
    if (side == side[0]).all():
        return agents_per_stock * (1, -1, 0)[side[0]]
    buy_m = (side == 0).cumsum()[slots - 1]
    sell_m = (side == 1).cumsum()[slots - 1]
    buy_s, sell_s = _oracle_spread_counts(buy_m, sell_m, slots, sgroups, rng)
    per_sector = len(igroups) // len(sgroups)
    buy_i, sell_i = _oracle_spread_counts(
        buy_s.repeat(per_sector), sell_s.repeat(per_sector),
        sgroups.repeat(per_sector), igroups, rng)
    buys, sells = multi_stock.draw_picks(buy_i, sell_i, igroups, agents_per_stock, rng)
    return buys - sells


def _assert_same_stream(states, seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for state in states:
        r = multi_stock.sample_day_returns(**state, rng=rng)
        assert np.array_equal(r, oracle_day_returns(**state, rng=twin))
        assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("name", sorted(STATES) + sorted(EXACT_STATES))
def test_sampler_keeps_the_array_stream_on_the_states(name):
    state = {key: np.asarray(value) for key, value in
             {**STATES, **EXACT_STATES}[name].items()}
    state["p_group"] = float(state["p_group"])
    _assert_same_stream([state] * 300, seed=len(name))


def test_sampler_keeps_the_array_stream_at_the_nyse_table(monkeypatch):
    states = []
    sample = multi_stock.sample_day_returns

    def keep(agents_per_stock, igroups, sgroups, slots, p_group, rng):
        states.append(dict(agents_per_stock=agents_per_stock, igroups=igroups,
                           sgroups=sgroups, slots=slots, p_group=p_group))
        return sample(agents_per_stock, igroups, sgroups, slots, p_group, rng)

    monkeypatch.setattr(multi_stock, "sample_day_returns", keep)
    run_model_c(ModelConfig(**NYSE_RUN))
    monkeypatch.undo()
    _assert_same_stream(states, seed=32)


# a small N with an unheld stock, one sector, one stock a sector, and a
# tiny H_M with thousands of M-group slots a day
ORACLE_RUNS = {
    "unheld_stock": dict(N=12, M=50, n=6, n_sec=2, H_M=0.3, H_j=(0.4, 0.5),
                         P_group=0.3, t_max=350, warmup=50, seed=3),
    "one_sector": dict(N=2000, M=50, n=6, n_sec=1, H_M=0.2, H_j=(0.5,),
                       P_group=0.3, t_max=350, warmup=50, seed=4),
    "stock_sectors": dict(N=2000, M=50, n=4, n_sec=4, H_M=0.2,
                          H_j=(0.3, 0.4, 0.5, 0.6), P_group=0.3, t_max=350,
                          warmup=50, seed=5),
    "tiny_market_degree": dict(N=10_000, M=50, n=10, n_sec=2, H_M=1e-4,
                               H_j=(0.3, 0.4), P_group=0.3, t_max=70,
                               warmup=50, seed=6),
}


@pytest.mark.parametrize("name", sorted(ORACLE_RUNS))
def test_runs_equal_the_array_samplers_runs(name, monkeypatch):
    config = ModelConfig(**ORACLE_RUNS[name])
    if name == "unheld_stock":
        agents = np.random.default_rng(config.seed).multinomial(
            config.N, np.full(config.n, 1.0 / config.n))
        assert (agents == 0).any()
    run = run_model_c(config)
    monkeypatch.setattr(multi_stock, "sample_day_returns", oracle_day_returns)
    oracle = run_model_c(config)
    assert np.array_equal(run.returns, oracle.returns)
    assert run.diagnostics.keys() == oracle.diagnostics.keys()
    for key, values in run.diagnostics.items():
        assert np.array_equal(values, oracle.diagnostics[key])
