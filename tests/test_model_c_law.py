"""Model C's count-level day sampler against the per-group reference loop.

`reference_day_returns` is the original implementation of one day of the
three-level herding model: it draws the M-group decisions, the S-group to
M-group map of every sector, and for every stock the agents' I-group sizes
and the I-group to S-group map, then sums the agents' decisions.
`multi_stock.sample_day_returns` draws only how many groups at each level
end in a buy or a sell.  The two consume the random stream differently, so
they are compared in law: per-stock moments, P(r = 0) and cross-stock
covariances on fixed states, then whole runs over many seeds.
"""

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
