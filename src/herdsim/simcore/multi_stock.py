"""Multi-stock market model with herding at stock, sector and market level.

Agents hold one stock each.  Every day they cluster in three stages:
I-groups inside each stock (driven by the stock's own weighted return),
S-groups inside each sector (driven by the sector's excess co-movement
H_j - H_M) and M-groups across the market (driven by H_M).  Each M-group
then buys or sells as a single block.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .machinery import (
    SimOutput,
    draw_picks,
    independent_day_return,
    round_count,
    rprime_weights,
)


def group_count(members, size):
    """Groups formed by `members` of the level below in groups of mean
    size `size`: max(1, round(members / size)), ties upward.

    Weakly decreasing in size, so a larger group never makes more of them.
    Takes counts and sizes as scalars or arrays.
    """
    return np.maximum(1, round_count(members / size))


def _spread_counts(buy, sell, pool, draws, rng: np.random.Generator):
    """Buy/sell counts among draws[k] picks that avoid repeats while
    possible, one draw (a sector at the S-level, a stock at the I-level) at
    a time.  Takes and returns lists.

    Entry g of buy, sell and pool serves len(draws) // len(pool)
    consecutive draws: at the S-level one sector's, at the I-level the
    stocks of the sector whose S-level outcome it is.  Each of those draws
    picks among pool[g] targets, buy[g] of them buying and sell[g] selling:
    each target once, in random order, before any is taken twice.  Picks
    within the pool are a multivariate hypergeometric draw; past it the
    whole pool is taken and the extra picks are uniform, a binomial pair as
    in `draw_picks`.  Given the level above, the draws are independent, so
    each is made by scalar calls, and only where its count is random: no
    pick, buyer or seller left gives 0, and a pick of every candidate, or
    among buyers (sellers) only, gives the forced count.
    """
    hypergeometric, binomial = rng.hypergeometric, rng.binomial
    per = len(draws) // len(pool)
    buys, sells = [], []
    for g, (b, s, n) in enumerate(zip(buy, sell, pool)):
        rest = n - b  # the targets that do not buy
        for d in draws[g * per:(g + 1) * per]:
            if d < n:  # distinct targets: buyers, then sellers among the rest
                x = d if b == n else hypergeometric(b, rest, d) if b and d else 0
                d -= x
                y = (d if s == rest else s if d == rest
                     else hypergeometric(s, rest - s, d) if s and d else 0)
            else:  # the whole pool, then d - n uniform picks
                d -= n
                x = d if b == n else binomial(d, b / n) if b and d else 0
                d -= x
                y = d if s == rest else binomial(d, s / rest) if s and d else 0
                x += b
                y += s
            buys.append(x)
            sells.append(y)
    return buys, sells


def sample_day_returns(
    agents_per_stock: np.ndarray,
    igroups: np.ndarray,
    sgroups: np.ndarray,
    slots: np.ndarray,
    p_group: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One day's per-stock returns of the three-level herding model.

    Stocks are laid out sector by sector, len(igroups) // len(sgroups) per
    sector.  The market holds max(slots) M-groups, each buying with
    p_group, selling with p_group and holding otherwise; sector j's
    sgroups[j] S-groups join its first slots[j] M-groups, stock s's
    igroups[s] I-groups join its sector's S-groups, and the stock's agents
    pick I-groups uniformly.  S-groups of a sector (I-groups of a stock)
    spread over distinct targets until the targets run out.

    Every map is exchangeable, so a stock's return depends only on how
    many of its groups end in a buy or a sell at each level: the counts
    are drawn level by level instead of the maps themselves, which gives
    the same joint law over all stocks.

    Each M-group's side comes from one uniform: buy below p_group, sell
    below 2 p_group, hold above.  Two running counts over the uniforms,
    of the buying and of the trading M-groups, read at slots - 1, give each
    sector's buy/sell counts among its slots.  Every sector's slots are a
    prefix of the market's M-groups, so on a day when all M-groups decide
    alike, which the two totals tell, every S-group, I-group and agent
    follows that one decision.  The day is then fixed by the M-level draw,
    and the levels below draw nothing: the law is the same, the stream is
    shorter.

    On other days each sector's S-level counts and each stock's I-level
    counts are drawn one at a time on Python lists, skipping every count
    whose outcome is fixed (`_spread_counts`), and the agents' counts are
    one `draw_picks` array pair over all stocks.
    """
    slot_list, sgroups = slots.tolist(), sgroups.tolist()
    u = rng.random(max(slot_list))
    buying = (u < p_group).cumsum()
    trading = (u < 2.0 * p_group).cumsum()  # buying or selling
    total, buy, trade = len(u), int(buying[-1]), int(trading[-1])
    if max(buy, trade - buy, total - trade) == total:  # alike: 1, -1 or 0
        return agents_per_stock * ((2 * buy - trade) // total)
    buy_m, trade_m = buying[slots - 1].tolist(), trading[slots - 1].tolist()
    sell_m = [t - b for t, b in zip(trade_m, buy_m)]
    buy_s, sell_s = _spread_counts(buy_m, sell_m, slot_list, sgroups, rng)
    buy_i, sell_i = _spread_counts(buy_s, sell_s, sgroups, igroups.tolist(), rng)
    buys, sells = draw_picks(np.array(buy_i), np.array(sell_i), igroups,
                             agents_per_stock, rng)
    return buys - sells


def run_model_c(config: ModelConfig) -> SimOutput:
    """Simulate per-stock returns under three-level herding.

    Group counts per day and stock/sector, each through group_count:
      I-groups of stock k:  max(1, round(N_k / clamp(|R'_k|, 1, N_k)))
      S-groups of sector j: max(1, round(N_j_I / (n * (H_j - H_M))))
      M-group slots of j:   max(1, round(N_j_S / (n * H_M)))
    The market holds max_j slots_j M-groups; sector j's S-groups join only
    the first slots_j of them.  Each M-group buys with P_group, sells with
    P_group, holds otherwise, and all member agents follow.  On a day when
    every M-group decides alike, each stock's return is that decision
    times its agent count, with no draw below the M-level.  Each day's
    I-group and slot counts are kept, and the diagnostics (the market's
    M-groups, the mean I-group count) are taken from them after the loop.
    """
    config.validate_for("c")
    rng = np.random.default_rng(config.seed)
    n_agents = config.N
    n_stocks = config.n
    n_sectors = config.n_sec
    per_sector = n_stocks // n_sectors
    p_group = float(config.P_group)
    h_m = float(config.H_M)
    # I-groups per S-group in sector j: n * (H_j - H_M)
    sgroup_scale = n_stocks * (np.asarray(config.H_j, dtype=float) - h_m)
    m = config.M
    k = config.k_for("c")
    warmup = config.warmup_days
    t_max = config.t_max

    # Agents pick their stock uniformly at random, once.
    agents_per_stock = rng.multinomial(
        n_agents, np.full(n_stocks, 1.0 / n_stocks)
    )
    sector_of_stock = np.repeat(np.arange(n_sectors), per_sector)

    w = rprime_weights(m)
    history = np.zeros((t_max, n_stocks), dtype=float)

    kept = t_max - warmup
    igroup_trace = np.empty((kept, n_stocks), dtype=np.int64)
    slot_trace = np.empty((kept, n_sectors), dtype=np.int64)

    # Bootstrap: every agent trades on its own at the group probability.
    history[:warmup] = independent_day_return(
        agents_per_stock, p_group, rng, (warmup, n_stocks)
    )

    # an unheld stock (possible at small N) degenerates to one empty group
    holders = np.maximum(agents_per_stock, 1).astype(float)
    for t in range(warmup, t_max):
        rprime = k * (w @ history[t - m : t, :])
        avg_i = np.minimum(np.maximum(np.abs(rprime), 1.0), holders)
        i = t - warmup
        igroups = igroup_trace[i] = group_count(agents_per_stock, avg_i)
        sector_igroups = igroups.reshape(n_sectors, per_sector).sum(axis=1)
        sgroups = group_count(sector_igroups, sgroup_scale)
        # n H_M S-groups a slot
        slots = slot_trace[i] = group_count(sgroups, n_stocks * h_m)
        history[t] = sample_day_returns(
            agents_per_stock, igroups, sgroups, slots, p_group, rng
        )

    tickers = tuple(f"S{s + 1:03d}" for s in range(n_stocks))
    # sector ids 1..n_sec, zero-padded so they sort as strings in model order
    width = len(str(n_sectors))
    sector_of = {t: f"{j:0{width}d}" for t, j in zip(tickers, sector_of_stock + 1)}
    return SimOutput(
        returns=history[warmup:].astype(np.int64),
        diagnostics={
            "M_groups": slot_trace.max(axis=1).astype(float),
            # exact: every row sum is an integer below 2**53
            "mean_I_groups": igroup_trace.mean(axis=1),
        },
        tickers=tickers,
        sector_of=sector_of,
    )
