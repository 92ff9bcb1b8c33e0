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
from .machinery import SimOutput, round_count, rprime_weights


def mgroup_slots(sgroup_count, n_stocks: int, h_m: float):
    """Market-level slots of one sector: max(1, round(N_S / (n * H_M))).

    Weakly decreasing in h_m for a frozen sector-level state, so a higher
    market co-movement degree never increases the M-group count.  Takes a
    count or an array of counts.
    """
    return np.maximum(1, round_count(sgroup_count / (n_stocks * h_m)))


def _draw_uniform(buy, sell, pool, draws, rng: np.random.Generator):
    """Buy/sell counts among `draws` picks made uniformly, with replacement.

    Each pool holds `pool` groups, `buy` of them buying and `sell` selling;
    all arguments are arrays of one shape (or broadcast to one).  The
    conditional binomial pair is the three-way multinomial with each
    category probability an exact ratio of integers.
    """
    buys = rng.binomial(draws, buy / pool)
    rest = pool - buy
    # rest == 0: every group of the pool buys, so no pick is left to split
    sells = rng.binomial(draws - buys, sell / np.maximum(rest, 1))
    return buys, sells


def _draw_spread(buy, sell, pool, draws, rng: np.random.Generator):
    """Buy/sell counts among `draws` picks that avoid repeats while possible.

    A pick takes each group of the pool once, in random order, before any
    group is taken twice; picks beyond the pool size are uniform.  The
    first part is a multivariate hypergeometric draw (skipped when every
    pick takes its whole pool), the rest a uniform draw (skipped when no
    pool runs out).
    """
    extra = draws - pool
    if (extra >= 0).all():
        buys, sells = buy, sell
    else:
        first = np.minimum(draws, pool)
        buys = rng.hypergeometric(buy, pool - buy, first)
        sells = rng.hypergeometric(sell, pool - buy - sell, first - buys)
    if (extra > 0).any():
        more_buys, more_sells = _draw_uniform(
            buy, sell, pool, np.maximum(extra, 0), rng
        )
        buys = buys + more_buys
        sells = sells + more_sells
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
    """
    u = rng.random(int(slots.max()))
    buy_m = (u < p_group).cumsum()[slots - 1]
    sell_m = (u < 2.0 * p_group).cumsum()[slots - 1] - buy_m
    buy_s, sell_s = _draw_spread(buy_m, sell_m, slots, sgroups, rng)

    per_sector = len(igroups) // len(sgroups)
    buy_i, sell_i = _draw_spread(
        buy_s.repeat(per_sector),
        sell_s.repeat(per_sector),
        sgroups.repeat(per_sector),
        igroups,
        rng,
    )
    buys, sells = _draw_uniform(buy_i, sell_i, igroups, agents_per_stock, rng)
    return buys - sells


def run_model_c(config: ModelConfig) -> SimOutput:
    """Simulate per-stock returns under three-level herding.

    Group counts per day and stock/sector:
      I-groups of stock k:  max(1, round(N_k / clamp(|R'_k|, 1, N_k)))
      S-groups of sector j: max(1, round(N_j_I / (n * (H_j - H_M))))
      M-group slots of j:   max(1, round(N_j_S / (n * H_M)))
    The market holds max_j slots_j M-groups; sector j's S-groups join only
    the first slots_j of them.  Each M-group buys with P_group, sells with
    P_group, holds otherwise, and all member agents follow.
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
    hold = 1.0 - 2.0 * p_group

    kept = t_max - warmup
    mgroup_trace = np.empty(kept, dtype=np.int64)
    igroup_trace = np.empty(kept)

    # Bootstrap: every agent trades on its own at the group probability.
    trades = rng.multinomial(
        agents_per_stock, (p_group, p_group, hold), size=(warmup, n_stocks)
    )
    history[:warmup] = trades[..., 0] - trades[..., 1]

    # an unheld stock (possible at small N) degenerates to one empty group
    holders = np.maximum(agents_per_stock, 1).astype(float)
    for t in range(warmup, t_max):
        rprime = k * (w @ history[t - m : t, :])
        avg_i = np.minimum(np.maximum(np.abs(rprime), 1.0), holders)
        igroups = np.maximum(1, round_count(agents_per_stock / avg_i))
        sector_igroups = igroups.reshape(n_sectors, per_sector).sum(axis=1)
        sgroups = np.maximum(1, round_count(sector_igroups / sgroup_scale))
        slots = mgroup_slots(sgroups, n_stocks, h_m)
        history[t] = sample_day_returns(
            agents_per_stock, igroups, sgroups, slots, p_group, rng
        )

        i = t - warmup
        mgroup_trace[i] = slots.max()
        igroup_trace[i] = igroups.mean()

    tickers = tuple(f"S{s + 1:03d}" for s in range(n_stocks))
    sector_of = {
        tickers[s]: str(sector_of_stock[s] + 1) for s in range(n_stocks)
    }
    return SimOutput(
        returns=history[warmup:].astype(np.int64),
        diagnostics={
            "M_groups": mgroup_trace.astype(float),
            "mean_I_groups": igroup_trace,
        },
        tickers=tickers,
        sector_of=sector_of,
    )
