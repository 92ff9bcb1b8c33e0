from dataclasses import dataclass

import numpy as np
import pytest

from herdsim.errors import ConfigError
from herdsim.simcore import (
    ModelConfig,
    horizon_weights,
    mgroup_slots,
    round_count,
    rprime_weights,
    run_model_b,
    sample_aggregate_return,
    single_stock,
    weighted_returns,
)


@dataclass(frozen=True)
class ClusterPartition:
    """Assignment of agents to decision clusters for one day."""

    assignment: np.ndarray
    n_clusters: int

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.n_clusters)


def partition_clusters(n_agents, avg_cluster_size, rng) -> ClusterPartition:
    """Uniformly assign agents to max(1, round(N / avg_size)) clusters.

    avg_cluster_size is clamped into [1, n_agents] first.
    """
    if n_agents < 1:
        raise ConfigError(f"n_agents must be >= 1, got {n_agents}")
    avg = min(max(float(avg_cluster_size), 1.0), float(n_agents))
    n_clusters = max(1, round_count(n_agents / avg))
    assignment = rng.integers(0, n_clusters, size=n_agents)
    return ClusterPartition(assignment=assignment, n_clusters=n_clusters)


def cluster_decide(partition: ClusterPartition, p_buy, p_sell, rng):
    """Draw one decision per cluster and give it to every member.

    Returns (per-agent decisions in {-1, 0, +1}, aggregate return): the
    materialized agents whose law `sample_aggregate_return` draws directly.
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


def perceived_volatility(volatilities, gamma) -> float:
    """xi of the last M daily volatilities, through model B's own helpers."""
    v = np.asarray(volatilities, dtype=float)
    if len(v) != len(gamma):
        raise ConfigError(f"need exactly {len(gamma)} volatilities, got {len(v)}")
    coefficients = single_stock._volatility_coefficients(gamma)
    return single_stock._xi(coefficients, v, float(v.sum()))


class TestHorizonWeights:
    def test_single_horizon(self):
        assert horizon_weights(1).tolist() == [1.0]
        assert rprime_weights(1).tolist() == [1.0]

    def test_two_horizons_hand_values(self):
        gamma = horizon_weights(2)
        denom = 1.0 + 2.0**-1.12
        assert gamma[0] == pytest.approx(1.0 / denom, abs=1e-15)
        assert gamma[1] == pytest.approx(2.0**-1.12 / denom, abs=1e-15)

    def test_normalization_and_monotonicity(self):
        gamma = horizon_weights(150)
        assert abs(gamma.sum() - 1.0) < 1e-12
        assert np.all(np.diff(gamma) < 0)
        assert gamma[0] > 0

    def test_rprime_weights_end_at_one(self):
        # the most recent day is inside every horizon; older days in fewer
        w = rprime_weights(10)
        assert w[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(w) > 0)


class TestWeightedReturn:
    def test_zero_history(self):
        assert weighted_returns(np.zeros(5), 5, 1.0).tolist() == [0.0]

    def test_two_day_hand_expansion(self):
        # history R(t-1) = -1, R(t) = 2: R' = gamma1*2 + gamma2*(2 - 1)
        gamma = horizon_weights(2)
        expected = 2.0 * gamma[0] + gamma[1]
        assert weighted_returns([-1.0, 2.0], 2, 1.0)[0] == pytest.approx(
            expected, abs=1e-15
        )

    def test_linearity_in_history(self):
        rng = np.random.default_rng(0)
        hist = rng.normal(size=20)
        assert weighted_returns(3.5 * hist, 20, 1.0)[0] == pytest.approx(
            3.5 * weighted_returns(hist, 20, 1.0)[0], rel=1e-12
        )

    def test_short_history_rejected(self):
        with pytest.raises(ConfigError):
            weighted_returns([1.0, 2.0], 3, 1.0)

    @pytest.mark.parametrize("m", [1, 2, 50, 150, 500])
    @pytest.mark.parametrize("kind", ["float", "integer"])
    def test_every_window_matches_the_day_loop_dot(self, m, kind):
        # the calibrator's R' series against the day loops' per-day dot
        rng = np.random.default_rng(m)
        n, k = 2 * m + 37, 0.1
        if kind == "float":
            x = rng.normal(0.0, 0.01, n)
        else:
            x = rng.integers(-300, 301, n)
        w = rprime_weights(m)
        got = weighted_returns(x, m, k)
        expected = [k * np.dot(w, x[t - m : t]) for t in range(m, n + 1)]
        assert len(got) == n - m + 1
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


class TestPartitions:
    def test_avg_size_one_gives_singletons(self):
        rng = np.random.default_rng(1)
        part = partition_clusters(500, 1.0, rng)
        assert part.n_clusters == 500
        assert part.assignment.shape == (500,)

    def test_avg_size_n_gives_one_cluster(self):
        rng = np.random.default_rng(1)
        part = partition_clusters(500, 500.0, rng)
        assert part.n_clusters == 1
        assert np.all(part.assignment == 0)

    def test_avg_size_clamped(self):
        rng = np.random.default_rng(1)
        assert partition_clusters(100, 1e9, rng).n_clusters == 1
        assert partition_clusters(100, 0.01, rng).n_clusters == 100

    def test_every_agent_assigned_once(self):
        rng = np.random.default_rng(2)
        part = partition_clusters(1000, 25.0, rng)
        assert part.sizes().sum() == 1000
        assert part.assignment.min() >= 0
        assert part.assignment.max() < part.n_clusters

    def test_mean_occupancy_monte_carlo(self):
        # N = 1e4, average size 25 -> 400 clusters; mean occupancy of the
        # occupied clusters stays within 25 +/- 1 over 100 seeds.
        occupancies = []
        for seed in range(100):
            part = partition_clusters(10_000, 25.0, np.random.default_rng(seed))
            assert part.n_clusters == 400
            sizes = part.sizes()
            occupancies.append(sizes[sizes > 0].mean())
        assert abs(np.mean(occupancies) - 25.0) < 1.0


class TestClusterDecide:
    def test_no_trading(self):
        rng = np.random.default_rng(3)
        part = partition_clusters(200, 10.0, rng)
        phi, total = cluster_decide(part, 0.0, 0.0, rng)
        assert total == 0
        assert np.all(phi == 0)

    def test_certain_buy_single_cluster(self):
        rng = np.random.default_rng(3)
        part = partition_clusters(321, 321.0, rng)
        phi, total = cluster_decide(part, 1.0, 0.0, rng)
        assert total == 321
        assert np.all(phi == 1)

    def test_probability_bounds_enforced(self):
        rng = np.random.default_rng(3)
        part = partition_clusters(10, 1.0, rng)
        with pytest.raises(ConfigError):
            cluster_decide(part, 0.7, 0.4, rng)

    def test_singleton_variance_matches_binomial(self):
        # True singleton clusters (one agent each) are independent agents:
        # Var(R) = N * 2p within 5% over 1000 draws.
        rng = np.random.default_rng(11)
        n, p = 10_000, 0.0154
        part = ClusterPartition(assignment=np.arange(n), n_clusters=n)
        draws = [cluster_decide(part, p, p, rng)[1] for _ in range(1000)]
        assert np.var(draws) == pytest.approx(n * 2 * p, rel=0.05)

    def test_uniform_partition_inflates_variance(self):
        # Uniform assignment at average size 1 leaves Poisson occupancy,
        # so Var(R) = (2N - 1) * 2p rather than N * 2p.
        rng = np.random.default_rng(11)
        n, p = 10_000, 0.0154
        draws = []
        for _ in range(1000):
            part = partition_clusters(n, 1.0, rng)
            draws.append(cluster_decide(part, p, p, rng)[1])
        assert np.var(draws) == pytest.approx((2 * n - 1) * 2 * p, rel=0.1)

    def test_members_share_cluster_decision(self):
        rng = np.random.default_rng(4)
        part = partition_clusters(300, 30.0, rng)
        phi, _ = cluster_decide(part, 0.4, 0.4, rng)
        for cluster in range(part.n_clusters):
            members = phi[part.assignment == cluster]
            if len(members):
                assert len(set(members.tolist())) == 1


class TestAggregateSampler:
    def test_matches_full_partition_law(self):
        # Two-stage sampling must reproduce the mean/variance of the
        # materialized partition + decision path.
        n_agents, n_clusters, p = 1000, 10, 0.3
        rng = np.random.default_rng(5)
        fast = [
            sample_aggregate_return(n_agents, n_clusters, p, p, rng)
            for _ in range(20_000)
        ]
        rng = np.random.default_rng(6)
        slow = []
        for _ in range(4000):
            part = partition_clusters(n_agents, n_agents / n_clusters, rng)
            slow.append(cluster_decide(part, p, p, rng)[1])
        assert abs(np.mean(fast) - np.mean(slow)) < 6.0
        assert np.var(fast) == pytest.approx(np.var(slow), rel=0.1)

    def test_extremes(self):
        rng = np.random.default_rng(7)
        assert sample_aggregate_return(100, 1, 1.0, 0.0, rng) == 100
        assert sample_aggregate_return(100, 5, 0.0, 0.0, rng) == 0


class TestPerceivedVolatility:
    def test_constant_window_is_neutral(self):
        gamma = horizon_weights(4)
        assert perceived_volatility([2.0, 2.0, 2.0, 2.0], gamma) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_window_is_neutral(self):
        gamma = horizon_weights(3)
        assert perceived_volatility([0.0, 0.0, 0.0], gamma) == 1.0

    def test_three_day_hand_expansion(self):
        gamma = horizon_weights(3)
        # window (3, 1, 2): one-day mean 2, two-day 1.5, three-day 2
        expected = (gamma[0] * 2.0 + gamma[1] * 1.5 + gamma[2] * 2.0) / 2.0
        assert perceived_volatility([3.0, 1.0, 2.0], gamma) == pytest.approx(
            expected, abs=1e-14
        )

    @staticmethod
    def cumsum_definition(v, gamma):
        """xi as defined: horizon means by cumsum over the reversed window."""
        means = np.cumsum(np.asarray(v, dtype=float)[::-1]) / np.arange(
            1, len(gamma) + 1
        )
        return 1.0 if means[-1] <= 0.0 else float(np.dot(gamma, means) / means[-1])

    @pytest.mark.parametrize("m", [1, 2, 3, 50, 150, 500])
    def test_coefficient_form_matches_cumsum_definition(self, m):
        rng = np.random.default_rng(m)
        gamma = horizon_weights(m)
        windows = [
            np.zeros(m),
            rng.random(m),
            rng.integers(0, 60, m).astype(float),
            np.where(rng.random(m) < 0.9, 0.0, rng.integers(1, 9, m)),
        ]
        for v in windows + [rng.exponential(5.0, m) for _ in range(20)]:
            expected = self.cumsum_definition(v, gamma)
            assert perceived_volatility(v, gamma) == pytest.approx(
                expected, rel=1e-12, abs=1e-12
            )
        assert perceived_volatility(np.zeros(m), gamma) == 1.0

    @pytest.mark.parametrize(
        "overrides",
        [dict(N=1000, c=0.5), dict(N=1, p=0.001, c=0.5)],
        ids=["busy", "mostly-flat"],
    )
    def test_model_b_trace_is_xi_of_each_window(self, overrides):
        config = ModelConfig(M=50, t_max=600, warmup=50, seed=3, **overrides)
        with np.errstate(all="raise"):
            out = run_model_b(config)
        xi = out.diagnostics["xi"]
        v = np.abs(out.returns.astype(float))
        gamma = horizon_weights(config.M)
        m = config.M
        expected = [
            self.cumsum_definition(v[i - m : i], gamma) for i in range(m, len(v))
        ]
        np.testing.assert_allclose(xi[m:], expected, rtol=1e-12, atol=1e-12)
        assert np.all(np.isfinite(xi))
        flat = [i for i in range(m, len(v)) if not v[i - m : i].any()]
        if overrides["N"] == 1:
            # the window sum is zero on some days; xi is then exactly 1
            assert flat and np.all(xi[flat] == 1.0)


class TestMgroupSlots:
    def test_weakly_decreasing_in_h_m(self):
        for sgroups in (1, 7, 40, 163):
            slots = [mgroup_slots(sgroups, 50, h) for h in np.linspace(0.05, 0.9, 60)]
            assert all(a >= b for a, b in zip(slots, slots[1:]))
            assert min(slots) >= 1


class TestModelConfig:
    def test_defaults_validate(self):
        ModelConfig().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("N", 0),
            ("M", 10),
            ("M", 700),
            ("p", 0.0),
            ("p", 0.6),
            ("k", -2.0),
            ("alpha", 0.0),
            ("alpha", 2.0),
            ("c", 1.5),
            ("tau", 0),
            ("a", 1.0),
            ("f", 0.5),
            ("b1", 0.0),
            ("t_max", 0),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ModelConfig(**{field: value}).validate()

    def test_warmup_must_cover_horizon(self):
        with pytest.raises(ConfigError):
            ModelConfig(M=100, warmup=50).validate()

    def test_t_max_must_exceed_warmup(self):
        with pytest.raises(ConfigError):
            ModelConfig(M=50, warmup=50, t_max=50).validate()

    def test_beta_is_complement(self):
        cfg = ModelConfig(alpha=1.2)
        assert cfg.alpha + cfg.beta == 2.0

    def test_model_c_requires_sector_fields(self):
        with pytest.raises(ConfigError):
            ModelConfig(n=10, n_sec=2).validate_for("c")

    def test_model_c_sector_violation_names_sector(self):
        cfg = ModelConfig(
            n=10, n_sec=2, H_M=0.4, H_j=(0.5, 0.3), P_group=0.3
        )
        with pytest.raises(ConfigError, match="sector 2"):
            cfg.validate_for("c")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            ModelConfig.from_dict({"N": 10, "bogus": 1})

    def test_fragment_overlay_ignores_report_keys(self):
        base = ModelConfig(N=500, M=50, t_max=200)
        cfg = ModelConfig.from_fragment(
            {"alpha": 1.1, "delta_R": -2, "beta": 0.9, "delta_r": 0.03,
             "delta_F": 0.4, "a": 0.2},
            base=base,
        )
        assert cfg.alpha == 1.1
        assert cfg.delta_R == -2
        assert cfg.a == 0.2
        assert cfg.N == 500

    def test_per_model_gain_defaults(self):
        cfg = ModelConfig()
        assert cfg.k_for("a") == cfg.k_for("b") == cfg.k_for("d")
        assert cfg.k_for("c") > cfg.k_for("a")
        assert ModelConfig(k=0.7).k_for("c") == 0.7
