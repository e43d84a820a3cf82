import numpy as np
import pytest
from conftest import log_uniform_profile, random_strategy

from dispersal import (
    CongestionPolicy,
    GameInstance,
    SimConfig,
    Strategy,
    ValidationError,
    ValueProfile,
    coverage,
    coverage_optimum,
    empirical_site_values,
    expected_payoff_profile,
    simulate,
    site_values,
)
from dispersal.montecarlo import _play_rounds, _player_sites

TWO_SITES = ValueProfile((1.0, 0.5))
EXCLUSIVE = GameInstance(TWO_SITES, 2, CongestionPolicy.exclusive())


class TestSimConfig:
    def test_requires_one_strategy_per_player(self):
        with pytest.raises(ValidationError):
            SimConfig(10, 0, EXCLUSIVE, (Strategy((0.5, 0.5)),))

    def test_rejects_nonpositive_rounds(self):
        with pytest.raises(ValidationError):
            SimConfig.symmetric(0, 0, EXCLUSIVE, Strategy((0.5, 0.5)))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValidationError):
            SimConfig.symmetric(10, -1, EXCLUSIVE, Strategy((0.5, 0.5)))


class TestSimulate:
    def test_guaranteed_collision_is_deterministic(self):
        config = SimConfig.symmetric(500, 7, EXCLUSIVE, Strategy.point_mass(1, 2))
        report = simulate(config)
        assert report.mean_payoff_per_player == (0.0, 0.0)
        assert report.std_error_payoff == (0.0, 0.0)
        assert report.mean_coverage == 1.0
        assert report.std_error_coverage == 0.0

    def test_identical_seeds_reproduce_bit_exactly(self):
        strategy = coverage_optimum(TWO_SITES, 2).strategy
        a = simulate(SimConfig.symmetric(20_000, 123, EXCLUSIVE, strategy))
        b = simulate(SimConfig.symmetric(20_000, 123, EXCLUSIVE, strategy))
        assert a == b

    def test_different_seeds_differ(self):
        strategy = coverage_optimum(TWO_SITES, 2).strategy
        a = simulate(SimConfig.symmetric(20_000, 123, EXCLUSIVE, strategy))
        b = simulate(SimConfig.symmetric(20_000, 124, EXCLUSIVE, strategy))
        assert a != b

    def test_single_round_is_degenerate_with_zero_stderr(self):
        report = simulate(SimConfig.symmetric(1, 5, EXCLUSIVE, Strategy((0.5, 0.5))))
        assert report.degenerate
        assert report.std_error_coverage == 0.0

    def test_estimates_match_analytics_at_optimum(self):
        strategy = coverage_optimum(TWO_SITES, 2).strategy
        report = simulate(SimConfig.symmetric(100_000, 2026, EXCLUSIVE, strategy))
        for mean, err in zip(report.mean_payoff_per_player, report.std_error_payoff):
            assert abs(mean - 1 / 3) <= 5 * err
        assert abs(report.mean_coverage - 7 / 6) <= 5 * report.std_error_coverage

    def test_estimates_match_analytics_for_heterogeneous_profiles(self):
        rng = np.random.default_rng(44)
        profile = log_uniform_profile(rng, 4)
        instance = GameInstance(profile, 3, CongestionPolicy.sharing())
        strategies = tuple(random_strategy(rng, 4) for _ in range(3))
        report = simulate(SimConfig(200_000, 9, instance, strategies))
        for i in range(3):
            opponents = [strategies[j] for j in range(3) if j != i]
            expected = expected_payoff_profile(instance, strategies[i], opponents)
            assert abs(report.mean_payoff_per_player[i] - expected) <= 5 * report.std_error_payoff[i]

    def test_coverage_never_exceeds_total_value(self):
        rng = np.random.default_rng(45)
        profile = log_uniform_profile(rng, 5)
        instance = GameInstance(profile, 4, CongestionPolicy.sharing())
        config = SimConfig.symmetric(5_000, 3, instance, random_strategy(rng, 5))
        _, _, covered = _play_rounds(config)
        assert float(np.max(covered)) <= profile.total + 1e-12

    def test_negative_weights_produce_negative_payoffs(self):
        instance = GameInstance(TWO_SITES, 2, CongestionPolicy.from_table((1.0, -1.0)))
        report = simulate(SimConfig.symmetric(200, 11, instance, Strategy.point_mass(1, 2)))
        assert report.mean_payoff_per_player == (-1.0, -1.0)

    def test_occupancy_counts_do_not_wrap_beyond_int16(self):
        players = 33_000
        instance = GameInstance(ValueProfile((1.0,)), players, CongestionPolicy.sharing())
        report = simulate(SimConfig.symmetric(1, 0, instance, Strategy((1.0,))))
        assert report.mean_payoff_per_player == (1.0 / players,) * players
        assert report.mean_coverage == 1.0


class TestPlayerStreams:
    def test_stream_depends_only_on_seed_and_player_index(self):
        strategy = Strategy((0.4, 0.6))
        a = _player_sites(strategy, 1000, seed=8, player=2)
        b = _player_sites(strategy, 1000, seed=8, player=2)
        assert np.array_equal(a, b)

    def test_longer_runs_extend_shorter_ones(self):
        strategy = Strategy((0.4, 0.6))
        short = _player_sites(strategy, 100, seed=8, player=0)
        long = _player_sites(strategy, 1000, seed=8, player=0)
        assert np.array_equal(short, long[:100])

    def test_players_draw_independent_streams(self):
        strategy = Strategy((0.5, 0.5))
        a = _player_sites(strategy, 1000, seed=8, player=0)
        b = _player_sites(strategy, 1000, seed=8, player=1)
        assert not np.array_equal(a, b)

    def test_zero_probability_sites_are_never_drawn(self):
        strategy = Strategy((0.0, 1.0, 0.0))
        sites = _player_sites(strategy, 2000, seed=1, player=0)
        assert set(np.unique(sites)) == {1}


class TestEmpiricalSiteValues:
    def test_uncontested_site_pays_exactly_its_value(self):
        config = SimConfig.symmetric(300, 2, EXCLUSIVE, Strategy.point_mass(1, 2))
        values = empirical_site_values(config)
        assert values[1] == 0.5

    def test_contested_site_pays_collision_weight(self):
        instance = GameInstance(TWO_SITES, 2, CongestionPolicy.sharing())
        config = SimConfig.symmetric(300, 2, instance, Strategy.point_mass(1, 2))
        values = empirical_site_values(config)
        assert values[0] == 0.5

    def test_matches_analytic_site_values(self):
        strategy = coverage_optimum(TWO_SITES, 2).strategy
        config = SimConfig.symmetric(200_000, 31, EXCLUSIVE, strategy)
        estimates = empirical_site_values(config)
        analytic = site_values(EXCLUSIVE, strategy)
        # Bernoulli-style reward spread stays below the site value scale.
        for est, want in zip(estimates, analytic):
            assert est == pytest.approx(want, abs=5e-3)

    def test_requires_symmetric_residents(self):
        config = SimConfig(10, 0, EXCLUSIVE, (Strategy((0.5, 0.5)), Strategy((0.6, 0.4))))
        with pytest.raises(ValidationError):
            empirical_site_values(config)


def test_mean_coverage_consistent_with_analytic_coverage():
    rng = np.random.default_rng(46)
    profile = log_uniform_profile(rng, 3)
    instance = GameInstance(profile, 2, CongestionPolicy.exclusive())
    strategy = random_strategy(rng, 3)
    report = simulate(SimConfig.symmetric(150_000, 17, instance, strategy))
    expected = coverage(profile, 2, strategy)
    assert abs(report.mean_coverage - expected) <= 5 * report.std_error_coverage
