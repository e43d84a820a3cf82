import itertools

import numpy as np
import pytest
from conftest import log_uniform_profile, random_nonexclusive_table

from dispersal import (
    CongestionPolicy,
    GameInstance,
    Strategy,
    ValidationError,
    ValueProfile,
    coverage,
    coverage_grid_oracle,
    coverage_optimum,
    solve_ifd,
    symmetric_payoff,
    symmetric_price_of_anarchy,
    verify_ifd,
    welfare_optimum,
)
from dispersal.ess import project_to_simplex

TWO_SITES = ValueProfile((1.0, 0.5))


def exclusive(profile, players=2):
    return GameInstance(profile, players, CongestionPolicy.exclusive())


class TestCoverageOptimum:
    def test_two_site_closed_form(self):
        result = coverage_optimum(TWO_SITES, 2)
        assert result.strategy.probs == pytest.approx((2 / 3, 1 / 3), abs=1e-10)
        assert result.support_size == 2
        assert result.normalizer == pytest.approx(1 / 3, abs=1e-10)
        assert result.common_value == pytest.approx(1 / 3, abs=1e-10)

    @pytest.mark.parametrize("players", [2, 3, 6])
    def test_constant_profile_gives_uniform(self, players):
        profile = ValueProfile((0.8,) * 5)
        result = coverage_optimum(profile, players)
        assert result.strategy.probs == pytest.approx((0.2,) * 5, abs=1e-12)
        assert result.support_size == 5

    def test_low_value_site_left_unvisited(self):
        result = coverage_optimum(ValueProfile((1.0, 0.5, 0.01)), 2)
        assert result.support_size == 2
        assert result.strategy.probs == pytest.approx((2 / 3, 1 / 3, 0.0), abs=1e-10)
        assert 0.01 < result.common_value

    def test_single_site(self):
        result = coverage_optimum(ValueProfile((0.7,)), 4)
        assert result.strategy.probs == (1.0,)
        assert result.common_value == 0.0

    def test_exactly_boundary_site_drops_out_of_support(self):
        # The Pareto shape assigns the third site probability 0 exactly;
        # its value then ties the common value from outside the support.
        profile = ValueProfile((1.0, 1.0, 0.5))
        result = coverage_optimum(profile, 2)
        assert result.strategy.probs == pytest.approx((0.5, 0.5, 0.0), abs=1e-12)
        assert result.support_size == 2
        assert result.common_value == pytest.approx(0.5, abs=1e-12)
        report = verify_ifd(exclusive(profile), result.strategy)
        assert report.passed
        assert report.boundary_flag

    def test_optimum_is_equilibrium_of_exclusive_policy(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sites = int(rng.integers(1, 15))
            players = int(rng.integers(2, 7))
            profile = log_uniform_profile(rng, sites)
            result = coverage_optimum(profile, players)
            report = verify_ifd(exclusive(profile, players), result.strategy, tolerance=1e-10)
            assert report.passed, report
            assert report.common_value == pytest.approx(result.common_value, abs=1e-10)

    def test_rejects_single_player(self):
        with pytest.raises(ValidationError):
            coverage_optimum(TWO_SITES, 1)


class TestVerifyIfd:
    def test_residual_measures_value_spread(self):
        report = verify_ifd(exclusive(TWO_SITES), Strategy((0.5, 0.5)))
        assert report.residual == pytest.approx(0.25, abs=1e-12)
        assert not report.passed

    def test_equalized_strategy_passes(self):
        report = verify_ifd(exclusive(TWO_SITES), Strategy((2 / 3, 1 / 3)))
        assert report.residual <= 1e-12
        assert report.passed
        assert report.support_size == 2
        assert report.common_value == pytest.approx(1 / 3, abs=1e-12)

    def test_boundary_tie_is_flagged_not_failed(self):
        instance = GameInstance(TWO_SITES, 2, CongestionPolicy.sharing())
        report = verify_ifd(instance, Strategy((1.0, 0.0)))
        assert report.passed
        assert report.boundary_flag
        assert report.common_value == pytest.approx(0.5, abs=1e-12)

    def test_gap_in_support_is_reported(self):
        instance = exclusive(ValueProfile((1.0, 1.0, 1.0)), 2)
        report = verify_ifd(instance, Strategy((0.5, 0.0, 0.5)))
        assert not report.support_is_prefix
        assert not report.passed


class TestSolveIfd:
    def test_matches_closed_form_under_exclusive(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            sites = int(rng.integers(1, 18))
            players = int(rng.integers(2, 8))
            profile = log_uniform_profile(rng, sites)
            report = solve_ifd(exclusive(profile, players))
            optimum = coverage_optimum(profile, players).strategy
            gap = np.max(np.abs(report.strategy.as_array() - optimum.as_array()))
            assert gap <= 1e-8
            assert report.residual <= 1e-8

    def test_sharing_boundary_case(self):
        report = solve_ifd(GameInstance(TWO_SITES, 2, CongestionPolicy.sharing()))
        assert report.strategy.probs == pytest.approx((1.0, 0.0), abs=1e-9)
        assert report.common_value == pytest.approx(0.5, abs=1e-9)
        assert report.boundary_flag

    def test_single_site(self):
        report = solve_ifd(GameInstance(ValueProfile((2.0,)), 3, CongestionPolicy.sharing()))
        assert report.strategy.probs == (1.0,)

    def test_constant_policy_degenerates_to_best_site(self):
        instance = GameInstance(ValueProfile((1.0, 0.9)), 2, CongestionPolicy.from_table((1.0, 1.0)))
        report = solve_ifd(instance)
        assert report.strategy.probs == (1.0, 0.0)
        assert report.common_value == pytest.approx(1.0, abs=1e-12)

    def test_negative_collision_weights(self):
        instance = GameInstance(TWO_SITES, 2, CongestionPolicy.from_table((1.0, -0.5)))
        report = solve_ifd(instance)
        assert report.strategy.probs == pytest.approx((5 / 9, 4 / 9), abs=1e-9)
        assert report.common_value == pytest.approx(1 / 6, abs=1e-9)

    def test_deterministic_across_calls(self):
        instance = GameInstance(log_uniform_profile(np.random.default_rng(4), 9), 4, CongestionPolicy.sharing())
        first = solve_ifd(instance)
        second = solve_ifd(instance)
        assert first.strategy.probs == second.strategy.probs

    def test_residuals_stay_within_solver_tolerance(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            sites = int(rng.integers(2, 12))
            players = int(rng.integers(2, 7))
            policy = random_nonexclusive_table(rng, players)
            report = solve_ifd(GameInstance(log_uniform_profile(rng, sites), players, policy))
            assert report.residual <= 1e-8


class TestWelfareOptimum:
    def test_symmetric_two_sites(self):
        result = welfare_optimum(exclusive(ValueProfile((1.0, 1.0))))
        assert result.strategy.probs == pytest.approx((0.5, 0.5), abs=1e-7)
        assert result.payoff == pytest.approx(0.5, abs=1e-9)

    def test_single_site_forced(self):
        instance = GameInstance(ValueProfile((0.8,)), 3, CongestionPolicy.sharing())
        result = welfare_optimum(instance)
        assert result.strategy.probs == (1.0,)
        assert result.payoff == pytest.approx(0.8 / 3, abs=1e-12)

    def test_unequal_sites_still_split_evenly_under_exclusive(self):
        result = welfare_optimum(exclusive(TWO_SITES))
        assert result.strategy.probs == pytest.approx((0.5, 0.5), abs=1e-7)
        assert result.payoff == pytest.approx(0.375, abs=1e-9)
        assert coverage(TWO_SITES, 2, result.strategy) == pytest.approx(1.125, abs=1e-7)

    def test_matches_dense_grid_on_two_sites(self):
        instance = GameInstance(ValueProfile((1.0, 0.4)), 3, CongestionPolicy.sharing())
        result = welfare_optimum(instance)
        ts = np.linspace(0.0, 1.0, 20001)
        best = max(
            symmetric_payoff(instance, Strategy((t, 1.0 - t))) for t in ts
        )
        assert result.payoff >= best - 1e-9

    def test_five_sites_beat_uniform(self):
        instance = GameInstance(log_uniform_profile(np.random.default_rng(8), 5), 3, CongestionPolicy.sharing())
        result = welfare_optimum(instance)
        assert result.payoff >= symmetric_payoff(instance, Strategy.uniform(5)) - 1e-12

    def test_deterministic_across_calls(self):
        instance = GameInstance(log_uniform_profile(np.random.default_rng(8), 5), 3, CongestionPolicy.sharing())
        a = welfare_optimum(instance)
        b = welfare_optimum(instance)
        assert a.strategy.probs == b.strategy.probs
        assert a.payoff == b.payoff

    def test_sharing_optimum_is_coverage_optimum_over_players(self):
        # Under sharing each player's payoff is coverage / k, so the welfare
        # optimum must reach the closed-form optimum's coverage over k.
        rng = np.random.default_rng(81)
        for _ in range(8):
            sites = int(rng.integers(2, 21))
            players = int(rng.integers(2, 9))
            profile = log_uniform_profile(rng, sites)
            result = welfare_optimum(GameInstance(profile, players, CongestionPolicy.sharing()))
            best = coverage(profile, players, coverage_optimum(profile, players).strategy) / players
            assert result.payoff == pytest.approx(best, abs=1e-9 * profile.values[0])


class TestCoverageGridOracle:
    def test_two_site_argmax_near_closed_form(self):
        strategy, value = coverage_grid_oracle(TWO_SITES, 2, 1e-3)
        assert np.max(np.abs(strategy.as_array() - np.array([2 / 3, 1 / 3]))) <= 2e-3
        assert value == pytest.approx(7 / 6, abs=1e-5)

    def test_symmetric_profile(self):
        strategy, _ = coverage_grid_oracle(ValueProfile((0.6, 0.6)), 2, 1e-3)
        assert strategy.probs == (0.5, 0.5)

    def test_skewed_two_sites(self):
        profile = ValueProfile((1.0, 0.3))
        strategy, value = coverage_grid_oracle(profile, 2, 1e-3)
        expected = 1.0 * (1 - (3 / 13) ** 2) + 0.3 * (1 - (10 / 13) ** 2)
        assert value == pytest.approx(expected, abs=1e-5)
        assert np.max(np.abs(strategy.as_array() - np.array([10 / 13, 3 / 13]))) <= 2e-3

    def test_rejects_large_site_counts(self):
        with pytest.raises(ValidationError):
            coverage_grid_oracle(ValueProfile((1.0,) * 5), 2, 1e-3)

    def test_matches_literal_enumeration_on_coarse_grid(self):
        profile = ValueProfile((1.0, 0.6, 0.2))
        players = 3
        step = 0.05
        n = round(1 / step)
        best = -1.0
        for i, j in itertools.product(range(n + 1), range(n + 1)):
            if i + j > n:
                continue
            value = coverage(profile, players, Strategy.from_array(np.array([i, j, n - i - j]) / n))
            best = max(best, value)
        _, oracle_value = coverage_grid_oracle(profile, players, step)
        assert oracle_value == pytest.approx(best, abs=1e-12)

    def test_never_beats_closed_form_optimum(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            sites = int(rng.integers(2, 5))
            players = int(rng.integers(2, 6))
            profile = log_uniform_profile(rng, sites, low=0.1)
            optimum = coverage_optimum(profile, players)
            best = coverage(profile, players, optimum.strategy)
            strategy, value = coverage_grid_oracle(profile, players, 1e-3)
            assert value <= best + 1e-12
            assert np.max(np.abs(strategy.as_array() - optimum.strategy.as_array())) <= 2e-3 + 1e-12


class TestOptimalityProperties:
    def test_uniform_prefix_lower_bound(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            sites = int(rng.integers(1, 15))
            players = int(rng.integers(2, 8))
            profile = log_uniform_profile(rng, sites)
            strategy = coverage_optimum(profile, players).strategy
            top = sum(profile.values[: min(players, sites)])
            assert coverage(profile, players, strategy) > (1 - 1 / np.e) * top

    def test_perturbations_strictly_lose_coverage(self):
        rng = np.random.default_rng(71)
        for _ in range(15):
            sites = int(rng.integers(2, 6))
            players = int(rng.integers(2, 5))
            profile = log_uniform_profile(rng, sites, low=0.2)
            optimum = coverage_optimum(profile, players).strategy.as_array()
            best = coverage(profile, players, Strategy.from_array(optimum))
            for _ in range(10):
                probs = project_to_simplex(optimum + rng.normal(0.0, 0.15, sites))
                if np.max(np.abs(probs - optimum)) < 0.01:
                    continue
                value = coverage(profile, players, Strategy.from_array(probs))
                assert value < best - 1e-9


class TestPriceOfAnarchy:
    def test_exclusive_policy_is_anarchy_free(self):
        rng = np.random.default_rng(72)
        for _ in range(10):
            sites = int(rng.integers(1, 12))
            players = int(rng.integers(2, 7))
            instance = exclusive(log_uniform_profile(rng, sites), players)
            assert symmetric_price_of_anarchy(instance) == pytest.approx(1.0, abs=1e-8)

    def test_sharing_two_sites(self):
        instance = GameInstance(TWO_SITES, 2, CongestionPolicy.sharing())
        assert symmetric_price_of_anarchy(instance) == pytest.approx(7 / 6, abs=1e-9)

    def test_bounded_for_sharing_and_above_one_always(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            sites = int(rng.integers(1, 12))
            players = int(rng.integers(2, 7))
            instance = GameInstance(log_uniform_profile(rng, sites), players, CongestionPolicy.sharing())
            ratio = symmetric_price_of_anarchy(instance)
            assert ratio >= 1.0 - 1e-9
            assert ratio <= 2.0 + 1e-9

    def test_non_exclusive_policies_lose_coverage_on_slow_profiles(self):
        # Slowly decreasing values over many sites force a wide support,
        # where any non-zero collision weight bends the equilibrium away
        # from the coverage optimum.
        rng = np.random.default_rng(74)
        for players in (2, 3, 5):
            sites = 2 * players
            values = tuple(1.0 - x / (4 * players * sites) for x in range(1, sites + 1))
            profile = ValueProfile(values)
            optimum = coverage_optimum(profile, players).strategy
            best = coverage(profile, players, optimum)
            policies = [CongestionPolicy.sharing()]
            policies += [random_nonexclusive_table(rng, players) for _ in range(3)]
            for policy in policies:
                report = solve_ifd(GameInstance(profile, players, policy))
                attained = coverage(profile, players, report.strategy)
                assert attained < best - 1e-6
