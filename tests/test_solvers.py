import itertools

import numpy as np
import pytest
from conftest import log_uniform_profile, random_nonexclusive_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from dispersal import solvers
from dispersal.ess import project_to_simplex
from dispersal.game import congestion_kernel
from dispersal.solvers import WELFARE_GRID_STEP, WELFARE_REFINE_STEP, _allocate_units

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

    def test_tolerance_is_relative_to_top_value(self):
        # At values of order 1e-12 an absolute 1e-8 would pass any strategy.
        instance = exclusive(ValueProfile((1e-12, 0.9e-12, 0.5e-12)), 3)
        assert not verify_ifd(instance, Strategy((0.5, 0.3, 0.2))).passed


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

    def test_kernel_evaluations_per_solve(self, monkeypatch):
        # The probabilities found at the ends of the outer bracket bound
        # each inner search, which about halves the 45 x 40 evaluations a
        # solve over [0, 1] brackets takes.
        evaluations = [0]

        def counting_kernel(policy, players):
            response = congestion_kernel(policy, players)

            def counted(p):
                evaluations[0] += 1
                return response(p)

            return counted

        monkeypatch.setattr(solvers, "congestion_kernel", counting_kernel)
        rng = np.random.default_rng(57)
        per_solve = []
        for i in range(40):
            sites = int(rng.integers(2, 21))
            players = int(rng.integers(2, 9))
            policies = (CongestionPolicy.exclusive(), CongestionPolicy.sharing(), random_nonexclusive_table(rng, players))
            evaluations[0] = 0
            solve_ifd(GameInstance(log_uniform_profile(rng, sites), players, policies[i % 3]))
            per_solve.append(evaluations[0])
        assert np.median(per_solve) <= 1000

    def test_residuals_stay_within_solver_tolerance(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            sites = int(rng.integers(2, 12))
            players = int(rng.integers(2, 7))
            policy = random_nonexclusive_table(rng, players)
            report = solve_ifd(GameInstance(log_uniform_profile(rng, sites), players, policy))
            assert report.residual <= 1e-8


@st.composite
def rescaled_instances(draw):
    """Values in [0.05, 1], M <= 8, k <= 6, one of three policy kinds, with a
    power of ten in [-12, 12] to scale them by and an order to list them in."""
    sites = draw(st.integers(1, 8))
    players = draw(st.integers(2, 6))
    values = tuple(draw(st.lists(st.floats(0.05, 1.0), min_size=sites, max_size=sites)))
    kind = draw(st.sampled_from(["exclusive", "sharing", "table"]))
    if kind == "table":
        table = [1.0]
        for drop in draw(st.lists(st.floats(0.0, 0.5), min_size=players - 1, max_size=players - 1)):
            table.append(table[-1] - drop)
        policy = CongestionPolicy.from_table(table)
    else:
        policy = CongestionPolicy(kind)
    return values, players, policy, draw(st.integers(-12, 12)), draw(st.permutations(range(sites)))


class TestScaleInvariance:
    @settings(max_examples=50)
    @given(case=rescaled_instances())
    @example(case=((1.0, 0.9, 0.5), 3, CongestionPolicy.exclusive(), 6, (0, 1, 2)))
    @example(case=((1.0, 0.9, 0.5), 3, CongestionPolicy.sharing(), 6, (0, 1, 2)))
    def test_results_depend_only_on_relative_values(self, case):
        values, players, policy, power, order = case
        base = GameInstance(ValueProfile(values), players, policy)
        scaled_values = tuple(values[i] * 10.0**power for i in order)
        scaled = GameInstance(ValueProfile(scaled_values), players, policy)

        equilibrium = solve_ifd(base).strategy.as_array()
        assert np.max(np.abs(solve_ifd(scaled).strategy.as_array() - equilibrium)) <= 1e-9
        optimum = coverage_optimum(base.profile, players).strategy.as_array()
        scaled_optimum = coverage_optimum(scaled.profile, players).strategy.as_array()
        assert np.max(np.abs(scaled_optimum - optimum)) <= 1e-12
        spoa = symmetric_price_of_anarchy(base)
        assert symmetric_price_of_anarchy(scaled) == pytest.approx(spoa, rel=1e-9)
        # The paper's main result: SPoA >= 1, with equality under the
        # exclusive policy.
        assert spoa >= 1.0 - 1e-12
        if policy.is_exclusive_on(players):
            assert spoa == pytest.approx(1.0, abs=1e-8)


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

    def test_matches_pairwise_exchange_polish(self):
        # Reference: the grid DP's point polished by a hill-climb that moves
        # one step of mass between a pair of sites while that helps, the
        # step halving whenever no pair does.
        def exchange_polish(instance):
            f = instance.profile.as_array()
            response = congestion_kernel(instance.policy, instance.players)

            def objective(batch):
                return (batch * f * response(batch)).sum(axis=1)

            n = round(1.0 / WELFARE_GRID_STEP)
            units = np.arange(n + 1) / n
            probs = _allocate_units(f[:, None] * (units * response(units))) / n
            best = float(objective(probs[None, :])[0])
            step = WELFARE_GRID_STEP
            while step >= WELFARE_REFINE_STEP:
                moved = True
                while moved:
                    moved = False
                    candidates = []
                    for src, dst in itertools.permutations(range(f.size), 2):
                        if probs[src] >= step:
                            cand = probs.copy()
                            cand[src] -= step
                            cand[dst] += step
                            candidates.append(cand)
                    if not candidates:
                        break
                    cand_arr = np.clip(np.array(candidates), 0.0, 1.0)
                    vals = objective(cand_arr)
                    top = int(np.argmax(vals))
                    if vals[top] > best:
                        best, probs, moved = float(vals[top]), cand_arr[top], True
                step /= 2.0
            return probs, best

        rng = np.random.default_rng(66)
        for i in range(40):
            sites = int(rng.integers(1, 13))
            players = int(rng.integers(2, 9))
            kind = ("exclusive", "sharing", "table")[i % 3]
            policy = random_nonexclusive_table(rng, players) if kind == "table" else CongestionPolicy(kind)
            instance = GameInstance(log_uniform_profile(rng, sites), players, policy)
            probs, payoff = exchange_polish(instance)
            result = welfare_optimum(instance)
            assert result.payoff >= payoff - 1e-12 * instance.profile.values[0]
            assert np.max(np.abs(result.strategy.as_array() - probs)) <= 1e-9


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
