import dataclasses
import itertools
import math

import numpy as np
import pytest
from conftest import log_uniform_profile, random_nonexclusive_table
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dispersal import (
    CongestionPolicy,
    GameInstance,
    SolverError,
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
from dispersal.game import SUPPORT_EPS, _bernstein
from dispersal.solvers import WELFARE_GRID_STEP, WELFARE_REFINE_STEP, _allocate_units

TWO_SITES = ValueProfile((1.0, 0.5))


def congestion_kernel(policy, players):
    """R(p) = E[C(1 + Bin(players - 1, p))], built as the solvers build it."""
    return _bernstein(policy.weights(players))


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
            report = verify_ifd(exclusive(profile, players), result.strategy)
            assert report.support_is_prefix and report.residual <= 1e-10 * profile.values[0], report
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

    @pytest.mark.parametrize("floor", [0.0, -1.0, -1e6])
    def test_tolerance_is_relative_to_the_payoff_terms(self, floor):
        # At p = 1/2, B ~ Bin(2, 1/2): the top site's term bound 2 E|C|(1 + B)
        # is 0.5 - floor and 2 |R'(1/2)| is 2 (1 - floor), so the tolerance,
        # like the float resolution of the site values, grows with -floor.
        instance = GameInstance(ValueProfile((2.0, 1.0)), 3, CongestionPolicy.from_table((1.0, 0.5 * floor, floor)))
        report = verify_ifd(instance, Strategy((0.5, 0.5)))
        _, bound, slope = instance.profile.as_array() * instance.kernel(np.array([0.5, 0.5])).T
        assert report.tolerance == solvers.IFD_RESIDUAL_TOL * np.max(bound) + 1e-13 * np.max(np.abs(slope))
        expected = solvers.IFD_RESIDUAL_TOL * (0.5 - floor) + 2e-13 * (1.0 - floor)
        assert report.tolerance == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("move", [None, 0.01])
    def test_many_players_reject_what_the_common_value_cannot_tell_apart(self, move):
        # The common value is about 1e-45, so a tolerance floored at f(1)
        # passed both the uniform strategy and the optimum moved by 0.01.
        profile = log_uniform_profile(np.random.default_rng(2020), 20)
        optimum = coverage_optimum(profile, 2000).strategy.as_array()
        strategy = np.full(20, 1 / 20) if move is None else optimum + move * np.r_[1.0, -1.0, np.zeros(18)]
        assert verify_ifd(exclusive(profile, 2000), Strategy.from_array(optimum)).passed
        assert not verify_ifd(exclusive(profile, 2000), Strategy.from_array(strategy)).passed

    def test_deep_tail_out_of_reach_keeps_tolerance(self):
        # C(20) = 1 - 1e9, but the uniform strategy crowds a site with all 20
        # players at odds 7^-19, so its site values stay near f(x), 0.6 apart.
        values = ValueProfile((1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4))
        report = verify_ifd(GameInstance(values, 20, linear_table(20, 1e9, 19)), Strategy.from_array(np.full(7, 1 / 7)))
        assert report.residual == pytest.approx(0.6, abs=1e-6)
        assert not report.passed


@pytest.fixture
def evaluations(monkeypatch):
    """Counts the calls of every evaluator ``GameInstance.kernel`` gives; one call gives R, its term bound and R'."""
    count = [0]
    build = GameInstance.kernel.func

    def counting_kernel(instance):
        evaluate = build(instance)

        def counted(p):
            count[0] += 1
            return evaluate(p)

        return counted

    monkeypatch.setattr(GameInstance, "kernel", property(counting_kernel))
    return count


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

    @pytest.mark.parametrize(
        "values, players, policy",
        [
            ((1.0, 0.3), 3, CongestionPolicy.sharing()),
            ((1.0, 0.5, 0.2), 3, CongestionPolicy.from_table((1.0, 0.8, 0.6))),
            ((2.0, 1.2, 1.1, 0.4), 4, CongestionPolicy.from_table((1.0, 0.9, 0.7, 0.6))),
            ((1.0, 0.25), 4, CongestionPolicy.sharing()),  # f(2) / f(1) == C(k)
        ],
    )
    def test_clamped_top_site_is_returned_without_kernel_evaluations(self, evaluations, values, players, policy):
        # With f(2) / f(1) <= C(k) a full collision on the first site still
        # pays as much as the second site alone: the point mass is the IFD.
        # The one evaluation is verify_ifd's check of it.
        instance = GameInstance(ValueProfile(values), players, policy)
        report = solve_ifd(instance)
        assert (report.evaluations, evaluations[0]) == (0, 1)
        assert report.strategy == Strategy.point_mass(1, len(values))
        assert report.passed
        assert np.max(np.abs(report.strategy.as_array() - nested_bisection_ifd(instance))) <= 1e-9

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

    def test_kernel_evaluations_per_solve(self, evaluations):
        # Each Newton step takes R and R' from one Bernstein evaluation. From
        # the Pareto start, a median of 10 here (an exclusive solve takes 1);
        # from the bracket midpoint it was 21.5, and the nested bisection
        # took about 830.
        rng = np.random.default_rng(57)
        per_solve = []
        for i in range(40):
            sites = int(rng.integers(2, 21))
            players = int(rng.integers(2, 9))
            policies = (CongestionPolicy.exclusive(), CongestionPolicy.sharing(), random_nonexclusive_table(rng, players))
            evaluations[0] = 0
            solve_ifd(GameInstance(log_uniform_profile(rng, sites), players, policies[i % 3]))
            per_solve.append(evaluations[0])
        assert np.median(per_solve) <= 12

    @pytest.mark.parametrize(
        "values, players, policy",
        [
            ((1.0, 0.8, 0.3), 5, CongestionPolicy.exclusive()),
            ((1.0, 0.8, 0.3), 5, CongestionPolicy.sharing()),
            ((1.0, 0.9, 0.5, 0.2), 4, CongestionPolicy.from_table((1.0, 0.6, 0.5, -0.2))),
            ((1.0, 0.1), 8, CongestionPolicy.from_table((1.0,) * 7 + (0.0,))),  # flat start: from the midpoint
        ],
    )
    def test_report_counts_its_work(self, evaluations, values, players, policy):
        instance = GameInstance(ValueProfile(values), players, policy)
        report = solve_ifd(instance)
        # verify_ifd's check of the result takes one evaluation more.
        assert report.evaluations + 1 == evaluations[0] and report.evaluations >= report.iterations >= 1
        # The counts are not part of the report's value, and a check alone does no solve.
        checked = verify_ifd(instance, report.strategy)
        assert (checked.iterations, checked.evaluations) == (0, 0)
        assert checked == report

    def test_residuals_stay_within_solver_tolerance(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            sites = int(rng.integers(2, 12))
            players = int(rng.integers(2, 7))
            policy = random_nonexclusive_table(rng, players)
            report = solve_ifd(GameInstance(log_uniform_profile(rng, sites), players, policy))
            assert report.residual <= 1e-8

    def test_outer_newton_does_not_cycle(self, evaluations):
        # Without the step-halving test, outer Newton steps on this
        # instance alternate between two points inside the bracket and
        # take 8335 kernel evaluations to close it; with it, 32.
        table = CongestionPolicy.from_table((1.0, 0.4, 0.2, 0.1, -2.4, -3.0, -3.7))
        instance = GameInstance(ValueProfile((0.2, 0.3, 0.4, 0.2, 0.4, 0.3)), 7, table)
        report = solve_ifd(instance)
        assert evaluations[0] <= 200
        assert np.max(np.abs(report.strategy.as_array() - nested_bisection_ifd(instance))) <= 1e-9

    @pytest.mark.parametrize("players", [2, 3, 8, 40, 300, 2000])
    def test_derivative_column_is_the_elevated_bernstein_derivative(self, players):
        # R' is k-1 times the degree k-2 Bernstein form of diff(C); the
        # kernel the solver steps on evaluates it raised to degree k-1, next
        # to R and its term bound. The two sides take log C(n, j) from lgamma
        # values of size k ln k, so they agree to about k ln k ulps, which is
        # below 1e-13 up to k = 100.
        rng = np.random.default_rng(players)
        profile = log_uniform_profile(rng, 20)
        tail = np.sort(rng.uniform(-0.5, 0.9, players - 1))[::-1]
        ps = np.array([0.0, 1e-300, 0.5, 1.0])
        tolerance = max(1e-13, 2 * players * math.log(players) * np.finfo(float).eps)
        table = CongestionPolicy.from_table([1.0, *tail])
        for policy in (CongestionPolicy.exclusive(), CongestionPolicy.sharing(), table):
            value, bound, derivative = GameInstance(profile, players, policy).kernel(ps).T
            weights = policy.weights(players)
            assert value == pytest.approx(_bernstein(weights)(ps), rel=1e-15, abs=0.0)
            assert bound == pytest.approx(_bernstein(np.abs(weights))(ps), rel=1e-15, abs=0.0)
            assert derivative == pytest.approx(_bernstein((players - 1) * np.diff(weights))(ps), rel=tolerance, abs=0.0)

    @pytest.mark.parametrize(
        "sites, players, kind",
        [(200, 1000, "sharing"), (20, 2000, "sharing"), (20, 2000, "exclusive")],
    )
    def test_many_players(self, sites, players, kind):
        profile = log_uniform_profile(np.random.default_rng(sites + players), sites)
        report = solve_ifd(GameInstance(profile, players, CongestionPolicy(kind)))
        assert report.passed
        assert report.residual <= 1e-8 * profile.values[0]
        if kind == "exclusive":
            # The common value here is about 1e-46, far below any absolute
            # resolution in it.
            optimum = coverage_optimum(profile, players).strategy.as_array()
            assert np.max(np.abs(report.strategy.as_array() - optimum)) <= 1e-12

    def test_table_weights_beyond_the_binomial_range(self):
        # Each weight times its binomial coefficient would pass the float
        # range. The log-space kernel never forms that product, so the solve
        # runs without a floating-point warning. Any collision costs 1e200:
        # the second site is crowded to its floor value -0.5e200, and the
        # first site matches it where 1 - (1 - p)^599 = 1/2.
        policy = CongestionPolicy.from_table((1.0,) + (-1e200,) * 599)
        assert np.all(np.isfinite(congestion_kernel(policy, 600)(np.linspace(0.0, 1.0, 11))))
        report = solve_ifd(GameInstance(TWO_SITES, 600, policy))
        assert report.passed
        assert report.strategy.probs[0] == pytest.approx(1.0 - 0.5 ** (1 / 599), rel=1e-9)


@st.composite
def flat_start_instances(draw):
    """M <= 20, k <= 8, a table with C(1..j) = 1 for a j in 1..k-1 that is
    non-increasing after it and may turn negative, and values from 1e-12 to
    10 scaled by 10^s for s in -12..6."""
    sites, players = draw(st.integers(1, 20)), draw(st.integers(2, 8))
    flat = draw(st.integers(1, players - 1))
    table = [1.0] * flat
    for drop in draw(st.lists(st.floats(0.0, 2.0), min_size=players - flat, max_size=players - flat)):
        table.append(table[-1] - drop)
    magnitudes = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-12, 0))
    scale = 10.0 ** draw(st.integers(-12, 6))
    values = tuple(v * scale for v in draw(st.lists(magnitudes, min_size=sites, max_size=sites)))
    return GameInstance(ValueProfile(values), players, CongestionPolicy.from_table(table))


class TestBracketEnd:
    """The outer loop ends on the sum test or on a bracket with no float
    strictly inside; then the strategies at the two ends, mixed to sum to
    one, finish the solve, unless the common value is below the normal float
    range (``test_cli.py::TestSpoa::test_exclusive_crowds_end``)."""

    @settings(max_examples=300)
    @given(instance=flat_start_instances())
    @example(instance=GameInstance(ValueProfile((1.0, 0.1)), 8, CongestionPolicy.from_table((1.0,) * 7 + (0.0,))))
    @example(instance=GameInstance(ValueProfile((1.0, 1e-6, 1e-12)), 4, CongestionPolicy.from_table((1.0, 1.0, 1.0, 0.0))))
    def test_flat_start_tables_solve(self, instance):
        # A flat site's value barely moves with its probability, so the
        # bracket can run out before the sum test holds.
        report = solve_ifd(instance)
        assert report.passed
        assert report.residual <= 1e-12 * instance.profile.values[0]

    def test_residual_error_names_its_diagnostics(self, monkeypatch):
        # No known instance fails the final check, so a verify_ifd that
        # reports a residual of 1 stands in for one.
        verify = solvers.verify_ifd
        monkeypatch.setattr(
            solvers, "verify_ifd", lambda instance, strategy: dataclasses.replace(verify(instance, strategy), residual=1.0)
        )
        with pytest.raises(SolverError, match="residual exceeds tolerance") as caught:
            solve_ifd(GameInstance(TWO_SITES, 3, CongestionPolicy.sharing()))
        assert sorted(caught.value.diagnostics) == [
            "bracket", "common_value", "evaluations", "iterations", "residual", "value"
        ]
        assert caught.value.diagnostics["residual"] == 1.0

    @pytest.mark.parametrize(
        "values, expected",
        [((1.0, 0.42), (0.998458454, 0.001541546)), ((1.0, 0.42, 0.09), (0.998458454, 0.001541546, 0.0))],
    )
    def test_low_end_is_evaluated_before_the_end_mix(self, values, expected):
        # f(2) / f(1) = 0.42 lies just above C(8) = 0.419, so the common value
        # is within an ulp of C(k) and no evaluated point sums to 1 or more.
        # The low end's strategy is then the one at C(k), which puts every
        # site but the first at 0, not the ones that bound the inner bracket.
        instance = GameInstance(ValueProfile(values), 8, CongestionPolicy.from_table((1.0, 0.78) + (0.419,) * 6))
        report = solve_ifd(instance)
        assert report.passed
        assert report.strategy.probs == pytest.approx(expected, abs=1e-9)
        assert report.residual <= 1e-15


def linear_table(players, slope, flat=1):
    """C(l) = 1 up to l = flat, then 1 - slope * (l - flat)."""
    return CongestionPolicy.from_table(1.0 - slope * np.maximum(np.arange(1, players + 1) - flat, 0))


@st.composite
def deep_and_flat_instances(draw):
    """M in 2..7, values log-uniform in [1e-3, 1], k in {2, 3, 5, 20, 100,
    500, 1000, 2000}, and a table that is a linear tail 1 - s (l - 1), flat
    up to a random l and then linear, or a random non-increasing one down to
    1 - s, with s log-uniform in [1e-3, 1e9]; or k in {3, 5, 8, 20, 100}, C
    = c in (0.05, 0.9) from a random l0 >= 3 on, C(2) in (c, 1), f(2) / f(1)
    = c (1 + 10^U(-6, -0.5)) and the other values below f(2)."""
    sites = draw(st.integers(2, 7))
    players = draw(st.sampled_from((2, 3, 5, 20, 100, 500, 1000, 2000)))
    values = tuple(10.0**e for e in draw(st.lists(st.floats(-3.0, 0.0), min_size=sites, max_size=sites)))
    slope = 10.0 ** draw(st.floats(-3.0, 9.0))
    family = draw(st.sampled_from(("linear", "flat", "random", "near-floor")))
    if family == "near-floor":
        # C = c from l0 on and f(2) / f(1) just above c: the common value
        # lies within an ulp of C(k), the low end of the outer bracket.
        players = draw(st.sampled_from((3, 5, 8, 20, 100)))
        c, l0 = draw(st.floats(0.05, 0.9)), draw(st.integers(3, players))
        c2 = draw(st.floats(c, 1.0, exclude_min=True, exclude_max=True))
        policy = CongestionPolicy.from_table(np.interp(np.arange(1, players + 1), [1, 2, l0], [1.0, c2, c]))
        second = c * (1.0 + 10.0 ** draw(st.floats(-6.0, -0.5)))
        values = (1.0, second, *(second * v for v in values[2:]))
    elif family == "linear":
        policy = linear_table(players, slope)
    elif family == "flat":
        policy = linear_table(players, slope, draw(st.integers(1, players - 1)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        tail = np.sort(rng.uniform(1.0 - slope, 1.0, players - 1))[::-1]
        policy = CongestionPolicy.from_table([1.0, *tail.tolist()])
    return GameInstance(ValueProfile(values), players, policy)


class TestFinish:
    """Both solvers return through ``_finish``: equal values share their mean
    probability, and all entries, however small, are kept and sum to one."""

    def test_renormalizes_and_averages_ties_without_trimming(self):
        # The last entry stays: a trim to 0 at SUPPORT_EPS turned the (1, 1e-12)
        # equilibrium into a point mass that fails its own check.
        f = np.array([1.0, 0.5, 0.5, 0.2, 0.1])
        probs = np.array([0.5, 0.3, 0.2, 1e-3, SUPPORT_EPS])
        strategy = solvers._finish(f, probs)
        assert strategy.probs == pytest.approx(np.array([0.5, 0.25, 0.25, 1e-3, SUPPORT_EPS]) / (1.001 + SUPPORT_EPS), abs=1e-15)
        assert strategy.probs[4] > 0.0
        assert strategy.probs[1] == strategy.probs[2]
        assert strategy.support() == (1, 2, 3, 4)

    def test_tiny_equilibrium_probability_is_kept(self):
        # f(2) = 1e-12 f(1) at k = 2: the equilibrium plays site 2 with
        # probability 1 / (1e12 + 1), below SUPPORT_EPS; it is 1 minus a
        # rounded p(1), so only its first digits are exact.
        profile = ValueProfile((1.0, 1e-12))
        for report in (solve_ifd(exclusive(profile)), verify_ifd(exclusive(profile), coverage_optimum(profile, 2).strategy)):
            assert report.passed
            assert report.strategy.probs[1] == pytest.approx(1e-12, rel=1e-3, abs=0.0)

    def test_equal_entries_are_kept_bit_for_bit(self):
        # A mean of equal floats could round away from them; the first entry
        # plus the mean deviation cannot.
        # (0.1 + 0.1 + 0.1) / 3 is 0.10000000000000002.
        probs = np.array([0.1, 0.1, 0.1, 0.7])
        untied = solvers._finish(np.array([4.0, 3.0, 2.0, 1.0]), probs.copy())
        assert solvers._finish(np.array([1.0, 1.0, 1.0, 0.5]), probs) == untied

    @pytest.mark.parametrize("ties, expected", [(2, 0.00507), (3, 0.00338)])
    def test_tied_sites_share_one_probability(self, ties, expected):
        # On a flat value curve identical rows of one kernel evaluation come
        # back an ulp apart, which tipped the mass onto one of the tied sites.
        values = (1.0, 1.0, 1.0) + (0.1,) * ties
        report = solve_ifd(GameInstance(ValueProfile(values), 1000, linear_table(1000, 1.0, 348)))
        assert len(set(report.strategy.probs[3:])) == 1
        assert report.strategy.probs[3] == pytest.approx(expected, abs=1e-5)
        assert report.passed and report.residual <= 1e-13

    def test_tied_top_sites_share_the_point_mass(self):
        # Under a constant table f(2)/f(1) <= C(k), so the point mass on the
        # top site is the answer; unfinished, it would be (1, 0, 0).
        report = solve_ifd(GameInstance(ValueProfile((1.0, 1.0, 0.5)), 3, CongestionPolicy.from_table((1.0, 1.0, 1.0))))
        assert report.strategy == Strategy((0.5, 0.5, 0.0))
        assert report.passed


class TestPayoffScale:
    """Deep negative tails and long flat starts: every tolerance is relative
    to the payoff terms, max_x f(x) E|C|(1 + B_x)."""

    @pytest.mark.parametrize(
        "values, players, slope",
        [((1.0, 0.9), 2000, 1.0), ((1.0, 0.9), 10_000, 1e-3)],
    )
    def test_negative_common_value_is_not_underflow(self, values, players, slope):
        instance = GameInstance(ValueProfile(values), players, linear_table(players, slope))
        report = solve_ifd(instance)
        assert report.common_value < 0.0
        bound = instance.profile.as_array() * instance.kernel(report.strategy.as_array())[:, 1]
        assert report.residual <= 1e-13 * np.max(bound)

    @pytest.mark.parametrize(
        "values, slope, flat",
        [((1.0, 0.9), 0.01, 900), ((1.0, 0.5), 0.01, 800), ((1.0, 1.0, 1.0, 0.1, 0.1), 1.0, 348)],
    )
    def test_flat_sites_with_infinite_rates(self, values, slope, flat):
        # R' underflows to 0 at a flat site, so its rate dp/dnu is inf, and
        # its probability jumps between the bracket's two ends. In the last
        # case two such sites would share the sum's excess of 0.004 equally,
        # though one holds only 2e-4; the mix of the two ends stays inside.
        instance = GameInstance(ValueProfile(values), 1000, linear_table(1000, slope, flat))
        report = solve_ifd(instance)
        assert report.residual <= 1e-12 * instance.profile.values[0]

    @pytest.mark.parametrize(
        "values, players, slope",
        [((1.0, 0.9), 100, 1e6), ((1.0, 0.9), 1000, 1e3), ((1.0, 0.9, 0.8, 0.7), 5, 1e9)],
    )
    def test_steep_tails_solve_to_float_resolution(self, values, players, slope):
        # The common value is -4.7e7, -4.7e5 and -8.4e8 f(1), so its ulp is far above 1e-8 f(1).
        report = solve_ifd(GameInstance(ValueProfile(values), players, linear_table(players, slope)))
        assert report.common_value < -1e5 * values[0]
        assert report.residual <= 1e-13 * abs(report.common_value)

    @settings(max_examples=250)
    @given(instance=deep_and_flat_instances())
    def test_deep_and_flat_tables_solve(self, instance):
        try:
            solve_ifd(instance)  # returns only a strategy that passes verify_ifd
        except SolverError as error:
            assert str(error) == "common value below the float range"


def nested_bisection_ifd(instance):
    """The nested bisection ``solve_ifd`` used before its Newton steps, as a reference.

    It bisects the common value over [C(k), 1] in 44 steps, on the values
    over value(1), and each site's probability to 1e-12 between those
    found at the two ends of the outer bracket.
    """
    f = instance.profile.as_array() / instance.profile.values[0]
    response = congestion_kernel(instance.policy, instance.players)
    floor_weight = instance.policy.at(instance.players)

    def site_probs(target, low, high):
        probs = (f * floor_weight >= target).astype(float)
        active = (f > target) & (f * floor_weight < target)
        fa, lo_p, hi_p = f[active], low[active], high[active]
        width = float(np.max(hi_p - lo_p, initial=0.0))
        for _ in range(math.ceil(math.log2(width / 1e-12)) if width > 1e-12 else 0):
            mid = 0.5 * (lo_p + hi_p)
            above = fa * response(mid) > target
            lo_p = np.where(above, mid, lo_p)
            hi_p = np.where(above, hi_p, mid)
        probs[active] = 0.5 * (lo_p + hi_p)
        return probs

    lo, hi = floor_weight, 1.0
    probs_lo, probs_hi = np.ones(f.size), np.zeros(f.size)
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        probs = site_probs(mid, probs_hi, probs_lo)
        if probs.sum() >= 1.0:
            lo, probs_lo = mid, probs
        else:
            hi, probs_hi = mid, probs
    probs = site_probs(0.5 * (lo + hi), probs_hi, probs_lo)
    probs[probs < SUPPORT_EPS] = 0.0
    return probs / probs.sum()


@st.composite
def instance_parts(draw, max_sites, max_players):
    """Values in [0.05, 1], M <= max_sites, k <= max_players, and exclusive,
    sharing or a non-increasing table, which may turn negative."""
    sites = draw(st.integers(1, max_sites))
    players = draw(st.integers(2, max_players))
    values = tuple(draw(st.lists(st.floats(0.05, 1.0), min_size=sites, max_size=sites)))
    kind = draw(st.sampled_from(["exclusive", "sharing", "table"]))
    if kind == "table":
        table = [1.0]
        for drop in draw(st.lists(st.floats(0.0, 0.5), min_size=players - 1, max_size=players - 1)):
            table.append(table[-1] - drop)
        policy = CongestionPolicy.from_table(table)
    else:
        policy = CongestionPolicy(kind)
    return values, players, policy


@st.composite
def small_instances(draw):
    """M <= 20, k <= 8, any policy kind but a constant table."""
    values, players, policy = draw(instance_parts(20, 8))
    assume(np.any(policy.weights(players) != 1.0))
    return GameInstance(ValueProfile(values), players, policy)


class TestParetoStart:
    """The outer loop starts from the Pareto shape with exponent 1 / d, d =
    -R'(0), which is the exclusive policy's equilibrium itself."""

    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=20),
        players=st.integers(2, 8),
        scale=st.integers(-12, 12),
    )
    def test_exclusive_solve_takes_one_evaluation(self, evaluations, values, players, scale):
        profile = ValueProfile(tuple(v * 10.0**scale for v in values))
        evaluations[0] = 0
        report = solve_ifd(exclusive(profile, players))
        # One Newton step, and verify_ifd's check of its result.
        assert (report.evaluations, evaluations[0]) == (1, 2)
        optimum = coverage_optimum(profile, players).strategy.as_array()
        assert np.max(np.abs(report.strategy.as_array() - optimum)) <= 1e-12

    @pytest.mark.parametrize("players, raises", [(1039, False), (1040, True), (1041, True), (1050, True), (1067, True)])
    def test_subnormal_start_keeps_the_bracket_decision(self, players, raises):
        # The common value is about 0.5^(k-1): a start there would be below
        # the normal float range, so the solve starts at the midpoint and
        # solves or raises as its bracket decides.
        instance = exclusive(TWO_SITES, players)
        if raises:
            with pytest.raises(SolverError, match="common value below the float range"):
                solve_ifd(instance)
        else:
            assert solve_ifd(instance).passed


class TestNewtonAgreesWithBisection:
    @settings(max_examples=100)
    @given(instance=small_instances())
    # d = 1e-10: the start's exponent 1 / d sends f ** (1 / d) to 0 without a warning.
    @example(instance=GameInstance(ValueProfile((1.0, 1.0, 0.5)), 2, CongestionPolicy.from_table((1.0, 0.9999999999))))
    def test_same_equilibrium(self, instance):
        expected = nested_bisection_ifd(instance)
        assert np.max(np.abs(solve_ifd(instance).strategy.as_array() - expected)) <= 1e-9


@st.composite
def rescaled_instances(draw):
    """M <= 8, k <= 6, any policy kind, with a power of ten in [-12, 12] to
    scale the values by and an order to list them in."""
    values, players, policy = draw(instance_parts(8, 6))
    return values, players, policy, draw(st.integers(-12, 12)), draw(st.permutations(range(len(values))))


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


@st.composite
def separated_non_exclusive_instances(draw):
    """M 2-8, k 2-8, each value at most 0.9 and at least 0.1 times the one
    before, and sharing or a non-negative non-increasing table with C(2) >= 0.1."""
    sites, players = draw(st.integers(2, 8)), draw(st.integers(2, 8))
    values = [1.0]
    for ratio in draw(st.lists(st.floats(0.1, 0.9), min_size=sites - 1, max_size=sites - 1)):
        values.append(values[-1] * ratio)
    if draw(st.booleans()):
        policy = CongestionPolicy.sharing()
    else:
        table = [1.0, draw(st.floats(0.1, 1.0))]
        for factor in draw(st.lists(st.floats(0.0, 1.0), min_size=players - 2, max_size=players - 2)):
            table.append(table[-1] * factor)
        policy = CongestionPolicy.from_table(table)
    return GameInstance(ValueProfile(tuple(values)), players, policy)


class TestPriceOfAnarchy:
    @settings(max_examples=150)
    @given(instance=separated_non_exclusive_instances())
    @example(instance=GameInstance(ValueProfile((1.0, 0.9)), 8, CongestionPolicy.from_table((1.0, 0.1) + (0.0,) * 6)))
    def test_non_exclusive_policies_cost_coverage_on_separated_values(self, instance):
        # The paper's main result, on the side the exclusive property does
        # not cover: on values each 0.1 to 0.9 times the one before, a
        # policy paying at least 0.1 to each of two colliding players loses
        # coverage (measured minimum about 1e-7 above 1, at the example).
        assert symmetric_price_of_anarchy(instance) >= 1.0 + 1e-9

    def test_flat_table_on_separated_values(self):
        # C(2) = C(1) makes R'(0) = 0, so a site's probability rises from 0
        # as (f(x) - nu)^(1/j): here the second site needs nu closer to f(2)
        # than a float resolves, and the finish on the bracket's ends sets its
        # probability.
        instance = GameInstance(ValueProfile((1.0, 0.1)), 8, CongestionPolicy.from_table((1.0,) * 7 + (0.0,)))
        assert symmetric_price_of_anarchy(instance) >= 1.0 + 1e-9

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
