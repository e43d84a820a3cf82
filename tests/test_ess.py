import time
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import log_uniform_profile, random_nonexclusive_table, random_strategy

from dispersal import (
    CongestionPolicy,
    GameInstance,
    Strategy,
    ValidationError,
    ValueProfile,
    closed_form_mutant_payoff,
    closed_form_resident_payoff,
    coverage_optimum,
    ess_characterization,
    expected_payoff_profile,
    invasion_sweep,
    mixture_payoff,
    mutant_generator,
    solve_ifd,
)
from dispersal.ess import EQUALITY_TOL, MIN_MUTANT_DISTANCE, ess_batch, project_to_simplex
from dispersal.game import _bernstein, _collision_pmfs

TWO_SITES = ValueProfile((1.0, 0.5))


def exclusive(profile, players=2):
    return GameInstance(profile, players, CongestionPolicy.exclusive())


def binomial_mix_of_pure_profiles(instance, focal, resident, mutant, epsilon):
    """Average over the number r of resident opponents, r ~ Binomial(k-1, 1-epsilon)."""
    k = instance.players
    return sum(
        comb(k - 1, r)
        * (1.0 - epsilon) ** r
        * epsilon ** (k - 1 - r)
        * expected_payoff_profile(instance, focal, [resident] * r + [mutant] * (k - 1 - r))
        for r in range(k)
    )


def two_dp_verdict(instance, candidate, mutant):
    """The ordered walk with each margin the difference of two full payoff evaluations.

    Each band is EQUALITY_TOL times max_x f(x) E|C|(1 + N_x), N_x the opponents
    at site x by the Poisson-binomial DP, plus 1e-13 times max_x f(x)
    |R'(candidate(x))|, R' taken unelevated. Returns the verdict, its witness,
    the margins and the bands.
    """
    k, f = instance.players, instance.profile.as_array()
    weights = instance.policy.weights(k)
    drift = 1e-13 * np.max(f * np.abs((k - 1) * _bernstein(np.diff(weights))(candidate.as_array())))
    margins, bands = [], []
    for m in range(k):
        opponents = [candidate] * (k - m - 1) + [mutant] * m
        margins.append(
            expected_payoff_profile(instance, candidate, opponents)
            - expected_payoff_profile(instance, mutant, opponents)
        )
        pmfs = _collision_pmfs(np.array([opponent.probs for opponent in opponents]))
        bands.append(EQUALITY_TOL * np.max(f * (pmfs @ np.abs(weights))) + drift)
        if margins[-1] > bands[-1]:
            return True, m, margins, bands
        if margins[-1] < -bands[-1]:
            break
    return False, None, margins, bands


class TestMixturePayoff:
    def test_matches_binomial_mix_of_pure_profiles(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            sites = int(rng.integers(1, 7))
            players = int(rng.integers(2, 8))
            profile = log_uniform_profile(rng, sites)
            instance = GameInstance(profile, players, random_nonexclusive_table(rng, players))
            focal, resident, mutant = (random_strategy(rng, sites) for _ in range(3))
            epsilon = float(rng.uniform(0.0, 1.0))
            expected = binomial_mix_of_pure_profiles(instance, focal, resident, mutant, epsilon)
            value = mixture_payoff(instance, focal, resident, mutant, epsilon)
            assert value == pytest.approx(expected, abs=1e-12 * profile.values[0])

    def test_boundaries_reduce_to_pure_profiles(self):
        rng = np.random.default_rng(2)
        instance = exclusive(log_uniform_profile(rng, 4), 4)
        focal, resident, mutant = (random_strategy(rng, 4) for _ in range(3))
        at_zero = mixture_payoff(instance, focal, resident, mutant, 0.0)
        at_one = mixture_payoff(instance, focal, resident, mutant, 1.0)
        assert at_zero == expected_payoff_profile(instance, focal, [resident] * 3)
        assert at_one == expected_payoff_profile(instance, focal, [mutant] * 3)

    @given(
        values=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8),
        players=st.integers(2, 8),
        kind=st.sampled_from(["exclusive", "sharing", "table"]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_boundaries_equal_pure_profiles_for_every_policy(self, values, players, kind, seed):
        rng = np.random.default_rng(seed)
        policy = random_nonexclusive_table(rng, players) if kind == "table" else CongestionPolicy(kind)
        instance = GameInstance(ValueProfile(tuple(values)), players, policy)
        focal, resident, mutant = (random_strategy(rng, len(values)) for _ in range(3))
        tolerance = 1e-12 * instance.profile.values[0]
        for epsilon, opponent in ((0.0, resident), (1.0, mutant)):
            expected = expected_payoff_profile(instance, focal, [opponent] * (players - 1))
            assert abs(mixture_payoff(instance, focal, resident, mutant, epsilon) - expected) <= tolerance

    def test_even_mixture_example(self):
        instance = exclusive(TWO_SITES)
        optimum = coverage_optimum(TWO_SITES, 2).strategy
        value = mixture_payoff(instance, optimum, optimum, Strategy.point_mass(1, 2), 0.5)
        assert value == pytest.approx(0.25, abs=1e-12)

    def test_epsilon_out_of_range(self):
        instance = exclusive(TWO_SITES)
        s = Strategy((0.5, 0.5))
        with pytest.raises(ValidationError):
            mixture_payoff(instance, s, s, s, 1.5)


class TestEssCharacterization:
    def test_point_mass_challenger_loses_once_mutants_meet(self):
        optimum = coverage_optimum(TWO_SITES, 2).strategy
        verdict = ess_characterization(exclusive(TWO_SITES), optimum, Strategy.point_mass(1, 2))
        assert verdict.passed
        assert verdict.witness_m == 1
        assert verdict.margins[0] == pytest.approx(0.0, abs=1e-10)
        assert verdict.margins[1] == pytest.approx(1 / 6, abs=1e-12)

    def test_challenger_outside_support_loses_immediately(self):
        profile = ValueProfile((1.0, 0.5, 0.01))
        optimum = coverage_optimum(profile, 2).strategy
        verdict = ess_characterization(exclusive(profile), optimum, Strategy.point_mass(3, 3))
        assert verdict.passed
        assert verdict.witness_m == 0
        assert verdict.margins[0] == pytest.approx(1 / 3 - 0.01, abs=1e-12)

    def test_matches_two_dp_reference(self):
        # The equilibrium candidate ties with in-support mutants at m = 0,
        # so the walk goes past the first mix. Every fifth game has up to 40
        # players; the policies cycle exclusive, sharing, table. Every fourth
        # game also has a random candidate, which mutants beat by a strict
        # margin.
        rng = np.random.default_rng(17)
        strangers = np.random.default_rng(18)
        compared = walked = lost = 0
        for i in range(45):
            sites = int(rng.integers(2, 7))
            players = int(rng.integers(2, 41 if i % 5 == 0 else 9))
            profile = log_uniform_profile(rng, sites)
            policies = (CongestionPolicy.exclusive(), CongestionPolicy.sharing(), random_nonexclusive_table(rng, players))
            instance = GameInstance(profile, players, policies[i % 3])
            candidates = [solve_ifd(instance).strategy]
            if i % 4 == 0:
                candidates.append(random_strategy(strangers, sites))
            for mutant in mutant_generator(profile, players, seed=int(rng.integers(2**31)), count=sites + 4):
                for candidate in candidates:
                    if np.max(np.abs(mutant.as_array() - candidate.as_array())) <= MIN_MUTANT_DISTANCE:
                        continue
                    verdict = ess_characterization(instance, candidate, mutant)
                    passed, witness_m, margins, bands = two_dp_verdict(instance, candidate, mutant)
                    assert (verdict.passed, verdict.witness_m) == (passed, witness_m)
                    assert verdict.margins == pytest.approx(margins, rel=0, abs=1e-12 * profile.values[0])
                    compared += 1
                    walked += len(margins) > 1
                    lost += margins[-1] < -bands[-1]
        assert compared >= 200
        assert walked >= 80
        assert lost >= 40

    def test_no_strict_win_by_the_last_mix_fails(self):
        # Under a constant policy on tied values every strategy pays the
        # same against every mix: k zero margins and no witness.
        instance = GameInstance(ValueProfile((1.0, 1.0)), 3, CongestionPolicy.from_table((1.0, 1.0, 1.0)))
        candidate = solve_ifd(instance).strategy
        for mutant in (Strategy((0.0, 1.0)), Strategy((0.3, 0.7))):
            verdict = ess_characterization(instance, candidate, mutant)
            assert (verdict.passed, verdict.witness_m) == (False, None) == two_dp_verdict(instance, candidate, mutant)[:2]
            assert verdict.margins == pytest.approx((0.0, 0.0, 0.0), rel=0, abs=1e-15)

    def test_many_players_under_sharing(self):
        # Under sharing, E[1/(1+B)] and E[1/(2+B)] have closed forms for
        # B ~ Bin(n, p), which give the margins at m = 0 and 1 without the
        # kernel. A DP over the 1999 opponents took about 0.5 s per verdict.
        profile = log_uniform_profile(np.random.default_rng(2020), 20)
        players = 2000
        instance = GameInstance(profile, players, CongestionPolicy.sharing())
        candidate = solve_ifd(instance).strategy
        sigma, f = candidate.as_array(), profile.as_array()
        assert np.all(sigma > 0.0)
        for mutant in mutant_generator(profile, players, seed=7, count=22)[19:]:
            start = time.perf_counter()
            verdict = ess_characterization(instance, candidate, mutant)
            assert time.perf_counter() - start < 0.25
            assert (verdict.passed, verdict.witness_m) == (True, 1)
            mu, q = mutant.as_array(), 1.0 - sigma
            alone = (1.0 - q**players) / (players * sigma)  # E[1/(1+B)], n = k-1
            n = players - 2
            first = (1.0 - q ** (n + 1)) / ((n + 1) * sigma)  # E[1/(1+B)], n = k-2
            second = ((1.0 - q ** (n + 2)) / (n + 2) - q * (1.0 - q ** (n + 1)) / (n + 1)) / sigma**2
            expected = [(sigma - mu) @ (f * alone), (sigma - mu) @ (f * ((1.0 - mu) * first + mu * second))]
            assert verdict.margins == pytest.approx(expected, rel=0, abs=1e-13 * f[0])

    def test_identical_strategies_rejected(self):
        optimum = coverage_optimum(TWO_SITES, 2).strategy
        with pytest.raises(ValidationError):
            ess_characterization(exclusive(TWO_SITES), optimum, optimum)

    @pytest.mark.parametrize("values", [(1.0,), (1.0, 0.5, 0.2)])
    def test_candidate_size_must_match_the_sites(self, values):
        # Unchecked, one site gives a verdict for a two-site candidate and
        # three sites fail to broadcast.
        instance = GameInstance(ValueProfile(values), 3, CongestionPolicy.sharing())
        with pytest.raises(ValidationError, match="candidate: strategy size"):
            ess_characterization(instance, Strategy((0.5, 0.5)), Strategy((1.0, 0.0)))

    def test_sharing_equilibrium_verdict_is_well_formed(self):
        instance = GameInstance(TWO_SITES, 2, CongestionPolicy.sharing())
        candidate = solve_ifd(instance).strategy
        optimum = coverage_optimum(TWO_SITES, 2).strategy
        verdict = ess_characterization(instance, candidate, optimum)
        assert verdict.margins
        assert verdict.witness_m is None or 0 <= verdict.witness_m <= 1

    def test_generated_mutants_never_invade_exclusive_optimum(self):
        rng = np.random.default_rng(13)
        for players, sites in ((2, 4), (3, 5), (5, 6)):
            profile = log_uniform_profile(rng, sites)
            instance = exclusive(profile, players)
            result = coverage_optimum(profile, players)
            anchor = result.strategy.as_array()
            for mutant in mutant_generator(profile, players, seed=99, count=40):
                if np.max(np.abs(mutant.as_array() - anchor)) <= 1e-9:
                    continue
                verdict = ess_characterization(instance, result.strategy, mutant)
                assert verdict.passed
                outside = any(
                    p > 1e-9 for p in mutant.probs[result.support_size:]
                )
                if outside:
                    assert verdict.witness_m == 0
                else:
                    assert verdict.witness_m <= 1

    def test_deep_tail_ties_are_relative_to_payoff_scale(self):
        # The common value is -8.4e5 f(1), so the m = 0 ties between the
        # equilibrium and in-support mutants carry float noise up to 3e-10,
        # past EQUALITY_TOL * f(1).
        instance = GameInstance(
            ValueProfile((1.0, 0.9, 0.8, 0.7)), 5, CongestionPolicy.from_table(1.0 - 1e6 * np.arange(5))
        )
        candidate = solve_ifd(instance).strategy
        mutants = mutant_generator(instance.profile, 5, seed=0, count=64)
        verdicts = [ess_characterization(instance, candidate, mutant) for mutant in mutants]
        assert all(verdict.passed for verdict in verdicts)

    @given(
        values=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6),
        players=st.integers(3, 6),
        exponent=st.integers(-12, 12),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_no_generated_mutant_invades_at_any_scale(self, values, players, exponent, seed):
        # The verdict depends on f / f(1) only, so the exclusive optimum
        # stays stable whatever unit the values are given in.
        profile = ValueProfile(tuple(v * 10.0**exponent for v in values))
        optimum = coverage_optimum(profile, players).strategy
        for mutant in mutant_generator(profile, players, seed=seed, count=20):
            assert ess_characterization(exclusive(profile, players), optimum, mutant).passed


class TestExclusiveOptimumIsStable:
    @settings(max_examples=200)
    @given(
        values=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8),
        players=st.integers(2, 200),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(values=[1.0, 0.5], players=30, seed=0)
    def test_no_generated_mutant_invades_at_many_players(self, values, players, seed):
        # The common value alpha^(k-1) f(1) falls geometrically with k. A band
        # floored at f(1) tied every mix once the margins fell below 1e-10 f(1),
        # and the tie at m = k - 1 failed the verdict.
        profile = ValueProfile(tuple(values))
        optimum = coverage_optimum(profile, players).strategy
        verdicts = ess_batch(exclusive(profile, players), optimum, mutant_generator(profile, players, seed, 20))
        assert all(verdict is None or verdict.passed for verdict in verdicts)


class TestEssBatch:
    @settings(max_examples=60)
    @given(
        sites=st.integers(1, 6),
        players=st.integers(2, 8),
        kind=st.sampled_from(["exclusive", "sharing", "table"]),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(sites=6, players=40, kind="table", seed=11)
    def test_each_entry_is_the_single_verdict(self, sites, players, kind, seed):
        # One walk over the batch gives every mutant the verdict it gets on
        # its own, margins bit for bit, and None where the single check
        # rejects it as identical to the candidate.
        rng = np.random.default_rng(seed)
        profile = log_uniform_profile(rng, sites)
        policy = random_nonexclusive_table(rng, players) if kind == "table" else CongestionPolicy(kind)
        instance = GameInstance(profile, players, policy)
        if kind == "exclusive":
            candidate = coverage_optimum(profile, players).strategy
        else:
            candidate = solve_ifd(instance).strategy
        mutants = mutant_generator(profile, players, seed, sites + 6) + [candidate]
        verdicts = ess_batch(instance, candidate, mutants)
        assert len(verdicts) == len(mutants) and verdicts[-1] is None
        for mutant, verdict in zip(mutants, verdicts):
            try:
                expected = ess_characterization(instance, candidate, mutant)
            except ValidationError:
                expected = None
            assert verdict == expected

    def test_mutant_of_another_size_is_rejected(self):
        instance = exclusive(TWO_SITES)
        optimum = coverage_optimum(TWO_SITES, 2).strategy
        with pytest.raises(ValidationError, match="mutant: strategy size"):
            ess_batch(instance, optimum, [Strategy.point_mass(1, 2), Strategy.point_mass(1, 3)])


@st.composite
def tied_games(draw):
    """1-4 distinct values from 0.05 to 1, each on 1-3 sites, scaled by 10^s
    for s in -12..12; k 2-8 and exclusive, sharing or a non-increasing table
    that may turn negative; a seed; and a relabelling of the sites that only
    permutes sites of equal value."""
    distinct = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(distinct), max_size=len(distinct)))
    scale = 10.0 ** draw(st.integers(-12, 12))
    profile = ValueProfile(tuple(v * scale for v, n in zip(distinct, counts) for _ in range(n)))
    players = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["exclusive", "sharing", "table"]))
    if kind == "table":
        table = [1.0]
        for drop in draw(st.lists(st.floats(0.0, 0.5), min_size=players - 1, max_size=players - 1)):
            table.append(table[-1] - drop)
        policy = CongestionPolicy.from_table(table)
    else:
        policy = CongestionPolicy(kind)
    # The profile lists its values in descending order, so tied sites are adjacent.
    f = profile.as_array()
    relabel = []
    for value in np.unique(f)[::-1]:
        relabel += draw(st.permutations(np.flatnonzero(f == value).tolist()))
    return GameInstance(profile, players, policy), draw(st.integers(0, 2**31 - 1)), relabel


class TestPermutationInvariance:
    @settings(max_examples=150)
    @given(case=tied_games())
    def test_relabelling_tied_sites_keeps_the_verdict(self, case):
        # Sites of equal value are interchangeable, so relabelling them in
        # both strategies only reorders the sums behind each margin.
        instance, seed, relabel = case
        rng = np.random.default_rng(seed)
        sites = instance.sites
        candidates = (solve_ifd(instance).strategy, random_strategy(rng, sites))
        mutants = mutant_generator(instance.profile, instance.players, seed, sites + 2) + [random_strategy(rng, sites)]
        for candidate in candidates:
            for mutant in mutants:
                if np.max(np.abs(mutant.as_array() - candidate.as_array())) <= MIN_MUTANT_DISTANCE:
                    continue
                verdict = ess_characterization(instance, candidate, mutant)
                moved = (Strategy.from_array(s.as_array()[relabel]) for s in (candidate, mutant))
                relabelled = ess_characterization(instance, *moved)
                assert (relabelled.passed, relabelled.witness_m) == (verdict.passed, verdict.witness_m)
                tolerance = 1e-15 * instance.profile.values[0]
                assert relabelled.margins == pytest.approx(verdict.margins, rel=0, abs=tolerance)


class TestClosedForms:
    def test_match_direct_payoffs(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            players = int(rng.integers(3, 7))
            sites = int(rng.integers(2, 8))
            profile = log_uniform_profile(rng, sites)
            result = coverage_optimum(profile, players)
            width = result.support_size
            probs = np.zeros(sites)
            probs[:width] = rng.dirichlet(np.ones(width))
            sigma = Strategy.from_array(probs)
            n_mutants = int(rng.integers(1, players - 1))
            instance = exclusive(profile, players)
            opponents = [sigma] * n_mutants + [result.strategy] * (players - n_mutants - 1)
            direct_resident = expected_payoff_profile(instance, result.strategy, opponents)
            direct_mutant = expected_payoff_profile(instance, sigma, opponents)
            args = (profile, players, width, result.normalizer, sigma, n_mutants)
            assert closed_form_resident_payoff(*args) == pytest.approx(direct_resident, abs=1e-10)
            assert closed_form_mutant_payoff(*args) == pytest.approx(direct_mutant, abs=1e-10)

    def test_equal_when_mutant_is_the_optimum(self):
        profile = ValueProfile((1.0, 0.7, 0.4))
        result = coverage_optimum(profile, 4)
        for n_mutants in (1, 2):
            args = (profile, 4, result.support_size, result.normalizer, result.strategy, n_mutants)
            assert closed_form_resident_payoff(*args) == pytest.approx(
                closed_form_mutant_payoff(*args), abs=1e-12
            )

    def test_uniform_mutant_three_players(self):
        profile = ValueProfile((1.0, 1.0))
        result = coverage_optimum(profile, 3)
        sigma = Strategy.uniform(2)
        instance = exclusive(profile, 3)
        opponents = [sigma, result.strategy]
        args = (profile, 3, result.support_size, result.normalizer, sigma, 1)
        assert closed_form_resident_payoff(*args) == pytest.approx(
            expected_payoff_profile(instance, result.strategy, opponents), abs=1e-12
        )
        assert closed_form_mutant_payoff(*args) == pytest.approx(
            expected_payoff_profile(instance, sigma, opponents), abs=1e-12
        )

    def test_resident_strictly_beats_distinct_mutants(self):
        # Strict separation at every mutant count from 1 to players-2 for
        # challengers bounded away from the optimum inside its support.
        rng = np.random.default_rng(37)
        for _ in range(25):
            players = int(rng.integers(3, 7))
            sites = int(rng.integers(2, 7))
            profile = log_uniform_profile(rng, sites)
            result = coverage_optimum(profile, players)
            width = result.support_size
            probs = np.zeros(sites)
            probs[:width] = rng.dirichlet(np.ones(width))
            if np.max(np.abs(probs - result.strategy.as_array())) < 0.01:
                continue
            sigma = Strategy.from_array(probs)
            for n_mutants in range(1, players - 1):
                args = (profile, players, width, result.normalizer, sigma, n_mutants)
                gap = closed_form_resident_payoff(*args) - closed_form_mutant_payoff(*args)
                assert gap > 1e-12

    def test_any_supported_strategy_ties_against_pure_optimum_field(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            players = int(rng.integers(2, 6))
            sites = int(rng.integers(2, 9))
            profile = log_uniform_profile(rng, sites)
            result = coverage_optimum(profile, players)
            width = result.support_size
            probs = np.zeros(sites)
            probs[:width] = rng.dirichlet(np.ones(width))
            sigma = Strategy.from_array(probs)
            instance = exclusive(profile, players)
            value = expected_payoff_profile(instance, sigma, [result.strategy] * (players - 1))
            assert value == pytest.approx(result.common_value, abs=1e-10)

    def test_rejects_mutant_outside_support(self):
        profile = ValueProfile((1.0, 0.5, 0.01))
        result = coverage_optimum(profile, 3)
        assert result.support_size == 2
        with pytest.raises(ValidationError):
            closed_form_resident_payoff(
                profile, 3, result.support_size, result.normalizer, Strategy.point_mass(3, 3), 1
            )

    @pytest.mark.parametrize("closed_form", [closed_form_resident_payoff, closed_form_mutant_payoff])
    @pytest.mark.parametrize("probs", [(1.0,), (0.5, 0.5)])
    def test_rejects_mutant_of_another_size(self, closed_form, probs):
        # Unchecked, a one-site mutant pays 0.0 and a two-site one fails to broadcast.
        profile = ValueProfile((1.0, 0.5, 0.2))
        normalizer = coverage_optimum(profile, 3).normalizer
        with pytest.raises(ValidationError, match="mutant: strategy size"):
            closed_form(profile, 3, 3, normalizer, Strategy(probs), 1)

    def test_rejects_mutant_count_out_of_range(self):
        profile = ValueProfile((1.0, 0.5))
        result = coverage_optimum(profile, 3)
        with pytest.raises(ValidationError):
            closed_form_resident_payoff(profile, 3, 2, result.normalizer, result.strategy, 2)


class TestInvasionSweep:
    def test_resident_optimum_beats_mutants_at_small_epsilon(self):
        profile = TWO_SITES
        instance = exclusive(profile)
        resident = coverage_optimum(profile, 2).strategy
        for mutant in (Strategy.point_mass(1, 2), Strategy((0.9, 0.1)), Strategy((0.2, 0.8))):
            rows = invasion_sweep(instance, resident, mutant, [1e-4, 1e-3, 1e-2, 0.1, 0.3])
            eps, u_res, u_mut = rows[0]
            assert eps == 1e-4
            assert u_res > u_mut

    def test_self_invasion_is_neutral(self):
        instance = exclusive(TWO_SITES)
        s = Strategy((0.7, 0.3))
        for _, u_res, u_mut in invasion_sweep(instance, s, s, [0.01, 0.2, 0.9]):
            assert u_res == u_mut

    def test_two_player_payoffs_are_affine_in_epsilon(self):
        instance = exclusive(TWO_SITES)
        resident = coverage_optimum(TWO_SITES, 2).strategy
        mutant = Strategy((0.25, 0.75))
        rows = invasion_sweep(instance, resident, mutant, [0.1, 0.2, 0.3])
        for column in (1, 2):
            a, b, c = (row[column] for row in rows)
            assert b - a == pytest.approx(c - b, abs=1e-10)

    def test_rejects_epsilon_outside_open_interval(self):
        instance = exclusive(TWO_SITES)
        s = Strategy((0.5, 0.5))
        with pytest.raises(ValidationError):
            invasion_sweep(instance, s, s, [0.0])


class TestMutantGenerator:
    def test_contains_all_point_masses(self):
        mutants = mutant_generator(ValueProfile((1.0, 0.6, 0.2)), 2, seed=0, count=10)
        masses = {Strategy.point_mass(x, 3).probs for x in (1, 2, 3)}
        assert masses.issubset({m.probs for m in mutants})

    def test_fewer_mutants_than_sites_are_the_first_point_masses(self):
        mutants = mutant_generator(ValueProfile((1.0, 0.6, 0.2, 0.1)), 2, seed=0, count=2)
        assert mutants == [Strategy.point_mass(1, 4), Strategy.point_mass(2, 4)]

    def test_deterministic_given_seed(self):
        a = mutant_generator(TWO_SITES, 3, seed=12, count=16)
        b = mutant_generator(TWO_SITES, 3, seed=12, count=16)
        assert [m.probs for m in a] == [m.probs for m in b]

    def test_all_outputs_are_valid_strategies(self):
        for mutant in mutant_generator(TWO_SITES, 2, seed=1, count=8):
            assert abs(sum(mutant.probs) - 1.0) <= 1e-9
            assert len(mutant.probs) == 2

    def test_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            mutant_generator(TWO_SITES, 2, seed=1, count=0)


class TestSimplexProjection:
    def test_projects_onto_simplex(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            point = rng.normal(0, 1, int(rng.integers(1, 9)))
            proj = project_to_simplex(point)
            assert np.all(proj >= 0)
            assert np.sum(proj) == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_simplex_points(self):
        point = np.array([0.2, 0.5, 0.3])
        assert project_to_simplex(point) == pytest.approx(point, abs=1e-12)
