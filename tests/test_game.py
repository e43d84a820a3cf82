import itertools
import math

import numpy as np
import pytest
from conftest import log_uniform_profile, random_strategy

from dispersal import (
    CollisionDistribution,
    CongestionPolicy,
    GameInstance,
    Strategy,
    ValidationError,
    ValueProfile,
    collision_distribution,
    coverage,
    expected_payoff_profile,
    miss_weight,
    payoff_single,
    site_value,
    site_values,
)

TWO_SITES = ValueProfile((1.0, 0.5))


def exclusive(profile=TWO_SITES, players=2):
    return GameInstance(profile, players, CongestionPolicy.exclusive())


def sharing(profile=TWO_SITES, players=2):
    return GameInstance(profile, players, CongestionPolicy.sharing())


class TestValueProfile:
    def test_sorts_descending_and_keeps_permutation(self):
        profile = ValueProfile((0.3, 1.0, 0.7))
        assert profile.values == (1.0, 0.7, 0.3)
        assert profile.input_order == (1, 2, 0)

    def test_ties_keep_input_order(self):
        profile = ValueProfile((0.5, 1.0, 0.5))
        assert profile.values == (1.0, 0.5, 0.5)
        assert profile.input_order == (1, 0, 2)

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 2.0), (1.0, float("nan"))])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValidationError):
            ValueProfile(bad)


class TestCongestionPolicy:
    def test_exclusive_weights(self):
        policy = CongestionPolicy.exclusive()
        assert policy.at(1) == 1.0
        assert policy.at(2) == 0.0
        assert policy.at(7) == 0.0

    def test_sharing_weights(self):
        policy = CongestionPolicy.sharing()
        assert policy.at(1) == 1.0
        assert policy.at(4) == 0.25

    def test_table_allows_negative_collision_weights(self):
        policy = CongestionPolicy.from_table((1.0, -0.5))
        assert policy.at(2) == -0.5

    def test_table_must_start_at_one(self):
        with pytest.raises(ValidationError):
            CongestionPolicy.from_table((0.9, 0.5))

    def test_table_must_be_non_increasing(self):
        with pytest.raises(ValidationError):
            CongestionPolicy.from_table((1.0, 0.2, 0.5))

    def test_exclusive_detection_covers_equivalent_tables(self):
        assert CongestionPolicy.from_table((1.0, 0.0)).is_exclusive_on(2)
        assert not CongestionPolicy.from_table((1.0, 0.1)).is_exclusive_on(2)
        assert CongestionPolicy.exclusive().is_exclusive_on(5)


class TestStrategy:
    def test_sum_must_be_one(self):
        with pytest.raises(ValidationError):
            Strategy((0.6, 0.5))

    def test_entries_must_be_probabilities(self):
        with pytest.raises(ValidationError):
            Strategy((1.5, -0.5))

    def test_point_mass_and_support(self):
        s = Strategy.point_mass(2, 3)
        assert s.probs == (0.0, 1.0, 0.0)
        assert s.support() == (2,)

    def test_sum_tolerance_accepts_tiny_drift(self):
        Strategy((0.5, 0.5 + 5e-10))


class TestGameInstance:
    def test_rejects_single_player(self):
        with pytest.raises(ValidationError):
            GameInstance(TWO_SITES, 1, CongestionPolicy.exclusive())

    def test_table_must_cover_player_count(self):
        with pytest.raises(ValidationError):
            GameInstance(TWO_SITES, 3, CongestionPolicy.from_table((1.0, 0.5)))


class TestPayoffSingle:
    def test_solo_visitor_gets_full_value(self):
        assert payoff_single(exclusive(), 1, 1) == 1.0

    def test_exclusive_collision_pays_nothing(self):
        assert payoff_single(exclusive(players=3), 2, 3) == 0.0

    def test_sharing_splits_evenly(self):
        assert payoff_single(sharing(), 1, 2) == 0.5

    def test_out_of_range_arguments(self):
        with pytest.raises(ValidationError):
            payoff_single(exclusive(), 3, 1)
        with pytest.raises(ValidationError):
            payoff_single(exclusive(), 1, 5)


class TestCollisionDistribution:
    def test_no_opponents(self):
        assert collision_distribution([]).probs_by_count == (1.0,)

    def test_single_opponent(self):
        dist = collision_distribution([0.3])
        assert dist.probs_by_count == pytest.approx((0.7, 0.3), abs=1e-15)

    def test_two_fair_coins(self):
        dist = collision_distribution([0.5, 0.5])
        assert dist.probs_by_count == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValidationError):
            collision_distribution([0.5, 1.2])

    @pytest.mark.parametrize("n,p", [(1, 0.3), (4, 0.15), (7, 0.84), (7, 0.0), (5, 1.0)])
    def test_identical_entries_match_binomial(self, n, p):
        dist = collision_distribution([p] * n)
        for count in range(n + 1):
            expected = math.comb(n, count) * p**count * (1 - p) ** (n - count)
            assert dist.pmf(count) == pytest.approx(expected, abs=1e-12)

    def test_validation_of_constructed_distribution(self):
        with pytest.raises(ValidationError):
            CollisionDistribution((0.5, 0.4))
        with pytest.raises(ValidationError):
            CollisionDistribution((1.1, -0.1))

    @pytest.mark.parametrize("entry", ["0.5", True, None])
    @pytest.mark.parametrize(
        "build,name",
        [(collision_distribution, "opponent_probs"), (CollisionDistribution, "probs_by_count")],
    )
    def test_entries_must_be_numbers(self, build, name, entry):
        with pytest.raises(ValidationError, match=rf"^{name}\[0\]: must be a number$"):
            build([entry, 0.5])


class TestSiteValue:
    def test_exclusive_two_player_closed_form(self):
        strategy = Strategy((2 / 3, 1 / 3))
        assert site_value(exclusive(), strategy, 1) == pytest.approx(1 / 3, abs=1e-12)
        assert site_value(exclusive(), strategy, 2) == pytest.approx(0.5 * (2 / 3), abs=1e-12)

    def test_unvisited_site_pays_full_value(self):
        strategy = Strategy((1.0, 0.0))
        assert site_value(sharing(players=4), strategy, 2) == 0.5

    def test_certain_collision_under_sharing(self):
        strategy = Strategy((1.0, 0.0))
        assert site_value(sharing(), strategy, 1) == pytest.approx(0.5, abs=1e-15)

    def test_decreasing_in_own_probability_for_nonconstant_policy(self):
        rng = np.random.default_rng(3)
        for policy in (CongestionPolicy.exclusive(), CongestionPolicy.sharing(),
                       CongestionPolicy.from_table((1.0, 0.4, -0.2))):
            instance = GameInstance(ValueProfile((1.0, 0.8, 0.6)), 3, policy)
            ps = np.sort(rng.uniform(0.01, 0.99, 6))
            values = []
            for p in ps:
                rest = (1.0 - p) / 2
                values.append(site_value(instance, Strategy((p, rest, rest)), 1))
            diffs = np.diff(values)
            assert np.all(diffs < 0.0)

    def test_non_increasing_for_flat_then_dropping_policy(self):
        instance = GameInstance(ValueProfile((1.0, 0.8)), 3, CongestionPolicy.from_table((1.0, 1.0, 0.0)))
        low = site_value(instance, Strategy((0.2, 0.8)), 1)
        high = site_value(instance, Strategy((0.7, 0.3)), 1)
        assert high < low


class TestExpectedPayoffProfile:
    def test_any_focal_inside_equalized_support_earns_common_value(self):
        rng = np.random.default_rng(11)
        opponent = Strategy((2 / 3, 1 / 3))
        for _ in range(5):
            focal = random_strategy(rng, 2)
            got = expected_payoff_profile(exclusive(), focal, [opponent])
            assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_certain_collision_pays_zero_under_exclusive(self):
        delta = Strategy.point_mass(1, 2)
        assert expected_payoff_profile(exclusive(), delta, [delta]) == 0.0

    def test_certain_collision_splits_under_sharing(self):
        delta = Strategy.point_mass(1, 2)
        assert expected_payoff_profile(sharing(), delta, [delta]) == 0.5

    def test_wrong_opponent_count(self):
        with pytest.raises(ValidationError):
            expected_payoff_profile(exclusive(), Strategy((0.5, 0.5)), [])

    def test_exclusive_matches_product_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sites = int(rng.integers(2, 7))
            players = int(rng.integers(2, 6))
            profile = log_uniform_profile(rng, sites)
            instance = GameInstance(profile, players, CongestionPolicy.exclusive())
            focal = random_strategy(rng, sites)
            opponents = [random_strategy(rng, sites) for _ in range(players - 1)]
            got = expected_payoff_profile(instance, focal, opponents)
            f = profile.as_array()
            survive = np.prod([1.0 - o.as_array() for o in opponents], axis=0)
            want = float(np.sum(f * focal.as_array() * survive))
            assert got == pytest.approx(want, abs=1e-12)

    def test_identical_opponents_reduce_to_site_values(self):
        rng = np.random.default_rng(6)
        for policy in (CongestionPolicy.sharing(), CongestionPolicy.from_table((1.0, 0.3, -0.4, -0.4))):
            for _ in range(10):
                sites = int(rng.integers(2, 6))
                players = int(rng.integers(2, 5))
                instance = GameInstance(log_uniform_profile(rng, sites), players, policy)
                focal = random_strategy(rng, sites)
                resident = random_strategy(rng, sites)
                got = expected_payoff_profile(instance, focal, [resident] * (players - 1))
                want = float(
                    np.dot(focal.as_array(), site_values(instance, resident))
                )
                assert got == pytest.approx(want, abs=1e-12)

    def test_heterogeneous_opponents_match_enumeration(self):
        rng = np.random.default_rng(7)
        policy = CongestionPolicy.from_table((1.0, 0.6, -0.1, -0.5))
        for _ in range(10):
            sites = int(rng.integers(1, 5))
            players = int(rng.integers(2, 5))
            profile = log_uniform_profile(rng, sites)
            instance = GameInstance(profile, players, policy)
            focal = random_strategy(rng, sites)
            opponents = [random_strategy(rng, sites) for _ in range(players - 1)]
            want = 0.0
            for picks in itertools.product(range(sites), repeat=players - 1):
                chance = math.prod(o.probs[x] for o, x in zip(opponents, picks))
                for x in range(sites):
                    occupancy = 1 + picks.count(x)
                    want += chance * focal.probs[x] * profile.values[x] * policy.at(occupancy)
            got = expected_payoff_profile(instance, focal, opponents)
            assert got == pytest.approx(want, abs=1e-12)


class TestCoverage:
    def test_two_site_closed_form(self):
        assert coverage(TWO_SITES, 2, Strategy((2 / 3, 1 / 3))) == pytest.approx(7 / 6, abs=1e-12)

    def test_point_mass_covers_one_site(self):
        assert coverage(TWO_SITES, 5, Strategy.point_mass(1, 2)) == 1.0

    def test_degenerate_profile(self):
        assert coverage(ValueProfile((1.0, 0.3)), 2, Strategy((1.0, 0.0))) == 1.0

    def test_miss_weight_examples(self):
        assert miss_weight(TWO_SITES, 2, Strategy((2 / 3, 1 / 3))) == pytest.approx(1 / 3, abs=1e-12)
        assert miss_weight(TWO_SITES, 2, Strategy.point_mass(1, 2)) == 0.5
        assert miss_weight(ValueProfile((1.0,)), 3, Strategy((1.0,))) == 0.0

    def test_complement_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            sites = int(rng.integers(1, 12))
            players = int(rng.integers(1, 9))
            profile = log_uniform_profile(rng, sites)
            strategy = random_strategy(rng, sites)
            total = coverage(profile, players, strategy) + miss_weight(profile, players, strategy)
            assert total == pytest.approx(profile.total, abs=1e-12)
