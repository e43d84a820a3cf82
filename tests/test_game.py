import itertools
import math
import pickle

import numpy as np
import pytest
from conftest import log_uniform_profile, random_strategy

from dispersal import (
    CollisionDistribution,
    CongestionPolicy,
    GameInstance,
    SimConfig,
    Strategy,
    ValidationError,
    ValueProfile,
    closed_form_mutant_payoff,
    closed_form_resident_payoff,
    collision_distribution,
    congestion_response,
    coverage,
    coverage_grid_oracle,
    coverage_optimum,
    expected_payoff_profile,
    miss_weight,
    mutant_generator,
    payoff_single,
    site_value,
    site_values,
)
from dispersal.game import MAX_PLAYERS, _bernstein

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

    @pytest.mark.parametrize("players", [1, 2, 3, 8, 60, 2000])
    def test_weights_follow_the_per_kind_rule_bit_for_bit(self, players):
        occupancies = range(1, players + 1)
        table = (1.0, *np.linspace(0.5, -1.0, players).tolist())
        references = {
            CongestionPolicy.exclusive(): [1.0 if l == 1 else 0.0 for l in occupancies],
            CongestionPolicy.sharing(): [1 / l for l in occupancies],
            CongestionPolicy.from_table(table): [table[l - 1] for l in occupancies],
        }
        for policy, expected in references.items():
            weights = policy.weights(players)
            assert weights.dtype == np.float64
            assert weights.tobytes() == np.array(expected).tobytes()
            assert [policy.at(l) for l in occupancies] == weights.tolist()
            assert policy.is_exclusive_on(players) == (policy.kind == "exclusive" or players == 1)

    def test_short_table_error_names_the_table(self):
        policy = CongestionPolicy.from_table((1.0, 0.5))
        with pytest.raises(ValidationError, match=r"^policy\.table: needs at least 3 entries, got 2$"):
            GameInstance(TWO_SITES, 3, policy)
        with pytest.raises(ValidationError, match=r"^policy\.table: needs at least 3 entries, got 2$"):
            policy.at(3)
        with pytest.raises(ValidationError, match=r"^policy\.table: needs at least 3 entries, got 2$"):
            policy.weights(3)

    def test_exclusive_detection_covers_equivalent_tables(self):
        assert CongestionPolicy.from_table((1.0, 0.0)).is_exclusive_on(2)
        assert not CongestionPolicy.from_table((1.0, 0.1)).is_exclusive_on(2)
        assert CongestionPolicy.exclusive().is_exclusive_on(5)


EVEN = Strategy((0.5, 0.5))
SHARING = CongestionPolicy.sharing()
SHARED = GameInstance(TWO_SITES, 2, SHARING)


def closed_forms(k, players=None, support_size=2, n_mutants=1):
    """Both closed-form payoffs of the k-player optimum against point-mass mutants."""
    optimum = coverage_optimum(TWO_SITES, k)
    mutant = Strategy.point_mass(1, 2)
    args = (k if players is None else players, support_size, optimum.normalizer, mutant, n_mutants)
    return closed_form_resident_payoff(TWO_SITES, *args), closed_form_mutant_payoff(TWO_SITES, *args)


def closed_forms_direct(k, n_mutants):
    """The same payoffs through the Poisson-binomial DP."""
    optimum, mutant = coverage_optimum(TWO_SITES, k).strategy, Strategy.point_mass(1, 2)
    game = exclusive(TWO_SITES, k)
    opponents = [mutant] * n_mutants + [optimum] * (k - n_mutants - 1)
    return tuple(expected_payoff_profile(game, focal, opponents) for focal in (optimum, mutant))


def case(label, name, call, valid, expected, outside):
    """An integer argument, a call taking it, a valid value with the call's result, and an out-of-range integer."""
    return pytest.param(name, call, valid, expected, outside, id=f"{label}.{name}")


INTEGER_ARGUMENTS = [
    case("coverage", "players", lambda v: coverage(TWO_SITES, v, EVEN), 2, 1.125, 0),
    case("miss_weight", "players", lambda v: miss_weight(TWO_SITES, v, EVEN), 2, 0.375, 0),
    case("coverage_optimum", "players", lambda v: coverage_optimum(TWO_SITES, v).strategy.probs, 2, (2 / 3, 1 / 3), 1),
    case("coverage_grid_oracle", "players", lambda v: coverage_grid_oracle(TWO_SITES, v, 0.5)[1], 2, 1.125, 0),
    case("GameInstance", "players", lambda v: GameInstance(TWO_SITES, v, SHARING).players, 2, 2, 1),
    case("GameInstance_max", "players", lambda v: GameInstance(TWO_SITES, v, SHARING).players, MAX_PLAYERS,
         MAX_PLAYERS, MAX_PLAYERS + 1),
    case("GameInstance_huge", "players", lambda v: GameInstance(TWO_SITES, v, SHARING).players, 2, 2, 10**30),
    case("weights", "players", lambda v: SHARING.weights(v).tolist(), 2, [1.0, 0.5], 0),
    case("congestion_response", "players", lambda v: congestion_response(SHARING, v, [1.0]).tolist(), 2, [0.5], 0),
    case("closed_forms", "players", lambda v: closed_forms(3, players=v), 3, closed_forms_direct(3, 1), 2),
    case("sharing.at", "occupancy", lambda v: SHARING.at(v), 2, 0.5, 0),
    case("table.at", "occupancy", lambda v: CongestionPolicy.from_table((1.0, 0.5)).at(v), 2, 0.5, 0),
    case("payoff_single", "occupancy", lambda v: payoff_single(SHARED, 1, v), 2, 0.5, 3),
    case("payoff_single", "site", lambda v: payoff_single(SHARED, v, 1), 2, 0.5, 3),
    case("site_value", "site", lambda v: site_value(SHARED, EVEN, v), 2, 0.375, 0),
    case("point_mass", "site", lambda v: Strategy.point_mass(v, 2).probs, 2, (0.0, 1.0), 3),
    case("SimConfig", "rounds", lambda v: SimConfig.symmetric(v, 0, SHARED, EVEN).rounds, 2, 2, 0),
    case("SimConfig", "seed", lambda v: SimConfig.symmetric(10, v, SHARED, EVEN).seed, 2, 2, 2**64),
    case("mutant_generator", "seed", lambda v: len(mutant_generator(TWO_SITES, 2, v, 3)), 2, 3, -1),
    case("mutant_generator", "count", lambda v: len(mutant_generator(TWO_SITES, 2, 0, v)), 2, 2, 0),
    case("closed_forms", "n_mutants", lambda v: closed_forms(4, n_mutants=v), 2, closed_forms_direct(4, 2), 3),
    case("closed_forms", "support_size", lambda v: closed_forms(3, support_size=v), 2, closed_forms_direct(3, 1), 3),
]
CASES = ("name", "call", "valid", "expected", "outside")


class TestIntegerArguments:
    """Every integer argument goes through one check: bools, floats (2.0
    included) and out-of-range integers raise a ValidationError naming it."""

    @pytest.mark.parametrize("bad", [True, 2.5, 2.0])
    @pytest.mark.parametrize(CASES, INTEGER_ARGUMENTS)
    def test_bools_and_floats_are_rejected(self, name, call, valid, expected, outside, bad):
        with pytest.raises(ValidationError, match=rf"^{name}: must be an integer "):
            call(bad)

    @pytest.mark.parametrize(CASES, INTEGER_ARGUMENTS)
    def test_out_of_range_counts_are_rejected(self, name, call, valid, expected, outside):
        with pytest.raises(ValidationError, match=rf"^{name}: must be an integer .*, got {outside}$"):
            call(outside)

    @pytest.mark.parametrize(CASES, INTEGER_ARGUMENTS)
    def test_valid_counts_keep_their_results(self, name, call, valid, expected, outside):
        assert call(valid) == pytest.approx(expected, abs=1e-12)


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

    @pytest.mark.parametrize("p, columns", [(0.0, (1.0, 1.0, -6.0)), (0.5, (-1.75, 2.25, -5.0)), (1.0, (-4.0, 4.0, -4.0))])
    def test_kernel_gives_r_its_term_bound_and_r_prime(self, p, columns):
        # B ~ Bin(2, p): R = E[C(1 + B)], the term bound E|C|(1 + B) that
        # every tie band scales by, and R' = 2 E[diff C(1 + Bin(1, p))] = 2p - 6.
        instance = GameInstance(ValueProfile((1.5, 3.0)), 3, CongestionPolicy.from_table((1.0, -2.0, -4.0)))
        assert instance.kernel is instance.kernel  # built once per game
        assert instance.kernel(np.array([p]))[0] == pytest.approx(columns, rel=1e-15, abs=0.0)


    def test_instance_pickles_after_its_kernel_is_cached(self):
        # Instances go to worker processes; the cached kernel must go with them.
        instance = GameInstance(ValueProfile((1.0, 0.5)), 3, CongestionPolicy.sharing())
        ps = np.array([0.0, 0.3, 1.0])
        columns = instance.kernel(ps)
        copy = pickle.loads(pickle.dumps(instance))
        assert copy == instance
        assert np.array_equal(copy.kernel(ps), columns)


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

    def test_opponents_and_pmf_outside_the_support(self):
        dist = collision_distribution([0.5, 0.5, 0.5])
        assert dist.opponents == 3
        assert dist.pmf(-1) == 0.0
        assert dist.pmf(4) == 0.0

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

    def test_kernel_matches_power_form_and_its_bernstein_derivative(self):
        # R(p) = sum_j C(k-1, j) p^j (1-p)^(k-1-j) C(j+1), and R'(p) is k-1
        # times the Bernstein form of the differences of C (degree k-2).
        ps = np.array([0.0, 1e-3, 0.2, 0.5, 0.9, 1.0])
        inner, h = ps[1:-1], 1e-6
        for players in (2, 3, 8, 40):
            for policy in (
                CongestionPolicy.exclusive(),
                CongestionPolicy.sharing(),
                CongestionPolicy.from_table(np.linspace(1.0, -0.5, players)),
            ):
                w = policy.weights(players)
                power = sum(math.comb(players - 1, j) * ps**j * (1 - ps) ** (players - 1 - j) * w[j] for j in range(players))
                assert congestion_response(policy, players, ps) == pytest.approx(power, rel=1e-12, abs=1e-15)
                central = (congestion_response(policy, players, inner + h) - congestion_response(policy, players, inner - h)) / (2 * h)
                assert _bernstein((players - 1) * np.diff(w))(inner) == pytest.approx(central, rel=1e-6, abs=1e-9)

    def test_matrix_columns_match_vector_evaluations(self):
        # Row 2 is zero in every column and is skipped; column 1 is all zero.
        ps = np.array([0.0, 1e-300, 1e-3, 0.2, 0.5, 0.9, 1.0])
        small = np.array([[1.0, 0.0, 2.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0],
                          [0.2, 0.0, 1.0], [0.1, 0.0, 0.0], [0.0, 0.0, 3.0]])
        for players in (40, 2000):
            weights = [CongestionPolicy(kind).weights(players) for kind in ("sharing", "exclusive")]
            large = np.column_stack((*weights, np.linspace(1.0, 0.5, players)))
            for coeffs in (small, large):
                columns = _bernstein(coeffs)(ps)
                assert columns.shape == (ps.size, 3)
                for i in range(3):
                    expected = _bernstein(coeffs[:, i])(ps)
                    assert columns[:, i] == pytest.approx(expected, rel=1e-15, abs=0.0)

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
