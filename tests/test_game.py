import dataclasses
import itertools
import math
import pickle
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from conftest import log_uniform_profile, random_strategy
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import full_row_bernstein

import dispersal
from dispersal import (
    CongestionPolicy,
    GameInstance,
    SimConfig,
    Strategy,
    ValidationError,
    ValueProfile,
    closed_form_mutant_payoff,
    closed_form_resident_payoff,
    coverage,
    coverage_optimum,
    ess_batch,
    ess_characterization,
    expected_payoff_profile,
    invasion_sweep,
    mutant_generator,
    project_to_simplex,
    simulate,
    site_values,
    solve_ifd,
    verify_ifd,
    welfare_optimum,
)
from dispersal.game import _WINDOW_FROM, MAX_PLAYERS, _bernstein, _collision_pmfs

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

    def test_input_order_is_not_an_argument(self):
        # It is derived from the values; an argument for it would be ignored.
        with pytest.raises(TypeError, match="input_order"):
            ValueProfile((0.3, 1.0), input_order=(0, 1))

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 2.0), (1.0, float("nan"))])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(ValidationError):
            ValueProfile(bad)

    def test_rejects_values_whose_total_overflows(self):
        # The total bounds the coverage and every simulated mean.
        assert ValueProfile((sys.float_info.max,)).values == (sys.float_info.max,)
        assert ValueProfile((1e308, 7e307)).values == (1e308, 7e307)
        with pytest.raises(ValidationError, match=r"^values: their total overflows a float$"):
            ValueProfile((1.5e308, 1.2e308))


class TestCongestionPolicy:
    def test_exclusive_weights(self):
        assert CongestionPolicy.exclusive().weights(7).tolist() == [1.0] + [0.0] * 6

    def test_sharing_weights(self):
        assert CongestionPolicy.sharing().weights(4).tolist() == [1.0, 0.5, 1 / 3, 0.25]

    def test_table_allows_negative_collision_weights(self):
        assert CongestionPolicy.from_table((1.0, -0.5)).weights(2).tolist() == [1.0, -0.5]

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
            # Every prefix is the same rule: C(l) does not depend on how many occupancies are asked for.
            assert [policy.weights(l)[-1] for l in occupancies] == weights.tolist()
            assert policy.is_exclusive_on(players) == (policy.kind == "exclusive" or players == 1)
            if players >= 2:
                assert GameInstance(TWO_SITES, players, policy).weights.tobytes() == weights.tobytes()

    def test_short_table_error_names_the_table(self):
        policy = CongestionPolicy.from_table((1.0, 0.5))
        with pytest.raises(ValidationError, match=r"^policy\.table: needs at least 3 entries, got 2$"):
            GameInstance(TWO_SITES, 3, policy)
        with pytest.raises(ValidationError, match=r"^policy\.table: needs at least 3 entries, got 2$"):
            policy.weights(3)

    def test_exclusive_detection_covers_equivalent_tables(self):
        assert CongestionPolicy.from_table((1.0, 0.0)).is_exclusive_on(2)
        assert not CongestionPolicy.from_table((1.0, 0.1)).is_exclusive_on(2)
        assert CongestionPolicy.exclusive().is_exclusive_on(5)


EVEN = Strategy((0.5, 0.5))
SHARING = CongestionPolicy.sharing()
SHARED = GameInstance(TWO_SITES, 2, SHARING)


def closed_forms(k, players=None, support_size=2, n_mutants=1, mutant=Strategy.point_mass(1, 2)):
    """Both closed-form payoffs of the k-player optimum against (by default point-mass) mutants."""
    optimum = coverage_optimum(TWO_SITES, k)
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
    case("coverage_optimum", "players", lambda v: coverage_optimum(TWO_SITES, v).strategy.probs, 2, (2 / 3, 1 / 3), 1),
    case("GameInstance", "players", lambda v: GameInstance(TWO_SITES, v, SHARING).players, 2, 2, 1),
    case("GameInstance_max", "players", lambda v: GameInstance(TWO_SITES, v, SHARING).players, MAX_PLAYERS,
         MAX_PLAYERS, MAX_PLAYERS + 1),
    case("GameInstance_huge", "players", lambda v: GameInstance(TWO_SITES, v, SHARING).players, 2, 2, 10**30),
    # A table too short for the count: the count's own check comes first and names it, not the table.
    case("GameInstance_table", "players",
         lambda v: GameInstance(TWO_SITES, v, CongestionPolicy.from_table((1.0, 0.5))).weights.tolist(), 2, [1.0, 0.5],
         MAX_PLAYERS + 1),
    case("weights", "players", lambda v: SHARING.weights(v).tolist(), 2, [1.0, 0.5], 0),
    case("closed_forms", "players", lambda v: closed_forms(3, players=v), 3, closed_forms_direct(3, 1), 2),
    case("exclusive.weights", "players", lambda v: CongestionPolicy.exclusive().weights(v).tolist(), 2, [1.0, 0.0], 0),
    case("table.weights", "players", lambda v: CongestionPolicy.from_table((1.0, 0.5)).weights(v).tolist(), 2,
         [1.0, 0.5], 0),
    case("is_exclusive_on", "players", lambda v: SHARING.is_exclusive_on(v), 2, False, 0),
    case("point_mass", "site", lambda v: Strategy.point_mass(v, 2).probs, 2, (0.0, 1.0), 3),
    case("point_mass", "size", lambda v: Strategy.point_mass(1, v).probs, 2, (1.0, 0.0), 0),
    case("uniform", "size", lambda v: Strategy.uniform(v).probs, 2, (0.5, 0.5), 0),
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


FIRST = Strategy.point_mass(1, 2)


def sized(label, name, call, valid, expected):
    """A strategy argument, a call taking it, and a valid strategy with the call's result."""
    return pytest.param(name, call, valid, expected, id=f"{label}.{name}")


# Against SHARED, EVEN's field pays (0.75, 0.375); FIRST resists EVEN from m = 1 on.
STRATEGY_ARGUMENTS = [
    sized("site_values", "strategy", lambda s: site_values(SHARED, s).tolist(), EVEN, [0.75, 0.375]),
    sized("coverage", "strategy", lambda s: coverage(TWO_SITES, 2, s), EVEN, 1.125),
    sized("expected_payoff_profile", "focal", lambda s: expected_payoff_profile(SHARED, s, [EVEN]), EVEN, 0.5625),
    sized("expected_payoff_profile", "opponents[0]", lambda s: expected_payoff_profile(SHARED, EVEN, [s]), EVEN, 0.5625),
    # The error names the opponent at fault, not the first one.
    sized("expected_payoff_profile", "opponents[1]",
          lambda s: expected_payoff_profile(GameInstance(TWO_SITES, 3, SHARING), EVEN, [EVEN, s]), EVEN, 0.4375),
    sized("verify_ifd", "strategy", lambda s: verify_ifd(SHARED, s).site_values, EVEN, (0.75, 0.375)),
    sized("invasion_sweep", "resident", lambda s: invasion_sweep(SHARED, s, EVEN, [0.5])[0], EVEN, (0.5, 0.5625, 0.5625)),
    sized("invasion_sweep", "mutant", lambda s: invasion_sweep(SHARED, EVEN, s, [0.5])[0], EVEN, (0.5, 0.5625, 0.5625)),
    sized("ess_batch", "candidate", lambda s: ess_batch(SHARED, s, [EVEN])[0].witness_m, FIRST, 1),
    sized("ess_batch", "mutant", lambda s: ess_batch(SHARED, FIRST, [s])[0].witness_m, EVEN, 1),
    sized("ess_characterization", "candidate", lambda s: ess_characterization(SHARED, s, EVEN).witness_m, FIRST, 1),
    sized("ess_characterization", "mutant", lambda s: ess_characterization(SHARED, FIRST, s).witness_m, EVEN, 1),
    sized("closed_form_resident_payoff", "mutant", lambda s: closed_forms(3, mutant=s)[0], FIRST,
          closed_forms_direct(3, 1)[0]),
    sized("closed_form_mutant_payoff", "mutant", lambda s: closed_forms(3, mutant=s)[1], FIRST,
          closed_forms_direct(3, 1)[1]),
    sized("SimConfig", "strategies[1]", lambda s: SimConfig(10, 0, SHARED, (EVEN, s)).strategies[1].probs, EVEN,
          (0.5, 0.5)),
    sized("SimConfig.symmetric", "strategies[0]", lambda s: SimConfig.symmetric(10, 0, SHARED, s).strategies[1].probs,
          EVEN, (0.5, 0.5)),
    sized("SimConfig_after_a_run", "strategies[2]", lambda s: SimConfig(10, 0, GameInstance(TWO_SITES, 3, SHARING),
          (EVEN, EVEN, s)).strategies[2].probs, EVEN, (0.5, 0.5)),
]


class TestStrategyArguments:
    """Every strategy argument goes through one check, whose error names the argument
    and gives both sizes, or the type of a non-strategy; a strategy of the game's size
    keeps its result."""

    @pytest.mark.parametrize("wrong", [Strategy((1.0,)), Strategy((0.5, 0.25, 0.25))], ids=["fewer", "more"])
    @pytest.mark.parametrize(("name", "call", "valid", "expected"), STRATEGY_ARGUMENTS)
    def test_wrong_sizes_are_rejected(self, name, call, valid, expected, wrong):
        with pytest.raises(ValidationError, match=rf"^{re.escape(name)}: expected 2 entries, got {wrong.size}$"):
            call(wrong)

    @pytest.mark.parametrize("wrong", [[0.5, 0.5], (0.5, 0.5), None], ids=["list", "tuple", "None"])
    @pytest.mark.parametrize(("name", "call", "valid", "expected"), STRATEGY_ARGUMENTS)
    def test_non_strategies_are_rejected(self, name, call, valid, expected, wrong):
        message = rf"^{re.escape(name)}: must be a Strategy, got {type(wrong).__name__}$"
        with pytest.raises(ValidationError, match=message):
            call(wrong)

    @pytest.mark.parametrize(("name", "call", "valid", "expected"), STRATEGY_ARGUMENTS)
    def test_valid_strategies_keep_their_results(self, name, call, valid, expected):
        assert call(valid) == pytest.approx(expected, abs=1e-12)


class TestGameInstanceParts:
    """A game's profile and policy are checked on construction, with the message shape of a
    strategy's check, not left to fail later with an AttributeError."""

    @pytest.mark.parametrize("wrong", [None, [1.0, 0.5], (1.0, 0.5)], ids=["None", "list", "tuple"])
    def test_non_profiles_are_rejected(self, wrong):
        message = rf"^profile: must be a ValueProfile, got {type(wrong).__name__}$"
        with pytest.raises(ValidationError, match=message):
            GameInstance(wrong, 2, CongestionPolicy.sharing())

    @pytest.mark.parametrize("wrong", [None, "sharing", [1.0, 0.5]], ids=["None", "str", "list"])
    def test_non_policies_are_rejected(self, wrong):
        message = rf"^policy: must be a CongestionPolicy, got {type(wrong).__name__}$"
        with pytest.raises(ValidationError, match=message):
            GameInstance(TWO_SITES, 2, wrong)


def ranged(name, call, expected, bounds, outside):
    """A closed-range argument, a call taking a value for it, the call's result as a function
    of that value, the range as its error prints it, and values just outside the range."""
    return pytest.param(name, call, expected, bounds, outside, id=name)


BELOW_ZERO, ABOVE_ONE = math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)


def rest(v):
    """The other entry of a two-entry distribution holding ``v``, kept in [0, 1]."""
    return min(1.0, max(0.0, 1.0 - v))


RANGE_ARGUMENTS = [
    ranged("probs[1]", lambda v: Strategy((rest(v), v)).probs[1], lambda v: v, "[0, 1]",
           [BELOW_ZERO, ABOVE_ONE, -0.5, 1.5]),
]
RANGES = ("name", "call", "expected", "bounds", "outside")


class TestRangeArguments:
    """Every closed-range argument goes through one check: the first entry outside
    the range raises ``name: must lie in [low, high], got v``, and both ends pass."""

    @pytest.mark.parametrize(RANGES, RANGE_ARGUMENTS)
    def test_values_just_outside_are_rejected(self, name, call, expected, bounds, outside):
        for v in outside:
            message = rf"^{re.escape(name)}: must lie in {re.escape(bounds)}, got {re.escape(repr(v))}$"
            with pytest.raises(ValidationError, match=message):
                call(v)

    @pytest.mark.parametrize("end", [0.0, -0.0, 1.0])
    @pytest.mark.parametrize(RANGES, RANGE_ARGUMENTS)
    def test_ends_pass(self, name, call, expected, bounds, outside, end):
        assert call(end) == pytest.approx(expected(end), abs=1e-15)

    def test_the_first_entry_outside_is_named(self):
        with pytest.raises(ValidationError, match=r"^probs\[0\]: must lie in \[0, 1\], got 1\.5$"):
            Strategy((1.5, -0.5))

    def test_a_strategy_keeps_its_sum_message(self):
        with pytest.raises(ValidationError, match=r"^probs: must sum to 1 within 1e-09, got 0\.9$"):
            Strategy((0.5, 0.4))


# Each call takes a list for the named argument; None is left out where it means "no table".
LIST_ARGUMENTS = [
    pytest.param("probs", Strategy, [None, 0.5], id="Strategy"),
    pytest.param("values", ValueProfile, [None, 0.5], id="ValueProfile"),
    pytest.param("policy.table", lambda v: CongestionPolicy("table", v), [3, 0.5], id="CongestionPolicy"),
    pytest.param("epsilons", lambda v: invasion_sweep(SHARED, EVEN, FIRST, v), [None, 0.5], id="invasion_sweep"),
    pytest.param("opponents", lambda v: expected_payoff_profile(SHARED, EVEN, v), [None, EVEN],
                 id="expected_payoff_profile"),
    pytest.param("mutants", lambda v: ess_batch(SHARED, FIRST, v), [None, 5, EVEN], id="ess_batch"),
    pytest.param("strategies", lambda v: SimConfig(10, 0, SHARED, v), [None, 5, EVEN], id="SimConfig"),
]


class TestListArguments:
    """Every list argument is read through one check, so a value that is not
    iterable raises ``name: must be a list, got <type>``."""

    @pytest.mark.parametrize(("name", "call", "bad"), LIST_ARGUMENTS)
    def test_non_iterables_are_rejected(self, name, call, bad):
        for value in bad:
            with pytest.raises(ValidationError, match=rf"^{re.escape(name)}: must be a list, got {type(value).__name__}$"):
                call(value)


def listed(label, name, call, valid, expected):
    """A list-of-numbers argument, a call taking it, and a valid list with the call's result."""
    return pytest.param(name, call, valid, expected, id=label)


# The valid lists hold dyadic entries, exact in every real type below.
NUMBER_ARGUMENTS = [
    listed("Strategy", "probs", lambda v: Strategy(v).probs, (0.5, 0.5), (0.5, 0.5)),
    listed("ValueProfile", "values", lambda v: ValueProfile(v).values, (1.0, 0.5), (1.0, 0.5)),
    listed("CongestionPolicy", "policy.table", lambda v: CongestionPolicy("table", v).table, (1.0, 0.5), (1.0, 0.5)),
    listed("invasion_sweep", "epsilons", lambda v: invasion_sweep(SHARED, EVEN, EVEN, v), (0.25, 0.5),
           [(0.25, 0.5625, 0.5625), (0.5, 0.5625, 0.5625)]),
    listed("project_to_simplex", "point", lambda v: project_to_simplex(v).tolist(), (0.75, 0.25), [0.75, 0.25]),
]
NUMBERS = ("name", "call", "valid", "expected")


class TestNumberArguments:
    """Every list of numbers is read through one check: the first entry that is
    not a real number, or not finite, is named, and any real type is read as a float."""

    @pytest.mark.parametrize("bad", ["0.5", True, None, 1j], ids=["str", "bool", "None", "complex"])
    @pytest.mark.parametrize(NUMBERS, NUMBER_ARGUMENTS)
    def test_non_numbers_are_rejected(self, name, call, valid, expected, bad):
        with pytest.raises(ValidationError, match=rf"^{re.escape(name)}\[1\]: must be a number$"):
            call((valid[0], bad))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge_int"])
    @pytest.mark.parametrize(NUMBERS, NUMBER_ARGUMENTS)
    def test_non_finite_entries_are_rejected(self, name, call, valid, expected, bad):
        with pytest.raises(ValidationError, match=rf"^{re.escape(name)}\[1\]: must be finite$"):
            call((valid[0], bad))

    @pytest.mark.parametrize("real", [float, Fraction, np.float32])
    @pytest.mark.parametrize(NUMBERS, NUMBER_ARGUMENTS)
    def test_any_real_type_keeps_the_result(self, name, call, valid, expected, real):
        assert call(tuple(map(real, valid))) == expected

    # An empty list of epsilons is allowed: it gives no rows.
    @pytest.mark.parametrize(NUMBERS, [row for row in NUMBER_ARGUMENTS if row.id != "invasion_sweep"])
    def test_empty_lists_are_rejected(self, name, call, valid, expected):
        with pytest.raises(ValidationError, match=rf"^{re.escape(name)}: must be a non-empty list$"):
            call(())


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

    @pytest.mark.parametrize(
        "values, table, message",
        [
            # R' at p = 0 is 2 (C(2) - C(1)) = -2e308.
            pytest.param((1.0, 0.5), (1.0, -1e308, -1.5e308),
                         r"\(players - 1\) times the largest step of C, 2 \* 1e\+308", id="slope"),
            # A collision pays 10 * -1e308.
            pytest.param((10.0, 5.0), (1.0, -1e308), r"the largest value times C\(2\), 10 \* -1e\+308", id="payoff"),
        ],
    )
    def test_rejects_tables_whose_kernel_or_payoffs_overflow(self, values, table, message):
        with pytest.raises(ValidationError, match=rf"^policy\.table: {message}, overflows a float$"):
            GameInstance(ValueProfile(values), len(table), CongestionPolicy.from_table(table))

    def test_tables_at_the_edge_of_the_float_range_evaluate(self):
        # (k - 1) max|diff C| = 1.6e308 and f(1) |C(k)| = 1.6e308 both fit; no warning is raised.
        instance = GameInstance(TWO_SITES, 3, CongestionPolicy.from_table((1.0, -0.8e308, -1.6e308)))
        assert np.all(np.isfinite(instance.kernel(np.array([0.0, 0.5, 1.0]))))

    @pytest.mark.parametrize("p, columns", [(0.0, (1.0, 1.0, -6.0)), (0.5, (-1.75, 2.25, -5.0)), (1.0, (-4.0, 4.0, -4.0))])
    def test_kernel_gives_r_its_term_bound_and_r_prime(self, p, columns):
        # B ~ Bin(2, p): R = E[C(1 + B)], the term bound E|C|(1 + B) that
        # every tie band scales by, and R' = 2 E[diff C(1 + Bin(1, p))] = 2p - 6.
        instance = GameInstance(ValueProfile((1.5, 3.0)), 3, CongestionPolicy.from_table((1.0, -2.0, -4.0)))
        assert instance.kernel is instance.kernel  # built once per game
        assert instance.kernel(np.array([p]))[0] == pytest.approx(columns, rel=1e-15, abs=0.0)


    def test_weights_are_read_only(self):
        instance = GameInstance(TWO_SITES, 3, CongestionPolicy.sharing())
        copy = pickle.loads(pickle.dumps(instance))
        for game in (instance, copy):
            with pytest.raises(ValueError, match="read-only"):
                game.weights[0] = 2.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                game.weights = np.ones(3)
            assert game.weights.tolist() == [1.0, 0.5, 1 / 3]

    def test_instance_pickles_after_its_kernel_is_cached(self):
        # Instances go to worker processes; the cached kernel must go with them.
        instance = GameInstance(ValueProfile((1.0, 0.5)), 3, CongestionPolicy.sharing())
        ps = np.array([0.0, 0.3, 1.0])
        columns = instance.kernel(ps)
        copy = pickle.loads(pickle.dumps(instance))
        assert copy == instance
        assert np.array_equal(copy.kernel(ps), columns)


class TestPayoffSingle:
    """A player at site x with l players there in all earns value(x) * C(l): the
    payoff of a profile of point masses."""

    @pytest.mark.parametrize(
        ("instance", "site", "occupancy", "expected"),
        [(exclusive(), 1, 1, 1.0), (exclusive(players=3), 2, 3, 0.0), (sharing(), 1, 2, 0.5)],
        ids=["solo_visitor_gets_full_value", "exclusive_collision_pays_nothing", "sharing_splits_evenly"],
    )
    def test_point_masses_pay_value_times_weight(self, instance, site, occupancy, expected):
        here, elsewhere = Strategy.point_mass(site, 2), Strategy.point_mass(3 - site, 2)
        opponents = [here] * (occupancy - 1) + [elsewhere] * (instance.players - occupancy)
        payoff = expected_payoff_profile(instance, here, opponents)
        assert payoff == instance.profile.values[site - 1] * instance.weights[occupancy - 1] == expected


def opponent_count_pmf(opponent_probs):
    """The pmf of how many of the opponents pick a site, each with its own probability."""
    return _collision_pmfs(np.array(opponent_probs, dtype=float).reshape(-1, 1))[0]


class TestCollisionDistribution:
    def test_no_opponents(self):
        assert opponent_count_pmf([]).tolist() == [1.0]

    def test_single_opponent(self):
        assert opponent_count_pmf([0.3]) == pytest.approx((0.7, 0.3), abs=1e-15)

    def test_two_fair_coins(self):
        assert opponent_count_pmf([0.5, 0.5]) == pytest.approx((0.25, 0.5, 0.25), abs=1e-15)

    def test_distinct_coins(self):
        assert opponent_count_pmf([0.3, 0.6]) == pytest.approx((0.28, 0.54, 0.18), abs=1e-15)

    @pytest.mark.parametrize("n,p", [(1, 0.3), (4, 0.15), (7, 0.84), (7, 0.0), (5, 1.0)])
    def test_identical_entries_match_binomial(self, n, p):
        pmf = opponent_count_pmf([p] * n)
        assert pmf.shape == (n + 1,)
        for count in range(n + 1):
            expected = math.comb(n, count) * p**count * (1 - p) ** (n - count)
            assert pmf[count] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 60])
    def test_each_site_gets_a_distribution_with_the_poisson_binomial_moments(self, n):
        # No check guards the pmfs once built, so the DP itself must give a
        # distribution: non-negative, total 1, mean sum p, variance sum p(1 - p).
        opponent_probs = np.random.default_rng(n).dirichlet(np.ones(3), size=n)
        counts = np.arange(n + 1)
        for pmf, p in zip(_collision_pmfs(opponent_probs), opponent_probs.T):
            assert pmf.shape == (n + 1,) and np.all(pmf >= 0.0)
            assert math.fsum(pmf) == pytest.approx(1.0, abs=1e-12)
            assert pmf @ counts == pytest.approx(p.sum(), abs=1e-12)
            assert pmf @ (counts - p.sum()) ** 2 == pytest.approx(np.sum(p * (1.0 - p)), abs=1e-12)


class TestSiteValue:
    def test_exclusive_two_player_closed_form(self):
        strategy = Strategy((2 / 3, 1 / 3))
        assert site_values(exclusive(), strategy) == pytest.approx((1 / 3, 0.5 * (2 / 3)), abs=1e-12)

    def test_unvisited_site_pays_full_value(self):
        strategy = Strategy((1.0, 0.0))
        assert site_values(sharing(players=4), strategy)[1] == 0.5

    def test_certain_collision_under_sharing(self):
        strategy = Strategy((1.0, 0.0))
        assert site_values(sharing(), strategy)[0] == pytest.approx(0.5, abs=1e-15)

    def test_decreasing_in_own_probability_for_nonconstant_policy(self):
        rng = np.random.default_rng(3)
        for policy in (CongestionPolicy.exclusive(), CongestionPolicy.sharing(),
                       CongestionPolicy.from_table((1.0, 0.4, -0.2))):
            instance = GameInstance(ValueProfile((1.0, 0.8, 0.6)), 3, policy)
            ps = np.sort(rng.uniform(0.01, 0.99, 6))
            values = []
            for p in ps:
                rest = (1.0 - p) / 2
                values.append(site_values(instance, Strategy((p, rest, rest)))[0])
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
                w, kernel = policy.weights(players), GameInstance(TWO_SITES, players, policy).kernel
                power = sum(math.comb(players - 1, j) * ps**j * (1 - ps) ** (players - 1 - j) * w[j] for j in range(players))
                assert kernel(ps)[:, 0] == pytest.approx(power, rel=1e-12, abs=1e-15)
                central = (kernel(inner + h)[:, 0] - kernel(inner - h)[:, 0]) / (2 * h)
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
        low = site_values(instance, Strategy((0.2, 0.8)))[0]
        high = site_values(instance, Strategy((0.7, 0.3)))[0]
        assert high < low


KERNEL_POLICIES = [
    pytest.param(lambda k: CongestionPolicy.exclusive(), id="exclusive"),
    pytest.param(lambda k: CongestionPolicy.sharing(), id="sharing"),
    pytest.param(lambda k: CongestionPolicy.from_table(np.linspace(1.0, 0.0, k)), id="table"),
]


class TestOneWeightArrayPerGame:
    """C(1..k) is built once per game, by ``CongestionPolicy.weights``, and every layer reads that array."""

    def test_every_layer_reads_the_games_array(self, monkeypatch):
        games, builds = [], []
        build, check = CongestionPolicy.weights, GameInstance.__post_init__

        def counted_build(policy, players):
            builds.append(policy)
            return build(policy, players)

        def counted_game(game):
            games.append(game.policy)
            check(game)

        monkeypatch.setattr(CongestionPolicy, "weights", counted_build)
        monkeypatch.setattr(GameInstance, "__post_init__", counted_game)
        instance = GameInstance(ValueProfile((1.0, 0.6, 0.3)), 4, CongestionPolicy.from_table(np.linspace(1.0, 0.0, 4)))
        equilibrium = solve_ifd(instance).strategy
        verify_ifd(instance, equilibrium)
        # Mutants on the support tie at m = 0, so the walk reads the weights at m = 1.
        verdicts = ess_batch(instance, equilibrium, mutant_generator(instance.profile, 4, 0, 6))
        assert {verdict.witness_m for verdict in verdicts} == {0, 1}
        simulate(SimConfig.symmetric(100, 0, instance, equilibrium))
        expected_payoff_profile(instance, equilibrium, [equilibrium] * 3)
        welfare_optimum(instance)
        # The welfare call solves the game under the marginal policy C~, which builds its own array once.
        assert len(games) == 2 and games[1].table != instance.policy.table
        assert builds == games


class TestOneKernelPerGame:
    """Every payoff on a symmetric field reads the game's cached kernel, so no
    R evaluator is built after it but the welfare optimum's game under the
    marginal policy, and the values are those of the vector path."""

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    def test_payoffs_and_welfare_build_no_evaluator(self, monkeypatch, policy):
        builds = []

        def counted(coeffs, windowed=False):
            builds.append(np.shape(coeffs))
            return _bernstein(coeffs, windowed)

        for module in ("dispersal.game", "dispersal.ess"):
            monkeypatch.setattr(f"{module}._bernstein", counted)
        monkeypatch.setattr("dispersal.solvers._bernstein", counted, raising=False)
        instance = GameInstance(ValueProfile((1.0, 0.6, 0.3)), 4, policy(4))
        instance.kernel
        assert builds == [(4, 3)]  # the patch sees the kernel's own build
        resident, mutant = Strategy((0.5, 0.3, 0.2)), Strategy.point_mass(1, 3)
        site_values(instance, resident)
        invasion_sweep(instance, resident, mutant, [0.1, 0.5])
        welfare_optimum(instance)
        # Only the welfare call builds one, the kernel of the game under the
        # marginal policy, whose equilibrium it solves where p R(p) is concave;
        # under the exclusive policy at k = 4 it is not, and the grid DP reads this kernel.
        assert builds == [(4, 3)] * (1 if instance.policy.kind == "exclusive" else 2)

    @pytest.mark.parametrize("policy", KERNEL_POLICIES)
    @pytest.mark.parametrize("players", [2, 3, 8, 40, 300, 2000])
    def test_site_values_match_the_vector_path(self, policy, players):
        rng = np.random.default_rng(players)
        for sites in (1, 2, 20, 200):
            profile = log_uniform_profile(rng, sites, low=0.1)
            instance = GameInstance(profile, players, policy(players))
            vector = _bernstein(instance.policy.weights(players))
            for strategy in (Strategy.uniform(sites), Strategy.point_mass(1, sites), random_strategy(rng, sites)):
                expected = profile.as_array() * vector(strategy.as_array())
                assert site_values(instance, strategy) == pytest.approx(expected, rel=1e-15, abs=0.0)


# p values at the ends of [0, 1] and of the float range.
SPECIAL_PS = (0.0, 1.0, 5e-324, sys.float_info.min, 2.0**-53, 0.5, 1.0 - 2.0**-53)


def kernel_coefficients(weights):
    """The columns of ``GameInstance.kernel``: C, |C| and R' elevated to degree k - 1."""
    steps, j = np.pad(np.diff(weights), 1), np.arange(weights.size)
    return np.column_stack((weights, np.abs(weights), j * steps[:-1] + (weights.size - 1 - j) * steps[1:]))


@st.composite
def kernel_cases(draw):
    """A game of k <= 3,000 players under sharing or a non-increasing table, which may
    go flat, reach 0 (zero rows) or fall far below it, and an array of p with the
    ends of the float range, ties, and clusters narrow enough for a window."""
    players = draw(st.integers(2, 3000) | st.sampled_from([_WINDOW_FROM, _WINDOW_FROM + 1, _WINDOW_FROM + 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        policy = CongestionPolicy.sharing()
    else:
        density, scale = draw(st.sampled_from([0.05, 0.5, 1.0])), draw(st.sampled_from([0.5, 4.0, 1e3]))
        drops = rng.uniform(0.0, scale / players, players - 1) * (rng.random(players - 1) < density)
        table = np.r_[1.0, 1.0 - np.cumsum(drops)]
        policy = CongestionPolicy.from_table(np.maximum(table, 0.0) if draw(st.booleans()) else table)
    center = draw(st.sampled_from(SPECIAL_PS) | st.floats(0.0, 1.0))
    spread = draw(st.sampled_from([0.0, 1e-5, 1e-3, 1e-2, 1.0]))
    ps = np.clip(center + spread * rng.standard_normal(draw(st.integers(1, 20))), 0.0, 1.0)
    near = [p for p in SPECIAL_PS if abs(p - center) <= spread]
    extremes = SPECIAL_PS if draw(st.integers(0, 3)) == 0 else near or [center]
    ps = np.r_[ps, draw(st.lists(st.sampled_from(extremes), max_size=3)), ps[: draw(st.integers(0, 3))]]
    return policy.weights(players), rng.permutation(ps)


@pytest.fixture
def exp_widths(monkeypatch):
    """The length of the last axis of every ``np.exp`` the kernel takes: the rows it sums."""
    widths = []

    class CountedExp:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            widths.append(np.shape(x)[-1])
            return np.exp(x)

    monkeypatch.setattr("dispersal.game.np", CountedExp())
    return widths


class TestWindowedKernel:
    """From degree 73 on, the kernel sums one window of its rows; it must agree with
    the sum over every row, and below degree 73 be that sum bit for bit."""

    @settings(max_examples=300)
    @given(case=kernel_cases())
    def test_window_matches_the_full_row(self, case):
        # Observed over these 300 examples, 169 of them at n >= 73: at most 2.2 ulps of the term bound.
        weights, ps = case
        coeffs, n = kernel_coefficients(weights), weights.size - 1
        got = GameInstance(TWO_SITES, weights.size, CongestionPolicy.from_table(weights)).kernel(ps)
        want, bound = full_row_bernstein(coeffs, ps)
        if n < _WINDOW_FROM:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.all(np.abs(got - want) <= (n + 2) * 2.0**-53 * bound)

    def test_window_is_taken_on_a_narrow_spread_only(self, exp_widths):
        kernel = GameInstance(TWO_SITES, 2000, CongestionPolicy.sharing()).kernel
        narrow, wide = np.full(20, 1e-3), np.array([0.2, 0.7])
        kernel(narrow), kernel(wide), GameInstance(TWO_SITES, _WINDOW_FROM, SHARING).kernel(narrow)
        # About 2 + 37 + sqrt(2 T n p) rows around np = 2. The window of the spread-out p, about
        # rows 145 to 1654, keeps more than half the row, and at degree 72 none is taken: both sum every row.
        assert exp_widths[0] < 100 and exp_widths[1:] == [2000, _WINDOW_FROM]

    def test_window_starts_at_the_degree_where_it_can_keep_half_a_row(self, exp_widths):
        # At p = 0 the window is rows 0 to 2T/3 = 36.97, 37 of them: half of degree 73's 74 rows, more than half of 72's 73.
        at_zero = np.zeros(3)
        for players in (_WINDOW_FROM, _WINDOW_FROM + 1):
            GameInstance(TWO_SITES, players, SHARING).kernel(at_zero)
        assert _WINDOW_FROM == 73 and exp_widths == [73, 37]

    def test_evaluators_built_for_one_call_sum_the_full_row(self, exp_widths):
        # The ESS walk builds its evaluators once per m, where |c| would cost more than a window saves.
        coeffs, ps = kernel_coefficients(SHARING.weights(2000)), np.full(20, 1e-3)
        got = _bernstein(coeffs)(ps)
        assert exp_widths == [2000]
        assert got.tobytes() == full_row_bernstein(coeffs, ps)[0].tobytes()

    def test_dropped_mass_above_the_check_falls_back_to_the_full_row(self):
        # At p = 0.5 no kept row (0, 1, n - 1, n) lies in the window, rows 313 to 685, whose sum
        # would be 0; R(0.5) is 2^-n (1 - 0.5).
        players = 1000
        coeffs = kernel_coefficients(np.r_[1.0, np.zeros(players - 2), -0.5])
        ps = np.array([0.5, 0.5])
        got = _bernstein(coeffs, windowed=True)(ps)
        assert got[0, 0] == pytest.approx(2.0 ** -(players - 1) * 0.5, rel=1e-12)
        assert got.tobytes() == full_row_bernstein(coeffs, ps)[0].tobytes()

    def test_nan_p_gives_nan_rows(self):
        # solve_ifd may step on a NaN guess; the row is NaN, and nothing raises.
        kernel = GameInstance(TWO_SITES, 2000, CongestionPolicy.sharing()).kernel
        got = kernel(np.array([1e-3, np.nan, 2e-3]))
        assert np.all(np.isnan(got[1]))
        assert got[[0, 2]] == pytest.approx(kernel(np.array([1e-3, 2e-3])), rel=1e-15, abs=0.0)

    def test_p_of_any_shape_shares_one_window(self):
        # The welfare search evaluates (M, 5) local grids.
        rng = np.random.default_rng(5)
        weights = SHARING.weights(1000)
        ps = np.clip(rng.dirichlet(np.ones(20))[:, None] + 1e-3 * np.arange(-2, 3), 0.0, 1.0)
        got = GameInstance(TWO_SITES, 1000, SHARING).kernel(ps)
        want, bound = full_row_bernstein(kernel_coefficients(weights), ps)
        assert got.shape == (20, 5, 3)
        assert np.all(np.abs(got - want) <= 1001 * 2.0**-53 * bound)


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
                    want += chance * focal.probs[x] * profile.values[x] * policy.weights(occupancy)[-1]
            got = expected_payoff_profile(instance, focal, opponents)
            assert got == pytest.approx(want, abs=1e-12)


class TestCoverage:
    def test_two_site_closed_form(self):
        assert coverage(TWO_SITES, 2, Strategy((2 / 3, 1 / 3))) == pytest.approx(7 / 6, abs=1e-12)

    def test_point_mass_covers_one_site(self):
        assert coverage(TWO_SITES, 5, Strategy.point_mass(1, 2)) == 1.0

    def test_degenerate_profile(self):
        assert coverage(ValueProfile((1.0, 0.3)), 2, Strategy((1.0, 0.0))) == 1.0

    def test_missed_value_examples(self):
        # The value left unvisited is the total less the coverage.
        assert 1.5 - coverage(TWO_SITES, 2, Strategy((2 / 3, 1 / 3))) == pytest.approx(1 / 3, abs=1e-12)
        assert 1.5 - coverage(TWO_SITES, 2, Strategy.point_mass(1, 2)) == 0.5
        assert 1.0 - coverage(ValueProfile((1.0,)), 3, Strategy((1.0,))) == 0.0

    def test_complement_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            sites = int(rng.integers(1, 12))
            players = int(rng.integers(1, 9))
            profile = log_uniform_profile(rng, sites)
            strategy = random_strategy(rng, sites)
            missed = float(np.sum(profile.as_array() * (1.0 - strategy.as_array()) ** players))
            assert coverage(profile, players, strategy) + missed == pytest.approx(sum(profile.values), abs=1e-12)


PUBLIC_API = {
    "CongestionPolicy", "CoverageOptimum", "EquilibriumReport", "EssVerdict", "GameInstance", "SimConfig",
    "SimReport", "SolverError", "Strategy", "ValidationError", "ValueProfile", "WelfareOptimum",
    "closed_form_mutant_payoff", "closed_form_resident_payoff", "coverage", "coverage_optimum", "ess_batch",
    "ess_characterization", "expected_payoff_profile", "invasion_sweep", "mutant_generator", "project_to_simplex",
    "simulate", "site_values", "solve_ifd", "symmetric_price_of_anarchy", "verify_ifd", "welfare_optimum",
}
# Each is another public quantity spelled out (see the README), or a test oracle in tests/oracles.py.
REMOVED_IN_0_2_0 = [
    "site_value", "miss_weight", "payoff_single", "mixture_payoff", "CollisionDistribution",
    "collision_distribution", "coverage_grid_oracle", "empirical_site_values",
]
# s . site_values(game, s), spelled out.
REMOVED_IN_0_3_0 = ["symmetric_payoff"]


class TestPublicApi:
    def test_one_name_per_quantity(self):
        assert len(PUBLIC_API) == 28
        assert set(dispersal.__all__) == PUBLIC_API
        assert len(dispersal.__all__) == len(PUBLIC_API)
        for name in PUBLIC_API:
            assert getattr(dispersal, name) is not None
        assert dispersal.__version__ == "0.3.0"

    @pytest.mark.parametrize("name", REMOVED_IN_0_2_0 + REMOVED_IN_0_3_0)
    def test_removed_names_are_gone(self, name):
        with pytest.raises(ImportError):
            exec(f"from dispersal import {name}", {})
        for module in ("game", "ess", "solvers", "montecarlo"):
            assert not hasattr(getattr(dispersal, module), name)

    @pytest.mark.parametrize("name", ["at", "_weights", "_marginal"])
    def test_policy_has_one_weight_rule(self, name):
        # C(l) is policy.weights(l)[-1], or game.weights[l - 1]; C~ is derived in welfare_optimum.
        assert not hasattr(CongestionPolicy, name)
