import math
import tracemalloc

import numpy as np
import pytest
from conftest import log_uniform_profile, random_nonexclusive_table, random_strategy
from oracles import empirical_site_values

from dispersal import (
    CongestionPolicy,
    GameInstance,
    SimConfig,
    Strategy,
    ValidationError,
    ValueProfile,
    coverage,
    coverage_optimum,
    expected_payoff_profile,
    simulate,
    site_values,
)
from dispersal import montecarlo
from dispersal.montecarlo import _chunks

TWO_SITES = ValueProfile((1.0, 0.5))
EXCLUSIVE = GameInstance(TWO_SITES, 2, CongestionPolicy.exclusive())


def reference_sites(strategy, rounds, seed, player):
    """One player's picks as one long draw and a binary search over the cdf."""
    stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(player,))))
    cdf = np.cumsum(strategy.as_array())
    cdf[-1] = 1.0
    return np.searchsorted(cdf, stream.random(rounds), side="right")


def engine_sites(strategy, rounds, seed, player):
    """One player's picks as the chunk engine plays them; with one player
    in play, the (site, occupancy) cell of a pick is its site."""
    values = tuple(1.0 / (x + 1) for x in range(strategy.size))
    instance = GameInstance(ValueProfile(values), max(2, player + 1), CongestionPolicy.sharing())
    config = SimConfig.symmetric(rounds, seed, instance, strategy)
    return np.concatenate([cells[0] for cells, _ in _chunks(config, range(player, player + 1))])


def engine_coverage(config):
    return np.concatenate([covered for _, covered in _chunks(config, range(config.instance.players))])


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

    @pytest.mark.parametrize("rounds, seed", [(True, 0), (10, False), (10, True)])
    def test_rejects_bool_rounds_and_seed(self, rounds, seed):
        with pytest.raises(ValidationError):
            SimConfig.symmetric(rounds, seed, EXCLUSIVE, Strategy((0.5, 0.5)))


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
        covered = engine_coverage(config)
        assert float(np.max(covered)) <= sum(profile.values) + 1e-12

    def test_negative_weights_produce_negative_payoffs(self):
        instance = GameInstance(TWO_SITES, 2, CongestionPolicy.from_table((1.0, -1.0)))
        report = simulate(SimConfig.symmetric(200, 11, instance, Strategy.point_mass(1, 2)))
        assert report.mean_payoff_per_player == (-1.0, -1.0)

    @pytest.mark.parametrize("policy", [CongestionPolicy.sharing(), CongestionPolicy.from_table((1.0, 0.5, -3.0))])
    @pytest.mark.parametrize("scale", [900, -900])
    def test_reports_scale_exactly_with_the_values(self, policy, scale):
        # Moments are kept in units of a power of two near f(1), so a report at values * 2^j is the
        # report at the values times 2^j, bit for bit: at 2^900 no square overflows, at 2^-900 none underflows.
        rng = np.random.default_rng(46)
        values, strategy = log_uniform_profile(rng, 4).values, random_strategy(rng, 4)
        reports = [
            simulate(SimConfig.symmetric(3_000, 8, GameInstance(ValueProfile(np.ldexp(values, j)), 3, policy), strategy))
            for j in (0, scale)
        ]
        for field in ("mean_payoff_per_player", "mean_coverage", "std_error_payoff", "std_error_coverage"):
            assert np.array_equal(np.ldexp(getattr(reports[0], field), scale), getattr(reports[1], field))
        assert reports[0].occupancy_histogram == reports[1].occupancy_histogram
        assert 0.0 < min(reports[1].std_error_payoff)

    def test_occupancy_counts_do_not_wrap_beyond_int16(self):
        players = 33_000
        instance = GameInstance(ValueProfile((1.0,)), players, CongestionPolicy.sharing())
        report = simulate(SimConfig.symmetric(1, 0, instance, Strategy((1.0,))))
        assert report.mean_payoff_per_player == (1.0 / players,) * players
        assert report.mean_coverage == 1.0
        assert report.occupancy_histogram == ((0,) * (players - 1) + (players,),)


class TestPlayerStreams:
    """The picks the chunk engine plays, one player's stream at a time."""

    def test_stream_depends_only_on_seed_and_player_index(self):
        strategy = Strategy((0.4, 0.6))
        a = engine_sites(strategy, 1000, seed=8, player=2)
        b = engine_sites(strategy, 1000, seed=8, player=2)
        assert np.array_equal(a, b)

    def test_longer_runs_extend_shorter_ones(self):
        strategy = Strategy((0.4, 0.6))
        short = engine_sites(strategy, 100, seed=8, player=0)
        long = engine_sites(strategy, 1000, seed=8, player=0)
        assert np.array_equal(short, long[:100])

    def test_players_draw_independent_streams(self):
        strategy = Strategy((0.5, 0.5))
        a = engine_sites(strategy, 1000, seed=8, player=0)
        b = engine_sites(strategy, 1000, seed=8, player=1)
        assert not np.array_equal(a, b)

    def test_zero_probability_sites_are_never_drawn(self):
        strategy = Strategy((0.0, 1.0, 0.0))
        sites = engine_sites(strategy, 2000, seed=1, player=0)
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

    @pytest.mark.parametrize(
        "policy", [CongestionPolicy.sharing(), CongestionPolicy.from_table((1.0, 0.25, -0.5))], ids=["sharing", "table"]
    )
    def test_matches_analytic_site_values_off_the_exclusive_policy(self, policy):
        # Three players, so that a site's value takes C(2) and C(3) both.
        instance = GameInstance(TWO_SITES, 3, policy)
        strategy = coverage_optimum(TWO_SITES, 3).strategy
        estimates = empirical_site_values(SimConfig.symmetric(200_000, 32, instance, strategy))
        for est, want in zip(estimates, site_values(instance, strategy)):
            assert est == pytest.approx(want, abs=5e-3)

    def test_equals_resident_only_sampling(self):
        # Reference: sample only the k-1 residents (players 1..k-1) and
        # count them per site, without the focal player's own pick. The
        # engine's resident (site, occupancy) counts must match exactly;
        # the values add the same payoffs in another order.
        rng = np.random.default_rng(52)
        for sites, players, policy in (
            (2, 2, CongestionPolicy.exclusive()),
            (5, 4, CongestionPolicy.sharing()),
            (7, 6, random_nonexclusive_table(rng, 6)),
        ):
            instance = GameInstance(log_uniform_profile(rng, sites), players, policy)
            config = SimConfig.symmetric(5_000, int(rng.integers(2**32)), instance, random_strategy(rng, sites))
            f, weights, n = instance.profile.as_array(), policy.weights(players), players - 1
            strategy = config.strategies[0]
            residents = np.stack([reference_sites(strategy, 5_000, config.seed, i) for i in range(1, players)])
            heads = np.stack([(residents == x).sum(axis=0) for x in range(sites)])
            cells = residents * n + np.take_along_axis(heads, residents, axis=0) - 1
            engine_cells = np.concatenate([c for c, _ in _chunks(config, range(1, players))], axis=1)
            assert np.array_equal(engine_cells, cells)
            expected = [float(np.mean(f[x] * weights[heads[x]])) for x in range(sites)]
            assert empirical_site_values(config) == pytest.approx(expected, rel=0, abs=1e-15 * f[0])


def test_mean_coverage_consistent_with_analytic_coverage():
    rng = np.random.default_rng(46)
    profile = log_uniform_profile(rng, 3)
    instance = GameInstance(profile, 2, CongestionPolicy.exclusive())
    strategy = random_strategy(rng, 3)
    report = simulate(SimConfig.symmetric(150_000, 17, instance, strategy))
    expected = coverage(profile, 2, strategy)
    assert abs(report.mean_coverage - expected) <= 5 * report.std_error_coverage


def binomial_pmf(n, j, p):
    return math.comb(n, j) * p**j * (1.0 - p) ** (n - j)


class TestOccupancyHistogram:
    @pytest.mark.parametrize(
        "sites, players, policy_kind, seed",
        [(3, 4, "exclusive", 61), (5, 6, "sharing", 62), (4, 5, "table", 63), (6, 3, "table", 64)],
    )
    def test_matches_binomial_collision_model(self, sites, players, policy_kind, seed):
        # Under symmetric play a player at site x has l-1 co-visitors with
        # l-1 ~ Bin(k-1, p_x), so cell [x][l-1] expects R k p_x Bin(l-1; k-1, p_x).
        # Per round the cell gains l when exactly l players visit x.
        rng = np.random.default_rng(seed)
        policy = random_nonexclusive_table(rng, players) if policy_kind == "table" else CongestionPolicy(policy_kind)
        instance = GameInstance(log_uniform_profile(rng, sites), players, policy)
        probs = rng.dirichlet(np.ones(sites))
        probs[-1] = 0.0  # a site that is never visited
        strategy = Strategy.from_array(probs / probs.sum())
        rounds = 40_000
        report = simulate(SimConfig.symmetric(rounds, seed, instance, strategy))
        histogram = np.array(report.occupancy_histogram)
        assert histogram.shape == (sites, players)
        assert histogram.sum() == rounds * players
        for x, p in enumerate(strategy.probs):
            for l in range(1, players + 1):
                visit = binomial_pmf(players, l, p)
                expected = rounds * players * p * binomial_pmf(players - 1, l - 1, p)
                stderr = l * math.sqrt(rounds * visit * (1.0 - visit))
                assert abs(histogram[x, l - 1] - expected) <= 4.0 * stderr
        # The payoffs are the histogram's cells times their value f(x) C(l).
        payoffs = np.outer(instance.profile.as_array(), policy.weights(players))
        total = float(np.sum(histogram * payoffs)) / rounds
        assert sum(report.mean_payoff_per_player) == pytest.approx(total, rel=1e-12)


class TestChunkEngine:
    @pytest.mark.parametrize("budget", [1, 64, 1000, montecarlo._CHUNK_ENTRIES])
    def test_picks_equal_one_long_binary_search(self, monkeypatch, budget):
        # Chunks run from the 16-round floor to one chunk for the whole run.
        # Zero-probability sites put two cdf boundaries in one bucket of the
        # lookup table; those draws take the binary search.
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", budget)
        rng = np.random.default_rng(71)
        strategies = [
            Strategy((0.4, 0.6)),
            Strategy((0.0, 1.0, 0.0)),
            Strategy((0.25, 0.0, 0.0, 0.5, 0.25)),
            random_strategy(rng, 100),
            Strategy.from_array(np.r_[rng.dirichlet(np.ones(30)), np.zeros(10)]),
        ]
        for player, strategy in enumerate(strategies):
            for rounds in (1, 999, 2_500):
                got = engine_sites(strategy, rounds, 13, player)
                assert np.array_equal(got, reference_sites(strategy, rounds, 13, player))

    def test_sampler_matches_binary_search_on_boundaries(self):
        # Draws exactly on a cdf value, next to one, or on a bucket edge
        # are where a lookup table could round the wrong way. The last
        # profile, 20,000 sites with every third at probability 0, would
        # get 2**17 buckets without the table's cap of 2**16.
        rng = np.random.default_rng(74)
        crowded = rng.dirichlet(np.ones(20_000)) * (np.arange(20_000) % 3 > 0)
        for probs in (
            (0.5, 0.5), (0.25, 0.0, 0.0, 0.5, 0.25), tuple(rng.dirichlet(np.ones(50))), (1.0,), crowded / crowded.sum()
        ):
            cdf = np.cumsum(probs)
            cdf[-1] = 1.0
            points = np.r_[cdf[:-1], np.arange(2**16) / 2**16, 0.0]
            u = np.unique(np.r_[points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
            u = u[(u >= 0.0) & (u < 1.0)]
            got = montecarlo._sampler(np.array(probs))(u)
            assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))

    @pytest.mark.parametrize(
        "sites, players, budget, width",
        [(2, 2, 64, 32), (100, 20, 1000, 10), (5000, 2, 1000, 1), (2, 100, 64, 16)],
    )
    def test_chunk_width(self, monkeypatch, sites, players, budget, width):
        # budget // max(k, M) rounds; 16 when the players alone exceed the
        # budget, but never more site-rounds than the budget.
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", budget)
        values = tuple(1.0 / (x + 1) for x in range(sites))
        instance = GameInstance(ValueProfile(values), players, CongestionPolicy.sharing())
        config = SimConfig.symmetric(100, 6, instance, Strategy.uniform(sites))
        widths = [covered.size for _, covered in _chunks(config, range(players))]
        assert widths[:-1] == [width] * (len(widths) - 1)
        assert sum(widths) == 100

    def test_coverage_adds_the_visited_sites_in_site_order(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 300)
        rng = np.random.default_rng(75)
        profile = log_uniform_profile(rng, 30)
        strategy = random_strategy(rng, 30)
        config = SimConfig.symmetric(500, 8, GameInstance(profile, 6, CongestionPolicy.sharing()), strategy)
        picks = np.stack([reference_sites(strategy, 500, 8, i) for i in range(6)])
        expected = np.zeros(500)
        for x, value in enumerate(profile.values):
            expected += value * (picks == x).any(axis=0)
        assert np.array_equal(engine_coverage(config), expected)

    def test_asymmetric_profiles_sample_each_player_from_its_own_strategy(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", 50)
        rng = np.random.default_rng(72)
        instance = GameInstance(log_uniform_profile(rng, 6), 4, CongestionPolicy.sharing())
        pure = Strategy.point_mass(2, 6)
        strategies = (random_strategy(rng, 6), pure, random_strategy(rng, 6), pure)
        config = SimConfig(300, 5, instance, strategies)
        cells = np.concatenate([c for c, _ in _chunks(config, range(4))], axis=1)
        picks = np.stack([reference_sites(s, 300, 5, i) for i, s in enumerate(strategies)])
        assert np.array_equal(cells // 4, picks)

    def test_reports_do_not_depend_on_chunk_budget(self, monkeypatch):
        # Every merge of a chunk's moments rounds once more: with budgets
        # under a hundred entries (chunks of 16 to 48 rounds) these reports
        # drift by up to 3.3e-15; from a thousand entries on, within 1e-15.
        def floats(report):
            means = (*report.mean_payoff_per_player, report.mean_coverage)
            return np.array([*means, *report.std_error_payoff, report.std_error_coverage])

        rng = np.random.default_rng(73)
        table_game = GameInstance(log_uniform_profile(rng, 12), 5, random_nonexclusive_table(rng, 5))
        sharing_game = GameInstance(log_uniform_profile(rng, 4), 3, CongestionPolicy.sharing())
        configs = [
            SimConfig.symmetric(30_000, 1, EXCLUSIVE, coverage_optimum(TWO_SITES, 2).strategy),
            SimConfig.symmetric(20_000, 2, table_game, random_strategy(rng, 12)),
            SimConfig(10_001, 3, sharing_game, tuple(random_strategy(rng, 4) for _ in range(3))),
        ]
        default = montecarlo._CHUNK_ENTRIES
        for config in configs:
            reports = []
            for budget in (4096, 2**14, default):
                monkeypatch.setattr(montecarlo, "_CHUNK_ENTRIES", budget)
                reports.append(simulate(config))
            base = floats(reports[0])
            for report in reports[1:]:
                assert report.occupancy_histogram == reports[0].occupancy_histogram
                assert np.all(np.abs(floats(report) - base) <= 1e-15 * np.abs(base))

    @pytest.mark.parametrize("rounds", [100_000, 1_000_000])
    def test_memory_peak_does_not_grow_with_rounds(self, rounds):
        strategy = coverage_optimum(TWO_SITES, 2).strategy
        config = SimConfig.symmetric(rounds, 4, EXCLUSIVE, strategy)
        tracemalloc.start()
        try:
            simulate(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
