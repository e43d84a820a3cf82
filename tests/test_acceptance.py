"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -rA`` or ``-s``). Tolerances and
runtime budgets are pinned here and nowhere else."""

import math
import time

import numpy as np
import pytest
from conftest import log_uniform_profile, random_nonexclusive_table
from oracles import coverage_grid_oracle

from dispersal import (
    CongestionPolicy,
    GameInstance,
    SimConfig,
    Strategy,
    ValueProfile,
    closed_form_mutant_payoff,
    closed_form_resident_payoff,
    coverage,
    coverage_optimum,
    ess_characterization,
    expected_payoff_profile,
    mutant_generator,
    simulate,
    solve_ifd,
    symmetric_price_of_anarchy,
    verify_ifd,
)
from dispersal.cli import main as cli_main

POOL_SEED = 20260808
POOL_SIZE = 200


def report(number: int, description: str) -> None:
    print(f"criterion {number:2d}: PASS - {description}")


@pytest.fixture(scope="module")
def exclusive_pool():
    """Criterion-2 instance pool: 200 random exclusive games, solved once.

    Returns (instances, spoa values, elapsed seconds for the spoa loop,
    per-instance (optimum, equilibrium) pairs) shared by criteria 2, 4,
    and 10.
    """
    rng = np.random.default_rng(POOL_SEED)
    instances = []
    for _ in range(POOL_SIZE):
        sites = int(rng.integers(1, 21))
        players = int(rng.integers(2, 9))
        profile = log_uniform_profile(rng, sites)
        instances.append(GameInstance(profile, players, CongestionPolicy.exclusive()))

    start = time.perf_counter()
    ratios = [symmetric_price_of_anarchy(inst) for inst in instances]
    elapsed = time.perf_counter() - start

    solutions = [
        (coverage_optimum(inst.profile, inst.players), solve_ifd(inst)) for inst in instances
    ]
    return instances, ratios, elapsed, solutions


def test_criterion_01_closed_form_and_runtime():
    profile = ValueProfile((1.0, 0.5))
    coverage_optimum(profile, 2)  # warm up
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        result = coverage_optimum(profile, 2)
        timings.append(time.perf_counter() - start)
    best = min(timings)

    assert result.strategy.probs[0] == pytest.approx(2 / 3, abs=1e-10)
    assert result.strategy.probs[1] == pytest.approx(1 / 3, abs=1e-10)
    assert result.support_size == 2
    assert result.normalizer == pytest.approx(1 / 3, abs=1e-10)
    instance = GameInstance(profile, 2, CongestionPolicy.exclusive())
    residual = verify_ifd(instance, result.strategy).residual
    assert residual <= 1e-10 * profile.values[0]
    assert best < 1e-3, f"closed form took {best * 1e3:.3f} ms"
    report(1, f"closed form (2/3, 1/3), residual {residual:.1e}, {best * 1e6:.0f} us")


def test_criterion_02_exclusive_policy_is_anarchy_free(exclusive_pool):
    _, ratios, elapsed, _ = exclusive_pool
    worst = max(abs(r - 1.0) for r in ratios)
    assert worst <= 1e-8
    assert elapsed < 10.0, f"spoa loop took {elapsed:.1f}s"
    report(2, f"{POOL_SIZE} instances, max |spoa - 1| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_grid_oracle_confirms_optimum():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst_gap = worst_distance = 0.0
    for _ in range(50):
        sites = int(rng.integers(2, 5))
        players = int(rng.integers(2, 6))
        profile = log_uniform_profile(rng, sites, low=0.1)
        optimum = coverage_optimum(profile, players)
        best = coverage(profile, players, optimum.strategy)
        strategy, value = coverage_grid_oracle(profile, players, 1e-3)
        assert value <= best + 1e-12
        distance = float(np.max(np.abs(strategy.as_array() - optimum.strategy.as_array())))
        assert distance <= 2e-3 + 1e-12
        worst_gap = max(worst_gap, best - value)
        worst_distance = max(worst_distance, distance)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"50 oracles, max argmax distance {worst_distance:.1e}, {elapsed:.1f}s")


def test_criterion_04_uniform_prefix_lower_bound(exclusive_pool):
    instances, _, _, solutions = exclusive_pool
    slack = math.inf
    for instance, (optimum, _) in zip(instances, solutions):
        top = sum(instance.profile.values[: min(instance.players, instance.sites)])
        attained = coverage(instance.profile, instance.players, optimum.strategy)
        bound = (1 - 1 / math.e) * top
        assert attained > bound
        slack = min(slack, attained - bound)
    report(4, f"coverage beats (1 - 1/e) prefix bound on all {POOL_SIZE} instances, min slack {slack:.3f}")


def test_criterion_05_stability_against_mutant_batches():
    start = time.perf_counter()
    checked = 0
    rng = np.random.default_rng(505)
    for players in (2, 3, 5):
        for sites in (2, 5, 10):
            for repetition in range(3):
                profile = log_uniform_profile(rng, sites)
                instance = GameInstance(profile, players, CongestionPolicy.exclusive())
                result = coverage_optimum(profile, players)
                anchor = result.strategy.as_array()
                seed = 1000 * players + 10 * sites + repetition
                mutants = mutant_generator(profile, players, seed=seed, count=100)
                for mutant in mutants:
                    assert float(np.max(np.abs(mutant.as_array() - anchor))) > 1e-9
                    verdict = ess_characterization(instance, result.strategy, mutant)
                    assert verdict.passed, (players, sites, repetition, mutant.probs)
                    outside = any(p > 1e-9 for p in mutant.probs[result.support_size:])
                    if outside:
                        assert verdict.witness_m == 0
                    else:
                        assert verdict.witness_m <= 1
                    checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 27 * 100
    assert elapsed < 60.0
    report(5, f"{checked} mutants across 27 instances, all stable, {elapsed:.1f}s")


def test_criterion_06_closed_forms_match_direct_payoffs():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(1000):
        players = int(rng.integers(3, 7))
        sites = int(rng.integers(2, 9))
        profile = log_uniform_profile(rng, sites)
        result = coverage_optimum(profile, players)
        width = result.support_size
        probs = np.zeros(sites)
        probs[:width] = rng.dirichlet(np.ones(width))
        sigma = Strategy.from_array(probs)
        n_mutants = int(rng.integers(1, players - 1))
        instance = GameInstance(profile, players, CongestionPolicy.exclusive())
        opponents = [sigma] * n_mutants + [result.strategy] * (players - n_mutants - 1)
        args = (profile, players, width, result.normalizer, sigma, n_mutants)
        resident_gap = abs(
            closed_form_resident_payoff(*args)
            - expected_payoff_profile(instance, result.strategy, opponents)
        )
        mutant_gap = abs(
            closed_form_mutant_payoff(*args)
            - expected_payoff_profile(instance, sigma, opponents)
        )
        assert resident_gap <= 1e-10
        assert mutant_gap <= 1e-10
        worst = max(worst, resident_gap, mutant_gap)
    report(6, f"1000 random mixed profiles, max |closed form - direct| = {worst:.2e}")


def test_criterion_07_only_exclusive_preserves_optimal_coverage():
    rng = np.random.default_rng(707)
    cases = 0
    min_gap = math.inf
    for players in (2, 3, 5):
        sites = 2 * players
        values = tuple(1.0 - x / (4 * players * sites) for x in range(1, sites + 1))
        profile = ValueProfile(values)
        optimum = coverage_optimum(profile, players)
        assert optimum.support_size == sites
        best = coverage(profile, players, optimum.strategy)
        policies = [CongestionPolicy.sharing()]
        policies += [random_nonexclusive_table(rng, players) for _ in range(10)]
        for policy in policies:
            equilibrium = solve_ifd(GameInstance(profile, players, policy))
            attained = coverage(profile, players, equilibrium.strategy)
            gap = best - attained
            assert gap > 1e-6, (players, policy)
            min_gap = min(min_gap, gap)
            cases += 1
    report(7, f"{cases} non-exclusive policies all lose coverage, min gap {min_gap:.2e}")


def test_criterion_08_two_site_competition_sweep(tmp_path):
    start = time.perf_counter()
    tables = {}
    for f2 in (0.3, 0.5):
        out = tmp_path / f"sweep_{f2}.csv"
        code = cli_main(
            ["sweep", "--f2", str(f2), "--c-min", "-0.5", "--c-max", "0.5",
             "--steps", "101", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "c,cover_ifd,cover_optimal,cover_welfare_opt"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 101
        tables[f2] = {row[0]: tuple(float(v) for v in row[1:]) for row in rows}

    for f2, table in tables.items():
        ifd0, opt0, _ = table["0.000000000"]
        assert abs(ifd0 - opt0) <= 1e-6, f"tangency broken at c=0 for f2={f2}"
        for c_text, (ifd, optimal, welfare) in table.items():
            if c_text != "0.000000000":
                assert ifd < optimal, f"f2={f2} c={c_text}"
            assert optimal >= ifd - 1e-9
            assert optimal >= welfare - 1e-9

    assert tables[0.5]["0.000000000"][0] == pytest.approx(7 / 6, abs=1e-6)
    assert tables[0.5]["0.500000000"][0] == pytest.approx(1.0, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(8, f"two sweeps x 101 points: tangent at c=0, dominated elsewhere, {elapsed:.1f}s")


def test_criterion_09_monte_carlo_agrees_with_analytics():
    start = time.perf_counter()
    profile = ValueProfile((1.0, 0.5))
    instance = GameInstance(profile, 2, CongestionPolicy.exclusive())
    strategy = coverage_optimum(profile, 2).strategy
    config = SimConfig.symmetric(10**6, 90210, instance, strategy)
    first = simulate(config)
    second = simulate(config)
    assert first == second, "identical seeds must reproduce the report bit-exactly"

    payoff_sigmas = []
    for mean, err in zip(first.mean_payoff_per_player, first.std_error_payoff):
        assert abs(mean - 1 / 3) <= 4 * err
        payoff_sigmas.append(abs(mean - 1 / 3) / err)
    assert abs(first.mean_coverage - 7 / 6) <= 4 * first.std_error_coverage
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        9,
        "1e6 rounds: payoffs within "
        f"{max(payoff_sigmas):.2f} SE, coverage within "
        f"{abs(first.mean_coverage - 7 / 6) / first.std_error_coverage:.2f} SE, {elapsed:.1f}s",
    )


def test_criterion_10_solver_cross_validation(exclusive_pool):
    instances, _, _, solutions = exclusive_pool
    worst = 0.0
    for optimum, equilibrium in solutions:
        gap = float(
            np.max(np.abs(optimum.strategy.as_array() - equilibrium.strategy.as_array()))
        )
        assert gap <= 1e-8
        worst = max(worst, gap)

    worst_ratio = 0.0
    for instance in instances:
        sharing = GameInstance(instance.profile, instance.players, CongestionPolicy.sharing())
        ratio = symmetric_price_of_anarchy(sharing)
        assert ratio <= 2.0 + 1e-9
        worst_ratio = max(worst_ratio, ratio)
    report(
        10,
        f"bisection vs closed form L-inf <= {worst:.1e}; sharing spoa <= {worst_ratio:.3f} on {POOL_SIZE} instances",
    )
