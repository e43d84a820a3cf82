"""The benchmark's workloads: inputs made from a seed, tasks, and checks.

Each workload is a fixed list of tasks plus a list of CLI calls. A task
calls the public ``dispersal`` functions through a tracer (see spans.py)
and returns the names of the correctness checks it failed, each prefixed
with the layer whose output was wrong; an exception propagates to the
runner, which attributes it to the layer that raised it.

A task or call may carry ``known_defect``: it exercises a defect the
program has at the time the benchmark was written, so its failure is
counted in ``failed`` but does not make the run incorrect. Any other
failure does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

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
    invasion_sweep,
    mutant_generator,
    simulate,
    site_values,
    solve_ifd,
    symmetric_price_of_anarchy,
    welfare_optimum,
)
from dispersal.cli import main as cli_main
from dispersal.ess import MIN_MUTANT_DISTANCE
from dispersal.game import SUPPORT_EPS

# Residuals are measured relative to f(1), so they mean the same at every
# scale of the values.
REL_RESIDUAL_TOL = 1e-8
EXCLUSIVE_TOL = 1e-8  # L-inf gap between IFD and closed form, and |SPoA - 1|
SPOA_FLOOR = 1.0 - 1e-12  # SPoA >= 1 up to rounding of a ratio of sums
PAYOFF_TOL = 1e-10  # closed forms against direct payoffs, times f(1)
SIM_SE = 4.0

POOL_SIZE = 200
RESCALES = (1e6, 1e-6, 1e-12)


@dataclass(frozen=True)
class Task:
    label: str
    run: Callable  # run(tracer) -> list of failed check names
    known_defect: str | None = None


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    check: Callable  # check(stdout text) -> list of failed check names
    known_defect: str | None = None


@dataclass(frozen=True)
class Workload:
    tasks: tuple[Task, ...]  # the first one doubles as the warm-up task
    cli_calls: tuple[CliCall, ...]


def log_uniform_values(rng, sites, low=0.05, high=1.0) -> np.ndarray:
    return np.exp(rng.uniform(np.log(low), np.log(high), sites))


def random_table(rng, players) -> CongestionPolicy:
    """Non-increasing weights C(1) = 1 > C(2) >= ... that turn negative slowly."""
    entries = [1.0, float(rng.uniform(0.2, 0.9))]
    for _ in range(players - 2):
        entries.append(entries[-1] - float(rng.uniform(0.0, 0.3)))
    return CongestionPolicy.from_table(entries)


def spread_table(rng, players) -> CongestionPolicy:
    """Non-increasing weights in [-0.5, 0.9] after C(1) = 1, for large k."""
    tail = np.sort(rng.uniform(-0.5, 0.9, players - 1))[::-1]
    return CongestionPolicy.from_table([1.0, *tail.tolist()])


def ifd_rel_residual(values: np.ndarray, probs: np.ndarray, f1: float) -> float:
    """The residual ``verify_ifd`` defines, recomputed here, over f(1):
    supported sites must share one value and no other site may beat it."""
    supported = probs > SUPPORT_EPS
    inside, outside = values[supported], values[~supported]
    residual = float(inside.max() - inside.min())
    if outside.size:
        residual = max(residual, float(outside.max() - inside.mean()))
    return residual / f1


def support_is_prefix(probs: np.ndarray) -> bool:
    supported = probs > SUPPORT_EPS
    return bool(np.all(supported[: np.count_nonzero(supported)]))


def write_instance(path: Path, game: GameInstance) -> str:
    policy = {"type": game.policy.kind}
    if game.policy.table is not None:
        policy["table"] = list(game.policy.table)
    path.write_text(json.dumps({"values": list(game.profile.values), "players": game.players, "policy": policy}))
    return str(path)


def check_spoa_output(game: GameInstance, stdout: str) -> list[str]:
    """The printed ratio (9 decimals) matches the in-process SPoA."""
    expected = symmetric_price_of_anarchy(game)
    return [] if abs(float(stdout) - expected) <= 1e-9 * expected else ["cli:spoa_mismatch"]


def check_strategy_output(expected_support: int | None, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    failed = []
    if abs(math.fsum(payload["strategy"]) - 1.0) > 1e-9:
        failed.append("cli:strategy_sum")
    if expected_support is not None and payload["support_size"] != expected_support:
        failed.append("cli:support_mismatch")
    return failed


def check_sim_output(rounds: int, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    ok = payload["rounds"] == rounds and math.isfinite(payload["mean_coverage"])
    return [] if ok else ["cli:simulate_report"]


def check_ess_output(require_pass: bool, stdout: str) -> list[str]:
    payload = json.loads(stdout)
    if payload["checked"] + payload["skipped"] != payload["mutants"]:
        return ["cli:ess_counts"]
    return ["cli:ess_verdict"] if require_pass and not payload["all_passed"] else []


# --- pool-small: many tiny solves ---------------------------------------


def solve_small(game: GameInstance, tr) -> list[str]:
    """Optimum, IFD, SPoA, site values and coverage of one small instance."""
    profile, k = game.profile, game.players
    f1 = profile.values[0]
    optimum = tr.call("solvers.coverage_optimum", coverage_optimum, profile, k)
    equilibrium = tr.call("solvers.solve_ifd", solve_ifd, game)
    spoa = tr.call("solvers.symmetric_price_of_anarchy", symmetric_price_of_anarchy, game)
    values = tr.call("game.site_values", site_values, game, equilibrium.strategy, counts={"terms": game.sites * k})
    cover_eq = tr.call("game.coverage", coverage, profile, k, equilibrium.strategy)
    cover_opt = tr.call("game.coverage", coverage, profile, k, optimum.strategy)

    residual = ifd_rel_residual(values, equilibrium.strategy.as_array(), f1)
    tr.record_max("solvers.max_rel_residual", residual)
    failed = []
    if not residual <= REL_RESIDUAL_TOL:
        failed.append("solvers:ifd_rel_residual")
    if not support_is_prefix(equilibrium.strategy.as_array()):
        failed.append("solvers:ifd_support_not_prefix")
    if not spoa >= SPOA_FLOOR:
        failed.append("solvers:spoa_below_1")
    if abs(spoa - cover_opt / cover_eq) > 1e-12 * spoa:
        failed.append("solvers:spoa_inconsistent")
    if game.policy.kind == "exclusive":
        gap = float(np.max(np.abs(equilibrium.strategy.as_array() - optimum.strategy.as_array())))
        if not gap <= EXCLUSIVE_TOL:
            failed.append("solvers:exclusive_ifd_vs_closed_form")
        if not abs(spoa - 1.0) <= EXCLUSIVE_TOL:
            failed.append("solvers:exclusive_spoa")
    return failed


def pool_small(seed: int, workdir: Path) -> Workload:
    """200 instances drawn like the acceptance pool; policies cycle
    exclusive, sharing, table; every fourth instance is rescaled."""
    shapes = np.random.default_rng(seed)  # the acceptance pool at its seed
    tables = np.random.default_rng([seed, 1])
    games = []
    tasks = []
    for i in range(POOL_SIZE):
        sites = int(shapes.integers(1, 21))
        players = int(shapes.integers(2, 9))
        values = log_uniform_values(shapes, sites)
        if i % 3 == 0:
            policy = CongestionPolicy.exclusive()
        elif i % 3 == 1:
            policy = CongestionPolicy.sharing()
        else:
            policy = random_table(tables, players)
        defect = None
        if i % 4 == 3:
            scale = RESCALES[(i // 4) % 3]
            values = values * scale
            defect = f"values scaled by {scale:g}: solvers use absolute tolerances"
        game = GameInstance(ValueProfile(tuple(values)), players, policy)
        games.append(game)
        tasks.append(Task(f"pool-{i}", partial(solve_small, game), defect))

    calls = []
    for i, (game, task) in enumerate(zip(games[:15], tasks)):
        path = write_instance(workdir / f"pool-{i}.json", game)
        calls.append(CliCall(("spoa", "--instance", path), partial(check_spoa_output, game), task.known_defect))
        calls.append(
            CliCall(("solve", "--instance", path, "--mode", "ifd"), partial(check_strategy_output, None), task.known_defect)
        )
    return Workload(tuple(tasks), tuple(calls))


# --- large-k: few solves over large M * k arrays -------------------------

LARGE_SHAPES = ((200, 50), (2000, 50), (200, 200), (20, 1000), (20, 2000))
# math.comb(k - 1, j) stops fitting a float near k = 1030.
COMB_OVERFLOW_K = 1030


def closed_form_rel_residual(f: np.ndarray, probs: np.ndarray, players: int) -> float:
    """How far the closed-form optimum is from equalizing the exclusive site
    value f(x) (1 - p(x))^(k-1) on its support, over that common value.

    Evaluated directly, without the package's kernel, so it holds at any k.
    """
    supported = probs > SUPPORT_EPS
    values = f * (1.0 - probs) ** (players - 1)
    inside = values[supported]
    common = float(inside.mean())
    residual = float(inside.max() - inside.min())
    if not np.all(supported):
        residual = max(residual, float(values[~supported].max()) - common)
    return residual / common


def solve_large(game: GameInstance, tr) -> list[str]:
    """Optimum, IFD and site values of one large instance."""
    profile, k = game.profile, game.players
    f = profile.as_array()
    optimum = tr.call("solvers.coverage_optimum", coverage_optimum, profile, k)
    equilibrium = tr.call("solvers.solve_ifd", solve_ifd, game)
    values = tr.call("game.site_values", site_values, game, equilibrium.strategy, counts={"terms": game.sites * k})

    residual = ifd_rel_residual(values, equilibrium.strategy.as_array(), f[0])
    tr.record_max("solvers.max_rel_residual", residual)
    failed = []
    if not residual <= REL_RESIDUAL_TOL:
        failed.append("solvers:ifd_rel_residual")
    if not support_is_prefix(equilibrium.strategy.as_array()):
        failed.append("solvers:ifd_support_not_prefix")
    if not closed_form_rel_residual(f, optimum.strategy.as_array(), k) <= REL_RESIDUAL_TOL:
        failed.append("solvers:closed_form_residual")
    return failed


def large_k(seed: int, workdir: Path) -> Workload:
    """Sharing and one table policy on each shape of LARGE_SHAPES."""
    rng = np.random.default_rng([seed, 2])
    tasks = []
    calls = []
    for sites, players in LARGE_SHAPES:
        profile = ValueProfile(tuple(log_uniform_values(rng, sites)))
        defect = None
        if players > COMB_OVERFLOW_K:
            defect = f"k={players}: math.comb(k-1, j) overflows a float"
        uniform = workdir / f"uniform-{sites}.json"
        uniform.write_text(json.dumps([1.0 / sites] * sites))
        support = coverage_optimum(profile, players).support_size
        for policy in (CongestionPolicy.sharing(), spread_table(rng, players)):
            game = GameInstance(profile, players, policy)
            label = f"M{sites}-k{players}-{policy.kind}"
            tasks.append(Task(label, partial(solve_large, game), defect))
            path = write_instance(workdir / f"{label}.json", game)
            calls.append(
                CliCall(("solve", "--instance", path, "--mode", "sigma-star"), partial(check_strategy_output, support), defect)
            )
            for strategy in (("--strategy", "sigma-star"), ("--strategy", "file", "--strategy-file", str(uniform))):
                calls.append(
                    CliCall(("simulate", "--instance", path, *strategy, "--rounds", "2000"), partial(check_sim_output, 2000))
                )
    return Workload(tuple(tasks), tuple(calls))


# --- analysis: ess, montecarlo and cli, no large arrays ------------------

ESS_SHAPES = ((5, 3), (10, 5), (10, 20))
MUTANTS = 100
SWEEP_EPSILONS = tuple(np.linspace(0.01, 0.99, 11).tolist())
CLOSED_FORM_CASES = 10
WELFARE_SITES = (3, 10, 20)
WELFARE_PLAYERS = 8
WELFARE_TOL = 1e-9  # relative to f(1)
SIMULATIONS = ((100, 20, 100_000), (2, 2, 1_000_000))  # (M, k, rounds)
CLI_MUTANTS = 20
CLI_ROUNDS = 20_000


def ess_batch(game: GameInstance, exclusive: bool, mutant_seed: int, tr) -> list[str]:
    """A 100-mutant stability batch and an invasion sweep against the
    exclusive optimum or the sharing equilibrium."""
    profile, k = game.profile, game.players
    if exclusive:
        candidate = tr.call("solvers.coverage_optimum", coverage_optimum, profile, k).strategy
    else:
        candidate = tr.call("solvers.solve_ifd", solve_ifd, game).strategy
    mutants = tr.call("ess.mutant_generator", mutant_generator, profile, k, mutant_seed, MUTANTS)
    anchor = candidate.as_array()
    invaded = 0
    for mutant in mutants:
        if float(np.max(np.abs(mutant.as_array() - anchor))) <= MIN_MUTANT_DISTANCE:
            continue
        verdict = tr.call(
            "ess.ess_characterization",
            ess_characterization,
            game,
            candidate,
            mutant,
            counts=lambda v: {"mixes": len(v.margins)},
        )
        invaded += not verdict.passed
    challenger = mutants[profile.size]  # the first random mutant
    rows = tr.call(
        "ess.invasion_sweep",
        invasion_sweep,
        game,
        candidate,
        challenger,
        SWEEP_EPSILONS,
        counts={"points": len(SWEEP_EPSILONS)},
    )
    failed = []
    if exclusive and invaded:
        failed.append("ess:exclusive_optimum_invaded")
    # Coverage is concave and maximized by the exclusive optimum, so the
    # resident does at least as well as any mutant at every proportion.
    tol = PAYOFF_TOL * profile.values[0]
    if len(rows) != len(SWEEP_EPSILONS) or (exclusive and any(res < mut - tol for _, res, mut in rows)):
        failed.append("ess:invasion_sweep")
    return failed


def closed_forms(game: GameInstance, cases, tr) -> list[str]:
    """Closed-form mixed-profile payoffs against ``expected_payoff_profile``."""
    profile, k = game.profile, game.players
    optimum = tr.call("solvers.coverage_optimum", coverage_optimum, profile, k)
    tol = PAYOFF_TOL * profile.values[0]
    wrong = 0
    for sigma, n_mutants in cases:
        opponents = [sigma] * n_mutants + [optimum.strategy] * (k - n_mutants - 1)
        args = (profile, k, optimum.support_size, optimum.normalizer, sigma, n_mutants)
        for closed_form, focal in ((closed_form_resident_payoff, optimum.strategy), (closed_form_mutant_payoff, sigma)):
            closed = tr.call(f"ess.{closed_form.__name__}", closed_form, *args)
            direct = tr.call("game.expected_payoff_profile", expected_payoff_profile, game, focal, opponents)
            wrong += not abs(closed - direct) <= tol
    return ["ess:closed_form_vs_direct"] if wrong else []


def welfare(game: GameInstance, tr) -> list[str]:
    """Welfare optimum under sharing, where payoff = coverage / k exactly,
    so the best payoff is the coverage optimum's coverage over k."""
    profile, k = game.profile, game.players
    result = tr.call("solvers.welfare_optimum", welfare_optimum, game)
    optimum = tr.call("solvers.coverage_optimum", coverage_optimum, profile, k)
    best = tr.call("game.coverage", coverage, profile, k, optimum.strategy) / k
    ok = abs(result.payoff - best) <= WELFARE_TOL * profile.values[0]
    return [] if ok else ["solvers:welfare_optimum_gap"]


def sweep(f2: float, out: Path, tr) -> list[str]:
    """One 101-point two-site competition sweep through in-process ``cli.main``."""
    argv = ["sweep", "--f2", f"{f2:.6f}", "--c-min", "-0.5", "--c-max", "0.5", "--steps", "101", "--out", str(out)]
    if tr.call("cli.main", cli_main, argv) != 0:
        return ["cli:sweep_exit"]
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    table = {c: (float(ifd), float(best), float(welf)) for c, ifd, best, welf in rows}
    ok = len(rows) == 101 and all(best >= ifd - 1e-9 and best >= welf - 1e-9 for ifd, best, welf in table.values())
    ifd0, best0, _ = table.get("0.000000000", (0.0, 1.0, 0.0))
    return [] if ok and abs(ifd0 - best0) <= 1e-6 else ["cli:sweep_curves"]


def simulation(game: GameInstance, rounds: int, sim_seed: int, tr) -> list[str]:
    """Monte Carlo coverage of the optimum, within 4 standard errors of the
    analytic value."""
    profile, k = game.profile, game.players
    strategy = tr.call("solvers.coverage_optimum", coverage_optimum, profile, k).strategy
    config = SimConfig.symmetric(rounds, sim_seed, game, strategy)
    report = tr.call(
        "montecarlo.simulate", simulate, config, counts={"player_rounds": rounds * k}, memory=True
    )
    analytic = tr.call("game.coverage", coverage, profile, k, strategy)
    ok = abs(report.mean_coverage - analytic) <= SIM_SE * report.std_error_coverage
    return [] if ok else ["montecarlo:coverage_outside_4se"]


def analysis(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    tasks = []
    calls = []
    closed_form_tasks = []
    for sites, players in ESS_SHAPES:
        profile = ValueProfile(tuple(log_uniform_values(rng, sites)))
        optimum = coverage_optimum(profile, players)
        for exclusive in (True, False):
            policy = CongestionPolicy.exclusive() if exclusive else CongestionPolicy.sharing()
            game = GameInstance(profile, players, policy)
            label = f"M{sites}-k{players}-{policy.kind}"
            tasks.append(Task(f"ess-{label}", partial(ess_batch, game, exclusive, int(rng.integers(2**31)))))
            path = write_instance(workdir / f"{label}.json", game)
            calls += [
                CliCall(("spoa", "--instance", path), partial(check_spoa_output, game)),
                CliCall(("solve", "--instance", path, "--mode", "ifd"), partial(check_strategy_output, None)),
                CliCall(
                    ("solve", "--instance", path, "--mode", "sigma-star"),
                    partial(check_strategy_output, optimum.support_size),
                ),
                CliCall(
                    ("ess-check", "--instance", path, "--mutants", str(CLI_MUTANTS), "--seed", str(int(rng.integers(2**31)))),
                    partial(check_ess_output, exclusive),
                ),
            ]
            for strategy in ("sigma-star", "ifd"):
                argv = ("simulate", "--instance", path, "--strategy", strategy, "--rounds", str(CLI_ROUNDS))
                calls.append(CliCall((*argv, "--seed", str(int(rng.integers(2**31)))), partial(check_sim_output, CLI_ROUNDS)))
            if exclusive:
                width = optimum.support_size
                cases = []
                for _ in range(CLOSED_FORM_CASES):
                    probs = np.zeros(sites)
                    probs[:width] = rng.dirichlet(np.ones(width))
                    cases.append((Strategy.from_array(probs), int(rng.integers(1, players - 1))))
                closed_form_tasks.append(Task(f"closed-form-{label}", partial(closed_forms, game, tuple(cases))))
    tasks += closed_form_tasks
    for sites in WELFARE_SITES:
        profile = ValueProfile(tuple(log_uniform_values(rng, sites)))
        game = GameInstance(profile, WELFARE_PLAYERS, CongestionPolicy.sharing())
        tasks.append(Task(f"welfare-M{sites}", partial(welfare, game)))
    tasks.append(Task("sweep", partial(sweep, float(rng.uniform(0.3, 0.7)), workdir / "sweep.csv")))
    for sites, players, rounds in SIMULATIONS:
        profile = ValueProfile(tuple(log_uniform_values(rng, sites)))
        game = GameInstance(profile, players, CongestionPolicy.exclusive())
        tasks.append(Task(f"simulate-M{sites}-k{players}", partial(simulation, game, rounds, int(rng.integers(2**32)))))
    return Workload(tuple(tasks), tuple(calls))


WORKLOADS = {"pool-small": pool_small, "large-k": large_k, "analysis": analysis}
