"""Command-line front end for the dispersal game toolkit.

Subcommands: ``solve`` (closed-form optimum, equilibrium, or welfare
optimum for an instance file), ``spoa`` (symmetric price of anarchy),
``ess-check`` (batch stability verification against generated mutants),
``sweep`` (two-site competition sweep emitted as CSV plot data), and
``simulate`` (seeded Monte Carlo run). Exit codes: 0 success, 2
validation error, 3 solver non-convergence with JSON diagnostics.

Numeric output is fixed at 9 decimal places so repeated runs diff clean.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .ess import MIN_MUTANT_DISTANCE, ess_characterization, mutant_generator
from .game import (
    CongestionPolicy,
    GameInstance,
    Strategy,
    ValidationError,
    ValueProfile,
    _check,
    coverage,
)
from .montecarlo import SimConfig, SimReport, simulate
from .solvers import (
    SolverError,
    coverage_optimum,
    solve_ifd,
    symmetric_price_of_anarchy,
    verify_ifd,
    welfare_optimum,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3

DEFAULT_ROUNDS = 100_000

INSTANCE_FIELDS = ("values", "players", "policy")


def _round9(value: float) -> float:
    rounded = round(float(value), 9)
    return 0.0 if rounded == 0.0 else rounded


def round_distribution(probs) -> list[float]:
    """Round probabilities to 9 decimals while keeping the sum exactly 1.

    Plain per-entry rounding can drift the sum by up to M * 5e-10, which
    would fail re-validation; the drift is folded into the largest entry.
    """
    rounded = [_round9(p) for p in probs]
    drift = round(1.0 - sum(rounded), 9)
    if drift != 0.0:
        top = max(range(len(rounded)), key=lambda i: rounded[i])
        rounded[top] = round(rounded[top] + drift, 9)
    return rounded


def _emit(payload: dict, out_path: str | None = None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:  # syntax (line, column), bad bytes, deep nesting
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc


def _load_instance(path: str, min_players: int = 2) -> tuple[ValueProfile, GameInstance | None]:
    """Profile and game of an instance file; the game is None for the trivial players: 1.

    Only the file's shape and the player count are checked here; every
    other rule belongs to the domain objects, whose errors get the path.
    """
    raw = _load_json(path)
    try:
        _check(isinstance(raw, dict), "top level must be an object")
        for key in raw:
            _check(key in INSTANCE_FIELDS, f"unknown field {key!r}")
        for key in INSTANCE_FIELDS:
            _check(key in raw, f"missing field {key!r}")
        values, players, policy = (raw[key] for key in INSTANCE_FIELDS)
        _check(isinstance(values, list), "values: must be a list")
        _check(type(players) is int and players >= min_players, f"players: must be an integer >= {min_players}")
        _check(isinstance(policy, dict), "policy: must be an object")
        for key in policy:
            _check(key in ("type", "table"), f"policy.{key}: unknown field")
        table = policy.get("table")
        _check(table is None or isinstance(table, list), "policy.table: must be a list")
        profile = ValueProfile(tuple(values))
        congestion = CongestionPolicy(policy.get("type"), table)
        if players == 1:
            print("warning: players=1 is trivial; the lone player picks the best site", file=sys.stderr)
            return profile, None
        return profile, GameInstance(profile, players, congestion)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    profile, instance = _load_instance(args.instance, min_players=1)
    if instance is None:
        strategy = Strategy.point_mass(1, profile.size)
        details = {
            "support_size": 1,
            "common_value": _round9(profile.values[0]),
            "note": "single player: point mass on the highest-value site",
        }
    elif args.mode == "sigma-star":
        optimum = coverage_optimum(profile, instance.players)
        strategy = optimum.strategy
        exclusive = GameInstance(profile, instance.players, CongestionPolicy.exclusive())
        details = {
            "support_size": optimum.support_size,
            "normalizer": _round9(optimum.normalizer),
            "common_value": _round9(optimum.common_value),
            "coverage": _round9(coverage(profile, instance.players, strategy)),
            "residual": _round9(verify_ifd(exclusive, strategy).residual),
        }
    elif args.mode == "ifd":
        report = solve_ifd(instance)
        strategy = report.strategy
        details = {
            "support_size": report.support_size,
            "common_value": _round9(report.common_value),
            "residual": _round9(report.residual),
            "boundary": report.boundary_flag,
            "coverage": _round9(coverage(profile, instance.players, strategy)),
        }
    else:
        result = welfare_optimum(instance)
        strategy = result.strategy
        details = {"payoff": _round9(result.payoff), "coverage": _round9(coverage(profile, instance.players, strategy))}
    # Strategies are reported in canonical (descending-value) site order;
    # site_order maps each position back to the 1-based input position.
    site_order = [i + 1 for i in profile.input_order]
    _emit({"mode": args.mode, "strategy": round_distribution(strategy.probs), "site_order": site_order, **details})
    return EXIT_OK


def cmd_spoa(args: argparse.Namespace) -> int:
    _, instance = _load_instance(args.instance, min_players=1)
    print("1.000000000" if instance is None else f"{symmetric_price_of_anarchy(instance):.9f}")
    return EXIT_OK


def cmd_ess_check(args: argparse.Namespace) -> int:
    if args.mutants < 1:
        raise ValidationError(f"--mutants: must be >= 1, got {args.mutants}")
    _, instance = _load_instance(args.instance)
    is_exclusive = instance.policy.is_exclusive_on(instance.players)
    if is_exclusive:
        candidate = coverage_optimum(instance.profile, instance.players).strategy
        candidate_kind = "coverage-optimum"
    else:
        candidate = solve_ifd(instance).strategy
        candidate_kind = "equilibrium"

    mutants = mutant_generator(instance.profile, instance.players, args.seed, args.mutants)
    candidate_arr = candidate.as_array()
    checked = passed = skipped = 0
    failures = []
    for index, mutant in enumerate(mutants):
        if float(np.max(np.abs(mutant.as_array() - candidate_arr))) <= MIN_MUTANT_DISTANCE:
            skipped += 1
            continue
        verdict = ess_characterization(instance, candidate, mutant)
        checked += 1
        if verdict.passed:
            passed += 1
        else:
            failures.append(
                {
                    "mutant_index": index,
                    "mutant": round_distribution(mutant.probs),
                    "margins": [_round9(m) for m in verdict.margins],
                }
            )
    summary = {
        "candidate_kind": candidate_kind,
        "candidate": round_distribution(candidate.probs),
        "mutants": args.mutants,
        "checked": checked,
        "passed": passed,
        "failed": len(failures),
        "skipped": skipped,
        "failures": failures,
        "all_passed": not failures,
    }
    _emit(summary)
    if is_exclusive and failures:
        return 1
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if not 0.0 < args.f2 <= 1.0:
        raise ValidationError(f"--f2: must lie in (0, 1], got {args.f2}")
    if args.c_max >= 1.0 or args.c_min >= 1.0:
        raise ValidationError("--c-min/--c-max: competition weight must stay below 1")
    if args.c_max < args.c_min:
        raise ValidationError("--c-max: must be >= --c-min")
    if args.steps < 1 or (args.steps == 1 and args.c_max != args.c_min):
        raise ValidationError("--steps: must be >= 2 for a non-degenerate range")

    profile = ValueProfile((1.0, args.f2))
    players = 2
    optimum = coverage_optimum(profile, players)
    cover_optimal = coverage(profile, players, optimum.strategy)

    lines = ["c,cover_ifd,cover_optimal,cover_welfare_opt"]
    for i in range(args.steps):
        fraction = i / (args.steps - 1) if args.steps > 1 else 0.0
        c = args.c_min + (args.c_max - args.c_min) * fraction
        instance = GameInstance(profile, players, CongestionPolicy.from_table((1.0, c)))
        equilibrium = solve_ifd(instance)
        cover_ifd = coverage(profile, players, equilibrium.strategy)
        welfare = welfare_optimum(instance)
        cover_welfare = coverage(profile, players, welfare.strategy)
        lines.append(f"{c:.9f},{cover_ifd:.9f},{cover_optimal:.9f},{cover_welfare:.9f}")

    with open(args.out, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return EXIT_OK


def _strategy_from_file(path: str, sites: int) -> Strategy:
    raw = _load_json(path)
    try:
        _check(isinstance(raw, list), "strategy file must hold a list of probabilities")
        strategy = Strategy(tuple(raw))
        _check(strategy.size == sites, f"expected {sites} probabilities, got {strategy.size}")
        return strategy
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _report_payload(report: SimReport) -> dict:
    return {
        "mean_payoff_per_player": [_round9(v) for v in report.mean_payoff_per_player],
        "mean_coverage": _round9(report.mean_coverage),
        "std_error_payoff": [_round9(v) for v in report.std_error_payoff],
        "std_error_coverage": _round9(report.std_error_coverage),
        "rounds": report.rounds,
        "seed": report.seed,
        "degenerate": report.degenerate,
    }


def cmd_simulate(args: argparse.Namespace) -> int:
    _, instance = _load_instance(args.instance)
    if args.strategy == "sigma-star":
        strategy = coverage_optimum(instance.profile, instance.players).strategy
    elif args.strategy == "ifd":
        strategy = solve_ifd(instance).strategy
    else:
        if not args.strategy_file:
            raise ValidationError("--strategy-file: required when --strategy=file")
        strategy = _strategy_from_file(args.strategy_file, instance.sites)
    config = SimConfig.symmetric(args.rounds, args.seed, instance, strategy)
    report = simulate(config)
    _emit(_report_payload(report), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersal",
        description="Solvers, stability checks, and simulation for the one-shot dispersal game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve an instance file")
    solve.add_argument("--instance", required=True, help="path to the instance file")
    solve.add_argument(
        "--mode",
        required=True,
        choices=["sigma-star", "ifd", "welfare-opt"],
        help="sigma-star: closed-form optimum; ifd: symmetric equilibrium; welfare-opt: best individual payoff",
    )
    solve.set_defaults(func=cmd_solve)

    spoa = sub.add_parser("spoa", help="symmetric price of anarchy of an instance")
    spoa.add_argument("--instance", required=True, help="path to the instance file")
    spoa.set_defaults(func=cmd_spoa)

    ess = sub.add_parser("ess-check", help="stability check against generated mutants")
    ess.add_argument("--instance", required=True, help="path to the instance file")
    ess.add_argument("--mutants", type=int, required=True, help="number of mutants to generate")
    ess.add_argument("--seed", type=int, default=0, help="mutant generator seed")
    ess.set_defaults(func=cmd_ess_check)

    sweep = sub.add_parser("sweep", help="two-site competition sweep, written as CSV")
    sweep.add_argument("--f2", type=float, required=True, help="value of the second site (first is 1)")
    sweep.add_argument("--c-min", type=float, required=True, help="lowest collision weight")
    sweep.add_argument("--c-max", type=float, required=True, help="highest collision weight (< 1)")
    sweep.add_argument("--steps", type=int, required=True, help="number of grid points")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.set_defaults(func=cmd_sweep)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo run of a symmetric strategy")
    sim.add_argument("--instance", required=True, help="path to the instance file")
    sim.add_argument(
        "--strategy",
        required=True,
        choices=["sigma-star", "ifd", "file"],
        help="which symmetric strategy all players use",
    )
    sim.add_argument("--strategy-file", help="JSON list of probabilities (with --strategy=file)")
    sim.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS, help="number of rounds")
    sim.add_argument("--seed", type=int, default=0, help="simulation seed")
    sim.add_argument("--out", help="write the JSON report here instead of stdout")
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"error: {exc} {json.dumps(exc.diagnostics)}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
