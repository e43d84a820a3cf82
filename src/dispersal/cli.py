"""Command-line front end for the dispersal game toolkit.

Subcommands: ``solve`` (closed-form optimum, equilibrium, or welfare
optimum for an instance file), ``spoa`` (symmetric price of anarchy),
``ess-check`` (batch stability verification against generated mutants),
``sweep`` (two-site competition sweep emitted as CSV plot data), and
``simulate`` (seeded Monte Carlo run). Exit codes: 0 success, 2
validation error, 3 solver non-convergence.

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


class InstanceFileError(ValidationError):
    """Instance file failed validation; message carries the field path."""


def _parse_instance_file(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InstanceFileError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFileError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InstanceFileError(f"{path}: top level must be an object")

    allowed = {"values", "players", "policy"}
    for key in raw:
        if key not in allowed:
            raise InstanceFileError(f"{path}: unknown field {key!r}")
    for key in ("values", "players", "policy"):
        if key not in raw:
            raise InstanceFileError(f"{path}: missing field {key!r}")

    values = raw["values"]
    if not isinstance(values, list) or not values:
        raise InstanceFileError(f"{path}: values: must be a non-empty list")
    for i, v in enumerate(values):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise InstanceFileError(f"{path}: values[{i}]: must be a number")

    players = raw["players"]
    if not isinstance(players, int) or isinstance(players, bool) or players < 1:
        raise InstanceFileError(f"{path}: players: must be an integer >= 1")

    policy = raw["policy"]
    if not isinstance(policy, dict):
        raise InstanceFileError(f"{path}: policy: must be an object")
    for key in policy:
        if key not in {"type", "table"}:
            raise InstanceFileError(f"{path}: policy.{key}: unknown field")
    ptype = policy.get("type")
    if ptype not in ("exclusive", "sharing", "table"):
        raise InstanceFileError(f"{path}: policy.type: must be 'exclusive', 'sharing', or 'table'")
    table = policy.get("table")
    if ptype == "table":
        if not isinstance(table, list) or not table:
            raise InstanceFileError(f"{path}: policy.table: must be a non-empty list")
        for i, c in enumerate(table):
            if not isinstance(c, (int, float)) or isinstance(c, bool):
                raise InstanceFileError(f"{path}: policy.table[{i}]: must be a number")
    elif table is not None:
        raise InstanceFileError(f"{path}: policy.table: only allowed when type is 'table'")

    return {"values": values, "players": players, "ptype": ptype, "table": table}


def _build_policy(parsed: dict) -> CongestionPolicy:
    if parsed["ptype"] == "table":
        return CongestionPolicy.from_table(parsed["table"])
    return CongestionPolicy(parsed["ptype"])


def _build_instance(parsed: dict, path: str) -> GameInstance:
    try:
        profile = ValueProfile(tuple(parsed["values"]))
        return GameInstance(profile, parsed["players"], _build_policy(parsed))
    except ValidationError as exc:
        raise InstanceFileError(f"{path}: {exc}") from exc


def _trivial_single_player(parsed: dict, path: str) -> tuple[ValueProfile, CongestionPolicy]:
    """Validate the remaining fields for the analytically trivial k=1 case."""
    try:
        profile = ValueProfile(tuple(parsed["values"]))
        policy = _build_policy(parsed)
    except ValidationError as exc:
        raise InstanceFileError(f"{path}: {exc}") from exc
    print("warning: players=1 is trivial; the lone player picks the best site", file=sys.stderr)
    return profile, policy


def cmd_solve(args: argparse.Namespace) -> int:
    parsed = _parse_instance_file(args.instance)
    if parsed["players"] == 1:
        profile, _ = _trivial_single_player(parsed, args.instance)
        strategy = Strategy.point_mass(1, profile.size)
        _emit(
            {
                "mode": args.mode,
                "strategy": round_distribution(strategy.probs),
                "support_size": 1,
                "common_value": _round9(profile.values[0]),
                "note": "single player: point mass on the highest-value site",
            }
        )
        return EXIT_OK
    instance = _build_instance(parsed, args.instance)
    # Strategies are reported in canonical (descending-value) site order;
    # site_order maps each position back to the 1-based input position.
    site_order = [i + 1 for i in instance.profile.input_order]

    if args.mode == "sigma-star":
        optimum = coverage_optimum(instance.profile, instance.players)
        exclusive = GameInstance(instance.profile, instance.players, CongestionPolicy.exclusive())
        report = verify_ifd(exclusive, optimum.strategy)
        _emit(
            {
                "mode": args.mode,
                "strategy": round_distribution(optimum.strategy.probs),
                "site_order": site_order,
                "support_size": optimum.support_size,
                "normalizer": _round9(optimum.normalizer),
                "common_value": _round9(optimum.common_value),
                "coverage": _round9(coverage(instance.profile, instance.players, optimum.strategy)),
                "residual": _round9(report.residual),
            }
        )
    elif args.mode == "ifd":
        report = solve_ifd(instance)
        _emit(
            {
                "mode": args.mode,
                "strategy": round_distribution(report.strategy.probs),
                "site_order": site_order,
                "support_size": report.support_size,
                "common_value": _round9(report.common_value),
                "residual": _round9(report.residual),
                "boundary": report.boundary_flag,
                "coverage": _round9(coverage(instance.profile, instance.players, report.strategy)),
            }
        )
    else:
        result = welfare_optimum(instance)
        _emit(
            {
                "mode": args.mode,
                "strategy": round_distribution(result.strategy.probs),
                "site_order": site_order,
                "payoff": _round9(result.payoff),
                "coverage": _round9(coverage(instance.profile, instance.players, result.strategy)),
            }
        )
    return EXIT_OK


def cmd_spoa(args: argparse.Namespace) -> int:
    parsed = _parse_instance_file(args.instance)
    if parsed["players"] == 1:
        _trivial_single_player(parsed, args.instance)
        print("1.000000000")
        return EXIT_OK
    instance = _build_instance(parsed, args.instance)
    print(f"{symmetric_price_of_anarchy(instance):.9f}")
    return EXIT_OK


def cmd_ess_check(args: argparse.Namespace) -> int:
    if args.mutants < 1:
        raise ValidationError(f"--mutants: must be >= 1, got {args.mutants}")
    instance = _build_instance(_parse_instance_file(args.instance), args.instance)
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
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, list):
        raise ValidationError(f"{path}: strategy file must hold a list of probabilities")
    strategy = Strategy(tuple(float(p) for p in raw))
    if strategy.size != sites:
        raise ValidationError(f"{path}: expected {sites} probabilities, got {strategy.size}")
    return strategy


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
    instance = _build_instance(_parse_instance_file(args.instance), args.instance)
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
        print(f"error: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
