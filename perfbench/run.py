"""Benchmark of the ``dispersal`` package, one workload per invocation.

    python3 perfbench/run.py --workload pool-small --seed 20260808 --seconds 30 --trace 0

Run from a checkout that holds ``src/dispersal``. The program under test is
imported from that ``src`` and nothing is installed. Each invocation:

1. starts the workload process, which imports the package, makes the
   inputs from ``--seed`` and runs one warm-up task;
2. lets it time passes over the workload's fixed task list for about
   ``--seconds``, checking every result;
3. meanwhile, between tasks and spread over the same time, lets it run the
   workload's ``dispersal`` CLI calls as subprocesses, checking their exit
   codes and output, and start SETUP_SAMPLES - 1 more workload processes
   that only set up. ``setup_s`` is the median of the SETUP_SAMPLES times
   from spawning a workload process to its first timed task.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
printed. With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics come from the traced ones. The spans are written to
``.bench_build/perfbench/``. The last line of stdout is the result
object; the line before it holds the details: failures by layer, the
environment and the git SHA.

Exit status is 0 when the benchmark ran, even if tasks failed (see
``failed`` and ``correct``), and non-zero when it could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from spans import LAYERS, Tracer, Untraced, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("pool-small", "large-k", "analysis")
# A claim tuned on the default seed is confirmed on the other one.
DEFAULT_SEED = 20260808
CONFIRM_SEED = 20261017

SETUP_SAMPLES = 9
# Task times are medians over rounds; three outvote one slow spell.
MIN_ROUNDS = 3
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 170.0
CLI_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # the tail percentile keeps at least this many calls above it

def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares; the run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="time budget of the passes and probes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --- parent: spawns the workload processes and prints the result ---------


def spawn(args: argparse.Namespace, mode: str) -> tuple[float, str]:
    """Run one workload process; return (setup seconds, its last line)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--child", mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(SRC)}
    start = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            lines = proc.stdout.read().splitlines()
            code = proc.wait()
        finally:
            watchdog.cancel()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"workload process ({mode}) failed with exit code {code}")
    return setup, lines[-1] if lines else ""


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which names the code when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dispersal").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def parent(args: argparse.Namespace) -> int:
    if not (SRC / "dispersal" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'dispersal'}", file=sys.stderr)
        return 2
    setup, line = spawn(args, "run")
    report = json.loads(line)
    setups = [setup, *report.pop("setup_samples_s")]
    metrics = report.pop("metrics")
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    names = metric_units("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": report.pop("correct"),
        "attempted": report.pop("attempted"),
        "failed": report.pop("failed"),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    report.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        setup_samples_s=setups,
        git_sha=git_sha(),
        source_sha256=source_digest(),
        nproc=os.cpu_count(),
        blas_pin=BLAS_PIN,
    )
    print(json.dumps({"details": report}))
    print(json.dumps(result))
    return 0


# --- child: one workload process -----------------------------------------


def raising_layer(exc: BaseException) -> str:
    """The package module of the innermost frame that raised ``exc``."""
    layer = "bench"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("dispersal."):
            layer = module.split(".")[1]
        tb = tb.tb_next
    return layer


def run_task(task, tracer) -> list[str]:
    try:
        return task.run(tracer)
    except Exception as exc:  # a failed task is counted, not fatal
        return [f"{raising_layer(exc)}:{type(exc).__name__}"]


def merge(outcomes, more):
    """Per task, the failures seen in either of two passes."""
    return [list(dict.fromkeys(a + b)) for a, b in zip(outcomes, more)]


def pass_time(passes: list[list[float]]) -> float:
    """Time of one pass: the sum over tasks of each task's median time
    across passes, so a slow spell of the machine in one pass is outvoted."""
    return math.fsum(statistics.median(times) for times in zip(*passes))


class Probes:
    """The CLI calls and the extra setup samples, spread evenly over the
    timed budget between tasks, so that they meet the same machine as the
    passes do. They run one at a time; the passes wait for them, and task
    times do not include them."""

    def __init__(self, args: argparse.Namespace, calls):
        self.args = args
        self.items = [("cli", call) for call in calls]
        extra = SETUP_SAMPLES - 1
        for i in reversed(range(extra)):
            self.items.insert(round((i + 0.5) * len(calls) / extra), ("setup", None))
        self.done = 0
        self.cli: list[dict] = []
        self.setups: list[float] = []

    def run_due(self, fraction: float) -> None:
        """Run every probe due once ``fraction`` of the budget is spent."""
        while self.done < len(self.items) and self.done <= fraction * len(self.items):
            kind, call = self.items[self.done]
            self.done += 1
            if kind == "setup":
                self.setups.append(spawn(self.args, "setup")[0])
            else:
                self.cli.append(self.run_cli(call))

    def run_cli(self, call) -> dict:
        """One CLI call as a subprocess; when tracing, also the same command
        in process, which gives the process overhead."""
        from dispersal.cli import main as cli_main

        cmd = [sys.executable, "-m", "dispersal.cli", *call.argv]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            failed = [f"cli:exit_{proc.returncode}"]
        else:
            try:
                failed = call.check(proc.stdout)
            except (ValueError, KeyError, TypeError):
                failed = ["cli:unreadable_output"]
        inproc = None
        if self.args.trace:
            start = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    cli_main(list(call.argv))
            except Exception:  # the subprocess result above already counts it
                pass
            inproc = time.perf_counter() - start
        return {"argv": call.argv[0], "wall_s": wall, "inproc_s": inproc, "failed": failed,
                "known_defect": call.known_defect}


def timed_passes(args, tasks, tracers, probes: Probes):
    """Passes over ``tasks``, one with each tracer per round, while the next
    round is predicted to fit in ``args.seconds``; at least MIN_ROUNDS.

    Returns, per tracer, a list of passes, each the list of task times, and
    per task the failures seen in any pass.
    """
    times = [[] for _ in tracers]
    outcomes = None
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for tracer, passes in zip(tracers, times):
            durations, outs = [], []
            for task_id, task in enumerate(tasks):
                with tracer.task(task_id, task.label):
                    t0 = time.perf_counter()
                    outs.append(run_task(task, tracer))
                    durations.append(time.perf_counter() - t0)
                probes.run_due((time.perf_counter() - start) / args.seconds)
            passes.append(durations)
            outcomes = outs if outcomes is None else merge(outcomes, outs)
        now = time.perf_counter()
        if len(times[0]) >= MIN_ROUNDS and (now - start) + (now - round_start) > args.seconds:
            break
    probes.run_due(math.inf)
    return times, outcomes


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND values above it; the median when there are too few."""
    ordered = sorted(values)
    index = len(ordered) - 1 - TAIL_BEYOND
    if index < len(ordered) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def layer_metrics(tracer, passes: int, wall_ratio: float, cli: list[dict]) -> dict:
    """The per-layer metrics of ``passes`` traced passes, per pass. Metrics
    of a layer function the workload never calls read 0."""
    names = metric_units("per_layer")
    spans = tracer.spans
    selves = self_times(spans)
    durations: dict[str, list[float]] = {}
    errors: dict[str, int] = {}
    counts: dict[str, float] = {}
    for span in spans:
        name = span[0]
        durations.setdefault(name, []).append(span[2] - span[1])
        errors[name] = errors.get(name, 0) + (span[6] is not None)
        for key, value in span[5].items():
            key = f"{name}.{key}"
            counts[key] = max(counts.get(key, 0), value) if key.endswith("peak_bytes") else counts.get(key, 0) + value

    metrics = {key: value / passes for key, value in counts.items() if not key.endswith("peak_bytes")}
    for name in {key.rsplit(".", 1)[0] for key in names}:
        times = durations.get(name, [])
        busy = math.fsum(times)
        p50 = statistics.median(times) if times else 0.0
        metrics.update({
            f"{name}.calls": len(times) / passes,
            f"{name}.busy_s": busy / passes,
            f"{name}.failed": errors.get(name, 0) / passes,
            f"{name}.p50_ms": p50 * 1e3,
            f"{name}.p50_us": p50 * 1e6,
            f"{name}.us_per_call": busy / len(times) * 1e6 if times else 0.0,
        })
    for name, work, key in (("game.site_values", "terms", "ns_per_term"),
                            ("montecarlo.simulate", "player_rounds", "ns_per_player_round")):
        amount = metrics.get(f"{name}.{work}", 0)
        metrics[f"{name}.{key}"] = metrics[f"{name}.busy_s"] / amount * 1e9 if amount else 0.0
    metrics["montecarlo.simulate.peak_mb"] = counts.get("montecarlo.simulate.peak_bytes", 0) / 2**20
    metrics["solvers.max_rel_residual"] = tracer.maxima.get("solvers.max_rel_residual", 0.0)
    for prefix in (*LAYERS, "task"):
        own = math.fsum(t for span, t in zip(spans, selves) if span[0].startswith(prefix + "."))
        metrics[f"{'bench' if prefix == 'task' else prefix}.self_s"] = own / passes
    metrics["cli.proc.calls"] = len(cli)
    metrics["cli.proc.p50_ms"] = statistics.median(c["wall_s"] for c in cli) * 1e3
    metrics["cli.proc.failed"] = sum(bool(c["failed"]) for c in cli)
    metrics["cli.proc.overhead_ms"] = statistics.median(c["wall_s"] - c["inproc_s"] for c in cli) * 1e3
    metrics["trace.overhead_ratio"] = wall_ratio
    return {name: metrics.get(name, 0.0) for name in names}


def child(args: argparse.Namespace) -> int:
    import numpy
    import dispersal
    from workloads import WORKLOADS as BUILDERS

    if Path(dispersal.__file__).resolve().parent != SRC / "dispersal":
        raise RuntimeError(f"dispersal imported from {dispersal.__file__}, not from {SRC}")
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = BUILDERS[args.workload](args.seed, workdir)
        run_task(workload.tasks[0], Untraced())
        print("ready", flush=True)
        if args.child == "setup":
            return 0
        tracer = Tracer()
        probes = Probes(args, workload.cli_calls)
        tracers = (Untraced(), tracer) if args.trace else (Untraced(),)
        times, outcomes = timed_passes(args, workload.tasks, tracers, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cli = probes.cli

    failures: dict[str, int] = {}
    unexpected = []
    for task, failed in zip(workload.tasks, outcomes):
        for key in failed:
            failures[key] = failures.get(key, 0) + 1
        if failed and task.known_defect is None:
            unexpected.append({"task": task.label, "failed": failed})
    for call in cli:
        for key in call["failed"]:
            failures[key] = failures.get(key, 0) + 1
        if call["failed"] and call["known_defect"] is None:
            unexpected.append({"cli": call["argv"], "failed": call["failed"]})
    ok_tasks = sum(not failed for failed in outcomes)
    attempted = len(workload.tasks) + len(cli)
    failed = attempted - ok_tasks - sum(not c["failed"] for c in cli)

    wall_s = pass_time(times[0])
    cli_walls = [c["wall_s"] for c in cli]
    cli_tail, cli_tail_pct = tail(cli_walls)
    report = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failures_by_layer": dict(sorted(failures.items())),
        "unexpected_failures": unexpected,
        "known_defects": sorted({t.known_defect for t in workload.tasks if t.known_defect}),
        "tasks": len(workload.tasks),
        "passes_s": [math.fsum(p) for p in times[0]],
        "setup_samples_s": probes.setups,
        "cli_calls": len(cli),
        "cli_tail_percentile": cli_tail_pct,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sched_cpus": len(os.sched_getaffinity(0)),
    }
    if args.trace:
        report["traced_passes_s"] = [math.fsum(p) for p in times[1]]
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        report["spans"] = str(spans_path.relative_to(ROOT))
        report["metrics"] = layer_metrics(tracer, len(times[1]), pass_time(times[1]) / wall_s, cli)
    else:
        report["metrics"] = {
            "wall_s": wall_s,
            "ok_per_s": ok_tasks / wall_s,
            "ok_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "cli_p50_ms": statistics.median(cli_walls) * 1e3,
            "cli_tail_ms": cli_tail * 1e3,
        }
    print(json.dumps(report))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.child:
        return child(args)
    try:
        return parent(args)
    except (RuntimeError, ValueError, KeyError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
