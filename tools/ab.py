"""Paired A/B timing of two revisions of this repository on the perfbench workloads.

    python3 tools/ab.py --base HEAD^ --head HEAD --out BENCH_<n>.json

Run it from the root of a git checkout; it needs Python >= 3.10, and numpy
for the package it times. A run takes about half an hour on 2 vCPUs. Each revision is exported with ``git archive``
into ``.bench_build/ab/<sha>/``, so the checkout itself is not touched and no
worktree is registered. Then, for every workload and both seeds:

1. One long-lived worker process per side imports that tree's ``src/`` and
   ``perfbench/workloads.py``, with BLAS pinned to one thread as perfbench
   pins it. It makes the workload's inputs from the seed and runs
   ``WARMUP_PASSES`` whole passes over the workload's tasks.
2. The coordinator asks the two workers for one whole pass each, ``PAIRS``
   times, and swaps which side goes first every pair, so that both sides
   meet the same state of the machine. Only one worker runs at a time.
3. A pair's ratio is head / base of the two pass times. The file holds the
   pass times, the median ratio, and the order-statistic (sign-test)
   interval of the median ratio at ``CONFIDENCE``; an interval that holds 1
   resolves no difference. ``base_wall_s`` and ``head_wall_s`` are sums over
   tasks of per-task medians, as perfbench's ``wall_s`` is.

The large-k workers also time single calls of a sharing game's
``GameInstance.kernel`` on Dirichlet p at each (M, k) of ``KERNEL_SHAPES``,
in alternated pairs too. Every in-process comparison is repeated with head
on both sides, under ``aa_in_process``: the spread that no change of code
explains. Last, ``RUNS`` whole ``perfbench/run.py --seconds 3`` processes of
each tree alternate per workload and seed, for the metrics that only a
process shows (``setup_s``, ``cli_*``, ``peak_rss_mb``).

A worker's pass stops the run if a task raises or fails a check in either
tree, since the timings would then compare different work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "ab"
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKLOADS = ("pool-small", "large-k", "analysis")
SEEDS = (20260808, 20261017)
KERNEL_SHAPES = ((20, 1000), (20, 2000), (200, 200), (2000, 50))
KERNEL_CALLS = 200
PAIRS = 31  # in-process pairs; the sign-test interval at 95 % then drops the 9 lowest and highest ratios
RUNS = 10  # whole-process pairs
RUN_SECONDS = 3.0
WARMUP_PASSES = 2
CONFIDENCE = 0.95
RUN_METRICS = ("setup_s", "wall_s", "ok_per_s", "ok_ratio", "peak_rss_mb", "cli_p50_ms", "cli_tail_ms")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(rev: str) -> tuple[str, Path]:
    """The commit ``rev`` names and its files, exported once under BUILD."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = BUILD / sha
    if not (tree / "src" / "dispersal").is_dir():
        shutil.rmtree(tree, ignore_errors=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True, capture_output=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return sha, tree


def sign_interval(values: list[float]) -> dict:
    """Median of ``values`` with its distribution-free interval: order statistics k and n + 1 - k,
    k the largest with P(Bin(n, 1/2) < k) <= (1 - CONFIDENCE) / 2. Null when n is too small."""
    ordered, n = sorted(values), len(values)
    k, below = 0, 0.0
    while k < n // 2 and below + math.comb(n, k) / 2**n <= (1 - CONFIDENCE) / 2:
        below += math.comb(n, k) / 2**n
        k += 1
    interval = [ordered[k - 1], ordered[n - k]] if k else None
    return {"median": statistics.median(ordered), "interval": interval, "coverage": 1 - 2 * below if k else None}


# --- worker: one tree, one workload and seed ------------------------------


def worker(args: argparse.Namespace) -> int:
    tree = Path(args.tree)
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import numpy as np

    import dispersal
    from dispersal import CongestionPolicy, GameInstance, ValueProfile
    from spans import Untraced
    from workloads import WORKLOADS as BUILDERS

    if Path(dispersal.__file__).resolve().parent != (tree / "src" / "dispersal").resolve():
        raise RuntimeError(f"dispersal imported from {dispersal.__file__}, not from {tree}")
    workdir = BUILD / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    untraced, kernels = Untraced(), {}

    def one_pass() -> dict:
        times, failed = [], []
        for task in workload.tasks:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                try:
                    failures = task.run(untraced)
                except Exception as exc:  # reported, and the coordinator stops
                    failures = [f"{type(exc).__name__}: {exc}"]
                times.append(time.perf_counter() - start)
            if failures:
                failed.append({"task": task.label, "failed": failures})
        return {"times": times, "failed": failed}

    def kernel_call(sites: int, players: int) -> dict:
        if (sites, players) not in kernels:
            rng = np.random.default_rng([sites, players])
            game = GameInstance(ValueProfile(tuple(rng.uniform(0.05, 1.0, sites))), players, CongestionPolicy.sharing())
            kernels[sites, players] = (game.kernel, rng.dirichlet(np.ones(sites)))
        kernel, probs = kernels[sites, players]
        kernel(probs)
        times = []
        for _ in range(KERNEL_CALLS):
            start = time.perf_counter()
            kernel(probs)
            times.append(time.perf_counter() - start)
        return {"median_ms": statistics.median(times) * 1e3}

    try:
        workload = BUILDERS[args.workload](args.seed, workdir)
        warm = [one_pass() for _ in range(WARMUP_PASSES)]
        tasks, failed = [task.label for task in workload.tasks], [f for w in warm for f in w["failed"]]
        print(json.dumps({"tasks": tasks, "numpy": np.__version__, "failed": failed}), flush=True)
        for line in sys.stdin:
            request = json.loads(line)
            if request["cmd"] == "pass":
                reply = one_pass()
            elif request["cmd"] == "kernel":
                reply = kernel_call(*request["shape"])
            else:
                break
            print(json.dumps(reply), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


# --- coordinator ------------------------------------------------------------


class Worker:
    def __init__(self, tree: Path, workload: str, seed: int):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", "--tree", str(tree),
               "--workload", workload, "--seed", str(seed)]
        env = {**os.environ, **BLAS_PIN, "PYTHONPATH": str(tree / "src")}
        self.proc = subprocess.Popen(cmd, cwd=tree, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.ready = self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with status {self.proc.wait()}")
        return json.loads(line)

    def ask(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
            self.proc.stdin.close()
        self.proc.wait(timeout=60)


def alternate(sides: dict, pairs: int, request: dict, value) -> list[dict]:
    """``pairs`` pairs of replies to ``request``, base first in even pairs and head first in odd ones."""
    out = []
    for i in range(pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        replies = {side: sides[side].ask(**request) for side in order}
        for side, reply in replies.items():
            if reply.get("failed"):
                raise RuntimeError(f"{side} failed a task: {reply['failed']}")
        out.append({"first": order[0], **{side: value(replies[side]) for side in ("base", "head")}})
    return out


def summarize(pairs: list[dict]) -> dict:
    base = [p["base"] for p in pairs]
    quartiles = statistics.quantiles(base, n=4)
    return {
        "ratio": sign_interval([p["head"] / p["base"] for p in pairs]),
        "head_lower_in": sum(p["head"] < p["base"] for p in pairs),
        "base_median": statistics.median(base),
        "base_iqr": quartiles[2] - quartiles[0],
        "head_median": statistics.median(p["head"] for p in pairs),
    }


def in_process(trees: dict, workload: str, seed: int) -> dict:
    sides = {}
    try:
        for side, tree in trees.items():
            sides[side] = Worker(tree, workload, seed)
            if sides[side].ready["failed"]:
                raise RuntimeError(f"{side} failed a warm-up task: {sides[side].ready['failed']}")
        if sides["base"].ready["tasks"] != sides["head"].ready["tasks"]:
            raise RuntimeError(f"{workload}: the two trees make different task lists")
        passes = alternate(sides, PAIRS, {"cmd": "pass"}, lambda reply: reply["times"])
        result = {"pairs": [{"first": p["first"], "base": math.fsum(p["base"]), "head": math.fsum(p["head"])} for p in passes]}
        result.update(summarize(result["pairs"]))
        task_medians = {side: [statistics.median(t) for t in zip(*(p[side] for p in passes))] for side in ("base", "head")}
        result["base_wall_s"], result["head_wall_s"] = (math.fsum(task_medians[s]) for s in ("base", "head"))
        result["task_median_ms"] = {
            label: {side: round(task_medians[side][i] * 1e3, 4) for side in ("base", "head")}
            for i, label in enumerate(sides["head"].ready["tasks"])
        }
        if workload == "large-k":
            result["kernel_calls"] = {}
            for shape in KERNEL_SHAPES:
                calls = alternate(sides, PAIRS, {"cmd": "kernel", "shape": shape}, lambda r: r["median_ms"])
                result["kernel_calls"][f"M{shape[0]}-k{shape[1]}"] = {"median_ms_pairs": calls, **summarize(calls)}
        result["numpy"] = sides["head"].ready["numpy"]
        return result
    finally:
        for w in sides.values():
            w.close()


class Run:
    """Stands in for a worker: each request runs one whole perfbench process of the tree."""

    def __init__(self, tree: Path, workload: str, seed: int):
        self.tree = tree
        self.cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", repr(RUN_SECONDS), "--trace", "0"]

    def ask(self) -> dict:
        proc = subprocess.run(self.cmd, cwd=self.tree, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        failed = [] if result["correct"] and not result["failed"] else [result]
        return {"failed": failed, "metrics": {name: result["metrics"][name]["value"] for name in RUN_METRICS}}


def processes(trees: dict, workload: str, seed: int) -> dict:
    """``RUNS`` alternated pairs of whole perfbench runs, one per tree."""
    sides = {side: Run(tree, workload, seed) for side, tree in trees.items()}
    runs = alternate(sides, RUNS, {}, lambda reply: reply["metrics"])
    summary = {}
    for name in RUN_METRICS:
        pairs = [{"base": r["base"][name], "head": r["head"][name]} for r in runs]
        summary[name] = summarize(pairs) if all(p["base"] for p in pairs) else None
    return {"runs": runs, "summary": summary}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD^", help="revision timed as the base (default HEAD^)")
    parser.add_argument("--head", default="HEAD", help="revision timed against it (default HEAD)")
    parser.add_argument("--out", type=Path, help="write the JSON here (default: stdout)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tree", help=argparse.SUPPRESS)
    parser.add_argument("--workload", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    shas, trees = {}, {}
    for side, rev in (("base", args.base), ("head", args.head)):
        shas[side], trees[side] = export(rev)
    report = {
        "base": {"rev": args.base, "sha": shas["base"]},
        "head": {"rev": args.head, "sha": shas["head"]},
        "command": " ".join(["python3", "tools/ab.py", *(argv if argv is not None else sys.argv[1:])]),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas_pin": BLAS_PIN,
        "confidence": CONFIDENCE,
        "pairs": PAIRS,
        "runs": RUNS,
        "in_process": {},
    }
    both = {"base": trees["head"], "head": trees["head"]}
    report["aa_in_process"], report["processes"] = {}, {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            print(f"ab: {workload} {seed}", file=sys.stderr)
            report["in_process"][f"{workload}/{seed}"] = in_process(trees, workload, seed)
            report["aa_in_process"][f"{workload}/{seed}"] = in_process(both, workload, seed)
    for workload in WORKLOADS:
        for seed in SEEDS:
            report["processes"][f"{workload}/{seed}"] = processes(trees, workload, seed)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
