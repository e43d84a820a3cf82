"""Shared generators for randomized-instance tests."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

from dispersal import CongestionPolicy, GameInstance, Strategy, ValueProfile

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def log_uniform_profile(rng, sites, low=0.05, high=1.0):
    values = np.exp(rng.uniform(np.log(low), np.log(high), sites))
    return ValueProfile(tuple(values))


def random_exclusive_instance(rng, max_sites=20, max_players=8, low=0.05):
    sites = int(rng.integers(1, max_sites + 1))
    players = int(rng.integers(2, max_players + 1))
    profile = log_uniform_profile(rng, sites, low=low)
    return GameInstance(profile, players, CongestionPolicy.exclusive())


def random_strategy(rng, sites):
    return Strategy.from_array(rng.dirichlet(np.ones(sites)))


def random_nonexclusive_table(rng, players):
    """Non-increasing congestion table with a non-zero collision weight."""
    entries = [1.0, float(rng.uniform(0.2, 0.9))]
    for _ in range(players - 2):
        entries.append(entries[-1] - float(rng.uniform(0.0, 0.3)))
    return CongestionPolicy.from_table(entries[:players])


def run_isolated(*args):
    """Runs ``python -W error *args`` on this package with a 60 s timeout, so
    that a solve that never returns fails its test instead of hanging the suite."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    return subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True, timeout=60, env=env)
