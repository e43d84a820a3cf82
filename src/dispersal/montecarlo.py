"""Seeded stochastic simulation of the dispersal game.

Cross-validates the analytic payoff, site-value, and coverage formulas by
actually playing the game. Reproducibility contract: every player draws
from its own Philox counter-based stream, keyed by (seed, player index),
so a report is a pure function of (seed, config) bit for bit, and one
player's draws never depend on how many other players exist. Draw r of a
stream belongs to round r, which also makes prefixes of longer runs
identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, Strategy, _check

MAX_SEED = 2**64


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation request: game, per-player strategies, seed."""

    rounds: int
    seed: int
    instance: GameInstance
    strategies: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        _check(isinstance(self.rounds, int) and self.rounds >= 1, f"rounds: must be >= 1, got {self.rounds}")
        _check(isinstance(self.seed, int) and 0 <= self.seed < MAX_SEED, "seed: must be a 64-bit unsigned integer")
        strategies = tuple(self.strategies)
        _check(
            len(strategies) == self.instance.players,
            f"strategies: expected {self.instance.players} entries, got {len(strategies)}",
        )
        for i, s in enumerate(strategies):
            _check(
                s.size == self.instance.sites,
                f"strategies[{i}]: size must match the number of sites",
            )
        object.__setattr__(self, "strategies", strategies)

    @classmethod
    def symmetric(cls, rounds: int, seed: int, instance: GameInstance, strategy: Strategy) -> "SimConfig":
        return cls(rounds, seed, instance, (strategy,) * instance.players)


@dataclass(frozen=True)
class SimReport:
    """Aggregates of a simulation run; identical seeds reproduce it bit-exactly.

    ``degenerate`` marks single-round runs, whose standard errors are
    reported as zero for lack of a spread estimate.
    """

    mean_payoff_per_player: tuple[float, ...]
    mean_coverage: float
    std_error_payoff: tuple[float, ...]
    std_error_coverage: float
    rounds: int
    seed: int
    degenerate: bool


def _player_sites(strategy: Strategy, rounds: int, seed: int, player: int) -> np.ndarray:
    """0-based site picks of one player for every round.

    Inverse-CDF sampling over the strategy's cumulative vector; sites are
    scanned left to right, so zero-probability sites can never be picked.
    """
    stream = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(player,))))
    u = stream.random(rounds)
    cdf = np.cumsum(strategy.as_array())
    cdf[-1] = 1.0
    return np.searchsorted(cdf, u, side="right").astype(np.int32)


def _play_rounds(config: SimConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate all rounds; returns (sites (k, R), payoffs (k, R), coverage (R,))."""
    instance = config.instance
    k, m, rounds = instance.players, instance.sites, config.rounds
    f = instance.profile.as_array()
    weights = instance.policy.weights(k)
    sites = np.stack(
        [_player_sites(s, rounds, config.seed, i) for i, s in enumerate(config.strategies)]
    )
    occupancy = np.zeros((m, rounds), dtype=np.min_scalar_type(k))
    # Coverage accumulates site by site: no M x R float temporary, and the
    # per-round sum runs in site order whatever BLAS the machine has.
    covered = np.zeros(rounds)
    for x in range(m):
        occupancy[x] = (sites == x).sum(axis=0)
        covered += f[x] * (occupancy[x] > 0)
    round_index = np.arange(rounds)
    payoffs = np.empty((k, rounds))
    for i in range(k):
        chosen = sites[i]
        payoffs[i] = f[chosen] * weights[occupancy[chosen, round_index] - 1]
    return sites, payoffs, covered


def _mean_and_stderr(samples: np.ndarray) -> tuple[float, float]:
    n = samples.size
    mean = float(np.mean(samples))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(samples, ddof=1) / math.sqrt(n))


def simulate(config: SimConfig) -> SimReport:
    """Play the configured game for ``rounds`` independent rounds.

    Each round every player samples a site from its strategy; a player at
    a site with total occupancy l earns value * C(l), and the round's
    coverage is the summed value of all distinct visited sites.
    """
    _, payoffs, covered = _play_rounds(config)
    stats = [_mean_and_stderr(payoffs[i]) for i in range(config.instance.players)]
    cov_mean, cov_err = _mean_and_stderr(covered)
    return SimReport(
        mean_payoff_per_player=tuple(s[0] for s in stats),
        mean_coverage=cov_mean,
        std_error_payoff=tuple(s[1] for s in stats),
        std_error_coverage=cov_err,
        rounds=config.rounds,
        seed=config.seed,
        degenerate=config.rounds < 2,
    )


def empirical_site_values(config: SimConfig) -> list[float]:
    """Estimated expected payoff of committing to each site.

    The resident profile in ``config`` must be symmetric. Each round the
    k-1 residents (players 1..k-1) sample their sites; a focal player is
    then forced onto every site in turn and paid accordingly. Returns the
    per-site mean rewards; the residents' draws are shared across sites,
    so the M estimates use common random numbers.
    """
    instance = config.instance
    first = config.strategies[0]
    _check(
        all(s.probs == first.probs for s in config.strategies),
        "strategies: site-value estimation requires a symmetric resident profile",
    )
    k, m, rounds = instance.players, instance.sites, config.rounds
    f = instance.profile.as_array()
    weights = instance.policy.weights(k)
    resident_sites = np.stack(
        [_player_sites(config.strategies[i], rounds, config.seed, i) for i in range(1, k)]
    )
    values = []
    for x in range(m):
        co_visitors = (resident_sites == x).sum(axis=0)
        rewards = f[x] * weights[co_visitors]
        values.append(float(np.mean(rewards)))
    return values
