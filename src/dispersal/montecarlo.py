"""Seeded stochastic simulation of the dispersal game.

Cross-validates the analytic payoff, site-value, and coverage formulas by
actually playing the game. Reproducibility contract: every player draws
from its own Philox counter-based stream, keyed by (seed, player index),
so a report is a pure function of (seed, config) bit for bit, and one
player's draws never depend on how many other players exist. Draw r of a
stream belongs to round r, which also makes prefixes of longer runs
identical.

One engine, ``_chunks``, plays ``_CHUNK_ENTRIES // max(players, sites)``
rounds per chunk and carries the streams on: memory does not grow with the
rounds, nor does a pick depend on the chunk size. ``simulate`` pools
(site, occupancy) counts and merges chunk moments (Chan et al. 1979).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import GameInstance, Strategy, _check, _count, _entries, _sized

MAX_SEED = 2**64
# Site-rounds and player-rounds per chunk; beyond that many players, 16 rounds amortise the draw calls.
_CHUNK_ENTRIES = 2**16


@dataclass(frozen=True)
class SimConfig:
    """A reproducible simulation request: game, per-player strategies, seed."""

    rounds: int
    seed: int
    instance: GameInstance
    strategies: tuple[Strategy, ...]

    def __post_init__(self) -> None:
        _count(self.rounds, "rounds", 1)
        _count(self.seed, "seed", 0, MAX_SEED - 1)
        strategies, k = _entries(self.strategies, "strategies"), self.instance.players
        _check(len(strategies) == k, f"strategies: expected {k} entries, got {len(strategies)}")
        for i, s in enumerate(strategies):
            if not i or s is not strategies[i - 1]:  # once per run of one object, as ``symmetric`` makes
                _sized(s, self.instance.sites, f"strategies[{i}]")
        object.__setattr__(self, "strategies", strategies)

    @classmethod
    def symmetric(cls, rounds: int, seed: int, instance: GameInstance, strategy: Strategy) -> "SimConfig":
        return cls(rounds, seed, instance, (strategy,) * instance.players)


@dataclass(frozen=True)
class SimReport:
    """Aggregates of a simulation run; identical seeds reproduce it bit-exactly.

    ``degenerate`` marks single-round runs, whose standard errors are
    reported as zero for lack of a spread estimate. ``occupancy_histogram``
    [x][l-1] counts the player-rounds at site x+1 with l players there.
    """

    mean_payoff_per_player: tuple[float, ...]
    mean_coverage: float
    std_error_payoff: tuple[float, ...]
    std_error_coverage: float
    rounds: int
    seed: int
    degenerate: bool
    occupancy_histogram: tuple[tuple[int, ...], ...]


def _sampler(probs: np.ndarray):
    """Inverse-CDF site picker, bit-identical to ``searchsorted(cdf, u, side="right")``.

    A power-of-two table of at most ``_CHUNK_ENTRIES`` buckets makes ``u *
    size`` exact. A draw takes its bucket's first site, plus one if it is at
    or above the bucket's one cdf boundary; buckets with more (zero-probability
    sites, or sites packed closer than the table's step) binary-search.
    """
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    size = min(1 << (4 * cdf.size).bit_length(), _CHUNK_ENTRIES)
    edges = np.arange(size + 1) / size
    first = np.searchsorted(cdf, edges[:-1], side="right")
    inside = np.searchsorted(cdf, edges[1:], side="left") - first
    boundary, crowded = np.where(inside == 1, cdf[first], np.inf), inside > 1

    def sample(u: np.ndarray) -> np.ndarray:
        bucket = (u * size).astype(np.intp)
        sites = first[bucket] + (u >= boundary[bucket])
        if crowded.any():
            slow = crowded[bucket]
            sites[slow] = np.searchsorted(cdf, u[slow], side="right")
        return sites

    return sample


def _chunks(config: SimConfig, players: range):
    """Play every round for the n given players, one chunk of rounds at a time.

    Yields per chunk of c rounds the (site, occupancy) cell ``x * n + l - 1``
    of every pick at 0-based site x with l players there (n, c), and each
    round's coverage (c,): the visited sites' values added in site order.
    """
    instance, rounds, seed = config.instance, config.rounds, config.seed
    m, n, f = instance.sites, len(players), instance.profile.as_array()
    width = min(rounds, max(1, min(_CHUNK_ENTRIES // m, max(16, _CHUNK_ENTRIES // n))))
    streams = (np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(i,)))) for i in players)
    streams = list(streams) if width < rounds else streams  # one chunk: make, draw, drop each
    groups: dict[tuple[float, ...], list[int]] = {}
    for row, i in enumerate(players):
        groups.setdefault(config.strategies[i].probs, []).append(row)
    # One sampler per distinct strategy; a symmetric profile samples all rows at once.
    samplers = [(_sampler(np.array(p)), rows if len(groups) > 1 else slice(None)) for p, rows in groups.items()]
    u = np.empty((n, width))
    for start in range(0, rounds, width):
        if start == 0 or rounds - start < width:
            u = u[:, : rounds - start]
            rows = list(u)
        c = u.shape[1]
        for stream, row in zip(streams, rows):
            stream.random(out=row)
        sites = np.empty((n, c), dtype=np.intp)
        for sample, group in samplers:
            sites[group] = sample(u[group])
        cell = sites * c + np.arange(c)
        heads = np.bincount(cell.ravel(), minlength=m * c)
        # einsum adds each round's sites in order, without a temporary.
        yield sites * n + heads[cell] - 1, np.einsum("x,xc->c", f, heads.reshape(m, c) > 0)


def simulate(config: SimConfig) -> SimReport:
    """Play the configured game for ``rounds`` independent rounds.

    Each round every player samples a site from its strategy; a player at
    a site with total occupancy l earns value * C(l), and the round's
    coverage is the summed value of all distinct visited sites.
    """
    instance, rounds, m, k = config.instance, config.rounds, config.instance.sites, config.instance.players
    f, weights = instance.profile.as_array(), instance.weights
    # Moments in units of 2^e, e the exponent of f(1) max|C| for the payoffs and of f(1), or -1022 if less, for the
    # coverage, which is at most M f(1); so no square overflows. Scaling by 2^e is exact in the normal range.
    units = np.r_[np.full(k, math.frexp(f[0] * max(1.0, -weights[-1]))[1]), max(math.frexp(f[0])[1], -1022)]
    payoff, coverage_scale = np.ldexp(np.outer(f, weights), -units[0]).ravel(), math.ldexp(1.0, -int(units[k]))
    histogram = np.zeros(m * k, dtype=np.int64)
    sums, squares, done = np.zeros(k + 1), np.zeros(k + 1), 0
    for cells, covered in _chunks(config, range(k)):
        c = covered.size
        histogram += np.bincount(cells.ravel(), minlength=m * k)
        samples = np.vstack([payoff[cells], covered * coverage_scale])  # each player's payoff, then the coverage
        # Merge the chunk's sum and squared deviations (summed as np.var does).
        chunk_sum = samples.sum(axis=1)
        squares += np.square(chunk_sum / c - sums / max(done, 1)) * (done * c / (done + c))
        samples -= (chunk_sum / c)[:, None]
        squares += np.square(samples, out=samples).sum(axis=1)
        sums, done = sums + chunk_sum, done + c
    means = np.ldexp(sums / rounds, units)
    errors = np.ldexp(np.sqrt(squares / (rounds - 1)) / math.sqrt(rounds), units) if rounds > 1 else np.zeros(k + 1)
    return SimReport(
        mean_payoff_per_player=tuple(means[:k].tolist()),
        mean_coverage=float(means[k]),
        std_error_payoff=tuple(errors[:k].tolist()),
        std_error_coverage=float(errors[k]),
        rounds=rounds,
        seed=config.seed,
        degenerate=rounds < 2,
        occupancy_histogram=tuple(map(tuple, histogram.reshape(m, k).tolist())),
    )

