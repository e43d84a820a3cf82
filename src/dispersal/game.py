"""Core model of the one-shot dispersal game.

M sites carry positive values, sorted so that site 1 is the most valuable.
k players simultaneously pick one site each; a player at a site with total
occupancy l earns value * C(l), where C is a non-increasing congestion
weight with C(1) = 1 (a solo visitor collects the full value). Everything
in this module is an exact, closed-form evaluation: payoffs, per-site
values against a symmetric opponent field, expected payoffs against
arbitrary heterogeneous opponents, and the group coverage objective.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

# Strategies must sum to 1 within this; collision distributions are held
# to a tighter budget because they come out of an exact DP.
STRATEGY_SUM_TOL = 1e-9
DISTRIBUTION_SUM_TOL = 1e-12

# Probabilities below this are treated as structural zeros when deciding
# the support of a strategy.
SUPPORT_EPS = 1e-9

# The kernel's log C(k-1, j) is a difference of lgamma values near k ln k,
# so its terms are off by about k ln k ulps: 4e-10 at this bound, 25 times
# inside the solvers' 1e-8 tolerance. An evaluation holds k floats a site.
MAX_PLAYERS = 10**5


class ValidationError(ValueError):
    """An argument or domain object violates its contract."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# Exact types that skip the numbers.Real ABC check, which is several times
# slower than all the other per-entry work together.
_PLAIN_REALS = (float, int, np.float64)


def _numbers(values, name: str) -> tuple[float, ...]:
    """``values`` as a non-empty tuple of finite floats; the one check of numeric input.

    Non-reals, bools included, fail with ``name[i]: must be a number``;
    NaN, infinities and integers beyond the float range with ``name[i]:
    must be finite``. Entry paths are formatted only on failure.
    """
    entries = tuple(values)
    _check(len(entries) >= 1, f"{name}: must be a non-empty list")
    for i, v in enumerate(entries):
        if type(v) not in _PLAIN_REALS and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
            raise ValidationError(f"{name}[{i}]: must be a number")
    # From lists: a tuple grown from an iterator raises the allocator's high-water mark.
    try:
        floats = tuple(list(map(float, entries)))
    except OverflowError:
        floats = tuple([float(v) if abs(v) <= sys.float_info.max else math.inf for v in entries])
    if not all(map(math.isfinite, floats)):
        i = next(i for i, v in enumerate(floats) if not math.isfinite(v))
        raise ValidationError(f"{name}[{i}]: must be finite")
    return floats


def _count(value, name: str, low: int, high: int | None = None) -> None:
    """Check that ``value`` is an integer in [low, high]; the one check of integer counts.

    Bools and other non-integers, 2.0 included, fail as out-of-range integers do.
    """
    integer = type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))
    if not (integer and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name}: must be an integer {bounds}, got {value!r}")


@dataclass(frozen=True)
class ValueProfile:
    """Site values, canonicalized to non-increasing order.

    Input values may arrive in any order; they are sorted descending
    (stable, so equal values keep their input order) and the permutation
    is kept in ``input_order`` for reporting: ``input_order[i]`` is the
    original position of the value now at sorted position ``i``.
    """

    values: tuple[float, ...]
    input_order: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        vals = _numbers(self.values, "values")
        for i, v in enumerate(vals):
            if not v > 0.0:
                raise ValidationError(f"values[{i}]: must be strictly positive")
        order = sorted(range(len(vals)), key=lambda i: -vals[i])
        object.__setattr__(self, "values", tuple(vals[i] for i in order))
        object.__setattr__(self, "input_order", tuple(order))

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return float(sum(self.values))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class CongestionPolicy:
    """Congestion weights C(1..), with C(1) = 1 and C non-increasing.

    ``exclusive`` pays the full value to a solo visitor and nothing on any
    collision; ``sharing`` splits the value evenly; ``table`` holds
    explicit weights, which may be negative from occupancy 2 on.
    """

    kind: str
    table: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        _check(
            self.kind in ("exclusive", "sharing", "table"),
            f"policy.type: must be one of 'exclusive', 'sharing', 'table', got {self.kind!r}",
        )
        if self.kind != "table":
            _check(self.table is None, "policy.table: only allowed when type is 'table'")
            return
        entries = _numbers(() if self.table is None else self.table, "policy.table")
        _check(entries[0] == 1.0, "policy.table[0]: weight for a solo visitor must equal 1")
        for i in range(1, len(entries)):
            if entries[i] > entries[i - 1]:
                raise ValidationError(f"policy.table[{i}]: weights must be non-increasing")
        object.__setattr__(self, "table", entries)

    @classmethod
    def exclusive(cls) -> "CongestionPolicy":
        return cls("exclusive")

    @classmethod
    def sharing(cls) -> "CongestionPolicy":
        return cls("sharing")

    @classmethod
    def from_table(cls, entries) -> "CongestionPolicy":
        return cls("table", tuple(entries))

    def _weights(self, low: int, high: int) -> np.ndarray:
        """C(l) for l = low..high, 1 <= low <= high; the one rule behind every weight.

        A table is sliced, so ``at`` costs O(1) and ``weights(k)`` converts k entries.
        """
        if self.kind == "table":
            assert self.table is not None
            _check(high <= len(self.table), f"policy.table: needs at least {high} entries, got {len(self.table)}")
            return np.array(self.table[low - 1 : high])
        occupancies = np.arange(low, high + 1)
        return (occupancies == 1).astype(float) if self.kind == "exclusive" else 1.0 / occupancies

    def at(self, occupancy: int) -> float:
        """Weight C(l) for a site occupied by ``occupancy`` players."""
        _count(occupancy, "occupancy", 1)
        return float(self._weights(occupancy, occupancy)[0])

    def weights(self, players: int) -> np.ndarray:
        """Array of C(1..players)."""
        _count(players, "players", 1)
        return self._weights(1, players)

    def is_exclusive_on(self, players: int) -> bool:
        """True when the weights over occupancies 1..players match the exclusive rule."""
        return not np.any(self.weights(players)[1:])


@dataclass(frozen=True)
class Strategy:
    """A probability distribution over the M sites."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = _numbers(self.probs, "probs")
        for i, p in enumerate(probs):
            if not 0.0 <= p <= 1.0:
                raise ValidationError(f"probs[{i}]: must lie in [0, 1], got {p}")
        total = math.fsum(probs)
        _check(
            abs(total - 1.0) <= STRATEGY_SUM_TOL,
            f"probs: must sum to 1 within {STRATEGY_SUM_TOL}, got {total!r}",
        )
        object.__setattr__(self, "probs", probs)

    @classmethod
    def point_mass(cls, site: int, size: int) -> "Strategy":
        """All mass on 1-based ``site``."""
        _count(site, "site", 1, size)
        return cls(tuple(1.0 if x == site - 1 else 0.0 for x in range(size)))

    @classmethod
    def uniform(cls, size: int) -> "Strategy":
        return cls((1.0 / size,) * size)

    @classmethod
    def from_array(cls, probs) -> "Strategy":
        """Build from floats, clipping tiny numerical spill outside [0, 1]."""
        arr = np.clip(np.asarray(probs, dtype=float), 0.0, 1.0)
        return cls(tuple(arr))

    @property
    def size(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    def support(self) -> tuple[int, ...]:
        """1-based indices of sites played with probability above ``SUPPORT_EPS``."""
        return tuple([i + 1 for i, p in enumerate(self.probs) if p > SUPPORT_EPS])


@dataclass(frozen=True)
class GameInstance:
    """A playable game: value profile, player count, and congestion policy."""

    profile: ValueProfile
    players: int
    policy: CongestionPolicy

    def __post_init__(self) -> None:
        _count(self.players, "players", 2, MAX_PLAYERS)
        self.policy.at(self.players)  # a table must reach C(players)

    @property
    def sites(self) -> int:
        return self.profile.size

    @cached_property
    def kernel(self):
        """R(p) = E[C(1 + B)], B ~ Bin(k-1, p), its term bound E|C|(1 + B) and R'(p) from one ``_bernstein`` call; R' is
        (k-1) diff(C) in the degree k-2 basis, raised to R's degree k-1 (Farouki & Rajan 1987)."""
        weights, j = self.policy.weights(self.players), np.arange(self.players)
        steps = np.pad(np.diff(weights), 1)
        return _bernstein(np.column_stack((weights, np.abs(weights), j * steps[:-1] + (self.players - 1 - j) * steps[1:])))


@dataclass(frozen=True)
class CollisionDistribution:
    """Distribution of how many opponents co-select a site.

    ``probs_by_count[c]`` is the probability that exactly ``c`` of the
    opponents picked the site; the support runs from 0 to the number of
    opponents.
    """

    probs_by_count: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = _numbers(self.probs_by_count, "probs_by_count")
        for i, p in enumerate(probs):
            _check(p >= 0.0, f"probs_by_count[{i}]: must be non-negative")
        total = math.fsum(probs)
        _check(
            abs(total - 1.0) <= DISTRIBUTION_SUM_TOL,
            f"probs_by_count: must sum to 1 within {DISTRIBUTION_SUM_TOL}, got {total!r}",
        )
        object.__setattr__(self, "probs_by_count", probs)

    @property
    def opponents(self) -> int:
        return len(self.probs_by_count) - 1

    def pmf(self, count: int) -> float:
        if 0 <= count < len(self.probs_by_count):
            return self.probs_by_count[count]
        return 0.0


def payoff_single(instance: GameInstance, site: int, occupancy: int) -> float:
    """Reward for one player at 1-based ``site`` with total occupancy ``occupancy``."""
    _count(site, "site", 1, instance.sites)
    _count(occupancy, "occupancy", 1, instance.players)
    return instance.profile.values[site - 1] * instance.policy.at(occupancy)


def _collision_pmfs(opponent_probs: np.ndarray) -> np.ndarray:
    """Poisson-binomial pmfs of the opponent count at every site.

    ``opponent_probs`` is (n, M): row i holds opponent i's selection
    probabilities. Returns (M, n + 1), row x being the pmf of how many
    opponents pick site x, by the O(n^2) dynamic program over opponents
    run for all sites at once.
    """
    n, m = opponent_probs.shape
    pmf = np.zeros((m, n + 1))
    pmf[:, 0] = 1.0
    for i, q in enumerate(opponent_probs):
        q = q[:, None]
        moved = pmf[:, : i + 1] * q
        pmf[:, : i + 1] *= 1.0 - q
        pmf[:, 1 : i + 2] += moved
    return pmf


def collision_distribution(opponent_probs) -> CollisionDistribution:
    """Exact distribution of the number of opponents hitting a site.

    Each opponent independently selects the site with its own probability;
    the result is the Poisson-binomial pmf. For identical entries it
    reduces to the binomial distribution.
    """
    entries = tuple(opponent_probs)
    probs = np.asarray(_numbers(entries, "opponent_probs") if entries else ())
    for i, q in enumerate(probs):
        _check(0.0 <= q <= 1.0, f"opponent_probs[{i}]: must lie in [0, 1], got {q}")
    return CollisionDistribution(tuple(_collision_pmfs(probs.reshape(-1, 1))[0]))


def _bernstein(coeffs):
    """Evaluator of E[coeffs[B]], B ~ Binomial(len(coeffs) - 1, p), for arrays of p in [0, 1].

    A matrix ``coeffs`` gives one expectation per column. The pmf is taken
    in log space, from log C(n, j) computed once with ``lgamma``, so no
    coefficient overflows at any n; terms below exp(-745) underflow to 0,
    and all-zero rows of coefficients are skipped.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n, j = len(coeffs) - 1, np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1))
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in j])
    return partial(_bernstein_at, log_comb, j, n, coeffs[j])  # a partial pickles, as a cached kernel must


def _bernstein_at(log_comb: np.ndarray, j: np.ndarray, n: int, coeffs: np.ndarray, p: np.ndarray) -> np.ndarray:
    # log 0 is floored to a finite value, so 0 * log 0 is 0 and n * log 0 still fits a float.
    floor = -sys.float_info.max / (n + 2)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.maximum(np.log(p), floor)[..., None], np.maximum(np.log1p(-p), floor)[..., None]
    return np.exp(log_comb + j * log_p + (n - j) * log_q) @ coeffs


def congestion_response(policy: CongestionPolicy, players: int, probs) -> np.ndarray:
    """Expected congestion weight at sites selected with probabilities ``probs``.

    For each entry p, returns E[C(1 + B)] where B ~ Binomial(players - 1, p)
    counts co-selecting opponents in a symmetric field. Decreasing in p
    whenever C is non-constant on 1..players.
    """
    return _bernstein(policy.weights(players))(np.asarray(probs, dtype=float))


def site_values(instance: GameInstance, strategy: Strategy) -> np.ndarray:
    """Expected payoff of committing to each site against a symmetric field.

    Entry x is value(x) * E[C(1 + B_x)] with B_x the binomial count of the
    k-1 opponents (each playing ``strategy``) that land on site x.
    """
    _check(
        strategy.size == instance.sites,
        f"strategy: expected {instance.sites} entries, got {strategy.size}",
    )
    f = instance.profile.as_array()
    return f * congestion_response(instance.policy, instance.players, strategy.as_array())


def site_value(instance: GameInstance, strategy: Strategy, site: int) -> float:
    """Expected payoff of committing to 1-based ``site`` against a symmetric field."""
    _count(site, "site", 1, instance.sites)
    return float(site_values(instance, strategy)[site - 1])


def expected_payoff_profile(instance: GameInstance, focal: Strategy, opponents) -> float:
    """Expected payoff of ``focal`` against an explicit list of k-1 opponents.

    Opponents may play arbitrary, mutually different strategies; per site
    the occupancy distribution is the exact Poisson binomial of the
    opponents' selection probabilities.
    """
    _check(focal.size == instance.sites, "focal: strategy size must match the number of sites")
    opponents = list(opponents)
    _check(
        len(opponents) == instance.players - 1,
        f"opponents: expected {instance.players - 1} strategies, got {len(opponents)}",
    )
    for j, opp in enumerate(opponents):
        _check(opp.size == instance.sites, f"opponents[{j}]: strategy size must match the number of sites")
    pmfs = _collision_pmfs(np.array([opp.probs for opp in opponents]).reshape(-1, instance.sites))
    payoffs = instance.profile.as_array() * (pmfs @ instance.policy.weights(instance.players))
    return float(focal.as_array() @ payoffs)


def coverage(profile: ValueProfile, players: int, strategy: Strategy) -> float:
    """Expected total value of sites visited by at least one of k players."""
    _count(players, "players", 1)
    _check(strategy.size == profile.size, "strategy: size must match the number of sites")
    f = profile.as_array()
    p = strategy.as_array()
    return float(np.sum(f * (1.0 - (1.0 - p) ** players)))


def miss_weight(profile: ValueProfile, players: int, strategy: Strategy) -> float:
    """Expected total value left unvisited; complements coverage to sum(values)."""
    _count(players, "players", 1)
    _check(strategy.size == profile.size, "strategy: size must match the number of sites")
    f = profile.as_array()
    p = strategy.as_array()
    return float(np.sum(f * (1.0 - p) ** players))
