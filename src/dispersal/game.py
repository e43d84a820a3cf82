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

import numpy as np

# Strategies must sum to 1 within this; collision distributions are held
# to a tighter budget because they come out of an exact DP.
STRATEGY_SUM_TOL = 1e-9
DISTRIBUTION_SUM_TOL = 1e-12

# Probabilities below this are treated as structural zeros when deciding
# the support of a strategy.
SUPPORT_EPS = 1e-9


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
    try:
        floats = tuple(map(float, entries))
    except OverflowError:
        floats = tuple(float(v) if abs(v) <= sys.float_info.max else math.inf for v in entries)
    if not all(map(math.isfinite, floats)):
        i = next(i for i, v in enumerate(floats) if not math.isfinite(v))
        raise ValidationError(f"{name}[{i}]: must be finite")
    return floats


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

    def at(self, occupancy: int) -> float:
        """Weight C(l) for a site occupied by ``occupancy`` players."""
        _check(occupancy >= 1, f"occupancy: must be >= 1, got {occupancy}")
        if self.kind == "exclusive":
            return 1.0 if occupancy == 1 else 0.0
        if self.kind == "sharing":
            return 1.0 / occupancy
        assert self.table is not None
        _check(
            occupancy <= len(self.table),
            f"occupancy: table policy defines weights up to {len(self.table)}, got {occupancy}",
        )
        return self.table[occupancy - 1]

    def weights(self, players: int) -> np.ndarray:
        """Array of C(1..players)."""
        return np.array([self.at(l) for l in range(1, players + 1)])

    def is_exclusive_on(self, players: int) -> bool:
        """True when the weights over occupancies 1..players match the exclusive rule."""
        w = self.weights(players)
        return bool(w[0] == 1.0 and np.all(w[1:] == 0.0))

    def is_constant_on(self, players: int) -> bool:
        """True when congestion is a no-op up to ``players`` co-visitors (C == 1)."""
        return bool(np.all(self.weights(players) == 1.0))


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
        _check(1 <= site <= size, f"site: must be in [1, {size}], got {site}")
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

    def support(self, eps: float = SUPPORT_EPS) -> tuple[int, ...]:
        """1-based indices of sites played with probability above ``eps``."""
        return tuple(i + 1 for i, p in enumerate(self.probs) if p > eps)


@dataclass(frozen=True)
class GameInstance:
    """A playable game: value profile, player count, and congestion policy."""

    profile: ValueProfile
    players: int
    policy: CongestionPolicy

    def __post_init__(self) -> None:
        _check(type(self.players) is int and self.players >= 2, f"players: must be an integer >= 2, got {self.players}")
        if self.policy.kind == "table":
            assert self.policy.table is not None
            _check(
                len(self.policy.table) >= self.players,
                f"policy.table: needs at least {self.players} entries for {self.players} players, "
                f"got {len(self.policy.table)}",
            )

    @property
    def sites(self) -> int:
        return self.profile.size


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
    _check(1 <= site <= instance.sites, f"site: must be in [1, {instance.sites}], got {site}")
    _check(
        1 <= occupancy <= instance.players,
        f"occupancy: must be in [1, {instance.players}], got {occupancy}",
    )
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


def congestion_kernel(policy: CongestionPolicy, players: int):
    """Evaluator of E[C(1 + B)] with B ~ Binomial(players - 1, p).

    The binomial coefficients are folded into the weights once, so the
    returned function only evaluates the polynomial; it maps an array of
    probabilities to an array of the same shape. Zero weights skip their
    coefficient, so the exclusive policy takes any number of players; other
    weights raise ``ValidationError`` from about 1030 players on.
    """
    counts = np.arange(players)
    try:
        folded = np.array([math.comb(players - 1, j) * c if c else 0.0 for j, c in enumerate(policy.weights(players))])
    except OverflowError:
        raise ValidationError(f"players: {players} is too many for the binomial weights of the {policy.kind} policy") from None
    tail = players - 1 - counts

    def response(p: np.ndarray) -> np.ndarray:
        pm = p[..., None]
        return (pm**counts * (1.0 - pm) ** tail) @ folded

    return response


def congestion_response(policy: CongestionPolicy, players: int, probs) -> np.ndarray:
    """Expected congestion weight at sites selected with probabilities ``probs``.

    For each entry p, returns E[C(1 + B)] where B ~ Binomial(players - 1, p)
    counts co-selecting opponents in a symmetric field. Decreasing in p
    whenever C is non-constant on 1..players.
    """
    return congestion_kernel(policy, players)(np.asarray(probs, dtype=float))


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
    _check(1 <= site <= instance.sites, f"site: must be in [1, {instance.sites}], got {site}")
    return float(site_values(instance, strategy)[site - 1])


def _site_payoffs(instance: GameInstance, opponents) -> np.ndarray:
    """Expected payoff of each site against k-1 explicit opponents.

    Entry x is value(x) * E[C(1 + B_x)], B_x the Poisson-binomial count of
    opponents on site x; a focal strategy's payoff is its dot product.
    """
    opponents = list(opponents)
    _check(
        len(opponents) == instance.players - 1,
        f"opponents: expected {instance.players - 1} strategies, got {len(opponents)}",
    )
    for j, opp in enumerate(opponents):
        _check(opp.size == instance.sites, f"opponents[{j}]: strategy size must match the number of sites")
    pmfs = _collision_pmfs(np.array([opp.probs for opp in opponents]).reshape(-1, instance.sites))
    return instance.profile.as_array() * (pmfs @ instance.policy.weights(instance.players))


def expected_payoff_profile(instance: GameInstance, focal: Strategy, opponents) -> float:
    """Expected payoff of ``focal`` against an explicit list of k-1 opponents.

    Opponents may play arbitrary, mutually different strategies; per site
    the occupancy distribution is the exact Poisson binomial of the
    opponents' selection probabilities.
    """
    _check(focal.size == instance.sites, "focal: strategy size must match the number of sites")
    return float(focal.as_array() @ _site_payoffs(instance, opponents))


def coverage(profile: ValueProfile, players: int, strategy: Strategy) -> float:
    """Expected total value of sites visited by at least one of k players."""
    _check(players >= 1, f"players: must be >= 1, got {players}")
    _check(strategy.size == profile.size, "strategy: size must match the number of sites")
    f = profile.as_array()
    p = strategy.as_array()
    return float(np.sum(f * (1.0 - (1.0 - p) ** players)))


def miss_weight(profile: ValueProfile, players: int, strategy: Strategy) -> float:
    """Expected total value left unvisited; complements coverage to sum(values)."""
    _check(players >= 1, f"players: must be >= 1, got {players}")
    _check(strategy.size == profile.size, "strategy: size must match the number of sites")
    f = profile.as_array()
    p = strategy.as_array()
    return float(np.sum(f * (1.0 - p) ** players))
