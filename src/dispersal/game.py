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

# Strategies must sum to 1 within this.
STRATEGY_SUM_TOL = 1e-9

# Probabilities below this are treated as structural zeros when deciding
# the support of a strategy.
SUPPORT_EPS = 1e-9
STRATEGY_ERROR = 1e-13  # the error in a strategy's probabilities that the tie bands of verify_ifd and ess_batch allow

# The kernel's log C(k-1, j) is a difference of lgamma values near k ln k,
# so its terms are off by about k ln k ulps: 4e-10 at this bound, 25 times
# inside the solvers' 1e-8 tolerance. An evaluation holds k floats a site.
MAX_PLAYERS = 10**5
# Each tail that the kernel's window drops holds below e^-_TAIL = 2^-80. Even at p = 0 the window keeps the
# ceil(2 _TAIL / 3) = 37 rows up to 2 _TAIL / 3, so it can keep at most half a row only from this degree on: 73.
_TAIL = 80 * math.log(2)
_WINDOW_FROM = 2 * math.ceil(2 * _TAIL / 3) - 1


class ValidationError(ValueError):
    """An argument or domain object violates its contract."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


# Exact types that skip the numbers.Real ABC check, which is several times
# slower than all the other per-entry work together.
_PLAIN_REALS = (float, int, np.float64)


def _entries(values, name: str) -> tuple:
    """``values`` as a tuple; anything that is not iterable fails with ``name: must be a list, got <type>``."""
    try:
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{name}: must be a list, got {type(values).__name__}") from None


def _numbers(values, name: str, low: float = -math.inf, high: float = math.inf) -> tuple[float, ...]:
    """``values`` as a non-empty tuple of finite floats in [low, high]; the one check of numeric input.

    Non-reals, bools included, fail with ``name[i]: must be a number``;
    NaN, infinities and integers beyond the float range with ``name[i]:
    must be finite``; then the first entry outside the range with
    ``name[i]: must lie in [low, high], got v``. Entry paths are formatted only on failure.
    """
    entries = _entries(values, name)
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
    if min(floats) < low or max(floats) > high:
        i = next(i for i, v in enumerate(floats) if not low <= v <= high)
        raise ValidationError(f"{name}[{i}]: must lie in [{low:g}, {high:g}], got {floats[i]!r}")
    return floats


def _number(value, name: str) -> float:
    """``value`` as a finite float: ``_numbers`` of the one entry, whose errors name ``name`` alone."""
    try:
        return _numbers((value,), name)[0]
    except ValidationError as exc:
        raise ValidationError(str(exc).replace(f"{name}[0]", name, 1)) from None


def _count(value, name: str, low: int, high: int | None = None) -> None:
    """Check that ``value`` is an integer in [low, high]; the one check of integer counts.

    Bools and other non-integers, 2.0 included, fail as out-of-range integers do.
    """
    integer = type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))
    if not (integer and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValidationError(f"{name}: must be an integer {bounds}, got {value!r}")


def _sized(strategy: Strategy, sites: int, name: str) -> np.ndarray:
    """``strategy``'s probabilities, checked to be a ``Strategy`` of ``sites`` entries; the one check of a strategy."""
    if not isinstance(strategy, Strategy):
        raise ValidationError(f"{name}: must be a Strategy, got {type(strategy).__name__}")
    if strategy.size != sites:
        raise ValidationError(f"{name}: expected {sites} entries, got {strategy.size}")
    return strategy.as_array()


@dataclass(frozen=True)
class ValueProfile:
    """Site values, canonicalized to non-increasing order.

    Input values may arrive in any order; they are sorted descending
    (stable, so equal values keep their input order) and the permutation
    is kept in ``input_order`` for reporting: ``input_order[i]`` is the
    original position of the value now at sorted position ``i``.
    """

    values: tuple[float, ...]
    input_order: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        vals = _numbers(self.values, "values")
        for i, v in enumerate(vals):
            if not v > 0.0:
                raise ValidationError(f"values[{i}]: must be strictly positive")
        # The total bounds the coverage and every mean a simulation reports.
        _check(sum(vals) <= sys.float_info.max, "values: their total overflows a float")
        order = sorted(range(len(vals)), key=lambda i: -vals[i])
        object.__setattr__(self, "values", tuple(vals[i] for i in order))
        object.__setattr__(self, "input_order", tuple(order))

    @property
    def size(self) -> int:
        return len(self.values)

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

    def weights(self, players: int) -> np.ndarray:
        """Array of C(1..players); the one rule behind every weight."""
        _count(players, "players", 1)
        if self.kind == "table":
            assert self.table is not None
            _check(players <= len(self.table), f"policy.table: needs at least {players} entries, got {len(self.table)}")
            return np.array(self.table[:players])
        occupancies = np.arange(1, players + 1)
        return (occupancies == 1).astype(float) if self.kind == "exclusive" else 1.0 / occupancies

    def is_exclusive_on(self, players: int) -> bool:
        """True when the weights over occupancies 1..players match the exclusive rule."""
        return not np.any(self.weights(players)[1:])


@dataclass(frozen=True)
class Strategy:
    """A probability distribution over the M sites."""

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        probs = _numbers(self.probs, "probs", 0.0, 1.0)
        total = math.fsum(probs)  # entries in [0, 1] cannot overflow it
        if not abs(total - 1.0) <= STRATEGY_SUM_TOL:
            raise ValidationError(f"probs: must sum to 1 within {STRATEGY_SUM_TOL}, got {total!r}")
        object.__setattr__(self, "probs", probs)

    @classmethod
    def point_mass(cls, site: int, size: int) -> "Strategy":
        """All mass on 1-based ``site``."""
        _count(size, "size", 1)
        _count(site, "site", 1, size)
        return cls(tuple(1.0 if x == site - 1 else 0.0 for x in range(size)))

    @classmethod
    def uniform(cls, size: int) -> "Strategy":
        _count(size, "size", 1)
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
        if not isinstance(self.profile, ValueProfile):
            raise ValidationError(f"profile: must be a ValueProfile, got {type(self.profile).__name__}")
        _count(self.players, "players", 2, MAX_PLAYERS)
        if not isinstance(self.policy, CongestionPolicy):
            raise ValidationError(f"policy: must be a CongestionPolicy, got {type(self.policy).__name__}")
        weights = self.weights  # a table must reach C(players)
        if self.policy.kind != "table":  # the other kinds keep |C| and its steps within 1
            return
        # Payoffs reach f(1) |C(players)|, and the kernel's R' coefficients (players - 1) times C's largest step.
        floor, drop = float(weights[-1]), float(-np.diff(weights).min())
        if not self.profile.values[0] * -floor <= sys.float_info.max:  # messages are formatted only on failure
            top = self.profile.values[0]
            raise ValidationError(f"policy.table: the largest value times C({self.players}), {top:g} * {floor:g}, overflows a float")
        if not (self.players - 1) * drop <= sys.float_info.max:
            k = self.players
            raise ValidationError(f"policy.table: (players - 1) times the largest step of C, {k - 1} * {drop:g}, overflows a float")

    def __setstate__(self, state: dict) -> None:
        state["weights"].flags.writeable = False  # an unpickled array is writeable
        self.__dict__.update(state)

    @property
    def sites(self) -> int:
        return self.profile.size

    @cached_property
    def weights(self) -> np.ndarray:
        """C(1..players) from ``policy.weights``, built once per game and read-only; every layer reads this array."""
        weights = self.policy.weights(self.players)
        weights.flags.writeable = False
        return weights

    @cached_property
    def kernel(self):
        """R(p) = E[C(1 + B)], B ~ Bin(k-1, p), its term bound E|C|(1 + B) and R'(p) from one ``_bernstein`` call; R' is
        (k-1) diff(C) in the degree k-2 basis, raised to R's degree k-1 (Farouki & Rajan 1987)."""
        weights, j = self.weights, np.arange(self.players)
        steps = np.pad(np.diff(weights), 1)
        columns = weights, np.abs(weights), j * steps[:-1] + (self.players - 1 - j) * steps[1:]
        return _bernstein(np.column_stack(columns), windowed=True)


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


def _bernstein(coeffs, windowed=False):
    """Evaluator of E[coeffs[B]], B ~ Binomial(len(coeffs) - 1, p), for arrays of p in [0, 1].

    A matrix ``coeffs`` gives one expectation per column. The pmf is taken
    in log space, from log C(n, j) computed once with ``lgamma``, so no
    coefficient overflows at any n; terms below exp(-745) underflow to 0,
    and all-zero rows of coefficients are skipped.

    A ``windowed`` evaluator of degree n >= 73 sums only rows n min p - h to
    n max p + h at a call: by Bernstein's inequality each tail of Bin(n, p)
    beyond np +- h, h = T/3 + sqrt(T^2/9 + 2Tnp(1-p)), T = 80 ln 2, holds less
    than 2^-80, and h is taken at the p in [min p, max p] nearest 1/2. That
    window is taken if it keeps at most half the rows and every p is finite,
    and kept if the 2^-79 max|c| it may drop is within 2^-53 of its term
    bound E|c[B]| in every column and at every p; otherwise the full row is
    summed. Its |c| is built once, which pays only on an evaluator that is
    called again and again, as ``GameInstance.kernel`` is; the ESS walk's,
    built and called once per m, sum the full row.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n, j = len(coeffs) - 1, np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1))
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in j])
    window = None
    if windowed and n >= _WINDOW_FROM:
        sizes = np.abs(coeffs[j])
        window = sizes, 2.0**-26 * sizes.max(axis=0, initial=0.0)  # 2^53 times 2^-79 max|c|
    return partial(_bernstein_at, log_comb, j, n, coeffs[j], window)  # a partial pickles, as a cached kernel must


def _bernstein_at(log_comb: np.ndarray, j: np.ndarray, n: int, coeffs: np.ndarray, window, p: np.ndarray) -> np.ndarray:
    # log 0 is floored to a finite value, so 0 * log 0 is 0 and n * log 0 still fits a float.
    floor = -sys.float_info.max / (n + 2)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.maximum(np.log(p), floor)[..., None], np.maximum(np.log1p(-p), floor)[..., None]
    if window is not None and p.size:
        sizes, limit = window
        low, high = float(p.min()), float(p.max())
        q = min(max(0.5, low), high)  # no p in [low, high] has a larger p(1 - p)
        h = _TAIL / 3 + math.sqrt(_TAIL**2 / 9 + 2 * _TAIL * n * q * (1 - q))
        a, b = j.searchsorted(n * low - h), j.searchsorted(n * high + h, "right")
        if low <= high and 2 * (b - a) <= j.size:  # low <= high fails for a NaN p
            terms = np.exp(log_comb[a:b] + j[a:b] * log_p + (n - j[a:b]) * log_q)
            if np.all(limit <= terms @ sizes[a:b]):
                return terms @ coeffs[a:b]
    return np.exp(log_comb + j * log_p + (n - j) * log_q) @ coeffs


def site_values(instance: GameInstance, strategy: Strategy) -> np.ndarray:
    """Expected payoff of committing to each site against a symmetric field.

    Entry x is value(x) * E[C(1 + B_x)], read from ``instance.kernel``, with B_x
    the binomial count of the k-1 opponents (each playing ``strategy``) at site x.
    """
    return instance.profile.as_array() * instance.kernel(_sized(strategy, instance.sites, "strategy"))[:, 0]


def expected_payoff_profile(instance: GameInstance, focal: Strategy, opponents) -> float:
    """Expected payoff of ``focal`` against an explicit list of k-1 opponents.

    Opponents may play arbitrary, mutually different strategies; per site
    the occupancy distribution is the exact Poisson binomial of the
    opponents' selection probabilities.
    """
    probs = _sized(focal, instance.sites, "focal")
    opponents = _entries(opponents, "opponents")
    _check(
        len(opponents) == instance.players - 1,
        f"opponents: expected {instance.players - 1} strategies, got {len(opponents)}",
    )
    pmfs = _collision_pmfs(np.array([_sized(opp, instance.sites, f"opponents[{j}]") for j, opp in enumerate(opponents)]))
    payoffs = instance.profile.as_array() * (pmfs @ instance.weights)
    return float(probs @ payoffs)


def coverage(profile: ValueProfile, players: int, strategy: Strategy) -> float:
    """Expected total value of sites visited by at least one of k players."""
    _count(players, "players", 1)
    f, p = profile.as_array(), _sized(strategy, profile.size, "strategy")
    return float(np.sum(f * (1.0 - (1.0 - p) ** players)))

