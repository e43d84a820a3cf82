"""Equilibrium and optimality solvers for the dispersal game.

Two independent routes to the symmetric equilibrium are kept side by side:
``coverage_optimum`` evaluates the closed-form Pareto-shaped strategy that
is simultaneously the equilibrium of the exclusive policy and the unique
coverage maximizer, while ``solve_ifd`` finds the equilibrium of an
arbitrary non-increasing congestion policy by nested bisection on the
common site value. ``coverage_grid_oracle`` is a brute-force check on the
optimum over a discrete simplex grid, and ``symmetric_price_of_anarchy``
compares equilibrium coverage against the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .game import (
    SUPPORT_EPS,
    GameInstance,
    Strategy,
    ValueProfile,
    _check,
    congestion_kernel,
    coverage,
    site_values,
)

# Bisection settings. The inner loop resolves per-site probabilities to
# 1e-12; the outer loop halves the common value's bracket, over values
# scaled to value(1) = 1, to about 1e-13, which leaves enough headroom for
# the 1e-8 residual contract on the returned equilibrium.
INNER_P_TOL = 1e-12
OUTER_REL_TOL = 1e-13

IFD_RESIDUAL_TOL = 1e-8

# The welfare search is exact on the simplex grid with this step, then
# polished by the same DP on halving local grids, each site moving by up
# to the window's steps, until the step falls below the second constant.
WELFARE_GRID_STEP = 1e-3
WELFARE_REFINE_STEP = 1e-7
WELFARE_REFINE_WINDOW = 2


class SolverError(RuntimeError):
    """A solver failed to meet its convergence contract."""

    def __init__(self, message: str, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass(frozen=True)
class CoverageOptimum:
    """Closed-form optimal strategy with its support size and normalizer.

    The strategy plays site x with probability 1 - normalizer *
    value(x) ** (-1 / (players - 1)) on a prefix of ``support_size`` sites
    and 0 elsewhere. ``common_value`` is the per-site expected payoff under
    the exclusive policy, equal to normalizer ** (players - 1).
    """

    strategy: Strategy
    support_size: int
    normalizer: float
    common_value: float


@dataclass(frozen=True)
class EquilibriumReport:
    """Diagnostics for a strategy checked against the equilibrium conditions.

    ``residual`` is the largest violation found: the spread of expected
    values across supported sites, or the amount by which an unsupported
    site beats the common value. ``boundary_flag`` marks unsupported sites
    whose value ties the common value within tolerance, where the strict
    outside-support inequality degenerates. Values, ``residual`` and
    ``tolerance`` are in the units of the site values.
    """

    strategy: Strategy
    support_size: int
    common_value: float
    residual: float
    boundary_flag: bool
    tolerance: float
    site_values: tuple[float, ...]
    support_is_prefix: bool

    @property
    def passed(self) -> bool:
        return self.support_is_prefix and self.residual <= self.tolerance


@dataclass(frozen=True)
class WelfareOptimum:
    """Best symmetric strategy found for the expected individual payoff."""

    strategy: Strategy
    payoff: float


def coverage_optimum(profile: ValueProfile, players: int) -> CoverageOptimum:
    """Closed-form coverage-maximizing strategy for ``players`` dispersers.

    The support is the largest prefix of sites over which the Pareto shape
    stays a probability vector; the normalizer then makes it sum to one.
    """
    _check(players >= 2, f"players: must be >= 2, got {players}")
    f = profile.as_array()
    m = profile.size
    exponent = 1.0 / (players - 1)
    root = f**exponent
    inv_root = 1.0 / root
    cum_inv = np.cumsum(inv_root)
    # scan[y-1] = sum_{x <= y} (1 - (f(y)/f(x)) ** exponent), non-decreasing in y
    scan = np.arange(1, m + 1) - root * cum_inv
    support = int(np.nonzero(scan <= 1.0 + 1e-12)[0][-1]) + 1
    if support == 1:
        alpha = 0.0
    else:
        alpha = (support - 1) / float(cum_inv[support - 1])
    probs = np.zeros(m)
    probs[:support] = 1.0 - alpha * inv_root[:support]
    probs[probs < SUPPORT_EPS] = 0.0
    probs /= probs.sum()
    strategy = Strategy.from_array(probs)
    return CoverageOptimum(
        strategy=strategy,
        support_size=len(strategy.support()),
        normalizer=float(alpha),
        common_value=float(alpha ** (players - 1)),
    )


def verify_ifd(instance: GameInstance, strategy: Strategy, tolerance: float = IFD_RESIDUAL_TOL) -> EquilibriumReport:
    """Check the equilibrium conditions for ``strategy`` and report violations.

    Supported sites must share a common expected value and every
    unsupported site must fall strictly below it. Violations are reported
    through ``residual``, never raised. ``tolerance`` is relative to
    value(1), so the verdict does not depend on the unit of the values.
    """
    tolerance *= instance.profile.values[0]
    values = site_values(instance, strategy)
    probs = strategy.as_array()
    supported = probs > SUPPORT_EPS
    n_support = int(np.count_nonzero(supported))
    support_is_prefix = bool(np.all(supported[:n_support]) and not np.any(supported[n_support:]))
    inside = values[supported]
    common = float(np.mean(inside))
    residual_equal = float(np.max(inside) - np.min(inside))
    outside = values[~supported]
    if outside.size:
        residual_outside = max(0.0, float(np.max(outside)) - common)
        boundary = bool(np.any(np.abs(outside - common) <= tolerance))
    else:
        residual_outside = 0.0
        boundary = False
    return EquilibriumReport(
        strategy=strategy,
        support_size=n_support,
        common_value=common,
        residual=max(residual_equal, residual_outside),
        boundary_flag=boundary,
        tolerance=tolerance,
        site_values=tuple(float(v) for v in values),
        support_is_prefix=support_is_prefix,
    )


def solve_ifd(instance: GameInstance) -> EquilibriumReport:
    """Symmetric equilibrium of the instance, found by nested bisection.

    The outer loop bisects the common site value nu over [C(players), 1],
    on the values over value(1), so that no result depends on their unit;
    the inner loop solves each site's probability, non-increasing in nu,
    between those found at the two ends of the outer bracket. The returned
    strategy is re-checked by ``verify_ifd`` and must come back with
    residual <= 1e-8 * value(1), otherwise a ``SolverError`` carrying
    diagnostics is raised.

    A congestion policy that is constant on 1..players makes every site
    value independent of play; that degenerate case returns the point mass
    on the first (highest-value) site.
    """
    profile, players, policy = instance.profile, instance.players, instance.policy
    if instance.sites == 1:
        return verify_ifd(instance, Strategy((1.0,)))
    if policy.is_constant_on(players):
        return verify_ifd(instance, Strategy.point_mass(1, instance.sites))

    top = profile.values[0]
    f = profile.as_array() / top
    response = congestion_kernel(policy, players)
    floor_weight = policy.at(players)

    def site_probs(target: float, low: np.ndarray, high: np.ndarray) -> np.ndarray:
        # Site x gets the p in [low, high] with f(x) * E[C(1 + B(p))] =
        # target, clamped to 0 where even a sure solo visit is worth at most
        # target and to 1 where a sure full collision still beats it.
        probs = (f * floor_weight >= target).astype(float)
        active = (f > target) & (f * floor_weight < target)
        fa, lo_p, hi_p = f[active], low[active], high[active]
        width = float(np.max(hi_p - lo_p, initial=0.0))
        steps = math.ceil(math.log2(width / INNER_P_TOL)) if width > INNER_P_TOL else 0
        for _ in range(steps):
            mid = 0.5 * (lo_p + hi_p)
            above = fa * response(mid) > target
            lo_p = np.where(above, mid, lo_p)
            hi_p = np.where(above, hi_p, mid)
        probs[active] = 0.5 * (lo_p + hi_p)
        return probs

    # The total probability is non-increasing in nu: at nu = C(players)
    # site 1 is clamped to 1, so it is >= 1, and at nu = 1 it is 0.
    lo, hi = floor_weight, 1.0
    probs_lo, probs_hi = np.ones(f.size), np.zeros(f.size)
    for _ in range(math.ceil(math.log2(1.0 / OUTER_REL_TOL))):
        mid = 0.5 * (lo + hi)
        probs = site_probs(mid, probs_hi, probs_lo)
        if probs.sum() >= 1.0:
            lo, probs_lo = mid, probs
        else:
            hi, probs_hi = mid, probs
    nu = 0.5 * (lo + hi)

    probs = site_probs(nu, probs_hi, probs_lo)
    probs[probs < SUPPORT_EPS] = 0.0
    total = probs.sum()
    if not 0.5 < total < 2.0:
        raise SolverError("equilibrium probabilities failed to normalize", total=float(total), value=nu * top)
    probs /= total
    report = verify_ifd(instance, Strategy.from_array(probs))
    if not report.passed:
        raise SolverError(
            "equilibrium residual exceeds tolerance",
            residual=report.residual,
            common_value=report.common_value,
            value=nu * top,
        )
    return report


def symmetric_payoff(instance: GameInstance, strategy: Strategy) -> float:
    """Expected individual payoff when all players use ``strategy``."""
    return float(np.dot(strategy.as_array(), site_values(instance, strategy)))


def _allocate_units(gain: np.ndarray) -> np.ndarray:
    """Best split of n probability units across sites for a separable objective.

    ``gain`` is (M, n + 1): ``gain[s, u]`` is what site s contributes when
    it gets u of the n units. Returns the unit count per site that
    maximizes the summed gain, found exactly by the resource-allocation
    recursion over sites (Ibaraki & Katoh 1988). The last site enters only
    at the full budget, so it costs one vector operation. A gain of -inf
    marks a count the site may not take (one outside [0, 1] in a polish).
    """
    m, width = gain.shape
    best = gain[0]
    picks = np.zeros((m, width), dtype=np.int64)
    for s in range(1, m - 1):
        new_best = np.empty(width)
        for t in range(width):
            cand = gain[s, : t + 1] + best[t::-1]
            c = int(cand.argmax())
            picks[s, t] = c
            new_best[t] = cand[c]
        best = new_best
    if m > 1:
        picks[m - 1, width - 1] = np.argmax(gain[m - 1] + best[::-1])

    counts = np.zeros(m, dtype=np.int64)
    remaining = width - 1
    for s in range(m - 1, 0, -1):
        counts[s] = picks[s, remaining]
        remaining -= counts[s]
    counts[0] = remaining
    return counts


def welfare_optimum(instance: GameInstance) -> WelfareOptimum:
    """Symmetric strategy maximizing the expected individual payoff.

    The payoff sum_x p(x) * value(x) * E[C(1 + B(p(x)))] is separable by
    site, so the allocation DP finds its exact optimum on the simplex grid
    with step ``WELFARE_GRID_STEP``, then polishes that point on halving
    local grids down to ``WELFARE_REFINE_STEP``, each site moving by up to
    ``WELFARE_REFINE_WINDOW`` steps and the moves summing to zero.
    """
    f = instance.profile.as_array()[:, None]
    response = congestion_kernel(instance.policy, instance.players)
    n = round(1.0 / WELFARE_GRID_STEP)
    units = np.arange(n + 1) / n
    probs = _allocate_units(f * (units * response(units))) / n
    # Site x takes u of the w * M units, the move u - w; a lone site keeps
    # all w, the zero move, so the table is at least one site's moves wide.
    moves = np.arange(-WELFARE_REFINE_WINDOW, WELFARE_REFINE_WINDOW + 1)
    width = WELFARE_REFINE_WINDOW * instance.sites + 1
    gain = np.full((instance.sites, max(width, moves.size)), -np.inf)
    step = WELFARE_GRID_STEP / 2
    while step >= WELFARE_REFINE_STEP:
        local = probs[:, None] + step * moves
        inside = (local >= 0.0) & (local <= 1.0)
        gain[:, : moves.size] = np.where(inside, f * (local * response(np.clip(local, 0.0, 1.0))), -np.inf)
        probs = probs + step * moves[_allocate_units(gain[:, :width])]
        step /= 2
    strategy = Strategy.from_array(probs)
    return WelfareOptimum(strategy, symmetric_payoff(instance, strategy))


def coverage_grid_oracle(profile: ValueProfile, players: int, grid_step: float) -> tuple[Strategy, float]:
    """Best coverage over the simplex grid with resolution ``grid_step``.

    Exhausts every grid point (all ways of splitting 1/step probability
    units across sites) through the per-site allocation DP, so the result
    is the exact grid optimum. Intended purely as an independent check of
    the closed-form optimum; limited to 4 sites.
    """
    m = profile.size
    _check(m <= 4, f"profile: grid oracle supports at most 4 sites, got {m}")
    _check(players >= 1, f"players: must be >= 1, got {players}")
    n = round(1.0 / grid_step)
    _check(n >= 1 and abs(n * grid_step - 1.0) < 1e-9, f"grid_step: must evenly divide 1, got {grid_step}")
    f = profile.as_array()
    units = np.arange(n + 1) / n
    counts = _allocate_units(f[:, None] * (1.0 - (1.0 - units[None, :]) ** players))
    strategy = Strategy.from_array(counts / n)
    return strategy, coverage(profile, players, strategy)


def symmetric_price_of_anarchy(instance: GameInstance) -> float:
    """Coverage of the optimum over coverage of the symmetric equilibrium.

    The symmetric equilibrium is unique for non-increasing congestion
    policies, so the worst equilibrium is the only one; the ratio is 1
    exactly when the policy is exclusive.
    """
    optimum = coverage_optimum(instance.profile, instance.players)
    equilibrium = solve_ifd(instance)
    best = coverage(instance.profile, instance.players, optimum.strategy)
    attained = coverage(instance.profile, instance.players, equilibrium.strategy)
    return best / attained
