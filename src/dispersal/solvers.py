"""Equilibrium and optimality solvers for the dispersal game.

Two independent routes to the symmetric equilibrium are kept side by side:
``coverage_optimum`` evaluates the closed-form Pareto-shaped strategy that
is simultaneously the equilibrium of the exclusive policy and the unique
coverage maximizer, while ``solve_ifd`` finds the equilibrium of an
arbitrary non-increasing congestion policy by bracketed Newton steps on
the common site value. ``coverage_grid_oracle`` is a brute-force check on the
optimum over a discrete simplex grid, and ``symmetric_price_of_anarchy``
compares equilibrium coverage against the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .game import (
    SUPPORT_EPS,
    GameInstance,
    Strategy,
    ValueProfile,
    _bernstein,
    _check,
    _count,
    coverage,
    site_values,
)

# Newton settings: steps in a site's probability below 1e-12 end the inner
# loop; a sum within 1e-14 of one, or a bracket on the common value (over
# value(1) = 1) with no float inside, its midpoint an end, ends the outer one.
INNER_P_TOL = 1e-12
SUM_TOL = 1e-14

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
    ``tolerance`` are in the units of the site values. Equality ignores
    ``iterations`` and ``evaluations``, a solve's outer and Newton steps.
    """

    strategy: Strategy
    support_size: int
    common_value: float
    residual: float
    boundary_flag: bool
    tolerance: float
    site_values: tuple[float, ...]
    support_is_prefix: bool
    iterations: int = field(default=0, compare=False)
    evaluations: int = field(default=0, compare=False)

    @property
    def passed(self) -> bool:
        return self.support_is_prefix and self.residual <= self.tolerance


@dataclass(frozen=True)
class WelfareOptimum:
    """Best symmetric strategy found for the expected individual payoff."""

    strategy: Strategy
    payoff: float


def _pareto(f: np.ndarray, exponent: float) -> tuple[np.ndarray, float]:
    """Pareto shape 1 - normalizer * f ** -exponent on the largest prefix where it is a distribution, 0 beyond, and its normalizer."""
    root = f**exponent
    inv_root = 1.0 / root
    cum_inv = np.cumsum(inv_root)
    # scan[y-1] = sum_{x <= y} (1 - (f(y)/f(x)) ** exponent), non-decreasing in y
    scan = np.arange(1, f.size + 1) - root * cum_inv
    support = int(np.nonzero(scan <= 1.0 + 1e-12)[0][-1]) + 1
    alpha = (support - 1) / float(cum_inv[support - 1])
    probs = np.zeros(f.size)
    probs[:support] = 1.0 - alpha * inv_root[:support]
    return probs, alpha


def _finish(f: np.ndarray, probs: np.ndarray) -> Strategy:
    """The strategy a solver returns: sites of equal value share their mean
    probability, and all sum to 1.

    ``f`` is sorted, so equal values are adjacent; a mean is the group's first
    entry plus its mean deviation, which leaves equal entries exactly as they are.
    """
    if len(set(f.tolist())) < f.size:
        starts = np.r_[True, f[1:] != f[:-1]]
        group = np.cumsum(starts) - 1
        first = probs[starts][group]
        probs = first + (np.bincount(group, probs - first) / np.bincount(group))[group]
    return Strategy.from_array(probs / probs.sum())


def coverage_optimum(profile: ValueProfile, players: int) -> CoverageOptimum:
    """Closed-form coverage-maximizing strategy for ``players`` dispersers: the Pareto shape of exponent 1 / (players - 1)."""
    _count(players, "players", 2)
    f = profile.as_array()
    probs, alpha = _pareto(f, 1.0 / (players - 1))
    strategy = _finish(f, probs)
    return CoverageOptimum(
        strategy=strategy,
        support_size=len(strategy.support()),
        normalizer=float(alpha),
        common_value=float(alpha ** (players - 1)),
    )


def verify_ifd(instance: GameInstance, strategy: Strategy) -> EquilibriumReport:
    """Check the equilibrium conditions for ``strategy`` and report violations.

    Supported sites must share a common expected value and every
    unsupported site must fall strictly below it. Violations are reported
    through ``residual``, never raised, against ``IFD_RESIDUAL_TOL`` times the
    term bound max_x f(x) E|C|(1 + B_x) (Higham 2002, ch. 4) plus 1e-13 times
    max_x f(x) |R'(p(x))|, the first-order effect of a 1e-13 error in p.
    """
    _check(strategy.size == instance.sites, f"strategy: expected {instance.sites} entries, got {strategy.size}")
    probs = strategy.as_array()
    values, bound, slope = instance.profile.as_array() * instance.kernel(probs).T
    tolerance = IFD_RESIDUAL_TOL * float(np.max(bound)) + 1e-13 * float(np.max(np.abs(slope)))
    supported = probs > SUPPORT_EPS
    n_support = int(np.count_nonzero(supported))
    support_is_prefix = bool(np.all(supported[:n_support]) and not np.any(supported[n_support:]))
    inside = values[supported]
    common = float(np.mean(inside))
    residual_equal = float(np.max(inside) - np.min(inside))
    outside = values[~supported]
    residual_outside = max(0.0, float(np.max(outside, initial=-np.inf)) - common)
    return EquilibriumReport(
        strategy=strategy,
        support_size=n_support,
        common_value=common,
        residual=max(residual_equal, residual_outside),
        boundary_flag=bool(np.any(np.abs(outside - common) <= tolerance)),
        tolerance=tolerance,
        site_values=tuple(values.tolist()),
        support_is_prefix=support_is_prefix,
    )


def solve_ifd(instance: GameInstance) -> EquilibriumReport:
    """Symmetric equilibrium of the instance, found by bracketed Newton steps.

    The outer loop seeks the common site value nu in [C(players), 1], on the
    values over value(1) so that no result depends on their unit, at which the
    site probabilities sum to one; the inner loop solves each site's probability
    from a tangent prediction, between those found at the two ends of the outer
    bracket, with R and R' from one ``instance.kernel`` call. A Newton step that
    would leave its bracket is replaced by a bisection step. The loop starts
    from the Pareto shape fitted to R(p) ~ (1 - p)^d, d = -R'(0), which is exact
    under the exclusive policy, or, if d <= 0 or that start is not a normal
    float inside the bracket, from its midpoint. If the bracket runs out before
    the sum is one, the strategies at its two ends (the low end evaluated first
    if no step did) are mixed to sum to one, or, below the normal float range, a
    ``SolverError`` is raised. The strategy, finished as ``coverage_optimum``'s
    is, is re-checked by ``verify_ifd`` and must come back within its tolerance,
    or a ``SolverError`` with diagnostics is raised.

    When value(2) / value(1) <= C(players), as under any constant policy, a
    full collision at the first site pays at least a solo visit to the second:
    the point mass on the first site is finished at once, so tied top sites share it.
    """
    profile, players, policy = instance.profile, instance.players, instance.policy
    top = profile.values[0]
    f = profile.as_array() / top
    weights, kernel = policy.weights(players), instance.kernel
    floor_weight = float(weights[-1])
    if f.size == 1 or f[1] <= floor_weight:
        return verify_ifd(instance, _finish(f, np.eye(1, f.size)[0]))

    def site_probs(target: float, guess: np.ndarray, low: np.ndarray, high: np.ndarray):
        # Site x gets the p in [low, high] with f(x) R(p) = target, clamped to
        # 0 where even a sure solo visit is worth at most target and to 1
        # where a sure full collision still beats it; rate is dp/dnu there.
        nonlocal evaluations
        probs, rate = (f * floor_weight >= target).astype(float), np.zeros(f.size)
        active = (f > target) & (f * floor_weight < target)
        fa, lo_p, hi_p = f[active], low[active], high[active]
        p, step = np.clip(guess[active], lo_p, hi_p), 1.0 if fa.size else 0.0
        gradient = np.full(fa.size, np.nan)
        while not step <= INNER_P_TOL:  # a NaN guess makes a NaN step, not a stop
            evaluations += 1
            value, _, gradient = fa * kernel(p).T
            excess = value - target
            lo_p, hi_p = np.where(excess >= 0.0, p, lo_p), np.where(excess <= 0.0, p, hi_p)
            newton = p - excess / gradient
            # A Newton point on a bracket end could cycle between the ends.
            inside = (lo_p < newton) & (newton < hi_p) | (newton == p)
            new = np.where(inside, newton, 0.5 * (lo_p + hi_p))
            step, p = float(np.max(np.abs(new - p))), new
        probs[active], rate[active] = p, 1.0 / gradient
        return probs, rate

    lo, hi, iterations, evaluations = floor_weight, 1.0, 0, 0

    def progress() -> dict:  # how far the solve got, for the diagnostics of every SolverError below
        return {"iterations": iterations, "evaluations": evaluations, "bracket": [float(lo * top), float(hi * top)]}

    probs_lo, probs_hi = np.ones(f.size), np.zeros(f.size)
    step = before = hi - lo
    # R' < 0 inside (0, 1) but can underflow to 0; the inf or NaN a Newton
    # step then makes fails its bracket test, which bisects instead.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # -R'(0) = (k-1)(C(1) - C(2)), so (1 - p)^d matches R at 0 in value and slope.
        d = (players - 1) * (1.0 - weights[1])
        guess, alpha = _pareto(f, 1.0 / d) if d > 0 else (None, 0.0)
        nu = alpha**d
        if not (lo < nu < hi and nu >= np.finfo(float).tiny):
            nu, guess = 0.5 * (lo + hi), np.zeros(f.size)
        while True:
            probs, rate = site_probs(nu, guess, probs_hi, probs_lo)
            iterations += 1
            excess = probs.sum() - 1.0
            if excess >= 0.0:
                lo, probs_lo = nu, probs
            else:
                hi, probs_hi = nu, probs
            middle = 0.5 * (lo + hi)
            if abs(excess) <= SUM_TOL or not lo < middle < hi:
                break
            # A Newton step must also halve the step before last, so that it
            # cannot cycle between two points inside the bracket.
            newton = nu - excess / rate.sum()
            ok = lo < newton < hi and abs(newton - nu) < 0.5 * abs(before)
            before, step = step, (newton if ok else middle) - nu
            nu, guess = nu + step, probs + step * rate
        if not abs(excess) <= SUM_TOL:
            if abs(hi) < np.finfo(float).tiny:
                raise SolverError("common value below the float range", value=hi * top, **progress())
            if lo == floor_weight:  # not evaluated: its ones only bound the inner bracket
                probs_lo, _ = site_probs(lo, probs_hi, probs_hi, probs_lo)
            # The ends' strategies, mixed to sum to one, keep each site's value between its values at the ends.
            mix = (probs_lo.sum() - 1.0) / (probs_lo.sum() - probs_hi.sum())
            probs = probs_lo + mix * (probs_hi - probs_lo)

    report = verify_ifd(instance, _finish(f, probs))
    if not report.passed:
        raise SolverError(
            "equilibrium residual exceeds tolerance",
            residual=report.residual,
            common_value=report.common_value,
            value=nu * top,
            **progress(),
        )
    return replace(report, iterations=iterations, evaluations=evaluations)


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
    # Budgets above the sum of the largest finite counts so far are unreachable.
    reach = np.minimum(np.cumsum(np.where(np.isfinite(gain), np.arange(width), 0).max(axis=1)), width - 1)
    for s in range(1, m - 1):
        new_best = np.full(width, -np.inf)
        for t in range(reach[s] + 1):
            cand = gain[s, : t + 1] + best[t::-1]
            c = int(cand.argmax())
            picks[s, t] = c
            new_best[t] = cand[c]
        best = new_best
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
    response = _bernstein(instance.policy.weights(instance.players))
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
    _count(players, "players", 1)
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
    policies, so the worst equilibrium is the only one. The ratio is 1
    under the exclusive policy; that any other policy loses coverage holds
    over instances, not on each one (tied values or a single site give 1).
    The tests check that it exceeds 1 + 1e-9 for M and k in 2..8, each
    value between 0.1 and 0.9 times the one before, under sharing or a
    non-negative non-increasing table with C(2) >= 0.1.
    """
    optimum = coverage_optimum(instance.profile, instance.players)
    equilibrium = solve_ifd(instance)
    best = coverage(instance.profile, instance.players, optimum.strategy)
    attained = coverage(instance.profile, instance.players, equilibrium.strategy)
    return best / attained
