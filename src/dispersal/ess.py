"""Evolutionary stability machinery for the dispersal game.

A resident strategy is evolutionarily stable when no rare mutant can
invade an infinite population whose members are matched in random
k-tuples. The check used here is the standard ordered characterization:
walk m = 0, 1, ... and find the first mixed opponent profile (m mutants,
k-m-1 residents) at which the resident strictly beats the mutant, with
exact payoff ties required at every earlier m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import (
    SUPPORT_EPS,
    GameInstance,
    Strategy,
    ValueProfile,
    _bernstein,
    _check,
    _count,
    site_values,
)
from .solvers import coverage_optimum

# A margin within EQUALITY_TOL times the bound on its payoff terms, plus the effect of a 1e-13
# error in the candidate, is the exact tie the characterization demands; above it wins, below it loses.
EQUALITY_TOL = 1e-10

# Strategies closer than this in max-norm are treated as identical.
MIN_MUTANT_DISTANCE = 1e-9

PERTURBATION_SCALE = 1e-2


@dataclass(frozen=True)
class EssVerdict:
    """Outcome of the ordered stability check for one mutant.

    ``witness_m`` is the number of mutant opponents at which the resident
    first strictly wins (None when no such count exists, i.e. the check
    failed). ``margins`` lists the resident-minus-mutant payoff difference
    for every opponent mix examined, in order of increasing mutant count.
    """

    mutant: Strategy
    passed: bool
    witness_m: int | None
    margins: tuple[float, ...]


def mixture_payoff(
    instance: GameInstance,
    focal: Strategy,
    resident: Strategy,
    mutant: Strategy,
    epsilon: float,
) -> float:
    """Average payoff of ``focal`` against k-1 opponents drawn from a mixed population.

    Each opponent is independently a resident with probability 1 - epsilon
    and a mutant with probability epsilon, so every opponent plays the
    mixed strategy (1 - epsilon) * resident + epsilon * mutant: a symmetric
    field, whose payoff is ``focal`` dotted with its site values. At epsilon
    0 or 1 it is the corresponding pure profile.
    """
    _check(0.0 <= epsilon <= 1.0, f"epsilon: must lie in [0, 1], got {epsilon}")
    _check(resident.size == mutant.size, "mutant: strategy size must match the resident's")
    _check(focal.size == instance.sites, "focal: strategy size must match the number of sites")
    mixed = Strategy.from_array((1.0 - epsilon) * resident.as_array() + epsilon * mutant.as_array())
    return float(focal.as_array() @ site_values(instance, mixed))


def ess_batch(instance: GameInstance, candidate: Strategy, mutants: list[Strategy]) -> list[EssVerdict | None]:
    """Ordered stability checks of ``candidate``, one verdict per mutant.

    Walks the number of mutant opponents m upward over the mutants still tied
    at every smaller m; a verdict passes at the first win and fails on a loss or
    on a tie at m = k - 1. A margin (candidate - mutant) . v, v the mix's site
    payoffs, wins above and loses below ``verify_ifd``'s band, with ``EQUALITY_TOL``
    and the mix's term bounds; the candidate's kernel is evaluated once per m.
    A mutant within ``MIN_MUTANT_DISTANCE`` of the candidate in max-norm gets None.
    """
    _check(candidate.size == instance.sites, "candidate: strategy size must match the number of sites")
    k, f, resident = instance.players, instance.profile.as_array(), candidate.as_array()
    weights, verdicts, walking = instance.policy.weights(k), [None] * len(mutants), []
    for i, mutant in enumerate(mutants):
        _check(mutant.size == candidate.size, "mutant: strategy size must match the candidate's")
        difference = resident - mutant.as_array()
        if np.abs(difference).max() > MIN_MUTANT_DISTANCE:
            walking.append((i, difference, []))
    own, bounds, slope = f * instance.kernel(resident).T  # m = 0: the candidate's own field, for every mutant
    drift = 1e-13 * float(np.max(np.abs(slope)))
    values, bands = np.broadcast_to(own, (len(walking), f.size)), [EQUALITY_TOL * float(np.max(bounds)) + drift] * len(walking)
    for m in range(k):
        if not walking:
            break
        if m:
            # With Y ~ Bin(m, mutant(x)) and B ~ Bin(k-m-1, candidate(x)), site x pays value(x) *
            # sum_y P(Y = y) E[C(1 + y + B)]; column y of weights[b + y] gives the E, of |weights[b + y]| its bound.
            hankel = weights[np.add.outer(np.arange(k - m), np.arange(m + 1))]
            shifted = _bernstein(np.concatenate((hankel, np.abs(hankel)), axis=1))(resident)
            pmfs = _bernstein(np.eye(m + 1))(np.array([mutants[i].probs for i, _, _ in walking]))
            values = f * (shifted[:, : m + 1] * pmfs).sum(axis=2)
            bands = (EQUALITY_TOL * (f * (shifted[:, m + 1 :] * pmfs).sum(axis=2)).max(axis=1) + drift).tolist()
        for (i, difference, margins), payoffs, band in zip(walking, values, bands):
            margin = float(difference @ payoffs)
            margins.append(margin)
            if abs(margin) > band or m == k - 1:
                won = margin > band
                verdicts[i] = EssVerdict(mutant=mutants[i], passed=won, witness_m=m if won else None, margins=tuple(margins))
        walking = [entry for entry in walking if verdicts[entry[0]] is None]
    return verdicts


def ess_characterization(instance: GameInstance, candidate: Strategy, mutant: Strategy) -> EssVerdict:
    """``ess_batch`` of the one ``mutant``, which must differ from ``candidate``."""
    (verdict,) = ess_batch(instance, candidate, [mutant])
    _check(verdict is not None, f"mutant: must differ from the candidate by more than {MIN_MUTANT_DISTANCE} in max-norm")
    return verdict


def _closed_form_inputs(profile, players, support_size, n_mutants, mutant):
    _count(players, "players", 3)
    _count(n_mutants, "n_mutants", 1, players - 2)
    _count(support_size, "support_size", 1, profile.size)
    _check(mutant.size == profile.size, "mutant: strategy size must match the number of sites")
    probs = mutant.as_array()
    _check(
        not np.any(probs[support_size:] > SUPPORT_EPS),
        f"mutant: must be supported within the first {support_size} sites",
    )
    f = profile.as_array()[:support_size]
    one_minus = 1.0 - probs[:support_size]
    return f, one_minus


def closed_form_resident_payoff(
    profile: ValueProfile,
    players: int,
    support_size: int,
    normalizer: float,
    mutant: Strategy,
    n_mutants: int,
) -> float:
    """Closed form for the optimum's payoff in a mixed opponent profile.

    Expected payoff, under the exclusive policy, of a player using the
    closed-form optimum against ``n_mutants`` copies of ``mutant`` and
    players - n_mutants - 1 further optimum players. Requires the mutant
    to be supported within the optimum's support prefix.
    """
    f, one_minus = _closed_form_inputs(profile, players, support_size, n_mutants, mutant)
    k, ell, alpha = players, n_mutants, normalizer
    lead = float(np.sum(f ** (ell / (k - 1)) * one_minus**ell))
    trail = float(np.sum(f ** ((ell - 1) / (k - 1)) * one_minus**ell))
    return alpha ** (k - ell - 1) * (lead - alpha * trail)


def closed_form_mutant_payoff(
    profile: ValueProfile,
    players: int,
    support_size: int,
    normalizer: float,
    mutant: Strategy,
    n_mutants: int,
) -> float:
    """Closed form for the mutant's payoff in the same mixed opponent profile.

    Counterpart of ``closed_form_resident_payoff`` with the mutant as the
    focal player.
    """
    f, one_minus = _closed_form_inputs(profile, players, support_size, n_mutants, mutant)
    k, ell, alpha = players, n_mutants, normalizer
    lead = float(np.sum(f ** (ell / (k - 1)) * one_minus**ell))
    trail = float(np.sum(f ** (ell / (k - 1)) * one_minus ** (ell + 1)))
    return alpha ** (k - ell - 1) * (lead - trail)


def invasion_sweep(
    instance: GameInstance,
    resident: Strategy,
    mutant: Strategy,
    epsilons,
) -> list[tuple[float, float, float]]:
    """Resident and mutant payoffs across a grid of mutant proportions.

    For each epsilon returns (epsilon, resident payoff, mutant payoff)
    against the mixed population; useful for locating the invasion
    threshold below which the resident wins.
    """
    rows = []
    for eps in epsilons:
        eps = float(eps)
        _check(0.0 < eps < 1.0, f"epsilons: entries must lie in (0, 1), got {eps}")
        rows.append((eps, *(mixture_payoff(instance, focal, resident, mutant, eps) for focal in (resident, mutant))))
    return rows


def project_to_simplex(point) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    v = np.asarray(point, dtype=float)
    sorted_desc = np.sort(v)[::-1]
    cumulative = np.cumsum(sorted_desc) - 1.0
    positions = np.arange(1, v.size + 1)
    feasible = sorted_desc - cumulative / positions > 0
    rho = int(np.nonzero(feasible)[0][-1])
    threshold = cumulative[rho] / (rho + 1)
    return np.maximum(v - threshold, 0.0)


def mutant_generator(profile: ValueProfile, players: int, seed: int, count: int) -> list[Strategy]:
    """Deterministic batch of challenger strategies for stability testing.

    The batch starts with the point mass on every site, then alternates
    uniform random draws from the simplex with small projected
    perturbations of the closed-form optimum. The same seed always yields
    the same list.
    """
    _count(seed, "seed", 0)
    _count(count, "count", 1)
    rng = np.random.default_rng(seed)
    m = profile.size
    anchor = coverage_optimum(profile, players).strategy.as_array()
    mutants: list[Strategy] = []
    for site in range(1, m + 1):
        if len(mutants) >= count:
            break
        mutants.append(Strategy.point_mass(site, m))
    while len(mutants) < count:
        if (len(mutants) - m) % 2 == 0:
            mutants.append(Strategy.from_array(rng.dirichlet(np.ones(m))))
        else:
            noisy = anchor + PERTURBATION_SCALE * rng.standard_normal(m)
            mutants.append(Strategy.from_array(project_to_simplex(noisy)))
    return mutants
