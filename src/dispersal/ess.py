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
    _check,
    _site_payoffs,
    expected_payoff_profile,
)
from .solvers import coverage_optimum

# Payoff differences inside this band count as the exact ties the
# characterization demands; a difference must clear the strict margin to
# count as a win. Both scale with f(1); the margin sits below the band so
# that genuine strictness is separated from float noise.
EQUALITY_TOL = 1e-10
STRICT_MARGIN = 1e-12

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


def _mixed_opponents(instance: GameInstance, resident: Strategy, mutant: Strategy, epsilon: float) -> list[Strategy]:
    """k-1 opponents, each playing (1 - epsilon) * resident + epsilon * mutant."""
    _check(0.0 <= epsilon <= 1.0, f"epsilon: must lie in [0, 1], got {epsilon}")
    _check(resident.size == mutant.size, "mutant: strategy size must match the resident's")
    mixed = Strategy.from_array((1.0 - epsilon) * resident.as_array() + epsilon * mutant.as_array())
    return [mixed] * (instance.players - 1)


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
    mixed strategy (1 - epsilon) * resident + epsilon * mutant. At epsilon
    0 or 1 it reduces exactly to the corresponding pure profile.
    """
    return expected_payoff_profile(instance, focal, _mixed_opponents(instance, resident, mutant, epsilon))


def ess_characterization(instance: GameInstance, candidate: Strategy, mutant: Strategy) -> EssVerdict:
    """Ordered stability check of ``candidate`` against one ``mutant``.

    Walks the number of mutant opponents m upward. The verdict passes at
    the first m where the candidate's payoff strictly exceeds the
    mutant's, provided the two tied (within ``EQUALITY_TOL`` * f(1)) at
    every smaller m. It fails if a mix strictly favors the mutant or if no
    strict win appears by m = k - 1. Margins are (candidate - mutant) . v,
    v being the mix's site payoffs, so each mix costs one DP.
    """
    _check(mutant.size == candidate.size, "mutant: strategy size must match the candidate's")
    difference = candidate.as_array() - mutant.as_array()
    _check(
        float(np.max(np.abs(difference))) > MIN_MUTANT_DISTANCE,
        f"mutant: must differ from the candidate by more than {MIN_MUTANT_DISTANCE} in max-norm",
    )
    k = instance.players
    scale = instance.profile.values[0]
    margins: list[float] = []
    for m in range(k):
        margin = float(difference @ _site_payoffs(instance, [candidate] * (k - m - 1) + [mutant] * m))
        margins.append(margin)
        if margin > STRICT_MARGIN * scale:
            return EssVerdict(mutant=mutant, passed=True, witness_m=m, margins=tuple(margins))
        if abs(margin) > EQUALITY_TOL * scale:
            break
    return EssVerdict(mutant=mutant, passed=False, witness_m=None, margins=tuple(margins))


def _closed_form_inputs(profile, players, support_size, n_mutants, mutant):
    _check(players >= 3, f"players: closed forms need at least 3 players, got {players}")
    _check(
        1 <= n_mutants <= players - 2,
        f"n_mutants: must lie in [1, {players - 2}], got {n_mutants}",
    )
    _check(1 <= support_size <= profile.size, "support_size: out of range")
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
        payoffs = _site_payoffs(instance, _mixed_opponents(instance, resident, mutant, eps))
        rows.append((eps, float(resident.as_array() @ payoffs), float(mutant.as_array() @ payoffs)))
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
    _check(count >= 1, f"count: must be >= 1, got {count}")
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
