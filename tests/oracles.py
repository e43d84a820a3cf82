"""Brute-force reference oracles the tests check the library against.

Each reaches its answer by a route of its own, an exhaustive grid search,
the game played out, or every term of a sum that the library truncates, so
that agreement with the library means something.
They take the library's private engines and check none of their arguments.
"""

import math
import sys

import numpy as np

from dispersal import SimConfig, Strategy, ValueProfile, coverage
from dispersal.montecarlo import _chunks
from dispersal.solvers import _allocate_units


def coverage_grid_oracle(profile: ValueProfile, players: int, grid_step: float) -> tuple[Strategy, float]:
    """Best coverage over the simplex grid with resolution ``grid_step``.

    Exhausts every grid point (all ways of splitting 1/step probability
    units across sites) through the per-site allocation DP, so the result
    is the exact grid optimum. Its cost grows as M (1/step)^2.
    """
    n = round(1.0 / grid_step)
    units = np.arange(n + 1) / n
    counts = _allocate_units(profile.as_array()[:, None] * (1.0 - (1.0 - units[None, :]) ** players))
    strategy = Strategy.from_array(counts / n)
    return strategy, coverage(profile, players, strategy)


def full_row_bernstein(coeffs, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[coeffs[B]] and its term bound E|coeffs[B]|, B ~ Binomial(len(coeffs) - 1, p), each summed over every row.

    The kernel's log-space expression with no window: every non-zero row of
    ``coeffs`` contributes at every p, so the kernel's window can be checked
    against it term for term.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    n, j = len(coeffs) - 1, np.flatnonzero(coeffs.reshape(len(coeffs), -1).any(axis=1))
    log_comb = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in j])
    floor = -sys.float_info.max / (n + 2)
    with np.errstate(divide="ignore"):
        log_p, log_q = np.maximum(np.log(p), floor)[..., None], np.maximum(np.log1p(-p), floor)[..., None]
    terms = np.exp(log_comb + j * log_p + (n - j) * log_q)
    return terms @ coeffs[j], terms @ np.abs(coeffs[j])


def empirical_site_values(config: SimConfig) -> list[float]:
    """Estimated expected payoff of committing to each site.

    The resident profile in ``config`` must be symmetric. Each round the
    k-1 residents (players 1..k-1) sample their sites, and a focal player
    is paid at every site in turn. Returns the per-site mean rewards; the
    residents' draws are shared across sites, so the M estimates use common
    random numbers.
    """
    instance = config.instance
    m, n, weights = instance.sites, instance.players - 1, instance.policy.weights(instance.players)
    histogram = np.zeros(m * n, dtype=np.int64)
    for cells, _ in _chunks(config, range(1, n + 1)):
        histogram += np.bincount(cells.ravel(), minlength=m * n)
    # l residents at a site in a round add l to its cell l-1, so visits[x, l-1]
    # counts the rounds with l residents at site x; the other rounds have none.
    visits = histogram.reshape(m, n) // np.arange(1, n + 1)
    payoffs = (config.rounds - visits.sum(axis=1)) * weights[0] + visits @ weights[1:]
    return (instance.profile.as_array() * payoffs / config.rounds).tolist()
