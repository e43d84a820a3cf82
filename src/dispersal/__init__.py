"""Equilibria, optimal coverage, price of anarchy, and evolutionary
stability for the one-shot dispersal game under congestion reward
policies."""

from .ess import (
    EssVerdict,
    closed_form_mutant_payoff,
    closed_form_resident_payoff,
    ess_batch,
    ess_characterization,
    invasion_sweep,
    mutant_generator,
    project_to_simplex,
)
from .game import (
    CongestionPolicy,
    GameInstance,
    Strategy,
    ValidationError,
    ValueProfile,
    coverage,
    expected_payoff_profile,
    site_values,
)
from .montecarlo import SimConfig, SimReport, simulate
from .solvers import (
    CoverageOptimum,
    EquilibriumReport,
    SolverError,
    WelfareOptimum,
    coverage_optimum,
    solve_ifd,
    symmetric_price_of_anarchy,
    verify_ifd,
    welfare_optimum,
)

__version__ = "0.3.0"

__all__ = [
    "CongestionPolicy",
    "CoverageOptimum",
    "EquilibriumReport",
    "EssVerdict",
    "GameInstance",
    "SimConfig",
    "SimReport",
    "SolverError",
    "Strategy",
    "ValidationError",
    "ValueProfile",
    "WelfareOptimum",
    "closed_form_mutant_payoff",
    "closed_form_resident_payoff",
    "coverage",
    "coverage_optimum",
    "ess_batch",
    "ess_characterization",
    "expected_payoff_profile",
    "invasion_sweep",
    "mutant_generator",
    "project_to_simplex",
    "simulate",
    "site_values",
    "solve_ifd",
    "symmetric_price_of_anarchy",
    "verify_ifd",
    "welfare_optimum",
]
