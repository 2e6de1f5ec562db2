"""Spectrum-access policy toolkit for a buffered cognitive relay.

Analytic queue models, an exact LP policy search, two restricted
searches, and a slot-level Monte Carlo oracle, wired to a small
experiment CLI.
"""

__version__ = "0.1.0"

from .link_model import LinkBudget, SystemConfig, link_budget, success_probability
from .queue_analytics import (AccessPolicy, PolicyEvaluation,
                              RelaySteadyState, evaluate_policy,
                              min_departure_rate, relay_steady_state)
from .policy_opt import (OptimizationResult, cpt_policy, optimal_policy,
                         st_policy)
from .mc_sim import SimStats, compare, simulate

__all__ = [
    "__version__",
    "SystemConfig", "LinkBudget", "link_budget", "success_probability",
    "AccessPolicy", "RelaySteadyState", "PolicyEvaluation",
    "min_departure_rate", "relay_steady_state", "evaluate_policy",
    "OptimizationResult", "optimal_policy", "cpt_policy", "st_policy",
    "SimStats", "simulate", "compare",
]
