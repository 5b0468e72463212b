"""Fault-tolerant fusion of interval sensor readings across multiple agents.

The package models a swarm of abstract sensors that report integer-lattice
intervals around a hidden target.  Up to a known number of them are faulty
and report arbitrary well-formed intervals instead.  Several fusion rules
are provided, from the classical midpoint-of-overlap estimators to a
weighted rule that matches the exact Bayes posterior mean, plus a linear
estimator family whose coefficients trade per-agent accuracy against
cross-agent consensus, and the Monte Carlo machinery to measure all of
them under common random numbers.
"""

from .fusion import (
    DegenerateInputError,
    GbiWeights,
    LinearCoefficients,
    TransitionProfile,
    fuse_bi,
    fuse_bi_with_flag,
    fuse_gbi,
    fuse_gbi_oneopt,
    fuse_gbi_regions,
    fuse_linear,
    fuse_marzullo,
    gbi_bayes_weights,
    transition_profile,
)
from .metrics import AlgorithmSpec, MetricsReport, combine_objective, empirical_objective, evaluate, evaluate_taus
from .optimal import (
    AmplitudeSolution,
    DirectionMoments,
    InfeasibleSearchError,
    LinearSelection,
    SingularSystemError,
    TwoAgentLinearSolution,
    amplitude_solution,
    estimate_moments,
    fit_linear_empirical,
    fit_linear_exact,
    population_scores,
    select_linear_coefficients,
    select_linear_exact,
    solve_linear_two_agent,
)
from .oracle import (
    InconsistentReadingsError,
    LawMoments,
    MomentSet,
    OffLatticeError,
    PiecewiseDensity,
    implied_precision,
    law_moments,
    posterior_density,
    posterior_mean_exact,
)
from .scenario import (
    Interval,
    ScenarioParams,
    TrialBatch,
    TrialData,
    TrialDraw,
    draw_batch,
    draw_trials,
    make_trial,
    make_trials,
    sample_batch,
    truthful_interval,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmSpec",
    "AmplitudeSolution",
    "DegenerateInputError",
    "DirectionMoments",
    "GbiWeights",
    "InconsistentReadingsError",
    "InfeasibleSearchError",
    "Interval",
    "LawMoments",
    "LinearCoefficients",
    "LinearSelection",
    "MetricsReport",
    "MomentSet",
    "OffLatticeError",
    "PiecewiseDensity",
    "ScenarioParams",
    "SingularSystemError",
    "TransitionProfile",
    "TrialBatch",
    "TrialData",
    "TrialDraw",
    "TwoAgentLinearSolution",
    "amplitude_solution",
    "combine_objective",
    "draw_batch",
    "draw_trials",
    "empirical_objective",
    "estimate_moments",
    "evaluate",
    "evaluate_taus",
    "fit_linear_empirical",
    "fit_linear_exact",
    "fuse_bi",
    "fuse_bi_with_flag",
    "fuse_gbi",
    "fuse_gbi_oneopt",
    "fuse_gbi_regions",
    "fuse_linear",
    "fuse_marzullo",
    "gbi_bayes_weights",
    "implied_precision",
    "law_moments",
    "make_trial",
    "make_trials",
    "population_scores",
    "posterior_density",
    "posterior_mean_exact",
    "sample_batch",
    "select_linear_coefficients",
    "select_linear_exact",
    "solve_linear_two_agent",
    "transition_profile",
    "truthful_interval",
]
