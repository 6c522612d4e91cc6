"""Identification of growing families of finite-alphabet distributions.

Given one i.i.d. sequence per member of a family of distinct
distributions, permuted by an unknown assignment, this package decodes
the assignment by maximum likelihood, evaluates the pairwise
Bhattacharyya sum that governs when identification is possible as the
family grows with the blocklength, and verifies the finite-blocklength
error bounds by Monte Carlo simulation and exhaustive combinatorial
checks.
"""

from .bounds import (
    BoundReport,
    FamilySequenceSpec,
    GrowthRule,
    TrendReport,
    cycle_count_ratio,
    cycle_sum_bound,
    identifiability_trend,
    lower_bound,
    pairwise_sum,
    upper_bound,
)
from .decoder import (
    NoFeasibleAssignmentError,
    exhaustive_decode,
    ml_decode,
)
from .distributions import (
    DistributionFamily,
    FinitePmf,
    bhattacharyya,
    make_family,
    tilted_midpoint,
)
from .graphs import (
    WeightedCompleteGraph,
    check_expansion_identities,
    check_mean_gain_bound,
    cycle_count,
    cycle_gain,
    edge_incidence_counts,
    enumerate_cycles,
    formula_cycle_count,
)
from .mc import (
    ExponentFit,
    McEstimate,
    estimate_error_prob,
    pairwise_error_exponent,
    permutation_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DistributionFamily",
    "ExponentFit",
    "FamilySequenceSpec",
    "FinitePmf",
    "GrowthRule",
    "McEstimate",
    "NoFeasibleAssignmentError",
    "TrendReport",
    "WeightedCompleteGraph",
    "bhattacharyya",
    "check_expansion_identities",
    "check_mean_gain_bound",
    "cycle_count",
    "cycle_count_ratio",
    "cycle_gain",
    "cycle_sum_bound",
    "edge_incidence_counts",
    "enumerate_cycles",
    "estimate_error_prob",
    "exhaustive_decode",
    "formula_cycle_count",
    "identifiability_trend",
    "lower_bound",
    "make_family",
    "ml_decode",
    "pairwise_error_exponent",
    "pairwise_sum",
    "permutation_cycles",
    "tilted_midpoint",
    "upper_bound",
]
