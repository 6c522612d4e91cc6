"""Identification of growing families of finite-alphabet distributions.

Given one i.i.d. sequence per member of a family of distinct
distributions, permuted by an unknown assignment, this package decodes
the assignment by maximum likelihood, evaluates the pairwise
Bhattacharyya sum that governs when identification is possible as the
family grows with the blocklength, estimates the error probability by
Monte Carlo simulation to set against the finite-blocklength bounds,
and checks the cycle-gain inequality behind the upper bound on every
cycle of small weighted complete graphs.

The public names below load their module on first use, so importing the
package, or a CLI subcommand, pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The public names each module defines.
_EXPORTS = {
    "bounds": ("BoundReport", "FamilySequenceSpec", "GrowthRule", "TrendPoint",
               "TrendReport", "identifiability_trend", "lower_bound", "pairwise_sum",
               "upper_bound"),
    "decoder": ("NoFeasibleAssignmentError", "ml_decode"),
    "distributions": ("DistributionFamily", "FinitePmf", "bhattacharyya",
                      "distance_matrix", "make_family", "philox_stream"),
    "exact": ("ExponentFit", "pairwise_error_exponent"),
    "graphs": ("MeanGainCheck", "check_mean_gain_bound", "cycle_count",
               "edge_incidence_counts", "enumerate_cycles", "formula_cycle_count"),
    "mc": ("McEstimate", "estimate_error_prob", "permutation_cycles"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import a public name's module on first use (PEP 562) and keep the name."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
