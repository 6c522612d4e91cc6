"""Cycle enumeration in weighted complete graphs and mean-gain checks.

The gain of a cycle is the product of its edge weights in cycle order;
edge c joins vertex c to vertex c+1 (mod r), so a 2-cycle (an unordered
pair) traverses its single edge twice and its gain is the squared
weight.  With that convention every pair counts as one 2-cycle
(N = C(k,2)), while the closed-form cycle count C(k,r)(r-1)!/2 is used
for r >= 3 and, where a formula-consistent value is needed at r = 2,
halves to C(k,2)/2; both counts are exposed.  Gains, their sums and edge
incidences all read one cached table of cycle edges per (k, r).

The central inequality checked here: the arithmetic mean of all length-r
cycle gains is at most ((sum of squared edge weights) / edge count)^(r/2),
with equality at uniform weights.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "enumerate_cycles",
    "cycle_count",
    "formula_cycle_count",
    "edge_incidence_counts",
    "MeanGainCheck",
    "check_mean_gain_bound",
]

ENUMERATION_MAX_VERTICES = 10
MEAN_GAIN_REL_TOL = 1e-12


def pair_index(k: int, i, j):
    """Position of the unordered pair (i, j), i < j, in lexicographic order;
    elementwise on integer arrays."""
    if not np.all((0 <= i) & (i < j) & (j < k)):
        raise ValueError(f"need 0 <= i < j < k, got i={i}, j={j}, k={k}")
    return i * (2 * k - i - 1) // 2 + (j - i - 1)


def _edge_weights(k: int, weights) -> np.ndarray:
    """The edge weights of K_k as float64, one per unordered pair (i, j),
    i < j, in lexicographic order: k(k-1)/2 finite nonnegative values."""
    if k < 2:
        raise ValueError(f"need at least 2 vertices, got {k}")
    arr = np.asarray(weights, dtype=np.float64)
    expected = k * (k - 1) // 2
    if arr.shape != (expected,):
        raise ValueError(
            f"K_{k} needs {expected} edge weights, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError("edge weights must be finite and nonnegative")
    return arr


def _check_cycle_range(k: int, r: int) -> None:
    if not 2 <= r <= k:
        raise ValueError(f"need 2 <= r <= k, got r={r}, k={k}")


def _check_enumerable(k: int, r: int) -> None:
    _check_cycle_range(k, r)
    if k > ENUMERATION_MAX_VERTICES:
        raise ValueError(
            f"cycle enumeration is limited to k <= {ENUMERATION_MAX_VERTICES}, "
            f"got k={k}")


def enumerate_cycles(k: int, r: int) -> tuple[tuple[int, ...], ...]:
    """All simple length-r cycles of K_k, each once, in canonical form.

    Canonical form lists the smallest vertex first and orients the cycle
    so the second vertex is no larger than the last (equal only for
    r = 2, where every unordered pair is one cycle); generating only
    canonical orientations makes duplicates structurally impossible.
    """
    _check_enumerable(k, r)
    out = []
    for combo in itertools.combinations(range(k), r):
        first = combo[0]
        rest = combo[1:]
        for perm in itertools.permutations(rest):
            if perm[0] <= perm[-1]:
                out.append((first, *perm))
    return tuple(out)


def cycle_count(k: int, r: int) -> int:
    """Number of cycles produced by enumerate_cycles."""
    _check_cycle_range(k, r)
    if r == 2:
        return math.comb(k, 2)
    return math.comb(k, r) * math.factorial(r - 1) // 2


def formula_cycle_count(k: int, r: int) -> Fraction:
    """Closed-form count C(k,r)(r-1)!/2 as an exact rational.

    At r = 2 this is C(k,2)/2, half the enumeration convention; callers
    that need the closed-form chain (count ratios, incidence counts) use
    this value.
    """
    _check_cycle_range(k, r)
    return Fraction(math.comb(k, r) * math.factorial(r - 1), 2)


@lru_cache(maxsize=None)
def _cycle_edges(k: int, r: int) -> np.ndarray:
    """Read-only (N, r) table of the pair indices of each cycle of
    enumerate_cycles(k, r), in cycle order."""
    # int8 holds every pair index and intermediate for k <= 10
    verts = np.array(enumerate_cycles(k, r), dtype=np.int8)
    succ = np.roll(verts, -1, axis=-1)
    edges = pair_index(k, np.minimum(verts, succ), np.maximum(verts, succ))
    edges.flags.writeable = False
    return edges


def _gains(weights: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Gain of each row of an edge table, multiplied in cycle order from 1.0."""
    gains = np.ones(len(edges))
    for column in edges.T:
        gains *= weights[column]
    return gains


def edge_incidence_counts(k: int, r: int) -> np.ndarray:
    """Traversal count of each edge across all length-r cycles.

    Every edge is hit the same number of times: cycle_count(k,r) * r
    divided by the edge count (2-cycles contribute their edge twice).
    """
    return np.bincount(_cycle_edges(k, r).ravel(), minlength=k * (k - 1) // 2)


class MeanGainCheck(NamedTuple):
    k: int
    r: int
    lhs: float  # arithmetic mean of cycle gains
    rhs: float  # ((sum of squared weights) / edge count)^(r/2)
    holds: bool


def check_mean_gain_bound(k: int, weights, r: int) -> MeanGainCheck:
    """Mean length-r cycle gain of K_k versus the squared-weight power mean.

    weights are in lexicographic pair order.  holds is lhs <= rhs up to
    1e-12 relative slack; uniform weights give exact equality.
    """
    weights = _edge_weights(k, weights)
    gains = _gains(weights, _cycle_edges(k, r))
    lhs = float(np.cumsum(gains)[-1]) / len(gains)  # in cycle order, not pairwise
    mean_sq = float((weights * weights).sum()) / len(weights)
    rhs = mean_sq ** (r / 2.0)
    holds = lhs <= rhs + MEAN_GAIN_REL_TOL * rhs
    return MeanGainCheck(k=k, r=r, lhs=lhs, rhs=rhs, holds=holds)
