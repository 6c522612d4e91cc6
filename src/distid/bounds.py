"""Closed-form error bounds driven by the pairwise Bhattacharyya sum.

The central quantity for a family of A distributions at blocklength n is

    S = sum over pairs i < j of exp(-2 n B(P_i, P_j)).

S -> 0 along a family sequence is the identifiability criterion; the
finite-n bounds derived from it are

    upper: 16 S / (1 - 4 sqrt(S))   (valid only while 4 sqrt(S) < 1)
    lower: sqrt(S) / (8 + sqrt(S))  (reported, not asserted)

`lower` is not a lower bound at finite n: on the README pair it exceeds
the exact error probability (ROADMAP item 4).

All sums of exponentials run in log domain so that families with
thousands of members and large n do not underflow.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from .distributions import (DistributionFamily, _float_blocklength, _ls_slope, _upper_blocks,
                            make_family)
from .spec import DEFAULT_PAIRS_BUDGET, FamilySequenceSpec, GrowthRule

__all__ = [
    "pairwise_sum",
    "upper_bound",
    "lower_bound",
    "BoundReport",
    "GrowthRule",
    "FamilySequenceSpec",
    "TrendPoint",
    "TrendReport",
    "identifiability_trend",
]

# Least-squares slope magnitudes below this are treated as flat when
# classifying a trend; any finite grid check is a heuristic, not a proof.
TREND_SLOPE_TOL = 1e-6


def pairwise_sum(family: DistributionFamily, n: int) -> tuple[float, float]:
    """(S, log S) for the family at blocklength n.

    A log-sum-exp over the finite terms -2 n B(P_i, P_j); pairs with
    disjoint supports contribute exactly zero, and log S is -inf when
    every pair has disjoint support.  This is the one-point call of
    `_pairwise_sums`, whose online pass never builds the vector of
    terms: the memory is one kernel block and two floats, whatever A.
    log S is within 1 ulp of max(|log S|, 1) of the exact sum of the
    rounded exponentials on every family the tests measure.
    """
    return _pairwise_sums(family, [(len(family), n)])[0]


def _term_scale(n: int) -> float:
    """-2 n, the factor of B in each term, after checking the blocklength."""
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    return -2.0 * _float_blocklength(n)


class _LogSumExp:
    """A log-sum-exp fed one array of log-domain terms at a time.

    The total is kept relative to the largest term so far, `peak`.  An
    array whose largest term passes it first raises the peak and rescales
    the total by exp(old peak - new peak), so no exp overflows and the
    terms near the peak keep their precision.  Terms of -inf add nothing.
    """

    __slots__ = ("peak", "total")

    def __init__(self):
        self.peak, self.total = -math.inf, 0.0

    def add(self, terms: np.ndarray) -> None:
        """Add exp(t) for each t of terms, which it overwrites."""
        peak = max(self.peak, float(terms.max(initial=-math.inf)))
        if peak == -math.inf:
            return
        terms -= peak
        self.total = (self.total * math.exp(self.peak - peak)
                      + float(np.exp(terms, out=terms).sum()))
        self.peak = peak

    def result(self) -> tuple[float, float]:
        """(sum, log sum); (0.0, -inf) when no finite term was added."""
        if self.peak == -math.inf:
            return 0.0, -math.inf
        log_s = self.peak + math.log(self.total)
        return math.exp(log_s), log_s


def _pairwise_sums(family: DistributionFamily, points) -> list[tuple[float, float]]:
    """`pairwise_sum` of the family's first A_k members at blocklength n_k,
    for each (A_k, n_k) in points, from one online pass over the distance
    kernel's row blocks.

    A point whose prefix has no two members sharing a symbol, or whose
    -2 n_k overflows, has no finite term and is (0.0, -inf) at once.  One
    pass over the blocks of the largest prefix left feeds the others: a
    point reads each block's finite entries above the diagonal in its
    rows and columns below A_k, which are its distances, and adds -2 n_k
    times them to its own `_LogSumExp`.  So the memory is one kernel
    block and two floats per point.  The block sums add up in block
    order, which rounds differently from one `np.sum` of all the terms,
    and a point's blocks are the largest prefix's, so its last bits can
    differ from its own `pairwise_sum`; against the exact sum of the
    rounded exponentials (math.fsum) both were within 1 ulp of
    max(|log S|, 1) on every family the tests measure, and within 4 with
    blocks of one row.
    """
    scales = [_term_scale(n) for _, n in points]
    # shared[k]: whether two of the first k + 1 members share a symbol
    shared = np.cumsum(~family._zero, axis=0).max(axis=1) >= 2
    sums = [_LogSumExp() for _ in points]
    live = {}
    for (size, _), scale, acc in zip(points, scales, sums):
        if shared[size - 1] and scale > -math.inf:
            live.setdefault(size, []).append((scale, acc))
    if live:
        head = family._head(max(live))
        masked = bool(head._zero.any())
        index = np.arange(len(head))
        for lo, hi, block in _upper_blocks(head):
            # the finite entries above the diagonal: the block's rows and
            # columns start at the same member
            keep = index[:block.shape[1]] > index[:len(block), None]
            if masked:
                keep &= block < math.inf
            for size, group in live.items():
                rows, cols = min(hi, size) - lo, size - lo
                if rows > 0:
                    dists = block[:rows, :cols][keep[:rows, :cols]]
                    # another per-pair log-domain sum would add its own
                    # terms of these pairs to an accumulator of its own here
                    for scale, acc in group:
                        acc.add(np.multiply(dists, scale))
    return [acc.result() for acc in sums]


def _unclamped_upper(s: float) -> float | None:
    """16 S / (1 - 4 sqrt(S)), or None when 4 sqrt(S) >= 1."""
    if s < 0:
        raise ValueError(f"pairwise sum must be nonnegative, got {s}")
    root = 4.0 * math.sqrt(s)
    return None if root >= 1.0 else 16.0 * s / (1.0 - root)


def upper_bound(s: float) -> float | None:
    """16 S / (1 - 4 sqrt(S)) clamped to 1, or None when 4 sqrt(S) >= 1.

    The bound only exists while the geometric series behind it converges,
    hence the applicability cutoff.
    """
    raw = _unclamped_upper(s)
    return None if raw is None else min(1.0, raw)


def lower_bound(s: float) -> float:
    """sqrt(S) / (8 + sqrt(S)); increases from 0 toward 1 with S."""
    if s < 0:
        raise ValueError(f"pairwise sum must be nonnegative, got {s}")
    root = math.sqrt(s)
    return root / (8.0 + root)


class BoundReport(NamedTuple):
    """Pairwise sum and both bounds for one (family, blocklength) point."""

    n: int
    family_size: int
    s: float
    log_s: float
    lower: float
    upper: float | None
    upper_clamped: bool

    @classmethod
    def from_family(cls, family: DistributionFamily, n: int) -> "BoundReport":
        return _bound_reports(family, (n,))[0]

    @property
    def upper_applicable(self) -> bool:
        return self.upper is not None

    def row(self) -> dict:
        """The report's CSV columns by name."""
        return {"n": self.n, "A": self.family_size, "S": self.s, "log_S": self.log_s,
                "upper": self.upper, "upper_applicable": self.upper_applicable,
                "lower": self.lower}

    def to_json_dict(self) -> dict:
        return {**self.row(), "upper_clamped": self.upper_clamped}


def _bound_reports(family: DistributionFamily, n_grid) -> list[BoundReport]:
    """The family's BoundReport at each n of n_grid, from one kernel pass."""
    size, reports = len(family), []
    for n, (s, log_s) in zip(n_grid, _pairwise_sums(family, [(size, n) for n in n_grid])):
        raw = _unclamped_upper(s)
        reports.append(BoundReport(n=n, family_size=size, s=s, log_s=log_s,
                                   lower=lower_bound(s), upper=upper_bound(s),
                                   upper_clamped=raw is not None and raw > 1.0))
    return reports


def _instantiate_template(template: Mapping, size: int) -> DistributionFamily:
    """Build the size-A_n family for one grid point.

    Explicit templates are truncated to their first `size` members;
    parametric templates are rebuilt at the requested size.
    """
    if template["kind"] != "explicit":
        return make_family({**template, "size": size})
    return make_family({"kind": "explicit", "pmfs": list(template["pmfs"])[:size]})


def _extends(family: DistributionFamily, head: DistributionFamily) -> bool:
    """Whether head's members are family's first members."""
    return len(family) >= len(head) and np.array_equal(
        family.prob_matrix()[:len(head)], head.prob_matrix())


class TrendPoint(NamedTuple):
    n: int
    family_size: int
    s: float
    log_s: float


class TrendReport(NamedTuple):
    """Empirical identifiability trend along a family sequence.

    The verdict is a heuristic read of the slope of log S over the last
    half of the grid; it is evidence about the limit, not a proof.
    """

    points: tuple[TrendPoint, ...]
    window: int
    slope: float | None
    verdict: str  # identifiable-trend | not-identifiable-trend | inconclusive

    def rows(self) -> list[dict]:
        """One CSV row per grid point, columns by name."""
        return [{"n": p.n, "A": p.family_size, "S": p.s, "log_S": p.log_s,
                 "slope": self.slope, "verdict": self.verdict} for p in self.points]

    def to_json_dict(self) -> dict:
        return {"points": [{"n": p.n, "A": p.family_size, "S": p.s,
                            "log_S": p.log_s} for p in self.points],
                "window": self.window, "slope": self.slope,
                "verdict": self.verdict}


def identifiability_trend(spec: FamilySequenceSpec,
                          pairs_budget: int = DEFAULT_PAIRS_BUDGET) -> TrendReport:
    """Evaluate log S along the grid and classify the trend.

    The slope is fit by least squares over the last max(2, ceil(|grid|/2))
    points.  Slope below -1e-6 with strictly decreasing log S reads as
    an identifiable trend; slope above -1e-6 (increasing or flat, so
    bounded below) reads as not identifiable; a falling but non-monotone
    window is inconclusive.  Families whose pairwise sum is exactly zero
    (all supports disjoint) are identifiable outright.

    The grid's families are built in grid order.  While each holds the
    last one's members first (equal pmf rows: random-simplex and explicit
    templates, constant growth), their points wait for one kernel pass
    over the largest (`_pairwise_sums`), and only it is kept; a family
    that does not, as in binary-grid templates, whose members move as
    the grid grows, starts a new pass.  So nested prefixes take one pass
    and a binary-grid sweep one per point.

    Raises when any grid point would need more than pairs_budget pair
    evaluations.
    """
    sizes = [spec.growth.size_at(n) for n in spec.n_grid]
    for n, size in zip(spec.n_grid, sizes):   # before any family is built
        pairs = size * (size - 1) // 2
        if pairs > pairs_budget:
            raise ValueError(
                f"n={n} needs {pairs} pair evaluations, over the budget "
                f"of {pairs_budget}")
    sums, chain, head = [], [], None
    for n, size in zip(spec.n_grid, sizes):
        family = _instantiate_template(spec.template, size)
        _term_scale(n)   # a bad blocklength fails here, before the next family
        if head is not None and not _extends(family, head):
            sums += _pairwise_sums(head, chain)
            chain = []
        head = family
        chain.append((size, n))
    sums += _pairwise_sums(head, chain)
    points = [TrendPoint(n, size, *sum_)
              for n, size, sum_ in zip(spec.n_grid, sizes, sums)]

    window = max(2, math.ceil(len(points) / 2))
    tail = points[-window:]

    if any(p.s == 0.0 for p in tail):
        ss = [p.s for p in tail]
        ok = all(b <= a for a, b in zip(ss, ss[1:])) and ss[-1] == 0.0
        return TrendReport(points=tuple(points), window=window, slope=None,
                           verdict="identifiable-trend" if ok else "inconclusive")

    xs = [float(p.n) for p in tail]
    ys = [p.log_s for p in tail]
    slope = _ls_slope(xs, ys)
    strictly_down = all(b < a for a, b in zip(ys, ys[1:]))
    if slope < -TREND_SLOPE_TOL:
        verdict = "identifiable-trend" if strictly_down else "inconclusive"
    else:
        # increasing, or flat and therefore bounded below
        verdict = "not-identifiable-trend"
    return TrendReport(points=tuple(points), window=window, slope=slope,
                       verdict=verdict)
