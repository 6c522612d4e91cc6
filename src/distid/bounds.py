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

from .distributions import (DistributionFamily, _bhattacharyya_block, _float_blocklength,
                            _ls_slope, _upper_blocks, make_family)
from .spec import DEFAULT_PAIRS_BUDGET, FamilySequenceSpec, GrowthRule, _halves

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


# Each grid point's terms are exponentiated and summed in nodes of at most
# this many (64 KiB), each a subtree of numpy's pairwise summation of them
# all; a pass over K grid points holds K nodes.
_SUM_NODE = 2**13

# The Gram prepass of `_pairwise_sums` works in row blocks of about this many
# (row, column, symbol) multiply-adds.
_GRAM_ENTRIES = 2**17


def pairwise_sum(family: DistributionFamily, n: int) -> tuple[float, float]:
    """(S, log S) for the family at blocklength n.

    Computed by log-sum-exp over the finite terms -2 n B(P_i, P_j) in
    triu_indices order; pairs with disjoint supports contribute exactly
    zero, and log S is -inf when every pair has disjoint support.  The
    result is bitwise that of `np.exp(terms - peak).sum()` on the vector
    of all finite terms, which is never built (`_pairwise_sums`, of
    which this is the one-point call): the memory is one kernel block,
    one node of at most 2^13 terms and the node sums, whatever A.
    """
    return _pairwise_sums(family, [(len(family), n)])[0]


def _term_scale(n: int) -> float:
    """-2 n, the factor of B in each term, after checking the blocklength."""
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    return -2.0 * _float_blocklength(n)


class _NodeStream:
    """One point's terms, shifted by its peak into nodes whose sizes come
    from numpy's own recursion over its N terms (`_node_sizes`); each full
    node is exponentiated and `np.sum`'d in place, and `result` adds the
    node sums back up that recursion."""

    __slots__ = ("scale", "peak", "count", "sizes", "node", "want", "fill", "sums")

    def __init__(self, scale: float, peak: float, count: int):
        self.scale, self.peak, self.count = scale, peak, count
        self.sizes = _node_sizes(count)
        self.node = np.empty(min(count, _SUM_NODE))
        self.want, self.fill, self.sums = next(self.sizes), 0, []

    def push(self, dists: np.ndarray) -> None:
        """Append the terms of the next finite distances, in order."""
        while dists.size:
            take = min(self.want - self.fill, dists.size)
            part = self.node[self.fill:self.fill + take]
            np.multiply(dists[:take], self.scale, out=part)
            part -= self.peak
            self.fill, dists = self.fill + take, dists[take:]
            if self.fill == self.want:
                full = self.node[:self.want]
                self.sums.append(float(np.exp(full, out=full).sum()))
                self.want, self.fill = next(self.sizes, 0), 0

    def result(self) -> tuple[float, float]:
        """(S, log S) once every term has been pushed."""
        log_s = self.peak + math.log(_node_tree_sum(iter(self.sums), self.count))
        return math.exp(log_s), log_s


def _pairwise_sums(family: DistributionFamily, points) -> list[tuple[float, float]]:
    """`pairwise_sum` of the family's first A_k members at blocklength n_k,
    bit for bit, for each (A_k, n_k) in points, from one pass over the
    distance kernel.

    Per distinct A_k, a prepass (`_finite_pairs_and_closest`) finds the
    count N of finite terms and the least distance, so each point's peak
    term is known before the first exp.  One pass over the row blocks of
    the largest A_k that has a finite term then feeds every point: a
    point reads each block's rows and columns below its A_k, whose
    finite entries above the diagonal, row by row, are its own terms in
    its own order, and streams them into its nodes (`_NodeStream`).  So
    the memory is one kernel block and, per point, one node of at most
    2^13 terms (64 KiB) and the node sums (8 bytes per 2^12 pairs or
    fewer): K nodes for K points.
    """
    scales = [_term_scale(n) for _, n in points]
    found, streams, live = {}, [], {}
    for (size, _), scale in zip(points, scales):
        if size not in found:
            found[size] = _finite_pairs_and_closest(family._head(size))
        count, closest = found[size]
        peak = scale * closest   # the largest term, since rounding is monotone
        # no stream where every pair is disjoint or every term overflows
        stream = None if peak == -math.inf else _NodeStream(scale, peak, count)
        streams.append(stream)
        if stream is not None:
            live.setdefault(size, []).append(stream)
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
                    for stream in group:
                        stream.push(dists)
    return [(0.0, -math.inf) if stream is None else stream.result() for stream in streams]


def _node_sizes(count: int):
    """The lengths, in order, of the subtrees of numpy's pairwise summation
    of count terms that hold at most _SUM_NODE terms and whose parent holds
    more."""
    if count <= _SUM_NODE:
        yield count
        return
    for part in _halves(count):
        yield from _node_sizes(part)


def _node_tree_sum(sums, count: int) -> float:
    """The node sums (an iterator in `_node_sizes(count)` order) added up
    numpy's recursion: bitwise the `np.sum` of all count terms, which is
    0.0 plus that tree, and the 0.0 changes no sum of exponentials."""
    if count <= _SUM_NODE:
        return next(sums)
    left, right = _halves(count)
    return _node_tree_sum(sums, left) + _node_tree_sum(sums, right)


def _finite_pairs_and_closest(family: DistributionFamily) -> tuple[int, float]:
    """(N, B_min): how many pairs i < j share some support, which are the
    pairs with a finite distance, and the least such distance bit for bit
    as the kernel computes it (+inf when N = 0).

    Row blocks of the Gram matrix of the members' square roots, one
    `np.einsum` each, give every coefficient BC = sum sqrt(p q) to within
    a relative (m + 2) 2^-53.  (einsum sums in numpy's own loop, so the
    pairs re-scored do not depend on numpy's BLAS or its threads; a BLAS
    product was 2 ms faster on the `sweep_growing` families, too little
    for the benchmark to resolve.)  A square root of a positive double is
    at least 2^-537, so a product of two never rounds to 0: BC is exactly
    0 for disjoint supports and positive otherwise, here and in the
    kernel.  B falls as BC rises.  The kernel's B is -log of its own BC
    below 1/2 and the Hellinger form above, which sees each pmf's
    deviation from a sum of 1 (up to 1e-12) where the Gram does not; so
    the pairs closest in B all lie within `slack` of the largest Gram
    entry, a margin many times those errors.  Pass one keeps each block's largest entry and,
    when some pmf entry is 0, counts the positive ones; pass two
    recomputes only the blocks that reach the margin and re-scores the
    pairs in it with `_bhattacharyya_block`, one call per row.
    """
    probs, roots = family._probs, family._roots
    size, m = probs.shape
    spans = []
    lo = 0
    while lo < size - 1:
        hi = min(size - 1, lo + max(1, _GRAM_ENTRIES // ((size - lo) * m)))
        spans.append((lo, hi))
        lo = hi

    index = np.arange(size)
    masked = bool(family._zero.any())
    probs_t, roots_t = probs.T.copy(), roots.T.copy()

    def gram(lo: int, hi: int) -> np.ndarray:
        """Rows lo..hi of the Gram matrix against columns lo..A, 0 where j <= i."""
        coeff = np.einsum("ik,kj->ij", roots[lo:hi], roots_t[:, lo:])
        rows = index[:hi - lo]
        coeff[:, :hi - lo][rows[:, None] >= rows] = 0.0
        return coeff

    count, tops = 0, []
    for lo, hi in spans:
        coeff = gram(lo, hi)
        if masked:   # else every pair shares support
            count += int(np.count_nonzero(coeff))
        tops.append(float(coeff.max()))
    if not masked:
        count = size * (size - 1) // 2
    if count == 0:
        return 0, math.inf
    top = max(tops)
    slack = (m + 16) * 2.0**-46 * top + (m + 1) * 2.0**-1070
    if top > 0.25:   # some pair may take the Hellinger form
        slack += 4.0 * float(np.abs(probs.sum(axis=1) - 1.0).max())
    floor = max(top - slack, math.ulp(0.0))   # and never a disjoint pair
    closest = math.inf
    for (lo, hi), block_top in zip(spans, tops):
        if block_top < floor:
            continue
        rows, cols = np.nonzero(gram(lo, hi) >= floor)
        starts = np.flatnonzero(np.diff(rows)) + 1
        for row, row_cols in zip(rows[np.r_[0, starts]], np.split(cols + lo, starts)):
            i = lo + row
            dist = _bhattacharyya_block(probs_t[:, i:i + 1], roots_t[:, i:i + 1],
                                        probs_t[:, row_cols], roots_t[:, row_cols],
                                        masked)
            closest = min(closest, float(dist.min()))
    return count, closest


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
