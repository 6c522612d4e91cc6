"""Closed-form error bounds driven by the pairwise Bhattacharyya sum.

The central quantity for a family of A distributions at blocklength n is

    S = sum over pairs i < j of exp(-2 n B(P_i, P_j)).

S -> 0 along a family sequence is the identifiability criterion; the
finite-n bounds derived from it are

    upper: 16 S / (1 - 4 sqrt(S))   (valid only while 4 sqrt(S) < 1)
    lower: sqrt(S) / (8 + sqrt(S))  (asymptotic; reported, not asserted)

All sums of exponentials run in log domain so that families with
thousands of members and large n do not underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import graphs
from .distributions import DistributionFamily, distance_matrix, make_family

__all__ = [
    "pairwise_sum",
    "upper_bound",
    "lower_bound",
    "cycle_sum_bound",
    "cycle_count_ratio",
    "count_ratio_within_power_bound",
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

DEFAULT_PAIRS_BUDGET = 10_000


def pairwise_sum(family: DistributionFamily, n: int) -> tuple[float, float]:
    """(S, log S) for the family at blocklength n.

    Computed by log-sum-exp over the terms -2 n B(P_i, P_j); pairs with
    infinite distance contribute exactly zero.  log S is -inf when every
    pair has disjoint support.
    """
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    dist = distance_matrix(family)
    iu = np.triu_indices(len(family), k=1)
    terms = -2.0 * n * dist[iu]
    finite = terms[np.isfinite(terms)]
    if finite.size == 0:
        return 0.0, -math.inf
    peak = float(finite.max())
    log_s = peak + math.log(float(np.exp(finite - peak).sum()))
    return math.exp(log_s), log_s


def upper_bound(s: float) -> float | None:
    """16 S / (1 - 4 sqrt(S)) clamped to 1, or None when 4 sqrt(S) >= 1.

    The bound only exists while the geometric series behind it converges,
    hence the applicability cutoff.
    """
    if s < 0:
        raise ValueError(f"pairwise sum must be nonnegative, got {s}")
    root = 4.0 * math.sqrt(s)
    if root >= 1.0:
        return None
    return min(1.0, 16.0 * s / (1.0 - root))


def lower_bound(s: float) -> float:
    """sqrt(S) / (8 + sqrt(S)); increases from 0 toward 1 with S."""
    if s < 0:
        raise ValueError(f"pairwise sum must be nonnegative, got {s}")
    root = math.sqrt(s)
    return root / (8.0 + root)


def cycle_sum_bound(family: DistributionFamily, n: int, r_max: int) -> float:
    """Union bound over single-cycle error events up to length r_max.

    Edge (i, j) of the complete graph carries weight exp(-n B(P_i, P_j));
    the bound sums the gains of every simple cycle of length 2..r_max.
    With r_max = 2 the terms are exactly the pairwise-sum terms (each
    2-cycle squares its edge weight).
    """
    size = len(family)
    if size > 9:
        raise ValueError(f"cycle sums are limited to families of size <= 9, got {size}")
    if not 2 <= r_max <= size:
        raise ValueError(f"need 2 <= r_max <= family size, got r_max={r_max}")
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    dist = distance_matrix(family)
    with np.errstate(over="ignore"):
        w = np.exp(-float(n) * dist)
    iu = np.triu_indices(size, k=1)
    graph = graphs.WeightedCompleteGraph(size, w[iu])
    total = 0.0
    for r in range(2, r_max + 1):
        for cycle in graphs.enumerate_cycles(size, r):
            total += graphs.cycle_gain(graph, cycle)
    return total


def cycle_count_ratio(k: int, r: int) -> float:
    """Closed-form cycle count over (edge count)^(r/2).

    Uses C(k,r)(r-1)!/2 for the count; the ratio never exceeds 4^r.
    """
    count = graphs.formula_cycle_count(k, r)  # validates 2 <= r <= k
    n_edges = math.comb(k, 2)
    return float(count) / n_edges ** (r / 2.0)


def count_ratio_within_power_bound(k: int, r: int) -> bool:
    """Exact-arithmetic check that cycle_count_ratio(k, r) <= 4^r.

    Squaring both sides keeps everything rational: count^2 <= 16^r * n^r.
    """
    count = graphs.formula_cycle_count(k, r)
    n_edges = math.comb(k, 2)
    return count * count <= 16**r * n_edges**r


def _fmt(x: float) -> str:
    return "%.17g" % x


@dataclass(frozen=True)
class BoundReport:
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
        s, log_s = pairwise_sum(family, n)
        up = upper_bound(s)
        clamped = False
        if up is not None:
            raw = 16.0 * s / (1.0 - 4.0 * math.sqrt(s))
            clamped = raw > 1.0
        return cls(n=n, family_size=len(family), s=s, log_s=log_s,
                   lower=lower_bound(s), upper=up, upper_clamped=clamped)

    @property
    def upper_applicable(self) -> bool:
        return self.upper is not None

    @staticmethod
    def csv_header() -> list[str]:
        return ["n", "A", "S", "log_S", "upper", "upper_applicable", "lower"]

    def csv_row(self) -> list[str]:
        return [str(self.n), str(self.family_size), _fmt(self.s), _fmt(self.log_s),
                "nan" if self.upper is None else _fmt(self.upper),
                "true" if self.upper_applicable else "false", _fmt(self.lower)]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "A": self.family_size, "S": self.s,
                "log_S": self.log_s, "upper": self.upper,
                "upper_applicable": self.upper_applicable,
                "upper_clamped": self.upper_clamped, "lower": self.lower}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "BoundReport":
        return cls(n=int(d["n"]), family_size=int(d["A"]), s=float(d["S"]),
                   log_s=float(d["log_S"]), lower=float(d["lower"]),
                   upper=None if d["upper"] is None else float(d["upper"]),
                   upper_clamped=bool(d["upper_clamped"]))


@dataclass(frozen=True)
class GrowthRule:
    """How the family size scales with the blocklength.

    kind is one of "constant" (size A), "polynomial" (ceil(n^degree)) or
    "exponential" (ceil(exp(rate * n))).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "constant":
            if self.param != int(self.param) or self.param < 2:
                raise ValueError(f"constant growth needs an integer size >= 2, "
                                 f"got {self.param}")
        elif self.kind in ("polynomial", "exponential"):
            if not (math.isfinite(self.param) and self.param > 0):
                raise ValueError(f"{self.kind} growth needs a positive rate, "
                                 f"got {self.param}")
        else:
            raise ValueError(f"unknown growth kind: {self.kind!r}")

    def size_at(self, n: int) -> int:
        if self.kind == "constant":
            return int(self.param)
        try:
            if self.kind == "polynomial":
                return math.ceil(n ** self.param)
            return math.ceil(math.exp(self.param * n))
        except OverflowError:
            raise ValueError(f"{self.kind} growth overflows the family size "
                             f"at n={n}") from None


def _instantiate_template(template, size: int) -> DistributionFamily:
    """Build the size-A_n family for one grid point.

    Explicit templates are truncated to their first `size` members;
    parametric templates are rebuilt at the requested size.
    """
    if isinstance(template, Mapping):
        spec = dict(template)
        kind = spec.get("kind")
        if kind == "explicit":
            pmfs = spec.get("pmfs")
            if pmfs is None:
                raise ValueError("explicit template needs a 'pmfs' list")
            if size > len(pmfs):
                raise ValueError(
                    f"template provides {len(pmfs)} members but the growth "
                    f"rule requires {size}")
            return make_family({"kind": "explicit", "pmfs": list(pmfs)[:size]})
        spec["size"] = size
        return make_family(spec)
    if callable(template):
        return make_family(template(size))
    raise ValueError("template must be a family-spec mapping or a callable")


@dataclass(frozen=True)
class FamilySequenceSpec:
    """A growth rule, a family template, and the blocklengths to evaluate."""

    growth: GrowthRule
    template: Mapping | Callable[[int], object]
    n_grid: tuple[int, ...]

    def __post_init__(self):
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) < 2:
            raise ValueError("n_grid needs at least 2 points")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError(f"n_grid must be strictly increasing, got {grid}")
        if grid[0] < 1:
            raise ValueError("blocklengths must be >= 1")
        object.__setattr__(self, "n_grid", grid)
        for n in grid:
            if self.growth.size_at(n) < 2:
                raise ValueError(
                    f"family size at n={n} is {self.growth.size_at(n)}; "
                    f"need >= 2 everywhere on the grid")


@dataclass(frozen=True)
class TrendPoint:
    n: int
    family_size: int
    s: float
    log_s: float


@dataclass(frozen=True)
class TrendReport:
    """Empirical identifiability trend along a family sequence.

    The verdict is a heuristic read of the slope of log S over the last
    half of the grid; it is evidence about the limit, not a proof.
    """

    points: tuple[TrendPoint, ...]
    window: int
    slope: float | None
    verdict: str  # identifiable-trend | not-identifiable-trend | inconclusive

    @staticmethod
    def csv_header() -> list[str]:
        return ["n", "A", "S", "log_S", "slope", "verdict"]

    def csv_rows(self) -> list[list[str]]:
        slope = "nan" if self.slope is None else _fmt(self.slope)
        return [[str(p.n), str(p.family_size), _fmt(p.s), _fmt(p.log_s),
                 slope, self.verdict] for p in self.points]

    def to_json_dict(self) -> dict:
        return {"points": [{"n": p.n, "A": p.family_size, "S": p.s,
                            "log_S": p.log_s} for p in self.points],
                "window": self.window, "slope": self.slope,
                "verdict": self.verdict}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "TrendReport":
        pts = tuple(TrendPoint(n=int(p["n"]), family_size=int(p["A"]),
                               s=float(p["S"]), log_s=float(p["log_S"]))
                    for p in d["points"])
        slope = d["slope"]
        return cls(points=pts, window=int(d["window"]),
                   slope=None if slope is None else float(slope),
                   verdict=str(d["verdict"]))


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def identifiability_trend(spec: FamilySequenceSpec,
                          pairs_budget: int = DEFAULT_PAIRS_BUDGET) -> TrendReport:
    """Evaluate log S along the grid and classify the trend.

    The slope is fit by least squares over the last ceil(|grid|/2)
    points.  Slope below -1e-6 with strictly decreasing log S reads as
    an identifiable trend; slope above -1e-6 (increasing or flat, so
    bounded below) reads as not identifiable; a falling but non-monotone
    window is inconclusive.  Families whose pairwise sum is exactly zero
    (all supports disjoint) are identifiable outright.

    Raises when any grid point would need more than pairs_budget pair
    evaluations.
    """
    points = []
    for n in spec.n_grid:
        size = spec.growth.size_at(n)
        pairs = size * (size - 1) // 2
        if pairs > pairs_budget:
            raise ValueError(
                f"n={n} needs {pairs} pair evaluations, over the budget "
                f"of {pairs_budget}")
        family = _instantiate_template(spec.template, size)
        s, log_s = pairwise_sum(family, n)
        points.append(TrendPoint(n=n, family_size=size, s=s, log_s=log_s))

    window = math.ceil(len(points) / 2)
    tail = points[-window:]

    if all(p.s == 0.0 for p in tail):
        return TrendReport(points=tuple(points), window=window, slope=None,
                           verdict="identifiable-trend")
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
