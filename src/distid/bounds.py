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
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .distributions import (_TREND_GRID_MIN, DistributionFamily, _check_family_spec,
                            _check_grid, _is_real, _ls_slope, _upper_blocks, make_family)

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

DEFAULT_PAIRS_BUDGET = 10_000


def pairwise_sum(family: DistributionFamily, n: int) -> tuple[float, float]:
    """(S, log S) for the family at blocklength n.

    Computed by log-sum-exp over the terms -2 n B(P_i, P_j); pairs with
    infinite distance contribute exactly zero.  log S is -inf when every
    pair has disjoint support.  Each upper-triangle row block of the
    distance kernel is scaled straight into one vector of the A(A-1)/2
    terms (in triu_indices order) and the log-sum-exp runs in place, so
    the memory is 8 bytes per pair plus one block; the finite terms are
    copied out only when some term is infinite.
    """
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    size = len(family)
    terms = np.empty(size * (size - 1) // 2)
    scale = -2.0 * n
    pos = 0
    for _, _, block in _upper_blocks(family):
        for r, row in enumerate(block):
            end = pos + row.size - r - 1
            np.multiply(scale, row[r + 1:], out=terms[pos:end])
            pos = end
    peak = float(terms.max())
    if peak == -math.inf:
        return 0.0, -math.inf
    if terms.min() == -math.inf:
        terms = terms[np.isfinite(terms)]
    terms -= peak
    log_s = peak + math.log(float(np.exp(terms, out=terms).sum()))
    return math.exp(log_s), log_s


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
        s, log_s = pairwise_sum(family, n)
        raw = _unclamped_upper(s)
        return cls(n=n, family_size=len(family), s=s, log_s=log_s,
                   lower=lower_bound(s), upper=upper_bound(s),
                   upper_clamped=raw is not None and raw > 1.0)

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


class _GrowthFields(NamedTuple):
    kind: str
    param: float


class GrowthRule(_GrowthFields):
    """How the family size scales with the blocklength.

    kind is one of "constant" (size A), "polynomial" (ceil(n^degree)) or
    "exponential" (ceil(exp(rate * n))); param is that size, degree or
    rate, and _PARAM_KEYS names it in a spec.
    """

    __slots__ = ()

    _PARAM_KEYS = {"constant": "size", "polynomial": "degree", "exponential": "rate"}

    def __new__(cls, kind: str, param: float) -> "GrowthRule":
        if not isinstance(kind, str) or kind not in cls._PARAM_KEYS:
            raise ValueError(f"unknown growth kind: {kind!r}")
        if not _is_real(param):
            raise ValueError(f"growth param must be a number, got {param!r}")
        param = float(param)
        if kind == "constant":
            if not (param.is_integer() and param >= 2):
                raise ValueError(f"constant growth needs an integer size >= 2, "
                                 f"got {param}")
        elif not (math.isfinite(param) and param > 0):
            raise ValueError(f"{kind} growth needs a positive rate, got {param}")
        return super().__new__(cls, kind, param)

    @classmethod
    def _from_spec(cls, spec: Mapping) -> "GrowthRule":
        """The rule of a spec that holds "kind" and that kind's parameter key."""
        kind = spec.get("kind")
        key = cls._PARAM_KEYS.get(kind) if isinstance(kind, str) else None
        if key is None or set(spec) != {"kind", key}:
            raise ValueError(f"growth takes a kind and that kind's parameter key "
                             f"only ({cls._PARAM_KEYS}), got {dict(spec)}")
        return cls(kind, spec[key])

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


def _instantiate_template(template: Mapping, size: int) -> DistributionFamily:
    """Build the size-A_n family for one grid point.

    Explicit templates are truncated to their first `size` members;
    parametric templates are rebuilt at the requested size.
    """
    if template["kind"] != "explicit":
        return make_family({**template, "size": size})
    return make_family({"kind": "explicit", "pmfs": list(template["pmfs"])[:size]})


class _SequenceFields(NamedTuple):
    growth: GrowthRule
    template: Mapping
    n_grid: tuple[int, ...]


class FamilySequenceSpec(_SequenceFields):
    """A growth rule, a family template (a spec without "size"), and the
    blocklengths to evaluate.

    The family size must be at least 2, and at most an explicit template's
    member count, at every grid point.  A size that overflows is far above
    2 and passes here; `size_at` raises for it when a run needs the size.
    """

    __slots__ = ()

    def __new__(cls, growth: GrowthRule, template: Mapping,
                n_grid: Sequence[int]) -> "FamilySequenceSpec":
        _check_family_spec(template, template=True)
        grid = _check_grid(n_grid, _TREND_GRID_MIN)
        members = (len(template["pmfs"]) if template["kind"] == "explicit"
                   else math.inf)
        for n in grid:
            try:
                size = growth.size_at(n)
            except ValueError:   # overflow, the only error size_at raises
                continue
            if size < 2:
                raise ValueError(f"family size at n={n} is {size}; "
                                 f"need >= 2 everywhere on the grid")
            if size > members:
                raise ValueError(f"template provides {members} members but the "
                                 f"growth rule requires {size} at n={n}")
        return super().__new__(cls, growth, template, grid)


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
    points = []
    for n, size in zip(spec.n_grid, sizes):
        family = _instantiate_template(spec.template, size)
        points.append(TrendPoint(n, size, *pairwise_sum(family, n)))

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
