"""Config rules in pure Python: family specs, pmf rows, seeds, grids, growth rules.

Nothing here imports numpy, so the CLI checks every config before loading
it.  `FinitePmf` checks its rows by the same rule, `_check_pmf`, on
numpy's size, finiteness, minimum and sum; a config row gets them in pure
Python (`_check_pmf_row`), its sum in numpy's pairwise order (`_row_sum`),
so both reach one verdict.  `bounds` re-exports the growth names.
"""

from __future__ import annotations

import math
import sys
from functools import reduce
from numbers import Integral, Real
from operator import add
from typing import Mapping, NamedTuple, Sequence

__all__ = ["DEFAULT_PAIRS_BUDGET", "FamilySequenceSpec", "GrowthRule"]

_U64_MAX = 2**64 - 1

DEFAULT_PAIRS_BUDGET = 10_000

# Sum-to-one tolerance for pmfs.
NORMALIZATION_TOL = 1e-12

# The keys each kind of family spec takes besides "kind"; all are required.
_FAMILY_KIND_KEYS = {
    "explicit": {"pmfs"},
    "binary-grid": {"size", "theta_min", "theta_max"},
    "random-simplex": {"size", "alphabet", "seed"},
}

# Fewest blocklengths in the grid of a trend, which fits a slope, and of a
# pairwise exponent fit (`exact.pairwise_error_exponent`).
_TREND_GRID_MIN = 2
_FIT_GRID_MIN = 3

ENUMERATION_MAX_VERTICES = 10


def _check_seed(seed: int) -> int:
    if not isinstance(seed, Integral) or isinstance(seed, bool):   # np.integer too
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return int(seed)


def _is_real(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _halves(count: int) -> tuple[int, int]:
    """How numpy's pairwise summation splits more than 128 terms: at half
    the count rounded down to a multiple of 8, adding the halves' sums."""
    half = count // 2 - count // 2 % 8
    return half, count - half


def _row_sum(row: Sequence[float]) -> float:
    """`np.sum` of a float64 row, bit for bit: left to right below 8 terms,
    eight running sums added as a fixed tree up to 128, and `_halves`
    above.  Starting each running sum at 0.0 can only turn a zero total's
    sign to +, as numpy's own 0.0 + the tree does."""
    count = len(row)
    if count > 128:
        left, _ = _halves(count)
        return _row_sum(row[:left]) + _row_sum(row[left:])
    body = count - count % 8
    r = [reduce(add, row[lane:body:8], 0.0) for lane in range(8)]
    return reduce(add, row[body:],
                  ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _check_pmf(size: int, finite: bool, low: float, total: float) -> None:
    """The pmf rule, on a row's entry count, whether every entry is finite,
    its least entry and its sum: 2 or more entries, all finite and
    nonnegative, summing to 1 within NORMALIZATION_TOL.  `FinitePmf`
    passes numpy's answers, and `_check_pmf_row` pure Python's."""
    if size < 2:
        raise ValueError(f"alphabet size must be >= 2, got {size}")
    if not finite:
        raise ValueError("probs must be finite")
    if low < 0:
        raise ValueError("probs must be nonnegative")
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"probs must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")


def _check_pmf_row(values: Sequence[float]) -> None:
    """Check that a config's row of floats is a pmf, summed by `_row_sum`."""
    _check_pmf(len(values), all(map(math.isfinite, values)), min(values, default=0.0),
               _row_sum(values))


def _check_members(members: Sequence, count: bool = True) -> None:
    """Check that pmf members (rows or FinitePmfs) share one alphabet size
    and (if count) number 2 or more."""
    if count and len(members) < 2:
        raise ValueError(f"family must have at least 2 members, got {len(members)}")
    if len(set(map(len, members))) > 1:
        raise ValueError("family members must share one alphabet size")


def _check_family_spec(spec: Mapping, template: bool = False) -> None:
    """Check a family spec's kind, exact key set, value types and parameter
    ranges.  A template (a sweep's family) has every key but "size".  Explicit
    pmf rows go through `_check_pmf_row` and `_check_members` (a template's
    row count is the growth rule's); only distinctness is left to a run."""
    kind = spec.get("kind") if isinstance(spec, Mapping) else None
    if not isinstance(kind, str) or kind not in _FAMILY_KIND_KEYS:
        raise ValueError(f"family spec kind must be one of {sorted(_FAMILY_KIND_KEYS)}, "
                         f"got {kind!r}")
    keys = _FAMILY_KIND_KEYS[kind] - ({"size"} if template else set())
    extra, missing = set(spec) - keys - {"kind"}, keys - set(spec)
    if extra:
        raise ValueError(f"unknown keys for a {kind} family "
                         f"{'template' if template else 'spec'}: {sorted(extra)}")
    if missing:
        raise ValueError(f"{kind} family spec missing keys: {sorted(missing)}")
    if kind == "explicit":
        numpy = sys.modules.get("numpy")   # an ndarray exists only once numpy has loaded
        pmfs, rows = spec["pmfs"], (list, tuple) + ((numpy.ndarray,) if numpy else ())
        if not isinstance(pmfs, rows) or not all(
                isinstance(row, rows) and all(map(_is_real, row)) for row in pmfs):
            raise ValueError("family spec key 'pmfs' must be a list of lists of numbers, "
                             f"got {pmfs!r}")
        members = []
        for index, row in enumerate(pmfs):
            try:
                members.append(list(map(float, row)))
            except OverflowError:   # float's message names neither the key nor the row
                raise ValueError(f"family.pmfs row {index} has an entry too large "
                                 "for a float") from None
            _check_pmf_row(members[-1])
        _check_members(members, count=not template)
    for key in [key for key in ("size", "alphabet") if key in keys]:
        # int() would truncate 4.7 to 4 without a word
        value = spec[key]
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 2:
            raise ValueError(
                f"family spec key {key!r} must be an integer >= 2, got {value!r}")
    if "seed" in keys:
        _check_seed(spec["seed"])
    if kind == "binary-grid":
        lo, hi = spec["theta_min"], spec["theta_max"]
        if not (_is_real(lo) and _is_real(hi) and 0.0 <= lo < hi <= 1.0):
            raise ValueError("binary-grid needs numbers 0 <= theta_min < theta_max <= 1, "
                             f"got theta_min={lo!r}, theta_max={hi!r}")


def _check_grid(n_grid: Sequence[int], min_points: int) -> tuple[int, ...]:
    """n_grid as a tuple of ints, after checking that it holds at least
    min_points strictly increasing positive integers."""
    grid = tuple(n_grid)
    if not all(isinstance(n, Integral) and not isinstance(n, bool) for n in grid):
        raise ValueError(f"n_grid must be a list of integers, got {n_grid!r}")
    if len(grid) < min_points:
        raise ValueError(f"n_grid needs at least {min_points} points, got {len(grid)}")
    if grid[0] < 1 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"n_grid must be strictly increasing positive integers, got {list(grid)}")
    return tuple(map(int, grid))


def _check_cycle_range(k: int, r: int) -> None:
    if not 2 <= r <= k:
        raise ValueError(f"need 2 <= r <= k, got r={r}, k={k}")


def _check_enumerable(k: int, r: int) -> None:
    _check_cycle_range(k, r)
    if k > ENUMERATION_MAX_VERTICES:
        raise ValueError(
            f"cycle enumeration is limited to k <= {ENUMERATION_MAX_VERTICES}, "
            f"got k={k}")


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
