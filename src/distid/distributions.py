"""Finite-alphabet distributions, Bhattacharyya geometry, and seeded streams.

Symbols are dense integer indices 0..m-1; there is no named-alphabet
mapping.  All values are immutable after construction and safe to share
across threads; every random draw comes from a counter-based stream
that is a pure function of (seed, stream index).  The least-squares
slope that `bounds` and `exact` share lives here too; the config-level
checks of family specs, pmf rows, seeds and grids are `spec`'s.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

from .spec import (_U64_MAX, _check_family_spec, _check_members, _check_pmf, _check_seed,
                   _halves)

__all__ = [
    "FinitePmf",
    "DistributionFamily",
    "bhattacharyya",
    "distance_matrix",
    "make_family",
    "philox_stream",
]

# The sup-norm distinctness tolerance for family members.  Exact
# distinctness is not testable in floating point, so members closer than
# DISTINCT_TOL are rejected as duplicates.
DISTINCT_TOL = 1e-9

# The largest count numpy's samplers take: they read counts as C longs.
_SAMPLE_MAX = 2**63 - 1


def philox_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent counter-based generator for (seed, stream).

    Distinct stream indices under the same seed give statistically
    independent streams, so per-trial randomness can be derived without
    any sequential state (this is what makes parallel Monte Carlo
    reproducible for any worker count).
    """
    _check_seed(seed)
    if not 0 <= stream <= _U64_MAX:
        raise ValueError(f"stream index out of range: {stream}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_sample_count(name: str, value: int) -> None:
    """Raise ValueError, naming the argument, for a count above _SAMPLE_MAX."""
    if value > _SAMPLE_MAX:
        raise ValueError(f"{name} = {value} is above 2^63 - 1 = {_SAMPLE_MAX}, "
                         f"the largest count numpy's samplers take")


def _float_blocklength(n: int) -> float:
    """float(n), or ValueError naming the blocklength when it is too large
    for a float (float's own message names neither)."""
    try:
        return float(n)
    except OverflowError:
        raise ValueError(f"blocklength n = {n} is too large for a float") from None


class FinitePmf:
    """A probability mass function on the alphabet {0, ..., m-1}, m >= 2.

    Entries are nonnegative and sum to 1 within 1e-12, checked by
    `spec._check_pmf`, the rule a config's explicit rows pass, on numpy's
    answers: no list of the entries is built.  The backing array is
    frozen, so instances can be shared freely.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Iterable[float]):
        arr = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs,
                         dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        with np.errstate(all="ignore"):   # a total that overflows is reported as inf
            _check_pmf(arr.size, bool(np.isfinite(arr).all()),
                       float(arr.min()) if arr.size else 0.0, float(arr.sum()))
        arr = arr + 0.0  # a copy, with -0.0 turned into 0.0 so equal pmfs hash equal
        arr.flags.writeable = False
        self._probs = arr

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def alphabet_size(self) -> int:
        return self._probs.size

    def __len__(self) -> int:
        return self._probs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePmf):
            return NotImplemented
        return np.array_equal(self._probs, other._probs)

    def __hash__(self) -> int:
        return hash(self._probs.tobytes())

    def __repr__(self) -> str:
        return f"FinitePmf({self._probs.tolist()})"


def _wrap(row: np.ndarray) -> FinitePmf:
    """A FinitePmf on a row that is already valid, read-only and free of -0.0."""
    pmf = FinitePmf.__new__(FinitePmf)
    pmf._probs = row
    return pmf


class DistributionFamily:
    """An ordered family of pairwise-distinct pmfs on a shared alphabet.

    The family owns one read-only (A, m) array of its pmfs, validated
    once, with its square roots, log-probabilities (0 where a probability
    is 0) and zero mask; `family[i]` wraps row i without checking it
    (a slice gives a tuple of such rows).
    Distinctness means a sup-norm gap above 1e-9 for every pair, which is
    equivalent (up to tolerance) to a strictly positive Bhattacharyya
    distance.  The check sorts the members by one coordinate and compares
    only members that are that close in it, so it costs O(A log A) plus
    the near pairs rather than O(A^2 m); when pairs are too close, the
    error names the lexicographically smallest one.
    """

    __slots__ = ("_probs", "_roots", "_logp", "_zero")

    def __init__(self, members: Iterable[FinitePmf]):
        mem = tuple(members)
        if not all(isinstance(p, FinitePmf) for p in mem):
            raise ValueError("family members must be FinitePmf instances")
        _check_members(mem)
        self._own(np.stack([p.probs for p in mem]))

    def _own(self, probs: np.ndarray) -> None:
        """Check distinctness of a fresh array of valid pmf rows and keep it."""
        close = _first_close_pair(probs)
        if close is not None:
            i, j = close
            gap = float(np.abs(probs[j] - probs[i]).max())
            raise ValueError(
                f"members {i} and {j} are not distinct "
                f"(sup-norm gap {gap!r} <= {DISTINCT_TOL})")
        self._probs, self._roots, self._zero = probs, np.sqrt(probs), probs <= 0.0
        self._logp = np.where(self._zero, 0.0, np.log(np.where(self._zero, 1.0, probs)))
        for arr in (probs, self._roots, self._zero, self._logp):
            arr.flags.writeable = False

    @property
    def alphabet_size(self) -> int:
        return self._probs.shape[1]

    def prob_matrix(self) -> np.ndarray:
        """The family's read-only (size, alphabet_size) array of pmfs."""
        return self._probs

    def __len__(self) -> int:
        return len(self._probs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(_wrap, self._probs[i]))
        return _wrap(self._probs[operator.index(i)])

    def __iter__(self):
        return map(_wrap, self._probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistributionFamily):
            return NotImplemented
        return np.array_equal(self._probs, other._probs)

    def __repr__(self) -> str:
        return f"DistributionFamily(size={len(self)}, m={self.alphabet_size})"

    def _head(self, size: int) -> "DistributionFamily":
        """The first size members, as a family on views of this one's arrays."""
        head = DistributionFamily.__new__(DistributionFamily)
        head._probs, head._roots, head._logp, head._zero = (
            arr[:size] for arr in (self._probs, self._roots, self._logp, self._zero))
        return head


def _generated_family(probs: np.ndarray) -> DistributionFamily:
    """A family on rows that are valid pmfs, by construction or checked."""
    family = DistributionFamily.__new__(DistributionFamily)
    family._own(probs + 0.0)   # a copy, with -0.0 turned into 0.0 as in FinitePmf
    return family


def _first_close_pair(probs: np.ndarray) -> tuple[int, int] | None:
    """Smallest (i, j), i < j, whose rows have sup-norm gap <= DISTINCT_TOL.

    A pair that close is that close in every coordinate, so the rows are
    sorted by the coordinate with the widest range and only rows within
    2 * DISTINCT_TOL of each other in it are compared (the margin absorbs
    the rounding of key + tol).  Pass d compares each sorted row with the
    row d places later, for the rows whose window reaches that far, so
    the cost is O(A log A) plus the candidate pairs.  Rows that share the
    sort key all become candidates, which is at worst A - 1 vectorised
    passes over every pair.
    """
    size = len(probs)
    col = probs[:, int(np.ptp(probs, axis=0).argmax())]
    order = np.argsort(col, kind="stable")
    rows, keys = probs[order], col[order]
    reach = (np.searchsorted(keys, keys + 2 * DISTINCT_TOL, side="right")
             - np.arange(1, size + 1))
    active = np.flatnonzero(reach > 0)
    best = None
    d = 1
    while active.size:
        close = active[np.abs(rows[active + d] - rows[active]).max(axis=1)
                       <= DISTINCT_TOL]
        if close.size:
            a, b = order[close], order[close + d]
            code = int((np.minimum(a, b) * size + np.maximum(a, b)).min())
            best = code if best is None else min(best, code)
        d += 1
        active = active[reach[active] >= d]
    return None if best is None else divmod(best, size)


# _upper_blocks works in row blocks of about this many (row, column, symbol)
# entries, so each float64 temporary stays near 256 KiB; the plane sums add
# in place and need no memory of their own.
_BLOCK_ENTRIES = 2**15


def _plane_sum(planes: np.ndarray) -> np.ndarray:
    """planes.sum(axis=0), added in place into planes[0] and returned.

    The order is numpy's pairwise summation of a contiguous axis, so the
    result is bitwise `.sum(axis=-1)` of the same values laid out
    symbol-last: left to right below 8 terms, eight running sums added as
    a fixed tree up to 128, and `_halves` summed recursively above 128, as
    `spec._row_sum` adds one row.  Each step adds whole planes.
    """
    count = len(planes)
    if count > 128:
        half, _ = _halves(count)
        _plane_sum(planes[:half])
        planes[0] += _plane_sum(planes[half:])
        return planes[0]
    rest = 1
    if count >= 8:
        acc, rest = planes[:8], count - count % 8
        for i in range(8, rest, 8):
            acc += planes[i:i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        acc[0] += acc[4]
    for plane in planes[rest:]:
        planes[0] += plane
    return planes[0]


def _bhattacharyya_block(probs_i: np.ndarray, roots_i: np.ndarray,
                         probs_j: np.ndarray, roots_j: np.ndarray,
                         masked: bool) -> np.ndarray:
    """B(p, q) for every column p of probs_i and q of probs_j, shape (r, c).

    The arguments are column-major, (m, r) and (m, c), and roots_* are the
    elementwise square roots of probs_*.  Each symbol's terms form one
    (r, c) plane of an (m, r, c) array, and `_plane_sum` adds the planes
    in numpy's pairwise order.  Where the coefficient BC = sum sqrt(p q)
    is below 1/2 the distance is -log BC, taken on those pairs alone, which
    keeps its relative accuracy as BC -> 0 (+inf exactly when supports are disjoint).
    Elsewhere it is the Hellinger form -log1p(-h) with
    h = 1/2 ||sqrt p - sqrt q||^2 and sqrt p - sqrt q taken as
    (q - p) / (sqrt p + sqrt q), so close pmfs keep full relative
    accuracy instead of cancelling to 0.  masked must be true when some
    entry is zero: a symbol that both pmfs miss contributes 0 instead of
    0/0.
    """
    p, root_p = probs_i[:, :, None], roots_i[:, :, None]
    q, root_q = probs_j[:, None, :], roots_j[:, None, :]
    diff = q - p
    denom = root_q + root_p
    np.divide(diff, denom, out=diff, where=(denom > 0) if masked else True)
    diff *= diff
    half_sq = 0.5 * _plane_sum(diff)
    coeff = _plane_sum(np.multiply(root_q, root_p, out=denom))
    far = coeff < 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        dist = -np.log1p(-half_sq)
        dist[far] = -np.log(coeff[far])
    return dist


def bhattacharyya(p: FinitePmf, q: FinitePmf) -> float:
    """Bhattacharyya distance -log sum_x sqrt(p(x) q(x)).

    Symmetric and nonnegative; +inf exactly when the supports are
    disjoint.  Same kernel as `distance_matrix`, on a 1 x 1 block.
    """
    if p.alphabet_size != q.alphabet_size:
        raise ValueError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}")
    pp, qq = p.probs[:, None], q.probs[:, None]
    return float(_bhattacharyya_block(pp, np.sqrt(pp), qq, np.sqrt(qq), True)[0, 0])


def _upper_blocks(family: DistributionFamily):
    """(lo, hi, block) over the upper triangle of the distance matrix, where
    block holds rows lo..hi against columns lo..A and hi - lo is chosen so
    it has about 2^15 (row, column, symbol) entries.  The kernel reads
    column-major copies of the family's arrays; the masked divide runs
    only when some member has a zero."""
    probs, roots = family._probs.T.copy(), family._roots.T.copy()
    m, size = probs.shape
    masked = bool(family._zero.any())
    lo = 0
    while lo < size:
        hi = min(size, lo + max(1, _BLOCK_ENTRIES // ((size - lo) * m)))
        yield lo, hi, _bhattacharyya_block(probs[:, lo:hi], roots[:, lo:hi],
                                           probs[:, lo:], roots[:, lo:], masked)
        lo = hi


def distance_matrix(family: DistributionFamily) -> np.ndarray:
    """All pairwise Bhattacharyya distances, shape (A, A); +inf off-support.

    Each upper-triangle row block is mirrored into the lower triangle, so
    no other temporary is larger than a block, and the result is exactly
    symmetric (the kernel is)."""
    size = len(family)
    dist = np.empty((size, size))
    for lo, hi, block in _upper_blocks(family):
        dist[lo:, lo:hi] = block.T
        dist[lo:hi, lo:] = block
    return dist


def _binary_grid(size: int, theta_min: float, theta_max: float) -> np.ndarray:
    thetas = np.linspace(theta_min, theta_max, size)
    return np.stack([thetas, 1.0 - thetas], axis=1)


def _random_simplex(size: int, alphabet_size: int, seed: int) -> np.ndarray:
    rng = philox_stream(seed)
    # exponential weights normalize to a uniform draw from the simplex
    w = rng.exponential(1.0, size=(size, alphabet_size))
    return w / w.sum(axis=1, keepdims=True)


def make_family(spec) -> DistributionFamily:
    """Build a DistributionFamily from a spec.

    Accepted forms:
      - a sequence of pmf row vectors (explicit members), or
      - a mapping with a "kind" key and exactly that kind's keys:
          kind="explicit":       pmfs=<list of rows>
          kind="binary-grid":    size, theta_min, theta_max
          kind="random-simplex": size, alphabet, seed

    The result is deterministic given the spec (random-simplex uses its
    own seed field).
    """
    if isinstance(spec, dict):
        _check_family_spec(spec)
        if spec["kind"] == "explicit":   # rows already checked, all but distinctness
            return _generated_family(np.array(spec["pmfs"], dtype=np.float64))
        if spec["kind"] == "binary-grid":
            return _generated_family(_binary_grid(
                int(spec["size"]), float(spec["theta_min"]), float(spec["theta_max"])))
        return _generated_family(_random_simplex(
            int(spec["size"]), int(spec["alphabet"]), int(spec["seed"])))
    if isinstance(spec, Sequence):
        return DistributionFamily([
            row if isinstance(row, FinitePmf) else FinitePmf(row) for row in spec])
    raise ValueError(f"cannot build a family from {type(spec).__name__}")


def _ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())
