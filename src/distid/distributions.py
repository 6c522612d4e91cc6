"""Finite-alphabet distributions, Bhattacharyya geometry, and seeded streams.

Symbols are dense integer indices 0..m-1; there is no named-alphabet
mapping.  All values are immutable after construction and safe to share
across threads; every random draw comes from a counter-based stream
that is a pure function of (seed, stream index).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FinitePmf",
    "DistributionFamily",
    "bhattacharyya",
    "tilted_midpoint",
    "make_family",
    "philox_stream",
]

# Sum-to-one tolerance for pmfs and the sup-norm distinctness tolerance for
# family members.  Exact distinctness is not testable in floating point, so
# members closer than DISTINCT_TOL are rejected as duplicates.
NORMALIZATION_TOL = 1e-12
DISTINCT_TOL = 1e-9

_U64_MAX = 2**64 - 1

# The keys each kind of family spec takes besides "kind"; all are required.
_FAMILY_KIND_KEYS = {
    "explicit": {"pmfs"},
    "binary-grid": {"size", "theta_min", "theta_max"},
    "random-simplex": {"size", "alphabet", "seed"},
}


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return int(seed)


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


class FinitePmf:
    """A probability mass function on the alphabet {0, ..., m-1}, m >= 2.

    Entries are nonnegative and sum to 1 within 1e-12.  The backing array
    is frozen, so instances can be shared freely.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs: Iterable[float]):
        arr = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs,
                         dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        if arr.size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {arr.size}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("probs must be finite")
        if np.any(arr < 0):
            raise ValueError("probs must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probs must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
        arr = arr.copy()
        arr.flags.writeable = False
        self._probs = arr

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def alphabet_size(self) -> int:
        return self._probs.size

    def support(self) -> np.ndarray:
        """Indices of symbols with strictly positive probability."""
        return np.flatnonzero(self._probs > 0)

    def __len__(self) -> int:
        return self._probs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePmf):
            return NotImplemented
        return self._probs.shape == other._probs.shape and bool(
            np.all(self._probs == other._probs))

    def __hash__(self) -> int:
        return hash(self._probs.tobytes())

    def __repr__(self) -> str:
        return f"FinitePmf({self._probs.tolist()})"


class DistributionFamily:
    """An ordered family of pairwise-distinct pmfs on a shared alphabet.

    Distinctness means a sup-norm gap above 1e-9 for every pair, which is
    equivalent (up to tolerance) to a strictly positive Bhattacharyya
    distance.
    """

    __slots__ = ("_members",)

    def __init__(self, members: Iterable[FinitePmf]):
        mem = tuple(members)
        if len(mem) < 2:
            raise ValueError(f"family must have at least 2 members, got {len(mem)}")
        for p in mem:
            if not isinstance(p, FinitePmf):
                raise ValueError("family members must be FinitePmf instances")
        m = mem[0].alphabet_size
        for p in mem[1:]:
            if p.alphabet_size != m:
                raise ValueError("family members must share one alphabet size")
        probs = np.stack([p.probs for p in mem])
        for i in range(len(mem) - 1):
            gaps = np.abs(probs[i + 1:] - probs[i]).max(axis=1)
            close = np.flatnonzero(gaps <= DISTINCT_TOL)
            if close.size:
                j = i + 1 + int(close[0])
                raise ValueError(
                    f"members {i} and {j} are not distinct "
                    f"(sup-norm gap {float(gaps[close[0]])!r} <= {DISTINCT_TOL})")
        self._members = mem

    @property
    def members(self) -> tuple[FinitePmf, ...]:
        return self._members

    @property
    def alphabet_size(self) -> int:
        return self._members[0].alphabet_size

    def prob_matrix(self) -> np.ndarray:
        """Member pmfs stacked into a (size, alphabet_size) array."""
        return np.stack([p.probs for p in self._members])

    def __len__(self) -> int:
        return len(self._members)

    def __getitem__(self, i: int) -> FinitePmf:
        return self._members[i]

    def __iter__(self):
        return iter(self._members)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DistributionFamily):
            return NotImplemented
        return self._members == other._members

    def __repr__(self) -> str:
        return f"DistributionFamily(size={len(self._members)}, m={self.alphabet_size})"


def _bhattacharyya_row(p: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """B(p, q) for every row q of probs.

    Where the coefficient BC = sum sqrt(p q) is below 1/2 the distance is
    -log BC, which keeps its relative accuracy as BC -> 0 (+inf exactly
    when the supports are disjoint).  Elsewhere it is the Hellinger form
    -log1p(-h) with h = 1/2 ||sqrt p - sqrt q||^2 and sqrt p - sqrt q
    taken as (p - q) / (sqrt p + sqrt q), so close pmfs keep full
    relative accuracy instead of cancelling to 0.
    """
    root_p, roots = np.sqrt(p), np.sqrt(probs)
    coeff = (roots * root_p).sum(axis=1)
    denom = roots + root_p
    diff = np.divide(probs - p, denom, out=np.zeros_like(probs), where=denom > 0)
    half_sq = 0.5 * (diff * diff).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(coeff < 0.5, -np.log(coeff), -np.log1p(-half_sq))


def bhattacharyya(p: FinitePmf, q: FinitePmf) -> float:
    """Bhattacharyya distance -log sum_x sqrt(p(x) q(x)).

    Symmetric and nonnegative; +inf exactly when the supports are
    disjoint.  Same kernel as `distance_matrix`.
    """
    if p.alphabet_size != q.alphabet_size:
        raise ValueError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}")
    return float(_bhattacharyya_row(p.probs, q.probs[None, :])[0])


def distance_matrix(family: DistributionFamily) -> np.ndarray:
    """All pairwise Bhattacharyya distances, shape (A, A); +inf off-support.

    Filled one row (and its mirror column) at a time, so no temporary is
    larger than (A, m) and the result is exactly symmetric.
    """
    probs = family.prob_matrix()
    dist = np.empty((len(probs), len(probs)))
    for i, p in enumerate(probs):
        dist[i, i:] = dist[i:, i] = _bhattacharyya_row(p, probs[i:])
    return dist


def tilted_midpoint(p: FinitePmf, q: FinitePmf) -> FinitePmf:
    """Normalized geometric mean of two pmfs.

    Its support is the intersection of the inputs' supports, and it
    satisfies D(mid||p) + D(mid||q) = 2 B(p, q).
    """
    if p.alphabet_size != q.alphabet_size:
        raise ValueError(
            f"alphabet sizes differ: {p.alphabet_size} vs {q.alphabet_size}")
    raw = np.sqrt(p.probs * q.probs)
    total = float(raw.sum())
    if total <= 0.0:
        raise ValueError("supports are disjoint; the geometric mean is degenerate")
    return FinitePmf(raw / total)


def _binary_grid(size: int, theta_min: float, theta_max: float) -> list[FinitePmf]:
    if size < 2:
        raise ValueError("binary-grid needs size >= 2")
    if not (0.0 <= theta_min < theta_max <= 1.0):
        raise ValueError(
            f"binary-grid needs 0 <= theta_min < theta_max <= 1, "
            f"got [{theta_min}, {theta_max}]")
    thetas = np.linspace(theta_min, theta_max, size)
    return [FinitePmf([t, 1.0 - t]) for t in thetas]


def _random_simplex(size: int, alphabet_size: int, seed: int) -> list[FinitePmf]:
    if size < 2:
        raise ValueError("random-simplex needs size >= 2")
    if alphabet_size < 2:
        raise ValueError("random-simplex needs alphabet size >= 2")
    rng = philox_stream(seed)
    # exponential weights normalize to a uniform draw from the simplex
    w = rng.exponential(1.0, size=(size, alphabet_size))
    w /= w.sum(axis=1, keepdims=True)
    return [FinitePmf(row) for row in w]


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
    if isinstance(spec, DistributionFamily):
        return spec
    if isinstance(spec, dict):
        kind = spec.get("kind")
        if not isinstance(kind, str) or kind not in _FAMILY_KIND_KEYS:
            raise ValueError(f"unknown family spec kind: {kind!r}")
        keys = _FAMILY_KIND_KEYS[kind]
        extra, missing = set(spec) - keys - {"kind"}, keys - set(spec)
        if extra:
            raise ValueError(f"unknown keys for a {kind} family spec: {sorted(extra)}")
        if missing:
            raise ValueError(f"{kind} family spec missing keys: {sorted(missing)}")
        if kind == "explicit":
            return DistributionFamily([FinitePmf(row) for row in spec["pmfs"]])
        if kind == "binary-grid":
            return DistributionFamily(_binary_grid(
                int(spec["size"]), float(spec["theta_min"]), float(spec["theta_max"])))
        return DistributionFamily(_random_simplex(
            int(spec["size"]), int(spec["alphabet"]), int(spec["seed"])))
    if isinstance(spec, Sequence):
        return DistributionFamily([
            row if isinstance(row, FinitePmf) else FinitePmf(row) for row in spec])
    raise ValueError(f"cannot build a family from {type(spec).__name__}")
