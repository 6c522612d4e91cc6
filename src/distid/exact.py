"""Exact binary swap-event kernels and the pairwise error-exponent fit.

`pairwise_error_exponent` simulates no trial of a binary pair: its swap
event compares the two rows' symbol-0 counts, so the event probability
has a closed form, and a grid point's event count is one binomial draw
with that probability.  The closed form sums only the counts within
sqrt(375 n) of either member's mean, where a term can be nonzero in
float64, and none once the probability's bound e^(-2nB) underflows, so
its cost grows like sqrt(n), not n; a sum over more than 2^22 counts
(`_SWAP_WINDOW_MAX`) raises ValueError.  Pairs on three or more symbols
draw multinomial counts in `mc`'s swap-event blocks, which this module
imports only for such a pair, so a binary `exponent` loads neither `mc`
nor `bounds`.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .distributions import (_FIT_GRID_MIN, FinitePmf, _check_grid, _check_sample_count,
                            _ls_slope, bhattacharyya, philox_stream)

__all__ = ["ExponentFit", "pairwise_error_exponent"]

# A binary swap-event term below e^-_LOG_NEGLIGIBLE is 0.0 in float64, so
# `_binary_swap_prob` builds no pmf where every term is.
_LOG_NEGLIGIBLE = 750.0

# Most counts `_binary_swap_prob` sums (32 MiB per float64 array): its window
# grows like sqrt(n) up to the underflow cut, which for a close pair comes
# near n = 10^14.
_SWAP_WINDOW_MAX = 2**22

# Grid points with fewer observed errors than this are excluded from the
# exponent fit; -log p_hat is severely biased at low counts.
MIN_ERRORS_FOR_FIT = 50


class ExponentFit(NamedTuple):
    """Decay-rate fit for the pairwise swap event across blocklengths.

    slope is the least-squares slope of -log p_hat against n over the
    grid points with at least MIN_ERRORS_FOR_FIT observed events; target
    is twice the Bhattacharyya distance of the pair.  Finite-n slopes
    carry the bias of the polynomial prefactor hidden by the exponential
    decay, so agreement with the target is loose by nature.
    """

    n_grid: tuple[int, ...]
    trials: int
    errors: tuple[int, ...]
    p_hats: tuple[float, ...]
    used: tuple[bool, ...]
    slope: float
    target: float

    def rows(self) -> list[dict]:
        """One CSV row per grid point, columns by name."""
        return [{"n": n, "trials": self.trials, "errors": e, "p_hat": p,
                 "used_in_fit": u, "slope": self.slope, "target": self.target}
                for n, e, p, u in zip(self.n_grid, self.errors, self.p_hats, self.used)]

    def to_json_dict(self) -> dict:
        return {"n_grid": list(self.n_grid), "trials": self.trials,
                "errors": list(self.errors), "p_hats": list(self.p_hats),
                "used": list(self.used), "slope": self.slope,
                "target": self.target}


def _binomial_pmfs(n: int, rows, first: int, last: int) -> list:
    """Pmfs of binary rows' symbol-0 counts over first..last, from lgamma
    log-pmfs; log C(n, c) is built once for all the rows."""
    counts = np.arange(first, last + 1)
    top = math.lgamma(n + 1)
    log_choose = np.fromiter((top - math.lgamma(c + 1) - math.lgamma(n - c + 1)
                              for c in range(first, last + 1)),
                             dtype=float, count=len(counts))
    pmfs = []
    for p0, p1 in (row.tolist() for row in rows):
        if p0 == 0.0 or p1 == 0.0:   # a point mass
            pmfs.append((counts == (n if p1 == 0.0 else 0)).astype(float))
        else:
            pmfs.append(np.exp(log_choose + counts * math.log(p0)
                               + (n - counts) * math.log(p1)))
    return pmfs


def _exceeds(a: float, b: float, c: float, d: float) -> bool:
    """Whether a * b > c * d exactly, for floats a..d >= 0."""
    (an, ad), (bn, bd), (cn, cd), (dn, dd) = (x.as_integer_ratio() for x in (a, b, c, d))
    return an * bn * cd * dd > cn * dn * ad * bd


def _binary_swap_prob(p: FinitePmf, q: FinitePmf, n: int) -> float:
    """Exact swap-event probability of a binary pair at blocklength n.

    With c the symbol-0 counts, the statistic is
    (c_q - c_p) log(p[0] q[1] / (p[1] q[0])), so the event is c_q >= c_p
    when p[0] q[1] > p[1] q[0], compared exactly, and c_q <= c_p
    otherwise.  (A member with a zero is a point mass, so a count on its
    zero symbol never occurs.)  The probability of c_hi >= c_lo sums the
    pmf of c_lo against the suffix sums of the pmf of c_hi.

    A term below e^-750 comes out 0.0: exp underflows below -745.1, and
    the margin covers lgamma's rounding at every n whose counts fit in
    memory.  The event's probability is at most e^(-2nB), B the
    Bhattacharyya distance, so it is 0.0 once 2nB > 750.  Otherwise a
    count more than sqrt(375 n) from a member's mean n p[0] has pmf below
    e^(-2 (c - n p[0])^2 / n) <= e^-750 (Hoeffding), so the sums run only
    over the counts within that reach of either mean: every term they
    leave out is 0.0, and the result is the full sum's.  A window of
    more than _SWAP_WINDOW_MAX counts raises ValueError.
    """
    if 2.0 * n * bhattacharyya(p, q) > _LOG_NEGLIGIBLE:
        return 0.0
    (p0, p1), (q0, q1) = p.probs.tolist(), q.probs.tolist()
    lo, hi = (p, q) if _exceeds(p0, q1, p1, q0) else (q, p)
    reach = math.sqrt(_LOG_NEGLIGIBLE / 2.0 * n) + 1.0
    first = max(0, math.floor(n * min(p0, q0) - reach))
    last = min(n, math.ceil(n * max(p0, q0) + reach))
    if last - first >= _SWAP_WINDOW_MAX:
        raise ValueError(f"the exact binary swap probability at n = {n} would sum "
                         f"{last - first + 1} counts, more than {_SWAP_WINDOW_MAX}; "
                         f"use smaller blocklengths")
    pmf_lo, pmf_hi = _binomial_pmfs(n, (lo.probs, hi.probs), first, last)
    suffix = np.cumsum(pmf_hi[::-1])[::-1]
    return math.fsum(pmf_lo * suffix)


def pairwise_error_exponent(p: FinitePmf, q: FinitePmf, n_grid: Sequence[int],
                            trials: int, seed: int,
                            workers: int = 1) -> ExponentFit:
    """Estimate the decay rate of the pairwise swap-event probability.

    For each blocklength the swap event (the two-row likelihood-ratio
    statistic being nonnegative, a tie included) is counted over `trials`
    independent trials; the decay slope of -log p_hat is fit over the grid
    points with enough observed events and compared against twice the
    Bhattacharyya distance.

    On a binary alphabet the event probability P is exact
    (`_binary_swap_prob`), and grid point g's count is one
    Binomial(trials, P) draw from the stream keyed (seed, g * 2^32): the
    law of the event count of independent trials.  Rows on m >= 3 symbols,
    whose type tables would grow like n^(m-1), draw multinomial counts
    trial by trial, and `mc._swap_event` decides each trial; block b of
    grid point g draws from the stream keyed (seed, g * 2^32 + b).  Any
    worker count yields the identical fit; only m >= 3 blocks run on
    workers.  A count that numpy's samplers cannot take (trials on a
    binary alphabet, a blocklength on m >= 3 symbols) raises ValueError.
    """
    dist = bhattacharyya(p, q)
    if not math.isfinite(dist) or dist <= 0.0:
        raise ValueError(
            f"the pair must have finite positive distance, got {dist}")
    grid = _check_grid(n_grid, _FIT_GRID_MIN)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if p.alphabet_size == 2:   # one exact binomial draw per grid point
        _check_sample_count("trials", trials)
        errors = [int(philox_stream(seed, g * 2**32).binomial(
                      trials, _binary_swap_prob(p, q, n)))
                  for g, n in enumerate(grid)]
    else:
        from .mc import _SWAP_TRIALS_PER_BLOCK, _run_swap_block, _sum_blocks, _swap_terms
        for n in grid:
            _check_sample_count("n_grid entry", n)
        blocks = -(-trials // _SWAP_TRIALS_PER_BLOCK)
        terms = _swap_terms(p, q)

        def run(task: int) -> np.ndarray:   # the block's hits at its grid point
            g, b = divmod(task, blocks)
            hits = np.zeros(len(grid), dtype=np.int64)
            # the stream index packs (grid point, block): each block is its own stream
            hits[g] = _run_swap_block(p, q, terms, grid[g], seed, g * 2**32 + b,
                                      min(_SWAP_TRIALS_PER_BLOCK,
                                          trials - b * _SWAP_TRIALS_PER_BLOCK))
            return hits

        errors = _sum_blocks(run, len(grid) * blocks, workers).tolist()

    p_hats = tuple(e / trials for e in errors)
    used = tuple(e >= MIN_ERRORS_FOR_FIT for e in errors)
    xs = [float(n) for n, u in zip(grid, used) if u]
    ys = [-math.log(ph) for ph, u in zip(p_hats, used) if u]
    if len(xs) < 2:
        raise ValueError(
            f"too few grid points with >= {MIN_ERRORS_FOR_FIT} events to fit "
            f"a slope (got {len(xs)}); raise trials or shrink the blocklengths")
    return ExponentFit(n_grid=grid, trials=trials, errors=tuple(errors),
                       p_hats=p_hats, used=used, slope=_ls_slope(xs, ys),
                       target=2.0 * dist)
