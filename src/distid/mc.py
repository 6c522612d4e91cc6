"""Monte Carlo estimation of the identification error probability.

Trials fix the true assignment to the identity (valid by symmetry over a
uniformly random assignment), draw one count vector per family member,
decode with the assignment solver, and classify each error by how many
rows were misassigned and whether the error permutation is one cycle.

Randomness is organized in fixed-size blocks of trials, each fed by its
own counter-based stream derived from (seed, block index).  Output is
therefore byte-identical for any worker count and any execution order.
Only the symbol counts are drawn (one multinomial per row): the decoder
and every error statistic depend on the observations through the counts
alone.

Each block is scored in sub-chunks of about 2^14 score entries
(`_SCORE_CHUNK_ENTRIES`), so no scoring temporary grows with the block,
and the whole block is then decoded by one `ml_decode` call on its
(block, A, A) score stack.
Error trials are classified in numpy, by one vectorised cycle walk.
Blocks run on threads when workers > 1.  The decode of a block is many
small numpy steps, which hold the GIL between them; with identical-row
ties settled in numpy, two threads speed up `estimate_error_prob` about
1.3x on A = 16 blocks and little at A = 4, where blocks are short (2
vCPUs; the README gives the runs).

The swap-event blocks of `pairwise_error_exponent` hold 2^14 trials
(`_SWAP_TRIALS_PER_BLOCK`).  For a binary pair a trial is one uniform
per row through a Walker/Vose alias table of that row's symbol-0 count,
and the event compares the two counts; pairs on three or more symbols
draw multinomial counts.  Swap decisions are taken on integer counts and
exact pmf ratios, floats entering only as magnitudes, so a tie through
equal counts or equal or reciprocal ratios counts as the event.
"""

from __future__ import annotations

import bisect
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .bounds import _cell, _check_grid, _ls_slope
from .decoder import loglik_from_counts, ml_decode
from .distributions import DistributionFamily, FinitePmf, bhattacharyya, philox_stream

__all__ = [
    "McEstimate",
    "estimate_error_prob",
    "permutation_cycles",
    "ExponentFit",
    "pairwise_error_exponent",
]

TRIALS_PER_BLOCK = 4096

# A block is scored in sub-chunks of about this many matrix entries, so each
# float64 (chunk, A, A) scoring temporary stays near 128 KiB at any A.
_SCORE_CHUNK_ENTRIES = 2**14

# Trials per swap-event block of `pairwise_error_exponent`.  A binary trial
# is a few table lookups, so short blocks are many short numpy steps that
# contend for the GIL: at 4,096 trials the 10^6-trial, 8-point run took
# 0.64 s on two threads against 0.43 s on one; at 2^14, 0.25 s against
# 0.36 s (2 vCPUs, in process).
_SWAP_TRIALS_PER_BLOCK = 2**14

# Grid points with fewer observed errors than this are excluded from the
# exponent fit; -log p_hat is severely biased at low counts.
MIN_ERRORS_FOR_FIT = 50

# Fewest blocklengths in the grid of an exponent fit.
_FIT_GRID_MIN = 3


def permutation_cycles(perm) -> list[list[int]]:
    """Nontrivial cycles of a permutation, fixed points excluded.

    Each cycle is rotated to start at its smallest element; cycles are
    sorted by that element.  The cycle lengths sum to the number of
    misassigned indices.
    """
    mapping = [int(x) for x in perm]
    size = len(mapping)
    if sorted(mapping) != list(range(size)):
        raise ValueError(f"not a permutation of 0..{size - 1}: {mapping}")
    seen = [False] * size
    cycles = []
    for start in range(size):
        if seen[start] or mapping[start] == start:
            seen[start] = True
            continue
        cycle = []
        node = start
        while not seen[node]:
            seen[node] = True
            cycle.append(node)
            node = mapping[node]
        cycles.append(cycle)
    return cycles


def _single_cycle(perms: np.ndarray) -> np.ndarray:
    """Whether each row of a (B, A) stack of permutations is one cycle.

    Walks A steps from each row's first moved index; the permutation is a
    single cycle (`len(permutation_cycles(perm)) == 1`) when that walk's
    cycle covers every moved index.  The identity gives False.
    """
    trials, size = perms.shape
    moved = perms != np.arange(size)
    start = moved.argmax(axis=1)
    every = np.arange(trials)
    node, length = start, np.zeros(trials, dtype=np.int64)
    for step in range(1, size + 1):
        node = perms[every, node]
        length[(node == start) & (length == 0)] = step
    return length == moved.sum(axis=1)


@dataclass(frozen=True)
class McEstimate:
    """Error-rate estimate with the cycle structure of the error events.

    r_histogram maps the number of misassigned rows (2..A) to the count
    of error trials with that number; single_cycle_fraction is the share
    of error trials whose error permutation is a single cycle.  With zero
    observed errors the standard error is reported as the conservative
    placeholder 1/trials and flagged.
    """

    n: int
    family_size: int
    trials: int
    errors: int
    p_hat: float
    stderr: float
    stderr_is_placeholder: bool
    r_histogram: dict[int, int]
    single_cycle_fraction: float

    @staticmethod
    def csv_header(family_size: int) -> list[str]:
        base = ["n", "A", "trials", "errors", "p_hat", "stderr"]
        base += [f"r{r}_count" for r in range(2, family_size + 1)]
        base.append("single_cycle_fraction")
        return base

    def csv_row(self) -> list[str]:
        hist = [self.r_histogram.get(r, 0) for r in range(2, self.family_size + 1)]
        return [_cell(v) for v in (self.n, self.family_size, self.trials, self.errors,
                                   self.p_hat, self.stderr, *hist,
                                   self.single_cycle_fraction)]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "A": self.family_size, "trials": self.trials,
                "errors": self.errors, "p_hat": self.p_hat,
                "stderr": self.stderr,
                "stderr_is_placeholder": self.stderr_is_placeholder,
                "r_histogram": {str(k): v for k, v in sorted(self.r_histogram.items())},
                "single_cycle_fraction": self.single_cycle_fraction}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "McEstimate":
        return cls(n=int(d["n"]), family_size=int(d["A"]),
                   trials=int(d["trials"]), errors=int(d["errors"]),
                   p_hat=float(d["p_hat"]), stderr=float(d["stderr"]),
                   stderr_is_placeholder=bool(d["stderr_is_placeholder"]),
                   r_histogram={int(k): int(v)
                                for k, v in d["r_histogram"].items()},
                   single_cycle_fraction=float(d["single_cycle_fraction"]))


def _trial_blocks(trials: int, per_block: int = TRIALS_PER_BLOCK) -> list[tuple[int, int]]:
    return [(b, min(per_block, trials - b * per_block))
            for b in range((trials + per_block - 1) // per_block)]


def _map_blocks(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for every task, in task order; one thread pool if workers > 1."""
    if workers == 1 or len(tasks) == 1:
        return [fn(*task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda task: fn(*task), tasks))


def _run_error_block(family: DistributionFamily, n: int, seed: int,
                     block: int, block_size: int):
    rng = philox_stream(seed, block)
    size = len(family)
    # float64 holds the counts exactly and is what scoring multiplies in
    counts = np.empty((block_size, size, family.alphabet_size))
    for i, probs in enumerate(family.prob_matrix()):
        counts[:, i, :] = rng.multinomial(n, probs, size=block_size)
    scores = np.empty((block_size, size, size))
    chunk = max(1, _SCORE_CHUNK_ENTRIES // (size * size))
    for lo in range(0, block_size, chunk):
        scores[lo:lo + chunk] = loglik_from_counts(counts[lo:lo + chunk], family)
    del counts   # the decode below does not need it
    decoded = ml_decode(scores)
    wrong = (decoded != np.arange(size)).sum(axis=1)
    errors = np.flatnonzero(wrong)
    hist = {int(r): int(c) for r, c in zip(*np.unique(wrong[errors], return_counts=True))}
    single = int(_single_cycle(decoded[errors]).sum())
    return len(errors), hist, single


def estimate_error_prob(family: DistributionFamily, n: int, trials: int,
                        seed: int, workers: int = 1) -> McEstimate:
    """Monte Carlo estimate of the decoder's error probability.

    Row i of each trial is drawn from member i (the identity assignment);
    an error is any decoded permutation other than the identity.  The
    result is a pure function of (family, n, trials, seed): block b of
    trials draws from the stream keyed (seed, b), so any worker count
    yields the identical estimate.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    results = _map_blocks(partial(_run_error_block, family, n, seed),
                          _trial_blocks(trials), workers)
    errors = 0
    hist: dict[int, int] = {}
    single = 0
    for block_errors, block_hist, block_single in results:  # fixed block order
        errors += block_errors
        single += block_single
        for r, c in block_hist.items():
            hist[r] = hist.get(r, 0) + c
    p_hat = errors / trials
    if errors == 0:
        stderr, placeholder = 1.0 / trials, True
    else:
        stderr, placeholder = math.sqrt(p_hat * (1.0 - p_hat) / trials), False
    return McEstimate(n=n, family_size=len(family), trials=trials,
                      errors=errors, p_hat=p_hat, stderr=stderr,
                      stderr_is_placeholder=placeholder,
                      r_histogram=dict(sorted(hist.items())),
                      single_cycle_fraction=(single / errors) if errors else 0.0)


@dataclass(frozen=True)
class ExponentFit:
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

    @staticmethod
    def csv_header() -> list[str]:
        return ["n", "trials", "errors", "p_hat", "used_in_fit", "slope", "target"]

    def csv_rows(self) -> list[list[str]]:
        return [[_cell(v) for v in (n, self.trials, e, p, u, self.slope, self.target)]
                for n, e, p, u in zip(self.n_grid, self.errors,
                                      self.p_hats, self.used)]

    def to_json_dict(self) -> dict:
        return {"n_grid": list(self.n_grid), "trials": self.trials,
                "errors": list(self.errors), "p_hats": list(self.p_hats),
                "used": list(self.used), "slope": self.slope,
                "target": self.target}

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "ExponentFit":
        return cls(n_grid=tuple(int(x) for x in d["n_grid"]),
                   trials=int(d["trials"]),
                   errors=tuple(int(x) for x in d["errors"]),
                   p_hats=tuple(float(x) for x in d["p_hats"]),
                   used=tuple(bool(x) for x in d["used"]),
                   slope=float(d["slope"]), target=float(d["target"]))


def _swap_groups(p: FinitePmf, q: FinitePmf) -> tuple[np.ndarray, np.ndarray]:
    """The swap statistic's symbols as (signs, magnitudes), one group per ratio.

    The statistic sum_s (c_q[s] - c_p[s]) log(p[s] / q[s]) of two count
    rows is (((c_q - c_p) @ signs) * magnitudes).sum().  A group holds the
    symbols whose exact ratio p[s] / q[s] is one key >= 1 (sign +1) or its
    reciprocal (sign -1), and its magnitude is log(key).  Integer count
    differences are summed per group before any float product, so counts
    whose statistic cancels through equal or reciprocal ratios tie exactly.
    A symbol with ratio 1, or that either member gives probability 0,
    adds nothing.
    """
    ratios = [Fraction(a) / Fraction(b) if a > 0 and b > 0 else None
              for a, b in zip(p.probs.tolist(), q.probs.tolist())]
    keys = sorted({max(r, 1 / r) for r in ratios if r is not None})
    signs = np.array([[(r == key) - (r == 1 / key) for key in keys] for r in ratios],
                     dtype=np.int64)
    return signs, np.array([math.log(key) for key in keys])


def _swap_event(p: FinitePmf, q: FinitePmf, groups: tuple[np.ndarray, np.ndarray],
                counts_p: np.ndarray, counts_q: np.ndarray) -> np.ndarray:
    """Whether each pair of count rows is a swap event: statistic >= 0 and
    no count on a symbol the other member gives probability 0."""
    signs, magnitudes = groups
    stat = (((counts_q - counts_p) @ signs) * magnitudes).sum(axis=1)
    dead = (counts_q[:, p.probs <= 0].any(axis=1)
            | counts_p[:, q.probs <= 0].any(axis=1))
    return (stat >= 0.0) & ~dead


def _run_swap_block(p: FinitePmf, q: FinitePmf,
                    groups: tuple[np.ndarray, np.ndarray], n: int,
                    seed: int, stream: int, block_size: int) -> int:
    rng = philox_stream(seed, stream)
    counts_p = rng.multinomial(n, p.probs, size=block_size)
    counts_q = rng.multinomial(n, q.probs, size=block_size)
    return int(np.count_nonzero(_swap_event(p, q, groups, counts_p, counts_q)))


def _alias_table(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose's alias table of positive weights: (keep, alias).

    Column j yields j with probability keep[j] and alias[j] otherwise; a
    column drawn uniformly then yields j with probability proportional to
    weights[j] (M. D. Vose, IEEE Trans. Softw. Eng. 17(9), 1991).
    """
    size = weights.size
    scaled = (weights * (size / weights.sum())).tolist()
    keep, alias = [1.0] * size, list(range(size))
    small = [j for j, w in enumerate(scaled) if w < 1.0]
    large = [j for j, w in enumerate(scaled) if w >= 1.0]
    while small and large:
        lo, hi = small.pop(), large.pop()
        keep[lo], alias[lo] = scaled[lo], hi
        scaled[hi] = (scaled[hi] + scaled[lo]) - 1.0
        (small if scaled[hi] < 1.0 else large).append(hi)
    return np.array(keep), np.array(alias, dtype=np.intp)


def _binomial_alias(n: int, probs: np.ndarray):
    """Alias table of a binary row's symbol-0 count, Binomial(n, probs[0]).

    Returns (counts, keep, alias) over the counts whose pmf does not
    underflow float64; the pmf is log-concave, so they form one interval
    around the mode, found by bisection.  The pmf comes from lgamma in
    the log domain.
    """
    p0, p1 = float(probs[0]), float(probs[1])
    if p0 == 0.0 or p1 == 0.0:
        return np.array([n if p1 == 0.0 else 0]), np.ones(1), np.zeros(1, dtype=np.intp)
    log0, log1, log_n_fact = math.log(p0), math.log(p1), math.lgamma(n + 1)

    def log_pmf(c: int) -> float:
        return (log_n_fact - math.lgamma(c + 1) - math.lgamma(n - c + 1)
                + c * log0 + (n - c) * log1)

    def alive(c: int) -> bool:
        return math.exp(log_pmf(c)) > 0.0

    mode = min(n, int((n + 1) * p0))
    lo = bisect.bisect_left(range(mode + 1), True, key=alive)
    hi = mode + bisect.bisect_left(range(mode, n + 1), True, key=lambda c: not alive(c))
    logs = np.array([log_pmf(c) for c in range(lo, hi)])
    return (np.arange(lo, hi), *_alias_table(np.exp(logs - logs.max())))


def _binary_swap_tables(p: FinitePmf, q: FinitePmf, n: int):
    """Draw tables of a binary pair's swap event at blocklength n.

    Returns (sign, p_table, q_table).  A row's table is (keep, counts),
    counts holding the symbol-0 count of each alias-table outcome (the K
    columns, then their K aliases).  The statistic is
    (c_q - c_p) log(p[0] q[1] / (p[1] q[0])), so the event is
    sign * (c_q - c_p) >= 0, sign being the exact sign (+-1) of that log.
    A member with a zero is a point mass, so a count on its zero symbol
    fails that comparison.
    """
    p0, p1, q0, q1 = map(Fraction, (*p.probs.tolist(), *q.probs.tolist()))
    tables = [1 if p0 * q1 > p1 * q0 else -1]
    for row in (p, q):
        counts, keep, alias = _binomial_alias(n, row.probs)
        tables.append((keep, np.concatenate([counts, counts[alias]])))
    return tables


def _alias_draw(uniform: np.ndarray, keep: np.ndarray, values: np.ndarray) -> np.ndarray:
    """One alias-table draw per uniform in [0, 1), as an entry of values.

    The integer part of uniform * K picks column j; its fraction keeps
    values[j] with probability keep[j] and takes values[K + j], the
    alias's outcome, otherwise.
    """
    scaled = uniform * keep.size
    column = scaled.astype(np.intp)
    return values[column + keep.size * (scaled - column >= keep[column])]


def _run_binary_swap_block(tables, seed: int, stream: int, block_size: int) -> int:
    rng = philox_stream(seed, stream)
    sign, *row_tables = tables
    c_p, c_q = (_alias_draw(uniform, *table)
                for table, uniform in zip(row_tables, rng.random((2, block_size))))
    return int(np.count_nonzero(c_q >= c_p if sign > 0 else c_q <= c_p))


def pairwise_error_exponent(p: FinitePmf, q: FinitePmf, n_grid: Sequence[int],
                            trials: int, seed: int,
                            workers: int = 1) -> ExponentFit:
    """Estimate the decay rate of the pairwise swap-event probability.

    For each blocklength the swap event (the two-row likelihood-ratio
    statistic being nonnegative, a tie included) is estimated by Monte
    Carlo; the decay slope is fit over the grid points with enough
    observed events and compared against twice the Bhattacharyya
    distance.

    On a binary alphabet each row of a trial takes one uniform through a
    Walker/Vose alias table of its symbol-0 count, built once per
    blocklength, and the event is c_q >= c_p or c_q <= c_p as the exact
    comparison of p[0] q[1] with p[1] q[0] decides.  Rows on m >= 3
    symbols draw multinomial counts, whose type tables would grow like
    n^(m-1), and sum count differences per exact pmf ratio
    (`_swap_groups`), so equal or reciprocal ratios cancel exactly.  Block
    b of grid point g draws from the stream keyed (seed, g * 2^32 + b), so
    any worker count yields the identical fit.
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

    blocks = _trial_blocks(trials, _SWAP_TRIALS_PER_BLOCK)
    if p.alphabet_size == 2:
        run_block = _run_binary_swap_block
        per_point = [_binary_swap_tables(p, q, n) for n in grid]
    else:   # the type tables of m >= 3 rows grow too fast; draw multinomials
        run_block = partial(_run_swap_block, p, q, _swap_groups(p, q))
        per_point = grid
    # stream index packs (grid point, block) so every block is its own stream
    tasks = [(per_point[g], seed, g * 2**32 + b, size)
             for g in range(len(grid)) for b, size in blocks]
    hits = _map_blocks(run_block, tasks, workers)
    errors = [sum(hits[g * len(blocks):(g + 1) * len(blocks)])
              for g in range(len(grid))]

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
