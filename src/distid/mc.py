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

Each block scores only its distinct count rows, once each, into a
(U, A) table (in sub-chunks of about 2^14 score entries,
`_SCORE_CHUNK_ENTRIES`, so no scoring temporary grows with the block),
and decodes all its trials by one `ml_decode` call on that table and
each trial's row numbers into it.  No (block, A, A) score stack is
built: a binary block at n = 40 has at most 41 distinct rows.
Error trials are classified in numpy, by one vectorised cycle walk.
With workers > 1 the calling thread runs blocks next to workers - 1
plain helper threads (`_map_blocks`), so no pool is built or imported.
The decode of a block is many small numpy steps, which hold the GIL
between them; two threads speed up `estimate_error_prob` about 1.3x on
A = 16 blocks and about 1.2x at A = 4, where blocks are short and a
whole `simulate` call gains nothing, and each thread holds its own
block's arrays: a `simulate` call at A = 4 peaks at 39.8 MiB with two
workers against 38.0 MiB with one (2 vCPUs; the README gives the runs).

`pairwise_error_exponent` simulates no trial of a binary pair: its swap
event compares the two rows' symbol-0 counts, so the event probability
has a closed form, and a grid point's event count is one binomial draw
with that probability.  The closed form sums only the counts within
sqrt(375 n) of either member's mean, where a term can be nonzero in
float64, and none once the probability's bound e^(-2nB) underflows, so
its cost grows like sqrt(n), not n; a sum over more than 2^22 counts
(`_SWAP_WINDOW_MAX`) raises ValueError.  Pairs on three or more symbols
draw multinomial counts in blocks of 2^14 trials
(`_SWAP_TRIALS_PER_BLOCK`); a trial whose float statistic is a near tie
is decided on exact pmf ratios, so a real tie counts as the event.
"""

from __future__ import annotations

import math
import threading
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from .bounds import _FIT_GRID_MIN, _check_grid, _ls_slope
from .distributions import DistributionFamily, FinitePmf, bhattacharyya, philox_stream

__all__ = [
    "McEstimate",
    "estimate_error_prob",
    "permutation_cycles",
    "ExponentFit",
    "pairwise_error_exponent",
]

TRIALS_PER_BLOCK = 4096

# A block's distinct count rows are scored in sub-chunks of about this many
# score entries, so each float64 scoring temporary stays near 128 KiB at any A.
_SCORE_CHUNK_ENTRIES = 2**14

# Trials per swap-event block of `pairwise_error_exponent` on m >= 3
# symbols.  Each block draws from its own stream, so the output depends on it.
_SWAP_TRIALS_PER_BLOCK = 2**14

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


class McEstimate(NamedTuple):
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

    def row(self) -> dict:
        """The estimate's CSV columns by name: one r{r}_count per r in 2..A."""
        return {"n": self.n, "A": self.family_size, "trials": self.trials,
                "errors": self.errors, "p_hat": self.p_hat, "stderr": self.stderr,
                **{f"r{r}_count": self.r_histogram.get(r, 0)
                   for r in range(2, self.family_size + 1)},
                "single_cycle_fraction": self.single_cycle_fraction}

    def to_json_dict(self) -> dict:
        return {"n": self.n, "A": self.family_size, "trials": self.trials,
                "errors": self.errors, "p_hat": self.p_hat,
                "stderr": self.stderr,
                "stderr_is_placeholder": self.stderr_is_placeholder,
                "r_histogram": {str(k): v for k, v in sorted(self.r_histogram.items())},
                "single_cycle_fraction": self.single_cycle_fraction}


def _trial_blocks(trials: int, per_block: int = TRIALS_PER_BLOCK) -> list[tuple[int, int]]:
    return [(b, min(per_block, trials - b * per_block))
            for b in range((trials + per_block - 1) // per_block)]


def _map_blocks(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for every task, in task order.

    With workers > 1 and more than one task, the calling thread runs tasks
    next to min(workers, len(tasks)) - 1 helper threads, each thread taking
    the lowest-numbered task not yet taken, so each task runs once.  A
    helper that cannot start leaves its tasks to the threads that did.
    Once a task has raised, no further task starts; every helper started
    is joined, and then the exception of the lowest-numbered failing task
    is raised.
    Tasks are taken in order, so every task below a failing one has been
    taken, and has ended once the helpers are joined.
    """
    if workers == 1 or len(tasks) == 1:
        return [fn(*task) for task in tasks]
    results = [None] * len(tasks)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    order = iter(range(len(tasks)))

    def work():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(*tasks[i])
            except BaseException as exc:
                with lock:
                    failures[i] = exc

    helpers = []
    try:
        for _ in range(min(workers, len(tasks)) - 1):
            helper = threading.Thread(target=work)
            try:
                helper.start()
            except RuntimeError:   # can't start new thread
                break
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if failures:
        raise failures[min(failures)]
    return results


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(reps, inverse) of the distinct rows of a 2-D integer array:
    rows[reps] holds one copy of each, and rows[reps][inverse] == rows.

    Each row's columns are read as the digits of one integer key, in a
    mixed radix of the columns' value ranges, and the keys are made
    unique once: far cheaper than unique(axis=0), or than sorting rows as
    byte strings.  A column with more values than rows is ranked first,
    and the keys are ranked whenever the next digit could overflow, so
    every key stays below 2^62.
    """
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1   # every key is below span
    for column in rows.T:
        low = column.min()
        radix = int(column.max()) - int(low) + 1
        if radix > len(rows):
            _, column = np.unique(column, return_inverse=True)
            low, radix = 0, int(column.max()) + 1
        if span * radix > 2**62:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
        key = key * radix + (column - low)
        span *= radix
    _, inverse = np.unique(key, return_inverse=True)
    reps = np.empty(inverse.max() + 1, dtype=np.int64)
    reps[inverse] = np.arange(len(rows))
    return reps, inverse


def _run_error_block(family: DistributionFamily, n: int, seed: int,
                     block: int, block_size: int):
    from .decoder import loglik_from_counts, ml_decode
    rng = philox_stream(seed, block)
    size, symbols = len(family), family.alphabet_size
    counts = np.empty((block_size, size, symbols), dtype=np.int64)
    for i, probs in enumerate(family.prob_matrix()):
        counts[:, i, :] = rng.multinomial(n, probs, size=block_size)
    # distinct count rows, each scored once; a row's last count is n
    # minus the others
    flat = counts.reshape(-1, symbols)
    reps, index = _distinct_rows(flat[:, :-1])
    # scored in slabs of A distinct rows (zero rows pad the last), so each
    # scoring call returns a stack of square (A, A) score matrices, which
    # the benchmark's traced run decodes (`scipy_ref_ratio` in
    # bench/run.py); float64 holds the counts exactly and is what scoring
    # multiplies in
    slabs = -(-len(reps) // size)
    distinct = np.zeros((slabs, size, symbols))
    distinct.reshape(-1, symbols)[:len(reps)] = flat[reps]
    del counts, flat, reps   # the decode below needs only the index
    table = np.empty((slabs * size, size))
    chunk = max(1, _SCORE_CHUNK_ENTRIES // (size * size))
    for lo in range(0, slabs, chunk):
        table[lo * size:(lo + chunk) * size] = loglik_from_counts(
            distinct[lo:lo + chunk], family).reshape(-1, size)
    del distinct
    decoded = ml_decode(table, rows=index.reshape(block_size, size))
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


def _swap_terms(p: FinitePmf, q: FinitePmf) -> tuple[np.ndarray, list]:
    """Each symbol's term of the swap statistic: its float log(p[s] / q[s])
    and its exact ratio p[s] / q[s]; log 0 and ratio 1 on a symbol that
    either member gives probability 0."""
    from fractions import Fraction
    live = (p.probs > 0) & (q.probs > 0)
    logs = np.log(np.where(live, p.probs, 1.0) / np.where(live, q.probs, 1.0))
    ratios = [Fraction(a) / Fraction(b) if ok else 1
              for a, b, ok in zip(p.probs.tolist(), q.probs.tolist(), live)]
    return logs, ratios


def _swap_event(p: FinitePmf, q: FinitePmf, terms: tuple[np.ndarray, list],
                counts_p: np.ndarray, counts_q: np.ndarray) -> np.ndarray:
    """Whether each pair of count rows is a swap event: statistic >= 0 and
    no count on a symbol the other member gives probability 0.

    The statistic sum_s (c_q[s] - c_p[s]) log(p[s] / q[s]) is summed in
    float over the `_swap_terms`, except on rows where its magnitude is at
    most 1e-12 times sum_s |c_q[s] - c_p[s]| (1 + |log(p[s] / q[s])|), a
    band far wider than the rounding of each log, which is absolute for
    ratios near 1.  Those rows are decided exactly, once per distinct row
    of count differences, by whether the product of the exact ratios
    raised to those differences is at least 1, so a real tie counts as
    the event.
    """
    logs, ratios = terms
    diffs = counts_q - counts_p
    as_float = diffs.astype(float)   # small integers, held exactly
    stat = as_float @ logs
    event = stat >= 0.0
    band = 1e-12 * (np.abs(as_float) @ (1.0 + np.abs(logs)))
    near = np.flatnonzero(np.abs(stat) <= band)
    if near.size:
        rows = diffs[near]
        reps, inverse = _distinct_rows(rows)
        exact = [math.prod(r ** d for r, d in zip(ratios, row)) >= 1
                 for row in rows[reps].tolist()]
        event[near] = np.array(exact)[inverse]
    dead = (counts_q[:, p.probs <= 0].any(axis=1)
            | counts_p[:, q.probs <= 0].any(axis=1))
    return event & ~dead


def _run_swap_block(p: FinitePmf, q: FinitePmf, terms: tuple[np.ndarray, list],
                    n: int, seed: int, stream: int, block_size: int) -> int:
    rng = philox_stream(seed, stream)
    counts_p = rng.multinomial(n, p.probs, size=block_size)
    counts_q = rng.multinomial(n, q.probs, size=block_size)
    return int(np.count_nonzero(_swap_event(p, q, terms, counts_p, counts_q)))


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
    trial by trial, and `_swap_event` decides each trial; block b of grid
    point g draws from the stream keyed (seed, g * 2^32 + b).  Any worker
    count yields the identical fit; only m >= 3 blocks run on workers.
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
        errors = [int(philox_stream(seed, g * 2**32).binomial(
                      trials, _binary_swap_prob(p, q, n)))
                  for g, n in enumerate(grid)]
    else:
        blocks = _trial_blocks(trials, _SWAP_TRIALS_PER_BLOCK)
        # stream index packs (grid point, block) so every block is its own stream
        tasks = [(n, seed, g * 2**32 + b, size)
                 for g, n in enumerate(grid) for b, size in blocks]
        hits = _map_blocks(partial(_run_swap_block, p, q, _swap_terms(p, q)),
                           tasks, workers)
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
