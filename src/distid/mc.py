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
Each block counts its trials in one integer array, by misassigned rows
and by whether the error permutation is one cycle (a vectorised cycle
walk).  Blocks are numbered, not listed, and `_sum_blocks` adds each
block's array to one running total as it ends: memory stays flat in trials.
With workers > 1 the calling thread runs blocks next to workers - 1
plain helper threads, so no pool is built or imported.
The decode of a block is many small numpy steps, which hold the GIL
between them; two threads speed up `estimate_error_prob` about 1.3x on
A = 16 blocks and about 1.2x at A = 4, where blocks are short and a
whole `simulate` call gains nothing, and each thread holds its own
block's arrays: a `simulate` call at A = 4 peaks at 39.8 MiB with two
workers against 38.0 MiB with one (2 vCPUs; the README gives the runs).

The swap-event blocks of `exact.pairwise_error_exponent` on pairs of
three or more symbols live here too: they draw multinomial counts in
blocks of 2^14 trials (`_SWAP_TRIALS_PER_BLOCK`), which the same
dispatcher sums as arrays of hits per grid point, and a trial whose
float statistic is a near tie is decided on exact pmf ratios, so a real
tie counts as the event.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .distributions import DistributionFamily, FinitePmf, _check_sample_count, philox_stream
# bench/layers.py traces the fit by this binding; the tracer wraps exact's too
from .exact import pairwise_error_exponent

__all__ = ["McEstimate", "estimate_error_prob", "permutation_cycles"]

TRIALS_PER_BLOCK = 4096

# A block's distinct count rows are scored in sub-chunks of about this many
# score entries, so each float64 scoring temporary stays near 128 KiB at any A.
_SCORE_CHUNK_ENTRIES = 2**14

# Trials per swap-event block of `exact.pairwise_error_exponent` on m >= 3
# symbols.  Each block draws from its own stream, so the output depends on it.
_SWAP_TRIALS_PER_BLOCK = 2**14

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


def _sum_blocks(fn, tasks: int, workers: int) -> np.ndarray:
    """The sum of the integer arrays fn(i), all of one shape, over range(tasks).

    Each result joins one running total under a lock and is dropped, so
    memory does not grow with the task count.  The calling thread runs
    tasks next to min(workers, tasks) - 1 helper threads (none for one
    worker or one task), each taking the lowest-numbered task not yet
    taken, so each task runs once.  A helper that cannot start leaves its
    tasks to the others.  Once a task raises, no task starts; the helpers
    are joined and the lowest-numbered failure is raised (tasks are taken
    in order, so every task below it has ended)."""
    failures: dict[int, BaseException] = {}
    total = 0
    lock = threading.Lock()
    order = iter(range(tasks))

    def work():
        nonlocal total
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                result = fn(i)
                with lock:
                    total += result   # 0 + the first result is a new array
            except BaseException as exc:
                with lock:
                    failures[i] = exc

    helpers = []
    try:
        for _ in range(min(workers, tasks) - 1):
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
    return total


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
                     block: int, block_size: int) -> np.ndarray:
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
    # (2, A + 1) trial counts: by misassigned rows, and in row 1 the single cycles
    return np.bincount(wrong + (size + 1) * _single_cycle(decoded),
                       minlength=2 * (size + 1)).reshape(2, size + 1)


def estimate_error_prob(family: DistributionFamily, n: int, trials: int,
                        seed: int, workers: int = 1) -> McEstimate:
    """Monte Carlo estimate of the decoder's error probability.

    Row i of each trial is drawn from member i (the identity assignment);
    an error is any decoded permutation other than the identity.  The
    result is a pure function of (family, n, trials, seed): block b of
    trials draws from the stream keyed (seed, b), so any worker count
    yields the identical estimate.  An n above 2^63 - 1, which numpy's
    samplers cannot take, raises ValueError before any block runs.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 1:
        raise ValueError(f"blocklength must be >= 1, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _check_sample_count("n", n)

    def run(block: int) -> np.ndarray:
        return _run_error_block(family, n, seed, block, min(
            TRIALS_PER_BLOCK, trials - block * TRIALS_PER_BLOCK))

    counts = _sum_blocks(run, -(-trials // TRIALS_PER_BLOCK), workers)
    by_rows = counts.sum(axis=0).tolist()
    errors, single = sum(by_rows[1:]), int(counts[1].sum())
    p_hat = errors / trials
    if errors == 0:
        stderr, placeholder = 1.0 / trials, True
    else:
        stderr, placeholder = math.sqrt(p_hat * (1.0 - p_hat) / trials), False
    return McEstimate(n=n, family_size=len(family), trials=trials,
                      errors=errors, p_hat=p_hat, stderr=stderr,
                      stderr_is_placeholder=placeholder,
                      r_histogram={r: c for r, c in enumerate(by_rows) if r and c},
                      single_cycle_fraction=(single / errors) if errors else 0.0)


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
