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

Each block is screened before it is decoded: `certify_identity` proves,
in batched numpy, which trials decode to the identity, and only the
others (errors, ties and near-ties) go through the pure-Python O(A^3)
`ml_decode`.  Where the error probability is small, as in the regime the
bounds are tested in, most trials skip the solver; the estimates are the
same as with `ml_decode` on every trial.  Blocks run on threads when
workers > 1.  The screen and the solver hold the GIL for most of a
block, so threads barely speed up `estimate_error_prob`; the swap-event
blocks of `pairwise_error_exponent` are numpy throughout and gain more.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Sequence

import numpy as np

from .decoder import certify_identity, loglik_from_counts, ml_decode
from .distributions import DistributionFamily, FinitePmf, bhattacharyya, philox_stream

__all__ = [
    "McEstimate",
    "estimate_error_prob",
    "permutation_cycles",
    "ExponentFit",
    "pairwise_error_exponent",
]

TRIALS_PER_BLOCK = 4096

# Most blocks a thread pool has pending at once.
_TASK_WINDOW = 256

# Grid points with fewer observed errors than this are excluded from the
# exponent fit; -log p_hat is severely biased at low counts.
MIN_ERRORS_FOR_FIT = 50


def _fmt(x: float) -> str:
    return "%.17g" % x


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
        row = [str(self.n), str(self.family_size), str(self.trials),
               str(self.errors), _fmt(self.p_hat), _fmt(self.stderr)]
        row += [str(self.r_histogram.get(r, 0))
                for r in range(2, self.family_size + 1)]
        row.append(_fmt(self.single_cycle_fraction))
        return row

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


def _trial_blocks(trials: int) -> list[tuple[int, int]]:
    return [(b, min(TRIALS_PER_BLOCK, trials - b * TRIALS_PER_BLOCK))
            for b in range((trials + TRIALS_PER_BLOCK - 1) // TRIALS_PER_BLOCK)]


def _map_blocks(fn, tasks: list[tuple], workers: int) -> list:
    """fn(*task) for every task, in task order; one thread pool if workers > 1."""
    if workers == 1 or len(tasks) == 1:
        return [fn(*task) for task in tasks]
    results = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        # every submitted task holds a future, so submit a window at a time
        for lo in range(0, len(tasks), _TASK_WINDOW):
            results += pool.map(lambda task: fn(*task), tasks[lo:lo + _TASK_WINDOW])
    return results


def _run_error_block(family: DistributionFamily, n: int, seed: int,
                     block: int, block_size: int):
    rng = philox_stream(seed, block)
    size = len(family)
    counts = np.empty((block_size, size, family.alphabet_size), dtype=np.int64)
    for i, member in enumerate(family):
        counts[:, i, :] = rng.multinomial(n, member.probs, size=block_size)
    scores = loglik_from_counts(counts, family)
    errors = 0
    hist: dict[int, int] = {}
    single = 0
    identity = np.arange(size)
    # certified trials decode to the identity, so only the rest need solving
    for t in np.flatnonzero(~certify_identity(scores)):
        decoded = ml_decode(scores[t])
        wrong = int((decoded != identity).sum())
        if wrong == 0:
            continue
        errors += 1
        hist[wrong] = hist.get(wrong, 0) + 1
        if len(permutation_cycles(decoded)) == 1:
            single += 1
    return errors, hist, single


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
        return [[str(n), str(self.trials), str(e), _fmt(p),
                 "true" if u else "false", _fmt(self.slope), _fmt(self.target)]
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


def _swap_event_weights(p: FinitePmf, q: FinitePmf):
    """Per-symbol summands of the swap-event statistic, zero-prob aware.

    The statistic is log(p/q) summed over the q-row plus log(q/p) summed
    over the p-row; a positive count on a zero-probability symbol sends
    the corresponding side to -inf.
    """
    pp, qq = p.probs, q.probs
    both = (pp > 0) & (qq > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(both, np.log(pp) - np.log(qq), 0.0)
    p_dead = (pp <= 0).astype(np.float64)  # kills log(p/q) on the q-row
    q_dead = (qq <= 0).astype(np.float64)  # kills log(q/p) on the p-row
    return log_ratio, p_dead, q_dead


def _run_swap_block(p: FinitePmf, q: FinitePmf, n: int, seed: int,
                    stream: int, block_size: int) -> int:
    rng = philox_stream(seed, stream)
    counts_p = rng.multinomial(n, p.probs, size=block_size).astype(np.float64)
    counts_q = rng.multinomial(n, q.probs, size=block_size).astype(np.float64)
    log_ratio, p_dead, q_dead = _swap_event_weights(p, q)
    stat = counts_q @ log_ratio - counts_p @ log_ratio
    stat = np.where(counts_q @ p_dead > 0, -np.inf, stat)
    stat = np.where(counts_p @ q_dead > 0, -np.inf, stat)
    return int((stat >= 0.0).sum())


def pairwise_error_exponent(p: FinitePmf, q: FinitePmf, n_grid: Sequence[int],
                            trials: int, seed: int,
                            workers: int = 1) -> ExponentFit:
    """Estimate the decay rate of the pairwise swap-event probability.

    For each blocklength the swap event (the two-row likelihood-ratio
    statistic being nonnegative) is estimated by Monte Carlo; the decay
    slope is fit over the grid points with enough observed events and
    compared against twice the Bhattacharyya distance.
    """
    dist = bhattacharyya(p, q)
    if not math.isfinite(dist) or dist <= 0.0:
        raise ValueError(
            f"the pair must have finite positive distance, got {dist}")
    grid = tuple(int(n) for n in n_grid)
    if len(grid) < 3:
        raise ValueError(f"n_grid needs at least 3 points, got {len(grid)}")
    if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise ValueError(f"n_grid must be strictly increasing and >= 1, got {grid}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    blocks = _trial_blocks(trials)
    # stream index packs (grid point, block) so every block is its own stream
    tasks = [(n, seed, g * 2**32 + b, size)
             for g, n in enumerate(grid) for b, size in blocks]
    hits = _map_blocks(partial(_run_swap_block, p, q), tasks, workers)
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
    x = np.asarray(xs)
    y = np.asarray(ys)
    xc = x - x.mean()
    slope = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
    return ExponentFit(n_grid=grid, trials=trials, errors=tuple(errors),
                       p_hats=p_hats, used=used, slope=slope,
                       target=2.0 * dist)
