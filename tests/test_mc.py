import itertools
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from distid import (
    FinitePmf,
    estimate_error_prob,
    make_family,
    permutation_cycles,
)
from distid.decoder import loglik_from_counts
from distid.distributions import philox_stream
from distid.mc import (
    TRIALS_PER_BLOCK,
    _distinct_rows,
    _run_error_block,
    _single_cycle,
    _sum_blocks,
    _swap_event,
    _swap_terms,
)

from oracles import (
    brute_force_decode,
    exact_pair_error_prob,
    possible_types,
    swap_events_exact,
)

PAIR = make_family([(0.5, 0.5), (0.9, 0.1)])

class TestPermutationCycles:
    def test_identity_has_no_cycles(self):
        assert permutation_cycles([0, 1, 2, 3]) == []

    def test_two_disjoint_swaps(self):
        assert permutation_cycles([1, 0, 3, 2]) == [[0, 1], [2, 3]]

    def test_single_three_cycle(self):
        assert permutation_cycles([1, 2, 0]) == [[0, 1, 2]]

    def test_mixed(self):
        assert permutation_cycles([0, 2, 1, 4, 5, 3]) == [[1, 2], [3, 4, 5]]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            permutation_cycles([0, 0, 1])

    def test_cycle_lengths_sum_to_mismatches(self):
        rng = philox_stream(70)
        for _ in range(200):
            size = int(rng.integers(2, 10))
            perm = rng.permutation(size)
            cycles = permutation_cycles(perm)
            mismatches = int((perm != np.arange(size)).sum())
            assert sum(len(c) for c in cycles) == mismatches
            assert all(len(c) >= 2 for c in cycles)
            assert all(c[0] == min(c) for c in cycles)

    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_single_cycle_flags_match_the_cycle_list(self, size):
        rng = philox_stream(61, size)
        perms = [np.arange(size), np.roll(np.arange(size), 1)]
        # random permutations, and random shuffles of a random subset,
        # which leave the other indices fixed
        for _ in range(300):
            perm = np.arange(size)
            subset = np.flatnonzero(rng.random(size) < rng.random())
            perm[subset] = rng.permutation(subset)
            perms += [rng.permutation(size), perm]
        perms = np.array(perms)
        assert _single_cycle(perms).tolist() == [
            len(permutation_cycles(p)) == 1 for p in perms]

    def test_two_mismatches_is_always_one_cycle(self):
        # any permutation moving exactly two indices is a single swap
        for size in range(2, 7):
            for perm in itertools.permutations(range(size)):
                if sum(p != i for i, p in enumerate(perm)) == 2:
                    assert len(permutation_cycles(list(perm))) == 1


class TestDistinctRows:
    @pytest.mark.parametrize("shape, low, high", [
        ((4096, 1), 0, 41),             # a binary block's symbol-0 counts
        ((500, 3), -2, 3),              # count differences
        ((1000, 1), 0, 10**15),         # more values than rows: ranked
        ((300, 6), -10**12, 10**12),    # ranked, and the keys ranked again
        ((60, 70), 0, 2),               # 2^70 keys: ranked on the way
        ((1, 4), 0, 3),
        ((5, 0), 0, 1),                 # no columns: one distinct row
    ])
    def test_matches_unique_rows(self, shape, low, high):
        rows = philox_stream(62, shape[1]).integers(low, high, size=shape)
        rows[1::3] = rows[::3][:len(rows[1::3])]   # plant repeats
        reps, inverse = _distinct_rows(rows)
        assert np.array_equal(rows[reps][inverse], rows)
        assert len(reps) == len({tuple(r) for r in rows.tolist()})

    def test_keys_that_would_wrap_stay_distinct(self):
        # 70 binary columns: unranked, the first column's digit 2^69 wraps
        # to 0 in int64; a column spanning 2^63 values: unranked, key 2
        # times that radix wraps to key 0
        wide = np.zeros((3, 70), dtype=np.int64)
        wide[1, 0] = 1
        wide[2] = 1
        span = np.array([[0, -2**62], [1, 2**62 - 1], [2, -2**62]])
        for rows in (wide, span):
            reps, inverse = _distinct_rows(rows)
            assert len(reps) == 3 and np.array_equal(rows[reps][inverse], rows)


def one_hot(i, size):
    """An int64 array of length size with a 1 at i: tasks that return these
    sum to all ones exactly when each task is added once."""
    hot = np.zeros(size, dtype=np.int64)
    hot[i] = 1
    return hot


class TestSumBlocks:
    def test_each_result_is_added_once(self):
        # the first tasks take longest, so they end last
        def task(i):
            time.sleep(0.02 * (5 - i))
            return one_hot(i, 6) * i * i
        assert _sum_blocks(task, 6, 3).tolist() == [i * i for i in range(6)]

    def test_each_task_runs_once_with_more_workers_than_tasks(self, monkeypatch):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        ran = []
        total = _sum_blocks(lambda i: ran.append(i) or one_hot(i, 3), 3, 8)
        assert total.tolist() == [1, 1, 1]
        assert sorted(ran) == [0, 1, 2]
        assert len(started) == 2   # and the calling thread

    def test_many_tasks_on_more_threads_than_cores_run_once_each(self):
        # frequent thread switches, so a task handed out twice, or a running
        # total updated by two threads at once, would show
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            total = _sum_blocks(lambda i: ran.append(i) or one_hot(i, 500), 500, 8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(500)) and total.tolist() == [1] * 500

    def test_random_tasks_sum_alike_at_any_worker_count(self):
        arrays = np.random.default_rng(29).integers(-2**40, 2**40, size=(37, 3, 5))
        for workers in (1, 2, 8):
            total = _sum_blocks(lambda i: arrays[i], len(arrays), workers)
            assert np.array_equal(total, arrays.sum(axis=0))

    def test_the_calling_thread_runs_tasks_next_to_its_helpers(self):
        # each task waits until the other has started, so both run at once
        # on the call's two threads: the caller and one helper
        meet = threading.Barrier(2, timeout=10)
        caller = threading.get_ident()

        def task(i):
            meet.wait()
            return np.array([threading.get_ident() == caller, 1])
        assert _sum_blocks(task, 2, 2).tolist() == [1, 2]

    def test_a_helper_that_cannot_start_leaves_its_tasks_to_the_others(self, monkeypatch):
        # the second start fails as it does when the process is out of threads
        def task(i):
            time.sleep(0.01)
            return one_hot(i, 8) * i * i
        serial = _sum_blocks(task, 8, 1)
        starts = []
        start = threading.Thread.start

        def start_once(thread):
            starts.append(thread)
            if len(starts) > 1:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        before = threading.active_count()
        assert _sum_blocks(task, 8, 4).tolist() == serial.tolist() == [i * i for i in range(8)]
        assert len(starts) == 2
        assert threading.active_count() == before

    def test_one_worker_or_one_task_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        ran = []
        assert _sum_blocks(lambda i: ran.append(i) or one_hot(i, 4) * (i + 1), 4, 1
                           ).tolist() == [1, 2, 3, 4]
        assert ran == [0, 1, 2, 3]   # in order, on the calling thread
        assert _sum_blocks(lambda i: one_hot(i, 1) * 7, 1, 4).tolist() == [7]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_the_lowest_failing_task_raises_after_the_helpers_join(self, workers):
        # on four threads task 3 fails at once and task 1 later; task 1's
        # error is raised.  On one, task 1 fails first and no task after it starts
        ran = []

        def task(i):
            ran.append(i)
            if i == 1:
                time.sleep(0.05)
                raise ValueError("task 1")
            if i == 3:
                raise ValueError("task 3")
            return one_hot(i, 4)
        before = threading.active_count()
        with pytest.raises(ValueError, match="task 1"):
            _sum_blocks(task, 4, workers)
        assert threading.active_count() == before
        if workers == 1:
            assert ran == [0, 1]


def sorted_decode(counts):
    """ML decodes of binary-grid count matrices, (B, A, 2) -> (B, A).

    Members are in increasing order of P(symbol 0), and the score
    c0 log t + (n - c0) log(1 - t) is strictly supermodular in (c0, t),
    so the ML assignment ranks rows by their symbol-0 count; rows with
    equal counts are interchangeable and take increasing columns under
    the lexicographic tie rule, which a stable sort gives.
    """
    order = np.argsort(counts[:, :, 0], axis=1, kind="stable")
    mapping = np.empty_like(order)
    np.put_along_axis(mapping, order, np.arange(counts.shape[1]), axis=1)
    return mapping


def unscreened_estimate(family, n, trials, seed):
    """(errors, r_histogram, single-cycle errors), decoding every trial.

    Draws the same (seed, block) counts as estimate_error_prob and decodes
    every trial of a binary-grid family with sorted_decode, so neither the
    scoring sub-chunks nor ml_decode are involved.  On the
    first trials of each block the result is checked against
    brute_force_decode; enumerating all A! mappings of every trial would
    take minutes at A = 8.
    """
    size = len(family)
    errors, hist, single = 0, {}, 0
    for block, lo in enumerate(range(0, trials, TRIALS_PER_BLOCK)):
        block_size = min(TRIALS_PER_BLOCK, trials - lo)
        rng = philox_stream(seed, block)
        counts = np.stack([rng.multinomial(n, m.probs, size=block_size)
                           for m in family], axis=1)
        decoded = sorted_decode(counts)
        scores = loglik_from_counts(counts[:8], family)
        for matrix, mapping in zip(scores, decoded):
            assert brute_force_decode(matrix) == mapping.tolist()
        for mapping in decoded:
            wrong = int((mapping != np.arange(size)).sum())
            if wrong:
                errors += 1
                hist[wrong] = hist.get(wrong, 0) + 1
                single += len(permutation_cycles(mapping)) == 1
    return errors, hist, single


class TestEstimateErrorProb:
    def test_disjoint_supports_never_err(self):
        fam = make_family([(1.0, 0.0), (0.0, 1.0)])
        est = estimate_error_prob(fam, 4, 500, seed=1)
        assert est.errors == 0 and est.p_hat == 0.0
        assert est.stderr == 1.0 / 500 and est.stderr_is_placeholder
        assert est.r_histogram == {} and est.single_cycle_fraction == 0.0

    def test_reproducible(self):
        est1 = estimate_error_prob(PAIR, 10, 5000, seed=42)
        est2 = estimate_error_prob(PAIR, 10, 5000, seed=42)
        assert est1 == est2
        assert est1 != estimate_error_prob(PAIR, 10, 5000, seed=43)

    def test_worker_count_does_not_change_result(self):
        for workers in (2, 3, 7):
            assert (estimate_error_prob(PAIR, 10, 10_000, seed=5)
                    == estimate_error_prob(PAIR, 10, 10_000, seed=5,
                                           workers=workers))

    def test_histogram_consistency(self):
        fam = make_family({"kind": "binary-grid", "size": 4,
                           "theta_min": 0.3, "theta_max": 0.7})
        est = estimate_error_prob(fam, 4, 4000, seed=9)
        assert est.errors > 0
        assert sum(est.r_histogram.values()) == est.errors
        assert all(2 <= r <= 4 for r in est.r_histogram)
        assert 0.0 <= est.single_cycle_fraction <= 1.0
        assert est.p_hat == est.errors / est.trials
        assert est.stderr == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials), rel=1e-15)

    def test_pair_errors_are_single_swaps(self):
        est = estimate_error_prob(PAIR, 5, 4000, seed=2)
        assert est.errors > 0
        assert set(est.r_histogram) == {2}
        assert est.single_cycle_fraction == 1.0

    def test_near_indistinguishable_pair(self):
        # with a sup gap of 1e-6 the decoder is essentially guessing; ties
        # (equal counts) break to the true assignment, which at n=5 removes
        # C(10,5)/4^5 of the mass from the error side
        fam = make_family([(0.5, 0.5), (0.5 + 1e-6, 0.5 - 1e-6)])
        est = estimate_error_prob(fam, 5, 4000, seed=3)
        assert est.p_hat == 0.37225  # frozen for this generator
        tie_mass = math.comb(10, 5) / 4**5
        assert abs(est.p_hat - (1 - tie_mass) / 2) < 3 * est.stderr

    @pytest.mark.parametrize("size,n_values,trials", [(4, (10, 40), 6000),
                                                      (8, (10, 40), 4500)])
    def test_screen_leaves_estimates_unchanged(self, size, n_values, trials):
        fam = make_family({"kind": "binary-grid", "size": size,
                           "theta_min": 0.1, "theta_max": 0.9})
        for n in n_values:
            est = estimate_error_prob(fam, n, trials, seed=21)
            errors, hist, single = unscreened_estimate(fam, n, trials, seed=21)
            assert 0 < est.errors < trials
            assert (est.errors, est.r_histogram) == (errors, hist)
            assert est.single_cycle_fraction == single / errors

    def test_tie_heavy_large_family_is_pinned(self):
        # binary-grid A = 32 at n = 40: every trial is an error, with many
        # identical count rows; a change to the assignment solve or the tie
        # rule that moves any mapping shows here
        fam = make_family({"kind": "binary-grid", "size": 32,
                           "theta_min": 0.1, "theta_max": 0.9})
        est = estimate_error_prob(fam, 40, 256, seed=0x5EED)
        assert est.errors == 256 and est.single_cycle_fraction == 0.0
        assert est.r_histogram == {16: 1, 17: 2, 18: 3, 19: 8, 20: 5, 21: 10,
                                   22: 22, 23: 25, 24: 34, 25: 40, 26: 30,
                                   27: 37, 28: 22, 29: 11, 30: 5, 32: 1}

    def test_block_memory_is_bounded_by_the_sub_chunks(self):
        # scoring and decoding one (1024, 32, 32) block: the score stack is
        # 8 MiB; scoring the whole block at once would peak near 35 MiB.
        # At n = 20 most trials are errors and the tie search runs on many
        # of them; at n = 400 none is, and every trial decodes to the
        # identity
        fam = make_family({"kind": "random-simplex", "size": 32, "alphabet": 8,
                           "seed": 3})
        for n in (20, 400):
            tracemalloc.start()
            try:
                counts = _run_error_block(fam, n, 7, 0, 1024)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            errors = counts[:, 1:].sum()   # trials with misassigned rows
            assert errors > 512 if n == 20 else errors == 0
            assert peak < 16 * 2**20

    def test_tie_heavy_block_memory_follows_the_distinct_count_rows(self):
        # binary-grid A = 32 at n = 40, 1024 trials: at most 41 distinct
        # count rows, so the block holds no (1024, 32, 32) score stack
        # (8 MiB); it peaked near 11.5 MiB when it did
        fam = make_family({"kind": "binary-grid", "size": 32,
                           "theta_min": 0.1, "theta_max": 0.9})
        tracemalloc.start()
        try:
            counts = _run_error_block(fam, 40, 0x5EED, 0, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts[:, 1:].sum() == 1024
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_the_trials(self, monkeypatch, workers):
        # each block's counts join running totals as the block ends; keeping
        # every block's result tuple and histogram to the end held about
        # 450 bytes a block, 135-185 KB more at 2^21 trials (512 blocks)
        # than at 2^16.  Blocks run one at a time, so the block peaks of two
        # threads never add up, and the peak shows what the dispatch holds
        fam = make_family({"kind": "binary-grid", "size": 2,
                           "theta_min": 0.1, "theta_max": 0.9})
        one_block = threading.Lock()

        def run_block(*args):
            with one_block:
                return _run_error_block(*args)

        monkeypatch.setattr("distid.mc._run_error_block", run_block)
        estimate_error_prob(fam, 1, 2 * TRIALS_PER_BLOCK, seed=5, workers=workers)
        peaks = []
        for trials in (2**16, 2**21):
            tracemalloc.start()
            try:
                estimate_error_prob(fam, 1, trials, seed=5, workers=workers)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 64 * 2**10

    def test_matches_exact_enumeration(self):
        est = estimate_error_prob(PAIR, 12, 20_000, seed=8)
        exact = exact_pair_error_prob(PAIR, 12)
        assert abs(est.p_hat - exact) <= 3 * est.stderr

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            estimate_error_prob(PAIR, 5, 0, seed=1)
        with pytest.raises(ValueError, match="blocklength"):
            estimate_error_prob(PAIR, 0, 10, seed=1)
        with pytest.raises(ValueError, match="workers"):
            estimate_error_prob(PAIR, 5, 10, seed=1, workers=0)


class TestSwapDecisions:
    """The swap rules against exact likelihood products."""

    @pytest.mark.parametrize("pmfs,n", [
        ([(0.2, 0.4, 0.4), (0.1, 0.1, 0.8)], 12),      # ratios 2, 4, 1/2
        ([(0.3, 0.6, 0.1), (0.1, 0.2, 0.7)], 6),       # two equal ratios
        ([(0.3, 0.6, 0.1), (0.1, 0.2, 0.7)], 12),
        ([(0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4)], 6),
        ([(0.5, 0.3, 0.2), (0.2, 0.3, 0.5)], 12),
        ([(0.4, 0.4, 0.2), (0.1, 0.1, 0.8)], 12),
        ([(0.5, 0.5, 0.0), (0.2, 0.3, 0.5)], 12),
        # ratios related by products: 2.5 = 2 x 1.25, and 8/3 x 1.5 = 4
        ([(0.25, 0.125, 0.5, 0.125), (0.3125, 0.3125, 0.1875, 0.1875)], 6),
        ([(0.4, 0.05, 0.2, 0.35), (0.2, 0.15, 0.35, 0.3)], 6),
        # mirrored near-equal rows: reciprocal ratios whose logs are tiny
        ([(0.3, 0.3 + 1e-7, 0.4 - 1e-7), (0.3 + 1e-7, 0.3, 0.4 - 1e-7)], 6),
        ([(0.3, 0.3 + 3e-7, 0.4 - 3e-7), (0.3 + 3e-7, 0.3, 0.4 - 3e-7)], 6),
        ([(0.3, 0.3 + 2e-9, 0.4 - 2e-9), (0.3 + 2e-9, 0.3, 0.4 - 2e-9)], 6),
    ])
    def test_multinomial_rule_on_every_type_pair(self, pmfs, n):
        p, q = (FinitePmf(x) for x in pmfs)
        types_p, types_q = possible_types(n, pmfs[0]), possible_types(n, pmfs[1])
        counts_p, counts_q = (np.array(side) for side in
                              zip(*itertools.product(types_p, types_q)))
        decided = _swap_event(p, q, _swap_terms(p, q), counts_p, counts_q)
        exact = np.array(swap_events_exact(*pmfs, types_p, types_q)).ravel()
        assert np.count_nonzero(decided != exact) == 0
