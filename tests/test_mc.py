import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from distid import (
    FinitePmf,
    estimate_error_prob,
    make_family,
    pairwise_error_exponent,
    permutation_cycles,
)
from distid.decoder import loglik_from_counts
from distid.distributions import philox_stream
from distid.mc import (
    TRIALS_PER_BLOCK,
    _binary_swap_prob,
    _binomial_pmfs,
    _distinct_rows,
    _map_blocks,
    _run_error_block,
    _single_cycle,
    _swap_event,
    _swap_terms,
)

from oracles import (
    binomial_pmf,
    brute_force_decode,
    exact_pair_error_prob,
    exact_swap_event_prob,
    exact_swap_event_prob_general,
    possible_types,
    swap_events_exact,
)

PAIR = make_family([(0.5, 0.5), (0.9, 0.1)])

BINARY_SWAP_PAIRS = [
    [(0.5, 0.5), (1.0, 0.0)], [(1.0, 0.0), (0.5, 0.5)],
    [(0.0, 1.0), (0.5, 0.5)], [(0.5, 0.5), (0.0, 1.0)],
    [(0.3, 0.7), (0.3 + 2e-9, 0.7 - 2e-9)],
    [(0.5, 0.5), (0.9, 0.1)],
]


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


class TestMapBlocks:
    def test_results_come_back_in_task_order(self):
        # the first tasks take longest, so they finish last
        def task(i, delay):
            time.sleep(delay)
            return i * i
        tasks = [(i, 0.02 * (5 - i)) for i in range(6)]
        assert _map_blocks(task, tasks, 3) == [i * i for i in range(6)]

    def test_each_task_runs_once_with_more_workers_than_tasks(self, monkeypatch):
        started = []

        class CountedThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(threading, "Thread", CountedThread)
        ran = []
        assert _map_blocks(lambda i: ran.append(i) or -i, [(i,) for i in range(3)],
                           8) == [0, -1, -2]
        assert sorted(ran) == [0, 1, 2]
        assert len(started) == 2   # and the calling thread

    def test_many_tasks_on_more_threads_than_cores_run_once_each(self):
        # frequent thread switches, so a task handed out twice would show
        ran = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _map_blocks(lambda i: ran.append(i) or i, [(i,) for i in range(500)],
                                  8)
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(500)) and sorted(ran) == list(range(500))

    def test_the_calling_thread_runs_tasks_next_to_its_helpers(self):
        # each task waits until the other has started, so both run at once
        # on the call's two threads: the caller and one helper
        meet = threading.Barrier(2, timeout=10)

        def task(i):
            meet.wait()
            return threading.get_ident()
        idents = _map_blocks(task, [(0,), (1,)], 2)
        assert threading.get_ident() in idents and len(set(idents)) == 2

    def test_a_helper_that_cannot_start_leaves_its_tasks_to_the_others(self, monkeypatch):
        # the second start fails as it does when the process is out of threads
        def task(i):
            time.sleep(0.01)
            return i * i
        tasks = [(i,) for i in range(8)]
        serial = _map_blocks(task, tasks, 1)
        starts = []
        start = threading.Thread.start

        def start_once(thread):
            starts.append(thread)
            if len(starts) > 1:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", start_once)
        before = threading.active_count()
        assert _map_blocks(task, tasks, 4) == serial
        assert len(starts) == 2
        assert threading.active_count() == before

    def test_one_worker_or_one_task_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        assert _map_blocks(lambda i: i + 1, [(i,) for i in range(4)], 1) == [1, 2, 3, 4]
        assert _map_blocks(lambda i: i + 1, [(7,)], 4) == [8]

    def test_the_lowest_failing_task_raises_after_the_helpers_join(self):
        # task 3 fails at once and task 1 later; task 1's error is raised
        def task(i):
            if i == 1:
                time.sleep(0.05)
                raise ValueError("task 1")
            if i == 3:
                raise ValueError("task 3")
            return i
        before = threading.active_count()
        with pytest.raises(ValueError, match="task 1"):
            _map_blocks(task, [(i,) for i in range(4)], 4)
        assert threading.active_count() == before


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
                errors, _, _ = _run_error_block(fam, n, 7, 0, 1024)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
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
            errors, _, _ = _run_error_block(fam, 40, 0x5EED, 0, 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert errors == 1024
        assert peak < 5 * 2**20

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


class TestPairwiseErrorExponent:
    def test_rejects_equal_pmfs(self):
        p = PAIR[0]
        with pytest.raises(ValueError, match="positive distance"):
            pairwise_error_exponent(p, p, [10, 20, 30], 100, seed=1)

    def test_rejects_disjoint_supports(self):
        fam = make_family([(1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match="finite"):
            pairwise_error_exponent(fam[0], fam[1], [10, 20, 30], 100, seed=1)

    def test_rejects_short_grid(self):
        with pytest.raises(ValueError, match="3 points"):
            pairwise_error_exponent(PAIR[0], PAIR[1], [10, 20], 100, seed=1)

    def test_target_is_twice_the_distance(self):
        fit = pairwise_error_exponent(PAIR[0], PAIR[1], [4, 8, 12],
                                      20_000, seed=6)
        assert fit.target == pytest.approx(math.log(5.0 / 4.0), rel=1e-12)

    def test_event_probability_matches_exact(self):
        fit = pairwise_error_exponent(PAIR[0], PAIR[1], [5, 10, 15],
                                      50_000, seed=14)
        for n, p_hat in zip(fit.n_grid, fit.p_hats):
            exact = exact_swap_event_prob(0.5, 0.1, n)
            stderr = math.sqrt(exact * (1 - exact) / fit.trials)
            assert abs(p_hat - exact) <= 4 * stderr

    def test_estimates_centre_on_the_exact_values(self):
        # over 30 seeds the z-scores against the exact probability have
        # mean 0 within 4 standard errors and a spread near 1
        grid, trials, seeds = [10, 20, 30], 2**17, range(30)
        exact = np.array([exact_swap_event_prob(0.5, 0.1, n) for n in grid])
        p_hats = np.array([pairwise_error_exponent(PAIR[0], PAIR[1], grid, trials,
                                                   seed=s).p_hats for s in seeds])
        z = (p_hats - exact) / np.sqrt(exact * (1 - exact) / trials)
        assert np.all(np.abs(z.mean(axis=0)) <= 4 / math.sqrt(len(seeds)))
        assert np.all((0.5 < z.std(axis=0)) & (z.std(axis=0) < 1.5))

    @pytest.mark.parametrize("pmfs", [[(0.5, 0.5), (1.0, 0.0)],
                                      [(0.0, 1.0), (0.5, 0.5)]])
    def test_point_mass_row(self, pmfs):
        # the swap needs every draw of the fair row on the point mass's
        # symbol: probability 2^-n
        fam = make_family(pmfs)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = pairwise_error_exponent(fam[0], fam[1], [2, 4, 6, 8], 50_000, seed=3)
        for n, p_hat in zip(fit.n_grid, fit.p_hats):
            exact = 2.0**-n
            assert abs(p_hat - exact) <= 4 * math.sqrt(exact * (1 - exact) / fit.trials)

    @pytest.mark.parametrize("pmfs", [
        [(0.5, 0.3, 0.2), (0.2, 0.3, 0.5)],   # symbol 1 cancels, 0 and 2 mirror
        [(0.4, 0.4, 0.2), (0.1, 0.1, 0.8)],   # symbols 0 and 1 share a ratio
        [(0.5, 0.5, 0.0), (0.2, 0.3, 0.5)],   # a zero-probability symbol
        [(0.3, 0.6, 0.1), (0.1, 0.2, 0.7)],   # equal ratios with unequal logs
    ])
    def test_trinomial_pair_matches_exact_enumeration(self, pmfs):
        fam = make_family(pmfs)
        fit = pairwise_error_exponent(fam[0], fam[1], [4, 8, 12], 50_000, seed=15)
        for n, p_hat in zip(fit.n_grid, fit.p_hats):
            exact = exact_swap_event_prob_general(*pmfs, n)
            assert abs(p_hat - exact) <= 4 * math.sqrt(exact * (1 - exact) / fit.trials)

    def test_errors_at_the_criterion_config(self):
        # the criterion-11 `exponent` config at seed 0x5EED: a change meant to
        # keep the output bytes must keep these counts
        fit = pairwise_error_exponent(PAIR[0], PAIR[1], list(range(10, 81, 10)),
                                      1_000_000, seed=0x5EED, workers=2)
        assert fit.errors == (30024, 2323, 202, 14, 3, 0, 0, 0)

    def test_deterministic_and_worker_invariant(self):
        a = pairwise_error_exponent(PAIR[0], PAIR[1], [5, 10, 15],
                                    20_000, seed=6)
        b = pairwise_error_exponent(PAIR[0], PAIR[1], [5, 10, 15],
                                    20_000, seed=6, workers=4)
        assert a == b

    def test_slope_approaches_target(self):
        fit = pairwise_error_exponent(PAIR[0], PAIR[1],
                                      list(range(10, 41, 10)), 200_000, seed=4)
        assert abs(fit.slope - fit.target) / fit.target < 0.2

    def test_low_count_points_excluded(self):
        fit = pairwise_error_exponent(PAIR[0], PAIR[1],
                                      [5, 10, 60, 70], 5000, seed=5)
        assert fit.used[0] and fit.used[1]
        assert not fit.used[2] and not fit.used[3]

    def test_error_when_everything_too_rare(self):
        with pytest.raises(ValueError, match="too few"):
            pairwise_error_exponent(PAIR[0], PAIR[1], [200, 250, 300],
                                    1000, seed=5)


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

    @pytest.mark.parametrize("pmfs", BINARY_SWAP_PAIRS)
    def test_binary_kernel_matches_exact_enumeration(self, pmfs):
        p, q = (FinitePmf(x) for x in pmfs)
        for n in (1, 2, 5, 17, 40):
            exact = exact_swap_event_prob_general(*pmfs, n)
            assert _binary_swap_prob(p, q, n) == pytest.approx(exact, rel=1e-12, abs=0)

    def test_binary_kernel_refuses_a_window_past_the_cap(self):
        # n = 10^12 would sum 4.0e7 counts, past the cap of 2^22
        p, q = FinitePmf([0.5, 0.5]), FinitePmf([0.500001, 0.499999])
        with pytest.raises(ValueError, match=r"at n = 1000000000000 would sum 39729837 "):
            _binary_swap_prob(p, q, 10**12)


class TestBinomialPmf:
    @pytest.mark.parametrize("n,p0", [(10, 0.5), (80, 0.9), (400, 0.03),
                                      (5000, 0.5), (7, 0.0), (7, 1.0)])
    def test_matches_the_oracle(self, n, p0):
        pmf, = _binomial_pmfs(n, [np.array([p0, 1.0 - p0])], 0, n)
        assert np.abs(pmf - np.array(binomial_pmf(n, p0))).max() < 1e-12

    @pytest.mark.parametrize("n, first, last", [(40, 0, 40), (10**7, 4_990_000, 5_010_000),
                                                (10**9, 499_000_000, 499_000_300)])
    def test_bitwise_the_sum_over_a_list_of_log_choose(self, n, first, last):
        rows = [np.array([0.5, 0.5]), np.array([0.3, 0.7])]
        counts = np.arange(first, last + 1)
        top = math.lgamma(n + 1)
        log_choose = [top - math.lgamma(c + 1) - math.lgamma(n - c + 1)
                      for c in range(first, last + 1)]
        for pmf, (p0, p1) in zip(_binomial_pmfs(n, rows, first, last), rows):
            listed = np.exp(log_choose + counts * math.log(p0)
                            + (n - counts) * math.log(p1))
            assert pmf.tobytes() == listed.tobytes()
