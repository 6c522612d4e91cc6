import math
import warnings

import numpy as np
import pytest

import distid.exact
import distid.mc
from distid import FinitePmf, make_family, pairwise_error_exponent
from distid.exact import _binary_swap_prob, _binomial_pmfs
from distid.mc import _SWAP_TRIALS_PER_BLOCK, _run_swap_block, _swap_terms

from oracles import binomial_pmf, exact_swap_event_prob, exact_swap_event_prob_general

PAIR = make_family([(0.5, 0.5), (0.9, 0.1)])

BINARY_SWAP_PAIRS = [
    [(0.5, 0.5), (1.0, 0.0)], [(1.0, 0.0), (0.5, 0.5)],
    [(0.0, 1.0), (0.5, 0.5)], [(0.5, 0.5), (0.0, 1.0)],
    [(0.3, 0.7), (0.3 + 2e-9, 0.7 - 2e-9)],
    [(0.5, 0.5), (0.9, 0.1)],
]


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

    def test_trinomial_counts_are_the_sums_of_their_own_blocks(self):
        # three grid points of three blocks each, the last one short, folded
        # as the blocks end on three threads
        p, q = FinitePmf([0.5, 0.3, 0.2]), FinitePmf([0.2, 0.3, 0.5])
        grid, sizes = [3, 6, 9], [_SWAP_TRIALS_PER_BLOCK, _SWAP_TRIALS_PER_BLOCK, 100]
        fit = pairwise_error_exponent(p, q, grid, sum(sizes), seed=12, workers=3)
        terms = _swap_terms(p, q)
        assert fit.errors == tuple(
            sum(_run_swap_block(p, q, terms, n, 12, g * 2**32 + b, size)
                for b, size in enumerate(sizes)) for g, n in enumerate(grid))
        assert fit == pairwise_error_exponent(p, q, grid, sum(sizes), seed=12)

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


class TestBinarySwapProb:
    """The exact binary kernel against exact enumeration."""

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


def test_mc_binds_the_fit_that_the_bench_traces():
    # bench/layers.py traces mc.pairwise_error_exponent, and its tracer
    # wraps every module's binding of the traced function
    assert distid.mc.pairwise_error_exponent is distid.exact.pairwise_error_exponent
