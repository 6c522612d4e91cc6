import itertools
import math

import numpy as np
import pytest

from distid import (
    estimate_error_prob,
    make_family,
    pairwise_error_exponent,
    permutation_cycles,
)
from distid.decoder import loglik_from_counts, ml_decode
from distid.distributions import philox_stream
from distid.mc import TRIALS_PER_BLOCK

from oracles import exact_pair_error_prob, exact_swap_event_prob

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

    def test_two_mismatches_is_always_one_cycle(self):
        # any permutation moving exactly two indices is a single swap
        for size in range(2, 7):
            for perm in itertools.permutations(range(size)):
                if sum(p != i for i, p in enumerate(perm)) == 2:
                    assert len(permutation_cycles(list(perm))) == 1


def unscreened_estimate(family, n, trials, seed):
    """(errors, r_histogram, single-cycle errors) with ml_decode on every trial.

    Draws the same (seed, block) counts as estimate_error_prob but runs
    no identity screen.
    """
    size = len(family)
    errors, hist, single = 0, {}, 0
    for block, lo in enumerate(range(0, trials, TRIALS_PER_BLOCK)):
        block_size = min(TRIALS_PER_BLOCK, trials - lo)
        rng = philox_stream(seed, block)
        counts = np.stack([rng.multinomial(n, m.probs, size=block_size)
                           for m in family], axis=1)
        scores = loglik_from_counts(counts, family)
        for t in range(block_size):
            decoded = ml_decode(scores[t])
            wrong = int((decoded != np.arange(size)).sum())
            if wrong:
                errors += 1
                hist[wrong] = hist.get(wrong, 0) + 1
                single += len(permutation_cycles(decoded)) == 1
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
