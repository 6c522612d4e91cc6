import itertools
import math
import tracemalloc

import numpy as np
import pytest

from distid import (
    NoFeasibleAssignmentError,
    ObservationBatch,
    exhaustive_decode,
    log_likelihood_matrix,
    make_family,
    ml_decode,
)
from distid import decoder
from distid.decoder import certify_identity, loglik_from_counts
from distid.distributions import philox_stream

INF = math.inf


class TestLogLikelihoodMatrix:
    def test_degenerate_vs_uniform(self):
        fam = make_family([(1.0, 0.0), (0.5, 0.5)])
        batch = ObservationBatch([[0, 0], [0, 0]], alphabet_size=2)
        scores = log_likelihood_matrix(batch, fam)
        expected = 2.0 * math.log(0.5)
        for i in range(2):
            assert scores[i, 0] == 0.0
            assert scores[i, 1] == expected

    def test_zero_probability_symbol(self):
        fam = make_family([(1.0, 0.0), (0.5, 0.5)])
        batch = ObservationBatch([[1], [0]], alphabet_size=2)
        scores = log_likelihood_matrix(batch, fam)
        assert scores[0, 0] == -INF
        assert scores[0, 1] == math.log(0.5)

    def test_direct_evaluation(self):
        fam = make_family([(0.9, 0.1), (0.2, 0.8)])
        batch = ObservationBatch([[0], [1]], alphabet_size=2)
        scores = log_likelihood_matrix(batch, fam)
        expected = [[math.log(0.9), math.log(0.2)],
                    [math.log(0.1), math.log(0.8)]]
        np.testing.assert_allclose(scores, expected, rtol=1e-15)

    def test_row_count_mismatch(self):
        fam = make_family([(0.9, 0.1), (0.2, 0.8)])
        batch = ObservationBatch([[0], [1], [0]], alphabet_size=2)
        with pytest.raises(ValueError, match="rows"):
            log_likelihood_matrix(batch, fam)

    def test_alphabet_mismatch(self):
        fam = make_family([(0.9, 0.1), (0.2, 0.8)])
        batch = ObservationBatch([[0], [2]], alphabet_size=3)
        with pytest.raises(ValueError, match="alphabet"):
            log_likelihood_matrix(batch, fam)


class TestMlDecode:
    def test_diagonal_dominant(self):
        assert ml_decode([[0, -10], [-10, 0]]).tolist() == [0, 1]

    def test_antidiagonal_dominant(self):
        assert ml_decode([[-10, 0], [0, -10]]).tolist() == [1, 0]

    def test_all_equal_breaks_to_identity(self):
        assert ml_decode([[0.0, 0.0], [0.0, 0.0]]).tolist() == [0, 1]
        assert ml_decode(np.zeros((4, 4))).tolist() == [0, 1, 2, 3]

    def test_near_tie_inside_the_gate_is_not_a_tie(self):
        # the identity's edges are tight, but it loses by 1e-12
        assert ml_decode([[-1e-12, 0.0], [0.0, 0.0]]).tolist() == [1, 0]
        assert ml_decode([[1.0, 1.0, 0.0], [1.0, 1.0 - 1e-12, 0.0],
                          [0.0, 0.0, 1.0]]).tolist() == [1, 0, 2]

    def test_near_tie_beside_an_exact_tie(self):
        # [2, 0, 1] and [0, 1, 2] tie exactly; [0, 2, 1] loses by 1e-12
        # though all its edges are tight, so row 0's move to column 0 must
        # take the exact cycle, not the first tight one
        scores = np.array([[0.0, -5.0, 1.0], [0.0, 0.0, 1.0 - 1e-12],
                           [-5.0, 0.0, 1.0]])
        assert ml_decode(scores).tolist() == [0, 1, 2]
        for rows in itertools.permutations(range(3)):
            for cols in itertools.permutations(range(3)):
                permuted = scores[list(rows)][:, list(cols)]
                assert ml_decode(permuted).tolist() == brute_force_decode(permuted)

    def test_forbidden_edge_never_looks_cheaper(self):
        # the only finite permutation scores -20, below the -inf-using
        # identity's finite part 5
        assert ml_decode([[5.0, -10.0], [-10.0, -INF]]).tolist() == [1, 0]

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            ml_decode([[0.0, float("nan")], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ml_decode([[0.0, 1.0, 2.0], [0.0, 1.0, 2.0]])

    def test_all_infeasible(self):
        with pytest.raises(NoFeasibleAssignmentError):
            ml_decode([[-INF, -INF], [-INF, -INF]])

    def test_forced_by_infeasibility(self):
        # the only permutation avoiding -inf is [1, 0] despite worse scores
        scores = [[-INF, -5.0], [100.0, -INF]]
        assert ml_decode(scores).tolist() == [1, 0]

    def test_never_uses_minus_inf_when_finite_exists(self):
        rng = philox_stream(31)
        for _ in range(200):
            size = int(rng.integers(2, 6))
            scores = rng.normal(size=(size, size)) * 10.0
            # plant -inf on a random half of the entries, keep identity finite
            mask = rng.random((size, size)) < 0.5
            np.fill_diagonal(mask, False)
            scores[mask] = -INF
            decoded = ml_decode(scores)
            assert all(scores[i, decoded[i]] > -INF for i in range(size))

    def test_row_and_column_shift_invariance(self):
        rng = philox_stream(32)
        for _ in range(50):
            size = int(rng.integers(2, 6))
            scores = rng.normal(size=(size, size))
            base = ml_decode(scores)
            shifted = (scores + rng.normal(size=(size, 1))
                       + rng.normal(size=(1, size)))
            assert np.array_equal(ml_decode(shifted), base)

    def test_output_is_permutation(self):
        rng = philox_stream(33)
        for _ in range(100):
            size = int(rng.integers(2, 9))
            decoded = ml_decode(rng.normal(size=(size, size)))
            assert sorted(decoded.tolist()) == list(range(size))


class TestExhaustiveDecode:
    def test_examples(self):
        assert exhaustive_decode([[0, -10], [-10, 0]]).tolist() == [0, 1]
        assert exhaustive_decode([[0.0, 0.0], [0.0, 0.0]]).tolist() == [0, 1]

    def test_size_guard(self):
        with pytest.raises(ValueError, match="<= 10"):
            exhaustive_decode(np.zeros((11, 11)))

    def test_all_infeasible(self):
        with pytest.raises(NoFeasibleAssignmentError):
            exhaustive_decode([[-INF, -INF], [-INF, -INF]])


class TestOracleEquivalence:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_random_matrices(self, size):
        rng = philox_stream(40, size)
        for _ in range(150):
            scores = rng.normal(size=(size, size)) * 5.0
            assert np.array_equal(ml_decode(scores), exhaustive_decode(scores))

    def test_random_5x5_matches_oracle(self):
        rng = philox_stream(41)
        for _ in range(100):
            scores = rng.normal(size=(5, 5))
            assert np.array_equal(ml_decode(scores), exhaustive_decode(scores))

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_integer_matrices_with_ties(self, size):
        # small integer ranges force frequent exact score ties
        rng = philox_stream(42, size)
        for _ in range(300):
            scores = rng.integers(0, 3, size=(size, size)).astype(float)
            assert np.array_equal(ml_decode(scores), exhaustive_decode(scores))

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_matrices_with_infeasible_entries(self, size):
        rng = philox_stream(43, size)
        for _ in range(200):
            scores = rng.normal(size=(size, size))
            mask = rng.random((size, size)) < 0.3
            scores[mask] = -INF
            try:
                expected = exhaustive_decode(scores)
            except NoFeasibleAssignmentError:
                with pytest.raises(NoFeasibleAssignmentError):
                    ml_decode(scores)
                continue
            assert np.array_equal(ml_decode(scores), expected)

    def test_tied_integer_matrices_with_infeasible_entries(self):
        rng = philox_stream(44)
        for _ in range(300):
            size = int(rng.integers(2, 6))
            scores = rng.integers(0, 2, size=(size, size)).astype(float)
            mask = rng.random((size, size)) < 0.25
            scores[mask] = -INF
            try:
                expected = exhaustive_decode(scores)
            except NoFeasibleAssignmentError:
                with pytest.raises(NoFeasibleAssignmentError):
                    ml_decode(scores)
                continue
            assert np.array_equal(ml_decode(scores), expected)


def tie_prone_family(kind, size):
    """Binary grid on [0, 1] (with -inf scores) or a random simplex on m = 3."""
    if kind == "binary-grid":
        return make_family({"kind": kind, "size": size,
                            "theta_min": 0.0, "theta_max": 1.0})
    return make_family({"kind": kind, "size": size, "alphabet": 3, "seed": size})


def count_scores(family, n, trials, seed):
    """(trials, A, A) scores from multinomial counts, row i drawn from member i."""
    rng = philox_stream(seed, n)
    counts = np.stack([rng.multinomial(n, m.probs, size=trials) for m in family],
                      axis=1)
    return counts, loglik_from_counts(counts, family)


def brute_force_decode(scores):
    """Lexicographically smallest maximizer, by enumeration and fsum.

    Written here rather than taken from exhaustive_decode, which shares
    its score sum with ml_decode.
    """
    rows = np.asarray(scores).tolist()
    best, best_perm = -INF, None
    for perm in itertools.permutations(range(len(rows))):
        total = math.fsum([row[j] for row, j in zip(rows, perm)])
        if total > best:  # permutations come in lexicographic order
            best, best_perm = total, list(perm)
    return best_perm


class TestCountDerivedScores:
    @pytest.mark.parametrize("decode", [ml_decode, exhaustive_decode])
    @pytest.mark.parametrize("kind", ["binary-grid", "random-simplex"])
    def test_matches_brute_force_oracle(self, kind, decode):
        # identical count rows tie exactly; which tied mapping wins must
        # not depend on the order the scores are summed in
        for size in range(2, 8):
            family = tie_prone_family(kind, size)
            for n in (1, 2, 3, 5):
                _, scores = count_scores(family, n, 128 if size < 7 else 32,
                                         seed=70 + size)
                for matrix in scores:
                    assert decode(matrix).tolist() == brute_force_decode(matrix)

    def test_one_assignment_solve_per_decode(self, monkeypatch):
        family = make_family({"kind": "binary-grid", "size": 32,
                              "theta_min": 0.1, "theta_max": 0.9})
        counts, scores = count_scores(family, 40, 48, seed=80)
        # every trial has rows with identical counts
        assert all(len(np.unique(c, axis=0)) < 32 for c in counts)
        solves = []
        solve = decoder._solve_min_cost
        monkeypatch.setattr(decoder, "_solve_min_cost",
                            lambda cost: solves.append(1) or solve(cost))
        for matrix in scores:
            assert sorted(ml_decode(matrix).tolist()) == list(range(32))
        assert len(solves) == len(scores)


class TestCertifyIdentity:
    @pytest.mark.parametrize("kind", ["binary-grid", "random-simplex"])
    def test_certified_trials_decode_to_identity(self, kind):
        # exhaustive_decode is the oracle: it never goes through ml_decode
        certified = 0
        for size in range(2, 8):
            family = tie_prone_family(kind, size)
            for n in (1, 2, 3, 5, 10):
                _, scores = count_scores(family, n, 1024 if size < 7 else 256,
                                         seed=50 + size)
                for t in np.flatnonzero(certify_identity(scores)):
                    assert exhaustive_decode(scores[t]).tolist() == list(range(size))
                    certified += 1
        assert certified > 5000

    def test_identical_count_rows_are_never_certified(self):
        family = make_family({"kind": "random-simplex", "size": 5,
                              "alphabet": 3, "seed": 3})
        rng = philox_stream(51)
        for n in (2, 10, 40):
            counts, _ = count_scores(family, n, 256, seed=52)
            for t in range(len(counts)):
                i, j = rng.choice(5, size=2, replace=False)
                counts[t, j] = counts[t, i]
            assert not certify_identity(loglik_from_counts(counts, family)).any()

    def test_exact_and_near_ties_are_never_certified(self):
        ties = [
            np.zeros((3, 3)),
            # only the 3-cycle (0 2 1) ties; every 2-cycle loses by 1
            [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            [[-2.0, -INF, -2.0], [-2.0, -2.0, -INF], [-INF, -2.0, -2.0]],
            [[-5.0, -5.0 - 1e-13], [-7.0, -7.0 + 1e-13]],
            [[0.0, -1e-12, -1.0], [0.0, 0.0, -1.0], [-1.0, -1.0, 0.0]],
            [[0.0, -1.0, -1e-12], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]],
        ]
        for matrix in ties:
            assert not certify_identity(np.asarray(matrix)[None]).any()

    def test_infeasible_or_invalid_diagonal_is_left_to_the_decoder(self):
        block = np.array([[[-INF, -1.0], [-1.0, 0.0]],
                          [[0.0, INF], [-1.0, 0.0]],
                          [[0.0, np.nan], [-1.0, 0.0]],
                          [[0.0, -INF], [-INF, 0.0]],
                          [[0.0, -1.0], [-1.0, 0.0]]])
        assert certify_identity(block).tolist() == [False, False, False, True, True]

    def test_clear_winners_are_certified(self):
        rng = philox_stream(53)
        scores = -rng.random((300, 6, 6)) - 1.0
        scores[:, np.arange(6), np.arange(6)] = 0.0
        assert certify_identity(scores).all()

    def test_peak_memory_is_bounded_by_the_sub_chunks(self):
        # every trial passes the 2-cycle check, so the O(A^3) pass runs on
        # the whole block; unchunked, a single (1024, 32, 32) temporary
        # would already take 8 MiB
        rng = philox_stream(54)
        scores = -rng.random((1024, 32, 32)) - 1.0
        scores[:, np.arange(32), np.arange(32)] = 0.0
        tracemalloc.start()
        try:
            certified = certify_identity(scores)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert certified.all()
        assert peak < 2 * 2**20
