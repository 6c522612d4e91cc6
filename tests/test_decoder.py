import itertools
import math

import numpy as np
import pytest

from distid import (
    NoFeasibleAssignmentError,
    exhaustive_decode,
    make_family,
    ml_decode,
)
from distid import decoder
from distid.decoder import loglik_from_counts
from distid.distributions import philox_stream

from oracles import exact_decodes

INF = math.inf


class TestLogLikelihoodMatrix:
    def test_degenerate_vs_uniform(self):
        fam = make_family([(1.0, 0.0), (0.5, 0.5)])
        scores = loglik_from_counts(np.array([[2, 0], [2, 0]]), fam)
        expected = 2.0 * math.log(0.5)
        for i in range(2):
            assert scores[i, 0] == 0.0
            assert scores[i, 1] == expected

    def test_zero_probability_symbol(self):
        fam = make_family([(1.0, 0.0), (0.5, 0.5)])
        scores = loglik_from_counts(np.array([[0, 1], [1, 0]]), fam)
        assert scores[0, 0] == -INF
        assert scores[0, 1] == math.log(0.5)

    @pytest.mark.parametrize("theta", [(0.1, 0.9), (0.0, 1.0)])
    def test_float_counts_score_like_integer_counts(self, theta):
        # Monte Carlo draws its counts into float64; the bytes must not move,
        # with and without zero-probability symbols
        family = make_family({"kind": "binary-grid", "size": 9,
                              "theta_min": theta[0], "theta_max": theta[1]})
        counts, scores = count_scores(family, 6, 200, seed=47)
        from_float = loglik_from_counts(counts.astype(np.float64), family)
        assert from_float.tobytes() == scores.tobytes()
        assert np.isneginf(scores).any() == (theta[0] == 0.0)

    def test_direct_evaluation(self):
        fam = make_family([(0.9, 0.1), (0.2, 0.8)])
        scores = loglik_from_counts(np.array([[1, 0], [0, 1]]), fam)
        expected = [[math.log(0.9), math.log(0.2)],
                    [math.log(0.1), math.log(0.8)]]
        np.testing.assert_allclose(scores, expected, rtol=1e-15)


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
        for size in range(2, 6):
            scores = rng.normal(size=(50, size, size)) * 10.0
            # plant -inf on a random half of the entries, keep identity finite
            mask = rng.random(scores.shape) < 0.5
            mask[:, np.arange(size), np.arange(size)] = False
            scores[mask] = -INF
            decoded = ml_decode(scores)
            assert (np.take_along_axis(scores, decoded[:, :, None], axis=2) > -INF).all()

    def test_row_and_column_shift_invariance(self):
        rng = philox_stream(32)
        for size in range(2, 6):
            scores = rng.normal(size=(12, size, size))
            shifted = (scores + rng.normal(size=(12, size, 1))
                       + rng.normal(size=(12, 1, size)))
            assert np.array_equal(ml_decode(shifted), ml_decode(scores))

    def test_output_is_permutation(self):
        rng = philox_stream(33)
        for size in range(2, 9):
            decoded = ml_decode(rng.normal(size=(15, size, size)))
            assert (np.sort(decoded, axis=1) == np.arange(size)).all()


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


def assert_matches_exhaustive(stack):
    """ml_decode on the feasible matrices of a stack, as one stack, equals
    exhaustive_decode on each; each infeasible matrix raises on its own."""
    expected, feasible = [], []
    for matrix in stack:
        try:
            expected.append(exhaustive_decode(matrix).tolist())
            feasible.append(matrix)
        except NoFeasibleAssignmentError:
            with pytest.raises(NoFeasibleAssignmentError):
                ml_decode(matrix)
    assert ml_decode(np.array(feasible)).tolist() == expected


class TestOracleEquivalence:
    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_random_matrices(self, size):
        rng = philox_stream(40, size)
        assert_matches_exhaustive(rng.normal(size=(150, size, size)) * 5.0)

    def test_random_5x5_matches_oracle(self):
        rng = philox_stream(41)
        assert_matches_exhaustive(rng.normal(size=(100, 5, 5)))

    @pytest.mark.parametrize("size", [2, 3, 4, 5])
    def test_integer_matrices_with_ties(self, size):
        # small integer ranges force frequent exact score ties
        rng = philox_stream(42, size)
        assert_matches_exhaustive(
            rng.integers(0, 3, size=(300, size, size)).astype(float))

    @pytest.mark.parametrize("size", [3, 4, 5])
    def test_matrices_with_infeasible_entries(self, size):
        rng = philox_stream(43, size)
        scores = rng.normal(size=(200, size, size))
        scores[rng.random(scores.shape) < 0.3] = -INF
        assert_matches_exhaustive(scores)

    def test_tied_integer_matrices_with_infeasible_entries(self):
        rng = philox_stream(44)
        for size in range(2, 6):
            scores = rng.integers(0, 2, size=(75, size, size)).astype(float)
            scores[rng.random(scores.shape) < 0.25] = -INF
            assert_matches_exhaustive(scores)
        # hand-built exact and near ties around the identity
        for matrix in [
            np.zeros((3, 3)),
            # only the 3-cycle (0 2 1) ties; every 2-cycle loses by 1
            [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
            [[-2.0, -INF, -2.0], [-2.0, -2.0, -INF], [-INF, -2.0, -2.0]],
            [[-5.0, -5.0 - 1e-13], [-7.0, -7.0 + 1e-13]],
            [[0.0, -1e-12, -1.0], [0.0, 0.0, -1.0], [-1.0, -1.0, 0.0]],
            [[0.0, -1.0, -1e-12], [0.0, 0.0, -1.0], [-1.0, 0.0, 0.0]],
        ]:
            assert_matches_exhaustive(np.asarray(matrix)[None])
        # clear winners: every other permutation loses by more than 1
        clear = -philox_stream(53).random((300, 6, 6)) - 1.0
        clear[:, np.arange(6), np.arange(6)] = 0.0
        assert_matches_exhaustive(clear)
        assert (ml_decode(clear) == np.arange(6)).all()


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
                expected = [brute_force_decode(matrix) for matrix in scores]
                if decode is ml_decode:
                    assert decode(scores).tolist() == expected
                else:
                    assert [decode(matrix).tolist() for matrix in scores] == expected

    def test_one_assignment_solve_per_decode(self, monkeypatch):
        family = make_family({"kind": "binary-grid", "size": 32,
                              "theta_min": 0.1, "theta_max": 0.9})
        counts, scores = count_scores(family, 40, 48, seed=80)
        # every trial has rows with identical counts
        assert all(len(np.unique(c, axis=0)) < 32 for c in counts)
        solves = []
        solve = decoder._solve_lockstep
        monkeypatch.setattr(decoder, "_solve_lockstep",
                            lambda *args: solves.append(1) or solve(*args))
        decoded = ml_decode(scores)
        assert all(sorted(d) == list(range(32)) for d in decoded.tolist())
        assert len(solves) == 1


class TestIdenticalRowTies:
    def count_refines(self, monkeypatch):
        calls = []
        refine = decoder._refine
        monkeypatch.setattr(decoder, "_refine",
                            lambda *args: calls.append(1) or refine(*args))
        return calls

    def test_count_ties_never_reach_the_fallback(self, monkeypatch):
        # identical count rows are settled in numpy, in canonical class order
        calls = self.count_refines(monkeypatch)
        family = make_family({"kind": "binary-grid", "size": 32,
                              "theta_min": 0.1, "theta_max": 0.9})
        counts, scores = count_scores(family, 40, 256, seed=81)
        decoded = ml_decode(scores)
        for c, mapping in zip(counts, decoded):
            for k in np.unique(c[:, 0]):
                assert np.all(np.diff(mapping[c[:, 0] == k]) > 0)
        small = make_family({"kind": "binary-grid", "size": 4,
                             "theta_min": 0.1, "theta_max": 0.9})
        _, scores = count_scores(small, 10, 4096, seed=82)
        decoded = ml_decode(scores)
        assert calls == []
        assert decoded.tolist() == [brute_force_decode(m) for m in scores]

    def test_cross_class_tie_reaches_the_fallback(self, monkeypatch):
        # rows 0 and 1 differ, and [0, 1, 2] ties [1, 0, 2] exactly: no
        # class order settles that, so the closure must send it on
        calls = self.count_refines(monkeypatch)
        matrix = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]])
        stack = np.array([matrix[list(r)][:, list(c)]
                          for r in itertools.permutations(range(3))
                          for c in itertools.permutations(range(3))])
        assert ml_decode(stack).tolist() == [exhaustive_decode(m).tolist() for m in stack]
        assert calls

    def test_duplicated_integer_rows_with_infeasible_entries(self):
        rng = philox_stream(48)
        for size, trials in [(2, 60), (3, 60), (4, 60), (5, 60), (6, 40), (7, 16), (8, 6)]:
            scores = rng.integers(0, 3, size=(trials, size, size)).astype(float)
            # about 40% of the rows copy another row of their matrix
            source = np.where(rng.random((trials, size)) < 0.4,
                              rng.integers(0, size, size=(trials, size)), np.arange(size))
            scores = scores[np.arange(trials)[:, None], source]
            scores[rng.random(scores.shape) < 0.15] = -INF
            assert_matches_exhaustive(scores)


def bit_reversed(size):
    """0..size-1 ordered by their bits read from the lowest up."""
    bits = (size - 1).bit_length()
    return sorted(range(size), key=lambda i: [(i >> k) & 1 for k in range(bits)])


def one_matrix_solve(cost, order):
    """Shortest-augmenting-path assignment on one finite cost matrix (lists).

    The textbook loop that decoder._solve_lockstep runs in lockstep over a
    stack, adding the rows in the given order; returns (row_to_col, u, v).
    """
    n = len(cost)
    u, v, match = [0.0] * (n + 1), [0.0] * (n + 1), [n] * (n + 1)
    for i in order:
        match[n], j_cur = i, n
        min_slack, origin, visited = [INF] * (n + 1), [n] * (n + 1), [False] * (n + 1)
        while True:
            visited[j_cur] = True
            row, delta, j_next = match[j_cur], INF, -1
            for j in range(n):
                if not visited[j]:
                    slack = cost[row][j] - u[row] - v[j]
                    if slack < min_slack[j]:
                        min_slack[j], origin[j] = slack, j_cur
                    if min_slack[j] < delta:
                        delta, j_next = min_slack[j], j
            for j in range(n + 1):
                if visited[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    min_slack[j] -= delta
            j_cur = j_next
            if match[j_cur] == n:
                break
        while j_cur != n:
            match[j_cur] = match[origin[j_cur]]
            j_cur = origin[j_cur]
    row_to_col = [0] * n
    for j in range(n):
        row_to_col[match[j]] = j
    return row_to_col, u[:n], v[:n]


class TestStackContract:
    def mixed_stack(self, size):
        """Tied integer, -inf and generic matrices, interleaved."""
        rng = philox_stream(45, size)
        tied = rng.integers(0, 2, size=(20, size, size)).astype(float)
        with_inf = rng.normal(size=(20, size, size))
        with_inf[rng.random(with_inf.shape) < 0.2] = -INF
        with_inf[:, np.arange(size), np.arange(size)] = 0.0   # keep each feasible
        generic = rng.normal(size=(20, size, size))
        return np.stack([tied, with_inf, generic], axis=1).reshape(-1, size, size)

    @pytest.mark.parametrize("size", [2, 3, 5, 9])
    def test_stack_decodes_each_matrix_on_its_own(self, size):
        stack = self.mixed_stack(size)
        decoded = ml_decode(stack)
        assert decoded.shape == (len(stack), size) and decoded.dtype == np.int64
        for matrix, mapping in zip(stack, decoded):
            assert np.array_equal(ml_decode(matrix), mapping)
        # a matrix's mapping does not depend on its neighbours in the stack
        assert np.array_equal(ml_decode(stack[::-1]), decoded[::-1])

    @pytest.mark.parametrize("size", [2, 5, 12, 32])
    def test_lockstep_solve_matches_the_one_matrix_loop(self, size):
        # same mapping and bit-identical duals: ties in slack, -inf entries
        # at their forbidden cost, count rows shared between trials, and
        # lanes finishing at different steps must not change any trial's
        # float operations
        if size == 32:   # a Monte Carlo block's shape: long, ragged searches
            family = make_family({"kind": "binary-grid", "size": size,
                                  "theta_min": 0.1, "theta_max": 0.9})
            _, stack = count_scores(family, 40, 64, seed=46)
        else:
            _, scores = count_scores(tie_prone_family("binary-grid", size), 3, 60, seed=46)
            stack = np.concatenate([self.mixed_stack(size), scores])
        table, index = np.unique(stack.reshape(-1, size), axis=0, return_inverse=True)
        index = index.reshape(len(stack), size)
        scale = np.abs(np.where(np.isinf(stack), 0.0, stack)).max(axis=(1, 2))
        forbidden = 2.0 * size * scale + 2.0
        mapping, u, v = decoder._solve_lockstep(table, index, forbidden)
        for b, matrix in enumerate(stack.tolist()):
            cost = [[forbidden[b] if x == -INF else -x for x in row] for row in matrix]
            expected = one_matrix_solve(cost, bit_reversed(size))
            assert mapping[b].tolist() == expected[0]
            assert u[b].tobytes() == np.array(expected[1]).tobytes()
            assert v[b].tobytes() == np.array(expected[2]).tobytes()

    @pytest.mark.parametrize("families", [
        [tie_prone_family("binary-grid", size) for size in range(2, 7)],
        [make_family({"kind": "random-simplex", "size": size, "alphabet": 3, "seed": 5})
         for size in range(2, 7)],
        # p(0) = p(1) in every member: count rows (a, b, c) and (b, a, c)
        # differ but score alike, so ties between different table rows
        # must be settled exactly
        [make_family([[.25, .25, .5], [.1, .1, .8], [.3, .3, .4]])],
    ], ids=["binary-grid", "random-simplex", "equal-score-rows"])
    def test_row_table_decodes_like_its_stack(self, families):
        for family in families:
            size = len(family)
            for n in (1, 2, 3, 5):
                counts, _ = count_scores(family, n, 64, seed=90 + size)
                distinct, index = np.unique(counts.reshape(-1, family.alphabet_size),
                                            axis=0, return_inverse=True)
                table = loglik_from_counts(distinct, family)
                index = index.reshape(len(counts), size)
                decoded = ml_decode(table, rows=index)
                assert decoded.tolist() == ml_decode(table[index]).tolist() == [
                    brute_force_decode(matrix) for matrix in table[index]]
                assert ml_decode(table, rows=index[0]).tolist() == decoded[0].tolist()

    def test_shapes(self):
        assert ml_decode(np.zeros((3, 3))).shape == (3,)
        assert ml_decode(np.zeros((1, 3, 3))).shape == (1, 3)
        assert ml_decode(np.zeros((0, 3, 3))).shape == (0, 3)
        with pytest.raises(ValueError, match="square"):
            ml_decode(np.zeros((2, 3, 4)))
        with pytest.raises(ValueError, match="square"):
            ml_decode(np.zeros((1, 2, 3, 3)))
        with pytest.raises(ValueError, match="square"):
            exhaustive_decode(np.zeros((1, 3, 3)))
        table = np.zeros((4, 3))
        assert ml_decode(table, rows=[0, 3, 3]).shape == (3,)
        assert ml_decode(table, rows=np.zeros((2, 3), dtype=np.int32)).shape == (2, 3)
        for rows in ([0, 1], [0.0, 1.0, 2.0], [[[0, 1, 2]]], [0, 1, 4], [-1, 0, 1]):
            with pytest.raises(ValueError, match="rows"):
                ml_decode(table, rows=rows)
        with pytest.raises(ValueError, match="table"):
            ml_decode(np.zeros((2, 4, 3)), rows=[0, 1, 2])

    def test_one_infeasible_trial_raises(self):
        stack = self.mixed_stack(4)
        stack[7] = [[-INF, 0.0, -INF, -INF], [-INF, 0.0, -INF, -INF],
                    [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]]
        with pytest.raises(NoFeasibleAssignmentError):
            ml_decode(stack)
        stack[7] = -INF
        with pytest.raises(NoFeasibleAssignmentError):
            ml_decode(stack)


class TestExactTripleOracle:
    @pytest.mark.parametrize("theta", [(0.1, 0.9), (0.0, 1.0)])
    def test_binary_triples_match_the_exact_oracle(self, theta):
        # every count triple, decided in 50-digit decimal by an oracle that
        # shares no code with the decoder; at theta in [0, 1] most triples
        # are infeasible (a zero-probability symbol on every permutation)
        family = make_family({"kind": "binary-grid", "size": 3,
                              "theta_min": theta[0], "theta_max": theta[1]})
        for n in (1, 2, 3, 5, 8):
            decodes = [(ks, perm) for ks, _, perm in exact_decodes(family, n)]
            assert len(decodes) == (n + 1) ** 3
            counts = np.array([[[n - k, k] for k in ks] for ks, _ in decodes])
            scores = loglik_from_counts(counts, family)
            feasible = [perm is not None for _, perm in decodes]
            assert ml_decode(scores[feasible]).tolist() == [
                list(perm) for _, perm in decodes if perm is not None]
            for matrix in scores[np.logical_not(feasible)][:5]:
                with pytest.raises(NoFeasibleAssignmentError):
                    ml_decode(matrix)
