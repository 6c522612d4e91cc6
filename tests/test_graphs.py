import math
from fractions import Fraction

import numpy as np
import pytest

from distid import (
    check_mean_gain_bound,
    cycle_count,
    edge_incidence_counts,
    enumerate_cycles,
    formula_cycle_count,
)
from distid.distributions import philox_stream
from distid.graphs import pair_index

from oracles import (count_simple_cycles_brute, cycle_gains_loop,
                     edge_incidence_loop, sum_in_order)


class TestPairIndex:
    def test_lexicographic_order(self):
        k = 5
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        assert [pair_index(k, i, j) for i, j in pairs] == list(range(len(pairs)))

    def test_rejects_bad_pairs(self):
        with pytest.raises(ValueError):
            pair_index(4, 2, 2)
        with pytest.raises(ValueError):
            pair_index(4, 3, 1)


class TestEnumerateCycles:
    def test_complete_graph_on_four_has_three_squares(self):
        assert len(enumerate_cycles(4, 4)) == 3

    def test_triangles_of_k5(self):
        assert len(enumerate_cycles(5, 3)) == 10

    def test_pairs_are_two_cycles(self):
        assert enumerate_cycles(3, 2) == ((0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize("k", range(3, 9))
    def test_counts_match_brute_force(self, k):
        for r in range(3, k + 1):
            cycles = enumerate_cycles(k, r)
            assert len(cycles) == count_simple_cycles_brute(k, r)
            assert len(cycles) == cycle_count(k, r)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_two_cycle_count_is_pair_count(self, k):
        assert cycle_count(k, 2) == math.comb(k, 2)
        assert len(enumerate_cycles(k, 2)) == math.comb(k, 2)

    def test_canonical_form_and_uniqueness(self):
        for k in range(3, 8):
            for r in range(3, k + 1):
                cycles = enumerate_cycles(k, r)
                assert len(set(cycles)) == len(cycles)
                for c in cycles:
                    assert len(set(c)) == r
                    assert c[0] == min(c)
                    assert c[1] < c[-1]

    def test_range_guards(self):
        with pytest.raises(ValueError):
            enumerate_cycles(4, 1)
        with pytest.raises(ValueError):
            enumerate_cycles(4, 5)
        with pytest.raises(ValueError):
            enumerate_cycles(11, 3)

    def test_count_range_guards(self):
        for count in (cycle_count, formula_cycle_count, edge_incidence_counts):
            for r in (1, 5):
                with pytest.raises(ValueError, match="2 <= r <= k"):
                    count(4, r)

    @pytest.mark.parametrize("k, r", [(4, 4), (5, 3), (152, 152), (200, 200)])
    def test_closed_form_count_matches_the_vertex_sequence_count(self, k, r):
        # the r-tuples of distinct vertices over the 2r rotations and
        # reflections of each cycle, in exact integers at any k
        count = count_simple_cycles_brute(k, r)
        assert formula_cycle_count(k, r) == count
        assert cycle_count(k, r) == count

    def test_formula_count_halves_at_two(self):
        assert formula_cycle_count(4, 2) == Fraction(3)
        assert formula_cycle_count(3, 2) == Fraction(3, 2)
        assert formula_cycle_count(4, 4) == 3
        assert formula_cycle_count(5, 3) == 10


class TestCycleGain:
    def test_unit_weights(self):
        for r in range(2, 6):
            res = check_mean_gain_bound(5, np.ones(10), r)
            assert res.lhs == 1.0 and res.rhs == 1.0 and res.holds

    def test_two_cycle_squares_its_edge(self):
        # the mean of the three squares 0.25, 0.0625 and 1.0
        assert check_mean_gain_bound(3, [0.5, 0.25, 1.0], 2).lhs == 0.4375

    def test_square_cycle_product(self):
        weights = np.arange(1.0, 7.0)  # lex edges (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        # the cycles (0,1,2,3), (0,1,3,2) and (0,2,1,3) have gains
        # w01 w12 w23 w03 = 72, w01 w13 w23 w02 = 60 and w02 w12 w13 w03 = 120
        assert check_mean_gain_bound(4, weights, 4).lhs == 84.0

    @pytest.mark.parametrize("k, weights, message", [
        (1, [], "at least 2 vertices"),
        (4, np.ones(5), "needs 6 edge weights"),
        (4, np.ones((2, 3)), "needs 6 edge weights"),
        (4, [1.0, 1.0, -0.5, 1.0, 1.0, 1.0], "nonnegative"),
        (4, [1.0, 1.0, math.nan, 1.0, 1.0, 1.0], "finite"),
        (4, [1.0, 1.0, 1.0, 1.0, 1.0, math.inf], "finite"),
    ])
    def test_rejects_bad_edge_weights(self, k, weights, message):
        with pytest.raises(ValueError, match=message):
            check_mean_gain_bound(k, weights, 2)

    @pytest.mark.parametrize("k, r, message", [
        (4, 1, "2 <= r <= k"),
        (4, 5, "2 <= r <= k"),
        (11, 3, "k <= 10"),
    ])
    def test_rejects_bad_cycle_length(self, k, r, message):
        with pytest.raises(ValueError, match=message):
            check_mean_gain_bound(k, np.ones(k * (k - 1) // 2), r)

    def test_two_cycle_gain_is_the_rounded_exact_square(self):
        # libm pow rounds this square up one ulp; w * w is correctly rounded
        w = 0.9503546630566793
        exact = float(Fraction(w) ** 2)
        assert exact == 0.9031739855935743
        assert check_mean_gain_bound(2, [w], 2).lhs == exact


class TestMeanGainBound:
    def test_equality_at_uniform_weights(self):
        for k in range(3, 8):
            for r in range(2, k + 1):
                for a in (0.3, 1.0, 2.5):
                    res = check_mean_gain_bound(k, np.full(k * (k - 1) // 2, a), r)
                    assert res.holds
                    assert res.lhs == pytest.approx(res.rhs, rel=1e-12)
                    assert res.lhs == pytest.approx(a**r, rel=1e-12)

    def test_single_unit_square_cycle(self):
        # unit weights on one 4-cycle of K4, zeros elsewhere: one cycle of
        # gain 1 among the three, so the mean is 1/3 against (4/6)^2
        weights = np.zeros(6)
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            weights[pair_index(4, i, j)] = 1.0
        res = check_mean_gain_bound(4, weights, 4)
        assert res.lhs == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert res.rhs == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert res.holds

    @pytest.mark.parametrize("k", range(3, 8))
    def test_holds_on_random_graphs(self, k):
        rng = philox_stream(50, k)
        for r in range(2, k + 1):
            for _ in range(25):
                assert check_mean_gain_bound(k, rng.random(k * (k - 1) // 2), r).holds

    def test_scale_covariance(self):
        rng = philox_stream(51)
        for _ in range(20):
            k = int(rng.integers(3, 7))
            weights = rng.random(k * (k - 1) // 2)
            lam = float(rng.uniform(0.1, 10.0))
            for r in range(2, k + 1):
                base = check_mean_gain_bound(k, weights, r)
                scaled = check_mean_gain_bound(k, lam * weights, r)
                assert scaled.lhs == pytest.approx(lam**r * base.lhs, rel=1e-9)
                assert scaled.rhs == pytest.approx(lam**r * base.rhs, rel=1e-9)
                assert scaled.holds == base.holds

    def test_all_zero_weights(self):
        res = check_mean_gain_bound(4, np.zeros(6), 3)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.holds


class TestLoopOracle:
    """Bitwise agreement with one Python loop per cycle."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_mean_gain_lhs(self, k):
        rng = philox_stream(52, k)
        for r in range(2, k + 1):
            weights = rng.random(k * (k - 1) // 2)
            gains = cycle_gains_loop(k, weights, r)
            lhs = check_mean_gain_bound(k, weights, r).lhs
            assert lhs == sum_in_order(gains) / len(gains)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_edge_incidence_counts(self, k):
        for r in range(2, k + 1):
            assert edge_incidence_counts(k, r).tolist() == edge_incidence_loop(k, r)


class TestEdgeIncidence:
    @pytest.mark.parametrize("k", range(3, 8))
    def test_every_edge_equally_covered(self, k):
        n_edges = math.comb(k, 2)
        for r in range(2, k + 1):
            counts = edge_incidence_counts(k, r)
            expected = Fraction(cycle_count(k, r) * r, n_edges)
            assert expected.denominator == 1
            assert np.all(counts == int(expected))

    def test_k4_squares_cover_each_edge_twice(self):
        assert len(enumerate_cycles(4, 4)) == 3
        assert edge_incidence_counts(4, 4).tolist() == [2] * 6

    @pytest.mark.parametrize("k,r", [(4, 2), (4, 4), (5, 2), (5, 4),
                                     (6, 2), (6, 4), (6, 6)])
    def test_product_of_all_gains_is_the_incidence_power(self, k, r):
        # the expansion behind the even-r bound: the product of every
        # cycle's gain is each weight raised to its edge's incidence;
        # power-of-two weights make every gain and its log2 exact
        rng = philox_stream(53, 10 * k + r)
        exponents = rng.integers(-3, 4, size=math.comb(k, 2))
        weights = np.ldexp(1.0, exponents)
        total = sum(int(math.log2(gain)) for gain in cycle_gains_loop(k, weights, r))
        assert total == int(edge_incidence_counts(k, r) @ exponents)

    def test_two_cycles_cover_each_edge_once(self):
        # each pair is one 2-cycle traversing its edge twice; as cycle
        # membership that is once per edge, the halved closed-form count
        for k in range(3, 8):
            counts = edge_incidence_counts(k, 2)
            assert np.all(counts == 2)
            membership = formula_cycle_count(k, 2) * 2 / math.comb(k, 2)
            assert membership == 1
