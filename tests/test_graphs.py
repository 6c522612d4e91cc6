import math
from fractions import Fraction

import numpy as np
import pytest

from distid import (
    WeightedCompleteGraph,
    check_expansion_identities,
    check_mean_gain_bound,
    cycle_count,
    cycle_gain,
    edge_incidence_counts,
    enumerate_cycles,
    formula_cycle_count,
)
from distid.distributions import philox_stream
from distid.graphs import pair_index

from oracles import (count_simple_cycles_brute, cycle_gains_loop,
                     edge_incidence_loop, sum_in_order)


def random_graph(rng, k):
    return WeightedCompleteGraph(k, rng.random(k * (k - 1) // 2))


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

    def test_formula_count_halves_at_two(self):
        assert formula_cycle_count(4, 2) == Fraction(3)
        assert formula_cycle_count(3, 2) == Fraction(3, 2)
        assert formula_cycle_count(4, 4) == 3
        assert formula_cycle_count(5, 3) == 10


class TestCycleGain:
    def test_unit_weights(self):
        g = WeightedCompleteGraph(5, np.ones(10))
        for r in range(2, 6):
            for c in enumerate_cycles(5, r):
                assert cycle_gain(g, c) == 1.0

    def test_two_cycle_squares_its_edge(self):
        g = WeightedCompleteGraph(3, [0.5, 0.25, 1.0])
        assert cycle_gain(g, (0, 1)) == 0.25
        assert cycle_gain(g, (0, 2)) == 0.0625

    def test_square_cycle_product(self):
        weights = np.arange(1.0, 7.0)  # lex edges (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        g = WeightedCompleteGraph(4, weights)
        got = cycle_gain(g, (0, 1, 2, 3))
        # edges (0,1),(1,2),(2,3),(3,0) -> w01 * w12 * w23 * w03
        assert got == 1.0 * 4.0 * 6.0 * 3.0

    def test_rejects_repeated_vertices(self):
        g = WeightedCompleteGraph(4, np.ones(6))
        with pytest.raises(ValueError, match="distinct"):
            cycle_gain(g, (0, 1, 1))
        with pytest.raises(ValueError, match="distinct"):
            cycle_gain(g, (2,))

    def test_two_cycle_gain_is_the_rounded_exact_square(self):
        # libm pow rounds this square up one ulp; w * w is correctly rounded
        w = 0.9503546630566793
        exact = float(Fraction(w) ** 2)
        assert exact == 0.9031739855935743
        g = WeightedCompleteGraph(2, [w])
        assert cycle_gain(g, (0, 1)) == exact
        assert check_mean_gain_bound(g, 2).lhs == exact


class TestMeanGainBound:
    def test_equality_at_uniform_weights(self):
        for k in range(3, 8):
            for r in range(2, k + 1):
                for a in (0.3, 1.0, 2.5):
                    g = WeightedCompleteGraph(k, np.full(k * (k - 1) // 2, a))
                    res = check_mean_gain_bound(g, r)
                    assert res.holds
                    assert res.lhs == pytest.approx(res.rhs, rel=1e-12)
                    assert res.lhs == pytest.approx(a**r, rel=1e-12)

    def test_single_unit_square_cycle(self):
        # unit weights on one 4-cycle of K4, zeros elsewhere: one cycle of
        # gain 1 among the three, so the mean is 1/3 against (4/6)^2
        weights = np.zeros(6)
        for i, j in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            weights[pair_index(4, i, j)] = 1.0
        res = check_mean_gain_bound(WeightedCompleteGraph(4, weights), 4)
        assert res.lhs == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert res.rhs == pytest.approx(4.0 / 9.0, rel=1e-15)
        assert res.holds

    @pytest.mark.parametrize("k", range(3, 8))
    def test_holds_on_random_graphs(self, k):
        rng = philox_stream(50, k)
        for r in range(2, k + 1):
            for _ in range(25):
                assert check_mean_gain_bound(random_graph(rng, k), r).holds

    def test_scale_covariance(self):
        rng = philox_stream(51)
        for _ in range(20):
            k = int(rng.integers(3, 7))
            weights = rng.random(k * (k - 1) // 2)
            lam = float(rng.uniform(0.1, 10.0))
            for r in range(2, k + 1):
                base = check_mean_gain_bound(WeightedCompleteGraph(k, weights), r)
                scaled = check_mean_gain_bound(
                    WeightedCompleteGraph(k, lam * weights), r)
                assert scaled.lhs == pytest.approx(lam**r * base.lhs, rel=1e-9)
                assert scaled.rhs == pytest.approx(lam**r * base.rhs, rel=1e-9)
                assert scaled.holds == base.holds

    def test_all_zero_weights(self):
        g = WeightedCompleteGraph(4, np.zeros(6))
        res = check_mean_gain_bound(g, 3)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.holds


class TestLoopOracle:
    """Bitwise agreement with one Python loop per cycle."""

    @pytest.mark.parametrize("k", range(2, 9))
    def test_mean_gain_lhs(self, k):
        rng = philox_stream(52, k)
        for r in range(2, k + 1):
            weights = rng.random(k * (k - 1) // 2)
            gains = cycle_gains_loop(k, weights, r)
            lhs = check_mean_gain_bound(WeightedCompleteGraph(k, weights), r).lhs
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

    def test_two_cycles_cover_each_edge_once(self):
        # each pair is one 2-cycle traversing its edge twice; as cycle
        # membership that is once per edge, the halved closed-form count
        for k in range(3, 8):
            counts = edge_incidence_counts(k, 2)
            assert np.all(counts == 2)
            membership = formula_cycle_count(k, 2) * 2 / math.comb(k, 2)
            assert membership == 1


class TestExpansionIdentities:
    def test_k4_r4_constants(self):
        res = check_expansion_identities(4, 4)
        assert res.incidence == 2
        assert res.total_elements == 72
        assert res.degree_per_edge == 48
        assert res.group_size == 24
        assert res.ok

    def test_k4_r2_constants(self):
        res = check_expansion_identities(4, 2)
        assert res.incidence == 1
        assert res.total_elements == 6
        assert res.group_size == 2
        assert res.ok

    @pytest.mark.parametrize("k,r", [(4, 2), (4, 4), (5, 2), (5, 4),
                                     (6, 2), (6, 4), (6, 6)])
    def test_identities_hold(self, k, r):
        res = check_expansion_identities(k, r)
        assert res.elements_ok and res.degrees_ok
        assert res.log_product_ok and res.group_size_ok

    def test_rejects_odd_r(self):
        with pytest.raises(ValueError, match="even"):
            check_expansion_identities(5, 3)

    def test_rejects_large_k(self):
        with pytest.raises(ValueError, match="k <= 6"):
            check_expansion_identities(7, 4)
