import json
import math
import tracemalloc

import numpy as np
import pytest

from distid import (
    BoundReport,
    FamilySequenceSpec,
    GrowthRule,
    bhattacharyya,
    check_mean_gain_bound,
    cycle_count,
    identifiability_trend,
    lower_bound,
    make_family,
    pairwise_sum,
    upper_bound,
)
from distid import bounds, distributions
from distid.distributions import distance_matrix, philox_stream

from oracles import fsum_pairwise_sum, naive_pairwise_sum

PAIR = make_family([(0.5, 0.5), (0.9, 0.1)])

# zero-probability symbols, and six pairs with disjoint supports
SOME_DISJOINT = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.2, 0.3, 0.5],
                 [0.0, 0.4, 0.6], [0.0, 0.0, 1.0], [1 - 1e-6, 0.0, 1e-6]]


def dense_pairwise_sum(family, n):
    """(S, log S) from the full distance matrix: its upper triangle in
    row-major order, the finite terms, and a log-sum-exp."""
    dist = distance_matrix(family)
    terms = -2.0 * n * dist[np.triu_indices(len(family), k=1)]
    finite = terms[np.isfinite(terms)]
    if finite.size == 0:
        return 0.0, -math.inf
    peak = float(finite.max())
    log_s = peak + math.log(float(np.exp(finite - peak).sum()))
    return math.exp(log_s), log_s


def assert_near_oracle(got, family, n, ulps=1):
    """got, an (S, log S), is the fsum oracle's to within the online pass's
    measured error: log S within `ulps` ulps of max(|log S|, 1), an
    absolute error that is S's relative one, and S within that plus one
    rounding of each side's exp.  No finite term: exactly (0.0, -inf)."""
    want = fsum_pairwise_sum(family, n)
    if want[1] == -math.inf:
        assert got == want
        return
    tol = ulps * math.ulp(max(abs(want[1]), 1.0))
    assert abs(got[1] - want[1]) <= tol, (got, want)
    assert abs(got[0] - want[0]) <= (tol + 2.0**-52) * want[0], (got, want)


def rows_with_zeros(size, alphabet, seed):
    """About size distinct pmf rows, about 35% of whose entries are 0, in a
    shuffled order: members with zeros and pairs with disjoint supports."""
    rng = np.random.default_rng(seed)
    w = rng.exponential(1.0, size=(size, alphabet))
    w[rng.random(w.shape) < 0.35] = 0.0
    w[w.sum(axis=1) == 0, 0] = 1.0
    rows = np.unique(w / w.sum(axis=1, keepdims=True), axis=0)
    return rows[rng.permutation(len(rows))].tolist()


def equal_angle_binary_pmfs(count, phi0=0.3, dphi=0.2435):
    """Binary pmfs with equal adjacent Bhattacharyya distances.

    Mapping theta -> (cos^2 phi, sin^2 phi) turns the Bhattacharyya
    coefficient into cos(phi_i - phi_j), so equal angular steps give a
    uniform distance ladder.
    """
    return [(math.cos(phi0 + i * dphi) ** 2, math.sin(phi0 + i * dphi) ** 2)
            for i in range(count)]


class TestPairwiseSum:
    def test_disjoint_supports_vanish(self):
        fam = make_family([(1.0, 0.0), (0.0, 1.0)])
        s, log_s = pairwise_sum(fam, 17)
        assert s == 0.0
        assert log_s == -math.inf

    def test_single_pair_closed_form(self):
        s, log_s = pairwise_sum(PAIR, 10)
        assert s == pytest.approx(0.8**10, rel=1e-12)
        assert log_s == pytest.approx(10 * math.log(0.8), rel=1e-12)

    def test_three_equidistant_members(self):
        pmfs = equal_angle_binary_pmfs(3)
        fam = make_family(pmfs)
        b01 = bhattacharyya(fam[0], fam[1])
        b12 = bhattacharyya(fam[1], fam[2])
        assert b01 == pytest.approx(b12, rel=1e-12)
        n = 25
        s, _ = pairwise_sum(fam, n)
        b02 = bhattacharyya(fam[0], fam[2])
        direct = 2 * math.exp(-2 * n * b01) + math.exp(-2 * n * b02)
        assert s == pytest.approx(direct, rel=1e-12)

    def test_matches_naive_summation(self):
        rng = philox_stream(60)
        for trial in range(20):
            size = int(rng.integers(2, 7))
            fam = make_family({"kind": "random-simplex", "size": size,
                               "alphabet": 3, "seed": 1000 + trial})
            n = int(rng.integers(1, 30))
            s, _ = pairwise_sum(fam, n)
            assert s == pytest.approx(naive_pairwise_sum(fam, n), rel=1e-10)

    def test_no_underflow_at_large_n(self):
        # individual terms underflow doubles; the log-domain value survives
        _, log_s = pairwise_sum(PAIR, 5000)
        assert log_s == pytest.approx(5000 * math.log(0.8), rel=1e-12)

    def test_strictly_decreasing_in_n(self):
        fam = make_family({"kind": "binary-grid", "size": 4,
                           "theta_min": 0.2, "theta_max": 0.8})
        values = [pairwise_sum(fam, n)[0] for n in (1, 2, 5, 10, 20, 50)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_bad_blocklength(self):
        with pytest.raises(ValueError, match=">= 1"):
            pairwise_sum(PAIR, 0)

    @pytest.mark.parametrize("spec", [
        *({"kind": "random-simplex", "size": size, "alphabet": m, "seed": 11}
          for m in (3, 8) for size in (2, 3, 70, 130, 1000)),
        {"kind": "binary-grid", "size": 97, "theta_min": 0.0, "theta_max": 1.0},
        SOME_DISJOINT,
        # every pair disjoint but one
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5],
         [0.0, 0.0, 0.9, 0.1]],
        # the peak tied by many pairs: 299 adjacent pairs at one distance,
        # and point masses with neighbours at nearly equal distances
        equal_angle_binary_pmfs(300),
        {"kind": "binary-grid", "size": 300, "theta_min": 0.0, "theta_max": 1.0},
        # zeros and disjoint pairs, with more than 2^15 finite terms
        rows_with_zeros(400, 4, 3),
        # fewer than 8 finite terms: N = 1, 2 and 3
        [[0.5, 0.5], [0.9, 0.1]],
        [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]],
        equal_angle_binary_pmfs(3),
    ])
    def test_streamed_sum_is_near_the_fsum_oracle(self, spec):
        fam = make_family(spec)
        for n in (1, 7, 100, 5000):
            assert_near_oracle(pairwise_sum(fam, n), fam, n)

    @pytest.mark.parametrize("spec", [SOME_DISJOINT, equal_angle_binary_pmfs(40)])
    def test_terms_that_overflow_match_the_dense_reference(self, spec):
        # at n = 10^306 the terms of most pairs overflow to -inf: the dense
        # reference drops them and the stream keeps them as zeros, and since
        # every other shifted term is exactly 0 or 1 the sums agree
        fam = make_family(spec)
        with np.errstate(over="ignore"):
            assert pairwise_sum(fam, 10**306) == dense_pairwise_sum(fam, 10**306)

    def test_every_pair_disjoint(self):
        fam = make_family(np.eye(5).tolist())
        for n in (1, 40):
            assert pairwise_sum(fam, n) == dense_pairwise_sum(fam, n) == (0.0, -math.inf)

    @pytest.mark.parametrize("entries", [1, 7, 64, 1000, 2**15, 2**20])
    def test_streamed_sum_is_near_the_oracle_at_any_block_size(self, monkeypatch,
                                                               entries):
        # zeros and disjoint pairs, in 53 blocks of one row down to one
        # block; the block sums add up in order, and with 1, 7 or 64
        # entries log S at n = 100 was 2 ulps from the oracle's
        fam = make_family(rows_with_zeros(53, 5, 0))
        monkeypatch.setattr(distributions, "_BLOCK_ENTRIES", entries)
        for n in (1, 7, 30, 100):
            assert_near_oracle(pairwise_sum(fam, n), fam, n, ulps=2)

    # log S as float.hex on the sweep_growing benchmark families and on a
    # binary grid over [0, 1] (point masses, disjoint pairs), recorded
    # before the distance kernel summed symbol-major planes; the A = 1000
    # value re-recorded when the sum became one online pass over the
    # kernel's blocks.  A change to the order of any sum, here or in
    # numpy, shows.
    @pytest.mark.parametrize("spec, n, log_s", [
        *[({"kind": "random-simplex", "size": math.ceil(n ** 1.5), "alphabet": 8,
            "seed": 7}, n, log_s)
          for n, log_s in [(16, "0x1.d2135a49f889ap+1"), (36, "0x1.05b6327918b29p+2"),
                           (64, "0x1.0d005e32b0a96p+2"), (100, "0x1.05ad829867d0bp+2")]],
        *[({"kind": "binary-grid", "size": size, "theta_min": 0.0, "theta_max": 1.0},
           n, log_s)
          for size, n, log_s in [(41, 10, "0x1.6d9a9e6cc1f88p+2"),
                                 (41, 100, "0x1.200d482828ae8p+2"),
                                 (300, 30, "0x1.294dfe2e21c9dp+3")]],
    ])
    def test_pinned_log_s(self, spec, n, log_s):
        assert pairwise_sum(make_family(spec), n)[1].hex() == log_s

    def test_memory_does_not_grow_with_the_pairs(self):
        # one kernel block and two floats: about 1.2 MiB here,
        # where the vector of all 8.0 million terms took 62 MiB
        fam = make_family({"kind": "random-simplex", "size": 4000,
                           "alphabet": 3, "seed": 7})
        tracemalloc.start()
        try:
            pairwise_sum(fam, 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


BINARY_GRID_60 = make_family({"kind": "binary-grid", "size": 60, "theta_min": 0.1,
                              "theta_max": 0.9}).prob_matrix().tolist()


def one_pass_sums(rows, sizes, grid):
    """`bounds._pairwise_sums` on the family of all rows, at the first
    `size` rows and blocklength n for each size and n."""
    return bounds._pairwise_sums(make_family(rows), list(zip(sizes, grid)))


class TestPairwiseSums:
    """`bounds._pairwise_sums`: every point of nested prefix families from
    one kernel pass, each the oracle's sum on the point's own prefix."""

    @pytest.mark.parametrize("rows, sizes, grid", [
        # zeros and disjoint pairs, more than one block, repeated sizes
        (rows_with_zeros(400, 4, 3), (2, 40, 40, 130, 300, 300), (1, 1, 30, 7, 1, 5000)),
        # the first three members are pairwise disjoint: S = 0, log S = -inf,
        # next to prefixes that are not
        ([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0],
          [0.2, 0.3, 0.5]], (2, 3, 4, 5, 3), (1, 10, 10, 1, 1)),
        # every term underflows at n = 10^8: S = 0.0, log S finite
        (BINARY_GRID_60, (3, 30, 60), (10**8, 10**8, 1)),
        (make_family({"kind": "random-simplex", "size": 300, "alphabet": 8,
                      "seed": 7}).prob_matrix().tolist(), (64, 216, 300, 300),
         (16, 36, 64, 10**6)),
    ], ids=["zeros", "disjoint-prefix", "underflow", "random-simplex"])
    def test_each_point_is_its_prefix_familys_own_sum(self, kernel_passes, rows, sizes,
                                                      grid):
        prefixes = [make_family(rows[:size]) for size in sizes]
        sums = one_pass_sums(rows, sizes, grid)
        assert kernel_passes == [max(sizes)]
        for got, fam, n in zip(sums, prefixes, grid):
            assert_near_oracle(got, fam, n)

    def test_the_cases_reach_their_edges(self):
        (s3, log_s3), (s4, _) = one_pass_sums(
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]],
            (3, 4), (10, 10))
        assert (s3, log_s3) == (0.0, -math.inf) and s4 > 0.0
        (s, log_s), = one_pass_sums(BINARY_GRID_60, (30,), (10**8,))
        assert s == 0.0 and math.isfinite(log_s)

    def test_a_pass_stops_at_the_largest_prefix_with_a_finite_term(self, kernel_passes):
        # at n = 10^308, -2n overflows and so does every term of the full
        # family, so the pass runs over the 20-member prefix alone
        rows = equal_angle_binary_pmfs(40)
        with np.errstate(over="ignore"):
            want = [dense_pairwise_sum(make_family(rows[:20]), 5),
                    dense_pairwise_sum(make_family(rows), 10**308)]
        assert one_pass_sums(rows, (20, 40), (5, 10**308)) == want
        assert want[1] == (0.0, -math.inf) and kernel_passes == [20]

    def test_no_pass_when_every_pair_is_disjoint(self, kernel_passes):
        assert one_pass_sums(np.eye(4).tolist(), (2, 4), (1, 9)) == [(0.0, -math.inf)] * 2
        assert kernel_passes == []

    def test_the_peak_rises_to_the_last_block(self, monkeypatch):
        # binary pmfs at angles whose steps shrink, so each pair of
        # neighbours is closer than the last and the closest is the last
        # two: in blocks of a few rows every block raises the peak and
        # rescales the total, by factors that underflow at large n
        angles = 0.1 + np.cumsum(0.05 * 0.9 ** np.arange(40))
        fam = make_family(np.stack([np.cos(angles) ** 2, np.sin(angles) ** 2],
                                   axis=1).tolist())
        dist = distance_matrix(fam) + np.tril(np.full((40, 40), math.inf))
        assert np.unravel_index(dist.argmin(), dist.shape) == (38, 39)
        monkeypatch.setattr(distributions, "_BLOCK_ENTRIES", 240)
        for n in (1, 30, 1000, 10**6):
            assert_near_oracle(pairwise_sum(fam, n), fam, n)

    def test_the_first_blocks_are_all_disjoint(self, monkeypatch):
        # three point masses that share no symbol with any member: in
        # blocks of one row, the first three blocks hold no finite term
        rng = np.random.default_rng(4)
        tail = rng.exponential(1.0, size=(30, 3))
        rows = np.vstack([np.eye(6)[:3],
                          np.hstack([np.zeros((30, 3)),
                                     tail / tail.sum(axis=1, keepdims=True)])]).tolist()
        fam = make_family(rows)
        assert np.isinf(distance_matrix(fam)[:3][~np.eye(33, dtype=bool)[:3]]).all()
        monkeypatch.setattr(distributions, "_BLOCK_ENTRIES", 1)
        for n in (1, 30, 1000):
            assert_near_oracle(pairwise_sum(fam, n), fam, n)
            assert_near_oracle(one_pass_sums(rows, (33,), (n,))[0], fam, n)


class TestOnlinePassAccuracy:
    """(S, log S) against the fsum oracle on the seven families measured
    when the pass became online: log S was within 1 ulp of the oracle's
    on each, and S within the relative error that carries."""

    SIMPLEX_8 = {"kind": "random-simplex", "alphabet": 8, "seed": 7}

    def test_the_sweep_growing_points(self):
        # sweep_growing's four points (A = ceil(n^1.5) = 64, 216, 512 and
        # 1000), as the sweep takes them, from one pass, and one by one
        points = [(math.ceil(n ** 1.5), n) for n in (16, 36, 64, 100)]
        sums = bounds._pairwise_sums(make_family({**self.SIMPLEX_8, "size": 1000}),
                                     points)
        for (size, n), got in zip(points, sums):
            fam = make_family({**self.SIMPLEX_8, "size": size})
            assert_near_oracle(got, fam, n)
            assert_near_oracle(pairwise_sum(fam, n), fam, n)

    @pytest.mark.parametrize("spec, n", [
        ({"kind": "random-simplex", "size": 1000, "alphabet": 3, "seed": 7}, 10**4),
        ({"kind": "random-simplex", "size": 3000, "alphabet": 3, "seed": 7}, 10**3),
        ({"kind": "binary-grid", "size": 1000, "theta_min": 0.1, "theta_max": 0.9}, 10**5),
    ])
    def test_large_families(self, spec, n):
        fam = make_family(spec)
        assert_near_oracle(pairwise_sum(fam, n), fam, n)


class TestClosedFormBounds:
    def test_upper_examples(self):
        assert upper_bound(0.0) == 0.0
        assert upper_bound(1e-4) == pytest.approx(16e-4 / 0.96, rel=1e-12)
        assert upper_bound(0.1) is None  # 4 sqrt(0.1) > 1

    def test_upper_clamps_to_one(self):
        # 4 sqrt(S) < 1 but the raw ratio exceeds 1
        s = 0.06
        assert 4.0 * math.sqrt(s) < 1.0
        assert upper_bound(s) == 1.0

    def test_lower_examples(self):
        assert lower_bound(0.0) == 0.0
        assert lower_bound(0.01) == pytest.approx(0.1 / 8.1, rel=1e-12)
        assert lower_bound(64.0) == pytest.approx(0.5, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            upper_bound(-1e-9)
        with pytest.raises(ValueError):
            lower_bound(-1e-9)

    def test_upper_algebraic_identity(self):
        # unclamped region only; the clamp deliberately breaks the identity
        for s in np.linspace(0.0, 0.002, 41):
            ub = upper_bound(float(s))
            assert ub is not None and ub < 1.0
            assert ub * (1.0 - 4.0 * math.sqrt(s)) == pytest.approx(
                16.0 * s, abs=1e-12)

    def test_lower_algebraic_identity(self):
        for s in np.linspace(0.0, 50.0, 41):
            lb = lower_bound(float(s))
            assert lb * (8.0 + math.sqrt(s)) == pytest.approx(
                math.sqrt(s), abs=1e-12)

    def test_lower_monotone(self):
        grid = np.linspace(0.0, 100.0, 200)
        values = [lower_bound(float(s)) for s in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v < 1.0 for v in values)


def family_edge_weights(family, n):
    """exp(-n B) for each pair in lexicographic order; the weight squared is
    that pair's term exp(-2 n B) of the pairwise sum S."""
    return np.exp(-n * distance_matrix(family))[np.triu_indices(len(family), k=1)]


class TestCycleGainsOfAFamily:
    def test_pair_two_cycle_gain_is_the_pairwise_sum(self):
        n = 12
        s, _ = pairwise_sum(PAIR, n)
        gain = check_mean_gain_bound(2, family_edge_weights(PAIR, n), 2).lhs
        assert gain == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("size", range(2, 9))
    def test_two_cycle_gains_sum_to_the_pairwise_sum(self, size):
        fam = make_family({"kind": "random-simplex", "size": size,
                           "alphabet": 3, "seed": 70 + size})
        n = 4
        s, _ = pairwise_sum(fam, n)
        check = check_mean_gain_bound(size, family_edge_weights(fam, n), 2)
        assert check.lhs * cycle_count(size, 2) == pytest.approx(s, rel=1e-12)
        assert check.rhs * math.comb(size, 2) == pytest.approx(s, rel=1e-12)

    @pytest.mark.parametrize("spec", [
        {"kind": "binary-grid", "size": 4, "theta_min": 0.1, "theta_max": 0.9},
        {"kind": "random-simplex", "size": 6, "alphabet": 3, "seed": 77},
    ])
    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_cycle_gain_sums_are_dominated_by_the_power_chain(self, spec, n):
        # the sum of the length-r cycle gains is at most 4^r S^(r/2)
        fam = make_family(spec)
        s, _ = pairwise_sum(fam, n)
        weights = family_edge_weights(fam, n)
        for r in range(2, len(fam) + 1):
            check = check_mean_gain_bound(len(fam), weights, r)
            assert check.holds
            total = cycle_count(len(fam), r) * check.lhs
            assert total <= 4.0**r * s ** (r / 2.0) * (1.0 + 1e-12)


class TestBoundReport:
    def test_fields(self):
        rep = BoundReport.from_family(PAIR, 10)
        assert rep.n == 10 and rep.family_size == 2
        assert rep.s == pytest.approx(0.8**10, rel=1e-12)
        assert rep.upper is None and not rep.upper_applicable
        assert rep.lower == pytest.approx(
            math.sqrt(rep.s) / (8 + math.sqrt(rep.s)), rel=1e-15)

    def test_applicable_region(self):
        rep = BoundReport.from_family(PAIR, 40)
        assert rep.upper_applicable
        assert rep.upper == pytest.approx(
            16 * rep.s / (1 - 4 * math.sqrt(rep.s)), rel=1e-12)
        assert not rep.upper_clamped

    def test_clamped_region(self):
        rep = BoundReport.from_family(PAIR, 14)
        assert rep.upper == 1.0 and rep.upper_clamped
        assert 16 * rep.s / (1 - 4 * math.sqrt(rep.s)) > 1.0

    def test_json_round_trip(self):
        # n = 5 and 10 have no upper bound, n = 14 a clamped one
        for n in (5, 10, 14, 40, 200):
            rep = BoundReport.from_family(PAIR, n)
            d = rep.to_json_dict()
            assert json.loads(json.dumps(d)) == d
            assert (d["S"], d["log_S"], d["upper"], d["lower"]) == (
                rep.s, rep.log_s, rep.upper, rep.lower)

    def test_json_round_trip_with_infinite_log(self):
        fam = make_family([(1.0, 0.0), (0.0, 1.0)])
        rep = BoundReport.from_family(fam, 3)
        assert rep.log_s == -math.inf
        d = rep.to_json_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["log_S"] == -math.inf and d["upper"] == 0.0


class TestGrowthRule:
    def test_constant(self):
        rule = GrowthRule("constant", 4)
        assert rule.size_at(1) == 4 and rule.size_at(1000) == 4

    def test_polynomial(self):
        rule = GrowthRule("polynomial", 0.5)
        assert rule.size_at(9) == 3
        assert rule.size_at(10) == 4  # ceil(sqrt(10))

    def test_exponential(self):
        rule = GrowthRule("exponential", 0.1)
        assert rule.size_at(10) == math.ceil(math.e)
        assert rule.size_at(100) == math.ceil(math.exp(10.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthRule("constant", 1)
        with pytest.raises(ValueError):
            GrowthRule("exponential", -0.1)
        with pytest.raises(ValueError):
            GrowthRule("mystery", 2)

    @pytest.mark.parametrize("param", ["3", None, True, float("inf")])
    def test_param_must_be_a_finite_number(self, param):
        for kind in ("constant", "polynomial"):
            with pytest.raises(ValueError):
                GrowthRule(kind, param)


class TestFamilySequenceSpec:
    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            FamilySequenceSpec(GrowthRule("constant", 2), {"kind": "explicit",
                               "pmfs": [[0.5, 0.5], [0.9, 0.1]]}, (10, 10))

    @pytest.mark.parametrize("template, n_grid, match", [
        ({"kind": "binary-grid", "size": 3, "theta_min": 0.2, "theta_max": 0.8},
         (10, 20), "size"),
        ({"kind": "binary-grid", "theta_min": 0.2}, (10, 20), "theta_max"),
        ({"kind": "random-simplex", "alphabet": 3, "seed": -1}, (10, 20), "seed"),
        ({"kind": "explicit", "pmfs": [[0.5, 0.5], None]}, (10, 20), "pmfs"),
        ({"kind": "binary-grid", "theta_min": 0.2, "theta_max": 0.8}, (10.5, 20), "n_grid"),
        ({"kind": "binary-grid", "theta_min": 0.2, "theta_max": 0.8}, (10,), "2 points"),
    ])
    def test_rejects_malformed_template_or_grid(self, template, n_grid, match):
        with pytest.raises(ValueError, match=match):
            FamilySequenceSpec(GrowthRule("constant", 2), template, n_grid)

    def test_rejects_small_family(self):
        with pytest.raises(ValueError, match=">= 2"):
            FamilySequenceSpec(GrowthRule("polynomial", 0.1),
                               {"kind": "explicit",
                                "pmfs": [[0.5, 0.5], [0.9, 0.1]]}, (1, 2))


class TestIdentifiabilityTrend:
    def test_constant_family_is_identifiable(self):
        b = bhattacharyya(*make_family({"kind": "binary-grid", "size": 2,
                                        "theta_min": 0.2, "theta_max": 0.8}))
        # a 2-point grid still fits over both points
        for grid in (tuple(range(10, 101, 10)), (10, 20)):
            spec = FamilySequenceSpec(
                GrowthRule("constant", 2),
                {"kind": "binary-grid", "theta_min": 0.2, "theta_max": 0.8}, grid)
            report = identifiability_trend(spec)
            assert report.verdict == "identifiable-trend"
            assert report.slope == pytest.approx(-2.0 * b, rel=1e-9)

    def test_fast_exponential_growth_is_not_identifiable(self):
        pmfs = [(0.05 + 0.015 * i, 0.95 - 0.015 * i) for i in range(60)]
        spec = FamilySequenceSpec(
            GrowthRule("exponential", 0.02),
            {"kind": "explicit", "pmfs": pmfs},
            tuple(range(10, 201, 10)))
        report = identifiability_trend(spec)
        assert report.verdict == "not-identifiable-trend"
        assert report.slope > 1e-6

    def test_slow_exponential_growth_is_identifiable(self):
        spec = FamilySequenceSpec(
            GrowthRule("exponential", 0.008),
            {"kind": "explicit", "pmfs": equal_angle_binary_pmfs(5)},
            tuple(range(10, 201, 10)))
        report = identifiability_trend(spec)
        assert report.verdict == "identifiable-trend"
        assert report.slope < -1e-6
        assert report.points[-1].family_size == 5  # the family really grew

    def test_disjoint_supports_are_identifiable(self):
        spec = FamilySequenceSpec(
            GrowthRule("constant", 2),
            {"kind": "explicit", "pmfs": [[1.0, 0.0], [0.0, 1.0]]},
            (5, 10, 15))
        report = identifiability_trend(spec)
        assert report.verdict == "identifiable-trend"
        assert report.slope is None

    def test_a_zero_tail_that_rises_again_is_inconclusive(self):
        # the third member joins at n = 80: S goes 0, 0, 0, 1.65e-24
        spec = FamilySequenceSpec(
            GrowthRule("exponential", 0.01),
            {"kind": "explicit", "pmfs": [[1, 0], [0, 1], [0.5, 0.5]]},
            (10, 20, 60, 80))
        report = identifiability_trend(spec)
        assert [p.s for p in report.points[:3]] == [0.0, 0.0, 0.0]
        assert [p.family_size for p in report.points] == [2, 2, 2, 3]
        assert report.points[3].s == pytest.approx(1.65e-24, rel=1e-2)
        assert report.verdict == "inconclusive" and report.slope is None

    def test_s_that_underflows_to_zero_is_identifiable(self):
        # S is subnormal at n = 3200 and 0.0 after it
        spec = FamilySequenceSpec(
            GrowthRule("constant", 2),
            {"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1]]},
            (1000, 2000, 3000, 3200, 3400, 3600))
        report = identifiability_trend(spec)
        tail = [p.s for p in report.points[-3:]]
        assert 0.0 < tail[0] < np.finfo(float).tiny and tail[1:] == [0.0, 0.0]
        assert report.verdict == "identifiable-trend" and report.slope is None

    def test_pairs_budget_enforced(self):
        pmfs = [(0.05 + 0.015 * i, 0.95 - 0.015 * i) for i in range(60)]
        spec = FamilySequenceSpec(
            GrowthRule("exponential", 0.02),
            {"kind": "explicit", "pmfs": pmfs},
            tuple(range(10, 201, 10)))
        with pytest.raises(ValueError, match="budget"):
            identifiability_trend(spec, pairs_budget=100)

    def test_pairs_budget_is_checked_before_any_family_is_built(self, monkeypatch):
        built = []

        def counting_make_family(spec):
            built.append(spec)
            return make_family(spec)

        monkeypatch.setattr(bounds, "make_family", counting_make_family)
        spec = FamilySequenceSpec(
            GrowthRule("polynomial", 1.5),
            {"kind": "random-simplex", "alphabet": 3, "seed": 5},
            (4, 9, 16))   # 8, 27 and 64 members: 28, 351 and 2016 pairs
        with pytest.raises(ValueError, match="^n=16 needs 2016 pair evaluations, "
                                             "over the budget of 1000$"):
            identifiability_trend(spec, pairs_budget=1000)
        assert built == []
        assert len(identifiability_trend(spec, pairs_budget=2016).points) == 3
        assert len(built) == 3

    @pytest.mark.parametrize("growth, template, grid", [
        (GrowthRule("constant", 40), {"kind": "explicit", "pmfs": rows_with_zeros(60, 4, 9)},
         (1, 5, 20, 300)),
        (GrowthRule("polynomial", 1.0), {"kind": "explicit",
                                         "pmfs": rows_with_zeros(60, 4, 9)}, (2, 7, 40, 50)),
        (GrowthRule("polynomial", 1.5), {"kind": "random-simplex", "alphabet": 8,
                                         "seed": 7}, (16, 36, 64)),
        (GrowthRule("polynomial", 1.0), {"kind": "binary-grid", "theta_min": 0.1,
                                         "theta_max": 0.9}, (3, 10, 40)),
    ], ids=["constant", "explicit-truncated", "random-simplex", "binary-grid"])
    def test_each_point_is_its_familys_own_sum(self, kernel_passes, growth, template, grid):
        # nested prefixes take one kernel pass; binary-grid families, whose
        # members move as the grid grows, one pass per point
        spec = FamilySequenceSpec(growth, template, grid)
        sizes = [growth.size_at(n) for n in grid]
        report = identifiability_trend(spec, pairs_budget=10**6)
        assert kernel_passes == (sizes if template["kind"] == "binary-grid"
                                 else [max(sizes)])
        for point, size, n in zip(report.points, sizes, grid):
            assert_near_oracle((point.s, point.log_s),
                               bounds._instantiate_template(template, size), n)

    def test_a_later_prefix_with_a_close_pair_fails_where_it_is_built(self, monkeypatch,
                                                                      kernel_passes):
        # members 1 and 3 are 5e-10 apart: the n = 4 family of 4 members is
        # refused after the n = 2 and n = 3 families are built, and no sum runs
        built = []

        def counted(spec):
            built.append(len(spec["pmfs"]))
            return make_family(spec)

        monkeypatch.setattr(bounds, "make_family", counted)
        spec = FamilySequenceSpec(
            GrowthRule("polynomial", 1.0),
            {"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1], [0.2, 0.8],
                                          [0.9000000005, 0.0999999995]]}, (2, 3, 4))
        with pytest.raises(ValueError, match=r"^members 1 and 3 are not distinct \(sup-norm "
                                             r"gap 4.999999997368221e-10 <= 1e-09\)$"):
            identifiability_trend(spec)
        assert built == [2, 3, 4] and kernel_passes == []

    def test_template_too_small(self):
        # the spec itself is refused, before any run
        with pytest.raises(ValueError, match="^template provides 2 members but the "
                                             "growth rule requires 4 at n=10$"):
            FamilySequenceSpec(
                GrowthRule("constant", 4),
                {"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1]]},
                (10, 20))

    def test_explicit_template_with_overflowing_growth_waits_for_the_run(self):
        spec = FamilySequenceSpec(
            GrowthRule("exponential", 5.0),
            {"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1]]},
            (1000, 2000))
        with pytest.raises(ValueError, match="overflows"):
            identifiability_trend(spec)

    def test_json_round_trip(self):
        # a fitted slope, and a disjoint pair's None slope and -inf log S
        for template, slope_is_none in [
                ({"kind": "binary-grid", "theta_min": 0.2, "theta_max": 0.8}, False),
                ({"kind": "explicit", "pmfs": [[1.0, 0.0], [0.0, 1.0]]}, True)]:
            report = identifiability_trend(FamilySequenceSpec(
                GrowthRule("constant", 2), template, (10, 20, 30, 40)))
            assert (report.slope is None) == slope_is_none
            d = report.to_json_dict()
            assert json.loads(json.dumps(d)) == d
            assert d["slope"] == report.slope
            assert [p["log_S"] for p in d["points"]] == [p.log_s for p in report.points]
