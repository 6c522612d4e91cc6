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

from oracles import naive_pairwise_sum

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
    ])
    def test_streamed_sum_equals_the_dense_reference(self, spec):
        fam = make_family(spec)
        for n in (1, 7, 100, 5000):
            assert pairwise_sum(fam, n) == dense_pairwise_sum(fam, n), n

    def test_every_pair_disjoint(self):
        fam = make_family(np.eye(5).tolist())
        for n in (1, 40):
            assert pairwise_sum(fam, n) == dense_pairwise_sum(fam, n) == (0.0, -math.inf)

    @pytest.mark.parametrize("entries", [1, 7, 64, 1000, 2**15, 2**20])
    def test_streamed_sum_is_independent_of_the_block_size(self, monkeypatch,
                                                           entries):
        # zeros and disjoint pairs; with the -inf terms left in, the sum
        # rounds differently at n = 1, 7 and 100
        rng = np.random.default_rng(0)
        w = rng.exponential(1.0, size=(53, 5))
        w[rng.random(w.shape) < 0.35] = 0.0
        w[w.sum(axis=1) == 0, 0] = 1.0
        rows = np.unique(w / w.sum(axis=1, keepdims=True), axis=0)
        fam = make_family(rows[rng.permutation(len(rows))].tolist())
        grid = (1, 7, 30, 100)
        want = [pairwise_sum(fam, n) for n in grid]
        assert want == [dense_pairwise_sum(fam, n) for n in grid]
        monkeypatch.setattr(distributions, "_BLOCK_ENTRIES", entries)
        assert [pairwise_sum(fam, n) for n in grid] == want

    # log S as float.hex on the sweep_growing benchmark families and on a
    # binary grid over [0, 1] (point masses, disjoint pairs), recorded
    # before the distance kernel summed symbol-major planes; a change to
    # the order of any sum, here or in numpy, shows.
    @pytest.mark.parametrize("spec, n, log_s", [
        *[({"kind": "random-simplex", "size": math.ceil(n ** 1.5), "alphabet": 8,
            "seed": 7}, n, log_s)
          for n, log_s in [(16, "0x1.d2135a49f889ap+1"), (36, "0x1.05b6327918b29p+2"),
                           (64, "0x1.0d005e32b0a96p+2"), (100, "0x1.05ad829867d0ap+2")]],
        *[({"kind": "binary-grid", "size": size, "theta_min": 0.0, "theta_max": 1.0},
           n, log_s)
          for size, n, log_s in [(41, 10, "0x1.6d9a9e6cc1f88p+2"),
                                 (41, 100, "0x1.200d482828ae8p+2"),
                                 (300, 30, "0x1.294dfe2e21c9dp+3")]],
    ])
    def test_pinned_log_s(self, spec, n, log_s):
        assert pairwise_sum(make_family(spec), n)[1].hex() == log_s

    def test_memory_is_the_terms_vector_and_one_block(self):
        size = 1000
        fam = make_family({"kind": "random-simplex", "size": size,
                           "alphabet": 8, "seed": 7})
        tracemalloc.start()
        try:
            pairwise_sum(fam, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 8 * size * (size - 1) // 2


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
