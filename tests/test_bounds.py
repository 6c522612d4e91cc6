import json
import math
from fractions import Fraction

import numpy as np
import pytest

from distid import (
    BoundReport,
    FamilySequenceSpec,
    GrowthRule,
    TrendReport,
    bhattacharyya,
    cycle_count_ratio,
    cycle_sum_bound,
    identifiability_trend,
    lower_bound,
    make_family,
    pairwise_sum,
    upper_bound,
)
from distid.distributions import philox_stream

from oracles import naive_pairwise_sum

PAIR = make_family([(0.5, 0.5), (0.9, 0.1)])


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


class TestCycleSumBound:
    def test_pair_reduces_to_pairwise_sum(self):
        n = 12
        s, _ = pairwise_sum(PAIR, n)
        assert cycle_sum_bound(PAIR, n, 2) == pytest.approx(s, rel=1e-12)

    def test_triple_at_rmax_two(self):
        fam = make_family({"kind": "binary-grid", "size": 3,
                           "theta_min": 0.2, "theta_max": 0.8})
        n = 9
        s, _ = pairwise_sum(fam, n)
        assert cycle_sum_bound(fam, n, 2) == pytest.approx(s, rel=1e-12)

    def test_dominated_by_power_chain(self):
        fam = make_family({"kind": "binary-grid", "size": 4,
                           "theta_min": 0.1, "theta_max": 0.9})
        for n in (5, 20, 60):
            s, _ = pairwise_sum(fam, n)
            total = cycle_sum_bound(fam, n, 4)
            chain = sum(4**r * s ** (r / 2.0) for r in range(2, 5))
            assert total <= chain * (1.0 + 1e-12)

    def test_longer_cycles_only_add(self):
        fam = make_family({"kind": "binary-grid", "size": 5,
                           "theta_min": 0.2, "theta_max": 0.8})
        values = [cycle_sum_bound(fam, 10, r) for r in range(2, 6)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_size_guard(self):
        fam = make_family({"kind": "binary-grid", "size": 10,
                           "theta_min": 0.05, "theta_max": 0.95})
        with pytest.raises(ValueError, match="size"):
            cycle_sum_bound(fam, 5, 2)

    def test_rmax_guard(self):
        with pytest.raises(ValueError, match="r_max"):
            cycle_sum_bound(PAIR, 5, 3)


class TestCycleCountRatio:
    def test_examples(self):
        assert cycle_count_ratio(4, 4) == pytest.approx(3.0 / 36.0, rel=1e-15)
        assert cycle_count_ratio(5, 3) == pytest.approx(10.0 / 10.0**1.5, rel=1e-15)
        assert cycle_count_ratio(4, 2) == pytest.approx(0.5, rel=1e-15)

    def test_guards(self):
        with pytest.raises(ValueError):
            cycle_count_ratio(4, 1)
        with pytest.raises(ValueError):
            cycle_count_ratio(4, 5)

    def test_power_bound_oracle_recomputation(self):
        # independent exact-rational recomputation of the same inequality
        for k in (2, 3, 8, 17, 40, 64):
            n = math.comb(k, 2)
            for r in range(2, k + 1):
                count = Fraction(math.comb(k, r) * math.factorial(r - 1), 2)
                assert count * count <= Fraction(16 * n) ** r
                assert cycle_count_ratio(k, r) <= 4.0**r * (1 + 1e-12)


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

    def test_json_round_trip(self):
        for n in (5, 10, 40, 200):
            rep = BoundReport.from_family(PAIR, n)
            again = BoundReport.from_json_dict(
                json.loads(json.dumps(rep.to_json_dict())))
            assert again == rep

    def test_json_round_trip_with_infinite_log(self):
        fam = make_family([(1.0, 0.0), (0.0, 1.0)])
        rep = BoundReport.from_family(fam, 3)
        assert rep.log_s == -math.inf
        again = BoundReport.from_json_dict(
            json.loads(json.dumps(rep.to_json_dict())))
        assert again == rep

    def test_csv_row_shape(self):
        rep = BoundReport.from_family(PAIR, 10)
        assert len(rep.csv_row()) == len(BoundReport.csv_header())


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


class TestFamilySequenceSpec:
    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            FamilySequenceSpec(GrowthRule("constant", 2), {"kind": "explicit",
                               "pmfs": [[0.5, 0.5], [0.9, 0.1]]}, (10, 10))

    def test_rejects_small_family(self):
        with pytest.raises(ValueError, match=">= 2"):
            FamilySequenceSpec(GrowthRule("polynomial", 0.1),
                               {"kind": "explicit",
                                "pmfs": [[0.5, 0.5], [0.9, 0.1]]}, (1, 2))


class TestIdentifiabilityTrend:
    def test_constant_family_is_identifiable(self):
        b = bhattacharyya(*make_family({"kind": "binary-grid", "size": 2,
                                        "theta_min": 0.2,
                                        "theta_max": 0.8}).members)
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

    def test_pairs_budget_enforced(self):
        pmfs = [(0.05 + 0.015 * i, 0.95 - 0.015 * i) for i in range(60)]
        spec = FamilySequenceSpec(
            GrowthRule("exponential", 0.02),
            {"kind": "explicit", "pmfs": pmfs},
            tuple(range(10, 201, 10)))
        with pytest.raises(ValueError, match="budget"):
            identifiability_trend(spec, pairs_budget=100)

    def test_template_too_small(self):
        spec = FamilySequenceSpec(
            GrowthRule("constant", 4),
            {"kind": "explicit", "pmfs": [[0.5, 0.5], [0.9, 0.1]]},
            (10, 20))
        with pytest.raises(ValueError, match="growth"):
            identifiability_trend(spec)

    def test_json_round_trip(self):
        spec = FamilySequenceSpec(
            GrowthRule("constant", 2),
            {"kind": "binary-grid", "theta_min": 0.2, "theta_max": 0.8},
            (10, 20, 30, 40))
        report = identifiability_trend(spec)
        again = TrendReport.from_json_dict(
            json.loads(json.dumps(report.to_json_dict())))
        assert again == report
