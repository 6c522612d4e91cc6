"""Acceptance suite: eleven go/no-go checks at fixed tolerances.

Each test prints one `criterion N [PASS|FAIL]` line (visible with -s or
in captured output) and asserts the same condition, so the suite doubles
as a report and as a gate.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from distid import (
    FamilySequenceSpec,
    GrowthRule,
    check_mean_gain_bound,
    cycle_count,
    edge_incidence_counts,
    enumerate_cycles,
    estimate_error_prob,
    formula_cycle_count,
    identifiability_trend,
    lower_bound,
    make_family,
    ml_decode,
    pairwise_error_exponent,
    pairwise_sum,
    upper_bound,
)
from distid.cli import build_config, parse_config, run
from distid.distributions import philox_stream

from oracles import brute_force_decode, exact_pair_error_prob
from test_bounds import equal_angle_binary_pmfs

PAIR = make_family([(0.5, 0.5), (0.9, 0.1)])


def report(num: int, ok: bool, desc: str, detail: str = "") -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def pick_blocklength(family, lo=1e-4, hi=1e-2, target=1e-3):
    """Smallest n whose pairwise sum falls at or below target, within [lo, hi]."""
    for n in range(1, 5000):
        s, _ = pairwise_sum(family, n)
        if s <= target:
            assert lo <= s <= hi
            return n, s
    raise AssertionError("no blocklength reached the target sum")


def test_criterion_1_mean_gain_inequality_exhaustive():
    failures = 0
    checks = 0
    for k in range(3, 8):
        rng = philox_stream(101, k)
        for r in range(2, k + 1):
            for _ in range(100):
                checks += 1
                if not check_mean_gain_bound(k, rng.random(k * (k - 1) // 2), r).holds:
                    failures += 1
            uniform = np.full(k * (k - 1) // 2, float(rng.uniform(0.2, 2.0)))
            res = check_mean_gain_bound(k, uniform, r)
            if not math.isclose(res.lhs, res.rhs, rel_tol=1e-12):
                failures += 1
    report(1, failures == 0,
           "mean-gain inequality holds on all random graphs, k in [3,7]",
           f"{checks} random graphs, equality at uniform weights")


def test_criterion_2_cycle_count_identity():
    bad = []
    for k in range(3, 9):
        for r in range(3, k + 1):
            expected = math.comb(k, r) * math.factorial(r - 1) // 2
            if len(enumerate_cycles(k, r)) != expected:
                bad.append((k, r))
    square_cycles = len(enumerate_cycles(4, 4))
    report(2, not bad and square_cycles == 3,
           "closed-form cycle counts match enumeration, 3 <= r <= k <= 8",
           f"K4 squares={square_cycles}")


def test_criterion_3_edge_incidence_identity():
    bad = []
    for k in range(3, 8):
        n_edges = math.comb(k, 2)
        for r in range(2, k + 1):
            counts = edge_incidence_counts(k, r)
            expected = Fraction(cycle_count(k, r) * r, n_edges)
            if expected.denominator != 1 or not np.all(counts == int(expected)):
                bad.append((k, r))
        # closed-form count at r=2: each edge belongs to exactly one 2-cycle
        membership = formula_cycle_count(k, 2) * 2 / n_edges
        if membership != 1:
            bad.append((k, 2, "membership"))
    report(3, not bad, "every edge lies in equally many length-r cycles, k <= 7",
           "exact integer equality")


def test_criterion_4_count_ratio_power_bound():
    bad = []
    for k in range(2, 65):
        n_edges = math.comb(k, 2)
        for r in range(2, k + 1):
            count = Fraction(math.comb(k, r) * math.factorial(r - 1), 2)
            if count * count > Fraction(16 * n_edges) ** r:
                bad.append((k, r))
    report(4, not bad, "cycle-count ratio <= 4^r for all 2 <= r <= k <= 64",
           "exact rational arithmetic")


def test_criterion_5_decoder_oracle_equivalence():
    mismatches = 0
    for size in range(2, 8):
        rng = philox_stream(105, size)
        stack = np.array([rng.normal(size=(size, size)) * 10.0 for _ in range(1000)])
        for scores, fast in zip(stack, ml_decode(stack)):
            brute = brute_force_decode(scores)
            rows = scores.tolist()
            fast_score = sum(rows[i][fast[i]] for i in range(size))
            brute_score = sum(rows[i][brute[i]] for i in range(size))
            if fast_score != brute_score or not np.array_equal(fast, brute):
                mismatches += 1
    report(5, mismatches == 0,
           "assignment decoder matches an independent exhaustive search, A in {2..7}",
           "1000 random matrices per size, exact score and mapping equality")


def test_criterion_6_exact_error_probability_oracle():
    n, trials = 20, 100_000
    est = estimate_error_prob(PAIR, n, trials, seed=0x5EED)
    exact = exact_pair_error_prob(PAIR, n)
    gap = abs(est.p_hat - exact)
    ok = gap <= 3.0 * est.stderr
    report(6, ok, "Monte Carlo error rate matches exact enumeration at n=20",
           f"p_hat={est.p_hat:.6g}, exact={exact:.6g}, "
           f"|gap|={gap:.2e} <= 3*stderr={3 * est.stderr:.2e}")


def test_criterion_7_pairwise_error_exponent():
    fit = pairwise_error_exponent(PAIR[0], PAIR[1], list(range(10, 81, 10)),
                                  trials=1_000_000, seed=0x5EED)
    target = math.log(5.0 / 4.0)
    rel = abs(fit.slope - target) / target
    ok = rel <= 0.15 and fit.target == pytest.approx(target, rel=1e-12)
    report(7, ok, "swap-event decay slope within 15% of twice the distance",
           f"slope={fit.slope:.5f}, target={target:.5f}, rel err={rel:.1%}, "
           f"fit points={sum(fit.used)}")


def test_criterion_8_upper_bound_sandwich():
    results = []
    ok = True
    for size in (2, 4, 8):
        family = make_family({"kind": "binary-grid", "size": size,
                              "theta_min": 0.1, "theta_max": 0.9})
        n, s = pick_blocklength(family)
        upper = upper_bound(s)
        assert upper is not None
        est = estimate_error_prob(family, n, trials=20_000, seed=0x5EED)
        within = est.p_hat <= upper + 3.0 * est.stderr
        ok = ok and within
        results.append(f"A={size}: n={n}, p_hat={est.p_hat:.2e} <= "
                       f"upper={upper:.2e}, lower reported {lower_bound(s):.2e}")
    report(8, ok, "empirical error rate below the closed-form upper bound",
           "; ".join(results))


def test_criterion_9_pair_error_dominance_trend():
    family = make_family({"kind": "binary-grid", "size": 4,
                          "theta_min": 0.1, "theta_max": 0.9})
    fractions = {}
    spreads = {}
    for n in (10, 20, 40):
        est = estimate_error_prob(family, n, trials=40_000, seed=0x5EED)
        assert est.errors > 0
        frac = est.r_histogram.get(2, 0) / est.errors
        fractions[n] = frac
        spreads[n] = math.sqrt(max(frac * (1.0 - frac), 1e-12) / est.errors)
    combined = math.hypot(spreads[10], spreads[40])
    ok = fractions[40] >= fractions[10] - 3.0 * combined
    report(9, ok, "share of two-row errors does not fall as n grows",
           f"frac(n=10)={fractions[10]:.4f}, frac(n=40)={fractions[40]:.4f}, "
           f"3*stderr={3 * combined:.4f}")


def test_criterion_10_identifiability_verdicts():
    grid = tuple(range(10, 201, 10))
    constant = identifiability_trend(FamilySequenceSpec(
        GrowthRule("constant", 2),
        {"kind": "binary-grid", "theta_min": 0.2, "theta_max": 0.8}, grid))
    slow = identifiability_trend(FamilySequenceSpec(
        GrowthRule("exponential", 0.008),
        {"kind": "explicit", "pmfs": equal_angle_binary_pmfs(5)}, grid))
    fast = identifiability_trend(FamilySequenceSpec(
        GrowthRule("exponential", 0.02),
        {"kind": "explicit",
         "pmfs": [(0.05 + 0.015 * i, 0.95 - 0.015 * i) for i in range(60)]},
        grid))
    ok = (constant.verdict == "identifiable-trend"
          and slow.verdict == "identifiable-trend"
          and fast.verdict == "not-identifiable-trend"
          and slow.points[-1].family_size > 2)
    report(10, ok, "trend verdicts separate slow and fast family growth",
           f"constant={constant.verdict}, slow-exp={slow.verdict} "
           f"(A reaches {slow.points[-1].family_size}), fast-exp={fast.verdict}")


def _csv_bytes(tmp_path, command, text, workers, tag):
    out = tmp_path / f"{command}_{tag}_w{workers}.csv"
    cfg = build_config(command, parse_config(text),
                       overrides={"out": str(out), "workers": workers})
    assert run(cfg) == 0
    return out.read_bytes()


def test_criterion_11_worker_count_determinism(tmp_path):
    runs = {
        "mc-oracle": ("simulate",
                      'family.kind = "explicit"\n'
                      "family.pmfs = [[0.5, 0.5], [0.9, 0.1]]\n"
                      "n = 20\ntrials = 100000\n"),
        "exponent": ("exponent",
                     'family.kind = "explicit"\n'
                     "family.pmfs = [[0.5, 0.5], [0.9, 0.1]]\n"
                     "n_grid = [10, 20, 30, 40, 50, 60, 70, 80]\n"
                     "trials = 1000000\n"),
        "sandwich": ("simulate",
                     'family.kind = "binary-grid"\nfamily.size = 4\n'
                     "family.theta_min = 0.1\nfamily.theta_max = 0.9\n"
                     "n = 95\ntrials = 20000\n"),
        "dominance": ("simulate",
                      'family.kind = "binary-grid"\nfamily.size = 4\n'
                      "family.theta_min = 0.1\nfamily.theta_max = 0.9\n"
                      "n_grid = [10, 20, 40]\ntrials = 40000\n"),
    }
    unequal = []
    for tag, (command, text) in runs.items():
        base = _csv_bytes(tmp_path, command, text, 1, tag)
        again = _csv_bytes(tmp_path, command, text, 4, tag)
        if base != again:
            unequal.append(tag)
    report(11, not unequal,
           "CSV outputs are byte-identical across worker counts",
           f"runs: {', '.join(runs)}")
