"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's summation and enumeration paths:
probabilities come from exact binomial enumeration and cycle counts from
first-principles combinatorics, so the oracles stay independent of the
code they check.  The exact error probability shares only the decoder,
which guarantees identical tie handling between simulation and oracle;
the decoder itself is checked against an fsum brute-force enumeration in
test_decoder.py that shares no code with it.
"""

from __future__ import annotations

import math
from math import comb

import numpy as np

from distid import DistributionFamily, ml_decode
from distid.decoder import loglik_from_counts


def binomial_pmf(n: int, p: float) -> list[float]:
    return [comb(n, k) * p**k * (1.0 - p) ** (n - k) for k in range(n + 1)]


def exact_pair_error_prob(family: DistributionFamily, n: int) -> float:
    """Exact decoder error probability for a 2-member binary-alphabet family.

    Sums over the joint space of per-row symbol counts with binomial
    weights, decoding each count pair with the production decoder, so
    ties break exactly as in simulation.
    """
    assert len(family) == 2 and family.alphabet_size == 2
    p1 = float(family[0].probs[1])
    p2 = float(family[1].probs[1])
    b1 = binomial_pmf(n, p1)
    b2 = binomial_pmf(n, p2)
    total = 0.0
    identity = np.array([0, 1])
    for k1 in range(n + 1):
        for k2 in range(n + 1):
            counts = np.array([[n - k1, k1], [n - k2, k2]], dtype=np.int64)
            scores = loglik_from_counts(counts[None], family)[0]
            if not np.array_equal(ml_decode(scores), identity):
                total += b1[k1] * b2[k2]
    return total


def exact_swap_event_prob(p_one: float, q_one: float, n: int) -> float:
    """Exact probability of the two-row swap event for binary pmfs.

    Event: the likelihood-ratio statistic is >= 0, which for binary
    alphabets reduces to comparing the two rows' symbol-1 counts.
    """
    lr = math.log((1.0 - q_one) / (1.0 - p_one))  # per symbol-0 increment
    lr1 = math.log(q_one / p_one)                 # per symbol-1 increment
    bp = binomial_pmf(n, p_one)
    bq = binomial_pmf(n, q_one)
    total = 0.0
    for kq in range(n + 1):
        for kp in range(n + 1):
            stat = ((n - kq) * -lr + kq * -lr1) + ((n - kp) * lr + kp * lr1)
            if stat >= 0.0:
                total += bp[kp] * bq[kq]
    return total


def naive_pairwise_sum(family: DistributionFamily, n: int) -> float:
    """Direct summation of exp(-2 n B) over pairs, no log-domain tricks."""
    size = len(family)
    total = 0.0
    for i in range(size):
        for j in range(i + 1, size):
            coeff = float(np.sqrt(family[i].probs * family[j].probs).sum())
            if coeff > 0.0:
                total += coeff ** (2 * n)
    return total


def count_simple_cycles_brute(k: int, r: int) -> int:
    """Count length-r cycles of K_k from vertex sequences, r >= 3.

    Counts all r-tuples of distinct vertices and divides by the 2r
    rotations and reflections that describe the same cycle.
    """
    assert r >= 3
    total = math.perm(k, r)
    assert total % (2 * r) == 0
    return total // (2 * r)
