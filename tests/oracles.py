"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's summation, enumeration and
decoding paths: probabilities come from exact binomial enumeration, ML
decisions of small binary families from 50-digit decimal scores with
ties settled by exact reasoning, swap events from likelihood products in
exact fractions, and cycle counts from first-principles
combinatorics, so the oracles stay independent of the code they check.
The decoder's oracle on any score matrix, brute_force_decode, enumerates
every permutation and sums its scores with math.fsum; it takes only the
error type from the decoder.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from distid import DistributionFamily, NoFeasibleAssignmentError, enumerate_cycles
from distid.distributions import _upper_blocks


def binomial_pmf(n: int, p: float) -> list[float]:
    """Binomial(n, p) pmf by the term recurrence
    pmf[k + 1] = pmf[k] (n - k) / (k + 1) * p / (1 - p) in 60-digit decimal,
    which neither overflows nor underflows before the final rounding."""
    if p in (0.0, 1.0):
        return [float(k == round(n * p)) for k in range(n + 1)]
    with localcontext() as ctx:
        ctx.prec = 60
        ratio = Decimal(p) / Decimal(1.0 - p)
        term = Decimal(1.0 - p) ** n
        pmf = []
        for k in range(n + 1):
            pmf.append(float(term))
            term = term * (n - k) / (k + 1) * ratio
    return pmf


def brute_force_decode(scores) -> list[int]:
    """Lexicographically smallest maximizer of sum_i scores[i][perm[i]] over
    all permutations, each sum by math.fsum.  Raises
    NoFeasibleAssignmentError when every permutation scores -inf."""
    rows = np.asarray(scores).tolist()
    best, best_perm = -math.inf, None
    for perm in itertools.permutations(range(len(rows))):
        total = math.fsum([row[j] for row, j in zip(rows, perm)])
        if total > best:  # permutations come in lexicographic order
            best, best_perm = total, list(perm)
    if best_perm is None:
        raise NoFeasibleAssignmentError("every permutation scores -inf")
    return best_perm


def _row_score(n: int, k: int, probs) -> Decimal | None:
    """(n - k) ln P(0) + k ln P(1) in decimal; None when a positive count
    meets a zero-probability symbol."""
    score = Decimal(0)
    for count, p in zip((n - k, k), probs):
        if count:
            if p == 0.0:
                return None
            score += count * Decimal(p).ln()
    return score


def _ml_permutation(ks: tuple, table: list[list]):
    """ML permutation of one count tuple, or None when every one scores -inf.

    Rows with identical counts are interchangeable, so two permutations
    that give each count the same multiset of members tie exactly, and
    the lexicographically smaller one wins.  Any other two scores are
    compared as decimals; an exact decimal tie between them is beyond
    this oracle and fails loudly.
    """
    best = best_score = best_key = None
    for perm in itertools.permutations(range(len(ks))):   # lexicographic order
        terms = [table[k][j] for k, j in zip(ks, perm)]
        if None in terms:
            continue
        score = sum(terms)
        key = sorted(zip(ks, perm))
        if best is None or (key != best_key and score > best_score):
            best, best_score, best_key = perm, score, key
        elif key != best_key:
            assert score != best_score, f"tie the oracle cannot settle at counts {ks}"
    return best


def exact_decodes(family: DistributionFamily, n: int):
    """Every count tuple of a small binary family, its probability and ML decode.

    Row i holds the number of ones among n draws from member i, so the
    tuple ks has probability prod_i Binomial(n, P_i(1))(ks[i]).  Yields
    (ks, probability, permutation) for all (n + 1)^A tuples, in
    lexicographic order of ks; the permutation is None when infeasible.
    Decided in 50-digit decimal without the library's decoder.
    """
    assert family.alphabet_size == 2 and len(family) <= 4
    with localcontext() as ctx:
        ctx.prec = 50
        # table[k][j]: row with k ones scored against member j
        table = [[_row_score(n, k, member.probs.tolist()) for member in family]
                 for k in range(n + 1)]
        decodes = {ks: _ml_permutation(ks, table)
                   for ks in itertools.product(range(n + 1), repeat=len(family))}
    pmfs = [binomial_pmf(n, float(member.probs[1])) for member in family]
    for ks, perm in decodes.items():
        weight = 1.0
        for pmf, k in zip(pmfs, ks):
            weight *= pmf[k]
        yield ks, weight, perm


def exact_pair_error_prob(family: DistributionFamily, n: int) -> float:
    """Exact decoder error probability for a 2-member binary-alphabet family.

    Sums the binomial weights of the count pairs whose ML decode is the
    swap; a tie (equal counts) goes to the identity.
    """
    assert len(family) == 2
    return sum(weight for _, weight, perm in exact_decodes(family, n)
               if perm != (0, 1))


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


def _types(n: int, m: int):
    """Every count vector of n draws over m symbols."""
    for bars in itertools.combinations(range(n + m - 1), m - 1):
        edges = (-1, *bars, n + m - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def _type_prob(counts: tuple, probs) -> float:
    coeff = math.factorial(sum(counts))
    for c in counts:
        coeff //= math.factorial(c)
    return coeff * math.prod(p**c for p, c in zip(probs, counts))


def possible_types(n: int, probs) -> list[tuple]:
    """Every count vector of n draws that the pmf gives positive probability."""
    return [c for c in _types(n, len(probs))
            if all(x > 0 or k == 0 for x, k in zip(probs, c))]


def _likelihood(counts, probs) -> Fraction:
    return math.prod(Fraction(float(x)) ** c for x, c in zip(probs, counts))


def swap_events_exact(p, q, types_p, types_q) -> list[list[bool]]:
    """Swap events of every pair of a p-row type and a q-row type.

    The event is that the swap, which explains the p-row's counts by q
    and the q-row's by p, has a likelihood product at least that of the
    identity.  Both products are compared exactly, as fractions of the
    float probabilities, so a tie is decided exactly and counts as the
    event; a zero probability zeroes its product.
    """
    identity_p = [_likelihood(c, p) for c in types_p]
    swap_p = [_likelihood(c, q) for c in types_p]
    identity_q = [_likelihood(c, q) for c in types_q]
    swap_q = [_likelihood(c, p) for c in types_q]
    return [[sp * sq >= ip * iq for sq, iq in zip(swap_q, identity_q)]
            for sp, ip in zip(swap_p, identity_p)]


def exact_swap_event_prob_general(p, q, n: int) -> float:
    """Exact swap-event probability of two pmfs on any alphabet, by enumeration.

    Sums P(type of the p-row) * P(type of the q-row) with fsum over the
    type pairs that `swap_events_exact` calls events.
    """
    p, q = [float(x) for x in p], [float(x) for x in q]
    types_p, types_q = possible_types(n, p), possible_types(n, q)
    events = swap_events_exact(p, q, types_p, types_q)
    return math.fsum(_type_prob(cp, p) * _type_prob(cq, q)
                     for cp, row in zip(types_p, events)
                     for cq, event in zip(types_q, row) if event)


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


def cycle_gains_loop(k: int, weights, r: int) -> list[float]:
    """Gain of each cycle of enumerate_cycles(k, r), one Python loop per
    cycle: the product of its edge weights in cycle order, w * w for a
    2-cycle.  weights are in lexicographic pair order."""
    w = dict(zip(itertools.combinations(range(k), 2), map(float, weights)))
    gains = []
    for cycle in enumerate_cycles(k, r):
        ws = [w[min(a, b), max(a, b)] for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        if r == 2:
            gains.append(ws[0] * ws[0])
            continue
        gain = 1.0
        for x in ws:
            gain *= x
        gains.append(gain)
    return gains


def sum_in_order(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def edge_incidence_loop(k: int, r: int) -> list[int]:
    """Edge traversal counts over enumerate_cycles(k, r), counted per cycle;
    a 2-cycle traverses its edge out and back."""
    position = {pair: e for e, pair in enumerate(itertools.combinations(range(k), 2))}
    counts = [0] * len(position)
    for cycle in enumerate_cycles(k, r):
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            counts[position[min(a, b), max(a, b)]] += 1
    return counts


def fsum_pairwise_sum(family: DistributionFamily, n: int) -> tuple[float, float]:
    """(S, log S) from the exact sum of the rounded terms' exponentials.

    The terms -2 n B are the finite distances above the diagonal, row by
    row, of the kernel's row blocks (`distance_matrix` mirrors the same
    blocks into its (A, A) result, which is not built here); each is
    shifted by the largest, exponentiated by math.exp and added by
    math.fsum, so the sum carries one rounding.  (0.0, -inf) when no
    term is finite.
    """
    scale = -2.0 * n

    def terms():
        for lo, hi, block in _upper_blocks(family):
            for row in range(hi - lo):
                yield from (scale * d for d in block[row, row + 1:].tolist()
                            if d < math.inf)

    peak = max(terms(), default=-math.inf)
    if peak == -math.inf:
        return 0.0, -math.inf
    log_s = peak + math.log(math.fsum(math.exp(t - peak) for t in terms()))
    return math.exp(log_s), log_s
