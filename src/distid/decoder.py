"""Maximum-likelihood permutation decoding as a max-weight assignment.

Each observed row is scored against each candidate distribution; the
decoder returns the permutation maximizing the total log-likelihood.
`ml_decode` solves this with an O(A^3) augmenting-path assignment on
negated scores; `exhaustive_decode` enumerates all A! permutations and
serves as the independent oracle.  Both resolve score ties by returning
the lexicographically smallest mapping vector.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .distributions import DistributionFamily, ObservationBatch

__all__ = [
    "NoFeasibleAssignmentError",
    "log_likelihood_matrix",
    "ml_decode",
    "exhaustive_decode",
]

EXHAUSTIVE_MAX_SIZE = 10

# Reduced-cost slack below which an edge is treated as potentially tied and
# the lexicographic refinement re-solves to check it exactly.
_TIE_GATE_REL = 1e-9

# The identity screen works on sub-chunks of about this many matrix entries,
# so each float64 (chunk, A, A) working array stays near 256 KiB at any A.
_SCREEN_CHUNK_ENTRIES = 2**15


def certify_identity(scores: np.ndarray) -> np.ndarray:
    """Trials of a (B, A, A) score block whose ML decode is surely the identity.

    The identity is the lexicographically smallest permutation, so it is
    the decoder's answer exactly when no other permutation scores at
    least as high; equivalently, when every cycle of the gain graph with
    arc weights S[i,j] - S[i,i] has negative total gain (the optimality
    condition behind cycle-cancelling for the assignment LP).  A batched
    max-plus Floyd-Warshall finds the best cycle gain through each node.
    A trial is certified only when its diagonal is finite and its best
    cycle gain is below -A * _TIE_GATE_REL * max(1, max|finite S|), a
    margin far above the rounding of either this screen or ml_decode.
    Errors, exact ties and near-ties are left uncertified.  The result is
    a boolean array of length B.
    """
    scores = np.asarray(scores, dtype=np.float64)
    trials, size = scores.shape[0], scores.shape[1]
    certified = np.zeros(trials, dtype=bool)
    diag_idx = np.arange(size)
    chunk = max(1, _SCREEN_CHUNK_ENTRIES // (size * size))
    for lo in range(0, trials, chunk):
        block = scores[lo:lo + chunk]
        diag = block[:, diag_idx, diag_idx]
        # a -inf diagonal, NaN or +inf is left to ml_decode
        keep = np.flatnonzero(np.isfinite(diag).all(axis=1)
                              & (block < np.inf).all(axis=(1, 2)))
        scale = np.abs(block).max(axis=(1, 2), where=block > -np.inf, initial=0.0)
        margin = size * _TIE_GATE_REL * np.maximum(1.0, scale[keep])
        gain = block[keep] - diag[keep, :, None]
        gain[:, diag_idx, diag_idx] = -np.inf
        # every 2-cycle is a cycle: this cheap check drops most errors and
        # ties before the O(A^3) pass
        two = (gain + gain.transpose(0, 2, 1)).max(axis=(1, 2)) < -margin
        keep, gain, margin = keep[two], gain[two], margin[two]
        if not len(keep):
            continue
        for k in range(size):
            np.maximum(gain, gain[:, :, k, None] + gain[:, None, k, :], out=gain)
        certified[lo + keep] = gain[:, diag_idx, diag_idx].max(axis=1) < -margin
    return certified


class NoFeasibleAssignmentError(ValueError):
    """Every permutation hits a zero-probability (-inf) score."""


def loglik_from_counts(counts: np.ndarray, family: DistributionFamily) -> np.ndarray:
    """Log-likelihood scores from per-row symbol counts.

    counts has shape (..., rows, m); the result has shape (..., rows, A)
    with entry [i, j] = sum_x counts[i, x] * log P_j(x), and -inf exactly
    when row i uses a symbol of P_j-probability zero.  Evaluating from
    counts keeps every code path (batch scoring, Monte Carlo trials,
    exact enumeration) bit-identical for equal counts.
    """
    probs = family.prob_matrix()
    zero = probs <= 0.0
    with np.errstate(divide="ignore"):
        logp = np.where(zero, 0.0, np.log(np.where(zero, 1.0, probs)))
    base = np.einsum("...im,jm->...ij", counts, logp)
    hits = np.einsum("...im,jm->...ij", counts, zero.astype(np.float64))
    return np.where(hits > 0, -np.inf, base)


def log_likelihood_matrix(batch: ObservationBatch,
                          family: DistributionFamily) -> np.ndarray:
    """Score matrix entry[i][j] = log-likelihood of row i under member j."""
    if batch.alphabet_size != family.alphabet_size:
        raise ValueError(
            f"batch alphabet size {batch.alphabet_size} != family "
            f"alphabet size {family.alphabet_size}")
    if batch.num_rows != len(family):
        raise ValueError(
            f"batch has {batch.num_rows} rows but family has {len(family)} members")
    return loglik_from_counts(batch.symbol_counts()[None], family)[0]


def _validate_matrix(matrix) -> np.ndarray:
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"score matrix must be square, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError("score matrix must be at least 2x2")
    if np.isnan(arr).any():
        raise ValueError("score matrix contains NaN")
    if np.isposinf(arr).any():
        raise ValueError("score matrix contains +inf")
    return arr


def _mapping_score(rows: list[list[float]], mapping) -> float:
    # left-fold in row order; shared by solver and oracle so tie
    # comparisons have identical float semantics
    s = 0.0
    for i, j in enumerate(mapping):
        s += rows[i][j]
    return s


def _solve_min_cost(cost: list[list[float]]):
    """Jonker-Volgenant style shortest-augmenting-path assignment.

    Returns (row_to_col, row_potentials, col_potentials) minimizing the
    total cost of a perfect matching.  Costs must be finite.
    """
    n = len(cost)
    inf = math.inf
    u = [0.0] * (n + 1)          # row potentials (u[n] is scratch)
    v = [0.0] * (n + 1)          # column potentials (v[n] is the virtual column)
    match = [n] * (n + 1)        # match[j] = row assigned to column j, n = free
    for i in range(n):
        match[n] = i
        j_cur = n
        min_slack = [inf] * (n + 1)
        origin = [n] * (n + 1)
        visited = [False] * (n + 1)
        while True:
            visited[j_cur] = True
            row = match[j_cur]
            delta = inf
            j_next = -1
            crow = cost[row]
            urow = u[row]
            for j in range(n):
                if not visited[j]:
                    slack = crow[j] - urow - v[j]
                    if slack < min_slack[j]:
                        min_slack[j] = slack
                        origin[j] = j_cur
                    if min_slack[j] < delta:
                        delta = min_slack[j]
                        j_next = j
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
            j_prev = origin[j_cur]
            match[j_cur] = match[j_prev]
            j_cur = j_prev
    row_to_col = [0] * n
    for j in range(n):
        row_to_col[match[j]] = j
    return row_to_col, u[:n], v[:n]


def _column_sccs(rows, mapping, reduced, gate, size):
    """Strongly connected components of the tight-edge column digraph.

    Arc mapping[i] -> j exists when row i could move to column j at zero
    reduced cost; an unmatched edge can appear in some optimal assignment
    only if it closes a directed cycle, i.e. both columns share a
    component.  Used purely as a screen: candidates still get confirmed
    by an exact re-solve.
    """
    adj = [[] for _ in range(size)]
    for i in range(size):
        src = mapping[i]
        row = rows[i]
        red = reduced[i]
        for j in range(size):
            if j != src and row[j] != -math.inf and red[j] <= gate:
                adj[src].append(j)
    # Kosaraju, iterative
    order = []
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        stack = [(start, 0)]
        seen[start] = True
        while stack:
            node, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, idx + 1)
                nxt = adj[node][idx]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
                stack.pop()
    radj = [[] for _ in range(size)]
    for u in range(size):
        for v in adj[u]:
            radj[v].append(u)
    comp = [-1] * size
    label = 0
    for start in reversed(order):
        if comp[start] != -1:
            continue
        stack = [start]
        comp[start] = label
        while stack:
            node = stack.pop()
            for nxt in radj[node]:
                if comp[nxt] == -1:
                    comp[nxt] = label
                    stack.append(nxt)
        label += 1
    return comp


def _solve_max_score(rows: list[list[float]], size: int):
    """Max-score assignment with -inf entries mapped to a forbidden cost.

    Returns (mapping, reduced_costs, scale) or raises
    NoFeasibleAssignmentError when the optimum would use a forbidden edge.
    """
    finite = [abs(x) for row in rows for x in row if x > -math.inf]
    if not finite:
        raise NoFeasibleAssignmentError("all scores are -inf")
    scale = max(finite)
    forbidden = size * scale + 2.0  # strictly above size * max|score| + 1
    cost = [[forbidden if x == -math.inf else -x for x in row] for row in rows]
    mapping, u, v = _solve_min_cost(cost)
    if any(rows[i][mapping[i]] == -math.inf for i in range(size)):
        raise NoFeasibleAssignmentError(
            "no permutation avoids zero-probability scores")
    reduced = [[cost[i][j] - u[i] - v[j] for j in range(size)] for i in range(size)]
    return mapping, reduced, scale


def ml_decode(matrix) -> np.ndarray:
    """Permutation maximizing sum_i entry[i][mapping[i]].

    Among maximizers the lexicographically smallest mapping vector is
    returned.  Raises NoFeasibleAssignmentError when every permutation
    has score -inf.
    """
    arr = _validate_matrix(matrix)
    size = arr.shape[0]
    rows = arr.tolist()
    mapping, reduced, scale = _solve_max_score(rows, size)
    best_score = _mapping_score(rows, mapping)

    # Lexicographic refinement: an edge can join an optimal assignment only
    # if its reduced cost is (numerically) zero and it closes an alternating
    # cycle, so candidate columns below the current choice are screened by
    # slack plus the component test and confirmed by an exact re-solve.
    # Generic matrices have no such alternatives and skip straight through.
    gate = _TIE_GATE_REL * max(1.0, scale)
    comp = _column_sccs(rows, mapping, reduced, gate, size)
    taken: list[int] = []
    free_cols = sorted(range(size))
    for i in range(size - 1):
        current = mapping[i]
        chosen = current
        for j in free_cols:
            if j >= current:
                break
            if (rows[i][j] == -math.inf or reduced[i][j] > gate
                    or comp[j] != comp[current]):
                continue
            sub_rows = list(range(i + 1, size))
            sub_cols = [c for c in free_cols if c != j]
            sub = [[rows[r][c] for c in sub_cols] for r in sub_rows]
            try:
                sub_map, _, _ = _solve_max_score(sub, len(sub_rows))
            except NoFeasibleAssignmentError:
                continue
            candidate = taken + [j] + [sub_cols[c] for c in sub_map]
            score = _mapping_score(rows, candidate)
            if score == best_score:
                chosen = j
                mapping = candidate
                break
        taken.append(chosen)
        free_cols.remove(chosen)
    return np.asarray(mapping, dtype=np.int64)


def exhaustive_decode(matrix) -> np.ndarray:
    """Literal argmax over all permutations; oracle for ml_decode.

    Same contract as ml_decode, including the lexicographic tie rule.
    Guarded to matrices of size <= 10.
    """
    arr = _validate_matrix(matrix)
    size = arr.shape[0]
    if size > EXHAUSTIVE_MAX_SIZE:
        raise ValueError(
            f"exhaustive search is limited to size <= {EXHAUSTIVE_MAX_SIZE}, "
            f"got {size}")
    rows = arr.tolist()
    best_score = -math.inf
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(size)):
        score = _mapping_score(rows, perm)
        if score == -math.inf:
            continue
        if score > best_score or (score == best_score and
                                  (best is None or perm < best)):
            best_score = score
            best = perm
    if best is None:
        raise NoFeasibleAssignmentError(
            "no permutation avoids zero-probability scores")
    return np.asarray(best, dtype=np.int64)
