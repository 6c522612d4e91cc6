"""Maximum-likelihood permutation decoding as a max-weight assignment.

Each observed row is scored against each candidate distribution; the
decoder returns the permutation maximizing the total log-likelihood.
A mapping's score is a correctly rounded sum (math.fsum), so it does not
depend on row order and rows with identical scores tie exactly.
`ml_decode` makes one O(A^3) augmenting-path assignment solve on negated
scores, then settles ties by a cheapest-cycle search over tight edges
(zero reduced cost under that solve's duals); `exhaustive_decode`
enumerates all A! permutations and serves as the oracle.  Both resolve
score ties by returning the lexicographically smallest mapping vector.
"""

from __future__ import annotations

import heapq
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

# Reduced-cost slack below which an edge counts as tight: the lexicographic
# refinement moves rows only along the cheapest cycle of tight edges and
# confirms each move by an exact score comparison.
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
    # correctly rounded, so independent of row order: rows with identical
    # scores tie exactly; shared by solver and oracle
    return math.fsum(map(list.__getitem__, rows, mapping))


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


def _solve_max_score(rows: list[list[float]], size: int):
    """Max-score assignment with -inf entries mapped to a forbidden cost.

    Returns (mapping, tight, gate) or raises NoFeasibleAssignmentError
    when the optimum would use a forbidden edge.  tight[i] maps, in
    increasing column order, each finite column of row i whose reduced
    cost under the solver's duals is at most gate to that reduced cost;
    every optimal assignment uses only these edges.
    """
    finite = [abs(x) for row in rows for x in row if x > -math.inf]
    if not finite:
        raise NoFeasibleAssignmentError("all scores are -inf")
    scale = max(finite)
    # a feasible assignment costs at most size * scale, one with a
    # forbidden edge at least forbidden - (size - 1) * scale
    forbidden = 2.0 * size * scale + 2.0
    cost = [[forbidden if x == -math.inf else -x for x in row] for row in rows]
    mapping, u, v = _solve_min_cost(cost)
    if any(rows[i][mapping[i]] == -math.inf for i in range(size)):
        raise NoFeasibleAssignmentError(
            "no permutation avoids zero-probability scores")
    gate = _TIE_GATE_REL * max(1.0, scale)
    tight = [{j: c - u[i] - v[j] for j, c in enumerate(cost[i])
              if rows[i][j] > -math.inf and c - u[i] - v[j] <= gate}
             for i in range(size)]
    return mapping, tight, gate


def _tight_path(tight, mapping, owner, row, start, gate):
    """Cheapest tight-edge moves that let row take column start.

    Dijkstra over columns, from start back to mapping[row]: the owner k of
    a reached column may move to any tight column c at the cost
    tight[k][c] - tight[k][mapping[k]], and only columns owned by rows
    after row are entered.  The duals cancel around the closed cycle, so
    its cost is the score the moves give up, and the cheapest cycle gives
    the best assignment with row on start and the earlier rows fixed.
    Returns its moves as (row, column) pairs, or None when every cycle
    costs more than gate.
    """
    target = mapping[row]
    first = tight[row][start] - tight[row][target]
    dist = {start: first}
    prev = {}
    heap = [(first, start)]
    done = set()
    while heap:
        cost, col = heapq.heappop(heap)
        if col in done:
            continue
        if col == target:
            moves = [(row, start)]
            while col != start:
                moves.append((owner[prev[col]], col))
                col = prev[col]
            return moves
        done.add(col)
        edges = tight[owner[col]]
        base = cost - edges[mapping[owner[col]]]
        for nxt, slack in edges.items():
            step = base + slack
            if (step <= gate and step < dist.get(nxt, math.inf) and nxt not in done
                    and (nxt == target or owner[nxt] > row)):
                dist[nxt] = step
                prev[nxt] = col
                heapq.heappush(heap, (step, nxt))
    return None


def ml_decode(matrix) -> np.ndarray:
    """Permutation maximizing sum_i entry[i][mapping[i]].

    Among maximizers the lexicographically smallest mapping vector is
    returned.  Raises NoFeasibleAssignmentError when every permutation
    has score -inf.
    """
    arr = _validate_matrix(matrix)
    size = arr.shape[0]
    rows = arr.tolist()
    mapping, tight, gate = _solve_max_score(rows, size)
    best_score = _mapping_score(rows, mapping)

    # Lexicographic refinement: row i can take a smaller free column j
    # exactly when an alternating cycle of tight edges through the later
    # rows closes from j back to mapping[i] at no loss; the cheapest such
    # cycle is confirmed by an exact score comparison.  Moves run along
    # tight edges only, so the duals and the tight lists stay valid.
    # Generic matrices have no tight alternatives and skip straight through.
    owner = [0] * size
    for i, j in enumerate(mapping):
        owner[j] = i
    for i in range(size - 1):
        current = mapping[i]
        for j in tight[i]:
            if j >= current:
                break
            if owner[j] < i:
                continue
            moves = _tight_path(tight, mapping, owner, i, j, gate)
            if moves is None:
                continue
            candidate = mapping.copy()
            for row, col in moves:
                candidate[row] = col
            if _mapping_score(rows, candidate) == best_score:
                mapping = candidate
                for row, col in moves:
                    owner[col] = row
                break
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
