"""Maximum-likelihood permutation decoding as a max-weight assignment.

Observations enter only through their per-row symbol counts:
`loglik_from_counts` scores each row against each candidate
distribution, and the decoder returns the permutation maximizing the
total log-likelihood.
A mapping's score is a correctly rounded sum (math.fsum), so it does not
depend on row order and rows with identical scores tie exactly.
`ml_decode` takes one (A, A) score matrix or a (B, A, A) stack and makes
one assignment solve per call: Jonker-Volgenant shortest augmenting
paths on negated scores, run in numpy in lockstep over the stack, with
the per-matrix float operations of the one-matrix algorithm.  Ties are
then settled among the edges that are tight (zero reduced cost under
that solve's duals), only for the matrices where some row has a tight
smaller column held by a later row.  In numpy, rows with identical
scores (a class) take their class's columns in increasing order, and a
boolean closure looks for cycles of tight edges between classes.  Only
a matrix with such a cycle goes on to the Python cheapest-cycle search,
which confirms every move by an exact score comparison.
`exhaustive_decode` enumerates all A! permutations and serves as the
oracle.  Both resolve score ties by returning the lexicographically
smallest mapping vector.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

from .distributions import DistributionFamily

__all__ = [
    "NoFeasibleAssignmentError",
    "ml_decode",
    "exhaustive_decode",
]

EXHAUSTIVE_MAX_SIZE = 10

# Reduced-cost slack below which an edge counts as tight: the lexicographic
# refinement moves rows only along the cheapest cycle of tight edges and
# confirms each move by an exact score comparison.
_TIE_GATE_REL = 1e-9

# Trials with a tight lexicographic alternative are settled in sub-chunks of
# about this many score entries, so no tie temporary grows with the stack.
_TIE_CHUNK_ENTRIES = 2**16


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
    zero = family._zero   # the family's stored zero mask and log-probabilities
    base = np.einsum("...im,jm->...ij", counts, family._logp)
    if not zero.any():
        return base
    hits = np.einsum("...im,jm->...ij", counts, zero.astype(np.float64))
    return np.where(hits > 0, -np.inf, base)


def _validate_scores(scores, stacked: bool) -> np.ndarray:
    """Scores as float64: one (A, A) matrix, or with stacked also a (B, A, A) stack."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim not in ((2, 3) if stacked else (2,)) or arr.shape[-1] != arr.shape[-2]:
        raise ValueError(f"score matrix must be square, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise ValueError("score matrix must be at least 2x2")
    if np.isnan(arr).any():
        raise ValueError("score matrix contains NaN")
    if (arr == np.inf).any():
        raise ValueError("score matrix contains +inf")
    return arr


def _mapping_score(rows: list[list[float]], mapping) -> float:
    # correctly rounded, so independent of row order: rows with identical
    # scores tie exactly; _refine sums its mappings the same way
    return math.fsum(map(list.__getitem__, rows, mapping))


def _solve_lockstep(scores: np.ndarray, forbidden: np.ndarray):
    """Jonker-Volgenant shortest augmenting paths over a stack, in lockstep.

    Minimizes the cost -S over the perfect matchings of each (A, A) trial
    of scores, with a -inf score costing forbidden[b].  Rows are added one
    at a time; for row i each step scans one cost row of every trial still
    searching, gathered from the stack (no cost copy is built), and a
    trial leaves the step loop once its path reaches a free column.  Each
    trial sees the float operations of the one-matrix loop in its order:
    slack (c - u[row]) - v[j], strict < updates, the first column of least
    slack, u += delta on the rows of visited columns, v -= delta on the
    visited columns and min_slack -= delta on the others.  So its mapping
    and duals do not depend on the rest of the stack.  Returns (mapping,
    u, v), each of shape (B, A).
    """
    trials, size = scores.shape[:2]
    u = np.zeros((trials, size))
    v = np.zeros((trials, size))
    match = np.full((trials, size + 1), size)   # row on each column; size = free

    def cost_rows(trial, row):
        s = scores[trial, row]
        return np.where(s == -np.inf, forbidden[trial, None], -s)

    every = np.arange(trials)
    for i in range(size):
        match[:, size] = i                      # the virtual column holds row i
        # first step, from the virtual column: only row i is in the tree
        min_slack = (cost_rows(every, i) - u[:, i, None]) - v
        j_cur = min_slack.argmin(axis=1)
        delta = min_slack[every, j_cur]
        u[:, i] += delta
        min_slack -= delta[:, None]
        done = match[every, j_cur] == size
        match[every[done], j_cur[done]] = i
        idx = np.flatnonzero(~done)
        if not len(idx):
            continue
        # the trials still searching, and their state in the same order;
        # a visited column's min_slack is -inf, so no update reaches it
        lu, lv, lm = u[idx], v[idx], match[idx]
        j_cur, min_slack = j_cur[idx], min_slack[idx]
        origin = np.full((len(idx), size), size)
        visited = np.zeros((len(idx), size), dtype=bool)
        in_tree = np.zeros((len(idx), size), dtype=bool)   # rows of visited columns
        in_tree[:, i] = True
        while True:
            pos = np.arange(len(idx))
            row = lm[pos, j_cur]
            visited[pos, j_cur] = True
            in_tree[pos, row] = True
            min_slack[pos, j_cur] = -np.inf
            slack = (cost_rows(idx, row) - lu[pos, row][:, None]) - lv
            better = slack < min_slack
            np.copyto(min_slack, slack, where=better)
            np.copyto(origin, j_cur[:, None], where=better)
            masked = np.where(visited, np.inf, min_slack)
            j_cur = masked.argmin(axis=1)
            delta = masked[pos, j_cur][:, None]
            np.add(lu, delta, out=lu, where=in_tree)
            np.subtract(lv, delta, out=lv, where=visited)
            min_slack -= delta
            done = lm[pos, j_cur] == size
            if not done.any():
                continue
            # augment along the path back to the virtual column
            walk = np.flatnonzero(done)
            col = j_cur[walk]
            while len(walk):
                prev = origin[walk, col]
                lm[walk, col] = lm[walk, prev]
                more = prev != size
                walk, col = walk[more], prev[more]
            u[idx[done]], v[idx[done]], match[idx[done]] = lu[done], lv[done], lm[done]
            left = ~done
            if not left.any():
                break
            idx, lu, lv, lm = idx[left], lu[left], lv[left], lm[left]
            j_cur, min_slack, origin = j_cur[left], min_slack[left], origin[left]
            visited, in_tree = visited[left], in_tree[left]
    mapping = np.empty((trials, size), dtype=np.int64)
    mapping[every[:, None], match[:, :size]] = np.arange(size)
    return mapping, u, v


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


def _refine(matrix: np.ndarray, mapping: list[int], tight, gate: float) -> list[int]:
    """The lexicographically smallest optimum reachable from mapping.

    Row i can take a smaller free column j exactly when an alternating
    cycle of tight edges through the later rows closes from j back to
    mapping[i] at no loss; the cheapest such cycle is confirmed by an
    exact score comparison.  Moves run along tight edges only, so the
    duals and the tight lists (tight[i] maps each tight column of row i,
    in increasing order, to its reduced cost) stay valid.
    """
    rows = np.arange(len(mapping))
    best_score = math.fsum(matrix[rows, mapping].tolist())
    owner = [0] * len(mapping)
    for i, j in enumerate(mapping):
        owner[j] = i
    for i in range(len(mapping) - 1):
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
            if math.fsum(matrix[rows, candidate].tolist()) == best_score:
                mapping = candidate
                for row, col in moves:
                    owner[col] = row
                break
    return mapping


def _settle_classes(scores: np.ndarray, mapping: np.ndarray, tight: np.ndarray):
    """Identical-row ties of a (B, A, A) stack, settled in numpy.

    Rows with exactly equal scores form a class.  Any assignment of a
    class's columns to its rows has the same fsum score, and the
    lexicographically smallest gives them in increasing order: the
    canonical mapping.  Any other optimum differs from it by alternating
    cycles of tight edges.  Rows of one class share their duals and so
    their tight columns, so a cycle that leaves a class shortens to a
    cycle of the digraph over columns with c -> c' when the row on c is
    tight on c' and the row on c' is in another class.  A trial whose
    digraph has no cycle is thus settled by the canonical mapping.
    Returns the canonical mappings and, per trial, whether its digraph
    has a cycle.
    """
    trials, size = mapping.shape
    rows = np.arange(size)
    every = np.arange(trials)[:, None]
    # each row's class is its first equal row: the candidates are the
    # rows at or before it with the same two key columns, and a candidate
    # that differs elsewhere is dropped (the row itself always matches)
    candidate = rows[:, None] <= rows
    for c in {size // 3, 2 * size // 3}:
        key = scores[:, :, c]
        candidate = candidate & (key[:, :, None] == key[:, None, :])
    first = candidate.argmax(axis=1)
    b, k = np.nonzero(first != rows)
    while len(b):
        i = first[b, k]
        differ = (scores[b, i] != scores[b, k]).any(axis=1)
        b, i, k = b[differ], i[differ], k[differ]
        candidate[b, i, k] = False
        first[b, k] = candidate[b, :, k].argmax(axis=1)
    # canonical form: the classes' rows, and their columns, in class order
    owner = np.empty_like(mapping)
    owner[every, mapping] = rows
    label = np.take_along_axis(first, owner, axis=1)   # class of each column
    canonical = np.empty_like(mapping)
    canonical[every, np.argsort(first * size + rows, axis=1)] = np.argsort(
        label * size + rows, axis=1)
    owner[every, canonical] = rows
    reach = (tight[every, owner] & (label[:, :, None] != label[:, None, :])).astype(np.float32)
    # s squarings give the paths of 1..2^s arcs, and 2^(s+1) >= A: a cycle
    # (at most A arcs) splits at some c' into two such paths, c to c' and back
    for _ in range((size - 1).bit_length() - 1):
        reach = np.minimum(reach + reach @ reach, 1.0)
    return canonical, (reach * reach.transpose(0, 2, 1)).any(axis=(1, 2))


def ml_decode(scores) -> np.ndarray:
    """Permutation maximizing sum_i entry[i][mapping[i]], for each matrix.

    scores is one (A, A) matrix, giving an (A,) mapping, or a (B, A, A)
    stack, giving (B, A) mappings; each matrix is decoded on its own.
    Among maximizers the lexicographically smallest mapping vector is
    returned.  Raises NoFeasibleAssignmentError when every permutation
    of some matrix has score -inf.
    """
    arr = _validate_scores(scores, stacked=True)
    stack = arr if arr.ndim == 3 else arr[None]
    trials, size = stack.shape[:2]
    finite = stack > -np.inf
    # largest |finite score| of each matrix, with no (B, A, A) temporary
    # beyond the finite mask
    scale = np.maximum(stack.max(axis=(1, 2), where=finite, initial=0.0),
                       -stack.min(axis=(1, 2), where=finite, initial=0.0))
    del finite
    # a feasible assignment costs at most size * scale, one with a
    # forbidden edge at least forbidden - (size - 1) * scale
    forbidden = 2.0 * size * scale + 2.0
    mapping, u, v = _solve_lockstep(stack, forbidden)
    trial_idx = np.arange(trials)[:, None]
    if (stack[trial_idx, np.arange(size), mapping] == -np.inf).any():
        raise NoFeasibleAssignmentError(
            "no permutation avoids zero-probability scores")

    # An edge is tight when its reduced cost under the solve's duals is
    # within the gate; every optimal assignment uses only tight edges.  A
    # trial needs the lexicographic refinement only if some row i has a
    # tight column j < mapping[i] owned by a later row: without one, no
    # tied mapping is smaller.  The flagged trials take their canonical
    # class order, and those with a tight cycle between classes go on to
    # the exact refinement.
    gate = _TIE_GATE_REL * np.maximum(1.0, scale)
    cols = np.arange(size)
    owner = np.empty_like(mapping)
    owner[trial_idx, mapping] = cols
    tight = np.empty(stack.shape, dtype=bool)
    refine = np.zeros(trials, dtype=bool)
    for i in range(size):
        # a -inf score gives +inf and is never tight
        tight[:, i] = ((-stack[:, i] - u[:, i, None]) - v) <= gate[:, None]
        refine |= (tight[:, i] & (cols < mapping[:, i, None]) & (owner > i)).any(axis=1)
    flagged = np.flatnonzero(refine)
    chunk = max(1, _TIE_CHUNK_ENTRIES // (size * size))
    cyclic = []
    for lo in range(0, len(flagged), chunk):
        idx = flagged[lo:lo + chunk]
        mapping[idx], has_cycle = _settle_classes(stack[idx], mapping[idx], tight[idx])
        cyclic += idx[has_cycle].tolist()
    for t in cyclic:
        i, j = np.nonzero(tight[t])
        reduced = ((-stack[t, i, j] - u[t, i]) - v[t, j]).tolist()
        edges = [{} for _ in range(size)]
        for row, col, slack in zip(i.tolist(), j.tolist(), reduced):
            edges[row][col] = slack
        mapping[t] = _refine(stack[t], mapping[t].tolist(), edges, float(gate[t]))
    return mapping if arr.ndim == 3 else mapping[0]


def exhaustive_decode(matrix) -> np.ndarray:
    """Literal argmax over all permutations; oracle for ml_decode.

    Same contract as ml_decode, including the lexicographic tie rule.
    Guarded to matrices of size <= 10.
    """
    arr = _validate_scores(matrix, stacked=False)
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
