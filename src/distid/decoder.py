"""Maximum-likelihood permutation decoding as a max-weight assignment.

Observations enter only through their per-row symbol counts:
`loglik_from_counts` scores each row against each candidate
distribution, and the decoder returns the permutation maximizing the
total log-likelihood.
A mapping's score is a correctly rounded sum (math.fsum), so it does not
depend on row order and rows with identical scores tie exactly.
`ml_decode` takes one (A, A) score matrix or a (B, A, A) stack, or a
(U, A) table of distinct score rows with a (B, A) index of each
matrix's rows into it (a dense stack is reduced to that form by its
rows' bytes), and makes one assignment solve per call:
Jonker-Volgenant shortest augmenting paths on negated scores, run in
numpy in lockstep over the stack, with the per-matrix float operations
of the one-matrix algorithm.  Rows are added in bit-reversed order, and
a matrix whose path is done idles until half the lockstep's matrices
are, which then augment and leave together.  Ties are then settled in
one pass over chunks of consecutive matrices, among the edges that are
tight (zero reduced cost under that solve's duals), only for the
matrices where some row has a tight smaller column held by a later row.
In numpy, rows on the same table row (a class) take their class's
columns in increasing order, and a boolean closure looks for cycles of
tight edges between classes.  Only a matrix with such a cycle goes on
to the Python cheapest-cycle search, which confirms every move by an
exact score comparison.  No tie array grows with the stack.
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

# The tie pass takes the stack in chunks of about this many score entries,
# so no tie temporary grows with the stack.
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


def _validate_scores(scores, ndims: tuple[int, ...], square: bool = True) -> np.ndarray:
    """Scores as float64 with one of ndims dimensions: square matrices, or
    with square False one (U, A) table of score rows."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim not in ndims or square and arr.shape[-1] != arr.shape[-2]:
        shape = "matrix must be square" if square else "table must have shape (U, A)"
        raise ValueError(f"score {shape}, got shape {arr.shape}")
    if arr.shape[-1] < 2:
        raise ValueError("score matrix must be at least 2x2")
    if np.isnan(arr).any():
        raise ValueError("score matrix contains NaN")
    if (arr == np.inf).any():
        raise ValueError("score matrix contains +inf")
    return arr


def _validate_rows(rows, table: np.ndarray) -> np.ndarray:
    """Row numbers into a score table: (A,) for one matrix, (B, A) for a stack."""
    index = np.asarray(rows)
    size = table.shape[1]
    if index.dtype.kind not in "iu" or index.ndim not in (1, 2) or index.shape[-1] != size:
        raise ValueError(f"rows must be integers of shape (A,) or (B, A) with A = {size}, "
                         f"got {index.dtype} of shape {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= len(table)):
        raise ValueError(f"rows must lie in 0..{len(table) - 1}")
    return index.astype(np.int64, copy=False)


def _mapping_score(rows: list[list[float]], mapping) -> float:
    # correctly rounded, so independent of row order: rows with identical
    # scores tie exactly
    return math.fsum(map(list.__getitem__, rows, mapping))


def _insertion_order(size: int) -> list[int]:
    """Rows 0..size-1 in bit-reversed order (0, 4, 2, 6, 1, 5, 3, 7 at size 8).

    Count rows come in member order, and neighbouring members compete for
    neighbouring columns; rows spread out over the family first find free
    columns in fewer augmenting steps than rows added in order (334
    lockstep steps against 528 on a binary-grid A = 32 block at n = 40).
    """
    bits = (size - 1).bit_length()
    order = (int(f"{i:0{bits}b}"[::-1], 2) for i in range(1 << bits))
    return [i for i in order if i < size]


def _solve_lockstep(table: np.ndarray, index: np.ndarray, forbidden: np.ndarray):
    """Jonker-Volgenant shortest augmenting paths over a stack, in lockstep.

    Trial b's score matrix is table[index[b]]: row r of it is row
    index[b, r] of the (U, A) table.  The solve minimizes the cost -S
    over the perfect matchings of each trial, with a -inf score costing
    forbidden[b].  Rows are added one at a time, in `_insertion_order`;
    for row i each step scans one cost row of every lane (a trial still
    searching), read from the table, so no cost matrix is built.  Each
    trial sees the float operations of the one-matrix loop in that row
    order: slack (c - u[row]) - v[j], strict < updates, the first column
    of least slack, u += delta on the rows of visited columns, v -= delta
    on the visited columns and min_slack -= delta on the others.  So its
    mapping and duals do not depend on the rest of the stack.

    A lane whose path reaches a free column idles, with delta 0, until
    half the lanes idle; then those lanes augment, write back and leave
    in one batch.  Meanwhile it keeps stepping: the columns of its path
    are all visited (min_slack -inf), so no slack moves their origin, and
    adding 0.0 leaves every dual's bits alone, as the duals start at +0.0
    and a sum is -0.0 only when both its terms are.
    Returns (mapping, u, v), each of shape (B, A).
    """
    trials, size = index.shape
    capped = (table == -np.inf).any()

    def cost_rows(rows, forbidden):
        s = table[rows]
        if capped:
            return np.where(s == -np.inf, forbidden[:, None], -s)
        return np.negative(s, out=s)

    u = np.zeros((trials, size))
    v = np.zeros((trials, size))
    match = np.full((trials, size + 1), size)   # row on each column; size = free
    every = np.arange(trials)
    for i in _insertion_order(size):
        match[:, size] = i                      # the virtual column holds row i
        # first step, from the virtual column: only row i is in the tree
        min_slack = (cost_rows(index[:, i], forbidden) - u[:, i, None]) - v
        j_cur = min_slack.argmin(axis=1)
        delta = min_slack[every, j_cur]
        u[:, i] += delta
        min_slack -= delta[:, None]
        done = match[every, j_cur] == size
        match[every[done], j_cur[done]] = i
        idx = np.flatnonzero(~done)
        if not len(idx):
            continue
        # the lanes, and their state in the same order; a visited column's
        # min_slack is -inf, so no update reaches it
        lu, lv, lm, lrows, lcap = u[idx], v[idx], match[idx], index[idx], forbidden[idx]
        j_cur, min_slack = j_cur[idx], min_slack[idx]
        origin = np.full((len(idx), size), size)
        visited = np.zeros((len(idx), size), dtype=bool)
        in_tree = np.zeros((len(idx), size), dtype=bool)   # rows of visited columns
        in_tree[:, i] = True
        live = np.ones(len(idx), dtype=bool)
        end = np.empty(len(idx), dtype=np.int64)   # each idle lane's free column
        idle = 0
        pos = np.arange(len(idx))
        while True:
            row = lm[pos, j_cur]
            np.minimum(row, size - 1, out=row)      # an idle lane's column may be free
            visited[pos, j_cur] = True
            in_tree[pos, row] = True
            min_slack[pos, j_cur] = -np.inf
            slack = (cost_rows(lrows[pos, row], lcap) - lu[pos, row][:, None]) - lv
            better = slack < min_slack
            np.copyto(min_slack, slack, where=better)
            np.copyto(origin, j_cur[:, None], where=better)
            masked = np.where(visited, np.inf, min_slack)
            j_cur = masked.argmin(axis=1)
            delta = np.where(live, masked[pos, j_cur], 0.0)[:, None]
            lu = np.where(in_tree, lu + delta, lu)
            lv = np.where(visited, lv - delta, lv)
            min_slack -= delta
            hit = (lm[pos, j_cur] == size) & live
            if not hit.any():
                continue
            end[hit] = j_cur[hit]
            live &= ~hit
            idle += int(np.count_nonzero(hit))
            if 2 * idle < len(idx):
                continue
            # augment the idle lanes along their paths back to the virtual column
            gone = np.flatnonzero(~live)
            walk, col = gone, end[gone]
            while len(walk):
                prev = origin[walk, col]
                lm[walk, col] = lm[walk, prev]
                more = prev != size
                walk, col = walk[more], prev[more]
            back = idx[gone]
            u[back], v[back], match[back] = lu[gone], lv[gone], lm[gone]
            keep = np.flatnonzero(live)
            if not len(keep):
                break
            idx, lu, lv, lm = idx[keep], lu[keep], lv[keep], lm[keep]
            lrows, lcap, j_cur = lrows[keep], lcap[keep], j_cur[keep]
            min_slack, origin = min_slack[keep], origin[keep]
            visited, in_tree = visited[keep], in_tree[keep]
            live, end, idle = live[keep], end[keep], 0
            pos = np.arange(len(idx))
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


def _refine(rows: list[list[float]], mapping: list[int], tight, gate: float) -> list[int]:
    """The lexicographically smallest optimum reachable from mapping.

    Row i can take a smaller free column j exactly when an alternating
    cycle of tight edges through the later rows closes from j back to
    mapping[i] at no loss; the cheapest such cycle is confirmed by an
    exact score comparison over rows, the score matrix as lists.  Moves
    run along tight edges only, so the duals and the tight lists (tight[i]
    maps each tight column of row i, in increasing order, to its reduced
    cost) stay valid.
    """
    best_score = _mapping_score(rows, mapping)
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
            if _mapping_score(rows, candidate) == best_score:
                mapping = candidate
                for row, col in moves:
                    owner[col] = row
                break
    return mapping


def _settle_classes(index: np.ndarray, mapping: np.ndarray, tight: np.ndarray):
    """Identical-row ties of a stack, settled in numpy.

    Rows on the same score-table row (index) form a class.  Any
    assignment of a class's columns to its rows has the same fsum score,
    and the lexicographically smallest gives them in increasing order:
    the canonical mapping.  Any other optimum differs from it by
    alternating cycles of tight edges.  Rows of one class share their
    duals and so their tight columns, so a cycle that leaves a class
    shortens to a cycle of the digraph over columns with c -> c' when the
    row on c is tight on c' and the row on c' is in another class.  A
    trial whose digraph has no cycle is thus settled by the canonical
    mapping.  (Distinct table rows with equal scores are distinct
    classes: their ties are cycles, which the exact search settles.)
    Returns the canonical mappings and, per trial, whether its digraph
    has a cycle.
    """
    trials, size = mapping.shape
    rows = np.arange(size)
    every = np.arange(trials)[:, None]
    # canonical form: the classes' rows, and their columns, in class order
    owner = np.empty_like(mapping)
    owner[every, mapping] = rows
    label = np.take_along_axis(index, owner, axis=1)   # class of each column
    canonical = np.empty_like(mapping)
    canonical[every, np.argsort(index * size + rows, axis=1)] = np.argsort(
        label * size + rows, axis=1)
    owner[every, canonical] = rows
    reach = (tight[every, owner] & (label[:, :, None] != label[:, None, :])).astype(np.float32)
    # s squarings give the paths of 1..2^s arcs, and 2^(s+1) >= A: a cycle
    # (at most A arcs) splits at some c' into two such paths, c to c' and back
    for _ in range((size - 1).bit_length() - 1):
        reach = np.minimum(reach + reach @ reach, 1.0)
    return canonical, (reach * reach.transpose(0, 2, 1)).any(axis=(1, 2))


def ml_decode(scores, rows=None) -> np.ndarray:
    """Permutation maximizing sum_i entry[i][mapping[i]], for each matrix.

    scores is one (A, A) matrix, giving an (A,) mapping, or a (B, A, A)
    stack, giving (B, A) mappings; each matrix is decoded on its own.
    With rows, scores is a (U, A) table of score rows instead, and rows
    holds row numbers into it: one matrix's (A,) or a stack's (B, A),
    with matrix b being table[rows[b]].  A dense stack is decoded in that
    form, on its distinct rows.  Among maximizers the lexicographically
    smallest mapping vector is returned.  Raises NoFeasibleAssignmentError
    when every permutation of some matrix has score -inf.
    """
    if rows is None:
        arr = _validate_scores(scores, ndims=(2, 3))
        size = arr.shape[-1]
        flat = np.ascontiguousarray(arr.reshape(-1, size))
        # distinct rows, found by their bytes
        keys, inverse = np.unique(flat.view(np.dtype((np.void, 8 * size))).ravel(),
                                  return_inverse=True)
        table, index = keys.view(np.float64).reshape(-1, size), inverse.reshape(arr.shape[:-1])
    else:
        table = _validate_scores(scores, ndims=(2,), square=False)
        index = _validate_rows(rows, table)
    single = index.ndim == 1
    index = index[None] if single else index
    trials, size = index.shape
    finite = table > -np.inf
    # largest |finite score| of each matrix, from its rows'
    row_scale = np.maximum(table.max(axis=1, where=finite, initial=0.0),
                           -table.min(axis=1, where=finite, initial=0.0))
    scale = row_scale[index].max(axis=1, initial=0.0)
    # a feasible assignment costs at most size * scale, one with a
    # forbidden edge at least forbidden - (size - 1) * scale
    forbidden = 2.0 * size * scale + 2.0
    mapping, u, v = _solve_lockstep(table, index, forbidden)
    if (table[index, mapping] == -np.inf).any():
        raise NoFeasibleAssignmentError(
            "no permutation avoids zero-probability scores")

    # An edge is tight when its reduced cost under the solve's duals is
    # within the gate; every optimal assignment uses only tight edges.  A
    # trial needs the lexicographic refinement only if some row i has a
    # tight column j < mapping[i] owned by a later row: without one, no
    # tied mapping is smaller.  Chunk by chunk, the flagged trials take their
    # canonical class order, and those with a tight cycle between classes go
    # on to the exact refinement.
    gate = _TIE_GATE_REL * np.maximum(1.0, scale)
    cols = np.arange(size)
    chunk = max(1, _TIE_CHUNK_ENTRIES // (size * size))
    for lo in range(0, trials, chunk):
        c = slice(lo, lo + chunk)
        part = mapping[c]                       # a view: settled trials write through
        # (-score - u) - v in place: one float array; -inf gives +inf, never tight
        reduced = table[index[c]]
        np.negative(reduced, out=reduced)
        reduced -= u[c, :, None]
        reduced -= v[c, None, :]
        tight = reduced <= gate[c, None, None]
        owner = np.empty_like(part)
        owner[np.arange(len(part))[:, None], part] = cols
        flagged = np.flatnonzero((tight & (cols < part[:, :, None])
                                  & (owner[:, None, :] > cols[:, None])).any(axis=(1, 2)))
        part[flagged], has_cycle = _settle_classes(index[c][flagged], part[flagged],
                                                   tight[flagged])
        for t in flagged[has_cycle]:
            edges = [dict(zip(np.flatnonzero(row).tolist(), slack[row].tolist()))
                     for row, slack in zip(tight[t], reduced[t])]
            part[t] = _refine(table[index[lo + t]].tolist(), part[t].tolist(), edges,
                              float(gate[lo + t]))
    return mapping[0] if single else mapping


def exhaustive_decode(matrix) -> np.ndarray:
    """Literal argmax over all permutations; oracle for ml_decode.

    Same contract as ml_decode, including the lexicographic tie rule.
    Guarded to matrices of size <= 10.
    """
    arr = _validate_scores(matrix, ndims=(2,))
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
