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
numpy in lockstep over the stack, with the per-matrix values of the
one-matrix algorithm.  Rows are added in bit-reversed order.  Each step
makes a few passes over the searching matrices' (matrices, A) state and
updates the duals of the columns visited so far, kept per step.  A
matrix whose path is done idles until half the lockstep's matrices are,
which then write back their duals and leave together, and the row's
paths augment at its end.  Ties are then settled in one pass over
chunks of the matrices not decoded to the identity (the smallest
permutation), among the edges that are tight (zero reduced cost under
that solve's duals).  In numpy, rows on the same table row (a class)
take their class's columns in increasing order, and a boolean closure
looks for cycles of tight edges between classes.  Only a matrix with
such a cycle goes on to the Python cheapest-cycle search, which
confirms every move by an exact score comparison.  No tie array grows
with the stack.
Score ties resolve to the lexicographically smallest mapping vector.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from .distributions import DistributionFamily

__all__ = [
    "NoFeasibleAssignmentError",
    "ml_decode",
]

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
    trial sees the values of the one-matrix loop in that row order:
    slack (c - u[row]) - v, strict < updates, the first column of least
    slack, u += delta on the rows of visited columns, v -= delta on the
    visited columns and min_slack -= delta on the others.  So its
    mapping and duals do not depend on the rest of the stack.

    A step makes few passes over the (lanes, A) state.  The lanes hold
    w = -v, and the slack is w - (score + u[row]): the same value, with
    the score's negation folded into the subtraction.  A visited column
    has w and min_slack +inf, so its slack never improves and argmin
    skips it with no mask.  Its duals move to a (step, lane) record
    instead: each step's visited column, the u of its row and its w, so
    a step adds delta only to the entries visited so far.  min_slack
    takes np.minimum with the slack, and a column's origin is the last
    step whose slack was below min_slack, kept by np.maximum.

    A lane whose path reaches a free column idles, with delta 0, until
    half the lanes idle; then those lanes write their duals back and
    leave in one batch, and every path augments once the row's lanes are
    all gone.  An idle lane keeps visiting columns: adding 0.0 leaves
    their duals' values alone, and the u read for the free column's
    (absent) row is written back to a scratch entry.  Only the sign of a
    zero can differ from the one-matrix loop (the folded negation,
    np.minimum and w may each give -0.0 for +0.0), and no output shows
    it: comparisons and argmin treat the two alike, u is never -0.0 in
    either (it starts at +0.0, and a sum is -0.0 only when both its terms
    are), and v is read back as 0.0 - w, which is +0.0 for either zero.
    Returns (mapping, u, v), each of shape (B, A).
    """
    trials, size = index.shape
    capped = (table == -np.inf).any()
    width = size + 1                    # match's column `size` is the virtual column
    # u is a view of u_flat, whose last entry is scratch
    u_flat = np.zeros(trials * size + 1)
    u = u_flat[:-1].reshape(trials, size)
    w = np.zeros((trials, size))        # -v
    match = np.full((trials, width), size, dtype=np.int32)   # row on each column; size = free
    step_type = np.int8 if size <= 128 else np.int32
    origins = np.empty((trials, width), dtype=step_type)     # each column's origin step
    visits = np.empty((trials, width), dtype=np.int32)       # each step's visited column
    ends = np.empty(trials, dtype=np.int64)                  # each path's free column
    first = np.empty((trials, size))
    w_flat, match_flat, index_flat = w.ravel(), match.ravel(), index.ravel()
    origins_flat, visits_flat = origins.ravel(), visits.ravel()
    every = np.arange(trials)
    neg_cap = -forbidden
    scratch = trials * size

    def slack_rows(rows, u_row, w_lanes, cap, out):
        # (cost - u) - v as w - (score + u), in out (unbuffered with
        # mode="clip"); -forbidden stands in for a -inf score
        s = table.take(rows, axis=0, out=out, mode="clip")
        if capped:
            np.copyto(s, cap[:, None], where=s == -np.inf)
        s += u_row[:, None]
        return np.subtract(w_lanes, s, out=s)

    for k, i in enumerate(_insertion_order(size)):
        match[:, size] = i              # the virtual column holds row i
        # first step, from the virtual column: only row i is in the tree
        min_slack = slack_rows(index[:, i], u[:, i], w, neg_cap, first)
        j_cur = min_slack.argmin(axis=1)
        delta = min_slack.take(every * size + j_cur)
        u[:, i] += delta
        cell = every * width + j_cur
        row = match_flat.take(cell)
        done = row == size
        match_flat.put(cell[done], i)
        entered = idx = np.flatnonzero(~done)
        if not len(idx):
            continue
        # the lanes; k rows are matched, so a path visits at most k columns
        lanes = len(idx)
        min_slack = first[idx]
        min_slack -= delta[idx, None]
        lw, j_cur, row, lcap = w[idx], j_cur[idx], row[idx], neg_cap[idx]
        origin = np.zeros((lanes, size), dtype=step_type)   # step 0: the virtual column
        duals = np.empty((2, k + 1, lanes))   # per step: u of the row, w of the column
        duals[0, 0], duals[1, 0] = u[idx, i], 0.0   # the virtual column's w is unused
        visit = np.empty((k + 1, lanes), dtype=np.int32)
        visit[0] = size
        slack = np.empty((lanes, size))
        better = np.empty((lanes, size), dtype=bool)
        stamp = np.empty((lanes, size), dtype=step_type)
        live = np.ones(lanes, dtype=bool)
        end = np.empty(lanes, dtype=np.int64)    # each idle lane's free column
        idle = 0
        base, mbase, pos = idx * size, idx * width, np.arange(lanes) * size
        cell = pos + j_cur
        s = 1
        while True:
            # visit j_cur: the row on an idle lane's free column is `size`,
            # so it reads the next trial's or the scratch entry
            flat = base + row
            u_row = u_flat.take(flat, out=duals[0, s], mode="clip")
            lw.take(cell, out=duals[1, s])
            visit[s] = j_cur
            lw.put(cell, np.inf)
            min_slack.put(cell, np.inf)
            slack_rows(index_flat.take(flat, mode="clip"), u_row, lw, lcap, slack)
            np.less(slack, min_slack, out=better)
            np.minimum(min_slack, slack, out=min_slack)
            np.multiply(better, s, out=stamp, dtype=step_type, casting="unsafe")
            np.maximum(origin, stamp, out=origin)
            j_cur = min_slack.argmin(axis=1)
            cell = pos + j_cur
            delta = min_slack.take(cell)
            if idle:   # an idle lane's delta is finite, as it never visits every column
                delta *= live
            s += 1
            duals[:, :s] += delta
            min_slack -= delta[:, None]
            row = match_flat.take(mbase + j_cur)
            hit = row == size
            if idle:
                hit &= live
            hits = np.count_nonzero(hit)
            if not hits:
                continue
            np.copyto(end, j_cur, where=hit)
            live ^= hit
            idle += hits
            if 2 * idle < lanes:
                continue
            # the idle lanes write back their duals, through the matching
            # before any augmentation, and their paths
            gone = (~live).nonzero()[0]
            back, gone_base = idx[gone], base[gone]
            gone_duals = duals[:, :s].take(gone, axis=2)
            gone_visit = visit[:s].take(gone, axis=1)
            rows = match_flat.take(mbase[gone] + gone_visit)
            u_flat.put(np.where(rows < size, gone_base + rows, scratch), gone_duals[0])
            w_flat.put(gone_base + gone_visit[1:], gone_duals[1, 1:])
            origins[back, :size], visits[back, :s] = origin[gone], gone_visit.T
            ends[back] = end[gone]
            keep = live.nonzero()[0]
            if not len(keep):
                break
            lanes = len(keep)
            idx, base, mbase = idx[keep], base[keep], mbase[keep]
            j_cur, row, lcap = j_cur[keep], row[keep], lcap[keep]
            min_slack, origin, lw = min_slack[keep], origin[keep], lw[keep]
            duals, visit = duals.take(keep, axis=2), visit.take(keep, axis=1)
            slack, better, stamp = slack[:lanes], better[:lanes], stamp[:lanes]
            live, end, pos, idle = live[:lanes], end[:lanes], pos[:lanes], 0
            live[:] = True
            cell = pos + j_cur
        # augment every searching trial along its path back to the virtual
        # column; at is each trial's offset into match, origins and visits
        at, col = entered * width, ends[entered]
        while len(at):
            cur = at + col
            prev = visits_flat.take(at + origins_flat.take(cur))
            match_flat.put(cur, match_flat.take(at + prev))
            more = prev != size
            at, col = at[more], prev[more]
    mapping = np.empty((trials, size), dtype=np.int64)
    mapping[every[:, None], match[:, :size]] = np.arange(size)
    return mapping, u, 0.0 - w


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
    # within the gate; every optimal assignment uses only tight edges.  The
    # identity is the smallest mapping, so its trials are done.  Chunk by
    # chunk over the other trials, each takes its canonical class order,
    # and those with a tight cycle between classes go on to the exact
    # refinement.
    gate = _TIE_GATE_REL * np.maximum(1.0, scale)
    moved = np.flatnonzero((mapping != np.arange(size)).any(axis=1))
    chunk = max(1, _TIE_CHUNK_ENTRIES // (size * size))
    for lo in range(0, len(moved), chunk):
        trial = moved[lo:lo + chunk]
        # (-score - u) - v as -v - (score + u), in place: the same value in
        # one float array; -inf gives +inf, never tight
        reduced = table.take(index[trial], axis=0)
        reduced += u[trial, :, None]
        np.subtract(-v[trial, None, :], reduced, out=reduced)
        tight = reduced <= gate[trial, None, None]
        part, has_cycle = _settle_classes(index[trial], mapping[trial], tight)
        for t in np.flatnonzero(has_cycle):
            edges = [dict(zip(np.flatnonzero(row).tolist(), slack[row].tolist()))
                     for row, slack in zip(tight[t], reduced[t])]
            part[t] = _refine(table[index[trial[t]]].tolist(), part[t].tolist(), edges,
                              float(gate[trial[t]]))
        mapping[trial] = part
    return mapping[0] if single else mapping
