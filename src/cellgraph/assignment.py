"""Maximum-weight rectangular linear assignment with sparse pre-filtering.

The solver is Jonker-Volgenant: column reduction, then one shortest
augmenting path per free row with potentials, run on an internally squared
cost matrix. Forbidden entries get a big constant cost, which makes the
solver prefer maximum cardinality first and maximum profit second; padding
entries cost 0. The percentile filter leaves every row and column at least
one entry, which does not make a full matching feasible; the solver then
returns a maximum-cardinality matching and flags it partial. Ties between
optimal pairings are broken toward the lexicographically smallest
left-index pairing by a post-pass over the tight-edge subgraph.

`brute_force_solve` enumerates permutations and is the test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np


@dataclass
class AssignmentProblem:
    """Profits to maximize; a False in `allowed` forbids that pairing."""

    profits: np.ndarray
    allowed: np.ndarray | None = None

    def __post_init__(self):
        self.profits = np.asarray(self.profits, dtype=np.float64)
        if self.profits.ndim != 2 or 0 in self.profits.shape:
            raise ValueError("assignment problem must be a nonempty 2-D table")
        if not np.all(np.isfinite(self.profits)):
            raise ValueError("profits must be finite")
        if self.allowed is not None:
            self.allowed = np.asarray(self.allowed, dtype=bool)
            if self.allowed.shape != self.profits.shape:
                raise ValueError("allowed mask must match the profit shape")


@dataclass
class AssignmentResult:
    pairs: list[tuple[int, int]]  # sorted by left index
    total: float
    partial: bool = False


def _pair_total(profits, pairs) -> float:
    # summed in left-index order so solver and oracle agree bitwise
    return float(sum(profits[i, j] for i, j in pairs))


def _jv_square(cost: np.ndarray):
    """Min-cost perfect matching on a square matrix; returns (row_col, u, v).

    row_col[i] is the column matched to row i. Potentials satisfy
    u[i] + v[j] <= cost[i, j] up to float error.

    Jonker & Volgenant (1987): column reduction, then one shortest
    augmenting path (Dijkstra on reduced costs) per row left free, with the
    duals moved once per search (Crouse 2016).
    """
    s = cost.shape[0]
    u = np.zeros(s)
    v = cost.min(axis=0)
    col_row = np.full(s, -1, dtype=np.int64)
    row_col = np.full(s, -1, dtype=np.int64)
    # column reduction: each column, last to first, goes to its argmin row
    # if that row is still free. The searches below match the columns it
    # leaves free, which is valid because the problem is square.
    for j, i in zip(range(s - 1, -1, -1), cost.argmin(axis=0)[::-1].tolist()):
        if row_col[i] == -1:
            row_col[i] = j
            col_row[j] = i
    dist = np.empty(s)  # tentative distance of each unscanned column
    way = np.empty(s, dtype=np.int64)  # row that reached it
    v_open = np.empty(s)  # v, with -inf on scanned columns
    cur = np.empty(s)
    better = np.empty(s, dtype=bool)
    cols = np.empty(s, dtype=np.int64)  # columns scanned this search
    col_dist = np.empty(s)  # and their final distances
    for start in np.flatnonzero(row_col == -1).tolist():
        # no free column is scanned during the search, so the set is fixed
        free = np.flatnonzero(col_row == -1)
        dist.fill(np.inf)
        np.copyto(v_open, v)
        i0, d0, k = start, 0.0, 0
        while True:
            # a scanned column's -inf makes its reduced cost +inf, so it
            # never improves dist again
            np.subtract(cost[i0], v_open, out=cur)
            cur += d0 - u[i0]
            np.less(cur, dist, out=better)
            np.copyto(dist, cur, where=better)
            np.copyto(way, i0, where=better)
            j = int(dist.argmin())
            delta = dist[j]
            if col_row[j] != -1:
                # on a tie, end the search on a free column
                f = int(free[dist[free].argmin()])
                if dist[f] == delta:
                    j = f
            if col_row[j] == -1:
                break
            cols[k], col_dist[k] = j, delta
            k += 1
            v_open[j] = -np.inf
            dist[j] = np.inf
            i0, d0 = int(col_row[j]), delta
        scanned = cols[:k]
        shift = delta - col_dist[:k]
        u[start] += delta
        u[col_row[scanned]] += shift
        v[scanned] -= shift
        while True:
            i = int(way[j])
            col_row[j] = i
            row_col[i], j = j, row_col[i]
            if i == start:
                break
    return row_col, u, v


def _lexicographic_refine(cost, u, v, row_col, n_real_left):
    """Smallest-left-index pairing among matchings on tight edges.

    On a square problem every perfect matching inside the tight-edge
    subgraph attains the optimal total, so rerouting along tight edges is
    free. Rows are fixed in ascending order to their smallest feasible
    tight column.
    """
    s = cost.shape[0]
    # solve builds cost non-negative (max profit - profit, the forbidden
    # cost `big`, zero padding), so its max is its largest magnitude
    scale = max(1.0, float(cost.max()))
    reduced = cost - u[:, None]
    reduced -= v[None, :]
    tight = reduced <= 1e-9 * scale
    col_row = np.full(s, -1, dtype=np.int64)
    col_row[row_col] = np.arange(s)
    reached_by = np.empty(s, dtype=np.int64)

    def rematch(row, target, seen):
        # breadth-first alternating search over tight edges from `row` to
        # the column `target` given up for it, through columns not yet
        # seen (fixed rows' columns start seen); flips the path it finds
        queue = [row]
        for r in queue:
            new = np.flatnonzero(tight[r] & ~seen)
            seen[new] = True
            reached_by[new] = r
            if seen[target]:
                c = target
                while True:
                    r = int(reached_by[c])
                    col_row[c] = r
                    row_col[r], c = c, row_col[r]
                    if r == row:
                        return True
            queue.extend(col_row[new].tolist())
        return False

    fixed_cols = np.zeros(s, dtype=bool)
    for i in range(min(n_real_left, s)):
        current = row_col[i]
        for j in np.flatnonzero(tight[i]).tolist():
            if fixed_cols[j]:
                continue
            if j >= current:
                break  # current pairing already the smallest feasible
            owner = col_row[j]
            col_row[j] = i
            row_col[i] = j
            seen = fixed_cols.copy()
            seen[j] = True
            # rows before i hold fixed columns, so owner is a later row
            if not rematch(owner, current, seen):
                # infeasible: undo and try the next candidate
                col_row[j] = owner
                row_col[i] = current
                continue
            break
        fixed_cols[row_col[i]] = True
    return row_col


def solve(problem: AssignmentProblem) -> AssignmentResult:
    """Maximum-profit pairing among maximum-cardinality matchings."""
    profits = problem.profits
    n, m = profits.shape
    s = max(n, m)
    span = float(profits.max() - profits.min()) if profits.size else 0.0
    big = (span + 1.0) * (s + 1)
    # minimize cost = (max profit - profit); forbidden cost `big`. Every
    # perfect matching holds exactly |n - m| padding cells, so their cost
    # does not move the optima; at 0 a padding row's search ends at once
    cost = np.zeros((s, s))
    np.subtract(profits.max(), profits, out=cost[:n, :m])
    if problem.allowed is not None:
        cost[:n, :m][~problem.allowed] = big
    row_col, u, v = _jv_square(cost)
    row_col = _lexicographic_refine(cost, u, v, row_col, n)
    threshold = big * 0.5  # anything >= big/2 is forbidden
    pairs = [
        (i, int(row_col[i]))
        for i in range(n)
        if row_col[i] < m and cost[i, row_col[i]] < threshold
    ]
    partial = len(pairs) < min(n, m)
    return AssignmentResult(pairs, _pair_total(profits, pairs), partial)


def brute_force_solve(problem: AssignmentProblem) -> AssignmentResult:
    """Exhaustive oracle; feasible full matchings only, tiny sizes only."""
    profits = problem.profits
    allowed = (problem.allowed if problem.allowed is not None
               else np.ones(profits.shape, dtype=bool))
    n, m = profits.shape
    best_pairs, best_total = None, -np.inf
    if n <= m:
        # left-permutation order means the first optimum found is already
        # the lexicographically smallest pairing
        for cols in itertools.permutations(range(m), n):
            if not all(allowed[i, j] for i, j in enumerate(cols)):
                continue
            total = _pair_total(profits, list(enumerate(cols)))
            if total > best_total:
                best_total = total
                best_pairs = list(enumerate(cols))
    else:
        candidates = []
        for rows in itertools.permutations(range(n), m):
            if not all(allowed[i, j] for j, i in enumerate(rows)):
                continue
            pairs = sorted((i, j) for j, i in enumerate(rows))
            candidates.append((_pair_total(profits, pairs), pairs))
        if candidates:
            best_total = max(t for t, _ in candidates)
            best_pairs = min(
                p for t, p in candidates if t == best_total
            )
    if best_pairs is None:
        raise ValueError("no feasible full matching; oracle covers the "
                         "feasible case only")
    return AssignmentResult(best_pairs, best_total, False)


def percentile_filter(scores: np.ndarray, percentile: float) -> np.ndarray:
    """Boolean keep-mask: entries at or above the given percentile.

    Every row and column keeps at least its maximum entry. That does not
    make a full matching feasible (Hall's condition can still fail); `solve`
    then returns a maximum-cardinality matching.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if not 0.0 <= percentile < 100.0:
        raise ValueError("percentile must be in [0, 100)")
    threshold = np.percentile(scores, percentile)
    keep = scores >= threshold
    rows_without = np.flatnonzero(~keep.any(axis=1))
    keep[rows_without, scores[rows_without].argmax(axis=1)] = True
    cols_without = np.flatnonzero(~keep.any(axis=0))
    keep[scores[:, cols_without].argmax(axis=0), cols_without] = True
    return keep
