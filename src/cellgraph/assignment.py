"""Maximum-weight rectangular linear assignment with sparse pre-filtering.

The solver is a shortest-augmenting-path (Jonker-Volgenant style) method
with potentials, run on an internally squared cost matrix. Forbidden and
padding entries get a big constant cost, which makes the solver prefer
maximum cardinality first and maximum profit second. Ties between optimal
pairings are broken toward the lexicographically smallest left-index
pairing by a post-pass over the tight-edge subgraph.

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
    """Min-cost perfect matching on a square matrix; returns (col_row, u, v).

    col_row[j] is the row matched to column j. Potentials satisfy
    u[i] + v[j] <= cost[i, j] up to float error.
    """
    s = cost.shape[0]
    u = np.zeros(s)
    v = np.zeros(s + 1)  # index s is the virtual start column
    col_row = np.full(s + 1, -1, dtype=np.int64)
    cols = np.empty(s + 1, dtype=np.int64)  # columns scanned this phase
    rows = np.empty(s + 1, dtype=np.int64)  # and the rows matched to them
    for i in range(s):
        col_row[s] = i
        j0 = s
        minv = np.full(s, np.inf)
        way = np.full(s, s, dtype=np.int64)
        # v of the unscanned columns; a scanned column's -inf gives it a
        # reduced cost of +inf, so it never improves minv again
        v_free = v[:s].copy()
        k = 0
        while True:
            i0 = col_row[j0]
            cols[k], rows[k] = j0, i0
            k += 1
            if j0 < s:
                v_free[j0] = -np.inf
                minv[j0] = np.inf  # and never wins the argmin
            cur = cost[i0] - u[i0] - v_free
            better = cur < minv
            minv[better] = cur[better]
            way[better] = j0
            j1 = int(np.argmin(minv))
            delta = minv[j1]
            u[rows[:k]] += delta
            v[cols[:k]] -= delta
            minv -= delta
            j0 = j1
            if col_row[j0] == -1:
                break
        while j0 != s:
            j_prev = way[j0]
            col_row[j0] = col_row[j_prev]
            j0 = j_prev
    return col_row[:s], u, v[:s]


def _lexicographic_refine(cost, u, v, row_col, n_real_left):
    """Smallest-left-index pairing among matchings on tight edges.

    On a square problem every perfect matching inside the tight-edge
    subgraph attains the optimal total, so rerouting along tight edges is
    free. Rows are fixed in ascending order to their smallest feasible
    tight column.
    """
    s = cost.shape[0]
    scale = max(1.0, float(np.abs(cost).max()))
    tight = (cost - u[:, None] - v[None, :]) <= 1e-9 * scale
    col_row = np.full(s, -1, dtype=np.int64)
    for r, c in enumerate(row_col):
        col_row[c] = r

    def rematch(row, banned, depth=0):
        # Kuhn augmentation over tight edges; banned columns are held by
        # already-fixed rows.
        if depth > s:
            return False
        for j in np.flatnonzero(tight[row]):
            if banned[j]:
                continue
            banned[j] = True
            owner = col_row[j]
            if owner == -1 or rematch(owner, banned, depth + 1):
                col_row[j] = row
                row_col[row] = j
                return True
        return False

    fixed_cols = np.zeros(s, dtype=bool)
    for i in range(min(n_real_left, s)):
        current = row_col[i]
        for j in np.flatnonzero(tight[i]):
            if fixed_cols[j]:
                continue
            if j >= current:
                break  # current pairing already the smallest feasible
            owner = col_row[j]
            col_row[current] = -1
            col_row[j] = i
            row_col[i] = j
            banned = fixed_cols.copy()
            banned[j] = True
            if owner > i and not rematch(owner, banned):
                # infeasible: undo and try the next candidate
                col_row[j] = owner
                col_row[current] = i
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
    # minimize cost = (max profit - profit); padding/forbidden cost `big`
    cost = np.full((s, s), big)
    cost[:n, :m] = profits.max() - profits
    if problem.allowed is not None:
        cost[:n, :m][~problem.allowed] = big
    col_row, u, v = _jv_square(cost)
    row_col = np.empty(s, dtype=np.int64)
    row_col[col_row] = np.arange(s)
    row_col = _lexicographic_refine(cost, u, v, row_col, n)
    threshold = big * 0.5  # anything >= big/2 is padding or forbidden
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

    Every row and column keeps at least its maximum entry so a full
    matching stays feasible.
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
