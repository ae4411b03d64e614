import sys

import numpy as np
import pytest

from cellgraph.assignment import (AssignmentProblem, AssignmentResult,
                                  brute_force_solve, percentile_filter, solve)


def _reference_jv_square(cost):
    """Hungarian shortest augmenting paths, rows in order, duals moved on
    every scan step; returns (col_row, u, v)."""
    s = cost.shape[0]
    u = np.zeros(s)
    v = np.zeros(s + 1)  # index s is the virtual start column
    col_row = np.full(s + 1, -1, dtype=np.int64)
    cols = np.empty(s + 1, dtype=np.int64)
    rows = np.empty(s + 1, dtype=np.int64)
    for i in range(s):
        col_row[s] = i
        j0 = s
        minv = np.full(s, np.inf)
        way = np.full(s, s, dtype=np.int64)
        v_free = v[:s].copy()
        k = 0
        while True:
            i0 = col_row[j0]
            cols[k], rows[k] = j0, i0
            k += 1
            if j0 < s:
                v_free[j0] = -np.inf
                minv[j0] = np.inf
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


def _reference_refine(cost, u, v, row_col, n_real_left):
    """Rows fixed in order to their smallest feasible tight column, with a
    recursive Kuhn search for the reroute."""
    s = cost.shape[0]
    scale = max(1.0, float(np.abs(cost).max()))
    tight = (cost - u[:, None] - v[None, :]) <= 1e-9 * scale
    col_row = np.full(s, -1, dtype=np.int64)
    for r, c in enumerate(row_col):
        col_row[c] = r

    def rematch(row, banned, depth=0):
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
                break
            owner = col_row[j]
            col_row[current] = -1
            col_row[j] = i
            row_col[i] = j
            banned = fixed_cols.copy()
            banned[j] = True
            if owner > i and not rematch(owner, banned):
                col_row[j] = owner
                col_row[current] = i
                row_col[i] = current
                continue
            break
        fixed_cols[row_col[i]] = True
    return row_col


def reference_solve(problem):
    """`solve` as it was with the plain Hungarian loop and the recursive
    refine: the same square padding, the same answer."""
    profits = problem.profits
    n, m = profits.shape
    s = max(n, m)
    big = (float(profits.max() - profits.min()) + 1.0) * (s + 1)
    cost = np.full((s, s), big)
    cost[:n, :m] = profits.max() - profits
    if problem.allowed is not None:
        cost[:n, :m][~problem.allowed] = big
    col_row, u, v = _reference_jv_square(cost)
    row_col = np.empty(s, dtype=np.int64)
    row_col[col_row] = np.arange(s)
    row_col = _reference_refine(cost, u, v, row_col, n)
    pairs = [(i, int(row_col[i])) for i in range(n)
             if row_col[i] < m and cost[i, row_col[i]] < big * 0.5]
    total = float(sum(profits[i, j] for i, j in pairs))
    return AssignmentResult(pairs, total, len(pairs) < min(n, m))


class TestSolveBasics:
    def test_identity_dominant_2x2(self):
        result = solve(AssignmentProblem(np.array([[5.0, 1.0], [1.0, 5.0]])))
        assert result.pairs == [(0, 0), (1, 1)]
        assert result.total == 10.0
        assert not result.partial

    def test_single_row_argmax(self):
        result = solve(AssignmentProblem(np.array([[2.0, 9.0, 4.0]])))
        assert result.pairs == [(0, 1)]
        assert result.total == 9.0

    def test_permutation_matrix_recovered(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            perm = rng.permutation(n)
            profits = np.zeros((n, n))
            profits[np.arange(n), perm] = 1.0
            result = solve(AssignmentProblem(profits))
            assert [j for _, j in result.pairs] == perm.tolist()

    def test_empty_problem_rejected(self):
        with pytest.raises(ValueError):
            AssignmentProblem(np.zeros((0, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AssignmentProblem(np.array([[np.inf]]))


class TestSolveAgainstBruteForce:
    def test_random_5x5_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            profits = rng.uniform(-5, 5, size=(5, 5))
            mine = solve(AssignmentProblem(profits))
            oracle = brute_force_solve(AssignmentProblem(profits))
            assert mine.total == oracle.total
            assert mine.pairs == oracle.pairs

    def test_random_rectangular_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            profits = rng.uniform(-3, 3, size=(4, 7))
            mine = solve(AssignmentProblem(profits))
            oracle = brute_force_solve(AssignmentProblem(profits))
            assert mine.total == oracle.total
            assert mine.pairs == oracle.pairs

    def test_integer_ties_lexicographic(self):
        # every assignment of this matrix has equal total: the pairing must
        # be the lexicographically smallest one
        profits = np.ones((3, 3))
        result = solve(AssignmentProblem(profits))
        assert result.pairs == [(0, 0), (1, 1), (2, 2)]
        rng = np.random.default_rng(3)
        for _ in range(50):
            profits = rng.integers(0, 3, size=(4, 4)).astype(float)
            mine = solve(AssignmentProblem(profits))
            oracle = brute_force_solve(AssignmentProblem(profits))
            assert mine.total == oracle.total
            assert mine.pairs == oracle.pairs

    def test_forbidden_edges_respected(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            profits = rng.uniform(0, 1, size=(4, 5))
            allowed = rng.random((4, 5)) < 0.7
            allowed[np.arange(4), rng.integers(0, 5, 4)] = True  # feasible-ish
            problem = AssignmentProblem(profits, allowed)
            try:
                oracle = brute_force_solve(problem)
            except ValueError:
                continue  # infeasible sample: partial case tested elsewhere
            mine = solve(problem)
            assert mine.total == oracle.total
            for i, j in mine.pairs:
                assert allowed[i, j]


class TestSolveAgainstReference:
    def test_filtered_blocks_match_reference(self):
        rng = np.random.default_rng(11)
        partial = 0
        for trial in range(40):
            n = int(rng.integers(30, 301))
            # square, wide and tall in turn
            m = (n, int(rng.integers(n, 301)),
                 int(rng.integers(30, n + 1)))[trial % 3]
            if trial % 4 == 3:
                profits = rng.integers(0, 3, size=(n, m)).astype(float)
            else:
                profits = rng.standard_normal((n, m))
            keep = percentile_filter(profits, (80.0, 95.0, 99.0)[trial % 3])
            problem = AssignmentProblem(profits, keep)
            mine, expected = solve(problem), reference_solve(problem)
            assert mine.pairs == expected.pairs
            assert mine.total == expected.total
            assert mine.partial == expected.partial
            partial += mine.partial
        assert partial > 0

    @pytest.mark.parametrize("shape", [(70, 400), (400, 70)])
    @pytest.mark.parametrize("integer", [False, True])
    def test_wide_and_tall_filtered_match_reference(self, shape, integer):
        # far from square, so most rows or columns of the squared problem
        # are padding
        rng = np.random.default_rng(12)
        profits = (rng.integers(0, 3, size=shape).astype(float) if integer
                   else rng.standard_normal(shape))
        problem = AssignmentProblem(profits, percentile_filter(profits, 95.0))
        mine, expected = solve(problem), reference_solve(problem)
        assert mine.pairs == expected.pairs
        assert mine.total == expected.total
        assert mine.partial == expected.partial


@pytest.fixture
def shallow_stack():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    yield
    sys.setrecursionlimit(limit)


class TestTiedProfits:
    def test_all_ones_gives_identity(self, shallow_stack):
        result = solve(AssignmentProblem(np.ones((1000, 1000))))
        assert result.pairs == [(i, i) for i in range(1000)]
        assert result.total == 1000.0

    def test_banded_gives_identity(self, shallow_stack):
        idx = np.arange(1500)
        band = (np.abs(idx[:, None] - idx[None, :]) <= 2).astype(float)
        result = solve(AssignmentProblem(band))
        assert result.pairs == [(i, i) for i in range(1500)]
        assert result.total == 1500.0

    def test_three_level_integers(self, shallow_stack):
        profits = np.random.default_rng(0).integers(0, 3, size=(1100, 1300))
        result = solve(AssignmentProblem(profits.astype(float)))
        assert len(result.pairs) == 1100
        assert result.total == 2200.0
        assert not result.partial


class TestSolveProperties:
    def test_constant_shift_keeps_pairing(self):
        rng = np.random.default_rng(5)
        profits = rng.uniform(0, 1, size=(6, 6))
        base = solve(AssignmentProblem(profits))
        shifted = solve(AssignmentProblem(profits + 123.456))
        assert base.pairs == shifted.pairs

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            profits = rng.uniform(-1, 1, size=(5, 5))
            a = solve(AssignmentProblem(profits))
            b = solve(AssignmentProblem(profits.T))
            assert sorted((j, i) for i, j in b.pairs) == a.pairs
            assert a.total == pytest.approx(b.total, abs=1e-12)

    def test_rectangular_with_dead_row_still_full_cardinality(self):
        profits = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        allowed = np.array([[True, False], [False, False], [True, True]])
        result = solve(AssignmentProblem(profits, allowed))
        # a matching of size min(3, 2) = 2 exists: (0,0), (2,1)
        assert result.pairs == [(0, 0), (2, 1)]
        assert result.total == 7.0
        assert not result.partial

    def test_infeasible_returns_partial_with_flag(self):
        profits = np.array([[1.0, 9.0], [3.0, 9.0]])
        allowed = np.array([[True, False], [True, False]])
        result = solve(AssignmentProblem(profits, allowed))
        assert result.partial
        assert result.pairs == [(1, 0)]  # higher-profit row wins column 0
        assert result.total == 3.0


class TestPercentileFilter:
    def test_percentile_zero_keeps_everything(self):
        scores = np.random.default_rng(7).standard_normal((6, 4))
        assert percentile_filter(scores, 0.0).all()

    def test_spec_2x2_example(self):
        keep = percentile_filter(np.array([[1.0, 2.0], [3.0, 4.0]]), 75.0)
        # threshold 3.25 keeps only 4; row 0 re-adds its max (2), column 0
        # re-adds its max (3)
        assert keep.tolist() == [[False, True], [True, True]]

    def test_survivor_bounds(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            scores = rng.standard_normal((9, 5))
            keep = percentile_filter(scores, rng.uniform(0, 99.9))
            assert keep.sum() <= scores.size
            assert keep.any(axis=1).all()
            assert keep.any(axis=0).all()
            assert keep.sum() >= max(scores.shape)

    def test_invalid_percentile(self):
        with pytest.raises(ValueError):
            percentile_filter(np.ones((2, 2)), 100.0)
        with pytest.raises(ValueError):
            percentile_filter(np.ones((2, 2)), -1.0)

    def test_filter_then_solve_maximum_cardinality(self):
        # the re-add rule keeps every row and column populated, but a
        # perfect matching can still be blocked (Hall); solve must then
        # return a maximum-cardinality matching and flag it partial

        def max_matching_size(allowed):
            match_of_col = {}

            def augment(row, banned):
                for col in np.flatnonzero(allowed[row]):
                    if col in banned:
                        continue
                    banned.add(col)
                    if col not in match_of_col or augment(match_of_col[col],
                                                          banned):
                        match_of_col[col] = row
                        return True
                return False

            for r in range(allowed.shape[0]):
                augment(r, set())
            return len(match_of_col)

        rng = np.random.default_rng(9)
        for pct in (50.0, 75.0, 97.0):
            scores = rng.standard_normal((8, 8))
            keep = percentile_filter(scores, pct)
            result = solve(AssignmentProblem(scores, keep))
            assert all(keep[i, j] for i, j in result.pairs)
            assert len(result.pairs) == max_matching_size(keep)
            assert result.partial == (len(result.pairs) < 8)
