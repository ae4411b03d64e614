from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellgraph import linalg
from cellgraph.linalg import (NormalizationUndefined, SparseMatrix,
                              cosine_similarity_columns, l2_normalize_rows,
                              min_max_scale, spmm, standardize_rows,
                              symmetric_edge_normalize, tfidf, truncated_svd)


def random_sparse(rng, n, m, density=0.3):
    dense = rng.standard_normal((n, m)) * (rng.random((n, m)) < density)
    return SparseMatrix.from_dense(dense), dense


class TestSparseMatrix:
    def test_invariants_checked(self):
        with pytest.raises(ValueError):
            SparseMatrix(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            SparseMatrix(1, 2, np.array([0, 2]), np.array([1, 0]),
                         np.array([1.0, 2.0]))  # columns not increasing
        with pytest.raises(ValueError):
            SparseMatrix(1, 1, np.array([0, 1]), np.array([0]),
                         np.array([np.nan]))

    def test_unordered_row_named_after_empty_rows(self):
        # rows 1 and 2 are empty; row 3 stores columns 2 then 1
        with pytest.raises(ValueError,
                           match=r"not strictly increasing in row 3$"):
            SparseMatrix(4, 3, np.array([0, 1, 1, 1, 3]), np.array([0, 2, 1]),
                         np.array([1.0, 1.0, 1.0]))
        # a column may fall where a new row starts, across empty rows too
        m = SparseMatrix(4, 3, np.array([0, 1, 1, 1, 3]), np.array([2, 0, 1]),
                         np.array([1.0, 1.0, 1.0]))
        assert m.nnz == 3

    def test_dense_round_trip(self):
        rng = np.random.default_rng(0)
        sp, dense = random_sparse(rng, 9, 5)
        assert np.array_equal(sp.to_dense(), dense)
        assert np.array_equal(sp.transpose().to_dense(), dense.T)

    def test_duplicate_coo_entries_summed(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.5])
        assert m.nnz == 1
        assert m.to_dense()[0, 1] == 3.5


def lexsort_then_sum(n_rows, rows, cols, vals):
    """CSR arrays of the triplets: a stable sort by (row, col), then each
    run of one key summed onto 0.0 in order."""
    keys, sums = [], []
    for i in np.lexsort((cols, rows)):
        key = (rows[i], cols[i])
        if not keys or keys[-1] != key:
            keys.append(key)
            sums.append(0.0)
        sums[-1] += vals[i]
    counts = np.bincount([r for r, _ in keys], minlength=n_rows)
    return (np.concatenate(([0], np.cumsum(counts))),
            np.array([c for _, c in keys], dtype=np.int64),
            np.array(sums, dtype=np.float64))


class TestFromCoo:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_lexsort_then_sum(self, data):
        n_rows = data.draw(st.integers(1, 6))
        n_cols = data.draw(st.integers(1, 6))
        cells = st.tuples(st.integers(0, n_rows - 1),
                          st.integers(0, n_cols - 1))
        keys = sorted(data.draw(st.sets(cells, max_size=20)))
        order = data.draw(st.sampled_from(["sorted", "shuffled",
                                           "duplicates"]))
        if order == "shuffled":
            keys = data.draw(st.permutations(keys))
        elif order == "duplicates" and keys:
            keys = data.draw(st.permutations(
                keys + data.draw(st.lists(st.sampled_from(keys), min_size=1,
                                          max_size=10))))
        vals = data.draw(st.lists(
            st.floats(-1e300, 1e300)
            | st.sampled_from([0.0, -0.0, 5e-324]),
            min_size=len(keys), max_size=len(keys)))
        rows = np.array([r for r, _ in keys], dtype=np.int64)
        cols = np.array([c for _, c in keys], dtype=np.int64)
        vals = np.array(vals, dtype=np.float64)
        m = SparseMatrix.from_coo(n_rows, n_cols, rows, cols, vals)
        offsets, col_indices, values = lexsort_then_sum(n_rows, rows, cols,
                                                        vals)
        assert np.array_equal(m.row_offsets, offsets)
        assert np.array_equal(m.col_indices, col_indices)
        assert np.array_equal(m.values.view(np.int64),
                              values.view(np.int64))


class TestSpmm:
    def test_identity(self):
        b = np.array([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(spmm(SparseMatrix.from_dense(np.eye(2)), b), b)

    def test_dot_product(self):
        a = SparseMatrix.from_dense(np.array([[1.0, 2.0, 3.0]]))
        b = np.ones((3, 1))
        assert spmm(a, b)[0, 0] == 6.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        a, dense = random_sparse(rng, 7, 5)
        b = rng.standard_normal((5, 4))
        assert np.allclose(spmm(a, b), dense @ b, atol=1e-12)

    def test_dimension_mismatch_reports_shapes(self):
        a = SparseMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match=r"\(2, 2\).*\(3, 1\)"):
            spmm(a, np.ones((3, 1)))

    def test_spmm_with_identity_densifies(self):
        rng = np.random.default_rng(3)
        a, dense = random_sparse(rng, 6, 6)
        assert np.allclose(spmm(a, np.eye(6)), dense)


def one_shot_spmm(a, b):
    """The CSR product in one gather over all stored entries."""
    out = np.zeros((a.n_rows, b.shape[1]))
    ne = np.flatnonzero(np.diff(a.row_offsets))
    out[ne] = np.add.reduceat(a.values[:, None] * b[a.col_indices],
                              a.row_offsets[ne], axis=0)
    return out


def csr_from_rows(n_cols, rows, rng):
    """CSR matrix whose row r stores the sorted distinct columns rows[r]."""
    lengths = [len(cols) for cols in rows]
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
    cols = np.concatenate([np.sort(c) for c in rows]
                          + [np.zeros(0, dtype=np.int64)])
    return SparseMatrix(len(rows), n_cols, offsets, cols,
                        rng.standard_normal(int(offsets[-1])))


class TestSpmmCsr:
    """Operators above the dense cutoff, so spmm takes the CSR branch."""

    def assert_csr_matches_one_shot(self, a, b):
        assert a._dense_for_matmul() is None
        assert np.array_equal(spmm(a, b), one_shot_spmm(a, b))

    def test_row_longer_than_chunk_budget(self):
        rng = np.random.default_rng(10)
        n_cols = 8000
        assert n_cols > linalg._SPMM_CHUNK_NNZ
        rows = [rng.choice(n_cols, 40, replace=False) for _ in range(600)]
        rows[300] = np.arange(n_cols)
        a = csr_from_rows(n_cols, rows, rng)
        self.assert_csr_matches_one_shot(a, rng.standard_normal((n_cols, 5)))

    def test_empty_rows_at_chunk_edges_and_ends(self):
        rng = np.random.default_rng(11)
        n_cols = 2000
        per_row = 64  # a budget's worth of rows ends exactly on a row end
        rows = [rng.choice(n_cols, per_row, replace=False)
                for _ in range(2100)]
        chunk_rows = linalg._SPMM_CHUNK_NNZ // per_row
        empty = [0, 1, 2, 2097, 2098, 2099]
        for edge in range(chunk_rows, 2000, chunk_rows):
            empty += [edge - 1, edge, edge + 1]
        for r in empty:
            rows[r] = np.zeros(0, dtype=np.int64)
        rows[1000] = np.arange(n_cols)  # a long row then empty rows
        rows[1001] = rows[1002] = np.zeros(0, dtype=np.int64)
        a = csr_from_rows(n_cols, rows, rng)
        b = rng.standard_normal((n_cols, 7))
        out = spmm(a, b)
        assert np.array_equal(out, one_shot_spmm(a, b))
        assert not out[empty].any()

    def test_all_empty_matrix(self):
        a = SparseMatrix.from_coo(2100, 2000, [], [], [])
        out = spmm(a, np.ones((2000, 3)))
        assert out.shape == (2100, 3) and not out.any()
        self.assert_csr_matches_one_shot(a, np.ones((2000, 3)))

    def test_single_column_b(self):
        rng = np.random.default_rng(12)
        rows = [rng.choice(2000, rng.integers(0, 90), replace=False)
                for _ in range(2100)]
        a = csr_from_rows(2000, rows, rng)
        self.assert_csr_matches_one_shot(a, rng.standard_normal((2000, 1)))
        self.assert_csr_matches_one_shot(
            a.transpose(), rng.standard_normal((2100, 1)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2099), st.integers(0, 1999)),
                    max_size=300),
           st.lists(st.integers(0, 2099), max_size=3),
           st.integers(1, 64), st.integers(1, 4))
    def test_drawn_pattern_any_chunk_budget(self, entries, full_rows,
                                            budget, width):
        rng = np.random.default_rng(len(entries))
        rows = [[] for _ in range(2100)]
        for r, c in set(entries):
            rows[r].append(c)
        for r in full_rows:
            rows[r] = list(range(2000))
        a = csr_from_rows(2000, [np.array(r, dtype=np.int64) for r in rows],
                          rng)
        b = rng.standard_normal((2000, width))
        expected = one_shot_spmm(a, b)
        for chunk in (budget, linalg._SPMM_CHUNK_NNZ):
            with mock.patch.object(linalg, "_SPMM_CHUNK_NNZ", chunk):
                assert np.array_equal(spmm(a, b), expected)


def random_pattern(rng, n_rows, n_cols, nnz):
    """n_rows x n_cols CSR matrix with nnz distinct entries drawn at random."""
    flat = rng.choice(n_rows * n_cols, nnz, replace=False)
    return SparseMatrix.from_coo(n_rows, n_cols, flat // n_cols,
                                 flat % n_cols, rng.standard_normal(nnz))


class TestDenseCutoff:
    """A small operator multiplies a cached dense copy only when at least
    one in _DENSE_MATMUL_FILL of its entries is stored; a sparser one takes
    the CSR branch and never builds the copy."""

    def test_near_empty_operator_takes_csr_and_caches_nothing(self):
        # the shape and fill of a pathway channel's feature-feature operator
        rng = np.random.default_rng(20)
        a = random_pattern(rng, 1500, 1500, 1674)
        assert a.n_rows * a.n_cols <= SparseMatrix._DENSE_MATMUL_LIMIT
        assert a._dense_for_matmul() is None
        b = rng.standard_normal((1500, 48))
        out = spmm(a, b)
        assert a._dense_cache is None
        assert np.array_equal(out, one_shot_spmm(a, b))

    def test_dense_enough_operator_multiplies_its_cached_copy(self):
        rng = np.random.default_rng(21)
        a = random_pattern(rng, 1500, 45, 1350)  # 2 % stored
        b = rng.standard_normal((45, 40))
        out = spmm(a, b)
        cached = a._dense_cache
        assert cached is not None and a._dense_for_matmul() is cached
        assert np.array_equal(out, a.to_dense() @ b)
        assert np.array_equal(spmm(a, b), out)

    @pytest.mark.parametrize("shape", [(64, 64), (128, 45), (1500, 1500)])
    def test_boundary_at_one_in_64_stored(self, shape):
        n_rows, n_cols = shape
        fill = SparseMatrix._DENSE_MATMUL_FILL
        at_cut = -(-n_rows * n_cols // fill)  # fewest entries that are dense
        rng = np.random.default_rng(22)
        dense_enough = random_pattern(rng, n_rows, n_cols, at_cut)
        below = random_pattern(rng, n_rows, n_cols, at_cut - 1)
        assert fill * dense_enough.nnz >= n_rows * n_cols
        assert fill * below.nnz < n_rows * n_cols
        assert dense_enough._dense_for_matmul() is not None
        assert below._dense_for_matmul() is None
        b = rng.standard_normal((n_cols, 3))
        assert np.array_equal(spmm(below, b), one_shot_spmm(below, b))

    def test_zero_nnz_gives_zeros_of_the_right_shape(self):
        a = SparseMatrix.from_coo(40, 30, [], [], [])
        out = spmm(a, np.ones((30, 3)))
        assert out.shape == (40, 3) and not out.any()
        assert a._dense_cache is None


class TestSymmetricEdgeNormalize:
    def test_single_edge(self):
        w = symmetric_edge_normalize([0], [1], [4.0], 2)
        assert w[0] == pytest.approx(1.0)

    def test_star_graph(self):
        # center node 0 with 4 unit edges: each becomes 1/(sqrt(4)*sqrt(1))
        w = symmetric_edge_normalize([0] * 4, [1, 2, 3, 4], [1.0] * 4, 5)
        assert np.allclose(w, 0.5)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(0.1, 2.0, size=(5, 4))
        rows, cols = np.nonzero(weights)
        w = symmetric_edge_normalize(rows, 5 + cols, weights[rows, cols], 9)
        du = weights.sum(axis=1)
        dv = weights.sum(axis=0)
        expected = weights / np.sqrt(np.outer(du, dv))
        assert np.allclose(w, expected[rows, cols])

    def test_negative_sum_rejected(self):
        with pytest.raises(NormalizationUndefined, match="min_max_scale"):
            symmetric_edge_normalize([0, 0], [1, 2], [-2.0, 1.0], 3)


class TestMinMaxScale:
    def test_affine_map(self):
        assert np.allclose(min_max_scale([-1.0, 0.0, 1.0]), [0, 0.5, 1])

    def test_constant_input_maps_to_zeros(self):
        assert np.array_equal(min_max_scale([5.0, 5.0, 5.0]), [0, 0, 0])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_range_and_order_preserved(self, values):
        out = min_max_scale(np.array(values))
        assert np.all(out >= 0) and np.all(out <= 1)
        order = np.argsort(np.argsort(values, kind="stable"), kind="stable")
        assert np.all(np.diff(out[np.argsort(values, kind="stable")]) >= 0)
        assert order.shape == out.shape


class TestStandardizeRows:
    def test_two_point_row(self):
        assert np.allclose(standardize_rows(np.array([[1.0, 3.0]])), [[-1, 1]])

    def test_zero_variance_row(self):
        assert np.array_equal(standardize_rows(np.array([[7.0, 7.0, 7.0]])),
                              np.zeros((1, 3)))

    def test_direct_recomputation(self):
        rng = np.random.default_rng(5)
        out = standardize_rows(rng.standard_normal((4, 6)))
        assert np.abs(out.mean(axis=1)).max() < 1e-12
        assert np.abs(out.std(axis=1) - 1).max() < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        once = standardize_rows(rng.standard_normal((5, 7)))
        assert np.allclose(standardize_rows(once), once, atol=1e-10)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize_rows(np.array([[3.0, 4.0]])),
                           [[0.6, 0.8]])

    def test_zero_row_stays_zero(self):
        assert np.array_equal(l2_normalize_rows(np.zeros((1, 2))),
                              np.zeros((1, 2)))

    def test_norms_zero_or_one(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((5, 3))
        m[2] = 0.0
        norms = np.linalg.norm(l2_normalize_rows(m), axis=1)
        for n in norms:
            assert n == 0.0 or abs(n - 1.0) < 1e-9


class TestCosineSimilarityColumns:
    def test_identical_columns(self):
        m = SparseMatrix.from_dense(np.array([[1.0, 1.0], [2.0, 2.0]]))
        assert cosine_similarity_columns(m, [(0, 1)])[0] == pytest.approx(1.0)

    def test_orthogonal_columns(self):
        m = SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert cosine_similarity_columns(m, [(0, 1)])[0] == 0.0

    def test_zero_column_gives_zero(self):
        m = SparseMatrix.from_dense(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert cosine_similarity_columns(m, [(0, 1)])[0] == 0.0

    def test_matches_dense_computation(self):
        rng = np.random.default_rng(8)
        sp, dense = random_sparse(rng, 20, 2, density=0.5)
        a, b = dense[:, 0], dense[:, 1]
        expected = a @ b / (np.linalg.norm(a) * np.linalg.norm(b))
        assert cosine_similarity_columns(sp, [(0, 1)])[0] == pytest.approx(
            expected)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            cosine_similarity_columns(SparseMatrix.from_dense(np.eye(2)), [(0, 5)])
        with pytest.raises(IndexError, match="column -1 out of range"):
            cosine_similarity_columns(SparseMatrix.from_dense(np.eye(2)),
                                      [(-1, 0)])


class TestTfidf:
    def test_ubiquitous_feature_scaled_by_constant_idf(self):
        n = 4
        m = SparseMatrix.from_dense(np.full((n, 1), 2.0))
        out = tfidf(m).to_dense()
        idf = np.log(1 + n / (1 + n))
        assert np.allclose(out, 1.0 * idf)  # tf = 1 within each row

    def test_single_row_hand_computation(self):
        m = SparseMatrix.from_dense(np.array([[2.0, 0.0]]))
        out = tfidf(m).to_dense()
        assert out[0, 0] == pytest.approx(1.0 * np.log(1 + 1 / 2))
        assert out[0, 1] == 0.0

    def test_zero_matrix(self):
        m = SparseMatrix.from_coo(3, 2, [], [], [])
        assert tfidf(m).nnz == 0

    def test_sparsity_pattern_preserved(self):
        rng = np.random.default_rng(9)
        dense = np.abs(rng.standard_normal((10, 6))) * (rng.random((10, 6)) < 0.4)
        m = SparseMatrix.from_dense(dense)
        out = tfidf(m)
        assert np.array_equal(out.col_indices, m.col_indices)
        assert np.array_equal(out.row_offsets, m.row_offsets)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            tfidf(SparseMatrix.from_dense(np.array([[-1.0]])))


class TestTruncatedSvd:
    def test_diagonal_spectrum(self):
        m = SparseMatrix.from_dense(np.diag([3.0, 2.0, 1.0]))
        _, s = truncated_svd(m, 2, seed=0)
        assert np.allclose(s, [3.0, 2.0], atol=1e-9)

    def test_rank_one_exact(self):
        u = np.arange(1.0, 7.0).reshape(-1, 1)
        v = np.array([[2.0, -1.0, 0.5]])
        m = SparseMatrix.from_dense(u @ v)
        uu, s = truncated_svd(m, 1, seed=0)
        recon = (uu * s) @ (uu * s).T @ u @ v / (s[0] ** 2)
        assert np.linalg.norm(recon - u @ v) < 1e-8

    def test_reconstruction_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        dense = rng.standard_normal((30, 20))
        u, s = truncated_svd(SparseMatrix.from_dense(dense), 5, seed=1)
        mine = np.linalg.norm(dense - u @ (u.T @ dense))
        fu, fs, fvt = np.linalg.svd(dense, full_matrices=False)
        best = np.linalg.norm(dense - fu[:, :5] @ np.diag(fs[:5]) @ fvt[:5])
        assert mine <= best + 1e-6

    def test_singular_values_match_dense_oracle(self):
        rng = np.random.default_rng(11)
        for n, m, rank in [(40, 40, 6), (25, 40, 10), (40, 12, 4)]:
            dense = rng.standard_normal((n, m))
            _, s = truncated_svd(SparseMatrix.from_dense(dense), rank, seed=2)
            oracle = np.linalg.svd(dense, compute_uv=False)[:rank]
            assert np.max(np.abs(s - oracle) / oracle) < 1e-6

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(12)
        m = SparseMatrix.from_dense(rng.standard_normal((15, 10)))
        u, _ = truncated_svd(m, 4, seed=3)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        m = SparseMatrix.from_dense(rng.standard_normal((12, 9)))
        u1, s1 = truncated_svd(m, 3, seed=42)
        u2, s2 = truncated_svd(m, 3, seed=42)
        assert np.array_equal(u1, u2) and np.array_equal(s1, s2)

    def test_invalid_rank_rejected(self):
        m = SparseMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError):
            truncated_svd(m, 0, seed=0)
        with pytest.raises(ValueError):
            truncated_svd(m, 5, seed=0)


def reference_truncated_svd(m, rank, seed):
    """The power iteration that computed m^T q twice per step, kept as the
    oracle; returns (U, s, power steps)."""
    rng = np.random.default_rng(seed)
    width = min(rank + 8, min(m.n_rows, m.n_cols))
    mt = m.transpose()
    omega = rng.standard_normal((m.n_cols, width))
    q, _ = np.linalg.qr(spmm(m, omega))
    prev = None
    for it in range(40):
        q, _ = np.linalg.qr(spmm(m, spmm(mt, q)))
        b = spmm(mt, q).T
        ub, s, _ = np.linalg.svd(b, full_matrices=False)
        if it >= 1 and prev is not None:
            denom = np.where(prev[:rank] > 0, prev[:rank], 1.0)
            if np.max(np.abs(s[:rank] - prev[:rank]) / denom) < 1e-9:
                break
        prev = s
    return q @ ub[:, :rank], s[:rank].copy(), it + 1


class TestTruncatedSvdAgainstReference:
    @pytest.mark.parametrize("shape, per_row", [((60, 45), 20),
                                                ((2100, 2000), 12)])
    def test_bitwise_equal_with_two_products_per_step(self, shape, per_row):
        rng = np.random.default_rng(14)
        n_rows, n_cols = shape
        m = csr_from_rows(n_cols, [rng.choice(n_cols, per_row, replace=False)
                                   for _ in range(n_rows)], rng)
        # the small operator takes spmm's dense fork, the large one CSR
        assert (m._dense_for_matmul() is None) == (n_rows > 1000)
        u_ref, s_ref, steps = reference_truncated_svd(m, 6, seed=5)
        with mock.patch.object(linalg, "spmm", wraps=spmm) as counted:
            u, s = truncated_svd(m, 6, seed=5)
        assert np.array_equal(u, u_ref) and np.array_equal(s, s_ref)
        assert counted.call_count == 2 + 2 * steps
