import numpy as np
import pytest

from cellgraph.graph import (EdgeScaling, GeneSetCollection,
                             augment_with_pathways, build_bipartite)
from cellgraph.linalg import SparseMatrix


def graph_from(dense):
    return build_bipartite(SparseMatrix.from_dense(np.asarray(dense, float)))


class TestBuildBipartite:
    def test_direct_transcription(self):
        g = graph_from([[1.0, 0.0], [0.0, 2.0]])
        edges = set(zip(g.matrix.row_indices().tolist(),
                        g.matrix.col_indices.tolist(),
                        g.matrix.values.tolist()))
        assert edges == {(0, 0, 1.0), (1, 1, 2.0)}
        assert g.n_cells == 2 and g.n_features == 2
        assert not g.has_pathways

    def test_zero_matrix_warns(self):
        with pytest.warns(UserWarning, match="edgeless"):
            g = build_bipartite(SparseMatrix.from_coo(3, 2, [], [], []))
        assert g.matrix.nnz == 0 and (g.n_cells, g.n_features) == (3, 2)

    def test_edge_count_equals_nnz(self):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((10, 6)) * (rng.random((10, 6)) < 0.35)
        m = SparseMatrix.from_dense(dense)
        g = build_bipartite(m)
        assert g.matrix is m
        assert g.operators(EdgeScaling.POST_NORM)[0].nnz == m.nnz

    def test_round_trip_reproduces_matrix(self):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((8, 5)) * (rng.random((8, 5)) < 0.4)
        g = graph_from(dense)
        cells_from_features, features_from_cells, _ = g.operators(
            EdgeScaling.POST_NORM)
        assert np.array_equal(cells_from_features.to_dense(), dense)
        assert np.array_equal(features_from_cells.to_dense(), dense.T)


class TestAugmentWithPathways:
    def test_identical_columns_give_unit_edge(self):
        m = SparseMatrix.from_dense(np.array([[1.0, 1.0], [2.0, 2.0]]))
        g = augment_with_pathways(build_bipartite(m),
                                  GeneSetCollection([("s", [0, 1])]))
        assert len(g.ff_weights) == 1
        assert g.ff_weights[0] == pytest.approx(1.0)
        assert (g.ff_i[0], g.ff_j[0]) == (0, 1)

    def test_singleton_set_adds_nothing(self):
        m = SparseMatrix.from_dense(np.eye(3))
        g = augment_with_pathways(build_bipartite(m),
                                  GeneSetCollection([("s", [1])]))
        assert not g.has_pathways

    def test_overlapping_sets_enumerate_distinct_pairs(self):
        rng = np.random.default_rng(2)
        dense = np.abs(rng.standard_normal((12, 5))) + 0.1
        m = SparseMatrix.from_dense(dense)
        sets = GeneSetCollection([("a", [0, 1, 2]), ("b", [1, 2, 3])])
        g = augment_with_pathways(build_bipartite(m), sets)
        expected = {(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)}
        got = set(zip(g.ff_i.tolist(), g.ff_j.tolist()))
        # pytest.approx absorbs the different order a strided dot product
        # may sum in
        cosine = {(i, j): dense[:, i] @ dense[:, j]
                  / (np.linalg.norm(dense[:, i]) * np.linalg.norm(dense[:, j]))
                  for i, j in expected}
        assert got == {p for p in expected if cosine[p] > 0}
        for i, j, w in zip(g.ff_i, g.ff_j, g.ff_weights):
            assert w == pytest.approx(cosine[i, j])

    def test_weights_equal_dense_cosine(self):
        rng = np.random.default_rng(8)
        dense = (np.abs(rng.standard_normal((40, 6)))
                 * (rng.random((40, 6)) < 0.5))
        m = SparseMatrix.from_dense(dense)
        sets = GeneSetCollection([("a", [0, 1, 2, 3]), ("b", [3, 4, 5])])
        g = augment_with_pathways(build_bipartite(m), sets)
        assert len(g.ff_weights) > 0
        for i, j, w in zip(g.ff_i, g.ff_j, g.ff_weights):
            # fresh contiguous copies, as m.column returns: the dot
            # product's rounding can depend on the vectors' alignment
            ci, cj = dense[:, i].copy(), dense[:, j].copy()
            assert w == ci @ cj / (np.linalg.norm(ci) * np.linalg.norm(cj))

    def test_zero_cosine_dropped(self):
        # columns 0 and 1 are orthogonal, column 2 is all zero
        m = SparseMatrix.from_dense(np.array([[1.0, 0.0, 0.0],
                                              [0.0, 1.0, 0.0]]))
        g = augment_with_pathways(build_bipartite(m),
                                  GeneSetCollection([("s", [0, 1, 2])]))
        assert not g.has_pathways

    def test_nonpositive_cosine_dropped(self):
        m = SparseMatrix.from_dense(np.array([[1.0, -1.0], [1.0, -1.0]]))
        g = augment_with_pathways(build_bipartite(m),
                                  GeneSetCollection([("s", [0, 1])]))
        assert not g.has_pathways

    def test_cell_feature_edges_untouched(self):
        rng = np.random.default_rng(3)
        dense = np.abs(rng.standard_normal((6, 4)))
        m = SparseMatrix.from_dense(dense)
        g0 = build_bipartite(m)
        g1 = augment_with_pathways(g0, GeneSetCollection([("s", [0, 1, 2])]))
        assert g1.matrix is g0.matrix and not g0.has_pathways

    def test_member_out_of_range(self):
        m = SparseMatrix.from_dense(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            augment_with_pathways(build_bipartite(m),
                                  GeneSetCollection([("s", [0, 7])]))


class TestScaledWeights:
    def test_symmetric_mode_requires_positive_sums(self):
        g = graph_from([[1.0, -2.0], [0.5, 0.0]])
        with pytest.raises(Exception, match="min_max_scale"):
            g.scaled_weights(EdgeScaling.SYMMETRIC)

    def test_min_max_mode_in_unit_interval(self):
        g = graph_from([[1.0, -2.0], [0.5, 3.0]])
        cf, _ = g.scaled_weights(EdgeScaling.MIN_MAX)
        assert cf.min() >= 0.0 and cf.max() <= 1.0

    def test_post_norm_mode_keeps_raw_weights(self):
        g = graph_from([[1.0, -2.0], [0.5, 3.0]])
        cf, _ = g.scaled_weights(EdgeScaling.POST_NORM)
        assert np.array_equal(cf, g.matrix.values)

    def test_whole_graph_symmetry(self):
        rng = np.random.default_rng(4)
        dense = np.abs(rng.standard_normal((7, 5))) * (rng.random((7, 5)) < 0.6)
        dense[dense.sum(axis=1) == 0, 0] = 1.0
        col_fix = dense.sum(axis=0) == 0
        dense[0, col_fix] = 1.0
        g = graph_from(dense)
        cells_from_features, features_from_cells, _ = g.operators(
            EdgeScaling.SYMMETRIC)
        assert np.allclose(cells_from_features.to_dense(),
                           features_from_cells.to_dense().T)

    def test_operators_cached_per_mode(self):
        g = graph_from([[1.0, 2.0], [0.5, 3.0]])
        raw = g.operators(EdgeScaling.POST_NORM)
        scaled = g.operators(EdgeScaling.MIN_MAX)
        assert g.operators(EdgeScaling.POST_NORM) is raw
        assert np.array_equal(raw[0].values, g.matrix.values)
        assert np.array_equal(scaled[0].values,
                              g.scaled_weights(EdgeScaling.MIN_MAX)[0])
