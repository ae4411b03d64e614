"""Cell-feature bipartite graph construction.

The graph is the modality matrix itself: cells (rows) and measured features
(columns) are the two node sets, and each stored entry is an edge weighted
by the measured value. Pathway (gene-set) augmentation adds feature-feature
edges weighted by column cosine similarity. How edge weights enter the
aggregation (`EdgeScaling`) is not a property of the graph: the network's
config chooses it per call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .linalg import (
    SparseMatrix,
    cosine_similarity_columns,
    min_max_scale,
    symmetric_edge_normalize,
)


class EdgeScaling(Enum):
    """How edge weights enter the aggregation.

    SYMMETRIC: divide by sqrt(deg_u)*sqrt(deg_v) over the whole graph.
    MIN_MAX: map all weights onto [0, 1], no degree normalization.
    POST_NORM: raw weights; aggregation results are normalized instead
        (group norm in the coupled network, row standardization in the
        decoupled propagation).
    """

    SYMMETRIC = "symmetric"
    MIN_MAX = "min_max"
    POST_NORM = "post_norm"


@dataclass
class CellFeatureGraph:
    """Bipartite cell-feature graph, optionally with feature-feature edges.

    matrix is the n_cells x n_features CSR modality matrix; each stored
    entry is one cell-feature edge. ff_* hold each undirected feature pair
    once with i < j. Instances are immutable in practice; mutating helpers
    return new graphs.
    """

    matrix: SparseMatrix
    ff_i: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    ff_j: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    ff_weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _operator_cache: dict = field(default_factory=dict, repr=False,
                                  compare=False)

    @property
    def n_cells(self) -> int:
        return self.matrix.n_rows

    @property
    def n_features(self) -> int:
        return self.matrix.n_cols

    @property
    def has_pathways(self) -> bool:
        return len(self.ff_weights) > 0

    def scaled_weights(self, mode: EdgeScaling
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(cell-feature, feature-feature) weights under the scaling mode.

        The cell-feature weights follow the matrix's stored order.
        SYMMETRIC normalizes over the whole adjacency (both blocks share the
        degree sums, matching the block matrix view); MIN_MAX scales both
        blocks jointly onto [0, 1]; POST_NORM returns the raw weights.
        """
        cf = self.matrix.values
        if mode is EdgeScaling.POST_NORM:
            return cf.copy(), self.ff_weights.copy()
        if mode is EdgeScaling.MIN_MAX:
            scaled = min_max_scale(np.concatenate([cf, self.ff_weights]))
            return scaled[: len(cf)], scaled[len(cf):]
        # SYMMETRIC: features live at ids [n_cells, n_cells + n_features)
        a = np.concatenate([self.matrix.row_indices(), self.n_cells + self.ff_i])
        b = np.concatenate([self.n_cells + self.matrix.col_indices,
                            self.n_cells + self.ff_j])
        w = np.concatenate([cf, self.ff_weights])
        norm = symmetric_edge_normalize(a, b, w, self.n_cells + self.n_features)
        return norm[: len(cf)], norm[len(cf):]

    def operators(self, mode: EdgeScaling):
        """Sparse operators for message passing under the scaling mode.

        Returns (cells_from_features, features_from_cells, features_from_features)
        where the first is N x k, the second k x N (the first's transpose),
        the third k x k (None without pathway edges). The feature-feature
        operator is symmetric. Cached per scaling mode; training reuses them
        every step, each as the other's transpose in the backward pass.
        """
        if mode in self._operator_cache:
            return self._operator_cache[mode]
        cf_w, ff_w = self.scaled_weights(mode)
        cells_from_features = self.matrix.with_values(cf_w)
        features_from_cells = cells_from_features.transpose()
        features_from_features = None
        if self.has_pathways:
            features_from_features = SparseMatrix.from_coo(
                self.n_features,
                self.n_features,
                np.concatenate([self.ff_i, self.ff_j]),
                np.concatenate([self.ff_j, self.ff_i]),
                np.concatenate([ff_w, ff_w]),
                sum_duplicates=False,
            )
        triple = (cells_from_features, features_from_cells,
                  features_from_features)
        self._operator_cache[mode] = triple
        return triple


@dataclass
class GeneSetCollection:
    """Named groups of (possibly overlapping) feature indices."""

    sets: list[tuple[str, list[int]]]

    def validate(self, n_features: int):
        for name, members in self.sets:
            for m in members:
                if not 0 <= m < n_features:
                    raise ValueError(
                        f"gene set {name!r}: member index {m} out of range "
                        f"(n_features={n_features})"
                    )


def build_bipartite(m: SparseMatrix) -> CellFeatureGraph:
    """The graph over m: one weighted edge per stored entry."""
    if m.nnz == 0:
        warnings.warn("modality matrix has no nonzero entries; graph is edgeless")
    return CellFeatureGraph(m)


def augment_with_pathways(g: CellFeatureGraph,
                          sets: GeneSetCollection) -> CellFeatureGraph:
    """Add feature-feature edges for every within-set pair.

    Weight is the cosine similarity of the two feature columns of the
    graph's matrix; pairs with non-positive cosine are dropped, pairs shared
    by several sets keep one edge. Cell-feature edges are untouched.
    """
    sets.validate(g.n_features)
    pairs = set()
    for _, members in sets.sets:
        uniq = sorted(set(members))
        for a in range(len(uniq)):
            for b in range(a + 1, len(uniq)):
                pairs.add((uniq[a], uniq[b]))
    pairs = sorted(pairs)
    ii, jj, ww = [], [], []
    for (i, j), w in zip(pairs, cosine_similarity_columns(g.matrix, pairs)):
        if w > 0:
            ii.append(i)
            jj.append(j)
            ww.append(w)
    return CellFeatureGraph(
        g.matrix,
        ff_i=np.asarray(ii, dtype=np.int64),
        ff_j=np.asarray(jj, dtype=np.int64),
        ff_weights=np.asarray(ww, dtype=np.float64),
    )

