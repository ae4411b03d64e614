import itertools

import numpy as np
import pytest

from cellgraph import metrics
from cellgraph.cli import _metric_suite
from cellgraph.data import read_kv
from cellgraph.metrics import (KnnGraph, MetricReport, aggregate, batch_asw,
                               cell_cycle_conservation, cell_type_asw,
                               graph_connectivity, knn_graph, louvain,
                               louvain_edges, nmi,
                               nmi_cluster_label, pseudotime_from_root,
                               silhouette_asw, spearman,
                               trajectory_conservation, variance_explained,
                               write_report)


def modularity(n: int, edges, labels, resolution: float) -> float:
    """Resolution-scaled Newman modularity of a labeled undirected graph."""
    labels = np.asarray(labels)
    degree = np.zeros(n)
    internal: dict[int, float] = {}
    total = 0.0
    for i, j, w in edges:
        if i == j:
            degree[i] += 2 * w
            total += 2 * w
            if labels[i] == labels[j]:
                internal[labels[i]] = internal.get(labels[i], 0.0) + 2 * w
            continue
        degree[i] += w
        degree[j] += w
        total += 2 * w
        if labels[i] == labels[j]:
            internal[labels[i]] = internal.get(labels[i], 0.0) + 2 * w
    if total == 0:
        return 0.0
    tot_per = {}
    for node, lab in enumerate(labels):
        tot_per[lab] = tot_per.get(lab, 0.0) + degree[node]
    return float(sum(
        internal.get(lab, 0.0) / total
        - resolution * (tot_per[lab] / total) ** 2
        for lab in tot_per
    ))


def _reference_louvain_level(n, adj, self_w, resolution, order):
    """Louvain level on per-node (neighbor, weight) lists."""
    degree = np.array([sum(w for _, w in adj[i]) + 2 * self_w[i]
                       for i in range(n)])
    two_m = degree.sum()
    if two_m == 0:
        return np.arange(n)
    community = np.arange(n)
    tot = degree.astype(np.float64).copy()
    moved = True
    while moved:
        moved = False
        for node in order:
            com = community[node]
            weights_to: dict[int, float] = {}
            for nbr, w in adj[node]:
                weights_to[community[nbr]] = (
                    weights_to.get(community[nbr], 0.0) + w
                )
            tot[com] -= degree[node]
            base = weights_to.get(com, 0.0) - resolution * degree[node] * (
                tot[com] / two_m
            )
            best_com, best_gain = com, base
            for cand in sorted(weights_to):
                if cand == com:
                    continue
                gain = weights_to[cand] - resolution * degree[node] * (
                    tot[cand] / two_m
                )
                if gain > best_gain + 1e-12:
                    best_com, best_gain = cand, gain
            tot[best_com] += degree[node]
            if best_com != com:
                community[node] = best_com
                moved = True
    return community


def reference_louvain(n, edges, resolution, seed):
    """Louvain over a list of (i, j, w) tuples, merging levels through a
    dict keyed on community pairs; returns (labels, number of levels)."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n)
    cur_n = n
    cur_edges = [(int(i), int(j), float(w)) for i, j, w in edges]
    levels = 0
    while True:
        levels += 1
        adj: list[list[tuple[int, float]]] = [[] for _ in range(cur_n)]
        self_w = np.zeros(cur_n)
        for i, j, w in cur_edges:
            if i == j:
                self_w[i] += w
            else:
                adj[i].append((j, w))
                adj[j].append((i, w))
        order = rng.permutation(cur_n)
        community = _reference_louvain_level(cur_n, adj, self_w, resolution,
                                             order)
        packed = {c: idx for idx, c in enumerate(np.unique(community))}
        community = np.array([packed[c] for c in community])
        if len(packed) == cur_n:
            break
        labels = community[labels]
        merged: dict[tuple[int, int], float] = {}
        for i, j, w in cur_edges:
            a, b = community[i], community[j]
            key = (min(a, b), max(a, b))
            merged[key] = merged.get(key, 0.0) + w
        cur_edges = [(a, b, w) for (a, b), w in sorted(merged.items())]
        cur_n = len(packed)
    packed = {c: idx for idx, c in enumerate(np.unique(labels))}
    return np.array([packed[c] for c in labels]), levels


class TestKnnGraph:
    def test_collinear_points(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        g = knn_graph(pts, 1)
        assert g.neighbors[0][0] == 1
        assert g.neighbors[1][0] == 0
        assert g.neighbors[2][0] == 1

    def test_duplicate_points_zero_distance(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0]])
        g = knn_graph(pts, 1)
        assert g.neighbors[0][0] == 1 and g.distances[0][0] == 0.0
        assert g.neighbors[1][0] == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((50, 4))
        g = knn_graph(pts, 5)
        for i in range(50):
            d = np.linalg.norm(pts - pts[i], axis=1)
            order = np.lexsort((np.arange(50), d))
            expected = [j for j in order if j != i][:5]
            assert g.neighbors[i].tolist() == expected

    def test_matches_brute_force_across_blocks(self, monkeypatch):
        monkeypatch.setattr(metrics, "_DISTANCE_BLOCK", 3 * 50)
        blocks = list(metrics._distance_blocks(np.zeros((50, 4))))
        assert len(blocks) == 17
        self.test_matches_brute_force()

    @pytest.mark.parametrize("block", [None, 3 * 40])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_ties_on_integer_grid(self, k, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(metrics, "_DISTANCE_BLOCK", block)
        rng = np.random.default_rng(100 + k)
        pts = rng.integers(0, 4, (40, 2)).astype(np.float64)
        g = knn_graph(pts, k)
        boundary_ties = 0
        for i in range(40):
            d = np.linalg.norm(pts - pts[i], axis=1)
            order = [j for j in np.lexsort((np.arange(40), d)) if j != i]
            assert g.neighbors[i].tolist() == order[:k]
            assert g.distances[i].tolist() == d[order[:k]].tolist()
            boundary_ties += d[order[k - 1]] == d[order[k]]
        assert boundary_ties > 0

    def test_k_clamped(self):
        g = knn_graph(np.random.default_rng(1).standard_normal((4, 2)), 10)
        assert g.k == 3
        assert all(len(nb) == 3 for nb in g.neighbors)

    def test_tie_broken_by_lower_index(self):
        pts = np.array([[0.0], [1.0], [-1.0]])
        g = knn_graph(pts, 1)
        assert g.neighbors[0][0] == 1  # both at distance 1; lower index wins


class TestPseudotime:
    def test_path_graph_distances(self):
        pts = np.arange(5.0).reshape(-1, 1)
        g = knn_graph(pts, 1)
        d = pseudotime_from_root(g, 0)
        assert np.allclose(d, [0, 1, 2, 3, 4])

    def test_root_is_zero(self):
        pts = np.random.default_rng(2).standard_normal((10, 3))
        d = pseudotime_from_root(knn_graph(pts, 3), 4)
        assert d[4] == 0.0

    def test_matches_brute_force_relaxation(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((20, 2))
        g = knn_graph(pts, 3)
        d = pseudotime_from_root(g, 0)
        # Bellman-Ford over the same symmetrized edges
        edges = list(zip(*g.undirected_edges()))
        ref = np.full(20, np.inf)
        ref[0] = 0.0
        for _ in range(20):
            for i, j, w in edges:
                ref[i] = min(ref[i], ref[j] + w)
                ref[j] = min(ref[j], ref[i] + w)
        finite = ref[np.isfinite(ref)]
        ref[~np.isfinite(ref)] = finite.max() + 1.0
        assert np.allclose(d, ref)

    def test_unreachable_gets_max_plus_one(self):
        # two far clusters, k=1 keeps them disconnected
        pts = np.array([[0.0], [0.1], [100.0], [100.1]])
        g = knn_graph(pts, 1)
        d = pseudotime_from_root(g, 0)
        assert d[2] == d[3] == pytest.approx(0.1 + 1.0)


class TestLouvain:
    def _clique_edges(self, nodes):
        return [(i, j, 1.0) for i, j in itertools.combinations(nodes, 2)]

    def test_two_cliques_with_bridge(self):
        edges = (self._clique_edges(range(10))
                 + self._clique_edges(range(10, 20))
                 + [(0, 10, 1.0)])
        labels = louvain_edges(20, *zip(*edges), resolution=1.0, seed=0)
        assert len(set(labels[:10])) == 1
        assert len(set(labels[10:])) == 1
        assert labels[0] != labels[10]

    def test_complete_graph_low_resolution_single_community(self):
        edges = self._clique_edges(range(12))
        labels = louvain_edges(12, *zip(*edges), resolution=0.1, seed=0)
        assert len(set(labels.tolist())) == 1

    def test_beats_singleton_modularity(self):
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(0, 0.3, (15, 2)),
                         rng.normal(5, 0.3, (15, 2))])
        g = knn_graph(pts, 4)
        labels = louvain(g, resolution=1.0, seed=1)
        edges = [(i, j, 1.0) for i, j, _ in zip(*g.undirected_edges())]
        assert (modularity(30, edges, labels, 1.0)
                >= modularity(30, edges, np.arange(30), 1.0))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 3))
        g = knn_graph(pts, 5)
        a = louvain(g, resolution=1.3, seed=7)
        b = louvain(g, resolution=1.3, seed=7)
        assert np.array_equal(a, b)

    def test_matches_tuple_reference(self):
        rng = np.random.default_rng(30)
        multi_level = 0
        for trial in range(48):
            n = int(rng.integers(2, 40))
            m = int(rng.integers(1, 4 * n))
            src = rng.integers(0, n, m)
            # about one edge in ten is a self-loop; pairs repeat freely
            dst = np.where(rng.random(m) < 0.1, src, rng.integers(0, n, m))
            weights = (rng.random(m) * 3.0 if trial % 2
                       else np.ones(m))
            edges = list(zip(src.tolist(), dst.tolist(), weights.tolist()))
            for resolution in (0.3, 1.0, 1.7):
                expected, levels = reference_louvain(n, edges, resolution,
                                                     seed=trial)
                multi_level += levels > 2
                labels = louvain_edges(n, src, dst, weights, resolution,
                                       seed=trial)
                assert labels.tolist() == expected.tolist()
        assert multi_level > 0

    def test_invalid_resolution(self):
        with pytest.raises(ValueError):
            louvain_edges(3, *zip(*[(0, 1, 1.0)]), resolution=0.0, seed=0)


class TestNmi:
    def test_identical_labelings(self):
        labels = np.array([0, 0, 1, 2, 2, 1])
        assert nmi(labels, labels) == 1.0

    def test_relabeling_invariance(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([5, 5, 9, 9, 2, 2])
        assert nmi(a, b) == pytest.approx(1.0)

    def test_single_cluster_vs_anything_is_zero(self):
        assert nmi(np.zeros(6), np.array([0, 1, 2, 0, 1, 2])) == 0.0

    def test_both_single_cluster_is_one(self):
        assert nmi(np.zeros(5), np.ones(5)) == 1.0

    def test_matches_contingency_brute_force(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 4, 30)
        b = rng.integers(0, 3, 30)
        n = 30
        mi = 0.0
        for ai in range(4):
            for bj in range(3):
                pij = np.mean((a == ai) & (b == bj))
                pa = np.mean(a == ai)
                pb = np.mean(b == bj)
                if pij > 0:
                    mi += pij * np.log(pij / (pa * pb))
        ent_a = -sum(p * np.log(p) for p in
                     [np.mean(a == v) for v in range(4)] if p > 0)
        ent_b = -sum(p * np.log(p) for p in
                     [np.mean(b == v) for v in range(3)] if p > 0)
        assert nmi(a, b) == pytest.approx(mi / ((ent_a + ent_b) / 2))

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 5, 40)
        assert abs(nmi(a, b) - nmi(b, a)) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nmi(np.zeros(3), np.zeros(4))


class TestNmiClusterLabel:
    def test_one_hot_embedding_reaches_one(self):
        labels = np.repeat([0, 1, 2], 12)
        emb = np.eye(3)[labels] * 10.0
        assert nmi_cluster_label(knn_graph(emb, 5), labels, seed=0) \
            == pytest.approx(1.0)

    def test_noise_embedding_scores_low(self):
        rng = np.random.default_rng(8)
        labels = np.repeat([0, 1], 100)
        emb = rng.standard_normal((200, 5))
        assert nmi_cluster_label(knn_graph(emb, 10), labels, seed=0) < 0.2

    def test_at_least_single_resolution_value(self):
        rng = np.random.default_rng(9)
        labels = np.repeat([0, 1, 2], 15)
        emb = np.eye(3)[labels] + rng.normal(0, 0.4, (45, 3))
        g = knn_graph(emb, 10)
        single = nmi(louvain(g, 1.0, seed=0), labels)
        assert nmi_cluster_label(knn_graph(emb, 10), labels, seed=0) >= single


def textbook_silhouettes(points, labels):
    """Per-cell silhouettes straight from the definition."""
    s = np.zeros(len(labels))
    for i in range(len(labels)):
        d = np.linalg.norm(points - points[i], axis=1)
        own = labels == labels[i]
        if own.sum() == 1:
            continue
        a = d[own].sum() / (own.sum() - 1)
        b = min(d[labels == other].mean()
                for other in np.unique(labels) if other != labels[i])
        s[i] = (b - a) / max(a, b)
    return s


class TestSilhouette:
    @pytest.mark.parametrize("block", [None, 5 * 64])
    def test_matches_textbook_formula(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(metrics, "_DISTANCE_BLOCK", block)
        rng = np.random.default_rng(25)
        pts = rng.standard_normal((64, 3))
        types = rng.integers(0, 3, 64)
        batches = rng.integers(0, 2, 64)
        expected = textbook_silhouettes(pts, types)
        assert np.allclose(metrics._silhouette_samples(pts, types), expected,
                           rtol=0, atol=1e-12)
        assert silhouette_asw(pts, types) == pytest.approx(expected.mean(),
                                                           abs=1e-12)
        per_type = [
            (1.0 - np.abs(textbook_silhouettes(pts[types == t],
                                               batches[types == t]))).mean()
            for t in np.unique(types)
            if len(np.unique(batches[types == t])) > 1
        ]
        assert batch_asw(pts, batches, types) == pytest.approx(
            np.mean(per_type), abs=1e-12)

    def test_tight_far_clusters(self):
        rng = np.random.default_rng(10)
        pts = np.vstack([rng.normal(0, 0.01, (20, 2)),
                         rng.normal(100, 0.01, (20, 2))])
        labels = np.repeat([0, 1], 20)
        assert silhouette_asw(pts, labels) > 0.99

    def test_identical_points_zero_by_convention(self):
        pts = np.ones((6, 2))
        labels = np.array([0, 0, 0, 1, 1, 1])
        assert silhouette_asw(pts, labels) == 0.0

    def test_random_labels_near_zero(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pts = rng.standard_normal((100, 3))
            labels = rng.integers(0, 2, 100)
            assert abs(silhouette_asw(pts, labels)) < 0.1

    def test_single_label_rejected(self):
        with pytest.raises(ValueError):
            silhouette_asw(np.random.default_rng(0).standard_normal((5, 2)),
                           np.zeros(5))

    def test_singleton_cluster_contributes_zero(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [50.0, 0.0]])
        labels = np.array([0, 0, 1])
        # singleton's s = 0; the other two are far from it and compact
        val = silhouette_asw(pts, labels)
        assert 0 < val < 1


class TestCellTypeAsw:
    def test_affine_endpoints(self):
        rng = np.random.default_rng(11)
        pts = np.vstack([rng.normal(0, 1e-8, (10, 2)),
                         rng.normal(1000, 1e-8, (10, 2))])
        labels = np.repeat([0, 1], 10)
        assert cell_type_asw(pts, labels) == pytest.approx(1.0, abs=1e-6)

    def test_affine_midpoint(self):
        pts = np.ones((4, 2))
        labels = np.array([0, 0, 1, 1])
        assert cell_type_asw(pts, labels) == pytest.approx(0.5)


class TestBatchAsw:
    def test_perfectly_mixed_batches(self):
        # interleaved identical grids per batch within one cell type
        base = np.linspace(0, 1, 20).reshape(-1, 1)
        pts = np.vstack([base, base + 1e-9])
        batches = np.repeat([0, 1], 20)
        types = np.zeros(40)
        assert batch_asw(pts, batches, types) > 0.9

    def test_fully_separated_batches(self):
        rng = np.random.default_rng(12)
        pts = np.vstack([rng.normal(0, 0.01, (15, 2)),
                         rng.normal(50, 0.01, (15, 2))])
        batches = np.repeat([0, 1], 15)
        types = np.zeros(30)
        assert batch_asw(pts, batches, types) < 0.1

    def test_single_batch_type_skipped(self):
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((30, 2))
        types = np.repeat([0, 1], 15)
        batches = np.concatenate([np.zeros(15), np.repeat([0, 1], [7, 8])])
        # type 0 has one batch: only type 1 is scored
        val = batch_asw(pts, batches, types)
        assert 0.0 <= val <= 1.0

    def test_no_scorable_group_rejected(self):
        with pytest.raises(ValueError):
            batch_asw(np.ones((4, 2)), np.zeros(4), np.zeros(4))


class TestCellCycleConservation:
    def test_equal_variance_gives_one(self):
        rng = np.random.default_rng(14)
        emb = rng.standard_normal((40, 3))
        scores = emb @ np.array([1.0, -0.5, 0.2])
        batches = np.repeat([0, 1], 20)
        var_before = {b: variance_explained(scores[batches == b],
                                            emb[batches == b])
                      for b in (0, 1)}
        assert cell_cycle_conservation(scores, emb, batches, var_before) \
            == pytest.approx(1.0)

    def test_formula_endpoint(self):
        # Var_after 0 (noise scores vs constant embedding), Var_before 0.5
        rng = np.random.default_rng(15)
        emb = np.ones((30, 2))
        scores = rng.standard_normal(30)
        batches = np.zeros(30, dtype=int)
        assert cell_cycle_conservation(scores, emb, batches, {0: 0.5}) \
            == pytest.approx(1.0 - (0.5 / 0.5), abs=1e-12)

    def test_score_as_coordinate_gives_r2_one(self):
        rng = np.random.default_rng(16)
        scores = rng.standard_normal(25)
        emb = np.column_stack([scores, rng.standard_normal(25)])
        assert variance_explained(scores, emb) == pytest.approx(1.0)

    def test_nonpositive_var_before_skipped(self):
        rng = np.random.default_rng(17)
        emb = rng.standard_normal((20, 2))
        scores = rng.standard_normal(20)
        batches = np.repeat([0, 1], 10)
        with pytest.warns(UserWarning, match="skipped"):
            val = cell_cycle_conservation(
                scores, emb, batches,
                {0: 0.0, 1: variance_explained(scores[10:], emb[10:])})
        assert val == pytest.approx(1.0)


class TestTrajectoryConservation:
    def test_identical_order(self):
        pt = np.arange(10.0)
        assert trajectory_conservation(pt, pt) == 1.0

    def test_reversed_order(self):
        pt = np.arange(10.0)
        assert trajectory_conservation(pt, pt[::-1]) == pytest.approx(0.0)

    def test_matches_rank_pearson_brute_force(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal(20)
        b = rng.standard_normal(20)
        ra = np.argsort(np.argsort(a)) + 1.0
        rb = np.argsort(np.argsort(b)) + 1.0
        pearson = np.corrcoef(ra, rb)[0, 1]
        assert trajectory_conservation(a, b) == pytest.approx(
            (pearson + 1) / 2)

    def test_average_rank_ties(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 1.0, 2.0, 3.0])
        assert trajectory_conservation(a, b) == pytest.approx(1.0)
        assert spearman(a, b) == pytest.approx(1.0)

    def test_constant_input_scores_half_with_warning(self):
        with pytest.warns(UserWarning, match="constant"):
            assert trajectory_conservation(np.ones(5), np.arange(5.0)) == 0.5


class TestGraphConnectivity:
    def test_tight_blobs_fully_connected(self):
        rng = np.random.default_rng(19)
        pts = np.vstack([rng.normal(0, 0.1, (20, 2)),
                         rng.normal(10, 0.1, (20, 2))])
        types = np.repeat([0, 1], 20)
        assert graph_connectivity(knn_graph(pts, 5), types) == 1.0

    def test_split_type_scores_half(self):
        rng = np.random.default_rng(20)
        half_a = rng.normal(0, 0.05, (10, 2))
        half_b = rng.normal(100, 0.05, (10, 2))
        pts = np.vstack([half_a, half_b])
        types = np.zeros(20)
        assert (graph_connectivity(knn_graph(pts, 3), types)
                == pytest.approx(0.5))

    def test_singleton_type_contributes_one(self):
        rng = np.random.default_rng(21)
        pts = np.vstack([rng.normal(0, 0.1, (10, 2)), [[50.0, 50.0]]])
        types = np.array([0] * 10 + [1])
        assert graph_connectivity(knn_graph(pts, 3), types) == 1.0

    def test_union_find_oracle_on_connected_subgraphs(self):
        rng = np.random.default_rng(22)
        pts = rng.standard_normal((30, 2)) * 0.1
        types = rng.integers(0, 2, 30)
        assert graph_connectivity(knn_graph(pts, 29), types) == 1.0

    def test_matches_union_find_per_type(self):
        def per_type_reference(g, types):
            scores = []
            for t in np.unique(types):
                members = np.flatnonzero(types == t)
                local = {int(m): pos for pos, m in enumerate(members)}
                parent = list(range(len(members)))

                def find(a):
                    while parent[a] != a:
                        a = parent[a]
                    return a

                for i, j, _ in zip(*g.undirected_edges()):
                    if i in local and j in local:
                        parent[find(local[i])] = find(local[j])
                roots = [find(a) for a in range(len(members))]
                scores.append(max(roots.count(r) for r in roots)
                              / len(members))
            return float(np.mean(scores))

        rng = np.random.default_rng(26)
        for _ in range(30):
            n = int(rng.integers(5, 60))
            pts = rng.standard_normal((n, 2))
            types = rng.integers(0, 4, n)
            g = knn_graph(pts, int(rng.integers(1, 6)))
            assert graph_connectivity(g, types) == per_type_reference(g, types)


class TestUnlabeledCells:
    def test_label_metrics_leave_unlabeled_cells_out(self):
        # two far-apart chains of 20 cells, every other cell labeled NA (-1);
        # scored as a third type, NA read 0.4 NMI, 0.4995 cell-type ASW and
        # 0.833 connectivity
        x = np.arange(20) * 0.1
        pts = np.column_stack([np.concatenate([x, x + 100.0]), np.zeros(40)])
        types = np.repeat([0, 1], 20)
        batches = np.tile([0, 0, 1, 1], 10)
        partly = types.copy()
        partly[1::2] = -1
        labeled = partly >= 0
        g = knn_graph(pts, 5)
        assert nmi_cluster_label(g, partly) == 1.0
        assert graph_connectivity(g, partly) == 1.0
        assert (cell_type_asw(pts, partly)
                == cell_type_asw(pts[labeled], types[labeled]))
        assert (batch_asw(pts, batches, partly)
                == batch_asw(pts[labeled], batches[labeled], types[labeled]))


class TestMetricSuite:
    def test_builds_one_knn_graph(self, monkeypatch):
        calls = []
        build = metrics.knn_graph

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(metrics, "knn_graph", counted)
        rng = np.random.default_rng(27)
        report = _metric_suite(
            rng.standard_normal((60, 4)), np.repeat([0, 1, 2], 20),
            np.tile([0, 1], 30), 5, pseudotime_before=rng.random(60),
            cc_scores=rng.standard_normal(60),
            pre_embedding=rng.standard_normal((60, 3)), seed=0)
        assert len(calls) == 1
        assert all(np.isfinite(getattr(report, name))
                   for name in MetricReport.FIELDS)


class TestAggregate:
    def test_all_ones(self):
        assert aggregate(1, 1, 1, 1, 1, 1).overall == pytest.approx(1.0)

    def test_bio_one_batch_zero(self):
        report = aggregate(1, 1, 1, 1, 0, 0)
        assert report.overall == pytest.approx(0.6)
        assert report.s_bio == 1.0 and report.s_batch == 0.0

    def test_published_baseline_row_arithmetic(self):
        # equal inner weights and the 0.6/0.4 blend over the printed values
        report = aggregate(0.6408, 0.5266, 0.9270, 0.8325, 0.7982, 0.8945)
        assert report.s_bio == pytest.approx(2.9269 / 4, abs=1e-12)
        assert report.s_batch == pytest.approx(1.6927 / 2, abs=1e-12)
        assert report.overall == pytest.approx(
            0.6 * 2.9269 / 4 + 0.4 * 1.6927 / 2, abs=1e-12)
        # does NOT reproduce the published 0.7699 average: the original
        # inner weighting is undisclosed
        assert abs(report.overall - 0.7699) > 0.005

    def test_linearity_spot_check(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            vals = rng.random(6)
            rep = aggregate(*vals)
            assert rep.overall == pytest.approx(
                0.6 * vals[:4].mean() + 0.4 * vals[4:].mean())

    def test_nan_bio_metric_left_out_of_s_bio(self):
        report = aggregate(0.2, 0.4, float("nan"), 0.9, 0.5, 1.0)
        assert report.s_bio == pytest.approx(1.5 / 3)
        assert report.overall == pytest.approx(0.6 * 0.5 + 0.4 * 0.75)

    def test_report_round_trip(self, tmp_path):
        rep = aggregate(0.5, 0.25, 1.0, 0.75, 0.5, 1.0)
        path = tmp_path / "metrics.kv"
        write_report(rep, path)
        loaded = read_kv(path)
        assert set(loaded) == set(MetricReport.FIELDS)
        for name in MetricReport.FIELDS:
            assert float(loaded[name]) == pytest.approx(
                getattr(rep, name), abs=1e-6)


class TestRangeInvariants:
    def test_metric_outputs_in_range_on_random_inputs(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            n = int(rng.integers(12, 40))
            pts = rng.standard_normal((n, 3))
            types = rng.integers(0, 3, n)
            if len(np.unique(types)) < 2:
                continue
            batches = rng.integers(0, 2, n)
            assert -1.0 <= silhouette_asw(pts, types) <= 1.0
            assert 0.0 <= cell_type_asw(pts, types) <= 1.0
            assert 0.0 <= graph_connectivity(knn_graph(pts, 5), types) <= 1.0
            assert 0.0 <= nmi(types, batches) <= 1.0
            try:
                assert 0.0 <= batch_asw(pts, batches, types) <= 1.0
            except ValueError:
                pass  # no scorable group in this draw
