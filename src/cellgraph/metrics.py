"""Evaluation metrics for the joint-embedding task plus shared graph tools.

Everything is exact (all pairwise distances, in row blocks that hold no
n x n array; exact kNN; exhaustive connected components); no subsampling
or approximate neighbors. All functions are pure. A negative cell-type
label marks an unlabeled cell (`NA` loads as -1): the label metrics (NMI,
both ASWs, graph connectivity) leave such cells out.
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# kNN graph


@dataclass
class KnnGraph:
    """Exact k-nearest-neighbor lists, sorted by (distance, index): row i of
    the (n, k) arrays holds node i's neighbors and their distances."""

    n_nodes: int
    k: int
    neighbors: np.ndarray
    distances: np.ndarray

    def undirected_edges(self):
        """Each kNN edge once as arrays (i, j, distance), symmetrized by union
        and sorted; an edge listed from both ends keeps the first distance."""
        n = self.n_nodes
        src = np.repeat(np.arange(n, dtype=np.int64), self.k)
        dst = self.neighbors.reshape(-1)
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        _, first = np.unique(lo * n + hi, return_index=True)
        return lo[first], hi[first], self.distances.reshape(-1)[first]


def _csr_rows(n: int, src, dst, weights):
    """Both directions of every non-loop edge as CSR rows (indptr,
    neighbors, weights), each row in edge-list order, and the summed
    self-loop weight per node."""
    loop = src == dst
    self_w = np.bincount(src[loop], weights=weights[loop], minlength=n)
    src, dst, weights = src[~loop], dst[~loop], weights[~loop]
    owner = np.column_stack([src, dst]).reshape(-1)
    order = np.argsort(owner, kind="stable")
    indptr = np.concatenate([[0], np.cumsum(np.bincount(owner, minlength=n))])
    return (indptr, np.column_stack([dst, src]).reshape(-1)[order],
            np.repeat(weights, 2)[order], self_w)


# entries per distance block; inputs of up to 1024 points take one block
_DISTANCE_BLOCK = 1 << 20


def _distance_blocks(points: np.ndarray):
    """Yield (rows, block): Euclidean distances from the slice `rows` of
    `points` to every row, at most `_DISTANCE_BLOCK` entries per block.
    Every block is written into one buffer, so a block is valid only until
    the next one is yielded; the buffer's memory is faulted in once."""
    n = len(points)
    sq = (points * points).sum(axis=1)
    step = max(1, _DISTANCE_BLOCK // max(n, 1))
    buf = np.empty((min(step, n), n))
    for start in range(0, n, step):
        rows = slice(start, min(n, start + step))
        d = np.add(sq[rows, None], sq[None, :], out=buf[:rows.stop - start])
        d -= (2.0 * points[rows]) @ points.T
        np.sqrt(np.maximum(d, 0.0, out=d), out=d)
        # the expansion leaves rounding noise where d(i, i) is exactly 0
        d[np.arange(len(d)), np.arange(n)[rows]] = 0.0
        yield rows, d


def knn_graph(points: np.ndarray, k: int) -> KnnGraph:
    """Brute-force exact neighbors; ties broken toward the lower index."""
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    k_eff = min(k, n - 1)
    neighbors = np.empty((n, k_eff), dtype=np.int64)
    distances = np.empty((n, k_eff))
    for rows, dist in _distance_blocks(pts):
        dist[np.arange(len(dist)), np.arange(n)[rows]] = -1.0  # self first
        # the k + 1 nearest by (distance, index); where an unchosen entry
        # ties the last of them, a stable sort of the whole row keeps equal
        # distances in index order
        near = np.argpartition(dist, k_eff, axis=1)[:, :k_eff + 1]
        near_d = np.take_along_axis(dist, near, axis=1)
        near = np.take_along_axis(near, np.lexsort((near, near_d)), axis=1)
        tie = (dist <= near_d.max(axis=1)[:, None]).sum(axis=1) > k_eff + 1
        near[tie] = np.argsort(dist[tie], axis=1, kind="stable")[:, :k_eff + 1]
        neighbors[rows] = near[:, 1:]
        distances[rows] = np.take_along_axis(dist, near[:, 1:], axis=1)
    return KnnGraph(n, k_eff, neighbors, distances)


def pseudotime_from_root(g: KnnGraph, root: int) -> np.ndarray:
    """Dijkstra distances over the symmetrized weighted kNN graph.

    Unreachable nodes get the maximum finite distance plus one.
    """
    indptr, nbrs, wts, _ = map(np.ndarray.tolist,
                               _csr_rows(g.n_nodes, *g.undirected_edges()))
    dist = [np.inf] * g.n_nodes
    dist[root] = 0.0
    heap = [(0.0, root)]
    while heap:
        d, node = heapq.heappop(heap)
        if d > dist[node]:
            continue
        lo, hi = indptr[node], indptr[node + 1]
        for nxt, w in zip(nbrs[lo:hi], wts[lo:hi]):
            nd = d + w
            if nd < dist[nxt]:
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    dist = np.array(dist)
    finite = dist[np.isfinite(dist)]
    dist[~np.isfinite(dist)] = finite.max() + 1.0
    return dist


def _connected_components(n: int, src: np.ndarray, dst: np.ndarray):
    """Label each node with the smallest node of its component: min-label
    propagation over the edges, with pointer jumping."""
    comp = np.arange(n)
    while True:
        new = comp.copy()
        np.minimum.at(new, src, comp[dst])
        np.minimum.at(new, dst, comp[src])
        new = new[new]
        if np.array_equal(new, comp):
            return comp
        comp = new


def graph_connectivity(g: KnnGraph, cell_types) -> float:
    """Mean, over labeled types, of the largest-component fraction of the
    type's induced kNN subgraph."""
    uniq, types = np.unique(cell_types, return_inverse=True)
    src, col = np.nonzero(types[:, None] == types[g.neighbors])
    # these edges join cells of one type, so each component lies in a type
    comp = _connected_components(g.n_nodes, src, g.neighbors[src, col])
    largest = np.zeros(types.max() + 1, dtype=np.int64)
    np.maximum.at(largest, types, np.bincount(comp)[comp])
    return float(np.mean((largest / np.bincount(types))[uniq >= 0]))


# ---------------------------------------------------------------------------
# Louvain community detection


def _louvain_level(n, indptr, nbrs, wts, self_w, resolution, order):
    """One Louvain level over CSR rows: local moves until none improves.
    Returns labels."""
    degree = np.bincount(np.repeat(np.arange(n), np.diff(indptr)),
                         weights=wts, minlength=n) + 2 * self_w
    two_m = float(degree.sum())
    if two_m == 0:
        return np.arange(n)
    indptr, nbrs, wts = indptr.tolist(), nbrs.tolist(), wts.tolist()
    degree = degree.tolist()
    scaled = [resolution * d for d in degree]
    community = list(range(n))
    tot = list(degree)
    # each node's weight to each neighbouring community, with the sorted
    # communities, kept from its last visit until one of its neighbours moves
    kept: list = [None] * n
    moved = True
    while moved:
        moved = False
        for node in order.tolist():
            com = community[node]
            lo, hi = indptr[node], indptr[node + 1]
            if kept[node] is None:
                weights_to: dict[int, float] = {}
                for nbr, w in zip(nbrs[lo:hi], wts[lo:hi]):
                    weights_to[community[nbr]] = (
                        weights_to.get(community[nbr], 0.0) + w
                    )
                kept[node] = (weights_to, sorted(weights_to))
            weights_to, candidates = kept[node]
            tot[com] -= degree[node]
            base = weights_to.get(com, 0.0) - scaled[node] * (tot[com] / two_m)
            best_com, best_gain = com, base
            for cand in candidates:
                if cand == com:
                    continue
                gain = weights_to[cand] - scaled[node] * (tot[cand] / two_m)
                if gain > best_gain + 1e-12:
                    best_com, best_gain = cand, gain
            tot[best_com] += degree[node]
            if best_com != com:
                community[node] = best_com
                moved = True
                for nbr in nbrs[lo:hi]:
                    kept[nbr] = None
    return np.array(community)


def louvain_edges(n: int, src, dst, weights, resolution: float,
                  seed: int) -> np.ndarray:
    """Louvain over an undirected weighted edge list given as arrays.

    Node visit order is shuffled once per level by the seeded generator,
    then fixed, so results are reproducible.
    """
    if resolution <= 0:
        raise ValueError("resolution must be > 0")
    rng = np.random.default_rng(seed)
    labels = np.arange(n)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    while True:
        order = rng.permutation(n)
        community = _louvain_level(n, *_csr_rows(n, src, dst, weights),
                                   resolution, order)
        uniq, community = np.unique(community, return_inverse=True)
        if len(uniq) == n:
            break
        labels = community[labels]
        n = len(uniq)
        a, b = community[src], community[dst]
        pairs, inv = np.unique(np.minimum(a, b) * n + np.maximum(a, b),
                               return_inverse=True)
        # bincount adds each pair's weights in edge order
        weights = np.bincount(inv, weights=weights)
        src, dst = pairs // n, pairs % n
    return np.unique(labels, return_inverse=True)[1]


def louvain(g: KnnGraph, resolution: float, seed: int) -> np.ndarray:
    """Louvain on the kNN graph with unit weights (edges symmetrized)."""
    src, dst, _ = g.undirected_edges()
    return louvain_edges(g.n_nodes, src, dst, np.ones(len(src)), resolution,
                         seed)


# ---------------------------------------------------------------------------
# partition agreement


def nmi(labels_a, labels_b) -> float:
    """Mutual information normalized by the mean of the two entropies."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError("label arrays must have equal length")
    n = len(a)
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    pij = table / n
    pa = pij.sum(axis=1)
    pb = pij.sum(axis=0)
    ha = -np.sum(pa[pa > 0] * np.log(pa[pa > 0]))
    hb = -np.sum(pb[pb > 0] * np.log(pb[pb > 0]))
    if ha == 0.0 and hb == 0.0:
        return 1.0  # both single-cluster: identical up to relabeling
    if ha == 0.0 or hb == 0.0:
        return 0.0
    mask = pij > 0
    mi = np.sum(pij[mask] * np.log(pij[mask] / np.outer(pa, pb)[mask]))
    return float(min(1.0, max(0.0, mi / ((ha + hb) / 2.0))))


def nmi_cluster_label(g: KnnGraph, labels, seed: int = 0) -> float:
    """Best NMI against `labels` over a Louvain resolution sweep 0.1..2.0.

    Louvain clusters every cell; the comparison reads the labeled ones."""
    labels = np.asarray(labels)
    labeled = labels >= 0
    best = 0.0
    for step in range(1, 21):
        clusters = louvain(g, resolution=step / 10.0, seed=seed)
        best = max(best, nmi(clusters[labeled], labels[labeled]))
    return best


# ---------------------------------------------------------------------------
# silhouettes


def _silhouette_samples(points, labels) -> np.ndarray:
    uniq, inv = np.unique(labels, return_inverse=True)
    if len(uniq) < 2:
        raise ValueError("silhouette needs at least 2 distinct labels")
    counts = np.bincount(inv)
    member = (inv[:, None] == np.arange(len(uniq))).astype(np.float64)
    # sums[i, l]: distance from cell i to all cells labeled l
    sums = np.vstack([dist @ member for _, dist in
                      _distance_blocks(np.asarray(points, dtype=np.float64))])
    cells = np.arange(len(inv))
    own = counts[inv]
    a = sums[cells, inv] / np.maximum(own - 1, 1)
    mean_other = sums / counts
    mean_other[cells, inv] = np.inf
    b = mean_other.min(axis=1)
    denom = np.maximum(a, b)
    # singleton clusters and all-zero distances score 0 by convention
    return np.divide(b - a, denom, out=np.zeros(len(inv)),
                     where=(own > 1) & (denom > 0))


def silhouette_asw(points, labels) -> float:
    """Mean silhouette width in [-1, 1]."""
    return float(_silhouette_samples(points, labels).mean())


def cell_type_asw(embedding, cell_types) -> float:
    """Silhouette on the labeled cells' types, rescaled onto [0, 1]."""
    types = np.asarray(cell_types)
    labeled = types >= 0
    return (silhouette_asw(np.asarray(embedding)[labeled], types[labeled])
            + 1.0) / 2.0


class NoBatchMixing(ValueError):
    """No labeled cell type holds two batches, so batch ASW is undefined."""


def batch_asw(embedding, batch_labels, cell_types) -> float:
    """Batch-mixing score: mean over cell types of mean(1 - |s|).

    Silhouettes are computed on batch labels within each labeled cell
    type; types containing a single batch are skipped.
    """
    pts = np.asarray(embedding, dtype=np.float64)
    batches = np.asarray(batch_labels)
    types = np.asarray(cell_types)
    scores = []
    for t in np.unique(types[types >= 0]):
        members = types == t
        if len(np.unique(batches[members])) < 2:
            continue
        s = _silhouette_samples(pts[members], batches[members])
        scores.append(float((1.0 - np.abs(s)).mean()))
    if not scores:
        raise NoBatchMixing("no cell type contains two or more batches")
    return float(np.mean(scores))


# ---------------------------------------------------------------------------
# conservation metrics


def variance_explained(scores, coords) -> float:
    """R^2 of an ordinary least-squares fit of scores onto the coordinates."""
    y = np.asarray(scores, dtype=np.float64)
    x = np.asarray(coords, dtype=np.float64)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 0.0
    design = np.hstack([x, np.ones((len(y), 1))])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(max(0.0, 1.0 - (resid * resid).sum() / ss_tot))


def cell_cycle_conservation(program_scores, embedding, batch_labels,
                            var_before: dict) -> float:
    """Per-batch 1 - |Var_after - Var_before| / Var_before, averaged.

    Var_after is the R^2 of regressing the per-cell program score onto the
    embedding coordinates within the batch. var_before maps batch label to
    the caller-computed pre-integration value; batches with Var_before <= 0
    are skipped with a warning.
    """
    scores = np.asarray(program_scores, dtype=np.float64)
    emb = np.asarray(embedding, dtype=np.float64)
    batches = np.asarray(batch_labels)
    per_batch = []
    for b in np.unique(batches):
        vb = float(var_before[b])
        if vb <= 0:
            warnings.warn(f"batch {b!r} has Var_before <= 0; skipped")
            continue
        members = batches == b
        va = variance_explained(scores[members], emb[members])
        per_batch.append(min(1.0, max(0.0, 1.0 - abs(va - vb) / vb)))
    if not per_batch:
        raise ValueError("no batch with positive Var_before")
    return float(np.mean(per_batch))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    _, inv, counts = np.unique(values, return_inverse=True,
                               return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inv]


def spearman(a, b) -> float:
    """Rank correlation with average-rank tie handling."""
    ra = _average_ranks(np.asarray(a, dtype=np.float64))
    rb = _average_ranks(np.asarray(b, dtype=np.float64))
    sa, sb = ra.std(), rb.std()
    if sa == 0 or sb == 0:
        raise ValueError("constant input: rank correlation undefined")
    return float(((ra - ra.mean()) * (rb - rb.mean())).mean() / (sa * sb))


def trajectory_conservation(pseudotime_before, pseudotime_after) -> float:
    """(Spearman + 1) / 2; constant inputs give 0.5 with a warning."""
    before = np.asarray(pseudotime_before, dtype=np.float64)
    after = np.asarray(pseudotime_after, dtype=np.float64)
    if before.shape != after.shape or len(before) < 2:
        raise ValueError("pseudotime arrays must have equal length >= 2")
    try:
        s = spearman(before, after)
    except ValueError:
        warnings.warn("constant pseudotime: correlation undefined, scoring 0.5")
        return 0.5
    return (s + 1.0) / 2.0


# ---------------------------------------------------------------------------
# aggregation and report IO


@dataclass
class MetricReport:
    nmi: float
    cell_type_asw: float
    cc_conservation: float
    trajectory_conservation: float
    batch_asw: float
    graph_connectivity: float
    s_bio: float
    s_batch: float
    overall: float

    FIELDS = ("nmi", "cell_type_asw", "cc_conservation",
              "trajectory_conservation", "batch_asw", "graph_connectivity",
              "s_bio", "s_batch", "overall")


def aggregate(nmi_score, cell_type_asw_score, cc_score, trajectory_score,
              batch_asw_score, connectivity_score) -> MetricReport:
    """Equal weights within each class, then 0.6 bio + 0.4 batch. A metric
    given as nan (its input missing or one batch only) is left out of its
    class's score."""
    s_bio = float(np.nanmean([nmi_score, cell_type_asw_score, cc_score,
                              trajectory_score]))
    s_batch = float(np.nanmean([batch_asw_score, connectivity_score]))
    return MetricReport(
        nmi=nmi_score,
        cell_type_asw=cell_type_asw_score,
        cc_conservation=cc_score,
        trajectory_conservation=trajectory_score,
        batch_asw=batch_asw_score,
        graph_connectivity=connectivity_score,
        s_bio=s_bio,
        s_batch=s_batch,
        overall=0.6 * s_bio + 0.4 * s_batch,
    )


def write_report(report: MetricReport, path):
    with open(path, "w", encoding="utf-8") as fh:
        for name in MetricReport.FIELDS:
            fh.write(f"{name} = {getattr(report, name):.6f}\n")
