"""
Joint embedding and the evaluation-metric suite
===============================================

LSI-reduces both modalities, concatenates them into one cell-feature graph,
trains the decoupled network with reconstruction + cell-type + norm losses,
and scores the embedding with the six-metric suite.
"""

import numpy as np

from cellgraph.convnet import ConvConfig
from cellgraph.data import generate_synthetic
from cellgraph.metrics import (aggregate, batch_asw, cell_type_asw,
                               cell_cycle_conservation, graph_connectivity,
                               knn_graph, nmi_cluster_label,
                               pseudotime_from_root, trajectory_conservation,
                               variance_explained)
from cellgraph.tasks import (TrainProtocol, pca_concat_baseline,
                             train_joint_embedding)

ds = generate_synthetic(n_cells=400, dims=(60, 45), n_types=3, n_batches=2,
                        noise=0.3, dropout=0.6, seed=21)
m2 = ds.modality_2_aligned()

protocol = TrainProtocol(patience_epochs=100, max_epochs=500, seed=0,
                         weight_decay=1e-4)
print("training the joint-embedding head...")
model = train_joint_embedding(ds.modality_1, m2, ds.cell_type_labels,
                              ConvConfig(), protocol)
embedding = model.embed()
print(f"  embedding {embedding.shape}, first {model.n_types} "
      f"dimensions carry the cell-type logits")

# one kNN graph serves NMI, trajectory and connectivity
graph = knn_graph(embedding, 15)

# --- biology conservation -------------------------------------------------
nmi_score = nmi_cluster_label(graph, ds.cell_type_labels, seed=0)
asw = cell_type_asw(embedding, ds.cell_type_labels)

# cell-cycle conservation compares variance explained by a per-cell gene
# program before vs after integration; "before" comes from the LSI input
lsi_input = model.states[0]
var_before = {
    b: variance_explained(ds.cc_scores[ds.batch_labels == b],
                          lsi_input[ds.batch_labels == b])
    for b in np.unique(ds.batch_labels)
}
cc = cell_cycle_conservation(ds.cc_scores, embedding, ds.batch_labels,
                             var_before)

# trajectory conservation: rank agreement of pseudotime before vs after
root = int(np.argmin(ds.pseudotime))
after = pseudotime_from_root(graph, root)
traj = trajectory_conservation(ds.pseudotime, after)

# --- batch removal ----------------------------------------------------------
basw = batch_asw(embedding, ds.batch_labels, ds.cell_type_labels)
connectivity = graph_connectivity(graph, ds.cell_type_labels)

report = aggregate(nmi_score, asw, cc, traj, basw, connectivity)
for name in ("nmi", "cell_type_asw", "cc_conservation",
             "trajectory_conservation", "batch_asw", "graph_connectivity",
             "s_bio", "s_batch", "overall"):
    print(f"  {name:24s} {getattr(report, name):.4f}")

baseline = pca_concat_baseline(ds.modality_1, m2, rank=32, seed=0)
baseline_nmi = nmi_cluster_label(knn_graph(baseline, 15), ds.cell_type_labels,
                                 seed=0)
print(f"  PCA-concatenation baseline NMI {baseline_nmi:.4f} "
      f"(GNN margin {nmi_score - baseline_nmi:+.4f})")
