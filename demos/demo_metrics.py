"""
Evaluation metrics on constructed geometries
============================================

Shows what each metric of the suite responds to, using instances whose
scores are known in advance.
"""

import numpy as np

from cellgraph.assignment import AssignmentProblem, percentile_filter, solve
from cellgraph.metrics import (aggregate, batch_asw, cell_type_asw,
                               graph_connectivity, knn_graph, louvain,
                               nmi, silhouette_asw)

rng = np.random.default_rng(0)

# --- silhouettes: compact, separated clusters score high ---------------------
tight = np.vstack([rng.normal(0, 0.05, (30, 2)),
                   rng.normal(8, 0.05, (30, 2))])
labels = np.repeat([0, 1], 30)
print(f"silhouette, two tight far clusters: "
      f"{silhouette_asw(tight, labels):.3f}")
print(f"cell-type ASW (rescaled to [0,1]):   "
      f"{cell_type_asw(tight, labels):.3f}")

mixed = rng.standard_normal((60, 2))
print(f"silhouette, random labels on one blob: "
      f"{silhouette_asw(mixed, labels):.3f}")

# --- batch mixing: interleaved batches score near 1 -------------------------
base = np.linspace(0, 1, 40).reshape(-1, 1)
interleaved = np.vstack([base, base + 1e-6])
batches = np.repeat([0, 1], 40)
types = np.zeros(80)
print(f"batch ASW, perfectly interleaved batches: "
      f"{batch_asw(interleaved, batches, types):.3f}")
separated = np.vstack([base, base + 50.0])
print(f"batch ASW, fully separated batches:       "
      f"{batch_asw(separated, batches, types):.3f}")

# --- connectivity: split a type in half and it scores 0.5 --------------------
halves = np.vstack([rng.normal(0, 0.1, (20, 2)),
                    rng.normal(100, 0.1, (20, 2))])
print(f"graph connectivity of a split type: "
      f"{graph_connectivity(knn_graph(halves, 3), np.zeros(40)):.3f}")

# --- Louvain + NMI: planted clusters are recovered ---------------------------
planted = np.vstack([rng.normal(c * 6, 0.4, (25, 3)) for c in range(3)])
truth = np.repeat([0, 1, 2], 25)
clusters = louvain(knn_graph(planted, 10), resolution=1.0, seed=0)
print(f"NMI of Louvain clusters vs planted labels: "
      f"{nmi(clusters, truth):.3f}")

# --- aggregation: 0.6 bio + 0.4 batch ----------------------------------------
report = aggregate(0.9, 0.8, 1.0, 0.7, 0.6, 0.95)
print(f"aggregate: s_bio {report.s_bio:.3f}, s_batch {report.s_batch:.3f}, "
      f"overall {report.overall:.3f}")

# --- assignment: percentile filter + Hungarian -------------------------------
scores = rng.standard_normal((6, 6))
scores[np.arange(6), np.arange(6)] += 3.0  # plant the diagonal
keep = percentile_filter(scores, 80.0)
result = solve(AssignmentProblem(scores, keep))
print(f"assignment recovers the planted diagonal: "
      f"{[j for _, j in result.pairs]}")
