"""
Modality matching with batch-partitioned assignment
===================================================

Trains the two decoupled towers against the known train-set pairing, then
recovers the cell correspondence: cosine scores within each batch, a
percentile filter, and a maximum-weight rectangular assignment.
"""

import numpy as np

from cellgraph.convnet import ConvConfig
from cellgraph.data import generate_synthetic
from cellgraph.tasks import (TrainProtocol, logit_scale, match_inference,
                             match_scores, train_matcher)

# 500 cells; modality 2 rows are shuffled and the true pairing is recorded
ds = generate_synthetic(n_cells=500, noise=0.1, dropout=0.3, seed=7)
print(f"dataset: {ds.n_cells} cells, "
      f"{ds.modality_1.n_cols}+{ds.modality_2.n_cols} features, "
      f"{len(ds.batch_names)} batches")

protocol = TrainProtocol(patience_epochs=300, max_epochs=1200, seed=0,
                         weight_decay=1e-3, lr_decay_rate=0.7,
                         lr_decay_every=200)
print("training matcher (decoupled propagation precomputed once)...")
conv = ConvConfig(n_layers=3, hidden_dim=64, dropout_rate=0.5)
model = train_matcher(ds.modality_1, ds.modality_2, ds.correspondence, conv,
                      protocol)
print(f"  best epoch {model.best_epoch}, "
      f"validation metric {model.validation_loss:.4f}")

# inference never sees the pairing: embeddings plus batch labels only
output = model.infer(ds.batch_labels, ds.batch_labels_2())
scores = match_scores(output, ds.correspondence)
print(f"  top-1 assignment accuracy  {scores['top1_accuracy']:.3f} "
      f"(chance {1.0 / ds.n_cells:.4f})")
print(f"  competition score (one-hot assignment) "
      f"{scores['score_assignment']:.0f}")
print(f"  competition score (softmax probabilities) "
      f"{scores['score_softmax']:.2f}  (uniform scores 1.0)")

# inference keeps each shared batch's softmax normalizers, not its
# probabilities; a batch's row softmax rebuilt from them is stochastic
kept = sum(a.size for b in output.blocks for a in b)
print(f"  kept {kept} normalizer and index entries for "
      f"{sum(len(b.rows) * len(b.cols) for b in output.blocks)} scores")
row_sums = np.concatenate([
    np.exp(output.scale * output.u1[b.rows] @ output.u2[b.cols].T
           - b.row_max[:, None]).sum(axis=1) / b.row_sum
    for b in output.blocks])
print(f"  row-probability sums: min {row_sums.min():.6f}, "
      f"max {row_sums.max():.6f}")

# swapping the modalities transposes the assignment and keeps the score
h1, h2 = model.embeddings()
reverse = match_inference(h2, h1, ds.batch_labels_2(), ds.batch_labels,
                          model.cfg.percentile, logit_scale(model.store))
inverse_truth = np.argsort(ds.correspondence)
rev_scores = match_scores(reverse, inverse_truth)
print(f"  dual subtask score (swapped modalities) "
      f"{rev_scores['score_assignment']:.0f} - identical by symmetry")
