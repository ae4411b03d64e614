"""
Modality prediction on synthetic paired data
============================================

Builds a cell-feature graph from the source modality, trains the coupled
4-layer network against the target modality, and compares the validation
RMSE with the truncated-SVD + linear-regression baseline.
"""

import numpy as np

from cellgraph.convnet import ConvConfig
from cellgraph.data import generate_synthetic
from cellgraph.graph import EdgeScaling, build_bipartite
from cellgraph.tasks import (TrainProtocol, mean_predictor_rmse,
                             svd_linear_baseline, train_prediction)

# a paired dataset: 400 cells measured in two modalities derived from a
# shared latent state, with dropout noise in both
ds = generate_synthetic(n_cells=400, dims=(60, 45), noise=0.1, dropout=0.3,
                        seed=11)
target = ds.modality_2_aligned().to_dense()

# the graph has one node per cell and one per source feature; raw counts
# are non-negative, but the config still asks for post-aggregation
# normalization (the setting that handles reduced inputs as well)
graph = build_bipartite(ds.modality_1)

cfg = ConvConfig(n_layers=4, hidden_dim=48, residual_mode="initial",
                 aggregation_norm=EdgeScaling.POST_NORM, dropout_rate=0.2)
protocol = TrainProtocol(patience_epochs=100, max_epochs=600, seed=0,
                         weight_decay=1e-4, lr_decay_rate=0.7,
                         lr_decay_every=150)

print("training the prediction network (full batch, early stopping)...")
model = train_prediction(graph, target, cfg, protocol)
print(f"  best epoch {model.best_epoch}, "
      f"validation RMSE {model.validation_rmse:.4f}")

# two reference points: predicting the per-feature mean, and the classic
# truncated-SVD + least-squares pipeline
mean_rmse = mean_predictor_rmse(target, model.train_idx, model.val_idx)
svd_rmse = svd_linear_baseline(ds.modality_1, target, model.train_idx,
                               model.val_idx, rank=32, seed=0)
print(f"  mean predictor RMSE      {mean_rmse:.4f}")
print(f"  SVD + regression RMSE    {svd_rmse:.4f}")
print(f"  GNN / SVD baseline ratio {model.validation_rmse / svd_rmse:.3f}")

# the trained model predicts for every cell in the graph
predictions = model.predict()
val_err = predictions[model.val_idx] - target[model.val_idx]
print(f"  validation residual spread {np.std(val_err):.4f}")
